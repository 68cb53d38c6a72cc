"""Columnar micro-batch execution: byte-identity, codegen, recovery.

The columnar invariant (docs/RUNTIME.md section 9): at any batch size,
serial or sharded, with or without two-phase aggregation or coalescing,
the changelog a columnar run produces is *byte-identical* — values,
``ptime``, ordering, watermark steps — to the row-at-a-time run of the
same configuration.  Columnar mode changes how batches move between
operators (per-column vectors, fused filter/project pipelines,
generated loops), never what they contain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RetryPolicy, StreamEngine
from repro.core.changelog import Change, ChangeKind
from repro.core.colbatch import ColumnarBatch
from repro.core.errors import ExecutionError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.schema import SqlType
from repro.core.times import seconds, t
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.exec.operators.pipeline import PipelineOperator
from repro.exec.operators.stateless import FilterOperator, ProjectOperator
from repro.nexmark.queries import Q3_LOCAL_ITEM_SUGGESTION
from repro.plan.rex import (
    RexCase,
    RexCast,
    RexCurrentTime,
    RexInput,
    RexLiteral,
    compile_rex,
)

KEYED_SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

TUMBLE_SQL = (
    "SELECT k, wend, COUNT(*) AS n "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS "
    "GROUP BY k, wend"
)

SUM_SQL = (
    "SELECT k, wend, SUM(v) AS total "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS "
    "GROUP BY k, wend"
)

STATELESS_SQL = "SELECT k + 1 AS k1, v * 2 AS v2 FROM S WHERE v >= 1"

HOP_SQL = (
    "SELECT wstart, COUNT(*) AS n "
    "FROM Hop(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE, slide => INTERVAL '1' MINUTE) HS "
    "GROUP BY wstart"
)

# Expressions that codegen cannot emit inline — they run through the
# spliced closure fallback inside the generated loop.
FALLBACK_SQL = (
    "SELECT CAST(v AS STRING) AS vs, "
    "CASE WHEN v > 2 THEN 'hi' ELSE 'lo' END AS tag "
    "FROM S WHERE v % 2 = 0"
)

entries_strategy = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 50),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def _build_events(entries):
    events = []
    ptime = 1000
    wm_seconds = 0
    for kind, key, secs, advance in entries:
        if advance:
            ptime += 100
        if kind == 3:
            wm_seconds = max(wm_seconds, secs)
            events.append(wm(ptime, t("8:00") + seconds(wm_seconds)))
        else:
            events.append(ins(ptime, (key, t("8:00") + seconds(secs), kind)))
    return events


def _run(events, sql, **config):
    engine = StreamEngine(config=ExecutionConfig(**config))
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    return engine.query(sql).run()


def _assert_identical(events, sql, **config):
    """Columnar on == columnar off, byte for byte, under ``config``."""
    row = _run(events, sql, columnar="off", **config)
    col = _run(events, sql, columnar="on", **config)
    assert col.changes == row.changes
    assert col.watermarks.as_pairs() == row.watermarks.as_pairs()
    assert col.late_dropped == row.late_dropped


# ---------------------------------------------------------------------------
# hypothesis: columnar == row-at-a-time, byte for byte
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    entries=entries_strategy,
    sql=st.sampled_from([STATELESS_SQL, TUMBLE_SQL, FALLBACK_SQL]),
    batch_size=st.sampled_from([1, 2, 7, 64]),
)
def test_columnar_identical_serial(entries, sql, batch_size):
    _assert_identical(_build_events(entries), sql, batch_size=batch_size)


@settings(max_examples=15, deadline=None)
@given(
    entries=entries_strategy,
    shards=st.sampled_from([1, 3]),
    two_phase=st.sampled_from(["off", "on"]),
    coalesce=st.booleans(),
)
def test_columnar_identical_sharded(entries, shards, two_phase, coalesce):
    _assert_identical(
        _build_events(entries),
        SUM_SQL,
        batch_size=7,
        parallelism=shards,
        backend="sync",
        two_phase=two_phase,
        coalesce_updates=coalesce,
    )


@settings(max_examples=10, deadline=None)
@given(entries=entries_strategy)
def test_columnar_identical_hop(entries):
    _assert_identical(_build_events(entries), HOP_SQL, batch_size=16)


def test_columnar_auto_follows_batch_size():
    events = _build_events([(0, 0, 5, True), (1, 1, 9, True), (3, 0, 20, False)])
    engine = StreamEngine(
        config=ExecutionConfig(batch_size=64, columnar="auto")
    )
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    flow = engine.query(STATELESS_SQL).dataflow()
    assert flow._columnar_active
    engine2 = StreamEngine(config=ExecutionConfig(columnar="auto"))
    engine2.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    assert not engine2.query(STATELESS_SQL).dataflow()._columnar_active


# ---------------------------------------------------------------------------
# codegen: fused pipelines, fallback splicing, build-time errors
# ---------------------------------------------------------------------------


def _int_input(i):
    return RexInput(i, type=SqlType.INT)


def _lit(value, sql_type=SqlType.INT):
    return RexLiteral(value, type=sql_type)


def _changes(rows):
    return [Change(ChangeKind.INSERT, tuple(row), 1000 + i)
            for i, row in enumerate(rows)]


def test_pipeline_codegen_matches_interpreter():
    """The generated loops against the reference: the unfused
    ``FilterOperator`` -> ``ProjectOperator`` chain over ``compile_rex``
    closures, on the same batch."""
    cond = RexCall_gt(_int_input(0), _lit(2))
    total = RexCall_add(_int_input(0), _int_input(1))
    compiled = PipelineOperator(
        _two_int_schema(), 2, (("filter", cond), ("project", (total,)))
    )
    keep = FilterOperator(_two_int_schema(), compile_rex(cond))
    project = ProjectOperator(_two_int_schema(), [compile_rex(total)])
    batch = _changes([(1, 10), (3, 20), (5, 30), (None, 40)])
    reference = project.on_batch(0, keep.on_batch(0, batch))
    assert [c.values for c in reference] == [(23,), (35,)]
    assert compiled.on_batch(0, batch) == reference
    out = compiled.on_cols(0, ColumnarBatch.from_changes(batch, 2))
    assert out.to_changes() == reference


@settings(max_examples=40, deadline=None)
@given(
    stamps=st.lists(st.integers(-10**7, 10**7), min_size=1, max_size=30),
    size=st.integers(1, 10**6),
    offset=st.integers(0, 10**5),
    keep_above=st.integers(-1, 3),
)
def test_tumble_step_matches_tumble_operator(stamps, size, offset, keep_above):
    """The reference is ``TumbleOperator`` (after ``FilterOperator``):
    the same rows from the row loop and from the columnar loop — which
    shares the input's columns, kinds, ptimes and ``seqs`` when no
    filter runs, and gathers ``seqs`` like ``ptimes`` when one does."""
    from repro.exec.operators.window import TumbleOperator

    schema = Schema([timestamp_col("ts", event_time=True), int_col("v")])
    tumble = TumbleOperator(schema, 0, size, offset)
    batch = _changes([(ts, i % 5) for i, ts in enumerate(stamps)])
    seqs = list(range(0, 2 * len(batch), 2))
    cols = ColumnarBatch.from_changes(batch, 2)
    cols.seqs = seqs
    alone = PipelineOperator(schema, 2, (("tumble", (0, size, offset)),))
    assert alone.on_batch(0, batch) == tumble.on_batch(0, batch)
    out = alone.on_cols(0, cols)
    assert out.to_changes() == tumble.on_batch(0, batch)
    assert all(a is b for a, b in zip(out.columns[2:], cols.columns))
    assert out.seqs is seqs
    assert out.kinds is cols.kinds and out.ptimes is cols.ptimes

    cond = RexCall_gt(_int_input(1), _lit(keep_above))
    keep = FilterOperator(schema, compile_rex(cond))
    fused = PipelineOperator(
        schema, 2, (("filter", cond), ("tumble", (0, size, offset)))
    )
    assert fused.on_batch(0, batch) == tumble.on_batch(0, keep.on_batch(0, batch))
    kept = [c.values[1] > keep_above for c in batch]
    out = fused.on_cols(0, cols)
    assert out.to_changes() == tumble.on_batch(0, keep.on_batch(0, batch))
    assert out.seqs == [seq for seq, k in zip(seqs, kept) if k]


def test_a_tumble_step_refuses_a_null_timestamp_like_tumble():
    schema = Schema([timestamp_col("ts", event_time=True), int_col("v")])
    op = PipelineOperator(schema, 2, (("tumble", (0, 1000, 0)),))
    rows = _changes([(5, 1), (None, 2)])
    for run in (
        lambda: op.on_batch(0, rows),
        lambda: op.on_cols(0, ColumnarBatch.from_changes(rows, 2)),
    ):
        with pytest.raises(
            ExecutionError, match="^NULL event timestamp in Tumble input$"
        ):
            run()


def test_case_and_cast_fall_back_to_closures():
    case = RexCase(
        whens=((RexCall_gt(_int_input(0), _lit(1)), _lit("hi", SqlType.STRING)),),
        else_=_lit("lo", SqlType.STRING),
        type=SqlType.STRING,
    )
    cast = RexCast(_int_input(1), type=SqlType.STRING)
    op = PipelineOperator(_two_int_schema(), 2, (("project", (case, cast)),))
    # The generated source splices closure fallbacks for both exprs.
    source = getattr(op._run_rows, "_codegen_source", "")
    assert "_fb" in source
    out = op.on_batch(0, _changes([(0, 7), (2, 8)]))
    assert [c.values for c in out] == [("lo", "7"), ("hi", "8")]
    cols_out = op.on_cols(0, ColumnarBatch.from_changes(_changes([(0, 7), (2, 8)]), 2))
    rows = cols_out.to_changes() if isinstance(cols_out, ColumnarBatch) else cols_out
    assert [c.values for c in rows] == [("lo", "7"), ("hi", "8")]


def test_current_time_errors_at_build_time():
    clock = RexCurrentTime(type=SqlType.TIMESTAMP)
    with pytest.raises(ExecutionError, match="CURRENT_TIME"):
        PipelineOperator(_two_int_schema(), 2, (("project", (clock,)),))


def test_sql_division_semantics_preserved():
    div = RexCall_div(_int_input(0), _int_input(1))
    op = PipelineOperator(_two_int_schema(), 2, (("project", (div,)),))
    out = op.on_batch(0, _changes([(7, 2), (-7, 2), (7, None)]))
    assert [c.values for c in out] == [(3,), (-3,), (None,)]
    with pytest.raises(ExecutionError, match="division by zero"):
        op.on_batch(0, _changes([(1, 0)]))


def test_columnar_batch_roundtrip_preserves_identity():
    batch = _changes([(1, 2), (3, 4)])
    cols = ColumnarBatch.from_changes(batch, 2)
    # The memoized row view hands back the very Change objects the
    # batch was built from — no reconstruction.
    assert all(a is b for a, b in zip(cols.to_changes(), batch))
    rebuilt = ColumnarBatch(cols.columns, cols.kinds, cols.ptimes)
    assert rebuilt.to_changes() == batch


def _two_int_schema():
    return Schema([int_col("a"), int_col("b")])


def RexCall_gt(a, b):
    from repro.plan.rex import RexCall

    return RexCall(">", (a, b), type=SqlType.BOOL)


def RexCall_add(a, b):
    from repro.plan.rex import RexCall

    return RexCall("+", (a, b), type=SqlType.INT)


def RexCall_div(a, b):
    from repro.plan.rex import RexCall

    return RexCall("/", (a, b), type=SqlType.INT)


# ---------------------------------------------------------------------------
# fault tolerance: columnar batches align with checkpoints
# ---------------------------------------------------------------------------


def test_columnar_crash_after_checkpoint_recovers_exactly(nexmark_small):
    """batch_size=64, columnar on, crash-after-checkpoint: recovery
    replays the same micro-batches through the same columnar pipelines
    and reproduces the fault-free serial output byte for byte."""
    serial = StreamEngine()
    nexmark_small.register_on(serial)
    baseline = serial.query(Q3_LOCAL_ITEM_SUGGESTION).dataflow().run()

    faulted = StreamEngine(
        config=ExecutionConfig(
            parallelism=3,
            backend="threads",
            batch_size=64,
            columnar="on",
            retry=RetryPolicy(max_restarts=3, checkpoint_interval=3),
            fault_plan="crash-after-checkpoint:shard=0,at=1",
        )
    )
    nexmark_small.register_on(faulted)
    result = faulted.query(Q3_LOCAL_ITEM_SUGGESTION).run()
    assert result.changes == baseline.changes
    assert result.watermarks.as_pairs() == baseline.watermarks.as_pairs()
    recovery = result.metrics.recovery
    assert recovery is not None and recovery.shard_restarts > 0


def test_columnar_checkpoint_restore_roundtrip():
    """Cut a checkpoint mid-stream on a columnar flow, rebuild from the
    structural recipe, restore, and finish: identical to an
    uninterrupted columnar run."""
    from repro.exec.executor import Dataflow

    events = _build_events(
        [(0, 0, 5, True), (1, 1, 9, False), (2, 0, 12, True),
         (3, 0, 20, True), (0, 2, 25, False), (1, 0, 30, True),
         (3, 1, 40, True)]
    )
    engine = StreamEngine(
        config=ExecutionConfig(batch_size=64, columnar="on")
    )
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    query = engine.query(TUMBLE_SQL)
    uninterrupted = query.dataflow().run()

    flow = query.dataflow()
    half = len(events) // 2
    for event in events[:half]:
        flow.process(event, "S")
    blob = flow.checkpoint()

    import pickle

    restored = Dataflow.from_structure(
        [("main", query.plan)],
        pickle.loads(blob),
        {"S": TimeVaryingRelation(KEYED_SCHEMA, events)},
        engine.config,
    )
    restored.restore(blob)
    for event in events[half:]:
        restored.process(event, "S")
    result = restored.finish()
    assert result.changes == uninterrupted.changes
    assert result.watermarks.as_pairs() == uninterrupted.watermarks.as_pairs()


# ---------------------------------------------------------------------------
# EXPLAIN and config surface
# ---------------------------------------------------------------------------


def test_physical_explain_annotates_columnar():
    engine = StreamEngine(
        config=ExecutionConfig(batch_size=64, columnar="auto")
    )
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, []))
    text = engine.query(STATELESS_SQL).explain(mode="physical")
    assert "[columnar]" in text
    assert "[fused: filter+project]" in text


def test_physical_explain_columnar_off():
    engine = StreamEngine()
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, []))
    text = engine.query(STATELESS_SQL).explain(mode="physical")
    assert "Columnar: off" in text


def test_columnar_config_validation():
    from repro.core.errors import ValidationError

    with pytest.raises(ValidationError, match="columnar"):
        ExecutionConfig(columnar="sideways")
    assert ExecutionConfig(columnar="on").columnar == "on"


def test_columnar_cli_flag():
    from repro.__main__ import build_config, build_parser

    parser = build_parser()
    args = parser.parse_args(["--columnar", "on"])
    assert build_config(args).columnar == "on"


# ---------------------------------------------------------------------------
# one transition, three encodings — on operator instances directly
# ---------------------------------------------------------------------------
#
# The SQL-level properties above reach the aggregate through whatever
# shape the planner builds.  These drive AggregateOperator itself, so
# the shapes the fold binds differently (global / 1-2-3 group keys,
# one aggregate vs several, DISTINCT, allowed lateness) each get the
# rows-batched == columnar == concatenated-singletons check, including
# retract-to-empty and the empty-group error.

_AGG_INPUT = Schema(
    [timestamp_col("wend", event_time=True), int_col("a"), int_col("b"),
     int_col("v")]
)

# group indices, event-time positions within the key
_KEY_SHAPES = {
    "global": ((), ()),
    "wend": ((0,), (0,)),
    "wend_a": ((0, 1), (0,)),
    "a_wend_b": ((1, 0, 2), (1,)),
}


def _agg_calls(names):
    from repro.core.schema import Column
    from repro.plan.logical import AggCall
    from repro.sql.functions import default_registry

    reg = default_registry()
    calls = []
    for name in names:
        if name == "COUNT(*)":
            fn, arg, distinct = reg.aggregate("COUNT", star=True), None, False
        elif name.startswith("DISTINCT "):
            fn, arg, distinct = reg.aggregate(name.split()[1]), 3, True
        else:
            fn, arg, distinct = reg.aggregate(name), 3, False
        calls.append(
            AggCall(fn, arg, Column(f"c{len(calls)}", SqlType.INT), distinct)
        )
    return calls


_AGG_SHAPES = {
    "max": ["MAX"],
    "count_star": ["COUNT(*)"],
    "count_max": ["COUNT(*)", "MAX"],
    "distinct": ["DISTINCT COUNT"],
    "distinct_sum": ["DISTINCT COUNT", "SUM"],
}


def _aggregate_operator(keys, aggs, lateness, cls=None, **extra):
    from repro.exec.operators.aggregate import AggregateOperator

    group, et = _KEY_SHAPES[keys]
    calls = _agg_calls(_AGG_SHAPES[aggs])
    schema = Schema(
        [_AGG_INPUT.columns[i] for i in group] + [c.output for c in calls]
    )
    return (cls or AggregateOperator)(
        schema, group, calls, et, False, allowed_lateness=lateness, **extra
    )


# One step: a watermark, or a same-instant run of rows.  A row is
# (op, wend, a, b, v): op 0/1 insert, 2 retract some live row (so
# groups really drain to empty), 3 retract a row of a window nothing
# live belongs to (the empty-group error, unless it is late).
_agg_steps = st.lists(
    st.one_of(
        st.integers(0, 6),
        st.lists(
            st.tuples(
                st.sampled_from([0, 0, 1, 2, 2, 3]),
                st.integers(0, 6),
                st.integers(0, 1),
                st.integers(0, 1),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=12,
        ),
    ),
    min_size=1,
    max_size=12,
)


def _agg_script(steps, is_global):
    """Turn drawn steps into [(ptime, watermark | [Change])]."""
    script, live, ptime, watermark = [], [], 100, 0
    for step in steps:
        ptime += 10
        if isinstance(step, int):
            watermark = max(watermark, step * 10)  # watermarks never regress
            script.append((ptime, watermark))
            continue
        rows = []
        for op, wend, a, b, v in step:
            values = (wend * 10, a, b, v)
            if op == 3 and not (
                live if is_global else any(r[0] == values[0] for r in live)
            ):
                kind = ChangeKind.RETRACT
            elif op >= 2 and live:
                values = live.pop(v % len(live))
                kind = ChangeKind.RETRACT
            else:
                live.append(values)
                kind = ChangeKind.INSERT
            rows.append(Change(kind, values, ptime))
        script.append((ptime, rows))
    return script


def _drive_aggregate(op, script, deliver):
    """Per-step outputs; a step that raises logs "error" and ends the
    run (what a batch emitted before raising is lost by design)."""
    log = [list(op.on_open())]
    for ptime, step in script:
        if isinstance(step, int):
            log.append(op.on_watermark(0, step, ptime)[0])
            continue
        try:
            log.append(deliver(op, step))
        except ExecutionError as exc:
            assert "retraction for empty group" in str(exc)
            log.append("error")
            return log, None
    return log, (op.late_dropped, op.state_size(), op.group_count)


def _deliver_singletons(op, rows):
    out = []
    for change in rows:
        out.extend(op.on_change(0, change))
    return out


def _deliver_rows(op, rows):
    return op.on_batch(0, rows)


def _deliver_columns(op, rows):
    return op.on_cols(0, ColumnarBatch.from_changes(rows, len(_AGG_INPUT)))


@pytest.mark.parametrize("lateness", [0, 15])
@pytest.mark.parametrize("aggs", sorted(_AGG_SHAPES))
@pytest.mark.parametrize("keys", sorted(_KEY_SHAPES))
@settings(max_examples=25, deadline=None)
@given(steps=_agg_steps)
def test_aggregate_encodings_identical(keys, aggs, lateness, steps):
    script = _agg_script(steps, keys == "global")
    runs = [
        _drive_aggregate(
            _aggregate_operator(keys, aggs, lateness), script, deliver
        )
        for deliver in (_deliver_singletons, _deliver_rows, _deliver_columns)
    ]
    assert runs[1] == runs[0], "rows-batched != concatenated singletons"
    assert runs[2] == runs[0], "columnar != concatenated singletons"


def test_aggregate_encodings_cover_the_edge_paths():
    """The property above is only as good as its inputs: pin one script
    that provably takes the late-drop, retract-to-empty, and
    empty-group-error paths in every encoding."""
    ins_, ret_ = ChangeKind.INSERT, ChangeKind.RETRACT
    script = [
        (110, [Change(ins_, (20, 0, 0, 1), 110), Change(ins_, (30, 0, 0, 2), 110)]),
        (120, 20),
        (130, [Change(ins_, (20, 0, 0, 3), 130), Change(ret_, (30, 0, 0, 2), 130)]),
        (140, [Change(ret_, (40, 0, 0, 1), 140)]),
    ]
    for deliver in (_deliver_singletons, _deliver_rows, _deliver_columns):
        op = _aggregate_operator("wend", "count_max", 0)
        log, _ = _drive_aggregate(op, script, deliver)
        assert op.late_dropped == 1
        assert [(c.kind, c.values) for c in log[3]] == [(ret_, (30, 1, 2))]
        assert log[-1] == "error"
