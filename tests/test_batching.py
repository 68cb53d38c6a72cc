"""Micro-batched execution: byte-identity, compaction, faults, config.

The batching scheduler's contract (docs/RUNTIME.md section 7): at any
``batch_size`` the default-mode changelog is *byte-identical* — values,
``ptime``, ordering, watermark steps — to per-change execution, because
every operator's batch output is the ordered concatenation of its
per-change outputs and batches never span a source or a watermark
event — nor an instant, where a timer or compaction needs them not to
(``Dataflow.run_span_reason``).
``coalesce_updates=True`` deliberately gives that identity up and
promises only per-instant snapshot equivalence, with the dropped churn
accounted in ``changes_coalesced``.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.config as repro_config
from repro import ExecutionConfig, RetryPolicy, StreamEngine
from repro.__main__ import build_config, build_parser
from repro.core.changelog import Change, ChangeKind, compact_intra_instant
from repro.core.errors import ExecutionError, ValidationError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.times import seconds, t
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.nexmark import NexmarkConfig, generate, paper_bid_stream
from repro.nexmark.queries import Q3_LOCAL_ITEM_SUGGESTION, q7_paper

from . import test_columnar as columnar_cases

KEYED_SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

TUMBLE_SQL = (
    "SELECT k, wend, COUNT(*) AS n "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS "
    "GROUP BY k, wend"
)

STATELESS_SQL = "SELECT k + 1 AS k1, v FROM S WHERE v >= 1"

JOIN_SQL = "SELECT S.k, S.v, R.v AS rv FROM S JOIN R ON S.k = R.k"


@pytest.fixture(autouse=True)
def fresh_warning_registry():
    """Each test sees a pristine warn-once registry, then restores it."""
    saved = set(repro_config._WARNED)
    repro_config._WARNED.clear()
    yield
    repro_config._WARNED.clear()
    repro_config._WARNED.update(saved)


# ---------------------------------------------------------------------------
# hypothesis: batched == per-change, byte for byte
# ---------------------------------------------------------------------------

# Entries are ``columnar_cases``': (kind 0-2 = row / 3 = watermark, key,
# event seconds, advance-ptime-first?).  Not advancing ptime yields
# same-instant runs; advancing before every entry (``burst_one_strategy``)
# yields runs that span instants; watermarks mid-run split batches;
# event times at or before the watermark exercise the late-drop path.


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


def _engine(events, batch_size, other_events=None):
    engine = StreamEngine(config=ExecutionConfig(batch_size=batch_size))
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    if other_events is not None:
        engine.register_stream(
            "R", TimeVaryingRelation(KEYED_SCHEMA, other_events)
        )
    return engine


def _assert_all_batch_sizes_identical(sql, events, other_events=None):
    baseline = _engine(events, 1, other_events).query(sql).dataflow().run()
    for batch_size in (2, 7, 64):
        result = (
            _engine(events, batch_size, other_events).query(sql).dataflow().run()
        )
        assert result.changes == baseline.changes, f"batch_size={batch_size}"
        assert result.watermarks.as_pairs() == baseline.watermarks.as_pairs()
        assert result.late_dropped == baseline.late_dropped


@settings(max_examples=30, deadline=None)
@given(entries=columnar_cases.any_entries)
def test_batched_stateless_identical(entries):
    _assert_all_batch_sizes_identical(STATELESS_SQL, _build_events(entries))


@settings(max_examples=30, deadline=None)
@given(entries=columnar_cases.any_entries)
def test_batched_tumble_aggregate_identical(entries):
    _assert_all_batch_sizes_identical(TUMBLE_SQL, _build_events(entries))


@settings(max_examples=20, deadline=None)
@given(entries=columnar_cases.any_entries, other=columnar_cases.any_entries)
def test_batched_join_identical(entries, other):
    _assert_all_batch_sizes_identical(
        JOIN_SQL, _build_events(entries), _build_events(other)
    )


# Two-phase replay payloads feed the same aggregate fold as the serial
# operator: a PartialAggregateOperator (replay mode) condensing each
# run into one payload, replayed by a CombineAggregateOperator, must
# emit exactly the single-phase changelog — at any run length, with
# DISTINCT dedup shard-side, late rows cut shard-side, groups draining
# to empty, and the empty-group error surfacing on the same step.


@pytest.mark.parametrize("lateness", [0, 15])
@pytest.mark.parametrize("aggs", ["count_max", "distinct", "distinct_sum"])
@pytest.mark.parametrize("keys", ["wend", "wend_a", "a_wend_b"])
@settings(max_examples=25, deadline=None)
@given(steps=columnar_cases._agg_steps, run_length=st.sampled_from([1, 3, 64]))
def test_combine_replay_matches_single_phase(
    keys, aggs, lateness, steps, run_length
):
    from repro.exec.operators.aggregate import (
        CombineAggregateOperator,
        PartialAggregateOperator,
    )

    script = columnar_cases._agg_script(steps, False)
    serial_log, serial_end = columnar_cases._drive_aggregate(
        columnar_cases._aggregate_operator(keys, aggs, lateness),
        script,
        columnar_cases._deliver_rows,
    )

    partial = columnar_cases._aggregate_operator(
        keys, aggs, lateness, cls=PartialAggregateOperator
    )
    combine = columnar_cases._aggregate_operator(
        keys, aggs, lateness, cls=CombineAggregateOperator
    )
    log = [[]]
    for ptime, step in script:
        if isinstance(step, int):
            # Watermarks are broadcast: the shard cuts late rows, the
            # merged frontier frees combine state.
            partial.on_watermark(0, step, ptime)
            log.append(combine.on_watermark(0, step, ptime)[0])
            continue
        try:
            out = []
            for i in range(0, len(step), run_length):
                payloads = partial.on_batch(0, step[i:i + run_length])
                assert len(payloads) <= 1
                out.extend(combine.on_batch(0, payloads))
            log.append(out)
        except ExecutionError:
            log.append("error")
            break
    assert log == serial_log
    if serial_end is not None:
        late, _, groups = serial_end
        assert partial.late_dropped == late
        assert combine.group_count == groups


def test_batched_multi_leaf_source_identical():
    """Q7 scans Bid twice; such sources are excluded from batching
    (``batchable_source``) and the output must still match exactly."""
    def run(batch_size):
        engine = StreamEngine(config=ExecutionConfig(batch_size=batch_size))
        engine.register_stream("Bid", paper_bid_stream())
        flow = engine.query(q7_paper()).dataflow()
        assert not flow.batchable_source("Bid")
        return flow.run()

    baseline, batched = run(1), run(64)
    assert batched.changes == baseline.changes
    assert batched.watermarks.as_pairs() == baseline.watermarks.as_pairs()


Q3_OTHER_CATEGORY = Q3_LOCAL_ITEM_SUGGESTION.replace("category = 10", "category = 11")


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize("backend", ["sync", "processes"])
def test_batched_sharded_identical(nexmark_small, backend, batch_size):
    serial = StreamEngine()
    nexmark_small.register_on(serial)
    baseline = serial.query(Q3_LOCAL_ITEM_SUGGESTION).dataflow().run()
    other = serial.query(Q3_OTHER_CATEGORY).dataflow().run()

    sharded = StreamEngine(
        config=ExecutionConfig(
            parallelism=4, backend=backend, batch_size=batch_size
        )
    )
    nexmark_small.register_on(sharded)
    query = sharded.query(Q3_LOCAL_ITEM_SUGGESTION)
    assert query.partition_decision().partitionable
    result = query.run()
    assert result.changes == baseline.changes
    assert result.watermarks.as_pairs() == baseline.watermarks.as_pairs()
    # Two outputs through run(): legal at every batch size.
    flow = query.sharded_dataflow()
    flow.attach_output("other", sharded.query(Q3_OTHER_CATEGORY).plan)
    assert flow.run().changes == baseline.changes
    assert flow.output_slice_of("other") == other.changes
    assert flow.root_watermark_of("other") == other.watermarks.current


@pytest.mark.parametrize("parallelism", [1, 3])
@pytest.mark.parametrize("two_phase", ["off", "auto"])
def test_batched_sharded_lineage_matches_serial(two_phase, parallelism):
    """A sharded flow fed in runs of 64 explains its changelog as the
    serial flow does: the explain replays the recorded sources one event
    at a time into a fresh flow, so the batches the resident flow was
    fed leave no trace in the cause each position names."""
    from repro.exec.executor import merge_source_events
    from repro.obs.lineage import explain_delta

    events = _build_events(
        [
            (3 if i % 50 == 49 else i % 3, i % 5, (i // 4) * 7 % 240, i % 6 == 0)
            for i in range(400)
        ]
    )

    def explained(shards):
        engine = _engine(events, 64)
        query = engine.query(TUMBLE_SQL)
        flow = (
            query.sharded_dataflow(
                ExecutionConfig(
                    parallelism=shards, backend="sync", two_phase=two_phase,
                    batch_size=64,
                )
            )
            if shards
            else query.dataflow()
        )
        for _ in flow.replay(merge_source_events(engine._sources)):
            pass
        changes = flow.finish().changes
        causes = [
            explain_delta(flow, "main", flow.plan, engine._sources, pos)
            for pos in [*range(0, len(changes), 7), len(changes) - 1]
        ]
        return changes, [(e["trace_id"], e["sources"]) for e in causes]

    serial, sharded = explained(0), explained(parallelism)
    assert sharded == serial
    assert len(serial[0]) > 64 and len({cause for cause, _ in serial[1]}) > 1


# ---------------------------------------------------------------------------
# compaction: snapshot-equivalent, never byte-equivalent by accident
# ---------------------------------------------------------------------------


def _c(kind, values, ptime):
    return Change(kind, values, ptime)


class TestCompactIntraInstant:
    def test_cancels_adjacent_opposites(self):
        insert, retract = ChangeKind.INSERT, ChangeKind.RETRACT
        changes = [
            _c(insert, (1,), 100),
            _c(retract, (1,), 100),
            _c(insert, (2,), 100),
        ]
        kept, dropped = compact_intra_instant(changes)
        assert dropped == 2
        assert kept == [_c(insert, (2,), 100)]

    def test_cancellation_is_bracketed_not_global(self):
        """An insert cancels against the *most recent* opposite change
        of the same row, preserving relative order of survivors."""
        insert, retract = ChangeKind.INSERT, ChangeKind.RETRACT
        changes = [
            _c(insert, (1,), 100),
            _c(insert, (1,), 100),
            _c(retract, (1,), 100),
        ]
        kept, dropped = compact_intra_instant(changes)
        assert dropped == 2
        assert kept == [_c(insert, (1,), 100)]

    def test_distinct_ptimes_never_cancel(self):
        insert, retract = ChangeKind.INSERT, ChangeKind.RETRACT
        changes = [_c(insert, (1,), 100), _c(retract, (1,), 200)]
        kept, dropped = compact_intra_instant(changes)
        assert dropped == 0
        assert kept == changes

    def test_full_cancellation_empties_the_batch(self):
        insert, retract = ChangeKind.INSERT, ChangeKind.RETRACT
        changes = [_c(insert, (1,), 100), _c(retract, (1,), 100)]
        kept, dropped = compact_intra_instant(changes)
        assert kept == [] and dropped == 2


def _bursty_nexmark():
    return generate(
        NexmarkConfig(num_events=600, seed=7, events_per_instant=16)
    )


WEND_COUNT_SQL = (
    "SELECT TB.wend, COUNT(*) AS bids "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' SECONDS) TB "
    "GROUP BY TB.wend"
)


def test_coalesce_is_snapshot_equivalent_per_instant():
    streams = _bursty_nexmark()

    def run(coalesce):
        engine = StreamEngine(
            config=ExecutionConfig(batch_size=64, coalesce_updates=coalesce)
        )
        streams.register_on(engine)
        flow = engine.query(WEND_COUNT_SQL).dataflow()
        return flow.run(), flow

    baseline, _ = run(False)
    coalesced, flow = run(True)
    assert flow.changes_coalesced() > 0
    assert coalesced.metrics.totals["changes_coalesced"] > 0
    assert len(coalesced.changes) < len(baseline.changes)
    instants = sorted(
        {c.ptime for c in baseline.changes}
        | {c.ptime for c in coalesced.changes}
    )
    for at in instants:
        assert baseline.snapshot(at) == coalesced.snapshot(at)


def test_watch_dashboard_reports_coalesced_changes():
    """The shell's \\watch replay goes through the same run iterator as
    Dataflow.run(), so coalesce_updates fires and the frame shows the
    coalesce line."""
    from repro.nexmark.queries import register_udfs
    from repro.shell import Shell

    streams = _bursty_nexmark()
    engine = StreamEngine(
        config=ExecutionConfig(batch_size=64, coalesce_updates=True)
    )
    streams.register_on(engine)
    register_udfs(engine)
    frame = Shell(engine).feed(f"\\watch {WEND_COUNT_SQL};")
    assert "coalesce" in frame and "compacted away" in frame


def test_coalesce_default_off_is_byte_identical():
    """coalesce_updates defaults to False: nothing is compacted and the
    counter stays zero."""
    streams = _bursty_nexmark()
    engine = StreamEngine(config=ExecutionConfig(batch_size=64))
    streams.register_on(engine)
    flow = engine.query(WEND_COUNT_SQL).dataflow()
    flow.run()
    assert flow.changes_coalesced() == 0


# ---------------------------------------------------------------------------
# fault tolerance: batch boundaries align with checkpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["sync", "processes"])
def test_batched_crash_after_checkpoint_recovers_exactly(
    nexmark_small, backend
):
    """batch_size=64 under a crash-after-checkpoint plan: checkpoints
    are only cut at batch boundaries, so replay re-forms the same
    batches and dedup-by-seq reproduces the fault-free serial output."""
    serial = StreamEngine()
    nexmark_small.register_on(serial)
    baseline = serial.query(Q3_LOCAL_ITEM_SUGGESTION).dataflow().run()

    faulted_engine = StreamEngine(
        config=ExecutionConfig(
            parallelism=3,
            backend=backend,
            batch_size=64,
            retry=RetryPolicy(max_restarts=3, checkpoint_interval=3),
            fault_plan="crash-after-checkpoint:shard=0,at=1",
        )
    )
    nexmark_small.register_on(faulted_engine)
    result = faulted_engine.query(Q3_LOCAL_ITEM_SUGGESTION).run()
    assert result.changes == baseline.changes
    assert result.watermarks.as_pairs() == baseline.watermarks.as_pairs()
    recovery = result.metrics.recovery
    assert recovery is not None and recovery.shard_restarts > 0


# ---------------------------------------------------------------------------
# config surface: validation, warning, CLI
# ---------------------------------------------------------------------------


def test_batch_size_zero_rejected_by_config():
    with pytest.raises(ValidationError, match="batch_size"):
        ExecutionConfig(batch_size=0).validate()
    with pytest.raises(ValidationError, match="batch_size"):
        ExecutionConfig(batch_size=-3).validate()
    ExecutionConfig(batch_size=1).validate()


def test_coalesce_emit_stream_warns_once(engine):
    eng = StreamEngine(config=ExecutionConfig(coalesce_updates=True))
    eng.register_stream("Bid", paper_bid_stream())
    sql = "SELECT price, item FROM Bid EMIT STREAM"
    with pytest.warns(UserWarning, match="coalesce_updates"):
        eng.query(sql).dataflow()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng.query(sql).dataflow()  # second time: registry suppresses it


def test_coalesce_without_emit_stream_is_silent():
    eng = StreamEngine(config=ExecutionConfig(coalesce_updates=True))
    eng.register_stream("Bid", paper_bid_stream())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng.query("SELECT price, item FROM Bid").dataflow()


def test_cli_flags_map_to_config():
    args = build_parser().parse_args(["--batch-size", "64", "--coalesce-updates"])
    config = build_config(args)
    assert config.batch_size == 64
    assert config.coalesce_updates is True

    defaults = build_config(build_parser().parse_args([]))
    assert defaults.batch_size is None  # inherit EXECUTION_DEFAULTS
    assert defaults.coalesce_updates is None
