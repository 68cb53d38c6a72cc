"""Tests for the uniform operator-metrics layer (``repro.obs``).

The regression that motivated the layer: ``RunResult.late_dropped``
was summed over an ``isinstance`` allowlist (aggregate, session), so
late rows dropped by OVER and MATCH_RECOGNIZE operators silently
vanished from the result counters.  Counting now lives on the operator
base class, so these tests pin (a) the recovered drops, (b) per-operator
counters across the operator zoo, (c) serial/sharded agreement, and
(d) counter survival across checkpoint/restore.

``TestReportedFromOutside`` pins what is reported against oracles the
engine does not compute itself: conservation on every edge of every
flow, and the numbers the *parent* commit reported for the same inputs
(``tests/fixtures/parent_metrics.json`` and the ``parent_serial_flow``
blobs — see ``tests/fixtures/make_parent_fixtures.py``).
"""

import copy
import json
import os
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, string_col, timestamp_col
from repro.core.times import MAX_TIMESTAMP, minutes, t
from repro.core.tvr import RowEvent, TimeVaryingRelation, ins, wm
from repro.core.codec import SegmentedLog
from repro.exec.executor import (
    CHECKPOINT_VERSION,
    OutputChannel,
    event_runs,
    merge_source_events,
)
from repro.nexmark import paper_bid_stream
from repro.obs import MetricsReport, TraceCollector, merge_shard_reports
from repro.plan.logical import AggregateNode, PartialAggregateNode
from repro.plan.pipeline import PipelineNode
from repro.runtime import ShardedDataflow
from repro.runtime.routing import partition_events
from repro.shell import Shell

from .fixtures import make_parent_fixtures as parent

KEYED_SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)
TICK_SCHEMA = Schema(
    [string_col("ticker"), timestamp_col("ts", event_time=True), int_col("price")]
)

MINUTE = 60_000

OVER_SQL = (
    "SELECT k, ts, v, SUM(v) OVER (PARTITION BY k ORDER BY ts) AS total "
    "FROM S"
)

MATCH_SQL = """
SELECT *
FROM Ticks MATCH_RECOGNIZE (
  PARTITION BY ticker
  ORDER BY ts
  MEASURES FIRST(DOWN.price) AS top, LAST(UP.price) AS recovered
  ONE ROW PER MATCH
  AFTER MATCH SKIP PAST LAST ROW
  PATTERN ( DOWN+ UP+ )
  DEFINE DOWN AS price < 100, UP AS price >= 100
)
"""

TUMBLE_SQL = """
    SELECT k, wend, SUM(v) AS total
    FROM Tumble(data => TABLE(S),
                timecol => DESCRIPTOR(ts),
                dur => INTERVAL '2' MINUTE) TS
    GROUP BY k, wend
"""

SESSION_SQL = """
    SELECT k, wstart, wend, COUNT(*) AS n
    FROM Session(data => TABLE(S),
                 timecol => DESCRIPTOR(ts),
                 key => DESCRIPTOR(k),
                 gap => INTERVAL '1' MINUTE) TS
    GROUP BY k, wstart, wend
"""

SELF_JOIN_SQL = "SELECT a.k, a.v, b.v FROM S a JOIN S b ON a.k = b.k"


def keyed_engine(events, parallelism=1, two_phase=None):
    engine = StreamEngine(
        config=ExecutionConfig(
            parallelism=parallelism, backend="sync", two_phase=two_phase
        )
    )
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    return engine


def late_row_events():
    """One on-time row, a watermark advance, then a late row."""
    return [
        ins(100, (1, t("8:00"), 10)),
        wm(200, t("8:10")),
        ins(300, (1, t("8:01"), 20)),  # behind the 8:10 watermark: late
        wm(400, t("8:30")),
    ]


def tick_engine(parallelism=1):
    tvr = TimeVaryingRelation(TICK_SCHEMA)
    tvr.insert(100, ("A", t("9:00"), 90))
    tvr.insert(200, ("A", t("9:01"), 105))
    tvr.advance_watermark(300, t("9:10"))
    tvr.insert(400, ("A", t("9:02"), 95))  # late: behind the 9:10 watermark
    tvr.advance_watermark(500, MAX_TIMESTAMP)
    engine = StreamEngine(
        config=ExecutionConfig(parallelism=parallelism, backend="sync")
    )
    engine.register_stream("Ticks", tvr)
    return engine


class TestLateDropRegression:
    """The headline bug: drops outside the old allowlist were lost."""

    def test_over_late_drop_reaches_run_result(self):
        result = keyed_engine(late_row_events()).query(OVER_SQL).run()
        assert result.late_dropped == 1
        assert result.metrics.find("Over")["late_dropped"] == 1

    def test_match_recognize_late_drop_reaches_run_result(self):
        result = tick_engine().query(MATCH_SQL).run()
        assert result.late_dropped == 1
        assert result.metrics.find("Match")["late_dropped"] == 1

    def test_aggregate_drops_still_counted(self):
        result = keyed_engine(late_row_events()).query(TUMBLE_SQL).run()
        assert result.late_dropped == 1
        assert result.metrics.find("Aggregate")["late_dropped"] == 1

    def test_result_equals_sum_over_all_operators(self):
        for engine, sql in [
            (keyed_engine(late_row_events()), OVER_SQL),
            (tick_engine(), MATCH_SQL),
            (keyed_engine(late_row_events()), TUMBLE_SQL),
        ]:
            result = engine.query(sql).run()
            assert result.late_dropped == sum(
                entry["late_dropped"] for entry in result.metrics.operators
            )

    def test_serial_and_sharded_engine_agree(self):
        """A parallel engine (which falls back to serial for OVER and
        MATCH plans, and shards the Tumble plan) reports the same drop
        totals as a serial one."""
        cases = [
            (lambda p: keyed_engine(late_row_events(), p), OVER_SQL),
            (lambda p: tick_engine(p), MATCH_SQL),
            (lambda p: keyed_engine(late_row_events(), p), TUMBLE_SQL),
        ]
        for make, sql in cases:
            serial = make(1).query(sql).run()
            sharded = make(4).query(sql).run()
            assert sharded.late_dropped == serial.late_dropped == 1
            assert sharded.expired_rows == serial.expired_rows


class TestPerOperatorCounters:
    def test_aggregate_counts_rows_and_retractions(self):
        events = [
            ins(100, (1, t("8:00"), 10)),
            ins(200, (1, t("8:01"), 20)),
            wm(300, MAX_TIMESTAMP),
        ]
        report = keyed_engine(events).query(TUMBLE_SQL).run().metrics
        agg = report.find("Aggregate")
        assert sum(agg["rows_in"]) == 2
        # second row refines the first sum: retract + re-insert
        assert agg["rows_out"] == 3
        assert agg["retracts_out"] == 1
        assert sum(agg["retracts_in"]) == 0

    def test_join_counts_both_ports(self):
        events = [
            ins(100, (1, t("8:00"), 10)),
            ins(200, (1, t("8:01"), 20)),
            wm(300, MAX_TIMESTAMP),
        ]
        join = (
            keyed_engine(events).query(SELF_JOIN_SQL).run().metrics.find("Join")
        )
        assert join["rows_in"] == [2, 2]  # both sides scan the same stream
        assert join["rows_out"] == 4  # 2x2 pairs on key 1

    def test_session_counters_and_extras(self):
        events = [
            ins(100, (1, t("8:00"), 1)),
            ins(200, (1, t("8:00:30"), 1)),
            ins(300, (2, t("8:05"), 1)),
            wm(400, MAX_TIMESTAMP),
        ]
        session = (
            keyed_engine(events).query(SESSION_SQL).run().metrics.find("Session")
        )
        assert sum(session["rows_in"]) == 3
        assert session["rows_out"] >= 2  # one row per closed session

    def test_over_and_match_row_counts(self):
        over = keyed_engine(late_row_events()).query(OVER_SQL).run().metrics
        assert sum(over.find("Over")["rows_in"]) == 2  # late row included
        match = tick_engine().query(MATCH_SQL).run().metrics.find("Match")
        assert sum(match["rows_in"]) == 3
        assert match["matches_emitted"] == 1

    def test_scan_leaves_marked_and_depths_nest(self):
        report = keyed_engine(late_row_events()).query(TUMBLE_SQL).run().metrics
        leaves = [e for e in report.operators if e["leaf"]]
        assert len(leaves) == 1 and leaves[0]["type"] == "ScanOperator"
        assert report.operators[0]["depth"] == 0  # root first, pre-order
        assert leaves[0]["depth"] == max(e["depth"] for e in report.operators)

    def test_state_peaks_are_observed(self):
        report = keyed_engine(late_row_events()).query(TUMBLE_SQL).run().metrics
        agg = report.find("Aggregate")
        assert agg["peak_state_rows"] >= 1
        assert agg["state_rows"] <= agg["peak_state_rows"]


class TestReportRendering:
    def test_render_lists_operators_and_totals(self):
        report = keyed_engine(late_row_events()).query(TUMBLE_SQL).run().metrics
        text = report.render()
        assert text.startswith("operator metrics")
        assert "Scan(S)" in text
        assert "late_dropped=1" in text
        assert "totals:" in text

    def test_explain_analyze_combines_plan_and_metrics(self):
        engine = keyed_engine(late_row_events())
        text = engine.explain(TUMBLE_SQL, mode="analyze")
        assert "Aggregate(" in text  # the logical plan
        assert "operator metrics" in text  # the runtime annotation
        assert "late_dropped=1" in text

    def test_shell_analyze_command_and_sql_prefix(self):
        engine = keyed_engine(late_row_events())
        shell = Shell(engine)
        out = shell.feed(f"\\analyze {TUMBLE_SQL};")
        assert "operator metrics" in out
        sql_out = None
        for line in f"EXPLAIN ANALYZE {TUMBLE_SQL};".splitlines():
            sql_out = shell.feed(line)
        assert sql_out is not None and "operator metrics" in sql_out
        plain = None
        for line in f"EXPLAIN {TUMBLE_SQL};".splitlines():
            plain = shell.feed(line)
        assert "operator metrics" not in plain

    def test_stats_carries_metrics_report(self):
        stats = keyed_engine(late_row_events()).query(TUMBLE_SQL).stats()
        assert isinstance(stats["metrics"], MetricsReport)
        assert stats["late_dropped"] == 1


class TestShardedMetrics:
    def test_merged_report_shape_and_skew(self):
        events = [ins(100 + i, (i % 5, t("8:00") + i * 1000, i)) for i in range(20)]
        events.append(wm(1000, MAX_TIMESTAMP))
        query = keyed_engine(events, parallelism=4).query(TUMBLE_SQL)
        assert query.partition_decision().partitionable
        report = query.run().metrics
        assert report.shard_count == 4
        assert len(report.shard_rows) == 4
        # every routed row lands on exactly one shard
        assert sum(report.shard_rows) == 20
        assert report.skew is not None
        assert report.skew["max"] >= report.skew["min"]
        # each shard-side entry carries the per-shard rows_in breakdown;
        # the combine-stage entries (two-phase aggregation) sit above
        # the shards and have no per-shard split of their own
        shard_entries = [e for e in report.operators if "shards" in e]
        assert shard_entries
        assert all(len(e["shards"]) == 4 for e in shard_entries)
        assert any("CombineAggregate" in e["operator"] for e in report.operators)

    def test_sharded_totals_match_serial(self):
        events = late_row_events() + [
            ins(500, (k, t("8:20") + k * 1000, k)) for k in range(6)
        ] + [wm(600, MAX_TIMESTAMP)]
        serial = keyed_engine(events).query(TUMBLE_SQL).run().metrics
        # Single-phase execution pinned: a two-phase run reshapes the
        # operator tree, so per-operator totals are covered separately
        # in test_two_phase.py.
        sharded = (
            keyed_engine(events, parallelism=3, two_phase="off")
            .query(TUMBLE_SQL)
            .run()
            .metrics
        )
        st_, sh = serial.totals, sharded.totals
        for key in ("rows_in", "rows_out", "retracts_in", "retracts_out",
                    "late_dropped", "expired_rows", "state_rows"):
            assert sh[key] == st_[key], key

    def test_merge_of_single_report_is_identity(self):
        report = keyed_engine(late_row_events()).query(TUMBLE_SQL).run().metrics
        merged = merge_shard_reports([report])
        assert merged.shard_count == 1
        assert merged.totals == report.totals


@st.composite
def event_histories(draw):
    """Random keyed rows with jittered event times and watermark steps."""
    steps = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=0, max_value=99),
            ),
            min_size=1,
            max_size=30,
        )
    )
    events = []
    ptime = 1_000_000
    wm_value = 0
    for is_row, a, b, c in steps:
        ptime += MINUTE // 4
        if is_row:
            events.append(ins(ptime, (a, max(0, wm_value + b * MINUTE), c)))
        else:
            wm_value += a * MINUTE
            events.append(wm(ptime, wm_value))
    return events


@settings(max_examples=25, deadline=None)
@given(events=event_histories(), shards=st.integers(min_value=2, max_value=5))
def test_property_sharded_metric_totals_equal_serial(events, shards):
    """Flow counters are routing-invariant: summed over shards they equal
    the serial run's, for every history.  (State *peaks* are excluded —
    a sum of per-shard maxima is not the maximum of sums.)"""
    serial = keyed_engine(events).query(TUMBLE_SQL).run()
    # Single-phase pinned: two-phase adds combine-stage operators whose
    # counters are covered separately in test_two_phase.py.
    sharded = (
        keyed_engine(events, parallelism=shards, two_phase="off")
        .query(TUMBLE_SQL)
        .run()
    )
    st_, sh = serial.metrics.totals, sharded.metrics.totals
    for key in ("rows_in", "rows_out", "retracts_in", "retracts_out",
                "late_dropped", "expired_rows", "state_rows"):
        assert sh[key] == st_[key], key
    assert sharded.late_dropped == serial.late_dropped
    assert sum(sharded.metrics.shard_rows) == sum(
        1 for e in events if isinstance(e, RowEvent)
    )


class TestCheckpointRoundtrip:
    def test_serial_checkpoint_preserves_counters(self):
        events = late_row_events()
        query = keyed_engine(events).query(TUMBLE_SQL)
        uninterrupted = query.run()

        first = query.dataflow()
        for event in events[:2]:
            first.process(event, "S")
        blob = first.checkpoint()
        del first

        recovered = query.dataflow()
        recovered.restore(blob)
        for event in events[2:]:
            recovered.process(event, "S")
        result = recovered.finish()
        assert result.late_dropped == uninterrupted.late_dropped == 1
        assert result.metrics.totals == uninterrupted.metrics.totals

    def test_sharded_checkpoint_preserves_counters(self):
        events = late_row_events() + [
            ins(500 + k, (k, t("8:20") + k * 1000, k)) for k in range(6)
        ] + [wm(600, MAX_TIMESTAMP)]
        # Single-phase pinned: the auto cost model may re-plan between the
        # uninterrupted run and the checkpointed one once counter feedback
        # exists; two-phase recovery is covered in test_two_phase.py.
        query = keyed_engine(events, parallelism=3, two_phase="off").query(
            TUMBLE_SQL
        )
        uninterrupted = query.run()

        first = query.sharded_dataflow()
        for event in events[:4]:
            first.process(event, "S")
        blob = first.checkpoint()
        del first

        recovered = query.sharded_dataflow()
        recovered.restore(blob)
        for event in events[4:]:
            recovered.process(event, "S")
        result = recovered.finish()
        assert result.metrics.totals == uninterrupted.metrics.totals
        assert result.late_dropped == uninterrupted.late_dropped


class TestTraceHooks:
    def test_collector_sees_batches_and_watermarks(self):
        events = late_row_events()
        query = keyed_engine(events).query(TUMBLE_SQL)
        dataflow = query.dataflow()
        trace = TraceCollector()
        dataflow.trace = trace
        dataflow.run()
        assert trace.batches >= 1
        assert trace.changes >= 1
        assert trace.watermark_advances >= 1
        summary = trace.summary()
        assert summary["batches"] == trace.batches
        assert summary["watermark_advances"] == trace.watermark_advances
        kinds = {event.kind for event in trace.events}
        assert kinds <= {"batch", "watermark"}


# ---------------------------------------------------------------------------
# what is reported, pinned from outside the engine
# ---------------------------------------------------------------------------

with open(os.path.join(parent.HERE, "parent_metrics.json")) as _fh:
    PARENT_METRICS = json.load(_fh)


def _row_events(flow, source: str) -> int:
    return sum(
        isinstance(event, RowEvent) for event in flow._sources[source].events()
    )


def _edge_violations(flow) -> list[str]:
    """Edges of a serial flow (or one shard) whose two ends disagree."""
    bad = []
    for op in flow._operators:
        out = (op.counters.rows_out, op.counters.retracts_out)
        for consumer, port in flow._consumers.get(id(op), ()):
            got = (
                consumer.counters.rows_in[port],
                consumer.counters.retracts_in[port],
            )
            if got != out:
                bad.append(f"{op.name()} -> {consumer.name()}[{port}]: {out} != {got}")
    return bad


def _scan_rows(flow) -> dict[str, list[int]]:
    """Per scanned source, every scan leaf's ``rows_in``."""
    return {
        source: [leaf.counters.rows_in[0] for leaf in leaves]
        for source, leaves in flow._leaves_by_source.items()
        if not source.startswith("$values")
    }


def assert_conserved(flow) -> None:
    """Producer out == consumer in on every edge; scans saw every row."""
    if not isinstance(flow, ShardedDataflow):
        assert _edge_violations(flow) == []
        for source, scans in _scan_rows(flow).items():
            assert scans == [_row_events(flow, source)] * len(scans), source
        return
    routed: dict[str, list[int]] = {}
    for shard in flow.shards:
        assert _edge_violations(shard) == []
        for source, scans in _scan_rows(shard).items():
            totals = routed.setdefault(source, [0] * len(scans))
            routed[source] = [a + b for a, b in zip(totals, scans)]
    for source, scans in routed.items():
        # every row is routed to exactly one shard
        assert scans == [_row_events(flow.shards[0], source)] * len(scans), source
    combine = flow.combines.get("main")
    if combine is not None:
        assert _edge_violations(combine) == []
        roots = [shard._outputs["main"].root for shard in flow.shards]
        shipped = sum(root.counters.rows_out for root in roots)
        leaf = combine.operators[0]
        if _sequence_tagged(flow):
            # The merge puts each run's per-shard payloads back into the
            # one payload the combine ingests: fewer payloads, every row.
            assert shipped / len(roots) <= leaf.counters.rows_in[0] <= shipped
            assert leaf.metrics()["agg_rows_in"] == sum(
                root.counters.rows_in[0] - root.late_dropped for root in roots
            )
        else:
            assert leaf.counters.rows_in[0] == shipped
        assert leaf.counters.retracts_in[0] == sum(
            root.counters.retracts_out for root in roots
        )


def _sequence_tagged(flow) -> bool:
    """Whether ``flow``'s shards are fed their share of a run whole."""
    return (
        isinstance(flow, ShardedDataflow)
        and flow.run_split_reason() is None
    )


def _on_time_runs_and_shares(flow, case: str) -> tuple[int, int]:
    """How many of the runs ``flow.run()`` forms, and how many of the
    shares it hands its shards, hold a row the aggregate takes — told
    by a serial flow of the same query fed one event at a time."""
    name = case.split("/")[0]
    sql, kind = parent.METRICS_QUERIES[name]
    serial = parent.metrics_engine(kind).query(sql).dataflow()
    (aggregate,) = [
        op for op in serial.operators if type(op).__name__ == "AggregateOperator"
    ]
    events = merge_source_events(flow._sources)
    on_time = set()
    for seq, (event, source) in enumerate(events):
        before = aggregate.counters.rows_in[0] - aggregate.late_dropped
        serial.process(event, source)
        if aggregate.counters.rows_in[0] - aggregate.late_dropped > before:
            on_time.add(seq)
    tasks = partition_events(
        ((run, source) for _, run, source in event_runs(flow, events)),
        flow.spec,
        len(flow.shards),
    )
    shares = [task for shard in tasks for task in shard if on_time & set(task[1])]
    return len({task[0] for task in shares}), len(shares)


def _report_nodes(flow) -> list:
    """``(plan node, depth)`` behind each entry of ``flow``'s report, in
    its order: the compiled tree pre-order, inputs in port order — for
    a two-phase flow the combine flow's tree first, the shard tree below
    it."""

    def walk(root, depth):
        pending = [(root, depth)]
        while pending:
            node, at = pending.pop()
            yield node, at
            pending.extend((child, at + 1) for child in reversed(node.inputs))

    if not isinstance(flow, ShardedDataflow):
        return list(walk(flow._exec_root(flow.plan), 0))
    shard, combine = flow.shards[0], flow.combines.get("main")
    nodes = [] if combine is None else list(
        walk(combine._exec_root(combine.plan), 0)
    )
    return nodes + list(walk(shard._exec_root(shard.plan), len(nodes)))


#: what a fused pipeline reports from its first step, not its last
_STEP_IN = ("rows_in", "retracts_in", "shards")
_STEP_OUT = ("rows_out", "retracts_out")


def _parent_entries_of(steps) -> int:
    """How many parent report entries a pipeline's steps were: each
    tumble one (``TumbleOperator``), each stretch of filters and
    projects between them one (the parent's ``Pipeline``)."""
    count, previous = 0, "tumble"
    for kind, _ in steps:
        if kind == "tumble" or previous == "tumble":
            count += 1
        previous = kind
    return count


def _fused_entry(chain: list[dict]) -> dict:
    """One pipeline entry for the parent entries of the chain it fused
    (``chain`` top first): the first step's input counts, the last
    step's output counts, every other value the chain's own."""
    kinds = []
    for entry in reversed(chain):
        # (the parent ran a merge half unfused: Project, not Pipeline)
        unfused = {
            "TumbleOperator": "tumble",
            "ProjectOperator": "project",
            "FilterOperator": "filter",
        }
        if entry["type"] in unfused:
            kinds.append(unfused[entry["type"]])
        else:
            assert entry["type"] == "PipelineOperator", entry
            kinds += entry["operator"][len("Pipeline("):-1].split("+")
    fused = dict(chain[0])
    fused.update({key: chain[-1][key] for key in _STEP_IN if key in chain[-1]})
    fused.update(type="PipelineOperator", operator=f"Pipeline({'+'.join(kinds)})")
    for entry in chain:
        for key, value in entry.items():
            if key not in _STEP_IN + _STEP_OUT + ("type", "operator", "depth"):
                assert value == fused[key], (key, entry)
    return fused


def _restated_for_fusion(parent: list[dict], flow) -> list[dict]:
    """The parent's report entries restated for the plan ``flow``
    compiles, by one rule: a parent Project entry an aggregate absorbed
    is dropped; the parent entries of a chain fused into one pipeline
    become its one entry (:func:`_fused_entry`); depths are renumbered;
    every other value is the parent's.  The identity on a flow whose
    plan is not fused."""
    entries = iter(parent)
    restated = []

    def absorbed() -> None:
        entry = next(entries)
        assert entry["operator"] in ("Pipeline(project)", "ProjectOperator"), entry

    for node, depth in _report_nodes(flow):
        if isinstance(node, (AggregateNode, PartialAggregateNode)):
            if node.select is not None:
                absorbed()
            entry = dict(next(entries))
            if node.reads is not None:
                absorbed()
        elif isinstance(node, PipelineNode):
            entry = _fused_entry(
                [next(entries) for _ in range(_parent_entries_of(node.steps))]
            )
        else:
            entry = dict(next(entries))
        entry["depth"] = depth
        restated.append(entry)
    assert next(entries, None) is None
    return restated


def _canonical(payload: dict) -> dict:
    """A checkpoint payload with operator state made comparable (group
    states and multisets define no ``__eq__``; their reprs show all)."""
    out = dict(payload)
    out["op_states"] = [
        {key: repr(value) for key, value in state.items()}
        for state in payload["op_states"]
    ]
    return out


def _canonical_stages(blob: bytes) -> dict:
    """A sharded checkpoint's combine entries, decoded and made
    comparable like :func:`_canonical` (telemetry by its snapshot)."""
    out = {}
    for oid, stage in pickle.loads(blob)["stages"].items():
        payload = pickle.loads(stage)
        assert set(payload) == {"ops", "telemetry"}
        out[oid] = {
            "ops": _canonical({"op_states": payload["ops"]})["op_states"],
            "telemetry": payload["telemetry"].snapshot(),
        }
    return out


def _bid_flow(**config):
    """The paper's Bid stream and a flow of the per-item tumble over it:
    serial, or sharded under ``config``."""
    bids = paper_bid_stream()
    engine = StreamEngine(config=ExecutionConfig(**config))
    engine.register_stream("Bid", bids)
    query = engine.query(parent.TUMBLED_BY_ITEM)
    flow = query.sharded_dataflow() if config else query.dataflow()
    return flow, bids.events()


#: how ``parent_sharded_flow_two_phase.ckpt`` was cut (half way through)
TWO_PHASE_BLOB = dict(parallelism=3, two_phase="on")


PARENT_BLOBS = {
    # right after a watermark step of the output
    "parent_serial_flow.ckpt": len(paper_bid_stream().events()) // 2,
    # two rows past one: their samples are unsettled when the cut comes
    "parent_serial_flow_midstep.ckpt": parent.MIDSTEP_CUT,
}


class TestReportedFromOutside:
    @pytest.fixture(scope="class")
    def runs(self):
        """Every cell of the fixture matrix, run once: the flow (for its
        edges) and what it reported."""
        settle_decodes = []
        settling = []
        real_settle, real_slice = OutputChannel.settle, SegmentedLog.slice

        def settle(channel):
            settling.append(channel)
            try:
                real_settle(channel)
            finally:
                settling.pop()

        def log_slice(log, start=0):
            if settling and start < log.base:
                settle_decodes.append(start)
            return real_slice(log, start)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(OutputChannel, "settle", settle)
            patch.setattr(SegmentedLog, "slice", log_slice)
            cells = {
                case: (flow, parent.reported(flow.run()))
                for case, flow in parent.metrics_cases()
            }
        return SimpleNamespace(cells=cells, settle_decodes=settle_decodes)

    def test_matrix_is_the_parents(self, runs):
        assert set(runs.cells) == set(PARENT_METRICS)

    @pytest.mark.parametrize("case", sorted(PARENT_METRICS))
    def test_every_edge_conserves_rows_and_retracts(self, runs, case):
        assert_conserved(runs.cells[case][0])

    @pytest.mark.parametrize("case", sorted(PARENT_METRICS))
    def test_report_equals_the_parents_value_for_value(self, runs, case):
        flow, reported = runs.cells[case]
        expected = copy.deepcopy(PARENT_METRICS[case])
        # The parent compiled no absorbed aggregate and no tumble step:
        # its entries restated for the plan this flow fuses (the
        # identity at batch_size=1).
        expected["operators"] = _restated_for_fusion(expected["operators"], flow)
        if case.split("/")[2] == "b1":
            assert expected == PARENT_METRICS[case]
        if _sequence_tagged(flow):
            # The one intended difference from the parent, stated
            # exactly: the combine ingests one payload per run with an
            # on-time row and a shard ships one per share with one (the
            # parent: one per gap-free piece of a share, on both).
            runs_fed, shares_shipped = _on_time_runs_and_shares(flow, case)
            for want in expected["operators"]:
                if want["type"] == "CombineAggregateOperator":
                    assert want["rows_in"][0] >= runs_fed
                    want["rows_in"] = [runs_fed]
                elif want["type"] == "PartialAggregateOperator":
                    assert want["rows_out"] >= shares_shipped
                    want["rows_out"] = shares_shipped
        for got, want in zip(reported["operators"], expected["operators"]):
            assert got == want, got["operator"]
        assert reported == expected

    def test_settling_never_decodes_a_sealed_segment(self, runs):
        """The decode fallback exists; the settle points make it dead."""
        assert runs.settle_decodes == []

    def test_open_row_is_counted_once(self):
        """A global aggregate's empty-input row leaves through the edge
        like any other output: one row out, not two."""
        flow = parent.metrics_engine("nexmark").query(
            "SELECT COUNT(*) FROM Bid"
        ).dataflow()
        flow._open()
        aggregate = flow.metrics_report().find("Aggregate")
        assert aggregate["rows_out"] == 1
        assert _edge_violations(flow) == []

    @pytest.mark.parametrize("blob,cut", sorted(PARENT_BLOBS.items()))
    def test_checkpoint_payload_equals_the_parents(self, blob, cut):
        """Counters, peaks, ``telemetry`` and ``wm_pairs`` of a cut —
        also one taken between two watermark steps, where a settle
        missed at the cut would lose samples."""
        flow, events = _bid_flow()
        for event in events[:cut]:
            flow.process(event, "Bid")
        with open(os.path.join(parent.HERE, blob), "rb") as fh:
            expected = pickle.load(fh)
        got = pickle.loads(flow.checkpoint())
        # The one intended difference: the format the cut is stamped with.
        assert (got.pop("version"), expected.pop("version")) == (
            CHECKPOINT_VERSION, 2
        )
        assert _canonical(got) == _canonical(expected)

    @pytest.mark.parametrize("blob,cut", sorted(PARENT_BLOBS.items()))
    def test_parent_blob_continued_reports_an_uninterrupted_run(self, blob, cut):
        uninterrupted, events = _bid_flow()
        expected = parent.reported(uninterrupted.run())
        flow, _ = _bid_flow()
        with open(os.path.join(parent.HERE, blob), "rb") as fh:
            flow.restore(fh.read())
        for event in events[cut:]:
            flow.process(event, "Bid")
        assert parent.reported(flow.finish()) == expected

    def test_two_phase_stage_payload_equals_the_parents(self):
        """The merge half's checkpoint entry — operator states and
        telemetry — is what the parent's combine stage wrote at the
        same cut."""
        flow, events = _bid_flow(**TWO_PHASE_BLOB)
        for event in events[: len(events) // 2]:
            flow.process(event, "Bid")
        path = os.path.join(parent.HERE, "parent_sharded_flow_two_phase.ckpt")
        with open(path, "rb") as fh:
            expected = _canonical_stages(fh.read())
        assert _canonical_stages(flow.checkpoint()) == expected

    def test_parent_two_phase_blob_continued_reports_an_uninterrupted_run(self):
        """Telemetry included: the restored merge half's root watermark
        is the restored frontier's, so samples taken before the next
        watermark step match the uninterrupted run's."""
        uninterrupted, events = _bid_flow(**TWO_PHASE_BLOB)
        for event in events:
            uninterrupted.process(event, "Bid")
        expected = parent.reported(uninterrupted.finish())
        flow, _ = _bid_flow(**TWO_PHASE_BLOB)
        path = os.path.join(parent.HERE, "parent_sharded_flow_two_phase.ckpt")
        with open(path, "rb") as fh:
            flow.restore(fh.read())
        for event in events[len(events) // 2:]:
            flow.process(event, "Bid")
        assert parent.reported(flow.finish()) == expected

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_cut_between_watermark_steps_loses_no_sample(self, batch_size):
        """Serial and sharded, cut wherever: restore + continue reports
        the uninterrupted totals and telemetry.  (Single-phase: a
        two-phase partial ships one payload per *batch*, and a cut
        inside a burst re-forms the batches.)"""
        config = ExecutionConfig(batch_size=batch_size)
        query = parent.metrics_engine("keyed").query(parent.TUMBLED_BY_KEY)
        events = [(event, "S") for event in parent.keyed_stream().events()]
        for build in (
            lambda: query.dataflow(config),
            lambda: query.sharded_dataflow(
                ExecutionConfig(
                    parallelism=2, backend="sync", two_phase="off"
                ).merged_over(config)
            ),
        ):
            whole = build()
            for _ in whole.replay(events):
                pass
            expected = parent.reported(whole.finish())
            for cut in (7, 100, 101, 150):
                first = build()
                for _ in first.replay(events[:cut]):
                    pass
                second = build()
                second.restore(first.checkpoint())
                for _ in second.replay(events[cut:]):
                    pass
                assert parent.reported(second.finish()) == expected, cut
