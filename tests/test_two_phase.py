"""Two-phase sharded aggregation: split, combine, recovery.

The physical planner (``repro.plan.physical``) may split a sharded
grouped aggregate into per-shard ``PartialAggregate`` operators plus a
merge half — a combine ``Dataflow`` of its own.  The invariant under
test throughout:

* with ``coalesce_updates=False`` the final changelog is
  **byte-identical** to the serial run's — values, ``ptime``,
  ``undo``, ``ver``, ordering — at any batch size and shard count,
  through checkpoint/restore, supervised crash recovery, and MQO
  donor grafts;
* with ``coalesce_updates=True`` payloads carry per-group deltas and
  the output is **snapshot-equivalent** (same per-instant snapshots,
  thinner changelog), with visibly less traffic into the merge stage.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RetryPolicy, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.nexmark import NexmarkConfig, generate, paper_bid_stream
from repro.obs import TraceCollector
from repro.plan.logical import PartialAggregateNode
from repro.plan.physical import split_eligibility
from repro.service import StandingQueryService
from repro.service.admission import TenantPolicy

SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

MINUTE = 60_000

TUMBLE = (
    "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS"
)

SUM_AVG_SQL = f"""
    SELECT k, wend, SUM(v) AS total, COUNT(*) AS n, AVG(v) AS mean
    FROM {TUMBLE} GROUP BY k, wend
"""
MINMAX_SQL = f"""
    SELECT k, wend, MIN(v) AS lo, MAX(v) AS hi
    FROM {TUMBLE} GROUP BY k, wend
"""
DISTINCT_SQL = f"""
    SELECT k, wend, COUNT(DISTINCT v) AS uniq
    FROM {TUMBLE} GROUP BY k, wend
"""
VAR_SQL = f"""
    SELECT k, wend, VAR_POP(v) AS spread
    FROM {TUMBLE} GROUP BY k, wend
"""

DECOMPOSABLE_QUERIES = [SUM_AVG_SQL, MINMAX_SQL, DISTINCT_SQL]

#: One bid per ``(item, wend)`` group over the paper's Section 4 data.
PAPER_ITEM_SUM_SQL = """
    SELECT item, wend, SUM(price) AS total
    FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
                dur => INTERVAL '10' MINUTE)
    GROUP BY item, wend
"""


def keyed_events(rows=60, keys=5, burst=4):
    """Bursty keyed history: ``burst`` same-ptime rows at a time (so
    micro-batching can form real extents), a watermark every 12 rows,
    a few late rows, and a closing max watermark."""
    events, ptime, wm_value = [], 1_000_000, 0
    for i in range(rows):
        if i % burst == 0:
            ptime += MINUTE // 4
        late = -MINUTE if i % 17 == 13 else 0
        event_time = max(0, wm_value + late + (i % 3) * MINUTE)
        events.append(ins(ptime, (i % keys, event_time, i)))
        if i % 12 == 11:
            ptime += 1
            wm_value += 2 * MINUTE
            events.append(wm(ptime, wm_value))
    events.append(wm(ptime + MINUTE, 1 << 60))
    return events


def burst_events(bursts=32, burst_len=64, keys=4):
    """High-fan-in history: each burst is ``burst_len`` same-ptime rows
    of ONE key, so a shard receives globally consecutive sequence runs
    and micro-batching can form full extents (alternating keys would
    cap every extent at one row)."""
    events, ptime = [], 1_000_000
    i = 0
    for b in range(bursts):
        ptime += 10_000
        for _ in range(burst_len):
            events.append(ins(ptime, (b % keys, (i % 4) * MINUTE // 2, i)))
            i += 1
    events.append(wm(ptime + 1000, 1 << 60))
    return events


def make_engine(events, **overrides):
    overrides.setdefault("backend", "sync")
    config = ExecutionConfig(**overrides)
    engine = StreamEngine(config=config)
    engine.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    return engine


def serial_run(events, sql, **overrides):
    return make_engine(events, parallelism=1, **overrides).query(sql).run()


def sharded_run(events, sql, shards, two_phase="auto", **overrides):
    engine = make_engine(
        events, parallelism=shards, two_phase=two_phase, **overrides
    )
    return engine.query(sql).run()


class TestEligibility:
    def test_decomposable_query_splits(self):
        query = make_engine(keyed_events(), parallelism=4, two_phase="auto").query(
            SUM_AVG_SQL
        )
        decision = query.physical_decision()
        assert decision.use_two_phase
        split, reason = split_eligibility(query.plan)
        assert split is not None
        assert "decomposable" in reason
        # the shard plan roots in the partial operator's node
        nodes, stack = [], [split.shard_plan.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.inputs)
        assert any(isinstance(n, PartialAggregateNode) for n in nodes)

    def test_var_pop_is_not_decomposable(self):
        query = make_engine(keyed_events(), parallelism=4, two_phase="auto").query(
            VAR_SQL
        )
        split, reason = split_eligibility(query.plan)
        assert split is None
        assert not query.physical_decision().use_two_phase
        # and it still runs correctly, single-phase
        serial = serial_run(keyed_events(), VAR_SQL)
        sharded = sharded_run(keyed_events(), VAR_SQL, shards=4)
        assert sharded.changes == serial.changes

    def test_off_and_parallelism_one_stay_single_phase(self):
        events = keyed_events()
        off = make_engine(events, parallelism=4, two_phase="off").query(
            SUM_AVG_SQL
        )
        assert not off.physical_decision().use_two_phase
        serial = make_engine(events, parallelism=1, two_phase="auto").query(
            SUM_AVG_SQL
        )
        assert not serial.physical_decision().use_two_phase

    def test_a_run_does_not_change_the_shape(self):
        """The shape follows from the plan and the config alone: a
        fan-in-1 aggregate (every bid its own ``(item, wend)`` group)
        still splits after the query ran, and EXPLAIN prints what a
        fresh query of the same SQL prints."""
        engine = StreamEngine(
            config=ExecutionConfig(parallelism=2, backend="sync")
        )
        engine.register_stream("Bid", paper_bid_stream())
        query = engine.query(PAPER_ITEM_SUM_SQL)
        assert query.sharded_dataflow().is_two_phase()
        query.run()
        assert query.sharded_dataflow().is_two_phase()
        assert query.physical_decision().use_two_phase
        fresh = engine.query(PAPER_ITEM_SUM_SQL)
        assert query.explain("physical") == fresh.explain("physical")

    @pytest.mark.parametrize("parser", ["build_parser", "build_serve_parser"])
    def test_the_cli_refuses_two_phase_on(self, parser, capsys):
        import repro.__main__ as cli

        with pytest.raises(SystemExit) as info:
            getattr(cli, parser)().parse_args(["--two-phase", "on"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "'on'" in err and "'auto'" in err and "'off'" in err


class TestByteIdentity:
    @pytest.mark.parametrize("sql", DECOMPOSABLE_QUERIES)
    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_two_phase_matches_serial(self, sql, batch_size, shards):
        events = keyed_events()
        serial = serial_run(events, sql)
        sharded = sharded_run(
            events, sql, shards=shards, batch_size=batch_size
        )
        assert sharded.changes == serial.changes
        assert sharded.watermarks.as_pairs() == serial.watermarks.as_pairs()

    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=-2, max_value=2),
                st.integers(min_value=0, max_value=99),
            ),
            min_size=1,
            max_size=40,
        ),
        shards=st.sampled_from([2, 3]),
        batch_size=st.sampled_from([1, 16]),
        sql=st.sampled_from(DECOMPOSABLE_QUERIES),
    )
    def test_property_random_histories(self, steps, shards, batch_size, sql):
        events, ptime, wm_value = [], 1_000_000, 0
        for is_row, a, b, c in steps:
            ptime += MINUTE // 8
            if is_row:
                events.append(
                    ins(ptime, (a, max(0, wm_value + b * MINUTE), c))
                )
            else:
                wm_value += a * MINUTE
                events.append(wm(ptime, wm_value))
        serial = serial_run(events, sql)
        sharded = sharded_run(
            events, sql, shards=shards, batch_size=batch_size
        )
        assert sharded.changes == serial.changes
        assert sharded.watermarks.as_pairs() == serial.watermarks.as_pairs()


class TestDeltaMode:
    def test_coalesce_is_snapshot_equivalent(self):
        events = keyed_events(rows=120, keys=4, burst=8)
        baseline = serial_run(events, SUM_AVG_SQL)
        delta = sharded_run(
            events,
            SUM_AVG_SQL,
            shards=4,
            batch_size=8,
            coalesce_updates=True,
        )
        instants = sorted(
            {c.ptime for c in baseline.changes}
            | {c.ptime for c in delta.changes}
        )
        for at in instants:
            assert baseline.snapshot(at) == delta.snapshot(at)

    def test_delta_payloads_shrink_merge_traffic(self):
        """The point of the split: the combine stage ingests payload
        batches, not the per-row retract/insert churn the single-phase
        merge carries."""
        events = burst_events(bursts=32, burst_len=64, keys=4)
        engine = make_engine(
            events,
            parallelism=4,
            two_phase="auto",
            batch_size=64,
            coalesce_updates=True,
        )
        flow = engine.query(SUM_AVG_SQL).sharded_dataflow()
        assert flow.is_two_phase()
        flow.run()
        report = flow.metrics_report()
        assert report.find("PartialAggregate")["partial_mode"] == "delta"
        combine_in = report.find("CombineAggregate")["rows_in"][0]

        single = sharded_run(
            events, SUM_AVG_SQL, shards=4, two_phase="off", batch_size=64
        )
        merge_traffic = len(single.changes)
        assert combine_in * 4 <= merge_traffic

    def test_replay_mode_reported_when_not_coalescing(self):
        engine = make_engine(keyed_events(), parallelism=2, two_phase="auto")
        flow = engine.query(SUM_AVG_SQL).sharded_dataflow()
        flow.run()
        report = flow.metrics_report()
        assert report.find("PartialAggregate")["partial_mode"] == "replay"


class TestRecovery:
    @pytest.mark.parametrize("backend", ["sync", "processes"])
    def test_crash_after_checkpoint_recovers_exactly(self, backend):
        events = keyed_events(rows=80, keys=4, burst=4)
        serial = serial_run(events, SUM_AVG_SQL)
        engine = make_engine(
            events,
            parallelism=2,
            two_phase="auto",
            backend=backend,
            batch_size=8,
            fault_plan="crash-after-checkpoint:shard=0,at=1",
            retry=RetryPolicy(max_restarts=3, checkpoint_interval=3),
        )
        result = engine.query(SUM_AVG_SQL).run()
        assert result.changes == serial.changes
        assert result.watermarks.as_pairs() == serial.watermarks.as_pairs()
        assert result.metrics.recovery is not None
        assert result.metrics.recovery.shard_restarts > 0

    def test_checkpoint_restore_continues_exactly(self):
        events = keyed_events()
        query = make_engine(events, parallelism=3, two_phase="auto").query(
            SUM_AVG_SQL
        )
        uninterrupted = query.run()

        first = query.sharded_dataflow()
        assert first.is_two_phase()
        for event in events[: len(events) // 2]:
            first.process(event, "S")
        blob = first.checkpoint()
        del first

        recovered = query.sharded_dataflow()
        recovered.restore(blob)
        for event in events[len(events) // 2 :]:
            recovered.process(event, "S")
        result = recovered.finish()
        assert result.changes == uninterrupted.changes
        assert result.metrics.totals == uninterrupted.metrics.totals

    def test_a_cut_keeps_the_merge_halfs_state_peak(self):
        """Cut after the combine state peaked: the restored flow reports
        the uninterrupted peak, not the smaller one it sees afterwards."""
        events = keyed_events()
        query = make_engine(events, parallelism=3, two_phase="auto").query(
            SUM_AVG_SQL
        )
        uninterrupted, first = query.sharded_dataflow(), query.sharded_dataflow()
        cut = len(events) - 10
        for index, event in enumerate(events):
            uninterrupted.process(event, "S")
            if index < cut:
                first.process(event, "S")
        recovered = query.sharded_dataflow()
        recovered.restore(first.checkpoint())
        for event in events[cut:]:
            recovered.process(event, "S")
        assert (
            recovered.finish().peak_state_rows
            == uninterrupted.finish().peak_state_rows
        )


class TestMQO:
    def test_shared_and_unshared_deltas_identical(self):
        """Donor grafts transplant the combine stage with the shards:
        a standing query grafted onto a two-phase donor emits the same
        deltas as a private flow."""

        def run(share_plans):
            svc = StandingQueryService(
                config=ExecutionConfig(
                    parallelism=2, two_phase="auto", share_plans=share_plans
                ),
                default_policy=TenantPolicy(name="*", max_standing_queries=8),
            )
            svc.register_stream("S", TimeVaryingRelation(SCHEMA))
            sqls = [
                f"SELECT k, wend, SUM(v) AS a{i} FROM {TUMBLE} "
                "GROUP BY k, wend EMIT STREAM"
                for i in range(2)
            ]
            queries = [svc.submit("tenant", sql) for sql in sqls]
            for event in keyed_events():
                svc.ingest(event, "S")
            return [
                q.flow.output_slice_of(q.output_id, 0) for q in queries
            ]

        shared = run(True)
        unshared = run(False)
        assert shared == unshared


class TestMetricsShape:
    def test_report_prepends_combine_stage(self):
        engine = make_engine(keyed_events(), parallelism=4, two_phase="auto")
        flow = engine.query(SUM_AVG_SQL).sharded_dataflow()
        flow.run()
        report = flow.metrics_report()
        combine = report.find("CombineAggregate")
        partial = report.find("PartialAggregate")
        # stage entries sit above the shard trees and carry no
        # per-shard breakdown; shard entries keep theirs
        assert "shards" not in combine
        assert len(partial["shards"]) == 4
        assert combine["depth"] < partial["depth"]
        assert combine["agg_rows_in"] == partial["rows_out"]
        assert report.render()  # renders without raising

    def test_totals_include_stage_operators(self):
        engine = make_engine(keyed_events(), parallelism=2, two_phase="auto")
        flow = engine.query(SUM_AVG_SQL).sharded_dataflow()
        flow.run()
        totals = flow.metrics_report().totals
        combine = flow.metrics_report().find("CombineAggregate")
        assert totals["rows_in"] >= combine["rows_in"][0]


#: per-auction 10-minute tumble over NEXMark bids: state outlives the run
NEXMARK_SQL = (
    "SELECT TB.auction, TB.wend, COUNT(*) AS bids, MAX(TB.price) AS top "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTE) TB GROUP BY TB.auction, TB.wend"
)


def nexmark_query(**overrides):
    overrides.setdefault("backend", "sync")
    engine = StreamEngine(config=ExecutionConfig(**overrides))
    generate(NexmarkConfig(num_events=2000, seed=42)).register_on(engine)
    return engine.query(NEXMARK_SQL)


class TestObservedLikeSerial:
    """The merge half is a flow: what a two-phase flow reports about its
    state and traces about its output is what the serial flow does."""

    @pytest.mark.parametrize("two_phase", ["auto", "off"])
    def test_state_report_counts_the_merge_half(self, two_phase):
        serial = nexmark_query().dataflow()
        serial.run()
        flow = nexmark_query(parallelism=2, two_phase=two_phase).sharded_dataflow()
        flow.run()
        assert flow.is_two_phase() == (two_phase == "auto")
        expected = serial.state_report().total_rows
        assert expected == serial.total_state_rows() > 0
        assert flow.state_report().total_rows == flow.total_state_rows() == expected

    @pytest.mark.parametrize("two_phase", ["auto", "off"])
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_traced_changes_are_the_serial_runs(self, two_phase, batch_size):
        def traced(flow):
            collector = TraceCollector()
            flow.trace = collector
            return collector, flow.run()

        serial, result = traced(nexmark_query(batch_size=batch_size).dataflow())
        assert serial.changes == len(result.changes)
        sharded, _ = traced(
            nexmark_query(
                parallelism=2, two_phase=two_phase, batch_size=batch_size
            ).sharded_dataflow()
        )
        assert sharded.changes == serial.changes
        assert sharded.watermark_advances == serial.watermark_advances

    def test_traced_batches_reach_the_caller_from_forked_shards(self):
        """Two-phase batches come from the combine flow, which runs in
        the caller, so a ``processes`` run reports them too."""
        collector = TraceCollector()
        flow = nexmark_query(
            parallelism=2, two_phase="auto", backend="processes"
        ).sharded_dataflow()
        flow.trace = collector
        result = flow.run()
        assert collector.changes == len(result.changes) > 0
        assert {e.shard for e in collector.events if e.kind == "batch"} == {None}
