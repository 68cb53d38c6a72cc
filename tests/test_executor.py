"""Tests for the dataflow executor."""

import pytest

from repro import StreamEngine
from repro.core.errors import ExecutionError
from repro.core.schema import Schema, int_col, string_col, timestamp_col
from repro.core.times import MAX_TIMESTAMP, minutes, t
from repro.core.tvr import TimeVaryingRelation
from repro.exec.executor import Dataflow
from repro.plan.optimizer import optimize
from repro.plan.planner import Catalog, Planner
from repro.sql.functions import default_registry

SCHEMA = Schema(
    [timestamp_col("ts", event_time=True), int_col("v"), string_col("k")]
)


def make_engine(events=(), bounded_rows=None):
    engine = StreamEngine()
    if bounded_rows is not None:
        engine.register_table("S", SCHEMA, bounded_rows)
    else:
        tvr = TimeVaryingRelation(SCHEMA)
        for event in events:
            tvr.apply(event)
        engine.register_stream("S", tvr)
    return engine


class TestBasics:
    def test_projection_filter_pipeline(self):
        engine = make_engine(bounded_rows=[(1, 10, "a"), (2, 3, "b")])
        rel = engine.query("SELECT v * 2 AS d FROM S WHERE v > 5").table()
        assert rel.tuples == [(20,)]

    def test_global_count_on_empty_input(self):
        engine = make_engine(bounded_rows=[])
        rel = engine.query("SELECT COUNT(*) c FROM S").table()
        assert rel.tuples == [(0,)]

    def test_global_aggregates(self):
        engine = make_engine(bounded_rows=[(1, 10, "a"), (2, 4, "b")])
        rel = engine.query(
            "SELECT COUNT(*) c, SUM(v) s, AVG(v) a, MIN(v) lo, MAX(v) hi FROM S"
        ).table()
        assert rel.tuples == [(2, 14, 7.0, 4, 10)]

    def test_missing_source_rejected(self):
        engine = make_engine(bounded_rows=[])
        query = engine.query("SELECT * FROM S")
        with pytest.raises(ExecutionError, match="no source registered"):
            Dataflow(query.plan, {})

    def test_union_all(self):
        engine = make_engine(bounded_rows=[(1, 10, "a")])
        rel = engine.query(
            "SELECT v FROM S UNION ALL SELECT v + 1 FROM S"
        ).table()
        assert sorted(rel.tuples) == [(10,), (11,)]

    def test_order_by_limit(self):
        engine = make_engine(bounded_rows=[(1, 3, "a"), (2, 1, "b"), (3, 2, "c")])
        rel = engine.query("SELECT v FROM S ORDER BY v DESC LIMIT 2").table()
        assert rel.tuples == [(3,), (2,)]

    def test_distinct(self):
        engine = make_engine(bounded_rows=[(1, 5, "a"), (2, 5, "a"), (3, 6, "b")])
        rel = engine.query("SELECT DISTINCT v FROM S").table()
        assert sorted(rel.tuples) == [(5,), (6,)]

    def test_events_must_arrive_in_order(self):
        engine = make_engine(bounded_rows=[])
        dataflow = engine.query("SELECT * FROM S").dataflow()
        from repro.core.tvr import ins

        dataflow.process(ins(10, (1, 1, "a")), "S")
        with pytest.raises(ExecutionError, match="processing-time order"):
            dataflow.process(ins(5, (1, 1, "a")), "S")


class TestSharedSource:
    """One source consumed by several scans (Q7 reads Bid twice)."""

    def test_self_cross_join(self):
        engine = make_engine(bounded_rows=[(1, 1, "a"), (2, 2, "b")])
        rel = engine.query("SELECT x.v, y.v FROM S x, S y").table()
        assert len(rel) == 4

    def test_self_join_with_aggregate(self):
        engine = make_engine(bounded_rows=[(1, 5, "a"), (2, 9, "b")])
        rel = engine.query(
            "SELECT S.k FROM S, (SELECT MAX(v) m FROM S) mx WHERE S.v = mx.m"
        ).table()
        assert rel.tuples == [("b",)]


class TestWatermarkFlow:
    def test_root_watermark_track(self):
        from repro.core.tvr import ins, wm

        engine = make_engine(
            events=[
                wm(t("8:01"), t("8:00")),
                ins(t("8:02"), (t("8:01"), 1, "a")),
                wm(t("8:05"), t("8:04")),
            ]
        )
        result = engine.query("SELECT * FROM S").run()
        pairs = result.watermarks.as_pairs()
        assert pairs == [(t("8:01"), t("8:00")), (t("8:05"), t("8:04"))]

    def test_join_holds_back_watermark(self):
        """A two-input operator's watermark is the min of its inputs."""
        from repro.core.tvr import ins, wm

        engine = StreamEngine()
        a = TimeVaryingRelation(SCHEMA)
        b = TimeVaryingRelation(SCHEMA)
        a.advance_watermark(10, t("9:00"))
        b.advance_watermark(20, t("8:30"))
        engine.register_stream("A", a)
        engine.register_stream("B", b)
        result = engine.query("SELECT 1 FROM A, B").run()
        assert result.watermarks.current == t("8:30")

    def test_bounded_source_completes_immediately(self):
        engine = make_engine(bounded_rows=[(1, 1, "a")])
        result = engine.query("SELECT * FROM S").run()
        assert result.watermarks.current >= MAX_TIMESTAMP


class TestStateAccounting:
    def test_windowed_aggregation_state_bounded(self):
        """Watermarks free window state (the Section 5 lesson)."""
        from repro.core.tvr import ins, wm

        tvr = TimeVaryingRelation(SCHEMA)
        ptime = 0
        for i in range(100):
            ptime += 1000
            event_ts = ptime
            tvr.insert(ptime, (event_ts, i, "k"))
            if i % 10 == 9:
                tvr.advance_watermark(ptime, event_ts - 2000)
        engine = StreamEngine()
        engine.register_stream("S", tvr)
        sql = (
            "SELECT TB.wend, COUNT(*) c FROM Tumble(data => TABLE(S), "
            "timecol => DESCRIPTOR(ts), dur => INTERVAL '5' SECONDS) TB "
            "GROUP BY TB.wend"
        )
        dataflow = engine.query(sql).dataflow()
        for event in engine.source("S").events():
            dataflow.process(event, "S")
        # state retained is a couple of open windows, not all 100 rows
        assert dataflow.total_state_rows() < 20
        result = dataflow.result()
        assert result.peak_state_rows < 25

    def test_late_drop_counted(self):
        from repro.core.tvr import ins, wm

        tvr = TimeVaryingRelation(SCHEMA)
        tvr.insert(1, (t("8:01"), 1, "a"))
        tvr.advance_watermark(2, t("8:30"))
        tvr.insert(3, (t("8:02"), 1, "late"))  # window long complete
        engine = StreamEngine()
        engine.register_stream("S", tvr)
        sql = (
            "SELECT TB.wend, COUNT(*) c FROM Tumble(data => TABLE(S), "
            "timecol => DESCRIPTOR(ts), dur => INTERVAL '10' MINUTES) TB "
            "GROUP BY TB.wend"
        )
        result = engine.query(sql).run()
        assert result.late_dropped == 1
        assert result.snapshot().tuples == [(t("8:10"), 1)]


class _RecordingFlow(Dataflow):
    """Logs the runs a driver delivers: one entry per ``process_batch``
    call (a row event through ``process`` is a batch of one) or per
    watermark."""

    def process(self, event, source):
        if not hasattr(event, "change"):
            self.runs.append(("wm", source))
        super().process(event, source)

    def process_batch(self, events, source):
        self.runs.append((len(events), source))
        super().process_batch(events, source)


def _bursty_engine():
    from repro.core.tvr import ins, wm

    events, ptime = [], 1000
    for burst in range(12):
        ptime += 100
        for i in range(1 + (burst * 5) % 11):
            events.append(ins(ptime, (t("8:00") + burst, i, "k")))
        if burst % 3 == 2:
            events.append(wm(ptime, t("8:00") + burst))
    return make_engine(events)


class TestRunGrouping:
    """``Dataflow.replay`` is the one run-grouping rule; the shard
    supervisor keeps its own loop (it also breaks runs at sequence
    gaps), so pin that without gaps the two agree."""

    SQL = "SELECT ts, COUNT(*) c FROM S GROUP BY ts"

    def _flow(self, engine, batch_size):
        flow = _RecordingFlow(
            engine.query(self.SQL).plan, engine._sources, batch_size=batch_size
        )
        flow.runs = []
        return flow

    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_supervisor_forms_the_shared_runs_on_a_gap_free_list(
        self, batch_size
    ):
        from repro.exec.executor import merge_source_events
        from repro.runtime.faults import FaultInjector
        from repro.runtime.supervisor import RetryPolicy, ShardSupervisor

        engine = _bursty_engine()
        events = merge_source_events(engine._sources)
        shared = self._flow(engine, batch_size)
        consumed = list(shared.replay(events))
        assert consumed[-1] == len(events)
        assert consumed == sorted(set(consumed))

        supervised = self._flow(engine, batch_size)
        tasks = [(seq, event, src) for seq, (event, src) in enumerate(events)]
        outcome = ShardSupervisor(
            0, supervised, lambda: None, tasks, None, RetryPolicy(),
            FaultInjector(None),
        ).run()
        assert supervised.runs == shared.runs
        # The drive loop takes what each run produced: the changelog is
        # in the outcome's slices, and the flow retains none of it.
        assert [
            change for _, changes in outcome.slices for change in changes
        ] == shared.result().changes
        assert supervised.result().changes == []
        if batch_size > 1:
            assert max(n for n, _ in shared.runs if n != "wm") > 1

    def test_a_sequence_gap_breaks_only_the_supervisors_run(self):
        from repro.exec.executor import merge_source_events
        from repro.runtime.faults import FaultInjector
        from repro.runtime.supervisor import RetryPolicy, ShardSupervisor

        engine = _bursty_engine()
        events = merge_source_events(engine._sources)
        flow = self._flow(engine, 64)
        # Every other sequence number belongs to "another shard".
        tasks = [(2 * seq, event, src) for seq, (event, src) in enumerate(events)]
        ShardSupervisor(
            0, flow, lambda: None, tasks, None, RetryPolicy(),
            FaultInjector(None),
        ).run()
        assert {n for n, _ in flow.runs} == {1, "wm"}


class TestFlowLifetime:
    def test_a_dropped_flow_is_freed_by_refcount(self):
        """Operators bind to the flow's timer queue, not to a bound
        method of the flow, so a replaced flow is not cyclic garbage:
        with the collector off, the last reference going away frees it
        (ROADMAP 1(e))."""
        import gc
        import weakref

        engine = _bursty_engine()
        gc.collect()
        gc.disable()
        try:
            flow = engine.query(
                "SELECT ts, COUNT(*) c, MAX(v) m FROM S GROUP BY ts"
            ).dataflow()
            assert flow.run().changes
            ref = weakref.ref(flow)
            del flow
            assert ref() is None
        finally:
            gc.enable()
