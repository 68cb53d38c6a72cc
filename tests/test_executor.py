"""Tests for the dataflow executor."""

import pytest

from repro import ExecutionConfig, StreamEngine
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
            Dataflow(query.plan, {}, engine.config)

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
    """``event_runs`` is the one run-grouping rule: ``replay`` delivers
    its runs, the router hands a shard its share of each as one task
    and the shard's drive loop never re-forms them — it only splits a
    share at sequence gaps when the plan cannot carry sequence numbers
    to its root.  Pin that without gaps the shard is fed ``replay``'s
    runs exactly."""

    SQL = "SELECT ts, COUNT(*) c FROM S GROUP BY ts"

    def _flow(self, engine, batch_size, columnar="off", **config):
        flow = _RecordingFlow(
            engine.query(self.SQL).plan, engine._sources,
            ExecutionConfig(batch_size=batch_size, columnar=columnar, **config)
            .merged_over(engine.config),
        )
        flow.runs = []
        return flow

    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_supervisor_forms_the_shared_runs_on_a_gap_free_list(
        self, batch_size
    ):
        from repro.exec.compile import COALESCE_KEEPS_INSTANTS
        from repro.exec.executor import event_runs, merge_source_events
        from repro.plan.partition import PartitionSpec
        from repro.runtime.faults import FaultInjector
        from repro.runtime.routing import partition_events
        from repro.runtime.supervisor import RetryPolicy, ShardSupervisor

        engine = _bursty_engine()
        events = merge_source_events(engine._sources)
        # A shard is fed shares of runs that stay per instant (its
        # parent's: ``ShardedDataflow.run_span_reason``), so the
        # reference runs come from a flow whose runs stay per instant.
        shared = self._flow(engine, batch_size, coalesce_updates=True)
        assert shared.run_span_reason() == COALESCE_KEEPS_INSTANTS
        consumed = list(shared.replay(events))
        assert consumed[-1] == len(events)
        assert consumed == sorted(set(consumed))

        supervised = self._flow(engine, batch_size, coalesce_updates=True)
        # One shard owns everything: its task list is gap-free.
        (tasks,) = partition_events(
            [(run, src) for _, run, src in event_runs(supervised, events)],
            PartitionSpec({}, "broadcast"),
            1,
        )
        assert [seq for _, seqs, _, _ in tasks for seq in seqs] == list(
            range(len(events))
        )
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

    def test_a_sequence_gap_splits_a_share_the_plan_cannot_tag(self):
        """A single-phase aggregate emits rows, not payloads: nothing
        at its root could say which input row an output change belongs
        to, so the share is fed piece by consecutive piece."""
        from repro.exec.executor import event_runs, merge_source_events
        from repro.runtime.faults import FaultInjector
        from repro.runtime.supervisor import RetryPolicy, ShardSupervisor

        engine = _bursty_engine()
        events = merge_source_events(engine._sources)
        assert self._flow(engine, 64).run_split_reason() == (
            "row batches carry no sequence numbers"
        )
        flow = self._flow(engine, 64, columnar="auto")
        assert flow.run_split_reason() == (
            "Aggregate cannot carry sequence numbers"
        )
        # Every other sequence number belongs to "another shard".
        tasks, seq = [], 0
        for _, run, src in event_runs(flow, events):
            seqs = [seq + 2 * k for k in range(len(run))]
            tasks.append((seqs[0], seqs, run, src))
            seq = seqs[-1] + 2
        assert max(len(task[1]) for task in tasks) > 1
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


# ---------------------------------------------------------------------------
# accounting rides the edge and settles on read: counts that repeat exactly
# ---------------------------------------------------------------------------


def _sixteen_output_flow():
    """One resident DAG with 16 outputs: 8 aggregates over one shared
    scan + tumble prefix, 8 with a filter and window of their own."""

    def tumble(select, minutes_, where=""):
        return (
            f"SELECT TB.wend, {select} AS x FROM Tumble(data => TABLE(S), "
            f"timecol => DESCRIPTOR(ts), dur => INTERVAL '{minutes_}' MINUTES) TB "
            f"{where} GROUP BY TB.wend"
        )

    sqls = [
        tumble(agg, 10)
        for agg in ("MAX(TB.v)", "MIN(TB.v)", "COUNT(*)", "SUM(TB.v)",
                    "AVG(TB.v)", "MAX(TB.k)", "MIN(TB.k)", "COUNT(TB.k)")
    ] + [
        tumble("COUNT(*)", 5 + n, where=f"WHERE TB.v > {10 * n + 5}")
        for n in range(8)
    ]
    engine = make_engine()
    flow = engine.query(sqls[0]).dataflow()
    for n, sql in enumerate(sqls[1:], 1):
        flow.attach_output(f"q{n}", engine.query(sql).plan)
    return flow


def _row(n):
    from repro.core.tvr import ins

    # strictly increasing instants; values spread so some filters pass
    return ins(10_000 + n, (t("8:00") + (n % 7) * 1000, (n * 13) % 90, "k"))


class TestAccountingCounts:
    def test_telemetry_is_silent_between_watermark_steps(self, monkeypatch):
        """Telemetry is derived on read: 191 single events and two
        watermark steps, then a ``run()`` of another flow, touch no
        histogram and record nothing (the parent recorded once per
        output at every watermark step); the first read of each output
        derives samples equal to an eager reference that recorded every
        root batch on arrival."""
        from repro.core.tvr import ins, wm
        from repro.obs.histogram import Histogram
        from repro.obs.telemetry import RunTelemetry

        from .test_telemetry_on_read import Eager

        eager = Eager(monkeypatch)
        flow = _sixteen_output_flow()
        assert len(flow.output_ids()) == 16
        calls = {"observe": 0, "record": 0}

        def counting(cls, name, key):
            real = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls[key] += 1
                return real(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        for name in ("observe", "observe_many"):
            counting(Histogram, name, "observe")
        counting(RunTelemetry, "record_emit_run", "record")

        flow.process(wm(9_000, t("7:00")), "S")
        for n in range(191):
            flow.process(_row(n), "S")
        flow.process(wm(20_000, t("7:30")), "S")
        flow.process(ins(25_000, (t("8:00"), 50, "k")), "S")
        flow.process(wm(30_000, t("8:30")), "S")
        ran = make_engine(
            [wm(9_000, t("7:00"))] + [_row(n) for n in range(60)]
            + [wm(20_000, t("8:30"))]
        ).query(
            "SELECT TB.wend, MAX(TB.v) AS x FROM Tumble(data => TABLE(S), "
            "timecol => DESCRIPTOR(ts), dur => INTERVAL '10' MINUTES) TB "
            "GROUP BY TB.wend"
        ).dataflow()
        result = ran.run()
        assert calls == {"observe": 0, "record": 0}
        for oid in flow.output_ids():
            reference = eager.of(flow, oid)
            assert reference.watermark_lag.count > 0, oid
            assert flow.telemetry_of(oid).snapshot() == reference.snapshot()
        assert calls["record"] > 0
        assert eager.of(ran).watermark_lag.count > 0
        assert result.metrics.telemetry.snapshot() == eager.of(ran).snapshot()

    def test_a_batch_is_counted_once_however_many_consumers(self, monkeypatch):
        """The shared scan feeds one tumble per distinct window (9
        consumer edges): its batch is sized and scanned for retractions
        in one ``count_edge`` call, not once per consumer plus once for
        itself."""
        from repro.exec import executor

        flow = _sixteen_output_flow()
        (scan,) = flow._leaves
        fan_out = len(flow._consumers[id(scan)])
        assert fan_out == 9
        seen = []
        real = executor.count_edge

        def spy(changes, producer, consumers):
            seen.append((producer, len(list(consumers))))
            real(changes, producer, consumers)

        monkeypatch.setattr(executor, "count_edge", spy)
        flow.process(_row(0), "S")
        assert [n for producer, n in seen if producer is scan] == [fan_out]
        assert [n for producer, n in seen if producer is None] == [1]
        # one call per produced batch: every producer appears once
        producers = [id(p) for p, _ in seen if p is not None]
        assert len(producers) == len(set(producers))

    def test_state_sweep_skips_operators_without_state(self, monkeypatch):
        from repro.exec.operators.base import Operator

        swept = []
        real = Operator.state_size
        monkeypatch.setattr(
            Operator, "state_size",
            lambda self: swept.append(self) or real(self),
        )
        flow = _sixteen_output_flow()
        stateless = [
            op for op in flow.operators
            if type(op).state_size is Operator.state_size
        ]
        assert stateless and len(stateless) < len(flow.operators)
        for n in range(50):
            flow.process(_row(n), "S")
        assert swept == []
        peaks = {
            entry["operator"]: entry["peak_state_rows"]
            for oid in flow.output_ids()
            for entry in flow.metrics_report(oid).operators
        }
        assert max(peaks.values()) > 0
        assert flow.result().peak_state_rows > 0
