"""Sharded runtime tests: the serial engine is the ground truth.

The contract of :mod:`repro.runtime`: for every query the partition
analyzer accepts, ``ExecutionConfig(parallelism=N)`` produces output
*identical* to the serial engine — values, ``ptime``, ``undo``,
``ver``, and ordering — for any N and any worker-pool backend; every
query the analyzer rejects silently runs serial, with the reason
surfaced in ``explain()``.
"""

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.errors import ExecutionError, ValidationError, WatermarkError
from repro.core.schema import Schema, int_col, string_col, timestamp_col
from repro.core.times import MIN_TIMESTAMP, t
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.nexmark import paper_bid_stream
from repro.nexmark.queries import (
    Q0_PASSTHROUGH,
    Q1_CURRENCY,
    Q3_LOCAL_ITEM_SUGGESTION,
    Q4_AVERAGE_PRICE_FOR_CATEGORY,
    Q6_AVERAGE_SELLING_PRICE_BY_SELLER,
    q2_selection,
    q5_hot_items,
    q7_highest_bid,
    q8_monitor_new_users,
    register_udfs,
)
from repro.runtime import WatermarkFrontier


def assert_identical_results(serial, sharded):
    """Every observable of the run must match the serial engine exactly."""
    rs, rp = serial.run(), sharded.run()
    assert rp.changes == rs.changes
    assert rp.watermarks.as_pairs() == rs.watermarks.as_pairs()
    assert rp.last_ptime == rs.last_ptime
    assert rp.late_dropped == rs.late_dropped
    assert rp.expired_rows == rs.expired_rows
    assert sharded.table().rows() == serial.table().rows()


TUMBLED_BY_ITEM = """
    SELECT item, wend, MAX(price) AS maxprice
    FROM Tumble(data => TABLE(Bid),
                timecol => DESCRIPTOR(bidtime),
                dur => INTERVAL '10' MINUTE) TB
    GROUP BY item, wend
"""

TUMBLED_BY_WINDOW = """
    SELECT wend, SUM(price) AS total
    FROM Tumble(data => TABLE(Bid),
                timecol => DESCRIPTOR(bidtime),
                dur => INTERVAL '10' MINUTE) TB
    GROUP BY wend
"""


TUMBLED_COUNT_BY_ITEM = """
    SELECT item, wend, COUNT(*) AS bids
    FROM Tumble(data => TABLE(Bid),
                timecol => DESCRIPTOR(bidtime),
                dur => INTERVAL '10' MINUTE) TB
    GROUP BY item, wend
"""


def paper_engine(parallelism=1, backend="sync", batch_size=1):
    eng = StreamEngine(
        config=ExecutionConfig(
            parallelism=parallelism, backend=backend, batch_size=batch_size
        )
    )
    eng.register_stream("Bid", paper_bid_stream())
    return eng


def two_stream_engine(parallelism=1, backend="sync"):
    """Two keyed streams for join partitioning tests."""
    eng = StreamEngine(
        config=ExecutionConfig(parallelism=parallelism, backend=backend)
    )
    left = TimeVaryingRelation(
        Schema([int_col("k"), string_col("lv")]),
        [
            ins(t("8:01"), (1, "a")),
            ins(t("8:02"), (2, "b")),
            wm(t("8:03"), t("8:02")),
            ins(t("8:04"), (1, "c")),
            ins(t("8:06"), (3, "d")),
            wm(t("8:08"), t("8:09")),
        ],
    )
    right = TimeVaryingRelation(
        Schema([int_col("k"), int_col("rv")]),
        [
            ins(t("8:01"), (1, 10)),
            wm(t("8:03"), t("8:02")),
            ins(t("8:05"), (2, 20)),
            ins(t("8:07"), (1, 30)),
            wm(t("8:08"), t("8:09")),
        ],
    )
    eng.register_stream("L", left)
    eng.register_stream("R", right)
    return eng


class TestFrontier:
    def test_merged_minimum(self):
        f = WatermarkFrontier(3)
        assert f.current == MIN_TIMESTAMP
        assert f.observe(0, 100, 50) is None  # shards 1,2 still behind
        assert f.observe(1, 110, 80) is None
        assert f.observe(2, 120, 60) == 50  # min finally moves
        assert f.current == 50
        assert f.observe(0, 130, 90) == 60
        assert f.merged.as_pairs() == [(120, 50), (130, 60)]

    def test_regression_rejected(self):
        f = WatermarkFrontier(2)
        f.observe(0, 100, 50)
        with pytest.raises(WatermarkError):
            f.observe(0, 110, 40)

    def test_snapshot_roundtrip(self):
        f = WatermarkFrontier(2)
        f.observe(0, 100, 50)
        f.observe(1, 110, 70)
        g = WatermarkFrontier(2)
        g.restore(f.snapshot())
        assert g.current == f.current
        assert g.merged.as_pairs() == f.merged.as_pairs()
        assert g.shard_value(1) == 70

    def test_snapshot_shard_count_checked(self):
        f = WatermarkFrontier(2)
        with pytest.raises(WatermarkError):
            WatermarkFrontier(3).restore(f.snapshot())

    def test_needs_a_shard(self):
        with pytest.raises(WatermarkError):
            WatermarkFrontier(0)

    @pytest.mark.parametrize(
        "snapshot",
        [
            # merged minimum runs ahead of a shard's own watermark
            {"values": [10, 80], "merged_pairs": [(100, 50)]},
            # merged pairs regress in value
            {"values": [50, 80], "merged_pairs": [(100, 50), (200, 40)]},
            # merged pairs regress in processing time
            {"values": [50, 80], "merged_pairs": [(100, 50), (50, 60)]},
            # shard value is not a timestamp
            {"values": [50, "corrupt"], "merged_pairs": []},
            {"values": [50, None], "merged_pairs": []},
        ],
    )
    def test_corrupt_snapshot_rejected(self, snapshot):
        f = WatermarkFrontier(2)
        with pytest.raises(WatermarkError):
            f.restore(snapshot)

    def test_rejected_restore_leaves_state_untouched(self):
        f = WatermarkFrontier(2)
        f.observe(0, 100, 50)
        f.observe(1, 110, 70)
        with pytest.raises(WatermarkError):
            f.restore({"values": [10, 80], "merged_pairs": [(100, 50)]})
        assert f.shard_value(0) == 50
        assert f.shard_value(1) == 70
        assert f.merged.as_pairs() == [(110, 50)]


class TestAnalyzer:
    """The analyzer's accept/reject decisions, surfaced via explain()."""

    def test_keyed_window_aggregate_partitionable(self):
        query = paper_engine(4).query(TUMBLED_BY_ITEM)
        decision = query.partition_decision()
        assert decision.partitionable
        assert "bid.item" in decision.spec.description
        assert "Runtime: sharded(4) by bid.item" in query.explain()

    def test_window_edge_grouping_partitionable(self):
        query = paper_engine(4).query(TUMBLED_BY_WINDOW)
        decision = query.partition_decision()
        assert decision.partitionable
        assert "tumble_end(bid.bidtime" in decision.spec.description

    def test_equi_join_partitionable(self):
        query = two_stream_engine(4).query(
            "SELECT L.k, L.lv, R.rv FROM L JOIN R ON L.k = R.k"
        )
        assert query.partition_decision().partitionable

    @pytest.mark.parametrize(
        "sql, hint",
        [
            ("SELECT item, price FROM Bid ORDER BY price", "ORDER BY"),
            (
                "SELECT item, MAX(price) OVER (ORDER BY bidtime) AS m FROM Bid",
                "OVER",
            ),
            (
                "SELECT item, MAX(price) OVER "
                "(PARTITION BY item ORDER BY bidtime) AS m FROM Bid",
                "OVER",
            ),
        ],
    )
    def test_global_operators_fall_back(self, sql, hint):
        query = paper_engine(4).query(sql)
        decision = query.partition_decision()
        assert not decision.partitionable
        note = query.explain()
        assert "Runtime: serial — " in note
        if hint is not None:
            assert hint in note

    def test_global_aggregate_falls_back(self):
        eng = StreamEngine(config=ExecutionConfig(parallelism=4))
        eng.register_table("T", Schema([int_col("v")]), [(1,), (2,), (3,)])
        query = eng.query("SELECT SUM(v) FROM T")
        decision = query.partition_decision()
        assert not decision.partitionable
        assert "global aggregate" in decision.reason

    def test_match_recognize_falls_back(self):
        sql = """
            SELECT * FROM Bid MATCH_RECOGNIZE (
                PARTITION BY item
                ORDER BY bidtime
                MEASURES LAST(UP.price) AS peak
                ONE ROW PER MATCH
                AFTER MATCH SKIP PAST LAST ROW
                PATTERN ( UP+ )
                DEFINE UP AS price >= 4
            )
        """
        query = paper_engine(4).query(sql)
        decision = query.partition_decision()
        assert not decision.partitionable
        assert "MATCH_RECOGNIZE" in decision.reason

    def test_serial_engine_explain_has_no_runtime_note(self):
        assert "Runtime:" not in paper_engine(1).query(TUMBLED_BY_ITEM).explain()

    def test_fallback_query_still_runs(self):
        """Non-partitionable queries run serial under parallelism > 1."""
        serial = paper_engine(1).query("SELECT item, price FROM Bid ORDER BY price")
        sharded = paper_engine(4).query("SELECT item, price FROM Bid ORDER BY price")
        assert sharded.table().rows() == serial.table().rows()

    def test_sharded_dataflow_rejects_fallback_plans(self):
        query = paper_engine(4).query(
            "SELECT item, price FROM Bid ORDER BY price"
        )
        with pytest.raises(ValidationError, match="not key-partitionable"):
            query.sharded_dataflow()


class TestEngineConfig:
    def test_parallelism_validated(self):
        with pytest.raises(ValidationError):
            StreamEngine(config=ExecutionConfig(parallelism=0))

    def test_backend_validated(self):
        with pytest.raises(ValidationError):
            StreamEngine(config=ExecutionConfig(parallelism=2, backend="fibers"))

    def test_unknown_backend_rejected_by_pool(self):
        from repro.runtime import run_shards

        with pytest.raises(ExecutionError):
            run_shards([lambda: 1], backend="fibers")


class _LoadsOnlyInTheChild:
    """A worker result that pickles fine and cannot be unpickled."""

    def __getstate__(self):
        return {"ok": True}

    def __setstate__(self, state):
        raise RuntimeError("cannot load this here")


class TestProcessPool:
    """The fork backend joins and closes every worker, whatever the
    parent meets while collecting their results."""

    def test_result_that_fails_to_load_in_the_parent(self, monkeypatch):
        import multiprocessing
        import os
        import time

        from repro.runtime import backends, run_shards

        if not backends._fork_available():
            pytest.skip("no fork on this platform")
        ctx = multiprocessing.get_context("fork")
        procs, conns = [], []
        real_process, real_pipe = ctx.Process, ctx.Pipe

        def process(*args, **kwargs):
            procs.append(real_process(*args, **kwargs))
            return procs[-1]

        def pipe(*args, **kwargs):
            ends = real_pipe(*args, **kwargs)
            conns.append(ends[0])
            return ends

        monkeypatch.setattr(ctx, "Process", process)
        monkeypatch.setattr(ctx, "Pipe", pipe)
        monkeypatch.setattr(multiprocessing, "get_context", lambda kind: ctx)

        def slow():
            time.sleep(0.2)  # still running when shard 0's load fails
            return os.getpid()

        with pytest.raises(ExecutionError, match="shard 0 .*cannot load this here"):
            run_shards([_LoadsOnlyInTheChild, slow, slow], backend="processes")
        assert len(procs) == 3
        assert all(proc.exitcode == 0 for proc in procs)  # joined, not killed
        assert all(conn.closed for conn in conns)

    def test_a_failed_fork_joins_the_workers_already_started(self, monkeypatch):
        """Forking worker 1 fails (``EAGAIN``): worker 0, already running,
        is joined and every pipe end is closed before the error
        propagates."""
        import errno
        import multiprocessing
        import time

        from repro.runtime import backends, run_shards

        if not backends._fork_available():
            pytest.skip("no fork on this platform")
        ctx = multiprocessing.get_context("fork")
        procs, conns = [], []
        real_process, real_pipe = ctx.Process, ctx.Pipe

        def refuse():
            raise OSError(errno.EAGAIN, "fork refused")

        def process(*args, **kwargs):
            proc = real_process(*args, **kwargs)
            if procs:
                proc.start = refuse
            procs.append(proc)
            return proc

        def pipe(*args, **kwargs):
            ends = real_pipe(*args, **kwargs)
            conns.extend(ends)
            return ends

        monkeypatch.setattr(ctx, "Process", process)
        monkeypatch.setattr(ctx, "Pipe", pipe)
        monkeypatch.setattr(multiprocessing, "get_context", lambda kind: ctx)

        def slow():
            time.sleep(0.2)  # still running when worker 1's fork fails
            return 0

        with pytest.raises(OSError, match="fork refused"):
            run_shards([slow, slow, slow], backend="processes")
        assert len(procs) == 2  # worker 2 was never built
        assert procs[0].exitcode == 0  # joined, not left running
        assert len(conns) == 4 and all(conn.closed for conn in conns)

    def test_first_failure_by_shard_index_wins(self):
        from repro.runtime import run_shards

        def fail():
            raise ValueError("worker 2 broke")

        with pytest.raises(ExecutionError, match="shard 1 "):
            run_shards(
                [lambda: 1, _LoadsOnlyInTheChild, fail], backend="processes"
            )

    def test_a_worker_does_not_collect_what_it_inherited(self, monkeypatch):
        """A forked worker inherits the collector as ``ShardedDataflow.run``
        (a paused call, the one caller that forks) left it: off, so no
        collection in the worker walks the heap it inherited.  The
        parent's collector is on again once the run returns or raises."""
        import gc

        from repro.runtime import backends, sharded

        if not backends._fork_available():
            pytest.skip("no fork on this platform")
        in_workers = []

        def reporting(workers, backend):
            told = backends.run_shards(
                [lambda w=w: (gc.isenabled(), w()) for w in workers], backend
            )
            in_workers.extend(enabled for enabled, _ in told)
            return [result for _, result in told]

        monkeypatch.setattr(sharded, "run_shards", reporting)
        engine = paper_engine(parallelism=2, backend="processes")
        assert gc.isenabled()
        engine.query(TUMBLED_BY_ITEM).sharded_dataflow().run()
        assert in_workers == [False, False]
        assert gc.isenabled()

        def failing(workers, backend):
            def fail():
                raise ValueError("worker broke")

            return backends.run_shards([workers[0], fail], backend)

        monkeypatch.setattr(sharded, "run_shards", failing)
        with pytest.raises(ValueError, match="worker broke"):
            engine.query(TUMBLED_BY_ITEM).sharded_dataflow().run()
        assert gc.isenabled()


class TestPaperListingEquality:
    """Section 4's Bid stream: sharded output is byte-identical to serial."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_keyed_window_aggregate(self, shards):
        serial = paper_engine(1).query(TUMBLED_BY_ITEM)
        sharded = paper_engine(shards).query(TUMBLED_BY_ITEM)
        assert_identical_results(serial, sharded)
        assert sharded.stream() == serial.stream()

    @pytest.mark.parametrize("emit", ["", " EMIT STREAM", " EMIT STREAM AFTER WATERMARK"])
    def test_emit_modes(self, emit):
        serial = paper_engine(1).query(TUMBLED_BY_ITEM + emit)
        sharded = paper_engine(3).query(TUMBLED_BY_ITEM + emit)
        assert_identical_results(serial, sharded)
        assert sharded.stream() == serial.stream()

    def test_window_edge_routing(self):
        serial = paper_engine(1).query(TUMBLED_BY_WINDOW)
        sharded = paper_engine(3).query(TUMBLED_BY_WINDOW)
        assert_identical_results(serial, sharded)

    def test_stream_deltas(self):
        serial = paper_engine(1).query(TUMBLED_BY_ITEM + " EMIT STREAM")
        sharded = paper_engine(3).query(TUMBLED_BY_ITEM + " EMIT STREAM")
        assert sharded.stream_deltas() == serial.stream_deltas()

    def test_allowed_lateness_late_drops_match(self):
        late = ExecutionConfig(allowed_lateness=60_000)
        serial = paper_engine(1).query(TUMBLED_BY_ITEM, config=late)
        sharded = paper_engine(3).query(TUMBLED_BY_ITEM, config=late)
        assert_identical_results(serial, sharded)

    def test_join_equality(self):
        sql = "SELECT L.k, L.lv, R.rv FROM L JOIN R ON L.k = R.k EMIT STREAM"
        serial = two_stream_engine(1).query(sql)
        sharded = two_stream_engine(3).query(sql)
        assert_identical_results(serial, sharded)
        assert sharded.stream() == serial.stream()

    def test_state_report_totals_match_serial(self):
        serial = paper_engine(1).query(TUMBLED_BY_ITEM)
        sharded_query = paper_engine(3).query(TUMBLED_BY_ITEM)
        dataflow = serial.dataflow()
        dataflow.run()
        sharded = sharded_query.sharded_dataflow()
        sharded.run()
        report = sharded.state_report()
        assert report.total_rows == dataflow.state_report().total_rows
        assert sharded.total_state_rows() == dataflow.total_state_rows()
        assert "×3 shards" in str(report.operators[0].name)


class TestBackendEquality:
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    @pytest.mark.parametrize("backend", ["sync", "processes"])
    def test_backends_identical(self, backend, batch_size):
        serial = paper_engine(1).query(TUMBLED_BY_ITEM + " EMIT STREAM")
        engine = paper_engine(3, backend, batch_size)
        sharded = engine.query(TUMBLED_BY_ITEM + " EMIT STREAM")
        assert_identical_results(serial, sharded)
        assert sharded.stream() == serial.stream()
        # A second output attached before run(): the set of legal
        # programs must not depend on the batch size (it raised
        # "supervised batch runs drive a single output" at 7 and 64).
        second = engine.query(TUMBLED_COUNT_BY_ITEM)
        assert second.partition_decision().spec == (
            sharded.partition_decision().spec
        )
        flow = sharded.sharded_dataflow()
        flow.attach_output("second", second.plan)
        assert flow.run().changes == serial.run().changes
        assert flow.output_slice_of("second") == (
            paper_engine(1).query(TUMBLED_COUNT_BY_ITEM).run().changes
        )

    @pytest.mark.parametrize("backend", ["sync", "processes"])
    def test_backends_identical_join(self, backend):
        sql = "SELECT L.k, L.lv, R.rv FROM L JOIN R ON L.k = R.k"
        serial = two_stream_engine(1).query(sql)
        sharded = two_stream_engine(4, backend).query(sql)
        assert_identical_results(serial, sharded)

    @pytest.mark.parametrize("two_phase", ["off", "auto"])
    def test_processes_without_fork_runs_in_the_caller(
        self, monkeypatch, two_phase
    ):
        """Where ``fork`` is unavailable ``processes`` is ``sync``: no
        child is forked, the shards run in the caller (their batch
        events reach the trace hook) and the changelog is the serial
        one, single-phase and through the partial/combine split alike."""
        from repro.runtime import backends

        def no_fork(workers):
            raise AssertionError("forked without fork")

        monkeypatch.setattr(backends, "_fork_available", lambda: False)
        monkeypatch.setattr(backends, "_run_processes", no_fork)
        sql = TUMBLED_BY_ITEM + " EMIT STREAM"
        serial = paper_engine(1).query(sql).run()
        flows = {}
        for backend in ("sync", "processes"):
            flow = paper_engine(3, backend).query(
                sql, ExecutionConfig(two_phase=two_phase)
            ).sharded_dataflow()
            traced = []
            flow.trace = traced.append
            result = flow.run()
            assert result.changes == serial.changes, backend
            assert result.watermarks.as_pairs() == serial.watermarks.as_pairs()
            flows[backend] = (flow.checkpoint(), traced)
        assert flows["processes"] == flows["sync"]
        # a two-phase output's batch events come from its combine flow,
        # so only single-phase shards show theirs to the caller's hook
        assert any(
            event.kind == "batch" and event.shard is not None
            for event in flows["processes"][1]
        ) == (two_phase == "off")


NEXMARK_CASES = [
    # (name, sql factory, runs on recorded tables, expected partitionable)
    ("q0", lambda: Q0_PASSTHROUGH, False, True),
    ("q1", lambda: Q1_CURRENCY, False, True),
    ("q2", lambda: q2_selection(), False, True),
    ("q3", lambda: Q3_LOCAL_ITEM_SUGGESTION, False, True),
    ("q4", lambda: Q4_AVERAGE_PRICE_FOR_CATEGORY, True, False),
    ("q5", lambda: q5_hot_items(), False, False),
    ("q6", lambda: Q6_AVERAGE_SELLING_PRICE_BY_SELLER, True, False),
    ("q7", lambda: q7_highest_bid(), False, False),
    ("q8", lambda: q8_monitor_new_users(), False, True),
]


class TestNexmarkEquality:
    """NEXMark Q0–Q8: partitionable queries shard, the rest fall back —
    and either way the output matches the serial engine exactly."""

    def _engine(self, nexmark_small, parallelism, recorded):
        eng = StreamEngine(config=ExecutionConfig(parallelism=parallelism))
        if recorded:
            nexmark_small.register_recorded_on(eng)
        else:
            nexmark_small.register_on(eng)
        register_udfs(eng)
        return eng

    @pytest.mark.parametrize(
        "name, sql_of, recorded, expect_sharded",
        NEXMARK_CASES,
        ids=[case[0] for case in NEXMARK_CASES],
    )
    def test_query(self, nexmark_small, name, sql_of, recorded, expect_sharded):
        sql = sql_of()
        serial = self._engine(nexmark_small, 1, recorded).query(sql)
        sharded = self._engine(nexmark_small, 4, recorded).query(sql)
        assert sharded.partition_decision().partitionable == expect_sharded
        assert_identical_results(serial, sharded)


class TestShardedCheckpoint:
    """Checkpoint → crash → restore → replay is byte-identical, sharded."""

    def _events(self, engine, source_names):
        events = []
        for idx, name in enumerate(source_names):
            for i, event in enumerate(engine.source(name).events()):
                events.append((event.ptime, idx, i, event, name))
        events.sort(key=lambda item: (item[0], item[1], item[2]))
        return [(event, name) for _, _, _, event, name in events]

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_crash_recovery_roundtrip(self, fraction):
        engine = paper_engine(3)
        query = engine.query(TUMBLED_BY_ITEM)
        uninterrupted = query.run()
        events = self._events(engine, ["Bid"])
        cut = int(len(events) * fraction)

        first = query.sharded_dataflow()
        for event, name in events[:cut]:
            first.process(event, name)
        checkpoint = first.checkpoint()
        del first  # the "crash"

        recovered = query.sharded_dataflow()
        recovered.restore(checkpoint)
        for event, name in events[cut:]:
            recovered.process(event, name)
        result = recovered.finish()
        assert result.changes == uninterrupted.changes
        assert result.watermarks.as_pairs() == uninterrupted.watermarks.as_pairs()
        assert result.last_ptime == uninterrupted.last_ptime

    def test_checkpoint_bytes_restore_across_backends(self):
        """A batch (processes) run's checkpoint restores into a sync run."""
        engine = paper_engine(3, backend="processes")
        query = engine.query(TUMBLED_BY_ITEM)
        first = query.sharded_dataflow()
        first.run()
        expected = first.result()

        recovered = query.sharded_dataflow(ExecutionConfig(backend="sync"))
        recovered.restore(first.checkpoint())
        result = recovered.result()
        assert result.changes == expected.changes
        assert result.watermarks.as_pairs() == expected.watermarks.as_pairs()

    def test_shard_count_mismatch_rejected(self):
        engine = paper_engine(3)
        query = engine.query(TUMBLED_BY_ITEM)
        first = query.sharded_dataflow(ExecutionConfig(parallelism=3))
        first.run()
        with pytest.raises(ExecutionError, match="shards"):
            query.sharded_dataflow(
                ExecutionConfig(parallelism=2)
            ).restore(first.checkpoint())

    def test_incremental_matches_batch(self):
        engine = paper_engine(4)
        query = engine.query(TUMBLED_BY_ITEM)
        batch = query.sharded_dataflow()
        batch_result = batch.run()

        incremental = query.sharded_dataflow()
        for event, name in self._events(engine, ["Bid"]):
            incremental.process(event, name)
        result = incremental.finish()
        assert result.changes == batch_result.changes
        assert result.watermarks.as_pairs() == batch_result.watermarks.as_pairs()
