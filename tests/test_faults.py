"""Fault-tolerance tests: supervised recovery is invisible in the output.

The contract of :mod:`repro.runtime.supervisor` +
:mod:`repro.runtime.faults`: under any deterministic fault plan — worker
crashes between batches, crashes right after a checkpoint, simulated
hangs, transient poison rows — a sharded run restarts the failed
workers from their last checkpoint, replays their input, dedups the
re-emitted output by global sequence number, and produces a changelog
*byte-identical* to a fault-free serial run (values, ``ptime``,
``undo``, ``ver``, ordering, watermark steps).  The recovery must also
be observable: ``shard_restarts > 0`` on the metrics report proves the
faults actually fired.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, FaultPlan, FaultSpec, RetryPolicy, StreamEngine
from repro.core.errors import ExecutionError, WatermarkError
from repro.nexmark import paper_bid_stream
from repro.nexmark.queries import (
    Q3_LOCAL_ITEM_SUGGESTION,
    q7_highest_bid,
    register_udfs,
)
from repro.obs import TraceCollector
from repro.runtime import WatermarkFrontier
from repro.runtime.faults import FAULT_KINDS, FaultInjector, InjectedCrash
from repro.runtime.merge import dedup_by_seq, dedup_observations
from repro.shell import Shell

TUMBLED_BY_ITEM = (
    "SELECT item, wend, MAX(price) AS maxprice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTE) TB "
    "GROUP BY item, wend"
)

# One representative plan per fault kind.  Offsets are small so they hit
# inside every shard subsequence of the paper's Bid stream; the
# ``crash-after-checkpoint`` entry relies on the matrix retry policy's
# checkpoint_interval to have produced a first checkpoint.
FAULT_MATRIX = {
    "crash-before-batch": "crash-before-batch:shard=0,at=2",
    "crash-after-checkpoint": "crash-after-checkpoint:shard=0,at=1",
    "slow-shard": "slow-shard:shard=1,at=1",
    "poison-row": "poison-row:shard=0,at=3,times=2",
}

MATRIX_RETRY = RetryPolicy(max_restarts=3, checkpoint_interval=3)


def paper_engine(config=None):
    eng = StreamEngine(config=config)
    eng.register_stream("Bid", paper_bid_stream())
    return eng


def nexmark_q3_engine(nexmark_small, config=None):
    eng = StreamEngine(config=config)
    nexmark_small.register_on(eng)
    register_udfs(eng)
    return eng


def faulted_config(plan, backend):
    return ExecutionConfig(
        parallelism=3,
        backend=backend,
        retry=MATRIX_RETRY,
        fault_plan=plan,
    )


def assert_recovered_exactly(baseline, faulted):
    """The faulted run's every observable equals the fault-free run's."""
    rs, rf = baseline.run(), faulted.run()
    assert rf.changes == rs.changes
    assert rf.watermarks.as_pairs() == rs.watermarks.as_pairs()
    assert rf.last_ptime == rs.last_ptime
    assert rf.late_dropped == rs.late_dropped
    assert rf.expired_rows == rs.expired_rows
    recovery = rf.metrics.recovery
    assert recovery is not None and recovery.shard_restarts > 0


class TestFaultMatrix:
    """Every fault kind × both shard drivers, on two queries."""

    @pytest.mark.parametrize("kind", sorted(FAULT_MATRIX))
    @pytest.mark.parametrize("backend", ["sync", "processes"])
    def test_paper_tumble_emit_stream(self, kind, backend):
        sql = TUMBLED_BY_ITEM + " EMIT STREAM"
        baseline = paper_engine().query(sql)
        faulted = paper_engine(
            faulted_config(FAULT_MATRIX[kind], backend)
        ).query(sql)
        assert faulted.partition_decision().partitionable
        assert_recovered_exactly(baseline, faulted)
        assert faulted.stream() == baseline.stream()

    @pytest.mark.parametrize("kind", sorted(FAULT_MATRIX))
    @pytest.mark.parametrize("backend", ["sync", "processes"])
    def test_nexmark_q3(self, nexmark_small, kind, backend):
        baseline = nexmark_q3_engine(nexmark_small).query(
            Q3_LOCAL_ITEM_SUGGESTION
        )
        faulted = nexmark_q3_engine(
            nexmark_small, faulted_config(FAULT_MATRIX[kind], backend)
        ).query(Q3_LOCAL_ITEM_SUGGESTION)
        assert faulted.partition_decision().partitionable
        assert_recovered_exactly(baseline, faulted)

    @pytest.mark.parametrize("backend", ["sync", "processes"])
    def test_q7_fallback_ignores_fault_plan(self, nexmark_small, backend):
        """Q7 is a global aggregate: it runs serial, where shard fault
        plans have nothing to attach to — output still matches."""
        baseline = nexmark_q3_engine(nexmark_small).query(q7_highest_bid())
        faulted = nexmark_q3_engine(
            nexmark_small,
            faulted_config(FAULT_MATRIX["crash-before-batch"], backend),
        ).query(q7_highest_bid())
        assert not faulted.partition_decision().partitionable
        rs, rf = baseline.run(), faulted.run()
        assert rf.changes == rs.changes
        assert rf.metrics.recovery is None

    def test_seeded_plan_recovers(self, nexmark_small):
        plan = FaultPlan.seeded(seed=5, shards=3, events_per_shard=100, count=3)
        baseline = nexmark_q3_engine(nexmark_small).query(
            Q3_LOCAL_ITEM_SUGGESTION
        )
        faulted = nexmark_q3_engine(
            nexmark_small, faulted_config(plan, "sync")
        ).query(Q3_LOCAL_ITEM_SUGGESTION)
        rs, rf = baseline.run(), faulted.run()
        assert rf.changes == rs.changes


class TestRecoveryObservability:
    def test_recovery_trace_events_and_metrics_line(self):
        engine = paper_engine(
            ExecutionConfig(
                parallelism=3,
                backend="sync",
                retry=MATRIX_RETRY,
                fault_plan="crash-before-batch:shard=0,at=2",
            )
        )
        flow = engine.query(TUMBLED_BY_ITEM).sharded_dataflow()
        collector = TraceCollector()
        flow.trace = collector
        result = flow.run()
        restarts = result.metrics.recovery.shard_restarts
        assert restarts > 0
        assert collector.recoveries == restarts
        assert collector.summary()["recoveries"] == restarts
        recovery_events = [e for e in collector.events if e.kind == "recovery"]
        assert all(e.shard == 0 for e in recovery_events)
        assert all(e.operator == "supervisor:crash" for e in recovery_events)
        assert recovery_events[0].count == 1  # 1-based attempt number
        assert "recovery:" in result.metrics.render()
        assert "shard_restarts=1" in result.metrics.render()

    def test_watch_dashboard_shows_restarts(self):
        engine = paper_engine(
            ExecutionConfig(
                parallelism=2,
                backend="sync",
                retry=MATRIX_RETRY,
                fault_plan="crash-before-batch:shard=0,at=2",
            )
        )
        out = Shell(engine).feed(f"\\watch {TUMBLED_BY_ITEM};")
        assert "recovery" in out and "restart" in out

    def test_checkpoint_persists_recovery_stats(self):
        engine = paper_engine(
            ExecutionConfig(
                parallelism=2,
                backend="sync",
                retry=MATRIX_RETRY,
                fault_plan="crash-before-batch:shard=0,at=2",
            )
        )
        query = engine.query(TUMBLED_BY_ITEM)
        flow = query.sharded_dataflow()
        flow.run()
        assert flow.recovery.shard_restarts > 0
        recovered = query.sharded_dataflow(
            ExecutionConfig(fault_plan=FaultPlan())
        )
        recovered.restore(flow.checkpoint())
        assert recovered.recovery.shard_restarts == flow.recovery.shard_restarts


class TestRetryPolicy:
    def test_budget_exhaustion_propagates_original_failure(self):
        engine = paper_engine(
            ExecutionConfig(
                parallelism=2,
                backend="sync",
                retry=RetryPolicy(max_restarts=2),
                fault_plan="poison-row:shard=0,at=1,times=10",
            )
        )
        with pytest.raises(InjectedCrash):
            engine.query(TUMBLED_BY_ITEM).run()

    def test_zero_budget_means_no_retry(self):
        engine = paper_engine(
            ExecutionConfig(
                parallelism=2,
                backend="sync",
                retry=RetryPolicy(max_restarts=0),
                fault_plan="crash-before-batch:shard=0,at=1",
            )
        )
        with pytest.raises(InjectedCrash):
            engine.query(TUMBLED_BY_ITEM).run()

    def test_backoff_schedule(self):
        policy = RetryPolicy(
            backoff_base_ms=100, backoff_factor=2.0, backoff_cap_ms=300
        )
        assert [policy.delay_ms(n) for n in (1, 2, 3, 4)] == [
            100.0,
            200.0,
            300.0,
            300.0,
        ]

    def test_zero_base_never_sleeps(self):
        policy = RetryPolicy(backoff_base_ms=0)
        assert policy.delay_ms(1) == 0.0 and policy.delay_ms(10) == 0.0

    def test_policy_validation(self):
        with pytest.raises(ExecutionError):
            RetryPolicy(max_restarts=-1)
        with pytest.raises(ExecutionError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ExecutionError):
            RetryPolicy(checkpoint_interval=-1)


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse(
            "crash-before-batch:shard=1,at=5;poison-row:at=3,times=2"
        )
        assert plan.faults == (
            FaultSpec("crash-before-batch", shard=1, at=5),
            FaultSpec("poison-row", at=3, times=2),
        )
        assert FaultPlan.parse(plan.spec_string()) == plan

    def test_parse_rejects_garbage(self):
        with pytest.raises(ExecutionError):
            FaultPlan.parse("meteor-strike")
        with pytest.raises(ExecutionError):
            FaultPlan.parse("poison-row:when=later")
        with pytest.raises(ExecutionError):
            FaultPlan.parse("poison-row:at=soon")
        with pytest.raises(ExecutionError):
            FaultPlan.parse("  ;  ")

    def test_spec_validation(self):
        with pytest.raises(ExecutionError):
            FaultSpec("crash-before-batch", shard=-1)
        with pytest.raises(ExecutionError):
            FaultSpec("crash-before-batch", times=0)

    def test_seeded_is_deterministic_and_private(self):
        import random

        random.seed(123)
        first = FaultPlan.seeded(seed=9, shards=4, events_per_shard=50, count=3)
        state = random.getstate()
        second = FaultPlan.seeded(seed=9, shards=4, events_per_shard=50, count=3)
        assert first == second
        assert random.getstate() == state  # global RNG untouched
        assert first != FaultPlan.seeded(
            seed=10, shards=4, events_per_shard=50, count=3
        )
        assert all(spec.kind in FAULT_KINDS for spec in first.faults)

    def test_injector_heals_after_times_attempts(self):
        injector = FaultInjector(FaultPlan.parse("poison-row:at=2,times=2"))
        with pytest.raises(InjectedCrash):
            injector.before_event(shard=0, attempt=0, offset=2)
        with pytest.raises(InjectedCrash):
            injector.before_event(shard=0, attempt=1, offset=2)
        injector.before_event(shard=0, attempt=2, offset=2)  # healed
        injector.before_event(shard=1, attempt=0, offset=2)  # other shard


# ---------------------------------------------------------------------------
# dedup properties
# ---------------------------------------------------------------------------


@st.composite
def replayed_logs(draw):
    """A shard output log with deterministic replay duplicates."""
    base = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.lists(st.integers(), min_size=1, max_size=3),
            ),
            max_size=15,
            unique_by=lambda item: item[0],
        )
    )
    log = list(base)
    if base:
        for index in draw(st.lists(st.integers(0, len(base) - 1), max_size=10)):
            log.append(base[index])
    return base, log


@settings(max_examples=100, deadline=None)
@given(data=replayed_logs())
def test_dedup_by_seq_is_idempotent(data):
    base, log = data
    unique, drops = dedup_by_seq(log)
    assert {seq for seq, _ in unique} == {seq for seq, _ in base}
    assert drops == sum(len(c) for _, c in log) - sum(len(c) for _, c in unique)
    again, drops_again = dedup_by_seq(unique)
    assert again == unique
    assert drops_again == 0


def test_dedup_by_seq_rejects_divergent_replay():
    with pytest.raises(ExecutionError, match="replay diverged"):
        dedup_by_seq([(1, ["a"]), (1, ["b"])])


def test_dedup_observations_rejects_divergent_replay():
    assert dedup_observations([(1, 10, 20), (1, 10, 20)]) == [(1, 10, 20)]
    with pytest.raises(ExecutionError, match="replay diverged"):
        dedup_observations([(1, 10, 20), (1, 10, 30)])


# ---------------------------------------------------------------------------
# frontier clamping (the satellite bugfix)
# ---------------------------------------------------------------------------


class TestFrontierRestoreClamp:
    def test_restoring_a_stale_shard_clamps_and_counts(self):
        frontier = WatermarkFrontier(2)
        frontier.observe(0, 100, 50)
        frontier.observe(1, 110, 60)
        # a restarted shard comes back with its checkpoint-time watermark
        stale = WatermarkFrontier(2)
        stale.observe(0, 90, 10)
        stale.observe(1, 95, 60)
        frontier.restore(stale.snapshot())
        assert frontier.shard_value(0) == 50  # clamped, not regressed
        assert frontier.wm_regressions == 2  # shard 0, and the merged track
        # at-or-above values pass through unclamped
        ahead = WatermarkFrontier(2)
        ahead.observe(0, 120, 55)
        ahead.observe(1, 120, 60)
        frontier.restore(ahead.snapshot())
        assert frontier.shard_value(0) == 55
        assert frontier.wm_regressions == 0  # the snapshot's own count

    def test_restore_snapshot_clamps_below_live_values(self):
        frontier = WatermarkFrontier(2)
        frontier.observe(0, 100, 50)
        frontier.observe(1, 110, 60)
        stale = WatermarkFrontier(2)
        stale.observe(0, 90, 20)
        frontier.restore(stale.snapshot())
        assert frontier.shard_value(0) == 50  # not regressed to 20
        assert frontier.shard_value(1) == 60
        assert frontier.wm_regressions >= 2
        # the published minimum kept its further-along track
        assert frontier.merged.current == 50

    def test_forward_observation_still_monotonic_after_clamp(self):
        frontier = WatermarkFrontier(2)
        frontier.observe(0, 100, 50)
        stale = WatermarkFrontier(2)
        stale.observe(0, 90, 10)
        frontier.restore(stale.snapshot())
        with pytest.raises(WatermarkError):
            frontier.observe(0, 120, 40)  # regression still rejected
        frontier.observe(0, 120, 70)  # advance still fine
        assert frontier.shard_value(0) == 70
