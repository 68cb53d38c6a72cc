"""Ablation: what each optimizer capability buys on NEXMark Q7.

The optimized plan evaluates Q7's join with hash keys and watermark-
driven state expiry; the unoptimized plan runs the same query as a
cross join + filter with unbounded state.  Same results, very different
state and time — quantifying the Section 5 lesson that "some operations
only work (efficiently) on watermarked event time attributes".
"""

import pytest

from repro import StreamEngine
from repro.core.times import seconds
from repro.exec.executor import Dataflow
from repro.nexmark import NexmarkConfig, generate
from repro.nexmark.queries import q7_highest_bid
from repro.plan.optimizer import optimize
from repro.plan.planner import Planner

SQL = q7_highest_bid(seconds(10))
N = 2_000


@pytest.fixture(scope="module")
def engine():
    streams = generate(NexmarkConfig(num_events=N, seed=31))
    eng = StreamEngine()
    streams.register_on(eng)
    return eng


def run(engine, optimized: bool):
    planner = Planner(engine._catalog, engine.functions)
    plan = planner.plan_sql(SQL)
    if optimized:
        plan = optimize(plan)
    dataflow = Dataflow(plan, engine._sources, engine.config)
    dataflow.run()
    return dataflow


def test_q7_optimized(benchmark, engine):
    dataflow = benchmark(lambda: run(engine, optimized=True))
    assert dataflow.result().peak_state_rows < N


def test_q7_unoptimized(benchmark, engine):
    dataflow = benchmark(lambda: run(engine, optimized=False))
    assert dataflow.result().snapshot()


def test_ablation_same_results_less_state(benchmark, engine):
    def compare():
        fast = run(engine, optimized=True)
        slow = run(engine, optimized=False)
        return fast, slow

    fast, slow = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert sorted(fast.result().snapshot().tuples) == sorted(
        slow.result().snapshot().tuples
    )
    # expiry + hash keys: the optimized join retains a fraction of the
    # unoptimized plan's state
    assert fast.result().peak_state_rows < slow.result().peak_state_rows / 2
