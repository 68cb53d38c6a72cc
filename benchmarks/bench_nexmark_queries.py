"""NEXMark query suite throughput on the streaming engine.

One benchmark per NEXMark query, executing the full dataflow over a
5,000-event generated workload.  Q4 and Q6 run over recorded tables
(their groupings carry no event-time key; Extension 2 forbids them on
unbounded inputs), every other query runs in streaming mode.
"""

import pytest

from repro import StreamEngine
from repro.core.times import seconds
from repro.exec.executor import Dataflow
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


def run_dataflow(engine, sql):
    plan = engine.query(sql).plan
    dataflow = Dataflow(plan, engine._sources, engine.config)
    return dataflow.run()


def test_q0_passthrough(benchmark, nexmark_engine, nexmark):
    result = benchmark(lambda: run_dataflow(nexmark_engine, Q0_PASSTHROUGH))
    assert len(result.changes) == len(nexmark.bids.changelog)


def test_q1_currency_conversion(benchmark, nexmark_engine, nexmark):
    result = benchmark(lambda: run_dataflow(nexmark_engine, Q1_CURRENCY))
    assert len(result.changes) == len(nexmark.bids.changelog)


def test_q2_selection(benchmark, nexmark_engine):
    result = benchmark(lambda: run_dataflow(nexmark_engine, q2_selection(5)))
    assert all(c.values[0] % 5 == 0 for c in result.changes)


def test_q3_local_item_suggestion(benchmark, nexmark_engine):
    result = benchmark(
        lambda: run_dataflow(nexmark_engine, Q3_LOCAL_ITEM_SUGGESTION)
    )
    assert all(c.values[2] in ("OR", "ID", "CA") for c in result.changes)


def test_q5_hot_items(benchmark, nexmark_engine):
    result = benchmark(
        lambda: run_dataflow(nexmark_engine, q5_hot_items(seconds(20), seconds(10)))
    )
    assert result.snapshot()


def test_q7_highest_bid(benchmark, nexmark_engine):
    result = benchmark(
        lambda: run_dataflow(nexmark_engine, q7_highest_bid(seconds(10)))
    )
    rel = result.snapshot()
    assert len(rel) > 0
    for wstart, wend, bidtime, price, auction in rel.tuples:
        assert wstart <= bidtime < wend


def test_q8_monitor_new_users(benchmark, nexmark_engine):
    result = benchmark(
        lambda: run_dataflow(nexmark_engine, q8_monitor_new_users(seconds(30)))
    )
    assert result.snapshot() is not None


@pytest.fixture(scope="module")
def recorded_engine(nexmark):
    engine = StreamEngine()
    nexmark.register_recorded_on(engine)
    register_udfs(engine)
    return engine


def test_q4_average_price_for_category(benchmark, recorded_engine):
    result = benchmark(
        lambda: run_dataflow(recorded_engine, Q4_AVERAGE_PRICE_FOR_CATEGORY)
    )
    rel = result.snapshot()
    assert 0 < len(rel) <= 10


def test_q6_average_selling_price_by_seller(benchmark, recorded_engine):
    result = benchmark(
        lambda: run_dataflow(recorded_engine, Q6_AVERAGE_SELLING_PRICE_BY_SELLER)
    )
    assert len(result.snapshot()) > 0
