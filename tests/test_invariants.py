"""Cross-cutting engine invariants.

Two properties that essentially *are* the paper's thesis:

* **arrival-order independence** — with explicit event timestamps and
  sound watermarks, the final result does not depend on the order rows
  arrived in (Section 3.2's whole point);
* **optimizer transparency** — every rewrite rule preserves results,
  checked by running random queries both ways.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StreamEngine
from repro.core.schema import Schema, int_col, string_col, timestamp_col
from repro.core.times import seconds
from repro.core.tvr import TimeVaryingRelation
from repro.exec.executor import Dataflow
from repro.plan.planner import Planner
from repro.sql.functions import default_registry

SCHEMA = Schema(
    [timestamp_col("ts", event_time=True), int_col("v"), string_col("k")]
)

QUERIES = [
    # windowed aggregation
    "SELECT TB.wend, COUNT(*) c, SUM(TB.v) s FROM Tumble(data => TABLE(S), "
    "timecol => DESCRIPTOR(ts), dur => INTERVAL '10' SECONDS) TB "
    "GROUP BY TB.wend",
    # hop + max
    "SELECT HB.wend, MAX(HB.v) m FROM Hop(data => TABLE(S), "
    "timecol => DESCRIPTOR(ts), dur => INTERVAL '10' SECONDS, "
    "slide => INTERVAL '5' SECONDS) HB GROUP BY HB.wend",
    # filter + projection
    "SELECT v * 2 AS d, k FROM S WHERE v > 0",
    # self join against an aggregate
    "SELECT S.k FROM S, (SELECT TB.wend wend, MAX(TB.v) m FROM Tumble("
    "data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '10' SECONDS) TB GROUP BY TB.wend) MX "
    "WHERE S.v = MX.m AND S.ts >= MX.wend - INTERVAL '10' SECONDS "
    "AND S.ts < MX.wend",
    # left outer self join
    "SELECT a.k, b.v FROM S a LEFT JOIN S b "
    "ON a.k = b.k AND a.v = b.v + 1",
    # semi join against a windowed aggregate
    "SELECT S.v FROM S WHERE S.v IN (SELECT MAX(TB.v) FROM Tumble("
    "data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '10' SECONDS) TB GROUP BY TB.wend)",
]


def stream_from_arrivals(rows):
    """rows: event-timestamped tuples, delivered in list order with a
    sound trailing watermark."""
    tvr = TimeVaryingRelation(SCHEMA)
    ptime = 0
    max_seen = 0
    for ts, v, k in rows:
        ptime += 10
        max_seen = max(max_seen, ts)
        tvr.insert(ptime, (ts, v, k))
        tvr.advance_watermark(ptime, max_seen - seconds(30))
    # close the input completely so every window finalizes
    from repro.core.times import MAX_TIMESTAMP

    tvr.advance_watermark(ptime + 1, MAX_TIMESTAMP)
    return tvr


def run_query(sql, rows):
    engine = StreamEngine()
    engine.register_stream("S", stream_from_arrivals(rows))
    return Counter(engine.query(sql).table().tuples)


@pytest.mark.parametrize("sql", QUERIES)
def test_arrival_order_independence(sql):
    """Shuffling arrival order (within the watermark slack) never
    changes the final table."""
    rng = random.Random(99)
    base = [
        (seconds(i), rng.randrange(-50, 50), rng.choice("abc"))
        for i in range(60)
    ]
    reference = run_query(sql, base)
    for trial in range(3):
        # bounded disorder: every row lands within 25 positions (= 25s,
        # inside the 30s watermark slack) of its event-time position
        order = sorted(
            range(len(base)), key=lambda i: i + rng.uniform(0, 25)
        )
        shuffled = [base[i] for i in order]
        assert run_query(sql, shuffled) == reference


@pytest.mark.parametrize("sql", QUERIES)
def test_optimizer_preserves_results(sql):
    rng = random.Random(7)
    rows = [
        (seconds(i), rng.randrange(-50, 50), rng.choice("abc"))
        for i in range(40)
    ]
    engine = StreamEngine()
    engine.register_stream("S", stream_from_arrivals(rows))
    optimized = Counter(engine.query(sql).table().tuples)
    planner = Planner(engine._catalog, default_registry())
    raw_plan = planner.plan_sql(sql)  # no optimize()
    raw = Counter(
        Dataflow(raw_plan, engine._sources, engine.config)
        .run()
        .snapshot()
        .tuples
    )
    assert raw == optimized


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(-9, 9)),
        min_size=1,
        max_size=25,
    )
)
def test_emit_modes_agree_on_final_state(pairs):
    """All materialization modes converge to the same final table once
    the input is complete (Extensions 5-7 change *when*, never *what*)."""
    rows = [(seconds(ts), v, "x") for ts, v in pairs]
    sql = QUERIES[0]
    engine = StreamEngine()
    engine.register_stream("S", stream_from_arrivals(rows))
    base = Counter(engine.query(sql).table().tuples)
    for emit in (
        " EMIT AFTER WATERMARK",
        " EMIT AFTER DELAY INTERVAL '3' SECONDS",
        " EMIT AFTER DELAY INTERVAL '3' SECONDS AND AFTER WATERMARK",
    ):
        assert Counter(engine.query(sql + emit).table().tuples) == base
