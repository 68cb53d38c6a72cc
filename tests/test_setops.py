"""Tests for INTERSECT / EXCEPT set operations."""

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.times import t
from repro.core.tvr import TimeVaryingRelation


def values_query(rows):
    inner = ", ".join(f"({v})" for v in rows)
    return f"SELECT v.col0 FROM (VALUES {inner}) v"


def run(sql):
    return sorted(r[0] for r in StreamEngine().query(sql).table().tuples)


class TestBagSemantics:
    def test_intersect_all_is_bag_min(self):
        sql = values_query([1, 2, 2, 2]) + " INTERSECT ALL " + values_query([2, 2, 3])
        assert run(sql) == [2, 2]

    def test_intersect_distinct(self):
        sql = values_query([1, 2, 2]) + " INTERSECT " + values_query([2, 2, 3])
        assert run(sql) == [2]

    def test_except_all_is_bag_difference(self):
        sql = values_query([1, 2, 2, 2]) + " EXCEPT ALL " + values_query([2])
        assert run(sql) == [1, 2, 2]

    def test_except_distinct(self):
        sql = values_query([1, 2, 2]) + " EXCEPT " + values_query([3])
        assert run(sql) == [1, 2]

    def test_chained_left_associative(self):
        sql = (
            values_query([1, 2, 3])
            + " INTERSECT "
            + values_query([2, 3])
            + " EXCEPT "
            + values_query([3])
        )
        assert run(sql) == [2]

    def test_arity_mismatch_rejected(self):
        from repro.core.errors import PlanError, ValidationError

        with pytest.raises((PlanError, ValidationError), match="arity"):
            StreamEngine().query(
                "SELECT v.col0, v.col1 FROM (VALUES (1, 2)) v "
                "INTERSECT SELECT w.col0 FROM (VALUES (1)) w"
            )


class TestStreaming:
    def test_rows_flip_as_sides_change(self):
        schema = Schema([int_col("v"), timestamp_col("ts", event_time=True)])
        a = TimeVaryingRelation(schema)
        b = TimeVaryingRelation(schema)
        a.insert(10, (1, t("9:00")))
        b.insert(20, (1, t("9:00")))   # intersection gains the row
        b.retract(30, (1, t("9:00")))  # ...and loses it again
        engine = StreamEngine()
        engine.register_stream("A", a)
        engine.register_stream("B", b)
        out = engine.query(
            "SELECT v, ts FROM A INTERSECT SELECT v, ts FROM B EMIT STREAM"
        ).stream()
        assert [(c.undo, c.ptime) for c in out] == [(False, 20), (True, 30)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 4), max_size=12),
    st.lists(st.integers(0, 4), max_size=12),
    st.sampled_from(["INTERSECT", "EXCEPT"]),
    st.booleans(),
)
def test_matches_bag_model(left, right, op, use_all):
    if not left or not right:
        return
    sql = (
        values_query(left)
        + f" {op}{' ALL' if use_all else ''} "
        + values_query(right)
    )
    got = Counter(run(sql))
    lcount, rcount = Counter(left), Counter(right)
    expected: Counter = Counter()
    for value in set(left) | set(right):
        l, r = lcount.get(value, 0), rcount.get(value, 0)
        if use_all:  # bags: the smaller count, or what the right leaves
            n = min(l, r) if op == "INTERSECT" else max(l - r, 0)
        else:  # sets: on both sides, or on the left only
            n = int(l > 0 and (r > 0 if op == "INTERSECT" else r == 0))
        if n:
            expected[value] = n
    assert got == Counter(expected.elements())


# ---------------------------------------------------------------------------
# sqlite3 as the outside referee: at every instant, the engine's snapshot
# equals the non-temporal query over that instant's snapshot tables
# ---------------------------------------------------------------------------

PAIR = Schema([int_col("a"), int_col("b")])
SET_SQL = "SELECT a, b FROM S {op} SELECT a, b FROM R"


def sqlite_answer(sql: str, tables: dict) -> Counter:
    con = sqlite3.connect(":memory:")
    for name, rows in tables.items():
        con.execute(f"CREATE TABLE {name} (a INTEGER, b INTEGER)")
        con.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows)
    return Counter(con.execute(sql).fetchall())


def refereed(streams: dict, op: str, batch_size: int) -> None:
    """Compare the engine with sqlite at every instant of ``streams``
    (name -> ``(ptime, row, +1 | -1)`` events, in ptime order)."""
    engine = StreamEngine(config=ExecutionConfig(batch_size=batch_size))
    for name, events in streams.items():
        tvr = TimeVaryingRelation(PAIR)
        for ptime, row, sign in events:
            (tvr.insert if sign > 0 else tvr.retract)(ptime, row)
        engine.register_stream(name, tvr)
    result = engine.query(SET_SQL.format(op=op)).run()
    instants = sorted({ptime for events in streams.values() for ptime, _, _ in events})
    for at in instants:
        tables = {}
        for name, events in streams.items():
            bag = Counter()
            for ptime, row, sign in events:
                if ptime <= at:
                    bag[row] += sign
            tables[name] = list(bag.elements())
        got = Counter(result.snapshot(at).tuples)
        assert got == sqlite_answer(SET_SQL.format(op=op), tables), (op, at)


class TestSqliteReferee:
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_one_copy_on_the_right_removes_the_row(self, batch_size):
        """``S EXCEPT R`` holds a row iff ``S`` holds it and ``R`` does
        not, however many copies ``S`` holds."""
        streams = {"S": [(1, (0, 1), 1), (2, (0, 1), 1)], "R": [(3, (0, 1), 1)]}
        refereed(streams, "EXCEPT", batch_size)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("SR"),
                st.tuples(st.sampled_from([0, 1, None]), st.sampled_from([0, 1])),
                st.booleans(),
            ),
            min_size=1,
            max_size=16,
        ),
        st.sampled_from(["INTERSECT", "EXCEPT"]),
        st.sampled_from([1, 64]),
    )
    def test_matches_sqlite_at_every_instant(self, draws, op, batch_size):
        streams: dict = {"S": [], "R": []}
        live: dict = {"S": [], "R": []}
        for ptime, (side, row, retract) in enumerate(draws, 1):
            if retract and live[side]:
                streams[side].append((ptime, live[side].pop(), -1))
            else:
                live[side].append(row)
                streams[side].append((ptime, row, 1))
        refereed(streams, op, batch_size)


# ---------------------------------------------------------------------------
# state_size is a running count: it equals the sum of every row's counts
# after every delivery and across a cut + restore
# ---------------------------------------------------------------------------


class TestRunningCount:
    @staticmethod
    def setops(flow) -> list:
        from repro.exec.operators.setop import SetOpOperator

        return [op for op in flow.operators if isinstance(op, SetOpOperator)]

    @staticmethod
    def check(flow) -> None:
        for op in TestRunningCount.setops(flow):
            assert op.state_size() == sum(l + r for l, r in op._counts.values())

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("SR"),
                st.tuples(st.sampled_from([0, 1, None]), st.sampled_from([0, 1])),
                st.booleans(),
            ),
            min_size=1,
            max_size=24,
        ),
        st.sampled_from(["INTERSECT", "EXCEPT", "INTERSECT ALL", "EXCEPT ALL"]),
        st.sampled_from([1, 64]),
        st.integers(0, 24),
    )
    def test_equals_the_full_sum_after_every_delivery(self, draws, op, batch_size, cut):
        from repro.core.tvr import ins, rm

        engine = StreamEngine(config=ExecutionConfig(batch_size=batch_size))
        for name in "SR":
            engine.register_stream(name, TimeVaryingRelation(PAIR))
        query = engine.query(SET_SQL.format(op=op))
        flow = query.dataflow()
        live: dict = {"S": [], "R": []}
        for ptime, (side, row, retract) in enumerate(draws, 1):
            if retract and live[side]:
                event = rm(ptime, live[side].pop())
            else:
                live[side].append(row)
                event = ins(ptime, row)
            flow.process(event, side)
            self.check(flow)
            if ptime == cut:
                blob = flow.checkpoint()
                before = [op.state_size() for op in self.setops(flow)]
                flow = query.dataflow()
                flow.restore(blob)
                assert [op.state_size() for op in self.setops(flow)] == before
                assert flow.checkpoint() == blob  # the count is not in the cut
                self.check(flow)
