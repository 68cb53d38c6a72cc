"""An inner hash join evaluates only what its keys do not decide.

The compiler hands :class:`JoinOperator` the residual of the join
condition — every conjunct but the ``$l = $r`` equalities that became
hash keys — or no condition at all.  A bucket holds equal keys, so a
probe's matches already satisfy those equalities, with two exceptions
the operator guards itself: a key part that is NULL or NaN, where SQL
``=`` is never TRUE although the bucket lookup may still find it (NULL
equals NULL as a dict key; one NaN object equals itself).

The referee is an operator built from the same plan that still runs the
full condition: fed the same changes (NULL and NaN keys drawn, the
shared NaN object and fresh ones), both must emit the same changelog
and hold the same state.
"""

import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StreamEngine
from repro.core.changelog import Change, ChangeKind
from repro.core.schema import Schema, float_col, int_col
from repro.core.tvr import TimeVaryingRelation
from repro.exec.compile import build_operator
from repro.exec.operators.join import JoinOperator
from repro.plan.logical import JoinNode
from repro.plan.optimizer import join_residual
from repro.plan.rex import compile_rex

SIDE = Schema([float_col("k"), int_col("j"), int_col("v")])

CONDITIONS = {
    "key only": "L.k = R.k",
    "key and residual": "L.k = R.k AND L.v < R.v",
    "two keys and residual": "R.j = L.j AND L.k = R.k AND L.v < R.v",
    "residual first": "L.v <> R.v AND L.k = R.k",
}


def engine() -> StreamEngine:
    eng = StreamEngine()
    eng.register_stream("L", TimeVaryingRelation(SIDE))
    eng.register_stream("R", TimeVaryingRelation(SIDE))
    return eng


def join_node(condition: str) -> JoinNode:
    plan = engine().query(f"SELECT * FROM L JOIN R ON {condition}").plan
    node = plan.root
    while not isinstance(node, JoinNode):
        (node,) = node.inputs
    return node


def operators(condition: str) -> tuple[JoinOperator, JoinOperator]:
    """(as compiled, a referee running the full condition)."""
    node = join_node(condition)
    compiled = build_operator(node, [], 0)
    referee = JoinOperator(
        node.schema,
        len(node.left.schema),
        compile_rex(node.condition),
        node.hash_left,
        node.hash_right,
    )
    return compiled, referee


def test_the_residual_drops_exactly_the_key_equalities():
    assert join_residual(join_node(CONDITIONS["key only"])) is None
    assert str(join_residual(join_node(CONDITIONS["key and residual"]))) == "<($2, $5)"
    assert str(join_residual(join_node(CONDITIONS["two keys and residual"]))) == "<($2, $5)"
    assert str(join_residual(join_node(CONDITIONS["residual first"]))) == "<>($2, $5)"
    # without hash keys (no analysis ran), the condition is kept whole
    node = join_node(CONDITIONS["key and residual"])
    unanalyzed = JoinNode(node.left, node.right, node.kind, node.condition)
    assert join_residual(unanalyzed) is node.condition


SHARED_NAN = math.nan


def key_value(rng: random.Random):
    choice = rng.randrange(6)
    if choice == 0:
        return None
    if choice == 1:
        return SHARED_NAN
    if choice == 2:
        return float("nan")  # a fresh NaN object
    return [0.0, 1.0, 1][choice - 3]


@pytest.mark.parametrize("condition", sorted(CONDITIONS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_the_residual_join_matches_the_full_condition(condition, seed):
    rng = random.Random(seed)
    compiled, referee = operators(CONDITIONS[condition])
    live: list = [[], []]
    for ptime in range(1, 40):
        port = rng.randrange(2)
        batch = []
        for _ in range(rng.randrange(1, 5)):
            if live[port] and rng.random() < 0.3:
                row = live[port].pop(rng.randrange(len(live[port])))
                batch.append(Change(ChangeKind.RETRACT, row, ptime))
            else:
                row = (key_value(rng), rng.choice([None, 0, 1]),
                       rng.choice([None, 0, 1, 2]))
                if live[port] and rng.random() < 0.3:
                    row = rng.choice(live[port])  # a duplicate: count > 1
                live[port].append(row)
                batch.append(Change(ChangeKind.INSERT, row, ptime))
        assert compiled.on_batch(port, batch) == referee.on_batch(port, batch)
        assert compiled.state_size() == referee.state_size()
        assert compiled.expired_rows == referee.expired_rows
        assert pickle.dumps(compiled.state_snapshot()) == pickle.dumps(
            referee.state_snapshot()
        )


def test_null_and_nan_keys_never_match():
    compiled, _ = operators(CONDITIONS["key only"])
    for key in (None, SHARED_NAN):
        row = (key, 0, 0)
        compiled.on_batch(0, [Change(ChangeKind.INSERT, row, 1)])
        assert compiled.on_batch(1, [Change(ChangeKind.INSERT, row, 2)]) == []
    one = (1.0, 0, 0)
    compiled.on_batch(0, [Change(ChangeKind.INSERT, one, 3)])
    assert compiled.on_batch(1, [Change(ChangeKind.INSERT, one, 4)]) == [
        Change(ChangeKind.INSERT, one + one, 4)
    ]


def test_an_equi_join_evaluates_no_comparison_per_match():
    """``cmp_eval`` (the compiled ``=``) runs zero times on a key-only
    join, once per match when the full condition was kept."""
    left, right = TimeVaryingRelation(SIDE), TimeVaryingRelation(SIDE)
    eng = StreamEngine()
    eng.register_stream("L", left)
    eng.register_stream("R", right)
    for n in range(200):
        left.insert(n, (float(n % 10), n, n))
        right.insert(n, (float(n % 10), n, n))
    query = eng.query("SELECT L.v, R.v FROM L JOIN R ON L.k = R.k")
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "cmp_eval":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        changes = query.run().changes
    finally:
        sys.setprofile(None)
    assert len(changes) == 4000
    assert calls[0] == 0
