"""Keyed state is freed through an index, refereed by a full sweep.

An aggregate finds the groups a watermark advance completes through an
index by completion bound, filled with the groups created since the
last advance (and rebuilt from the whole table at the first advance
after a restore).  The referee is the full sweep it replaced, kept
here: every advance lists the group table and drops each group whose
event-time keys are all at or below the watermark less the allowed
lateness.  A reference flow runs with the sweep patched onto its
aggregates; after every delivery both flows' aggregates must hold the
same group keys in the same order, the same retained rows and state
size, and the same late-drop count — serial at batch sizes 1 and 64,
with and without allowed lateness, over one and two event-time keys,
across a checkpoint and restore, and on two ``sync`` shards with the
two-phase split on.

A spy on the group table pins the cost: an advance that completes no
group (and follows no new group) iterates the table zero times.

The join's probe loop is refereed by the loop it replaced, kept here
as it was: NULL keys, duplicate rows, a retraction of an expired row
and a residual conjunct must produce the same changelog, expired-row
count, state size and state bytes.
"""

import pickle
import random
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.changelog import Change, ChangeKind
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, rm, wm
from repro.exec.operators.aggregate import AggregateOperator
from repro.exec.operators.join import JoinOperator, TimeBound

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])
SECOND = 1_000
WINDOW = 10 * SECOND


def windowed(group: str) -> str:
    return (
        f"SELECT {group}, COUNT(*) AS n, MAX(T.v) AS high, "
        "COUNT(DISTINCT T.v) AS d FROM Tumble(data => TABLE(S), "
        "timecol => DESCRIPTOR(ts), dur => INTERVAL '10' SECOND) T "
        f"GROUP BY {group}"
    )


#: one event-time key (wend), and two (ts and wend)
QUERIES = {"one": windowed("T.k, T.wend"), "two": windowed("T.ts, T.wend, T.k")}


def naive_sweep(op, merged, ptime):
    """The full sweep: list the table, drop every complete group."""
    if not op._et_positions or merged <= op._finalized_max:
        return []
    op._finalized_max = merged
    cutoff = merged - op._allowed_lateness
    for key in list(op._groups):
        if max(key[p] for p in op._et_positions) <= cutoff:
            op._retained -= op._groups.pop(key).row_count
    return []


def history(seed: int, events: int = 400) -> list:
    """Bursts of rows, some late; retractions, half of them followed
    by the same row again (a group emptied and created again); a
    watermark every 25 events, every other one on a window end."""
    rng = random.Random(seed)
    out, live = [], []
    ptime, mark = 1_000_000, 0
    for n in range(events):
        if n % 8 == 0:
            ptime += SECOND
        if n % 25 == 24:
            ahead = ptime - 1_000_000 - 4 * SECOND
            if n % 50 == 49:
                ahead -= ahead % WINDOW
            mark = max(mark, ahead)
            out.append(wm(ptime, mark))
            continue
        draw = rng.random()
        if live and draw < 0.15:
            row = live.pop(rng.randrange(len(live)))
            out.append(rm(ptime, row))
            if draw < 0.075:
                live.append(row)
                out.append(ins(ptime, row))
            continue
        late = 25 * SECOND if draw > 0.93 else 0
        ts = max(0, ptime - 1_000_000 - rng.randrange(4 * SECOND) - late)
        row = (rng.randrange(4), ts, rng.randrange(6))
        live.append(row)
        out.append(ins(ptime, row))
    return out


def flows_of(flow) -> list:
    if hasattr(flow, "shards"):
        return [*flow.shards, *flow.combines.values()]
    return [flow]


def aggregates(flow) -> list:
    return [
        op for part in flows_of(flow) for op in part.operators
        if isinstance(op, AggregateOperator)
    ]


def with_sweep(flow):
    for op in aggregates(flow):
        op._on_watermark_advanced = types.MethodType(naive_sweep, op)
    return flow


def held(flow) -> list:
    return [
        (list(op._groups), op._retained, op.state_size(), op.late_dropped)
        for op in aggregates(flow)
    ]


CONFIGS = {
    "serial-1": dict(batch_size=1),
    "serial-64": dict(batch_size=64),
    "late-1": dict(batch_size=1, allowed_lateness=3 * SECOND),
    "late-64": dict(batch_size=64, allowed_lateness=WINDOW),
    "sharded": dict(parallelism=2, backend="sync", two_phase="auto", batch_size=64),
}


@pytest.mark.parametrize("shape", sorted(QUERIES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), cut=st.floats(0.1, 0.9))
def test_the_index_frees_what_the_sweep_frees(shape, config, seed, cut):
    events = history(seed)
    engine = StreamEngine(config=ExecutionConfig(**CONFIGS[config]))
    engine.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    query = engine.query(QUERIES[shape])

    def flow():
        return query.sharded_dataflow() if "parallelism" in CONFIGS[config] else query.dataflow()

    merged = [(event, "S") for event in events]
    split = int(len(merged) * cut)
    indexed, swept = flow(), with_sweep(flow())
    for part in (merged[:split], merged[split:]):
        for stop, _ in zip(indexed.replay(part), swept.replay(part)):
            assert held(indexed) == held(swept), stop
        # a cut between advances: the restored flow rebuilds its index
        blob = indexed.checkpoint()
        indexed = flow()
        indexed.restore(blob)
        assert held(indexed) == held(swept)
    freed = sum(op._groups_created - len(op._groups) for op in aggregates(swept))
    assert freed > 0
    assert indexed.finish().changes == swept.finish().changes


class Spy(dict):
    """A group table that counts the entries iterated off it."""

    visited = 0

    def __iter__(self):
        for key in dict.__iter__(self):
            Spy.visited += 1
            yield key

    def __reversed__(self):
        for key in dict.__reversed__(self):
            Spy.visited += 1
            yield key

    def keys(self):
        return list(self)

    def values(self):
        return [self[key] for key in self]

    def items(self):
        return [(key, self[key]) for key in self]


def test_an_advance_that_completes_nothing_iterates_nothing():
    engine = StreamEngine()
    engine.register_stream("S", TimeVaryingRelation(SCHEMA))
    flow = engine.query(QUERIES["one"]).dataflow()
    (op,) = aggregates(flow)
    op._groups = Spy(op._groups)
    ptime = 1_000_000
    for n in range(40):
        ptime += 1
        flow.process(ins(ptime, (n % 8, (n // 8) * WINDOW + 5, n)), "S")
    assert len(op._groups) == 40
    Spy.visited = 0
    flow.process(wm(ptime, 1), "S")  # completes nothing; indexes the 40
    assert (Spy.visited, len(op._groups)) == (40, 40)
    Spy.visited = 0
    flow.process(wm(ptime + 1, WINDOW - 1), "S")  # completes nothing
    assert (Spy.visited, len(op._groups)) == (0, 40)
    flow.process(wm(ptime + 2, 2 * WINDOW), "S")  # completes two windows
    assert (Spy.visited, len(op._groups)) == (0, 24)
    flow.process(ins(ptime + 3, (0, 6 * WINDOW + 5, 0)), "S")  # one more group
    flow.process(wm(ptime + 4, 2 * WINDOW + 1), "S")  # completes nothing
    assert (Spy.visited, len(op._groups)) == (1, 25)


# -- the join's probe loop -----------------------------------------------------


def parent_on_batch(op, key_indices, port, changes):
    """The probe loop the rewrite replaced, as it was (key indices passed in)."""
    key_indices = key_indices[port]
    side, other = op._state[port], op._state[1 - port]
    out = []
    for change in changes:
        values = change.values
        key = tuple(values[i] for i in key_indices)
        bucket = side.get(key)
        if change.is_insert:
            if bucket is None:
                bucket = side[key] = Counter()
            bucket[values] += 1
            op._rows += 1
        else:
            if bucket is None or bucket[values] <= 0:
                op.expired_rows += 1
                continue
            bucket[values] -= 1
            op._rows -= 1
            if bucket[values] == 0:
                del bucket[values]
                if not bucket:
                    del side[key]
        for other_values, count in (other.get(key) or {}).items():
            combined = values + other_values if port == 0 else other_values + values
            if op._condition is None or op._condition(combined) is True:
                out.extend(Change(change.kind, combined, change.ptime) for _ in range(count))
    return out


JOIN_SCHEMA = Schema([
    int_col("k"), timestamp_col("ts", event_time=True), int_col("v"),
    int_col("rk"), timestamp_col("rts", event_time=True), int_col("rv"),
])


def sql_condition(keys: int):
    """The equi-key (NULL never equal) and a residual ``l.v < r.v``."""
    def condition(row):
        left, right = row[:3], row[3:]
        for i in range(keys):
            if left[i] is None or right[i] is None:
                return None
            if left[i] != right[i]:
                return False
        if left[2] is None or right[2] is None:
            return None
        return left[2] < right[2]
    return condition


def join_ops(keys: int, bounded: bool):
    key = tuple(range(keys))
    bound = TimeBound(1, 5 * SECOND) if bounded else None
    ops = [
        JoinOperator(JOIN_SCHEMA, 3, sql_condition(keys), key, key, bound, bound)
        for _ in range(2)
    ]
    ops[1].on_batch = types.MethodType(
        lambda op, port, changes: parent_on_batch(op, (key, key), port, changes), ops[1]
    )
    return ops


@pytest.mark.parametrize("keys", [0, 1, 2])
@pytest.mark.parametrize("bounded", [False, True])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_the_probe_loop_matches_the_parent(keys, bounded, seed):
    rng = random.Random(seed)
    rewritten, parent = join_ops(keys, bounded)
    live: list = [[], []]
    ptime = mark = 0
    for _ in range(30):
        ptime += 1
        if rng.random() < 0.2:
            mark += rng.randrange(3 * SECOND)
            for op in (rewritten, parent):
                op.on_watermark(0, mark, ptime)
                op.on_watermark(1, mark, ptime)
            continue
        port = rng.randrange(2)
        batch = []
        for _ in range(rng.randrange(1, 6)):
            if live[port] and rng.random() < 0.3:
                row = live[port].pop(rng.randrange(len(live[port])))
                batch.append(Change(ChangeKind.RETRACT, row, ptime))
            else:
                row = (
                    rng.choice([None, 0, 1]), mark + rng.randrange(4 * SECOND),
                    rng.choice([None, 0, 1, 2]),
                )
                if live[port] and rng.random() < 0.3:
                    row = rng.choice(live[port])  # a duplicate: count > 1
                live[port].append(row)
                batch.append(Change(ChangeKind.INSERT, row, ptime))
        assert rewritten.on_batch(port, batch) == parent.on_batch(port, batch)
        for read in (
            lambda op: op.expired_rows, lambda op: op.state_size(),
            lambda op: pickle.dumps(op.state_snapshot()),
        ):
            assert read(rewritten) == read(parent)


def test_probe_loop_covers_every_case():
    """One scripted run through each case the property draws."""
    rewritten, parent = join_ops(1, True)
    left = (1, 0, 1)
    script = [
        (0, [Change(ChangeKind.INSERT, left, 1)] * 2),  # duplicate rows
        (0, [Change(ChangeKind.INSERT, (None, 0, 1), 1)]),  # a NULL key
        (1, [Change(ChangeKind.INSERT, (1, 0, 2), 2),
             Change(ChangeKind.INSERT, (1, 0, 0), 2),  # fails the residual
             Change(ChangeKind.INSERT, (None, 0, 2), 2)]),
        (0, [Change(ChangeKind.RETRACT, left, 3)]),
    ]
    outputs = []
    for port, batch in script:
        out = rewritten.on_batch(port, batch)
        assert out == parent.on_batch(port, batch)
        outputs.append(out)
    assert [len(out) for out in outputs] == [0, 0, 2, 1]
    for op in (rewritten, parent):
        op.on_watermark(0, 10 * SECOND, 4)
        op.on_watermark(1, 10 * SECOND, 4)
    expired = [Change(ChangeKind.RETRACT, left, 5)]  # its insert expired
    assert rewritten.on_batch(0, expired) == parent.on_batch(0, expired) == []
    assert rewritten.expired_rows == parent.expired_rows > 0
    assert rewritten.state_size() == parent.state_size() == 0
