"""Snapshot reducibility, refereed from outside the engine.

For every processing-time instant t, the engine's changelog folded up
to t must equal the naive evaluator (``tests/oracle.py``) over the input
snapshots at t.  Streams arrive one event per instant (burst 1 — the
shape whose runs span instants) or in bursts, out of order, with rows
behind the watermark and retractions; serial flows at ``batch_size`` 1
and 64 (fused, absorbed, spanning runs), sharded flows on both
drivers, single- and two-phase, and standing queries carried through
incremental cuts, a full cut and a resume.
"""

import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.changelog import ChangeKind
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, rm, wm
from repro.exec.executor import merge_source_events
from repro.service import StandingQueryService

from .oracle import AGGREGATES, COLUMNS, OPS, Query, bag, evaluate

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])
MINUTE = 60_000


@st.composite
def streams(draw, burst_one: bool) -> dict[str, list]:
    """``S`` and ``R`` interleaved: rows (a fifth of them NULL-valued,
    some behind the watermark), retractions of live rows, and
    watermarks, each at an instant of its own.  ``burst_one`` puts every
    row at an instant of its own too; else a ``tick`` ends a burst."""
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(["row"] * 5 + ["rm", "wm", "tick"]),
            st.sampled_from(["S", "S", "R"]),
            st.integers(0, 3),  # key
            st.integers(-3, 4),  # event time, half minutes past the watermark
            st.one_of(st.none(), st.integers(-1, 5), st.integers(-1, 5)),
        ),
        min_size=4,
        max_size=40,
    ))
    events = {"S": [], "R": []}
    live = {"S": [], "R": []}
    marks = {"S": 0, "R": 0}
    ptime = 1_000_000
    for kind, source, key, offset, value in steps:
        if kind == "tick" or burst_one or kind == "wm":
            ptime += 1_000
        if kind == "wm":
            marks[source] += max(0, offset) * MINUTE // 2
            events[source].append(wm(ptime, marks[source]))
            ptime += 1_000  # (the next row is not at the watermark's instant)
        elif kind == "rm" and live[source]:
            row = live[source].pop(key % len(live[source]))
            events[source].append(rm(ptime, row))
        elif kind != "tick":
            row = (key, max(0, marks[source] + offset * MINUTE // 2), value)
            live[source].append(row)
            events[source].append(ins(ptime, row))
    return events


def where_clauses(columns):
    return st.none() | st.tuples(
        st.sampled_from(columns), st.sampled_from(sorted(OPS)), st.integers(0, 4)
    )


@st.composite
def queries(draw) -> Query:
    shape = draw(st.sampled_from(["project", "aggregate", "join"]))
    if shape == "join":
        return Query(
            join=True,
            where=draw(where_clauses(["S.v", "R.v", "R.k"])),
            select=tuple(draw(st.lists(
                st.sampled_from(["S.k", "S.ts", "S.v", "R.ts", "R.v"]),
                min_size=1, max_size=4, unique=True,
            ))),
        )
    where = draw(where_clauses(["k", "v"]))
    if shape == "project":
        return Query(where=where, select=tuple(draw(st.lists(
            st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True
        ))))
    return Query(
        where=where,
        window=draw(st.sampled_from([MINUTE, 2 * MINUTE])),
        keys=draw(st.sampled_from([("wend",), ("k", "wend")])),
        aggs=tuple(draw(st.lists(
            st.sampled_from(AGGREGATES), min_size=1, max_size=3
        ))),
    )


def folded(changes, width: int, t: int):
    """The changelog up to ``t``, folded into the bag it denotes."""
    rows: Counter = Counter()
    for change in changes:
        if change.ptime > t:
            break
        rows[change.values] += 1 if change.kind is ChangeKind.INSERT else -1
    assert all(count >= 0 for count in rows.values()), "retracted unseen row"
    return bag(width, (+rows).elements())


def prepared(sources, config: ExecutionConfig, query: Query):
    engine = StreamEngine(config=config)
    for name, events in sources.items():
        engine.register_stream(name, TimeVaryingRelation(SCHEMA, events))
    return engine.query(query.sql())


def assert_folds_to_the_naive_snapshot(changes, query: Query, sources) -> None:
    instants = sorted({e.ptime for events in sources.values() for e in events})
    for t in instants:
        assert folded(changes, query.width(), t) == evaluate(query, sources, t), (
            f"at t={t}"
        )


@pytest.mark.parametrize("batch_size", [1, 64])
@pytest.mark.parametrize("burst_one", [True, False], ids=["burst1", "bursty"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_changelog_folds_to_the_naive_snapshot(burst_one, batch_size, data):
    query = data.draw(queries(), label="query")
    sources = data.draw(streams(burst_one), label="sources")
    config = ExecutionConfig(batch_size=batch_size)
    changes = prepared(sources, config, query).run().changes
    assert_folds_to_the_naive_snapshot(changes, query, sources)


@pytest.mark.parametrize("two_phase", ["auto", "off"])
@pytest.mark.parametrize("backend", ["sync", "processes"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_sharded_changelog_folds_to_the_naive_snapshot(backend, two_phase, data):
    """The sharding harness against the same referee: two shards on
    either driver, single- or two-phase, at ``batch_size`` 64."""
    query = data.draw(queries(), label="query")
    sources = data.draw(streams(data.draw(st.booleans())), label="sources")
    config = ExecutionConfig(
        parallelism=2, backend=backend, two_phase=two_phase, batch_size=64
    )
    sharded = prepared(sources, config, query)
    # Every shape the grammar draws is keyed (by k, or by the window
    # end), so every draw runs sharded: a sharded run keeps a recovery
    # ledger, a serial fallback none.
    assert sharded.partition_decision().partitionable
    result = sharded.run()
    assert result.metrics.recovery is not None
    assert_folds_to_the_naive_snapshot(result.changes, query, sources)


@pytest.mark.parametrize("share_plans", [False, True], ids=["private", "shared"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_resumed_changelog_folds_to_the_naive_snapshot(share_plans, data):
    """Checkpoint/resume against the same referee.  A service ingests
    the stream in ``run()``'s order, takes incremental cuts at drawn
    positions, admits a twin of the query at a drawn position (a late
    joiner: with plan sharing it grafts onto the first one's flow), cuts
    once in full into a fresh directory, and a fresh service resumes
    there and ingests the rest.  Each query's changelog, read whole from
    the resumed service — the framed segments decoded on read, then the
    live tail — folds to the naive snapshot at every instant."""
    query = data.draw(queries(), label="query")
    sources = data.draw(streams(data.draw(st.booleans())), label="sources")
    merged = merge_source_events({
        name: TimeVaryingRelation(SCHEMA, events)
        for name, events in sources.items()
    })
    resume_at = data.draw(st.integers(0, len(merged)), label="resume_at")
    cuts = data.draw(
        st.sets(st.integers(0, resume_at), max_size=3), label="cuts"
    )
    twin_at = data.draw(st.integers(0, resume_at), label="twin_at")
    config = ExecutionConfig(share_plans=share_plans)
    with tempfile.TemporaryDirectory() as grown, \
            tempfile.TemporaryDirectory() as full:
        svc = StandingQueryService(config=config)
        for name in sources:
            svc.register_stream(name, TimeVaryingRelation(SCHEMA))
        ids = [svc.submit("t", query.sql()).query_id]
        for position in range(resume_at + 1):
            if position == twin_at:
                ids.append(svc.submit("t", query.sql()).query_id)
            if position in cuts:
                svc.checkpoint(grown)
            if position < resume_at:
                svc.ingest(*merged[position])
        svc.checkpoint(full)
        resumed = StandingQueryService(config=config)
        assert resumed.resume(full) == 2
    for event, source in merged[resume_at:]:
        resumed.ingest(event, source)
    for query_id in ids:
        standing = resumed.session.get(query_id)
        changes = standing.flow.output_slice_of(standing.output_id, 0)
        assert_folds_to_the_naive_snapshot(changes, query, sources)


def test_the_oracle_states_the_late_rule_naively():
    """A row is late when its window ended at or before the watermark
    announced before it arrived."""
    events = [
        ins(10, (1, 30_000, 5)),  # wend 60 000, no watermark yet
        wm(11, 60_000),
        ins(12, (1, 59_000, 7)),  # wend 60 000 <= 60 000: late
        ins(13, (1, 61_000, 2)),  # wend 120 000: on time
    ]
    query = Query(window=MINUTE, keys=("wend",), aggs=("COUNT(*)", "SUM(v)"))
    assert evaluate(query, {"S": events}, 13) == bag(
        3, [(60_000, 1, 5), (120_000, 1, 2)]
    )
    engine = StreamEngine()
    engine.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    changes = engine.query(query.sql()).run().changes
    assert folded(changes, 3, 13) == evaluate(query, {"S": events}, 13)
