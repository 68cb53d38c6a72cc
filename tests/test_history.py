"""The prepared history replays read (``repro.exec.history``).

A replay of everything recorded — a serial or sharded ``run()``, a
standing query's catch-up, the shell's ``\\watch`` — reads the runs an
engine's :class:`~repro.exec.history.PreparedHistory` keeps instead of
merging and grouping the recorded sources again; a replay cut at some
``until`` merges and groups its prefix afresh.  What either hands out
must be exactly ``event_runs(flow, merge_source_events(sources,
until))``, the one definition of order and run grouping, whatever the
flow's run shape and however the sources changed since the last replay;
the changelogs must be those of a replay of an explicit event list.
The history lives and dies with its engine, holds no source the engine
replaced, and preparing it adds a constant number of objects for the
collector to walk.
"""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.exec import history
from repro.exec.executor import event_runs, merge_source_events
from repro.service import StandingQueryService

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])
MINUTE = 60_000

TUMBLE_SQL = (
    "SELECT k, wend, COUNT(*) AS n, SUM(v) AS s FROM Tumble(data => "
    "TABLE(S), timecol => DESCRIPTOR(ts), dur => INTERVAL '1' MINUTE) T "
    "GROUP BY k, wend"
)
#: scans S and T; R is recorded but no scan reads it
UNION_SQL = "SELECT k, v FROM S UNION ALL SELECT k, v FROM T"

#: (sql, config) per run shape: batch 1 or 64; runs spanning instants
#: or kept per instant (compaction); serial or two ``sync`` shards
SHAPES = {
    "tumble-1": (TUMBLE_SQL, dict(batch_size=1)),
    "tumble-64-span": (TUMBLE_SQL, dict(batch_size=64)),
    "tumble-64-instant": (TUMBLE_SQL, dict(batch_size=64, coalesce_updates=True)),
    "tumble-64-sharded": (TUMBLE_SQL, dict(batch_size=64, parallelism=2)),
    "tumble-1-sharded": (TUMBLE_SQL, dict(batch_size=1, parallelism=2)),
    "union-64-span": (UNION_SQL, dict(batch_size=64)),
    "union-1": (UNION_SQL, dict(batch_size=1)),
}


@st.composite
def histories(draw):
    """Three sources on one coarse clock, so instants are often shared
    across sources: rows (some behind the watermark) and watermarks."""
    sources = {}
    for name in ("S", "T", "R"):
        events, ptime, mark = [], 1_000_000, 0
        for _ in range(draw(st.integers(0, 40))):
            ptime += 1_000 * draw(st.integers(0, 2))
            if draw(st.integers(0, 5)) == 0:
                mark += MINUTE
                events.append(wm(ptime, mark))
            else:
                late = draw(st.sampled_from([0, 0, 0, -2 * MINUTE]))
                events.append(ins(ptime, (
                    draw(st.integers(0, 3)),
                    max(0, mark + late + draw(st.integers(0, 50_000))),
                    draw(st.integers(0, 9)),
                )))
        sources[name] = events
    return sources


def engine_over(sources, **config):
    config.setdefault("backend", "sync")
    engine = StreamEngine(config=ExecutionConfig(**config))
    for name, events in sources.items():
        engine.register_stream(name, TimeVaryingRelation(SCHEMA, events))
    return engine


def flow_of(engine, sql, config):
    query = engine.query(sql)
    if config.get("parallelism", 1) > 1:
        return query.sharded_dataflow()
    return query.dataflow()


def as_keys(runs):
    """Runs by the identity of their events: a prepared run is a slice of
    the very events the sources recorded."""
    return [(stop, [id(e) for e in run], source) for stop, run, source in runs]


def assert_runs_equal(flow, until=None):
    expected = event_runs(flow, merge_source_events(flow._sources, until))
    prepared = flow._history.runs(flow, flow._sources, until)
    assert as_keys(prepared) == as_keys(expected)


def assert_changelogs_equal(engine, sql, config, until=None):
    """``run(until)`` off the prepared history equals a replay of the
    explicit merged events with no history involved."""
    by_history = flow_of(engine, sql, config).run(until)
    explicit = flow_of(engine, sql, config)
    for _ in explicit.replay(merge_source_events(explicit._sources, until)):
        pass
    plain = explicit.finish(until)
    assert by_history.changes == plain.changes
    assert by_history.watermarks.as_pairs() == plain.watermarks.as_pairs()


def cuts(sources):
    """``until`` values worth trying: none, and each recorded instant
    (inside spanning runs) and the one before it."""
    instants = sorted({e.ptime for events in sources.values() for e in events})
    return [None] + [p - d for p in instants[::3] for d in (0, 1)]


@pytest.mark.parametrize("shape", SHAPES)
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sources=histories(), more=histories())
def test_prepared_runs_are_the_runs_of_a_fresh_merge(shape, sources, more):
    sql, config = SHAPES[shape]
    engine = engine_over(sources, **config)
    flow = flow_of(engine, sql, config)
    for until in cuts(sources):
        assert_runs_equal(flow, until)
    assert_changelogs_equal(engine, sql, config)
    # Appends between replays: the history is read again.
    for name, events in more.items():
        for event in later(events, engine.source(name)):
            engine.source(name).apply(event)
    assert_runs_equal(flow_of(engine, sql, config))
    assert_changelogs_equal(engine, sql, config)
    for until in cuts(sources)[:4]:
        assert_changelogs_equal(engine, sql, config, until)


def later(events, tvr):
    """``events`` moved past everything ``tvr`` recorded: ptimes and
    watermark values shifted behind its last ones."""
    shift, lift = tvr.last_ptime + 1, tvr.watermarks.current + 1
    return [
        ins(e.ptime + shift, e.change.values) if hasattr(e, "change")
        else wm(e.ptime + shift, e.value + lift)
        for e in events
    ]


def test_a_replaced_source_is_read_again():
    sources = {
        "S": [ins(1_000 * i, (i % 3, i * 1_000, i)) for i in range(1, 40)],
        "T": [], "R": [],
    }
    engine = engine_over(sources, batch_size=64)
    before = engine.query(TUMBLE_SQL).run()
    replaced = weakref.ref(engine.source("S"))
    replacement = [ins(1_000 * i, (i % 2, i * 2_000, -i)) for i in range(1, 30)]
    engine.register_stream("S", TimeVaryingRelation(SCHEMA, replacement))
    gc.collect()
    assert replaced() is None  # the history no longer holds it
    flow = flow_of(engine, TUMBLE_SQL, {})
    assert_runs_equal(flow)
    after = engine.query(TUMBLE_SQL).run()
    assert after.changes != before.changes
    assert_changelogs_equal(engine, TUMBLE_SQL, dict(batch_size=64))


@pytest.mark.parametrize("shape", ["tumble-64-span", "tumble-64-sharded", "union-1"])
def test_a_restored_still_encoded_source_replays_alike(shape):
    sql, config = SHAPES[shape]
    recorded = {
        name: [ins(1_000 * (i // 2), (i % 4, i * 3_000, i)) for i in range(1, 90)]
        + [wm(50_000, 3 * MINUTE)]
        for name in ("S", "T", "R")
    }
    original = engine_over(recorded, **config)
    engine = StreamEngine(
        config=ExecutionConfig(backend="sync", **config)
    )
    for name in ("S", "T", "R"):
        segments = original.source(name).event_segments()
        engine.register_stream(name, TimeVaryingRelation.restored(SCHEMA, segments))
    assert engine.source("S")._events.sealed  # still encoded
    assert_runs_equal(flow_of(engine, sql, config))
    assert flow_of(engine, sql, config).run().changes == (
        flow_of(original, sql, config).run().changes
    )


def test_a_cut_inside_a_spanning_run_is_grouped_afresh():
    """One run of S spans instants 1..9 (span on, nothing breaks it);
    cutting at 5 hands out the rows up to 5 as the first run, and the
    cut replay neither reads nor changes the prepared history."""
    sources = {"S": [ins(1_000 * i, (0, i, i)) for i in range(1, 10)], "T": [], "R": []}
    engine = engine_over(sources, batch_size=64)
    flow = flow_of(engine, TUMBLE_SQL, {})
    whole = list(flow._history.runs(flow, flow._sources))
    assert [len(run) for _, run, _ in whole] == [9]
    shapes = dict(flow._history._shapes)
    cut = list(flow._history.runs(flow, flow._sources, until=5_000))
    assert [(stop, len(run)) for stop, run, _ in cut] == [(5, 5)]
    assert flow._history._shapes == shapes
    assert_runs_equal(flow, until=5_000)


class TestPreparedOnce:
    """What is merged and grouped, and when."""

    def counted(self, monkeypatch):
        calls = {"merge": 0, "group": 0}
        merge, group = history.merge_events, history.event_runs

        def merge_counted(*args):
            calls["merge"] += 1
            return merge(*args)

        def group_counted(*args):
            calls["group"] += 1
            return group(*args)

        monkeypatch.setattr(history, "merge_events", merge_counted)
        monkeypatch.setattr(history, "event_runs", group_counted)
        return calls

    def test_replays_in_a_row_merge_and_group_once(self, monkeypatch):
        sources = {"S": [ins(1_000 * i, (i % 3, i * 1_000, i)) for i in range(1, 60)],
                   "T": [], "R": []}
        engine = engine_over(sources, batch_size=64)
        calls = self.counted(monkeypatch)
        first = engine.query(TUMBLE_SQL).dataflow().run()
        assert calls == {"merge": 1, "group": 1}
        for _ in range(3):
            assert engine.query(TUMBLE_SQL).dataflow().run().changes == first.changes
        assert calls == {"merge": 1, "group": 1}
        engine.source("S").insert(60_000, (1, 60_000, 60))
        engine.query(TUMBLE_SQL).dataflow().run()
        assert calls == {"merge": 2, "group": 2}

    def test_a_second_shape_groups_once_more_without_reading_again(
        self, monkeypatch
    ):
        sources = {"S": [ins(1_000 * i, (i % 3, i * 1_000, i)) for i in range(1, 60)],
                   "T": [], "R": []}
        engine = engine_over(sources, batch_size=64)
        reads = []
        real = TimeVaryingRelation.events
        monkeypatch.setattr(
            TimeVaryingRelation, "events",
            lambda self, start=0: reads.append(start) or real(self, start),
        )
        engine.query(TUMBLE_SQL).run()
        engine.query(TUMBLE_SQL).run(ExecutionConfig(batch_size=1))
        engine.query(TUMBLE_SQL).run(ExecutionConfig(coalesce_updates=True))
        assert reads == [0, 0, 0]  # one read per source, once
        assert len(engine._sources.history._shapes) == 3

    def test_ingest_leaves_the_history_alone(self):
        svc = StandingQueryService(config=ExecutionConfig(batch_size=64))
        svc.register_stream("S", TimeVaryingRelation(SCHEMA))
        svc.submit("alice", TUMBLE_SQL)
        prepared = svc.engine._sources.history

        def snapshot():
            """What the history holds, by value and by identity: an
            append to a kept list or table shows as well as a swap."""
            return (
                prepared._key, [id(ev) for ev in prepared._events],
                [len(ev) for ev in prepared._events],
                {shape: (id(table), len(table))
                 for shape, table in prepared._shapes.items()},
            )

        before = snapshot()
        assert before[3]  # the catch-up prepared a shape
        for i in range(1, 50):
            svc.ingest(ins(1_000 * i, (i % 3, i * 1_000, i)), "S")
        assert snapshot() == before


class TestLifetime:
    def test_the_history_dies_with_its_engine(self):
        sources = {"S": [ins(1_000 * i, (i % 3, i * 1_000, i)) for i in range(1, 60)],
                   "T": [], "R": []}
        engine = engine_over(sources, batch_size=64)
        query = engine.query(TUMBLE_SQL)
        query.run()
        prepared = engine._sources.history
        assert prepared._shapes
        engine_ref, history_ref = weakref.ref(engine), weakref.ref(prepared)
        del engine, query, prepared
        gc.collect()
        assert engine_ref() is None and history_ref() is None

    def test_the_history_dies_with_its_service(self):
        svc = StandingQueryService(config=ExecutionConfig(batch_size=64))
        svc.register_stream("S", TimeVaryingRelation(SCHEMA))
        for i in range(1, 50):
            svc.ingest(ins(1_000 * i, (i % 3, i * 1_000, i)), "S")
        svc.submit("alice", TUMBLE_SQL)
        assert svc.engine._sources.history._shapes
        engine_ref = weakref.ref(svc.engine)
        history_ref = weakref.ref(svc.engine._sources.history)
        del svc
        gc.collect()
        assert engine_ref() is None and history_ref() is None

    def test_no_module_level_registry(self):
        containers = {
            name for name, value in vars(history).items()
            if isinstance(value, (dict, list, set, weakref.WeakKeyDictionary,
                                  weakref.WeakValueDictionary))
        }
        assert containers <= {"__all__", "__builtins__"}

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_preparing_adds_a_constant_number_of_tracked_objects(self, batch_size):
        """The collector walks what a history keeps: a list per source
        and a few containers, however many events it holds."""

        def added(events):
            sources = {
                "S": [ins(100 * i, (i % 5, i * 100, i)) for i in range(1, events)]
                + [wm(100 * events, MINUTE)],
                "T": [ins(100 * i, (i % 5, i * 100, i)) for i in range(1, events, 7)],
                "R": [],
            }
            engine = engine_over(sources, batch_size=batch_size)
            flow = engine.query(TUMBLE_SQL).dataflow()
            gc.collect()
            before = len(gc.get_objects())
            for _ in flow._history.runs(flow, flow._sources):
                break
            gc.collect()
            return len(gc.get_objects()) - before

        added(500)  # (whatever a first call sets up once)
        small, large = added(1_000), added(10_000)
        assert small == large
        assert large <= 16
