"""The collector pause (``repro.core.collector.collector_paused``).

Nine entry points build state or history in bulk — a flow's, a
sharded flow's and a session's ``checkpoint`` and ``restore``, the two
one-shot ``run()``\\ s and a late joiner's catch-up — and each runs with
CPython's cyclic collector off (DESIGN.md, *The collector pause*):

* no collection starts inside any of them, at the state size of the
  suite's ``replay.keyed_state`` recovery drill (≈ 8 k groups);
* the collector is on again after the call returns and after it
  raises; a caller that turned it off finds it off; a resume, whose
  flow restores nest inside the session's, leaves it on;
* what a paused call leaves for the collector is bounded by the plan,
  not the data: ``gc.collect()`` finds as much after a run of 4 N
  events as after N, and after a session cut plus resume at history 4 H
  as at H — so pausing cannot grow memory with the input.
"""

import functools
import gc
import inspect
import pickle
import sys

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.collector import collector_paused
from repro.core.errors import ExecutionError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.exec.executor import Dataflow
from repro.runtime.sharded import ShardedDataflow
from repro.service import StandingQueryService
from repro.service.session import SessionManager

MINUTE = 60_000
GROUPS = 8_192  # the keyed_state drill cuts ≈ 8 k groups

L = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])
KEYED = (
    "SELECT k, wend, COUNT(*) AS n, MAX(v) AS top FROM Tumble(data => "
    "TABLE(L), timecol => DESCRIPTOR(ts), dur => INTERVAL '10' MINUTE) T "
    "GROUP BY k, wend EMIT STREAM"
)
LATE = KEYED.replace("MAX(v) AS top", "MIN(v) AS low")
SERIAL = ExecutionConfig(batch_size=64)
SHARDED = ExecutionConfig(batch_size=64, parallelism=2, backend="sync")


def keyed_events(n: int) -> list:
    """One group per row event, all in one open window, so every group
    is still live state when the flow is cut; a watermark every 64."""
    events = []
    for i in range(n):
        ptime = 1_000_000 + i * 10
        if i % 64 == 63:
            events.append(wm(ptime, 0))
        else:
            events.append(ins(ptime, (i, MINUTE + i % 1_000, i % 97)))
    return events


class World:
    """One engine per flow kind over ``n`` events, flows already run and
    cut, and a session with the same query resident and cut."""

    def __init__(self, n: int, directory) -> None:
        self.events = keyed_events(n)
        self.queries = {}
        self.ran = {}
        self.blobs = {}
        for kind, config in (("serial", SERIAL), ("sharded", SHARDED)):
            engine = StreamEngine(config=config)
            engine.register_stream("L", TimeVaryingRelation(L, self.events))
            self.queries[kind] = engine.query(KEYED)
            self.ran[kind] = self.flow(kind)
            self.ran[kind].run()
            self.blobs[kind] = self.ran[kind].checkpoint()
        self.service = self.new_service(self.events)
        self.service.submit("t", KEYED)
        self.directory = str(directory)
        self.service.checkpoint(self.directory)

    def flow(self, kind: str):
        query = self.queries[kind]
        return query.dataflow() if kind == "serial" else query.sharded_dataflow()

    @staticmethod
    def new_service(events=()) -> StandingQueryService:
        service = StandingQueryService(config=SERIAL)
        service.register_stream("L", TimeVaryingRelation(L, list(events)))
        return service


# entry point -> (owner, attribute, the call as a caller makes it)
ENTRY_POINTS = {
    "Dataflow.run": (Dataflow, "run", lambda w, tmp: w.flow("serial").run()),
    "Dataflow.checkpoint": (
        Dataflow, "checkpoint", lambda w, tmp: w.ran["serial"].checkpoint()
    ),
    "Dataflow.restore": (
        Dataflow, "restore",
        lambda w, tmp: w.flow("serial").restore(w.blobs["serial"]),
    ),
    "ShardedDataflow.run": (
        ShardedDataflow, "run", lambda w, tmp: w.flow("sharded").run()
    ),
    "ShardedDataflow.checkpoint": (
        ShardedDataflow, "checkpoint",
        lambda w, tmp: w.ran["sharded"].checkpoint(),
    ),
    "ShardedDataflow.restore": (
        ShardedDataflow, "restore",
        lambda w, tmp: w.flow("sharded").restore(w.blobs["sharded"]),
    ),
    "SessionManager.checkpoint": (
        SessionManager, "checkpoint",
        lambda w, tmp: w.service.checkpoint(str(tmp)),
    ),
    "SessionManager.restore": (
        SessionManager, "restore",
        lambda w, tmp: World.new_service().resume(w.directory),
    ),
    "SessionManager._catch_up": (
        SessionManager, "_catch_up",
        lambda w, tmp: World.new_service(w.events).submit("t", LATE),
    ),
}


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    return World(GROUPS, tmp_path_factory.mktemp("big"))


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    return World(256, tmp_path_factory.mktemp("small"))


def running(code) -> bool:
    """Whether a frame of ``code`` is on the current thread's stack."""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is code:
            return True
        frame = frame.f_back
    return False


@pytest.fixture
def spied(monkeypatch):
    """Watch one entry point: the collections that start while its body
    runs, and whether the collector was on when each call came in."""
    watched = []

    def on_gc(phase, info):
        if phase == "start":
            for body, seen in watched:
                if running(body):
                    seen["collections"].append(info["generation"])

    def spy(owner, attribute):
        original = getattr(owner, attribute)
        seen = {"collections": [], "entered_enabled": []}
        watched.append((inspect.unwrap(original).__code__, seen))

        @functools.wraps(original)
        def entered(*args, **kwargs):
            seen["entered_enabled"].append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, entered)
        return seen

    gc.callbacks.append(on_gc)
    try:
        yield spy
    finally:
        gc.callbacks.remove(on_gc)


@pytest.fixture
def collector_on():
    """Each test starts with the collector on, and leaves it on."""
    assert gc.isenabled()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "a test left the collector off"


@pytest.mark.usefixtures("collector_on")
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestPauseContract:
    def test_no_collection_starts_inside_at_keyed_state_size(
        self, entry, big, spied, tmp_path
    ):
        owner, attribute, call = ENTRY_POINTS[entry]
        seen = spied(owner, attribute)
        call(big, tmp_path)
        assert seen["entered_enabled"], f"{entry} was not reached"
        assert seen["collections"] == []

    def test_the_collector_is_on_after_a_return(
        self, entry, small, spied, tmp_path
    ):
        owner, attribute, call = ENTRY_POINTS[entry]
        seen = spied(owner, attribute)
        call(small, tmp_path)
        assert seen["entered_enabled"], f"{entry} was not reached"
        assert gc.isenabled()

    def test_a_collector_the_caller_turned_off_stays_off(
        self, entry, small, spied, tmp_path
    ):
        owner, attribute, call = ENTRY_POINTS[entry]
        seen = spied(owner, attribute)
        gc.disable()
        try:
            call(small, tmp_path)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen["entered_enabled"], f"{entry} was not reached"
        assert not any(seen["entered_enabled"])


def version_5(blob: bytes) -> bytes:
    """``blob`` as a cut of a format this build does not read (the
    ``TestOneFormat`` probe)."""
    payload = pickle.loads(blob)
    payload["version"] = 5
    return pickle.dumps(payload)


@pytest.mark.usefixtures("collector_on")
class TestPauseEnds:
    @pytest.mark.parametrize("kind", ["serial", "sharded"])
    def test_the_collector_is_on_after_a_refused_restore(self, small, kind):
        with pytest.raises(ExecutionError, match="format version 5"):
            small.flow(kind).restore(version_5(small.blobs[kind]))
        assert gc.isenabled()

    def test_the_collector_is_on_after_a_refused_resume(self, small, tmp_path):
        small.service.checkpoint(str(tmp_path))
        for blob in tmp_path.glob("*.ckpt"):
            blob.write_bytes(version_5(blob.read_bytes()))
        with pytest.raises(ExecutionError, match="format version 5"):
            World.new_service().resume(str(tmp_path))
        assert gc.isenabled()

    def test_a_resume_nests_flow_restores_and_leaves_it_on(self, small, spied):
        inner = spied(Dataflow, "restore")
        assert World.new_service().resume(small.directory) == 1
        assert inner["entered_enabled"] == [False]  # paused by the session
        assert gc.isenabled()

    def test_the_helper_turns_nothing_on_it_did_not_turn_off(self):
        @collector_paused
        def nested():
            return gc.isenabled()

        @collector_paused
        def outer():
            return nested(), gc.isenabled()

        assert outer() == (False, False)
        assert gc.isenabled()
        gc.disable()
        try:
            assert outer() == (False, False)
            assert not gc.isenabled()
        finally:
            gc.enable()


def garbage_after(action) -> int:
    """Objects ``gc.collect()`` finds unreachable after ``action``, with
    no collection in between to take any of them early."""
    gc.collect()
    gc.disable()
    try:
        kept = action()
        found = gc.collect()
    finally:
        gc.enable()
    del kept
    return found


class TestGarbageIsBoundedByThePlan:
    """Pausing the collector defers only garbage a plan makes, never
    garbage that grows with the data."""

    @pytest.mark.parametrize("kind", ["serial", "sharded"])
    def test_a_run_leaves_as_much_at_4n_as_at_n(self, kind):
        found = []
        for n in (1_024, 4_096):
            engine = StreamEngine(config=SERIAL if kind == "serial" else SHARDED)
            engine.register_stream("L", TimeVaryingRelation(L, keyed_events(n)))
            query = engine.query(KEYED)
            make = query.dataflow if kind == "serial" else query.sharded_dataflow
            found.append(garbage_after(lambda: make().run()))
        assert found[0] == found[1], found

    def test_a_cut_and_resume_leave_as_much_at_4h_as_at_h(self, tmp_path):
        found = []
        for history in (1_024, 4_096):
            service = World.new_service(keyed_events(history))
            service.submit("t", KEYED)
            service.submit("t", LATE)
            directory = str(tmp_path / str(history))

            def cut_and_resume():
                service.checkpoint(directory)
                fresh = World.new_service()
                fresh.resume(directory)
                return fresh

            found.append(garbage_after(cut_and_resume))
        assert found[0] == found[1], found
