"""The checkpoint plane: codec, ownership, the one format read,
incremental cuts, histories encoded at rest.

Five layers are under test (``docs/RUNTIME.md``, ``docs/SERVICE.md``):

* **the changelog codec** (``repro.core.codec``) round-trips every
  value shape a row can hold, and the supervisor's tagged slices cross
  a pickle boundary unchanged;
* **snapshot by serialization**: operators hand out references and
  take ownership, so the properties that the deleted ``deepcopy`` calls
  used to buy — a checkpoint is isolated from the flow that cut it, two
  restores of one blob are isolated from each other — now rest on the
  pickle alone, for every stateful operator;
* **one format**: a flow blob of any format but ``CHECKPOINT_VERSION``
  is refused with one message — by ``restore``, by ``build_flow`` from
  its structure and by a service resume, which then leaves the service
  as it was — and so is a manifest of any other layout;
* **incremental session checkpoints**: a directory grown by many
  appending cuts resumes exactly like one full cut, a failed cut leaves
  the previous one intact, and a torn tail is ignored;
* **encoded at rest**: the :class:`~repro.core.codec.SegmentedLog`
  behaves like the plain list it replaces, a cut encodes each change
  once, a resume builds no ``Change``, and reading a restored history
  gives back exactly what was written.
"""

import builtins
import json
import math
import os
import pickle
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.changelog import Change, ChangeKind
from repro.core import codec
from repro.core.codec import (
    Segment,
    SegmentedLog,
    changes_log,
    concat_segments,
    decode_changes,
    decode_events,
    decode_slices,
    encode_changes,
    encode_events,
    encode_slices,
    events_log,
)
from repro.core.errors import ExecutionError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, rm, wm
from repro.exec.executor import CHECKPOINT_VERSION, merge_source_events
from repro.exec.operators.aggregate import AggregateOperator
from repro.exec.operators.join import JoinOperator
from repro.exec.operators.outer_join import OuterJoinOperator
from repro.runtime.build import build_flow
from repro.runtime.merge import dedup_by_seq
from repro.runtime.supervisor import SupervisedOutcome
from repro.service import StandingQueryService, TenantPolicy
from repro.service import session as session_module
from repro.obs.export import parse_exposition

MINUTE = 60_000

L = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])
R = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("w")])


# ---------------------------------------------------------------------------
# (a) the codec
# ---------------------------------------------------------------------------

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: negative and far past 64 bits
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
changes = st.lists(
    st.builds(
        Change,
        st.sampled_from(list(ChangeKind)),
        st.lists(values, max_size=4).map(tuple),
        st.integers(min_value=-(2**70), max_value=2**70),
    ),
    max_size=12,
)


def same_value(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


def same_changes(xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        x.kind is y.kind
        and x.ptime == y.ptime
        and len(x.values) == len(y.values)
        and all(same_value(a, b) for a, b in zip(x.values, y.values))
        for x, y in zip(xs, ys)
    )


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(changes)
    def test_round_trip_through_pickle(self, xs):
        decoded = decode_changes(pickle.loads(pickle.dumps(encode_changes(xs))))
        # kind members keep their identity, values their exact type
        assert same_changes(decoded, xs)

    def test_empty_and_single(self):
        assert decode_changes(encode_changes([])) == []
        one = [Change(ChangeKind.RETRACT, (1, "x", None), 7)]
        assert decode_changes(encode_changes(one)) == one

    def test_kinds_are_one_byte_each(self):
        xs = [
            Change(ChangeKind.INSERT, (1,), 1),
            Change(ChangeKind.RETRACT, (1,), 2),
            Change(ChangeKind.INSERT, (2,), 2),
        ]
        kinds, rows, ptimes = encode_changes(xs)
        assert kinds == b"\x00\x01\x00"
        assert rows == [(1,), (1,), (2,)] and ptimes == [1, 2, 2]

    def test_plain_list_decodes_as_itself(self):
        """What keeps a pre-codec blob readable."""
        xs = [Change(ChangeKind.INSERT, (1,), 1)]
        assert decode_changes(xs) is xs

    def test_source_events_round_trip(self):
        events = [
            wm(5, 0),
            ins(10, (1, 2, None)),
            rm(10, (1, 2, None)),
            wm(11, 2**62),
        ]
        assert decode_events(pickle.loads(pickle.dumps(encode_events(events)))) == events
        assert decode_events(encode_events([])) == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), changes), max_size=6))
    def test_tagged_slices_round_trip(self, slices):
        decoded = decode_slices(pickle.loads(pickle.dumps(encode_slices(slices))))
        assert [seq for seq, _ in decoded] == [seq for seq, _ in slices]
        assert all(
            same_changes(got, want)
            for (_, got), (_, want) in zip(decoded, slices)
        )


class TestForkPipe:
    def test_outcome_decodes_to_the_same_tags(self):
        """(f) what ``dedup_by_seq`` sees is unchanged by the pipe —
        duplicate sequence numbers from replayed input included."""
        a = [Change(ChangeKind.INSERT, (1, "a"), 10)]
        b = [Change(ChangeKind.RETRACT, (1, "a"), 11),
             Change(ChangeKind.INSERT, (1, "b"), 11)]
        outcome = SupervisedOutcome(
            slices=[(3, a), (7, b), (7, list(b)), (9, [])],
            observations=[(4, 10, 5)],
            state=b"blob",
        )
        received = pickle.loads(pickle.dumps(outcome))
        assert received.slices == outcome.slices
        assert received.observations == outcome.observations
        assert received.state == b"blob"
        assert dedup_by_seq(received.slices) == dedup_by_seq(outcome.slices)


# ---------------------------------------------------------------------------
# (b) ownership: every operator that lost a deepcopy
# ---------------------------------------------------------------------------

TUMBLE_L = (
    "Tumble(data => TABLE(L), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) T"
)

OPERATOR_SQL = {
    "aggregate": (
        f"SELECT k, wend, SUM(v) AS s, COUNT(DISTINCT v) AS d FROM {TUMBLE_L} "
        "GROUP BY k, wend EMIT STREAM"
    ),
    "join": "SELECT A.k, A.v, B.w FROM L A JOIN R B ON A.k = B.k",
    "left_join": "SELECT A.k, A.v, B.w FROM L A LEFT JOIN R B ON A.k = B.k",
    "full_join": "SELECT A.k, A.v, B.w FROM L A FULL JOIN R B ON A.k = B.k",
    "semi_join": "SELECT v FROM L WHERE k IN (SELECT k FROM R WHERE w > 20)",
    "session": (
        "SELECT S.k, S.wstart, S.wend, COUNT(*) AS n "
        "FROM Session(data => TABLE(L), timecol => DESCRIPTOR(ts), "
        "gap => INTERVAL '1' MINUTES, keycol => DESCRIPTOR(k)) S "
        "GROUP BY S.wend, S.k"
    ),
    "over": (
        "SELECT k, ts, w, SUM(w) OVER (PARTITION BY k ORDER BY ts) AS total "
        "FROM R"
    ),
    "match_recognize": (
        "SELECT * FROM R MATCH_RECOGNIZE (PARTITION BY k ORDER BY ts "
        "MEASURES FIRST(LO.w) AS lo, LAST(HI.w) AS hi "
        "PATTERN ( LO HI+ ) DEFINE LO AS w < 40, HI AS w >= 40)"
    ),
    "temporal_join": (
        "SELECT A.k, A.v, B.w FROM L A "
        "JOIN R FOR SYSTEM_TIME AS OF A.ts B ON A.k = B.k"
    ),
    "temporal_filter": (
        "SELECT v FROM L WHERE ts > CURRENT_TIME - INTERVAL '3' MINUTES"
    ),
    "except": "SELECT k FROM L EXCEPT SELECT k FROM R",
    "intersect": "SELECT k FROM L INTERSECT SELECT k FROM R",
}

#: the stateful operator each query must actually exercise
OPERATOR_TYPE = {
    "aggregate": "AggregateOperator",
    "join": "JoinOperator",
    "left_join": "OuterJoinOperator",
    "full_join": "OuterJoinOperator",
    "semi_join": "SemiJoinOperator",
    "session": "SessionOperator",
    "over": "OverOperator",
    "match_recognize": "MatchRecognizeOperator",
    "temporal_join": "TemporalJoinOperator",
    "temporal_filter": "TemporalFilterOperator",
    "except": "SetOpOperator",
    "intersect": "SetOpOperator",
}


def two_streams(n=120):
    """L carries inserts, retractions and watermarks; R is append-only."""
    left, right, live = [], [], []
    ptime = 1_000_000
    for i in range(n):
        ptime += 7_000
        ts = (i // 4) * MINUTE + (i * 13) % MINUTE
        if i % 10 == 9:
            left.append(wm(ptime, max(0, ts - 2 * MINUTE)))
            right.append(wm(ptime, max(0, ts - 2 * MINUTE)))
        elif i % 3 == 0:
            right.append(ins(ptime, (i % 5, ts, i)))
        elif i % 11 == 7 and live:
            left.append(rm(ptime, live.pop(0)))
        else:
            row = (i % 5, ts, i % 17)
            live.append(row)
            left.append(ins(ptime, row))
    return TimeVaryingRelation(L, left), TimeVaryingRelation(R, right)


def two_stream_query(name):
    left, right = two_streams()
    engine = StreamEngine()
    engine.register_stream("L", left)
    engine.register_stream("R", right)
    events = merge_source_events({"l": left, "r": right})
    return engine.query(OPERATOR_SQL[name]), events


def fed(query, *runs):
    flow = query.dataflow()
    for run in runs:
        for event, source in run:
            flow.process(event, source)
    return flow


def outcome(flow):
    result = flow.finish()
    return result.changes, result.watermarks.as_pairs()


@pytest.mark.parametrize("name", sorted(OPERATOR_SQL))
class TestOwnership:
    def test_two_restores_of_one_blob_are_independent(self, name):
        query, events = two_stream_query(name)
        cut = len(events) * 3 // 5
        prefix, suffix = events[:cut], events[cut:]
        thinned = suffix[::2]
        source = fed(query, prefix)
        assert OPERATOR_TYPE[name] in {
            type(op).__name__ for op in source.operators
        }
        blob = source.checkpoint()
        first, second = query.dataflow(), query.dataflow()
        first.restore(blob)
        second.restore(blob)
        # interleave the two, so shared state would show on either
        for i, (event, src) in enumerate(suffix):
            first.process(event, src)
            if i % 2 == 0:
                second.process(event, src)
        assert outcome(first) == outcome(fed(query, prefix, suffix))
        assert outcome(second) == outcome(fed(query, prefix, thinned))

    def test_a_checkpoint_is_isolated_from_the_flow_that_cut_it(self, name):
        query, events = two_stream_query(name)
        cut = len(events) * 3 // 5
        prefix, suffix = events[:cut], events[cut:]
        flow = fed(query, prefix)
        blob = flow.checkpoint()
        for event, src in suffix:  # the cut flow moves on ...
            flow.process(event, src)
        rewound = query.dataflow()
        rewound.restore(blob)  # ... the earlier blob did not
        never_saw_more = fed(query, prefix)
        assert rewound.total_state_rows() == never_saw_more.total_state_rows()
        assert outcome(rewound) == outcome(never_saw_more)
        # and cutting a checkpoint did not disturb the flow either
        assert outcome(flow) == outcome(fed(query, prefix, suffix))


# ---------------------------------------------------------------------------
# the O(1) state_size
# ---------------------------------------------------------------------------

def held_rows(state: tuple[dict, dict]) -> int:
    """Row occurrences in a two-sided ``key -> Counter(row)`` state."""
    return sum(
        sum(bucket.values()) for side in state for bucket in side.values()
    )


def recomputed_state_size(op) -> int:
    if isinstance(op, AggregateOperator):
        return sum(state.row_count for state in op._groups.values())
    if isinstance(op, (JoinOperator, OuterJoinOperator)):
        return held_rows(op._state)
    return op.state_size()


steps = st.lists(
    st.tuples(
        st.sampled_from(["ins", "ins", "ins", "rm", "wm", "late", "ckpt"]),
        st.integers(0, 3),
        st.integers(0, 5),
        st.integers(0, 9),
    ),
    min_size=1,
    max_size=40,
)

TOTAL_SQL = {
    "aggregate": OPERATOR_SQL["aggregate"],
    "windowed_join": (
        "SELECT A.k, A.v, B.w FROM L A JOIN R B ON A.k = B.k "
        "AND B.ts >= A.ts - INTERVAL '2' MINUTES "
        "AND B.ts <= A.ts + INTERVAL '2' MINUTES"
    ),
    "left_join": OPERATOR_SQL["left_join"],
}


def history(draw_steps):
    """Inserts, retractions of live rows, watermarks, rows later than
    the watermark, and checkpoint marks, on both streams."""
    events, live = [], {"L": [], "R": []}
    ptime, wm_value = 1_000_000, 0
    for i, (kind, k, dt, v) in enumerate(draw_steps):
        ptime += 5_000
        source = "L" if i % 2 else "R"
        if kind == "ckpt":
            events.append(None)
        elif kind == "wm":
            wm_value += dt * MINUTE // 2
            events.append((wm(ptime, wm_value), "L"))
            events.append((wm(ptime, wm_value), "R"))
        elif kind == "rm" and live[source]:
            events.append((rm(ptime, live[source].pop(0)), source))
        else:
            ts = wm_value + (dt - 6 if kind == "late" else dt) * MINUTE // 2
            row = (k, max(0, ts), v)
            live[source].append(row)
            events.append((ins(ptime, row), source))
    return events


class TestRunningStateSize:
    @pytest.mark.parametrize("name", sorted(TOTAL_SQL))
    @settings(max_examples=40, deadline=None)
    @given(steps)
    def test_running_total_equals_the_recomputed_sum(self, name, draw_steps):
        engine = StreamEngine()
        engine.register_stream("L", TimeVaryingRelation(L))
        engine.register_stream("R", TimeVaryingRelation(R))
        query = engine.query(TOTAL_SQL[name])
        flow = query.dataflow()
        for item in history(draw_steps):
            if item is None:
                blob = flow.checkpoint()
                flow = query.dataflow()
                flow.restore(blob)
            else:
                try:
                    flow.process(*item)
                except Exception:
                    # e.g. retracting a row the watermark dropped as
                    # late: the flow is dead either way
                    return
            for op in flow.operators:
                assert op.state_size() == recomputed_state_size(op)

    @settings(max_examples=25, deadline=None)
    @given(steps)
    def test_partial_and_combine_totals(self, draw_steps):
        """The two-phase subclasses: shard-local DISTINCT state and the
        combine stage's groups, across a sharded checkpoint."""
        engine = StreamEngine(
            config=ExecutionConfig(parallelism=2, backend="sync", two_phase="auto")
        )
        engine.register_stream("L", TimeVaryingRelation(L))
        query = engine.query(
            f"SELECT k, wend, COUNT(DISTINCT v) AS d, SUM(v) AS s "
            f"FROM {TUMBLE_L} GROUP BY k, wend"
        )
        flow = query.sharded_dataflow()

        def operators():
            for shard in flow._shards:
                yield from shard.operators
            yield from flow.combines["main"].operators

        assert any(
            type(op).__name__ == "CombineAggregateOperator" for op in operators()
        )
        for item in history(draw_steps):
            if item is None:
                blob = flow.checkpoint()
                flow = query.sharded_dataflow()
                flow.restore(blob)
            elif item[1] == "L":
                try:
                    flow.process(*item)
                except Exception:
                    return
            for op in operators():
                assert op.state_size() == recomputed_state_size(op)


# ---------------------------------------------------------------------------
# (c) one format is read: every other one is refused, by one message
# ---------------------------------------------------------------------------

KEYED_SUM = (
    "SELECT k, wend, SUM(v) AS total FROM Tumble(data => TABLE(L), "
    "timecol => DESCRIPTOR(ts), dur => INTERVAL '2' MINUTE) T "
    "GROUP BY k, wend EMIT STREAM"
)
KEYED_MAX = KEYED_SUM.replace("SUM(v) AS total", "MAX(v) AS top")
KEYED_COUNT = KEYED_SUM.replace("SUM(v) AS total", "COUNT(*) AS n")
FILTERED = (
    "SELECT k, wend, COUNT(*) AS n FROM Tumble(data => TABLE(L), "
    "timecol => DESCRIPTOR(ts), dur => INTERVAL '1' MINUTE) T "
    "WHERE v > 4 GROUP BY k, wend EMIT STREAM"
)


def keyed_events(n, start=0):
    """Insert-only keyed history with a watermark every 8 events."""
    events = []
    for i in range(start, start + n):
        ptime = 1_000_000 + i * 3_000
        if i % 8 == 7:
            events.append(wm(ptime, max(0, (i // 8 - 1) * MINUTE)))
        else:
            events.append(ins(ptime, (i % 4, (i // 8) * MINUTE + i % 50, i % 13)))
    return events


#: a flow blob's ``version`` in each refused cell (``None``: the field
#: is absent, as format 1 wrote it)
REFUSED_VERSIONS = [None, 2, 3, 5]
REFUSED_FLOWS = {
    "serial": {},
    "sharded": dict(parallelism=2, backend="sync", two_phase="off"),
    "two_phase": dict(parallelism=2, backend="sync", two_phase="auto"),
}


def stamped(payload: dict, version) -> dict:
    """``payload`` as a cut of format ``version`` would say it was."""
    if version is None:
        del payload["version"]
    else:
        payload["version"] = version
    return payload


def refusal(version) -> str:
    """The one message every refused flow blob raises."""
    found = 1 if version is None else version
    return (
        f"^checkpoint format version {found} is not the one this build "
        rf"reads \({CHECKPOINT_VERSION}\): resume it with release 2\.0\.0 "
        "and cut it again$"
    )


class TestOneFormat:
    @pytest.mark.parametrize("version", REFUSED_VERSIONS)
    @pytest.mark.parametrize("flow", sorted(REFUSED_FLOWS))
    @pytest.mark.parametrize("entry", ["restore", "build_flow"])
    def test_a_blob_of_another_format_is_refused(self, entry, flow, version):
        events = keyed_events(96)
        engine = StreamEngine(config=ExecutionConfig(**REFUSED_FLOWS[flow]))
        engine.register_stream("L", TimeVaryingRelation(L, events))
        query = engine.query(KEYED_SUM)
        sharded = bool(REFUSED_FLOWS[flow])
        make = query.sharded_dataflow if sharded else query.dataflow
        cut = make()
        if sharded:
            assert cut.is_two_phase() == (flow == "two_phase")
        for event in events[:48]:
            cut.process(event, "L")
        payload = stamped(pickle.loads(cut.checkpoint()), version)
        with pytest.raises(ExecutionError, match=refusal(version)):
            if entry == "restore":
                make().restore(pickle.dumps(payload))
            else:
                build_flow(
                    [("main", query.plan)],
                    engine._sources,
                    query._effective(),
                    query.partition_decision() if sharded else None,
                    structure=payload,
                )

    @pytest.mark.parametrize("version", REFUSED_VERSIONS)
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_refused_resume_leaves_the_service_as_it_was(
        self, tmp_path, parallelism, version
    ):
        """Every flow blob is read and checked before a source is
        registered or a counter set."""
        svc = new_service(parallelism=parallelism)
        svc.submit("t", KEYED_SUM)
        for event in keyed_events(40):
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        (entry,) = manifest_of(tmp_path)["flows"]
        blob = tmp_path / entry["state"]
        blob.write_bytes(pickle.dumps(stamped(pickle.loads(blob.read_bytes()), version)))
        fresh = StandingQueryService(
            config=ExecutionConfig(parallelism=parallelism)
        )
        before = session_state(fresh)
        with pytest.raises(ExecutionError, match=refusal(version)):
            fresh.resume(str(tmp_path))
        assert session_state(fresh) == before

    @pytest.mark.parametrize(
        "drop, found", [("version", "version 1"), ("flows", 'version 2 without "flows"')]
    )
    def test_a_manifest_of_another_layout_is_refused_by_name(
        self, tmp_path, drop, found
    ):
        """A versionless manifest (the whole-history layout) and one
        without ``flows`` (from before plan sharing)."""
        svc = new_service()
        svc.submit("t", KEYED_SUM)
        svc.checkpoint(str(tmp_path))
        manifest = manifest_of(tmp_path)
        del manifest[drop]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        fresh = StandingQueryService()
        before = session_state(fresh)
        with pytest.raises(
            ExecutionError,
            match=f"^checkpoint manifest {found} is not the layout this "
            r'build reads \(version 2 with "flows"\): resume it with '
            r"release 2\.0\.0 and cut it again$",
        ):
            fresh.resume(str(tmp_path))
        assert session_state(fresh) == before


def session_state(svc) -> tuple:
    """What a resume sets up: sources, counters, queries."""
    session = svc.session
    return (
        dict(svc.engine._sources),
        session.events_ingested,
        dict(session.source_offsets),
        svc.list_queries(),
    )


# ---------------------------------------------------------------------------
# (d) incremental == full, (e) torn tails, atomic cuts
# ---------------------------------------------------------------------------

def publishes_the_same(a, b, events, source) -> bool:
    """Both services publish identical deltas for identical input."""
    return all(a.ingest(event, source) == b.ingest(event, source) for event in events)


def new_service(share_plans=True, policies=None, **config):
    svc = StandingQueryService(
        config=ExecutionConfig(share_plans=share_plans, **config),
        policies=policies,
    )
    svc.register_stream("L", TimeVaryingRelation(L))
    return svc


def resumed_from(directory, share_plans=True, policies=None, **config):
    svc = StandingQueryService(
        config=ExecutionConfig(share_plans=share_plans, **config),
        policies=policies,
    )
    svc.resume(str(directory))
    return svc


def manifest_of(directory) -> dict:
    with open(os.path.join(directory, "manifest.json")) as fh:
        return json.load(fh)


def frame_items(directory, spec) -> list[int]:
    """The items in each frame of one committed log."""
    return [
        len(segment.kinds)
        for segment in session_module._read_log(str(directory), spec)
    ]


def files_of(directory) -> set[str]:
    return {
        os.path.relpath(os.path.join(root, name), directory)
        for root, _, names in os.walk(directory)
        for name in names
    }


LATE_SQL = [KEYED_MAX, FILTERED, KEYED_COUNT, KEYED_SUM]

session_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.integers(1, 24)),
        st.tuples(st.just("checkpoint"), st.just(0)),
        st.tuples(st.just("submit"), st.integers(0, len(LATE_SQL) - 1)),
        st.tuples(st.just("withdraw"), st.integers(0, 5)),
    ),
    min_size=1,
    max_size=14,
)
#: room for the first query plus a ``submit`` in every drawable op
ROOMY = {"t": TenantPolicy(name="t", max_standing_queries=1 + 14)}


class TestIncrementalEqualsFull:
    @pytest.mark.parametrize("share_plans", [True, False])
    @settings(max_examples=20, deadline=None)
    @given(ops=session_ops)
    def test_any_history_of_cuts_resumes_like_one_full_cut(
        self, tmp_path_factory, share_plans, ops
    ):
        grown = tmp_path_factory.mktemp("grown")
        full = tmp_path_factory.mktemp("full")
        events = keyed_events(14 * 24 + 256)
        svc = new_service(share_plans, ROOMY)
        svc.submit("t", KEYED_SUM)  # late joiners graft onto this one
        position = 0
        for op, arg in ops:
            if op == "ingest":
                for event in events[position:position + arg]:
                    svc.ingest(event, "L")
                position += arg
            elif op == "checkpoint":
                svc.checkpoint(str(grown))
            elif op == "submit":
                svc.submit("t", LATE_SQL[arg])
            else:
                live = svc.session.queries()
                if len(live) > 1:
                    svc.withdraw(live[arg % len(live)].query_id)
        svc.checkpoint(str(grown))  # the last of many appending cuts
        svc.checkpoint(str(full))  # one cut of a fresh directory
        a = resumed_from(grown, share_plans, ROOMY)
        b = resumed_from(full, share_plans, ROOMY)
        assert [q.query_id for q in a.session.queries()] == [
            q.query_id for q in svc.session.queries()
        ]
        for query in svc.session.queries():
            for other in (a, b):
                theirs = other.session.get(query.query_id)
                assert theirs.flow.output_slice_of(query.query_id, 0) == (
                    query.flow.output_slice_of(query.query_id, 0)
                )
                assert theirs.cursor == query.cursor
        tail = events[position:position + 256]
        for event in tail:
            published = svc.ingest(event, "L")
            assert a.ingest(event, "L") == published
            assert b.ingest(event, "L") == published

    def test_sharded_flows_append_like_serial_ones_and_resume(self, tmp_path):
        events = keyed_events(120)
        svc = new_service(parallelism=2)
        query = svc.submit("t", KEYED_SUM)
        assert query.sharded
        for event in events[:40]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        for event in events[40:80]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        (spec,) = manifest_of(tmp_path)["queries"]
        assert spec["log"]["segments"] == 2  # appended to, like a serial query's
        resumed = resumed_from(tmp_path, parallelism=2)
        assert publishes_the_same(svc, resumed, events[80:], "L")

    def test_the_resumed_service_keeps_appending(self, tmp_path):
        events = keyed_events(120)
        svc = new_service()
        svc.submit("t", KEYED_SUM)
        for event in events[:40]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        resumed = resumed_from(tmp_path)
        for event in events[40:80]:
            svc.ingest(event, "L")
            resumed.ingest(event, "L")
        before = files_of(tmp_path)
        resumed.checkpoint(str(tmp_path))
        logs = {f for f in before if f.startswith("logs")}
        assert logs <= files_of(tmp_path)  # appended to, not rewritten
        assert manifest_of(tmp_path)["queries"][0]["log"]["segments"] == 2
        again = resumed_from(tmp_path)
        assert publishes_the_same(svc, again, events[80:], "L")


class TestWhenAFullCutIsWritten:
    def setup_service(self, events, upto=40):
        svc = new_service()
        svc.submit("t", KEYED_SUM)
        for event in events[:upto]:
            svc.ingest(event, "L")
        return svc

    def test_cut_cost_tracks_events_since_the_last_cut(self, tmp_path):
        events = keyed_events(2000)
        svc = self.setup_service(events, 1500)
        svc.checkpoint(str(tmp_path))
        first = svc.session.checkpoint_bytes_total
        for event in events[1500:1510]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        second = svc.session.checkpoint_bytes_total - first
        assert second < first / 5
        manifest = manifest_of(tmp_path)
        assert manifest["version"] == 2 and manifest["generation"] == 2
        assert manifest["sources"]["l"]["log"]["segments"] == 2
        assert manifest["sources"]["l"]["log"]["items"] == 1510

    def test_nothing_new_appends_nothing(self, tmp_path):
        svc = self.setup_service(keyed_events(40))
        svc.checkpoint(str(tmp_path))
        logs = {f: os.path.getsize(tmp_path / f) for f in files_of(tmp_path)
                if f.startswith("logs")}
        svc.checkpoint(str(tmp_path))
        assert logs == {f: os.path.getsize(tmp_path / f) for f in logs}
        assert manifest_of(tmp_path)["sources"]["l"]["log"]["segments"] == 1

    @pytest.mark.parametrize("damage", ["rmtree", "manifest_gone", "foreign"])
    def test_a_directory_that_moved_on_gets_a_full_cut(self, tmp_path, damage):
        events = keyed_events(120)
        svc = self.setup_service(events)
        directory = tmp_path / "d"
        svc.checkpoint(str(directory))
        if damage == "rmtree":
            shutil.rmtree(directory)
        elif damage == "manifest_gone":
            os.remove(directory / "manifest.json")
        else:  # another session committed there in between
            other = self.setup_service(events, 16)
            other.checkpoint(str(directory))
            other.checkpoint(str(directory))
        for event in events[40:80]:
            svc.ingest(event, "L")
        svc.checkpoint(str(directory))
        manifest = manifest_of(directory)
        # rewritten from 0: the frame the first cut made, then the rest
        assert frame_items(directory, manifest["sources"]["l"]["log"]) == [40, 40]
        assert manifest["sources"]["l"]["log"]["segments"] == 2
        assert manifest["sources"]["l"]["log"]["items"] == 80
        assert files_of(directory) == {"manifest.json"} | {
            entry["state"] for entry in manifest["flows"]
        } | {manifest["sources"]["l"]["log"]["file"]} | {
            q["log"]["file"] for q in manifest["queries"]
        }
        assert publishes_the_same(
            svc, resumed_from(directory), events[80:], "L"
        )

    def test_another_directory_gets_a_full_cut(self, tmp_path):
        events = keyed_events(120)
        svc = self.setup_service(events)
        svc.checkpoint(str(tmp_path / "a"))
        for event in events[40:80]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path / "b"))
        spec = manifest_of(tmp_path / "b")["sources"]["l"]["log"]
        assert spec == {
            "file": "logs/src-l.1.log",
            "length": os.path.getsize(tmp_path / "b" / "logs" / "src-l.1.log"),
            "segments": 2,
            "items": 80,
        }
        assert frame_items(tmp_path / "b", spec) == [40, 40]
        assert publishes_the_same(
            svc, resumed_from(tmp_path / "b"), events[80:], "L"
        )

    def test_a_cut_is_never_handed_an_empty_frame(self, tmp_path):
        """A full cut of a resumed session writes the source's restored
        frame and nothing after it; a source with no events is a log of
        no frames."""
        events = keyed_events(160)
        svc = self.setup_service(events, 100)
        svc.checkpoint(str(tmp_path / "a"))
        resumed = resumed_from(tmp_path / "a")
        resumed.checkpoint(str(tmp_path / "b"))
        spec = manifest_of(tmp_path / "b")["sources"]["l"]["log"]
        assert frame_items(tmp_path / "b", spec) == [100]
        assert spec["segments"] == 1 and spec["items"] == 100
        assert publishes_the_same(
            svc, resumed_from(tmp_path / "b"), events[100:], "L"
        )
        empty = self.setup_service(events, 0)
        empty.checkpoint(str(tmp_path / "c"))
        spec = manifest_of(tmp_path / "c")["sources"]["l"]["log"]
        assert (spec["length"], spec["segments"], spec["items"]) == (0, 0, 0)
        assert publishes_the_same(
            empty, resumed_from(tmp_path / "c"), events[:40], "L"
        )

    def test_new_and_withdrawn_queries(self, tmp_path):
        events = keyed_events(160)
        svc = self.setup_service(events)
        first = svc.session.queries()[0].query_id
        svc.checkpoint(str(tmp_path))
        late = svc.submit("t", KEYED_MAX).query_id  # grafts on, catches up
        caught_up = svc.session.get(late).flow.output_size_of(late)
        for event in events[40:80]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        by_id = {q["query_id"]: q["log"] for q in manifest_of(tmp_path)["queries"]}
        assert by_id[first]["segments"] == 2
        # the whole catch-up history is the newcomer's first segment (the
        # catch-up sealed it), what it published since is its second
        size = svc.session.get(late).flow.output_size_of(late)
        assert frame_items(tmp_path, by_id[late]) == [caught_up, size - caught_up]
        assert by_id[late]["items"] == size
        svc.withdraw(first)
        svc.checkpoint(str(tmp_path))
        assert [q["query_id"] for q in manifest_of(tmp_path)["queries"]] == [late]
        assert not any(f"out-{first}." in f for f in files_of(tmp_path))
        assert publishes_the_same(
            svc, resumed_from(tmp_path), events[80:], "L"
        )

    def test_a_reused_query_id_starts_a_fresh_log(self, tmp_path):
        events = keyed_events(120)
        svc = new_service()
        svc.submit("t", KEYED_SUM, query_id="mine")
        for event in events[:40]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        svc.withdraw("mine")
        caught_up = svc.submit("t", KEYED_MAX, query_id="mine").cursor
        for event in events[40:80]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        (spec,) = manifest_of(tmp_path)["queries"]
        # the new query's catch-up history, then what it published since
        size = svc.session.get("mine").flow.output_size_of("mine")
        assert frame_items(tmp_path, spec["log"]) == [caught_up, size - caught_up]
        assert spec["log"]["file"] == "logs/out-mine.2.log"
        assert publishes_the_same(
            svc, resumed_from(tmp_path), events[80:], "L"
        )

    def test_a_long_log_is_compacted_inline(self, tmp_path, monkeypatch):
        monkeypatch.setattr(session_module, "_MAX_SEGMENTS", 3)
        events = keyed_events(200)
        svc = new_service()
        svc.submit("t", KEYED_SUM)
        seen = []
        for round_ in range(6):
            for event in events[round_ * 20:(round_ + 1) * 20]:
                svc.ingest(event, "L")
            svc.checkpoint(str(tmp_path))
            seen.append(manifest_of(tmp_path)["sources"]["l"]["log"]["segments"])
        assert seen == [1, 2, 3, 1, 2, 3]
        assert manifest_of(tmp_path)["sources"]["l"]["log"]["file"] == (
            "logs/src-l.4.log"
        )
        assert len([f for f in files_of(tmp_path) if "src-l" in f]) == 1
        assert publishes_the_same(
            svc, resumed_from(tmp_path), events[120:], "L"
        )


class TestTornTail:
    def test_bytes_past_the_committed_length_are_ignored(self, tmp_path):
        events = keyed_events(160)
        svc = new_service()
        svc.submit("t", KEYED_SUM)
        for event in events[:40]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        for name in files_of(tmp_path):
            if name.startswith("logs"):
                with open(tmp_path / name, "ab") as fh:
                    fh.write(b"RSEG\x00\x00\x00\x00\x00\x00\x10\x00half a segm")
        resumed = resumed_from(tmp_path)
        for event in events[40:80]:
            assert svc.ingest(event, "L") == resumed.ingest(event, "L")
        # the next appending cut overwrites the tail it cannot see
        svc.checkpoint(str(tmp_path))
        assert publishes_the_same(
            svc, resumed_from(tmp_path), events[80:], "L"
        )

    def test_a_log_shorter_than_committed_is_an_error(self, tmp_path):
        from repro.core.errors import ExecutionError

        svc = new_service()
        svc.submit("t", KEYED_SUM)
        for event in keyed_events(40):
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        log = tmp_path / manifest_of(tmp_path)["sources"]["l"]["log"]["file"]
        log.write_bytes(log.read_bytes()[:-5])
        with pytest.raises(ExecutionError, match="committed"):
            resumed_from(tmp_path)


class _FailingWrites:
    """Make the n-th durable step of a cut raise: every ``os.replace``
    and every ``write`` on a file opened under the directory counts."""

    def __init__(self, monkeypatch, directory, fail_at):
        self.steps = 0
        self.fail_at = fail_at
        real_replace, real_open = os.replace, builtins.open
        root = str(directory)

        def step():
            self.steps += 1
            if self.steps == self.fail_at:
                raise OSError("injected crash")

        def replace(src, dst):
            step()
            return real_replace(src, dst)

        def open_(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if isinstance(file, str) and file.startswith(root) and (
                "w" in mode or "+" in mode
            ):
                real_write = fh.write

                class Proxy:
                    def __getattr__(self, name):
                        return getattr(fh, name)

                    def __enter__(self):
                        fh.__enter__()
                        return self

                    def __exit__(self, *exc):
                        return fh.__exit__(*exc)

                    def write(self, data):
                        step()
                        return real_write(data)

                return Proxy()
            return fh

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(builtins, "open", open_)


class TestAtomicCut:
    def test_a_cut_that_fails_at_any_step_leaves_the_previous_one(
        self, tmp_path, monkeypatch
    ):
        events = keyed_events(200)
        directory = tmp_path / "d"

        def service_at_cut_one():
            svc = new_service()
            svc.submit("t", KEYED_SUM)
            svc.submit("t", FILTERED)
            for event in events[:60]:
                svc.ingest(event, "L")
            svc.checkpoint(str(directory))
            for event in events[60:100]:
                svc.ingest(event, "L")
            svc.submit("t", KEYED_MAX)  # a full first segment, too
            return svc

        # what an uninterrupted service publishes after cut 1
        reference = new_service()
        reference.submit("t", KEYED_SUM)
        reference.submit("t", FILTERED)
        expected = [reference.ingest(event, "L") for event in events[:200]][60:]

        # how many durable steps does the second cut take?
        svc = service_at_cut_one()
        with monkeypatch.context() as patch:
            counter = _FailingWrites(patch, directory, fail_at=0)
            svc.checkpoint(str(directory))
        total = counter.steps
        assert total >= 8  # 2 state blobs, appends, a new log, the manifest

        for fail_at in range(1, total + 1):
            shutil.rmtree(directory)
            svc = service_at_cut_one()
            cut_one = manifest_of(directory)
            with monkeypatch.context() as patch:
                _FailingWrites(patch, directory, fail_at)
                with pytest.raises(OSError, match="injected"):
                    svc.checkpoint(str(directory))
            assert manifest_of(directory) == cut_one
            resumed = resumed_from(directory)
            assert len(resumed.session.queries()) == 2
            assert resumed.session.events_ingested == 60
            got = [resumed.ingest(event, "L") for event in events[60:200]]
            assert got == expected, f"diverged after a crash at step {fail_at}"
            # and the survivor's next cut repairs the directory
            svc.checkpoint(str(directory))
            assert len(resumed_from(directory).session.queries()) == 3


class TestDecodeOnce:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_each_flow_blob_is_unpickled_once_on_resume(
        self, tmp_path, monkeypatch, parallelism
    ):
        svc = new_service(share_plans=False, parallelism=parallelism)
        svc.submit("t", KEYED_SUM)
        svc.submit("t", FILTERED)
        for event in keyed_events(60):
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        blobs = {path.read_bytes() for path in tmp_path.glob("*.ckpt")}
        assert len(blobs) == 2
        real_loads, seen = pickle.loads, []

        def counting_loads(data, *args, **kwargs):
            if isinstance(data, bytes) and data in blobs:
                seen.append(data)
            return real_loads(data, *args, **kwargs)

        monkeypatch.setattr(pickle, "loads", counting_loads)
        resumed = StandingQueryService(
            config=ExecutionConfig(share_plans=False, parallelism=parallelism)
        )
        assert resumed.resume(str(tmp_path)) == 2
        assert len(seen) == len(blobs) == len(set(seen))


class TestCheckpointMetrics:
    def test_families_and_values(self, tmp_path):
        svc = new_service()
        svc.submit("t", KEYED_SUM)
        for event in keyed_events(40):
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        text = svc.scrape()
        written = sum(
            os.path.getsize(tmp_path / name) for name in files_of(tmp_path)
        )
        assert f"repro_service_checkpoint_bytes_total {written}" in text
        assert "# TYPE repro_service_checkpoint_seconds gauge" in text
        assert svc.session.last_checkpoint_seconds > 0
        families = parse_exposition(text)
        assert families["repro_service_checkpoint_seconds"]["samples"][0][2] > 0


# ---------------------------------------------------------------------------
# (e) histories encoded at rest
# ---------------------------------------------------------------------------

log_ops = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.integers(0, 5)),
        st.tuples(st.just("seal"), st.just(0)),
        st.tuples(st.just("slice"), st.integers(0, 40)),
        st.tuples(st.just("segments"), st.integers(0, 40)),
        st.tuples(st.just("unseal"), st.just(0)),
    ),
    max_size=30,
)


def numbered(start, count):
    return [
        Change(ChangeKind.RETRACT if i % 3 == 0 else ChangeKind.INSERT, (i,), i)
        for i in range(start, start + count)
    ]


class TestSegmentedLog:
    @settings(max_examples=200, deadline=None)
    @given(
        adopted=st.lists(st.integers(0, 4), max_size=3),
        as_one_triple=st.booleans(),
        ops=log_ops,
    )
    def test_behaves_like_the_plain_list_it_replaces(
        self, adopted, as_one_triple, ops
    ):
        """Any interleaving of extend / seal / slice / segments / unseal,
        over a log that starts out adopting segments (empty ones
        included): lengths, every slice — also from inside a sealed
        segment — and the segments from every boundary agree with a
        plain list, and a non-boundary is refused."""
        model: list[Change] = []
        segments = []
        boundaries = {0}
        for count in adopted:
            segments.append(encode_changes(numbered(len(model), count)))
            model += numbered(len(model), count)
            boundaries.add(len(model))
        if as_one_triple:
            segments = concat_segments(segments) if segments else None
            boundaries = {0, len(model)}
        log = changes_log(segments)
        for op, arg in ops:
            if op == "extend":
                log.tail.extend(numbered(len(model), arg))
                model += numbered(len(model), arg)
            elif op == "seal":
                log.seal()
                assert log.tail == []
                boundaries.add(len(model))
            elif op == "slice":
                start = min(arg, len(model))
                got = log.slice(start)
                assert got == model[start:]
                got.append(None)  # the caller's own list
                assert log.slice(start) == model[start:]
            elif op == "segments":
                start = min(arg, len(model))
                if start in boundaries or start == len(model):
                    parts = log.segments(start)
                    boundaries.add(len(model))
                    assert all(kinds for kinds, _, _ in parts)
                    assert decode_changes(concat_segments(parts) if parts else
                                          encode_changes([])) == model[start:]
                else:
                    with pytest.raises(ExecutionError, match="boundary"):
                        log.segments(start)
                    boundaries.add(len(model))  # it sealed before refusing
            else:
                log.unseal()
                assert log.base == 0 and log.sealed == [] and log.tail == model
                boundaries = {0}
            assert len(log) == log.base + len(log.tail) == len(model)
            assert log.base == sum(len(kinds) for kinds, _, _ in log.sealed)
        assert log.slice(0) == model

    def test_a_plain_list_history_becomes_the_tail(self):
        """What a pre-codec blob's ``list[Change]`` (and a test's
        ``histories=``) is adopted as: the very list, nothing sealed."""
        history = numbered(0, 3)
        log = changes_log(history)
        assert log.tail is history and log.base == 0 and log.sealed == []
        assert len(changes_log()) == 0 and changes_log([]).slice(0) == []

    def test_a_segment_is_pickled_once_in_its_life(self, monkeypatch):
        """A sealed segment frames on first use and keeps the bytes, not
        the vectors; one read back from a frame has its length for free
        and goes out as it came.  Either way a read below the tail costs
        one ``pickle.loads`` per read, and ``pickle.dumps`` runs once."""
        loads, dumps = [], []
        real_loads, real_dumps = pickle.loads, pickle.dumps
        monkeypatch.setattr(
            pickle, "loads", lambda data: loads.append(1) or real_loads(data)
        )
        monkeypatch.setattr(
            pickle, "dumps",
            lambda obj, *a: dumps.append(1) or real_dumps(obj, *a),
        )
        log = changes_log()
        log.tail.extend(numbered(0, 5))
        (sealed,) = log.segments(0)
        triple = encode_changes(numbered(0, 5))
        assert type(sealed) is Segment and tuple(sealed) == triple
        body = sealed.frame()
        assert sealed.frame() is body and len(dumps) == 1
        assert body == real_dumps(triple, pickle.HIGHEST_PROTOCOL)
        assert sealed.kinds == triple[0] and sealed._triple is None
        framed = Segment(body=body)
        log = changes_log([framed, Segment(body=real_dumps(encode_changes([])))])
        log.tail.extend(numbered(5, 2))
        assert framed[0] == triple[0] and len(log) == 7 and log.bounds == [0, 5]
        assert log.slice(5) == numbered(5, 2)
        assert framed.frame() is body and not loads
        assert log.slice(3) == numbered(3, 4)
        assert log.slice(0) == numbered(0, 7)
        assert tuple(framed) == triple and concat_segments([framed]) == triple
        assert type(concat_segments([framed])) is tuple
        assert framed.frame() is body and len(loads) == 5 and len(dumps) == 1
        # a pickle this codec did not write still works, without the shortcut
        foreign = Segment(body=real_dumps(triple, 2))
        assert foreign[0] == triple[0] and tuple(foreign) == triple

    def test_event_logs_use_the_event_codec(self):
        events = [wm(5, 0), ins(10, (1, 2, None)), rm(10, (1, 2, None)), wm(11, 9)]
        log = events_log([encode_events(events[:3])])
        log.tail.append(events[3])
        assert len(log) == 4 and log.slice(1) == events[1:]
        assert list(codec.segment_watermarks(log.segments(0)[0])) == [(5, 0)]
        assert list(codec.segment_watermarks(log.segments(3)[0])) == [(11, 9)]
        assert isinstance(log, SegmentedLog)


def window_queries(count):
    """``count`` distinct keyed-window queries (window length varies)."""
    return [
        (KEYED_SUM if i % 2 else KEYED_MAX).replace(
            "INTERVAL '2' MINUTE", f"INTERVAL '{1 + i // 2}' MINUTE"
        )
        for i in range(count)
    ]


class CodecSpy:
    """Counts, from installation on, the ``decode_changes`` /
    ``encode_changes`` calls of logs created afterwards and every
    ``Change`` the codec builds (for outputs and source events alike)."""

    def __init__(self, monkeypatch):
        self.decode_calls = 0
        self.encoded_items = 0
        self.changes_built = 0
        real_decode, real_encode = codec.decode_changes, codec.encode_changes

        def decode(encoded):
            self.decode_calls += 1
            return real_decode(encoded)

        def encode(changes):
            self.encoded_items += len(changes)
            return real_encode(changes)

        def build(kind, values, ptime):
            self.changes_built += 1
            return Change(kind, values, ptime)

        monkeypatch.setattr(codec, "decode_changes", decode)
        monkeypatch.setattr(codec, "encode_changes", encode)
        monkeypatch.setattr(codec, "Change", build)


class TestEncodedAtRest:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_resuming_sixteen_queries_builds_no_change(
        self, tmp_path, monkeypatch, parallelism
    ):
        events = keyed_events(400)
        svc = new_service(parallelism=parallelism)
        for i, sql in enumerate(window_queries(16)):
            svc.submit(f"t{i % 4}", sql)
        for event in events[:320]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path))
        sizes = {
            q.query_id: q.flow.output_size_of(q.query_id)
            for q in svc.session.queries()
        }
        assert len(sizes) == 16 and min(sizes.values()) > 0
        history = svc.session.get("q1").flow.output_slice_of("q1", 0)
        frames = {
            segment.body: spec["query_id"]
            for spec in manifest_of(tmp_path)["queries"]
            for segment in session_module._read_log(tmp_path, spec["log"])
        }
        unpickled = []
        real_loads = pickle.loads
        monkeypatch.setattr(
            pickle, "loads",
            lambda data: unpickled.append(frames.get(data)) or real_loads(data),
        )
        spy = CodecSpy(monkeypatch)
        resumed = resumed_from(tmp_path, parallelism=parallelism)
        assert len(resumed.session.queries()) == 16
        # Output logs are not even unpickled: adopted as the frames they are.
        assert len(frames) == 16 and not any(unpickled)
        # (the parent: 16 decode calls, one Change per historical change
        # plus one per recorded source row)
        assert spy.decode_calls == 0 and spy.changes_built == 0
        assert {
            q.query_id: q.history_items() for q in resumed.session.queries()
        } == {qid: {"sealed": n, "live": 0} for qid, n in sizes.items()}
        assert resumed.session.last_resume_seconds > 0
        # Live traffic reads only the tail: still nothing decoded.
        assert publishes_the_same(svc, resumed, events[320:360], "L")
        assert spy.decode_calls == 0 and spy.changes_built == 0
        # Reading one history decodes that one, and it is all there.
        one = resumed.session.get("q1")
        assert one.flow.output_slice_of("q1", 0)[:sizes["q1"]] == history
        assert spy.decode_calls == 1 and spy.changes_built == sizes["q1"]
        assert [qid for qid in unpickled if qid] == ["q1"]

    @pytest.mark.parametrize("sharded", [False, True])
    def test_a_change_is_encoded_once_however_many_cuts_follow(
        self, monkeypatch, sharded
    ):
        spy = CodecSpy(monkeypatch)
        engine = StreamEngine(
            config=ExecutionConfig(parallelism=2 if sharded else 1, backend="sync")
        )
        events = keyed_events(160)
        engine.register_stream("L", TimeVaryingRelation(L, events))
        query = engine.query(KEYED_SUM)
        flow = query.sharded_dataflow() if sharded else query.dataflow()
        blobs = []
        for part in (events[:60], events[60:120], events[120:]):
            for event in part:
                flow.process(event, "L")
            blobs.append(flow.checkpoint())
        blobs.append(flow.checkpoint())  # nothing new: nothing to encode
        changelog = flow.result().changes
        assert spy.encoded_items == len(changelog) > 0
        # Every blob still carries its whole history as ONE triple.
        key = "merged" if sharded else "changes"
        for blob in blobs:
            (stored,) = pickle.loads(blob)["outputs"].values()
            kinds, rows, ptimes = stored[key]
            assert type(kinds) is bytes and len(kinds) == stored["size"]
            assert decode_changes(stored[key]) == changelog[:stored["size"]]
        assert pickle.loads(blobs[-1])["version"] == CHECKPOINT_VERSION == 4

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_late_joiner_after_resume_sees_what_one_before_the_cut_sees(
        self, tmp_path, parallelism
    ):
        """The late joiner replays the restored (still encoded) source:
        the first replay unseals it once, and the joiner's deltas equal
        those of the same query admitted to the live service before the
        cut — and of one admitted to the service that never stopped."""
        events = keyed_events(360)
        svc = new_service(parallelism=parallelism)
        svc.submit("t", KEYED_SUM)
        for event in events[:200]:
            svc.ingest(event, "L")
        early = svc.submit("t", KEYED_MAX, query_id="joiner")
        svc.checkpoint(str(tmp_path))
        svc.withdraw("joiner")
        resumed = resumed_from(tmp_path, parallelism=parallelism)
        resumed.withdraw("joiner")
        source = resumed.engine.source("L")
        assert source.event_count == 200 and source.last_ptime == events[199].ptime
        assert source.watermarks.as_pairs() == (
            svc.engine.source("L").watermarks.as_pairs()
        )
        late_there = svc.submit("t", KEYED_MAX, query_id="joiner")
        late_here = resumed.submit("t", KEYED_MAX, query_id="joiner")
        assert late_here.cursor == late_there.cursor == early.cursor
        assert source.events() == events[:200]
        assert publishes_the_same(svc, resumed, events[200:], "L")
        eng = StreamEngine()
        eng.register_stream("L", TimeVaryingRelation(L, events))
        assert late_here.flow.output_slice_of("joiner", 0) == (
            eng.query(KEYED_MAX).run().changes
        )

    def test_a_resumed_directory_is_extended_and_cut_again_in_place(
        self, tmp_path, monkeypatch
    ):
        """Resume, ingest, cut into the same directory: the cut appends
        one segment per log that grew and decodes nothing; full cuts
        elsewhere frame the adopted segments as they are."""
        events = keyed_events(240)
        svc = new_service()
        svc.submit("t", KEYED_SUM)
        svc.submit("t", FILTERED)
        for event in events[:80]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path / "d"))
        for event in events[80:120]:
            svc.ingest(event, "L")
        svc.checkpoint(str(tmp_path / "d"))
        spy = CodecSpy(monkeypatch)
        decoded_events = []
        real = codec.decode_events
        monkeypatch.setattr(
            codec, "decode_events",
            lambda encoded: decoded_events.append(1) or real(encoded),
        )
        resumed = resumed_from(tmp_path / "d")
        for event in events[120:160]:
            assert resumed.ingest(event, "L") == svc.ingest(event, "L")
        before = {f: os.path.getsize(tmp_path / "d" / f)
                  for f in files_of(tmp_path / "d") if f.startswith("logs")}
        resumed.checkpoint(str(tmp_path / "d"))
        manifest = manifest_of(tmp_path / "d")
        assert manifest["generation"] == 3
        assert manifest["sources"]["l"]["log"]["segments"] == 3
        assert manifest["sources"]["l"]["log"]["items"] == 160
        for spec in manifest["queries"]:
            assert spec["log"]["segments"] == 3
            assert os.path.getsize(tmp_path / "d" / spec["log"]["file"]) > (
                before[spec["log"]["file"]]
            )
        resumed.checkpoint(str(tmp_path / "elsewhere"))  # a full cut
        elsewhere = manifest_of(tmp_path / "elsewhere")
        assert [q["log"]["segments"] for q in elsewhere["queries"]] == [3, 3]
        assert elsewhere["sources"]["l"]["log"]["items"] == 160
        assert spy.decode_calls == spy.changes_built == 0 and not decoded_events
        for directory in ("d", "elsewhere"):
            again = resumed_from(tmp_path / directory)
            for query in svc.session.queries():
                theirs = again.session.get(query.query_id)
                assert theirs.flow.output_slice_of(query.query_id, 0) == (
                    query.flow.output_slice_of(query.query_id, 0)
                )
            assert again.engine.source("L").events() == events[:160]
        assert publishes_the_same(svc, again, events[160:], "L")

    def test_a_long_output_log_is_compacted_by_joining_segments(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(session_module, "_MAX_SEGMENTS", 3)
        events = keyed_events(200)
        svc = new_service()
        query = svc.submit("t", KEYED_SUM)
        spy = CodecSpy(monkeypatch)
        seen = []
        for round_ in range(6):
            for event in events[round_ * 20:(round_ + 1) * 20]:
                svc.ingest(event, "L")
            svc.checkpoint(str(tmp_path))
            seen.append(manifest_of(tmp_path)["queries"][0]["log"]["segments"])
        assert seen == [1, 2, 3, 1, 2, 3]
        assert spy.decode_calls == 0
        assert query.history_items()["sealed"] == query.cursor
        assert resumed_from(tmp_path).session.get("q1").flow.output_slice_of(
            "q1", 0
        ) == query.flow.output_slice_of("q1", 0)

    def test_positions_survive_a_cut(self):
        """Cursors, lineage positions and slices count from the start of
        the changelog, sealed or not."""
        events = keyed_events(120)
        engine = StreamEngine()
        engine.register_stream("L", TimeVaryingRelation(L, events))
        flow = engine.query(KEYED_SUM).dataflow()
        for event in events[:60]:
            flow.process(event, "L")
        cursor = flow.output_size_of("main")
        flow.checkpoint()
        assert flow.output_size_of("main") == cursor
        assert flow.history_items_of("main") == {"sealed": cursor, "live": 0}
        for event in events[60:]:
            flow.process(event, "L")
        expected = engine.query(KEYED_SUM).run().changes
        assert flow.output_slice_of("main", cursor) == expected[cursor:]
        before = cursor - 2
        assert flow.output_slice_of("main", before) == expected[before:]
        assert flow.result().changes == expected


class TestLazySources:
    def test_a_restored_relation_answers_from_the_encoded_vectors(
        self, monkeypatch
    ):
        events = keyed_events(64)
        live = TimeVaryingRelation(L, events)
        decoded = []
        real = codec.decode_events
        monkeypatch.setattr(
            codec, "decode_events",
            lambda encoded: decoded.append(1) or real(encoded),
        )
        restored = TimeVaryingRelation.restored(
            L, [encode_events(events[:40]), encode_events([]),
                encode_events(events[40:])],
        )
        assert restored.event_count == 64
        assert restored.last_ptime == live.last_ptime
        assert restored.watermarks.as_pairs() == live.watermarks.as_pairs()
        assert restored.is_bounded == live.is_bounded
        assert "64 events" in repr(restored)
        more = keyed_events(8, start=64)
        for event in more:
            restored.apply(event)
            live.apply(event)
        assert restored.events(64) == more  # what an appending cut asks
        assert decode_events(concat_segments(restored.event_segments(40))) == (
            events[40:] + more
        )
        assert not decoded
        with pytest.raises(ExecutionError, match="order"):
            restored.apply(ins(0, (1, 1, 1)))
        # Reading below the tail unseals once, for good.
        assert restored.events() == live.events()
        assert restored.events(3) == live.events(3)
        assert len(decoded) == 2
        assert list(restored.changelog) == list(live.changelog)
        assert restored.snapshot().rows() == live.snapshot().rows()
        # a full cut gets the segments earlier cuts got, plus the rest
        segments = restored.event_segments(0)
        assert [len(segment.kinds) for segment in segments] == [40, 24, 8]
        assert decode_events(concat_segments(segments)) == live.events()
        assert restored.event_segments(72) == []

    def test_the_changelog_of_a_restored_relation_includes_later_events(self):
        events = keyed_events(24)
        restored = TimeVaryingRelation.restored(L, [encode_events(events[:16])])
        for event in events[16:]:
            restored.apply(event)
        assert list(restored.changelog) == list(
            TimeVaryingRelation(L, events).changelog
        )
        restored.apply(ins(events[-1].ptime, (9, 9, 9)))
        assert restored.changelog[len(restored.changelog) - 1].values == (9, 9, 9)
