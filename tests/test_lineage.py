"""Delta lineage, recomputed on read.

The guarantees, mirroring docs/OBSERVABILITY.md:

* every position of every standing query's changelog explains — serial,
  sharded (two-phase or not, several outputs on one flow), shared, a
  late joiner's catch-up history, a delta a timer emitted, and after a
  checkpoint and a resume;
* the explanation equals what the live recorder it replaced said, field
  for field (``fixtures/lineage_referee.json``, recorded on the parent
  commit by ``fixtures/make_lineage_referee.py``), apart from the
  differences docs/OBSERVABILITY.md lists;
* an explain only reads the resident flow: changelogs, subscriber
  cursors and what the next ``take()`` hands out are unchanged;
* a position outside the changelog, or a withdrawn query's, explains to
  ``None``; a query id never registered is an error.
"""

import importlib.util
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig
from repro.core.errors import ExecutionError
from repro.core.tvr import ins, wm
from repro.plan.logical import ScanNode
from repro.plan.pipeline import PipelineNode
from repro.service import StandingQueryService
from repro.service.admission import TenantPolicy

from .test_mqo import MINUTE, Q_MAX, Q_SUM, make_events, service_with_source

HERE = os.path.dirname(os.path.abspath(__file__))
Q_FILTER = "SELECT k, v FROM S WHERE v > 20 EMIT STREAM"


def _maker():
    path = os.path.join(HERE, "fixtures", "make_lineage_referee.py")
    spec = importlib.util.spec_from_file_location("make_lineage_referee", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


maker = _maker()


def standing(config, sqls, events):
    """A service with ``sqls`` standing over source ``S``, fed ``events``."""
    svc = service_with_source(config=config)
    queries = [svc.submit("t", sql) for sql in sqls]
    for event in events:
        svc.ingest(event, "S")
    return svc, queries


def explain_all(svc, query):
    size = query.flow.output_size_of(query.output_id)
    return [svc.explain_delta(query.query_id, seq) for seq in range(size)]


def _unshared(explanation: dict) -> dict:
    """``explanation`` without the ``shared_by`` of its path steps."""
    path = [
        {key: value for key, value in step.items() if key != "shared_by"}
        for step in explanation["path"]
    ]
    return {**explanation, "path": path}


#: the scenarios the recorder ran at ``batch_size=1``, which compiled
#: the plan as written: one operator per Filter, Project and Tumble
BATCH1 = (
    "serial_batch1", "mqo_pair_late_joiner", "join_two_sources",
    "sharded_two_sync_shards",
)
_UNFUSED = {
    "FilterOperator": "filter",
    "ProjectOperator": "project",
    "TumbleOperator": "tumble",
}


def _branch(node, source: str):
    """The fused plan's nodes from the scan of ``source`` up to
    ``node``, inputs first (``None`` when it reads no such scan)."""
    if isinstance(node, ScanNode):
        return [node] if node.name.lower() == source.lower() else None
    for child in node.inputs:
        below = _branch(child, source)
        if below is not None:
            return below + [node]
    return None


def _fused_root(svc, query_id):
    query = svc.session.get(query_id)
    flow = query.flow.shards[0] if query.sharded else query.flow
    return flow._exec_root(flow._outputs[query.output_id].plan)


def _restated(explanation: dict, root) -> dict:
    """A batch-1 explanation of the recorder, restated for the fused
    plan ``root`` by one rule: the path entries of a chain fused into
    one pipeline become one ``Pipeline(...)`` entry (the chain top's
    count, shard and readers), and the entry of a Project an aggregate
    absorbed is dropped.  Everything else — ``output_id``, ``seq``, the
    change, the source rows — stays as the recorder said."""
    path = explanation["path"]
    entries = iter(path)
    restated = []
    source = path[0]["operator"][len("Scan("):-1]
    for node in _branch(root, source):
        if isinstance(node, PipelineNode):
            chain = [next(entries) for _ in node.steps]
            assert [_UNFUSED[entry["operator"]] for entry in chain] == [
                kind for kind, _ in node.steps
            ], chain
            restated.append(
                dict(chain[-1], operator=f"Pipeline({node.step_kinds()})")
            )
            continue
        if getattr(node, "reads", None) is not None:
            assert next(entries)["operator"] == "ProjectOperator"
        restated.append(next(entries))
        if getattr(node, "select", None) is not None:
            assert next(entries)["operator"] == "ProjectOperator"
    assert next(entries, None) is None
    return {**explanation, "path": restated}


class TestReferee:
    @pytest.fixture(scope="class")
    def runs(self):
        with open(maker.REFEREE) as fh:
            referee = json.load(fh)
        return referee, maker.scenarios({})

    @pytest.mark.parametrize("name", [
        "serial_batch1", "serial_batch64", "mqo_pair_late_joiner",
        "join_two_sources", "sharded_two_sync_shards",
    ])
    def test_every_delta_explains_as_the_recorder_did(self, runs, name):
        referee, scenarios = runs
        svc, ids = scenarios[name]
        assert sorted(ids) == sorted(referee[name])
        for qid in ids:
            got = maker.explained(svc, qid)
            want = referee[name][qid]
            if name in BATCH1:
                root = _fused_root(svc, qid)
                want = [
                    theirs and _restated(theirs, root) for theirs in want
                ]
            assert len(got) == len(want)
            for seq, (mine, theirs) in enumerate(zip(got, want)):
                assert mine is not None, (name, qid, seq)
                if theirs is None:
                    # a late joiner's catch-up history: its donor was
                    # never traced, so the recorder could not explain it
                    assert name == "mqo_pair_late_joiner", (qid, seq)
                    continue
                if name == "mqo_pair_late_joiner":
                    # ``shared_by`` counts readers now, when the explain
                    # runs; the recorder counted them when it recorded
                    mine, theirs = _unshared(mine), _unshared(theirs)
                assert mine == theirs, (name, qid, seq)

    def test_shared_by_counts_the_readers_at_explain_time(self, runs):
        """The scan every query reads, in either plan shape: the last
        delta came after the joiner, so both counts agree; the first
        came before it, and explains with the joiner counted.  (The
        operators fusion replaced are counted on the fused graph.)"""
        referee, scenarios = runs
        svc, ids = scenarios["mqo_pair_late_joiner"]
        for qid in ids:
            mine = maker.explained(svc, qid)
            theirs = referee["mqo_pair_late_joiner"][qid]
            assert mine[-1]["path"][0] == theirs[-1]["path"][0]
            assert {delta["path"][0]["shared_by"] for delta in mine} == {3}
        assert referee["mqo_pair_late_joiner"][ids[0]][0]["path"][0][
            "shared_by"] == 2


class TestExplain:
    def test_a_delta_explains_to_its_source_row_and_path(self):
        svc, (query,) = standing(ExecutionConfig(), [Q_SUM], make_events(30))
        explanations = explain_all(svc, query)
        assert explanations and None not in explanations
        first = explanations[0]
        assert first["output_id"] == query.query_id and first["seq"] == 0
        (row,) = first["sources"]
        assert row["source"] == "s" and row["kind"] == "source"
        assert make_events(30)[first["trace_id"]].change.values == row["values"]
        operators = [step["operator"] for step in first["path"]]
        assert operators[0] == "Scan(S)" and len(operators) > 2

    def test_shared_subplan_attribution(self):
        svc, (q1, q2) = standing(
            ExecutionConfig(share_plans=True), [Q_SUM, Q_MAX], make_events(30)
        )
        assert q1.flow is q2.flow  # grafted onto one dataflow
        path = svc.explain_delta(q1.query_id, 0)["path"]
        assert [s["shared_by"] for s in path if s["operator"] == "Scan(S)"] == [2]
        assert path[-1]["shared_by"] == 1  # the private root

    @pytest.mark.parametrize("two_phase", ["auto", "off"])
    def test_a_sharded_flow_mixing_a_row_output_with_an_aggregate(self, two_phase):
        """Two ``sync`` shards carrying a tumble aggregate and a
        ``WHERE`` row output on one flow: every delta of both explains,
        to the event and shard the serial run's explanation names."""
        config = ExecutionConfig(parallelism=2, backend="sync", two_phase=two_phase)
        events = make_events(60)
        svc, queries = standing(config, [Q_SUM, Q_FILTER], events)
        assert queries[0].sharded and queries[0].flow is queries[1].flow
        serial, twins = standing(ExecutionConfig(), [Q_SUM, Q_FILTER], events)
        for query, twin in zip(queries, twins):
            sharded = explain_all(svc, query)
            assert sharded and None not in sharded
            for mine, theirs in zip(sharded, explain_all(serial, twin)):
                assert mine["trace_id"] == theirs["trace_id"]
                assert mine["sources"] == theirs["sources"]
                shards = {step["shard"] for step in mine["path"]}
                assert len(shards - {None}) == 1  # one shard took the row
        combined = explain_all(svc, queries[0])[0]["path"]
        if two_phase == "auto":  # the merge half closes the path
            assert combined[-1]["shard"] is None
            assert any("CombineAggregate" in s["operator"] for s in combined)
        else:
            assert None not in {step["shard"] for step in combined}

    def test_sharded_path_carries_shard_tags(self):
        """One aggregate over two shards (two-phase by default): the
        path climbs one shard's operators, tagged with that shard, and
        only the merge half that closes it is untagged."""
        svc, (query,) = standing(
            ExecutionConfig(parallelism=2), [Q_SUM], make_events(30)
        )
        assert query.sharded
        for explanation in explain_all(svc, query):
            shards = [step["shard"] for step in explanation["path"]]
            tagged = [shard for shard in shards if shard is not None]
            assert tagged and len(set(tagged)) == 1
            assert shards == tagged + [None] * (len(shards) - len(tagged))

    def test_a_timer_delta_is_explained_by_the_event_that_fired_it(self):
        events, ptime = [], 1_000_000
        for i in range(12):
            ptime += 15_000
            events.append(ins(ptime, (i % 2, ptime - 5_000, i)))
        tail = (
            "SELECT k, v FROM S WHERE ts > CURRENT_TIME - INTERVAL '30' "
            "SECOND EMIT STREAM"
        )
        svc, (query,) = standing(ExecutionConfig(), [tail], events)
        changes = query.flow.output_slice_of(query.output_id, 0)
        expired = [seq for seq, c in enumerate(changes) if c.kind.name == "RETRACT"]
        assert expired
        for seq in expired:
            explanation = svc.explain_delta(query.query_id, seq)
            (cause,) = explanation["sources"]
            assert cause["ptime"] > changes[seq].ptime  # the timer was due before
            assert any("Temporal" in s["operator"] for s in explanation["path"])

    def test_a_self_join_lists_both_scans(self):
        sql = (
            "SELECT a.k, a.v, b.v AS w FROM S a JOIN S b ON a.k = b.k "
            "WHERE a.v < b.v EMIT STREAM"
        )
        svc, (query,) = standing(ExecutionConfig(), [sql], make_events(30))
        path = svc.explain_delta(query.query_id, 0)["path"]
        assert [s["operator"] for s in path[:2]] == ["Scan(S)", "Scan(S)"]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_every_position_explains_after_checkpoint_and_resume(
        self, tmp_path, parallelism
    ):
        config = ExecutionConfig(
            parallelism=parallelism, backend="sync", checkpoint_dir=str(tmp_path)
        )
        events = make_events(40)
        svc, queries = standing(config, [Q_SUM, Q_FILTER], events[:25])
        svc.checkpoint()
        before = [explain_all(svc, query) for query in queries]
        resumed = StandingQueryService(
            config=config,
            default_policy=TenantPolicy(name="*", max_standing_queries=8),
        )
        assert resumed.resume() == 2
        after = [explain_all(resumed, resumed.session.get(q.query_id)) for q in queries]
        assert after == before and None not in after[0]
        for event in events[25:]:
            resumed.ingest(event, "S")
            svc.ingest(event, "S")
        for query in queries:
            again = resumed.session.get(query.query_id)
            assert explain_all(resumed, again) == explain_all(svc, query)


class TestCheckpointRestore:
    """A flow cut and restored outside the service explains every
    position as the uninterrupted flow does, before and after the cut."""

    @staticmethod
    def _cut_and_resume(parallelism):
        from repro import StreamEngine
        from repro.core.tvr import TimeVaryingRelation
        from repro.exec.executor import merge_source_events
        from repro.obs.lineage import explain_delta

        from .test_mqo import SCHEMA

        engine = StreamEngine(
            config=ExecutionConfig(parallelism=parallelism, backend="sync")
        )
        engine.register_stream("S", TimeVaryingRelation(SCHEMA, make_events(40)))
        query = engine.query(Q_SUM)

        def flow():
            return query.sharded_dataflow() if parallelism > 1 else query.dataflow()

        events = merge_source_events(engine._sources)
        whole, cut = flow(), flow()
        for _ in whole.replay(events):
            pass
        for _ in cut.replay(events[:25]):
            pass
        resumed = flow()
        resumed.restore(cut.checkpoint())
        for _ in resumed.replay(events[25:]):
            pass

        def explained(f):
            return [
                explain_delta(f, "main", f.plan, engine._sources, seq)
                for seq in range(f.output_size_of("main"))
            ]

        return explained(whole), explained(resumed)

    def test_lineage_survives_checkpoint_restore(self):
        whole, resumed = self._cut_and_resume(1)
        assert whole and None not in whole
        assert resumed == whole

    def test_sharded_lineage_survives_restore(self):
        whole, resumed = self._cut_and_resume(2)
        assert whole and None not in whole
        assert resumed == whole
        assert all(
            {step["shard"] for step in e["path"]} - {None} for e in whole
        )


@pytest.mark.parametrize("two_phase", ["auto", "off"])
@settings(max_examples=10, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(-50, 50)),
        min_size=1,
        max_size=30,
    ),
)
def test_every_delta_explains_alike_serial_and_sharded(two_phase, rows):
    """Drawn histories (late rows, watermarks): every delta of both
    queries explains, its cause is at or past the delta's instant, and
    two ``sync`` shards name the cause the serial flow names."""
    events, ptime = [], 1_000_000
    for i, (k, w, v) in enumerate(rows):
        ptime += 10_000
        events.append(ins(ptime, (k, w * MINUTE, v)))
        if i % 4 == 3:
            ptime += 1_000
            events.append(wm(ptime, (i // 4 + 1) * 2 * MINUTE))
    sqls = [Q_SUM, Q_FILTER]
    serial, queries = standing(ExecutionConfig(), sqls, events)
    sharded, twins = standing(
        ExecutionConfig(parallelism=2, backend="sync", two_phase=two_phase),
        sqls, events,
    )
    for query, twin in zip(queries, twins):
        changes = query.flow.output_slice_of(query.output_id, 0)
        mine, theirs = explain_all(serial, query), explain_all(sharded, twin)
        assert len(mine) == len(theirs) == len(changes)
        for change, one, other in zip(changes, mine, theirs):
            assert one["sources"][0]["ptime"] >= change.ptime
            assert (one["trace_id"], one["sources"]) == (
                other["trace_id"], other["sources"]
            )


class TestInputEdges:
    def test_out_of_range_and_withdrawn_explain_to_none(self):
        svc, (query, other) = standing(
            ExecutionConfig(), [Q_SUM, Q_MAX], make_events(30)
        )
        size = query.flow.output_size_of(query.output_id)
        assert svc.explain_delta(query.query_id, size - 1) is not None
        for seq in (-1, -size, size, size + 5):
            assert svc.explain_delta(query.query_id, seq) is None
        assert svc.withdraw(other.query_id)
        assert svc.explain_delta(other.query_id, 0) is None

    def test_an_unknown_query_is_an_error(self):
        svc = service_with_source()
        with pytest.raises(ExecutionError):
            svc.explain_delta("nope", 0)

    def test_an_explain_leaves_the_resident_flow_untouched(self):
        events = make_events(60)
        twins = []
        for _ in range(2):
            svc, queries = standing(ExecutionConfig(), [Q_SUM, Q_FILTER], events[:40])
            subscribers = [
                svc.subscribe(q.query_id, "sub") for q in queries
            ]
            for subscriber in subscribers:  # half drained
                subscriber.take(3)
            twins.append((svc, queries, subscribers))
        svc, queries, _ = twins[0]
        for query in queries:
            explain_all(svc, query)

        def observed(svc, queries, subscribers):
            return (
                [q.flow.output_slice_of(q.output_id, 0) for q in queries],
                [s.cursor for s in subscribers],
                [[(d.seq, d.change) for d in s.take()] for s in subscribers],
            )

        assert observed(*twins[0]) == observed(*twins[1])
        for svc, _, _ in twins:
            for event in events[40:]:
                svc.ingest(event, "S")
        assert observed(*twins[0]) == observed(*twins[1])


class TestCheckpointEntry:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_the_lineage_entry_is_none_and_a_carried_recorder_is_ignored(
        self, parallelism
    ):
        """Format 4 keeps the ``lineage`` entry: a cut writes ``None``,
        and a 3.x cut's recorder snapshot there is ignored on restore."""
        import pickle

        from repro import StreamEngine
        from repro.core.tvr import TimeVaryingRelation
        from repro.exec.executor import merge_source_events

        from .test_mqo import SCHEMA

        def flow():
            engine = StreamEngine(
                config=ExecutionConfig(parallelism=parallelism, backend="sync")
            )
            engine.register_stream("S", TimeVaryingRelation(SCHEMA, make_events(40)))
            query = engine.query(Q_SUM)
            return query.sharded_dataflow() if parallelism > 1 else query.dataflow()

        cut = flow()
        for _ in cut.replay(merge_source_events(cut._sources)):
            pass
        payload = pickle.loads(cut.checkpoint())
        assert "lineage" in payload and payload["lineage"] is None
        payload["lineage"] = {"sample_rate": 1, "nodes": [], "outputs": []}
        restored = flow()
        restored.restore(payload)
        assert not hasattr(restored, "lineage")
        assert restored.output_slice_of("main", 0) == cut.output_slice_of("main", 0)
