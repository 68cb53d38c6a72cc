"""Aggregates absorb their projections; Tumble runs inside pipelines.

The fusion pass (``repro.plan.pipeline``) every flow compiles its plan
through folds a Project of plain column references into the aggregate
above or below it and runs a ``TUMBLE`` as a step of the Filter/Project
pipeline around it.  What is pinned here:

* the shapes: which node absorbs what (grouped and global aggregates
  both ways, a shard's partial below only, the merge half's combine
  above only; a Project behind a ``HAVING`` filter is not absorbed; Hop
  is not fused; a compacting flow does not absorb), and that one query
  compiles one shape at any ``batch_size`` and ``columnar``;
* the house invariant over the matrix ``batch_size`` {1, 64} ×
  ``columnar`` {off, auto} × ``coalesce_updates`` × serial / sharded
  single- and two-phase (and the processes backend): the changelog of
  the absorbing flow is the one the same plan fused without absorption
  (the shape ``coalesce_updates`` compiles) produces, byte for byte;
* a cut of operators the fusion pass absorbed differently — or of the
  unfused operators a 5.x build compiled — is refused as a plain
  mismatch, however it comes back.
"""

import pickle

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.changelog import Change, ChangeKind
from repro.core.errors import ExecutionError
from repro.core.schema import Column, Schema, SqlType, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, rm, wm
from repro.exec.executor import Dataflow, merge_source_events
from repro.exec.operators.aggregate import (
    AggregateOperator,
    CombineAggregateOperator,
)
from repro.plan.fingerprint import node_fingerprint
from repro.plan.logical import AggCall, AggregateNode, PartialAggregateNode
from repro.plan.physical import CombineAggregateNode
from repro.plan.pipeline import PipelineNode, get_fused_root
from repro.service import StandingQueryService
from repro.sql.functions import default_registry

from .test_group_table import decoded_groups

SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)
MINUTE = 60_000

TUMBLE = (
    "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS"
)
HOP = (
    "Hop(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE, slide => INTERVAL '1' MINUTE) HS"
)

SHAPES = {
    # a selection below (the aggregate's inputs) and above (no wstart)
    "keyed": f"SELECT k, wend, SUM(v) AS total FROM {TUMBLE} GROUP BY k, wend",
    # the filter and the tumble in one loop
    "filtered": (
        f"SELECT wend, COUNT(*) AS n FROM {TUMBLE} WHERE v % 3 <> 0 "
        "GROUP BY wend"
    ),
    # a filter between the aggregate and the Project above: not absorbed
    "having": (
        f"SELECT k, wend, COUNT(*) AS n FROM {TUMBLE} GROUP BY k, wend "
        "HAVING COUNT(*) > 2"
    ),
    "distinct": (
        f"SELECT k, wend, COUNT(DISTINCT v) AS d FROM {TUMBLE} "
        "GROUP BY k, wend"
    ),
    "global": "SELECT COUNT(*) AS n, MAX(v) AS top FROM S",
    # Hop multiplies rows: it stays its own operator
    "hop": f"SELECT k, wend, SUM(v) AS total FROM {HOP} GROUP BY k, wend",
    # the selection above drops a group column: rows of two groups
    # collide, which is what a compacting flow must not absorb
    "collapsing": f"SELECT wend, COUNT(*) AS n FROM {TUMBLE} GROUP BY k, wend",
    # an aggregate over an aggregate's retractions, through a selection
    "nested": (
        f"SELECT wend, n, COUNT(*) AS c FROM (SELECT k, wend, COUNT(*) AS n "
        f"FROM {TUMBLE} GROUP BY k, wend) GROUP BY wend, n"
    ),
}


def keyed_events(bursts=30, burst_len=12, keys=5):
    """Bursts of interleaved keys at one instant each, out of order,
    some rows behind the watermark, some retracting an earlier row."""
    events, live, ptime, wm_value, i = [], [], 1_000_000, 0, 0
    for burst in range(bursts):
        ptime += MINUTE // 4
        for _ in range(burst_len):
            if i % 7 == 6 and live:
                events.append(rm(ptime, live.pop(i % len(live))))
            else:
                late = -3 * MINUTE if i % 19 == 7 else 0
                event_time = max(0, wm_value + late + (i % 4) * MINUTE // 2)
                row = (i % keys, event_time, i % 11)
                live.append(row)
                events.append(ins(ptime, row))
            i += 1
        if burst % 3 == 2:
            wm_value += MINUTE
            events.append(wm(ptime + 1, wm_value))
    events.append(wm(ptime + MINUTE, 1 << 60))
    return events


def engine_for(events=None, **config):
    config.setdefault("backend", "sync")
    engine = StreamEngine(config=ExecutionConfig(**config))
    engine.register_stream(
        "S", TimeVaryingRelation(SCHEMA, keyed_events() if events is None else events)
    )
    return engine


def fused(flow):
    return flow._exec_root(flow.plan)


def unabsorbed(monkeypatch):
    """Compile every flow fused without absorption from here on — the
    reference an absorbing flow's changelog is held to."""
    monkeypatch.setattr(
        Dataflow, "_exec_root",
        lambda flow, plan: get_fused_root(plan, absorb=False),
    )


def operator_types(flow):
    return [type(op).__name__ for op in flow.operators]


# ---------------------------------------------------------------------------
# the shapes
# ---------------------------------------------------------------------------


class TestShapes:
    def test_an_aggregate_absorbs_the_selections_around_it(self):
        flow = engine_for(batch_size=64).query(SHAPES["keyed"]).dataflow()
        root = fused(flow)
        assert type(root) is AggregateNode
        assert root.reads == (2, 1, 0, 4)  # k, wend, wstart, v of the tumble
        assert root.group_indices == (2, 1, 0)
        assert [call.arg_index for call in root.aggs] == [4]
        assert root.select == (0, 1, 3)  # k, wend, total: wstart dropped
        # what the replaced Project derived, carried verbatim
        project = flow.plan.root
        assert root.schema is project.schema
        assert root.completion_indices == project.completion_indices
        assert root.emit_key_indices == project.emit_key_indices
        (pipeline,) = root.inputs
        assert isinstance(pipeline, PipelineNode)
        assert pipeline.step_kinds() == "tumble"
        # both Projects and the Tumble are absorbed: no operator of their own
        assert [type(op).__name__ for op in flow.operators] == [
            "ScanOperator", "PipelineOperator", "AggregateOperator",
        ]

    def test_the_filter_and_the_tumble_run_in_one_loop(self):
        flow = engine_for(batch_size=64).query(SHAPES["filtered"]).dataflow()
        (pipeline,) = fused(flow).inputs
        assert pipeline.step_kinds() == "filter+tumble"
        assert len(flow.operators) == 3

    def test_a_filter_in_between_keeps_its_project(self):
        root = fused(engine_for(batch_size=64).query(SHAPES["having"]).dataflow())
        assert isinstance(root, PipelineNode)
        assert root.step_kinds() == "filter+project"
        (aggregate,) = root.inputs
        assert aggregate.select is None and aggregate.reads is not None

    def test_hop_is_not_fused(self):
        flow = engine_for(batch_size=64).query(SHAPES["hop"]).dataflow()
        assert "HopOperator" in [type(op).__name__ for op in flow.operators]
        assert "PipelineOperator" not in [
            type(op).__name__ for op in flow.operators
        ]

    def test_the_outer_aggregate_absorbs_the_selection_between_two(self):
        outer = fused(engine_for(batch_size=64).query(SHAPES["nested"]).dataflow())
        (inner,) = outer.inputs
        assert outer.reads is not None and outer.select is not None
        assert type(inner) is AggregateNode and inner.select is None

    def test_the_two_phase_halves_absorb_one_way_each(self):
        flow = engine_for(
            batch_size=64, parallelism=2, two_phase="auto"
        ).query(SHAPES["keyed"]).sharded_dataflow()
        merge = fused(flow.combines["main"])
        assert isinstance(merge, CombineAggregateNode)
        assert merge.select == (0, 1, 3) and merge.reads is None
        shard = fused(flow.shards[0])
        assert isinstance(shard, PartialAggregateNode)
        assert shard.reads == (2, 1, 0, 4) and shard.select is None
        assert shard.delta_mode is False  # the stamp survives the copy
        (combine,) = flow.combines["main"].operators
        assert type(combine) is CombineAggregateOperator

    @pytest.mark.parametrize("runtime", [
        "serial", "sharded", "two_phase",
    ])
    @pytest.mark.parametrize("shape", ["keyed", "filtered", "having"])
    def test_one_plan_shape_at_every_batch_size_and_encoding(
        self, shape, runtime
    ):
        """``batch_size`` {1, 64} × ``columnar`` {auto, off}: every flow
        compiles the same operators and EXPLAIN (PHYSICAL) prints the
        same fused tree; only its ``Columnar:`` header says which
        encoding the flow runs."""
        compiled, trees, headers = set(), set(), []
        for batch_size in (1, 64):
            for columnar in ("auto", "off"):
                engine = engine_for(
                    batch_size=batch_size, columnar=columnar,
                    **RUNTIMES[runtime],
                )
                query = engine.query(SHAPES[shape])
                if runtime == "serial":
                    flow = query.dataflow()
                    compiled.add(tuple(operator_types(flow)))
                else:
                    flow = query.sharded_dataflow()
                    combine = flow.combines.get("main")
                    compiled.add((
                        tuple(operator_types(flow.shards[0])),
                        combine and tuple(operator_types(combine)),
                    ))
                text = query.explain(mode="physical")
                header, tree = text[text.index("Columnar: "):].split("\n", 1)
                trees.add(tree)
                headers.append(header.split(" (")[0])
        assert len(compiled) == 1 and len(trees) == 1
        assert "Pipeline" in next(iter(trees))
        rows = "Columnar: off — row-at-a-time batches"
        assert headers == [rows, rows, "Columnar: on", rows]

    def test_a_compacting_flow_is_fused_without_absorption(self):
        """``coalesce_updates`` compacts every operator's output; a
        selection that collapses two groups' rows compacts differently
        inside the aggregate than after it (same snapshots, another
        order), so such a flow keeps its selections as pipelines."""
        flow = engine_for(
            batch_size=64, coalesce_updates=True
        ).query(SHAPES["collapsing"]).dataflow()
        root = fused(flow)
        assert isinstance(root, PipelineNode) and root.step_kinds() == "project"
        (aggregate,) = root.inputs
        assert aggregate.reads is None and aggregate.select is None
        assert aggregate.inputs[0].step_kinds() == "tumble+project"

    def test_why_a_compacting_flow_does_not_absorb(self, monkeypatch):
        """Absorbed anyway, the collapsing selection is compacted once,
        with the aggregate's rows, instead of once more after it: the
        same changes survive, in another order."""
        engine = engine_for(batch_size=64, coalesce_updates=True)
        unfused = engine.query(SHAPES["collapsing"]).run(
            ExecutionConfig(columnar="off")
        )
        monkeypatch.setattr(
            Dataflow, "_exec_root", lambda flow, plan: get_fused_root(plan)
        )
        absorbed = engine.query(SHAPES["collapsing"]).dataflow().run()
        assert absorbed.changes != unfused.changes
        assert sorted(map(repr, absorbed.changes)) == sorted(
            map(repr, unfused.changes)
        )

    def test_fusion_is_memoized_per_plan_and_per_absorption(self):
        plan = engine_for().query(SHAPES["keyed"]).plan
        assert get_fused_root(plan) is get_fused_root(plan)
        assert get_fused_root(plan, absorb=False) is not get_fused_root(plan)
        # the original plan is never touched
        assert plan.root.inputs[0].select is None

    def test_the_selection_is_part_of_the_fingerprint(self):
        """Two outputs that emit different columns of one aggregate do
        not share it; aliases alone still do."""
        engine = engine_for()
        sql = f"SELECT {{}} FROM {TUMBLE} GROUP BY k, wend"
        roots = [
            get_fused_root(engine.query(sql.format(select)).plan)
            for select in (
                "k, wend, SUM(v) AS total",
                "k, wend, SUM(v) AS renamed",
                "wend, k, SUM(v) AS total",
            )
        ]
        prints = [node_fingerprint(root) for root in roots]
        assert prints[0] == prints[1] != prints[2]
        assert node_fingerprint(roots[0].inputs[0]) == node_fingerprint(
            roots[2].inputs[0]
        )


# ---------------------------------------------------------------------------
# the same changelog, every way
# ---------------------------------------------------------------------------

RUNTIMES = {
    "serial": {},
    "sharded": dict(parallelism=2, two_phase="off"),
    "two_phase": dict(parallelism=2, two_phase="auto"),
}


def _run(engine, sql, runtime, **config):
    query = engine.query(sql)
    config = ExecutionConfig(**RUNTIMES[runtime], **config)
    flow = (
        query.sharded_dataflow(config) if runtime != "serial"
        else query.dataflow(config)
    )
    for _ in flow.replay(merge_source_events(flow._sources)):
        pass
    return flow.finish()


def _same(result, reference) -> bool:
    return (
        result.changes == reference.changes
        and result.watermarks.as_pairs() == reference.watermarks.as_pairs()
        and result.late_dropped == reference.late_dropped
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_configuration_emits_the_unabsorbed_changelog(
    shape, monkeypatch
):
    """Without compaction every cell equals the per-change, row-at-a-
    time serial run of the plan fused without absorption; with it
    (``coalesce_updates``, which compacts at every operator and so
    depends on the batches, and never absorbs) every cell equals the
    row-at-a-time run of its own batch size and runtime."""
    engine = engine_for()
    sql = SHAPES[shape]
    partitionable = engine.query(sql).partition_decision().partitionable
    with monkeypatch.context() as patched:
        unabsorbed(patched)
        reference = _run(engine, sql, "serial", batch_size=1, columnar="off")
    assert reference.changes
    cells = 0
    for runtime in RUNTIMES if partitionable else ["serial"]:
        for batch_size in (1, 64):
            for coalesce in (False, True):
                unfused = reference
                if coalesce:
                    unfused = _run(
                        engine, sql, runtime, batch_size=batch_size,
                        columnar="off", coalesce_updates=True,
                    )
                for columnar in ("auto", "off"):
                    got = _run(
                        engine, sql, runtime, batch_size=batch_size,
                        columnar=columnar, coalesce_updates=coalesce,
                    )
                    assert _same(got, unfused), (
                        runtime, batch_size, coalesce, columnar
                    )
                    cells += 1
    assert cells == (24 if partitionable else 8)


@pytest.mark.parametrize("two_phase", ["off", "auto"])
def test_process_shards_emit_the_unabsorbed_changelog(two_phase, monkeypatch):
    engine = engine_for()
    for shape in ("keyed", "filtered"):
        sql = SHAPES[shape]
        with monkeypatch.context() as patched:
            unabsorbed(patched)
            reference = engine.query(sql).run(
                ExecutionConfig(batch_size=1, columnar="off")
            )
        result = engine.query(sql).sharded_dataflow(
            ExecutionConfig(
                parallelism=2, backend="processes", two_phase=two_phase,
                batch_size=64,
            )
        ).run()
        assert _same(result, reference), shape


@pytest.mark.parametrize("config", [
    dict(), dict(batch_size=64), dict(columnar="off"),
    dict(batch_size=64, columnar="off"),
])
def test_a_null_timestamp_fails_the_same_way_fused(config):
    """The tumble step raises one error for a NULL event time — on the
    row loop (a batch of one) and the columnar loop — and only for a
    row the filter before it kept."""
    events = [
        ins(1000, (1, 5, 1)), ins(1000, (9, None, 0)), ins(1000, (2, None, 2)),
        ins(1000, (3, 7, 3)), wm(2000, 100),
    ]
    engine = engine_for(events, **config)
    with pytest.raises(ExecutionError, match="^NULL event timestamp in Tumble input$"):
        engine.query(SHAPES["filtered"].replace("v % 3 <> 0", "v > 0")).run()
    # the NULL row the filter drops never reaches the tumble step
    assert engine.query(
        SHAPES["filtered"].replace("v % 3 <> 0", "k = 1")
    ).run().changes


def test_a_late_joiner_grafts_onto_absorbed_operators():
    """MQO donor transplants correlate operators by plan-node identity;
    they must find the absorbed nodes too."""
    events = keyed_events()
    config = ExecutionConfig(batch_size=64, backend="sync")
    svc = StandingQueryService(config=config)
    svc.register_stream("S", TimeVaryingRelation(SCHEMA))
    first = svc.submit("t", SHAPES["keyed"])
    for event in events[:200]:
        svc.ingest(event, "S")
    late = svc.submit("t", SHAPES["keyed"].replace("SUM", "MAX"))
    assert late.flow is first.flow
    for event in events[200:]:
        svc.ingest(event, "S")
    for query, sql in (
        (first, SHAPES["keyed"]), (late, SHAPES["keyed"].replace("SUM", "MAX"))
    ):
        expected = engine_for(events).query(sql).run().changes
        assert query.flow.output_slice_of(query.output_id, 0) == expected


# ---------------------------------------------------------------------------
# a cut of other operators
# ---------------------------------------------------------------------------


#: what a flow of SHAPES["keyed"] compiles without absorption
UNABSORBED = [
    "ScanOperator", "PipelineOperator", "AggregateOperator", "PipelineOperator",
]
MISMATCH = "^checkpoint does not match this dataflow's plan$"


class TestMismatch:
    def cut(self, **config):
        flow = engine_for(**config).query(SHAPES["keyed"]).dataflow()
        for _ in flow.replay(merge_source_events(flow._sources)[:150]):
            pass
        return pickle.loads(flow.checkpoint())

    def test_a_cut_of_other_operators_is_a_plain_mismatch(self):
        payload = self.cut(batch_size=64)
        payload["op_types"] = UNABSORBED
        fresh = engine_for(batch_size=64).query(SHAPES["keyed"]).dataflow()
        with pytest.raises(ExecutionError, match=MISMATCH):
            fresh.restore(payload)

    def test_and_when_rebuilt_from_its_recipe(self):
        payload = self.cut(batch_size=64)
        payload["op_types"] = UNABSORBED
        for entry in payload["outputs"].values():
            entry["node_ops"] = [0, 1, 2, 3]
        engine = engine_for(batch_size=64)
        with pytest.raises(ExecutionError, match=MISMATCH):
            Dataflow.from_structure(
                [("main", engine.query(SHAPES["keyed"]).plan)], payload,
                {"S": TimeVaryingRelation(SCHEMA)}, engine.config,
            )

    def test_a_cut_of_the_unfused_operators_is_refused(self):
        """A 5.x cut at ``batch_size=1`` (or ``columnar="off"``) names
        the operators of the plan as written: it is refused before any
        of it is used, and the flow goes on as if never asked."""
        payload = self.cut()
        payload["op_types"] = [
            "ScanOperator", "TumbleOperator", "ProjectOperator",
            "AggregateOperator", "ProjectOperator",
        ]
        payload["op_states"] = [payload["op_states"][0]] * 5
        fresh = engine_for().query(SHAPES["keyed"]).dataflow()
        before = fresh.checkpoint()
        with pytest.raises(ExecutionError, match=MISMATCH):
            fresh.restore(payload)
        assert fresh.checkpoint() == before
        assert fresh.run().changes == engine_for().query(
            SHAPES["keyed"]
        ).run().changes

    def test_a_two_phase_stage_of_other_operators_is_refused(self):
        config = dict(batch_size=64, parallelism=2, two_phase="auto")
        query = engine_for(**config).query(SHAPES["keyed"])
        flow = query.sharded_dataflow()
        for _ in flow.replay(merge_source_events(flow._sources)[:150]):
            pass
        payload = pickle.loads(flow.checkpoint())
        stage = pickle.loads(payload["stages"]["main"])
        # the unabsorbed merge half: the combine, then its Project
        stage["ops"].append(stage["ops"][0])
        payload["stages"]["main"] = pickle.dumps(stage)
        with pytest.raises(
            ExecutionError,
            match="^combine flow shape changed: checkpoint has 2 operators, "
            "the flow has 1$",
        ):
            query.sharded_dataflow().restore(payload)


def test_an_absorbed_selection_emits_what_the_project_emitted():
    """Directly on the operator: group state keeps the full row, and a
    change only in a column the selection drops still moves the row."""
    reg = default_registry()
    calls = [
        AggCall(reg.aggregate("COUNT", star=True), None, Column("n", SqlType.INT)),
        AggCall(reg.aggregate("MAX"), 1, Column("top", SqlType.INT)),
    ]
    schema = Schema([Column("k", SqlType.INT), Column("top", SqlType.INT)])
    full = AggregateOperator(schema, (0,), calls, (), True)
    picked = AggregateOperator(schema, (0,), calls, (), True, select=(0, 2))
    ins_, ret = ChangeKind.INSERT, ChangeKind.RETRACT
    rows = [
        Change(ins_, (1, 5), 10), Change(ins_, (1, 3), 10), Change(ret, (1, 3), 10)
    ]
    want = [
        Change(c.kind, (c.values[0], c.values[2]), c.ptime)
        for c in full.on_batch(0, rows)
    ]
    assert picked.on_batch(0, rows) == want
    # COUNT moved, MAX did not: the selected rows repeat, as the Project's did
    assert [c.values for c in want] == [(1, 5), (1, 5), (1, 5), (1, 5), (1, 5)]
    (row_count, emitted, _, _) = decoded_groups(
        picked.state_snapshot()["groups"]
    )[(1,)]
    assert (row_count, emitted) == (1, (1, 1, 5))
