"""The generated fan-out against the interpreted walk it replaced.

A produced batch leaves its operator through one generated fan-out
(``repro.exec.codegen.fanout_kernel``): counted once for its producer
and every consumer, appended to the output channels rooted at the
producer, then handed to each consumer in attach order, whose own
fan-out takes what it produced.  The referee is :func:`reference_fanout` below, a naive
recursive walker with the semantics of the deleted ``_emit_up`` (with
``_push_changes`` and ``_collect_output`` folded in).  Two flows are
built from the same plans and fed in lockstep — one compiling its
fan-outs, one whose fan-outs are the walker — and after every delivery
their changelogs, every ``OperatorCounters`` field, ``take_touched()``
and what the trace hook saw (with every output's log size at the moment
it saw it, which pins the order of effects inside a delivery) must be
equal.  Cells: ``batch_size`` {1, 64} x ``columnar`` {auto, off} x
``coalesce_updates`` x a trace hook {off, on}; a graft -> withdraw ->
checkpoint/restore sequence; a scan wider than one kernel
(``FANOUT_WIDTH``) grafted onto and withdrawn from; and two ``sync``
shards, two-phase, a row output beside the aggregates.  A graft or a withdrawal
drops exactly the kernels whose edges or channels it changed.
"""

import contextlib

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.changelog import ChangeKind, compact_intra_instant
from repro.core.colbatch import ColumnarBatch
from repro.core.tvr import TimeVaryingRelation
from repro.exec import executor
from repro.exec.executor import Dataflow
from repro.obs.histogram import Histogram
from repro.obs.trace import TraceEvent
from repro.service import StandingQueryService

from .test_telemetry_on_read import SCHEMA, generated

TUMBLE = "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), dur => INTERVAL '10' SECOND) T"
PRIMARY = "SELECT k, ts, v FROM S WHERE v > 20"
QUERIES = [
    # the primary output's root is also read by the last two queries
    PRIMARY,
    f"SELECT T.k, T.wend, COUNT(*) AS n, MAX(T.v) AS high FROM {TUMBLE} GROUP BY T.k, T.wend",
    f"SELECT T.k, T.wend, COUNT(*) AS n, MAX(T.v) AS high FROM {TUMBLE} GROUP BY T.k, T.wend",
    f"SELECT T.k, T.wend, SUM(T.v) AS s FROM {TUMBLE} GROUP BY T.k, T.wend",
    "SELECT COUNT(*) AS n FROM S",
    f"SELECT k, ts, v, SUM(v) OVER (PARTITION BY k ORDER BY ts) AS total FROM ({PRIMARY}) X",
    f"SELECT X.k, X.v FROM ({PRIMARY}) X WHERE X.ts > CURRENT_TIME - INTERVAL '1010' SECOND",
]


def reference_fanout(flow, op, consumers, arrived=None):
    """The interpreted walk of what ``op`` (``None``: a source) produced:
    count, collect (showing each arrival to ``arrived``), push, recurse."""
    def fan(flow, changes):
        rows = changes.to_changes() if type(changes) is ColumnarBatch else list(changes)
        retracts = sum(change.kind is ChangeKind.RETRACT for change in rows)
        if op is not None:
            op.counters.rows_out += len(rows)
            op.counters.retracts_out += retracts
        for consumer, port in consumers:
            consumer.counters.rows_in[port] += len(rows)
            consumer.counters.retracts_in[port] += retracts
        for channel in flow._outputs_of.get(id(op), ()) if op is not None else ():
            if arrived is not None:
                arrived(flow, channel, rows)
            channel.log.tail.extend(rows)
            flow._touched.add(channel.output_id)
            if flow.trace is not None and channel.output_id == flow._primary:
                flow.trace(TraceEvent(kind="batch", ptime=rows[-1].ptime, count=len(rows),
                                      operator=channel.root_name))
        for consumer, port in consumers:
            cols = type(changes) is ColumnarBatch and consumer.supports_columnar
            produced = consumer.on_cols(port, changes) if cols else consumer.on_batch(port, rows)
            if produced and flow.coalesce_updates and len(produced) > 1:
                produced, dropped = compact_intra_instant(
                    produced.to_changes() if type(produced) is ColumnarBatch else produced)
                consumer.counters.changes_coalesced += dropped
            if produced:
                walk = reference_fanout(flow, consumer, flow._consumers.get(id(consumer), ()), arrived)
                walk(flow, produced)
    return fan


_WALKING = {"reference": False}
_KERNEL = executor.fanout_kernel


@pytest.fixture(autouse=True)
def refereed(monkeypatch):
    """Flows build their fan-outs through this switch: the reference
    walker while :func:`walking` says so, the generated kernel
    otherwise.  A flow builds them only inside its own deliveries and
    caches them, so each flow of a pair keeps its own kind."""
    monkeypatch.setattr(
        executor, "fanout_kernel",
        lambda flow, op, consumers: (
            reference_fanout if _WALKING["reference"] else _KERNEL
        )(flow, op, consumers),
    )


@contextlib.contextmanager
def walking(reference: bool):
    _WALKING["reference"] = reference
    try:
        yield
    finally:
        _WALKING["reference"] = False


#: bursty rows, some late, and watermarks — inserts only, which the
#: OVER window needs; the aggregates' updates bring the retractions
EVENTS = [
    event for event in generated(7)
    if getattr(getattr(event, "change", None), "kind", None) is not ChangeKind.RETRACT
]


def build(config, queries, observers=False, sharded=False):
    eng = StreamEngine(config=config)
    eng.register_stream("S", TimeVaryingRelation(SCHEMA, EVENTS))
    first = eng.query(queries[0])
    flow = first.sharded_dataflow() if sharded else first.dataflow()
    ids = [flow.output_ids()[0]] + [f"q{n}" for n in range(1, len(queries))]
    for n, sql in enumerate(queries[1:], 1):
        twin = queries.index(sql)  # an earlier output of the same plan: share its root
        flow.attach_output(ids[n], eng.query(sql).plan,
                           share_root=ids[twin] if twin < n else None)
    if observers:
        observe(flow)
    return eng, flow


def observe(flow) -> None:
    """Install a trace hook noting each event with every output's log
    size at the moment it arrives."""
    flow.seen = []
    flow.trace = lambda event: flow.seen.append(
        (event, [flow.output_size_of(oid) for oid in flow.output_ids()])
    )


def state(flow):
    flows = flow._flows() if hasattr(flow, "_flows") else [flow]
    return (
        {oid: flow.output_slice_of(oid, 0) for oid in flow.output_ids()},
        [
            (op.counters.snapshot(), op.late_dropped, op.expired_rows)
            for each in flows for op in each.operators
        ],
        flow.take_touched(),
        getattr(flow, "seen", None),
    )


def lockstep(pair, events) -> int:
    """Feed both flows of ``pair`` (kernel, reference) ``events`` one
    delivery at a time, comparing after each; returns the deliveries."""
    runs = [flow.replay(events) for flow in pair]
    deliveries = 0
    while True:
        stops = []
        for reference, run in enumerate(runs):
            with walking(bool(reference)):
                stops.append(next(run, None))
        assert stops[0] == stops[1]
        if stops[0] is None:
            return deliveries
        deliveries += 1
        assert state(pair[0]) == state(pair[1]), f"after delivery {deliveries}"


def merged(eng):
    return executor.merge_source_events(eng._sources)


@pytest.mark.parametrize("observers", [False, True], ids=["bare", "observed"])
@pytest.mark.parametrize("coalesce", [False, True], ids=["plain", "coalesce"])
@pytest.mark.parametrize("columnar", ["auto", "off"])
@pytest.mark.parametrize("batch_size", [1, 64])
def test_serial_deliveries_equal_the_walk(batch_size, columnar, coalesce, observers):
    serial_cell(ExecutionConfig(
        batch_size=batch_size, columnar=columnar, coalesce_updates=coalesce
    ), observers)


@pytest.mark.parametrize("batch_size", [1, 64])
def test_a_scan_wider_than_one_kernel(batch_size):
    """A producer past ``FANOUT_WIDTH`` consumers chains kernels; a
    graft onto it and a withdrawal from its first kernel's share
    deliver like the walk."""
    from repro.exec.codegen import FANOUT_WIDTH

    wide = [f"SELECT k, ts, v FROM S WHERE v > {n}" for n in range(FANOUT_WIDTH + 2)]
    pair = [build(ExecutionConfig(batch_size=batch_size), wide) for _ in range(2)]
    eng, (kernel, reference) = pair[0][0], [flow for _, flow in pair]
    (scan,) = kernel._leaves
    assert len(kernel._consumers[id(scan)]) > FANOUT_WIDTH
    events = merged(eng)
    assert lockstep((kernel, reference), events[: len(events) // 3]) > 0
    assert "_more" in kernel._fanout(scan)._codegen_source
    for (each, flow) in pair:
        flow.attach_output("late", each.query(QUERIES[1]).plan)
        assert flow.remove_output("q1")
    assert lockstep((kernel, reference), events[len(events) // 3:]) > 0


def graph(flow):
    """What each kernel is generated from: every producer's edges and
    channels, and every source's leaves."""
    return {
        **{key: [(id(c), port) for c, port in edges] for key, edges in flow._consumers.items()},
        **{(key, "out"): [ch.output_id for ch in chans] for key, chans in flow._outputs_of.items()},
        **{key: [id(leaf) for leaf in leaves] for key, leaves in flow._leaves_by_source.items()},
    }


def test_a_graft_or_a_withdrawal_drops_only_the_kernels_it_changed():
    eng, flow = build(ExecutionConfig(batch_size=64), QUERIES[:3])
    events = merged(eng)
    run = flow.replay(events)
    for mutate in (
        lambda: flow.attach_output("q3", eng.query(QUERIES[3]).plan),
        lambda: flow.attach_output("q4", eng.query(QUERIES[4]).plan),
        lambda: flow.remove_output("q1"),
        lambda: flow.remove_output("q3"),
    ):
        for _ in range(60):
            next(run)
        kernels, before = dict(flow._fanouts), graph(flow)
        mutate()
        after = graph(flow)
        changed = {key if type(key) is not tuple else key[0]
                   for key in before.keys() | after.keys() if before.get(key) != after.get(key)}
        assert changed and kernels.keys() - changed
        assert {key for key in kernels if flow._fanouts.get(key) is kernels[key]} == (
            kernels.keys() - changed
        )
        assert not flow._fanouts.keys() - kernels.keys()


def serial_cell(config, observers) -> Dataflow:
    (eng, kernel), (_, reference) = (
        build(config, QUERIES, observers) for _ in range(2)
    )
    root = kernel._outputs["main"].root
    assert len(kernel._consumers[id(root)]) == 2  # the primary root fans out
    assert lockstep((kernel, reference), merged(eng)) > 0
    for flow in (kernel, reference):
        with walking(flow is reference):
            flow.finish()  # the tail's pending timers
    assert state(kernel) == state(reference)
    # open-, row-, watermark- and timer-driven batches all went through
    out = {type(op).__name__: op.counters for op in kernel.operators}
    assert out["OverOperator"].rows_out and out["TemporalFilterOperator"].retracts_out
    if observers:
        assert kernel.seen
    return kernel


@pytest.mark.parametrize("observers", [False, True], ids=["bare", "observed"])
def test_graft_withdraw_then_checkpoint_and_restore(observers):
    config = ExecutionConfig(batch_size=64)
    pair = [build(config, QUERIES[:3], observers) for _ in range(2)]
    eng = pair[0][0]
    flows = [flow for _, flow in pair]
    events = merged(eng)
    cuts = [0, len(events) // 4, len(events) // 2, 3 * len(events) // 4]
    lockstep(flows, events[: cuts[1]])
    for (each, flow) in pair:  # graft three more
        for n, sql in enumerate(QUERIES[3:6], 3):
            flow.attach_output(f"q{n}", each.query(sql).plan)
    lockstep(flows, events[cuts[1]: cuts[2]])
    for flow in flows:  # withdraw a root-sharing twin and a private chain
        assert flow._outputs["q2"].root is flow._outputs["q1"].root
        assert flow.remove_output("q2") and flow.remove_output("q4")
    lockstep(flows, events[cuts[2]: cuts[3]])
    restored = []
    for (each, flow) in pair:
        blob = flow.checkpoint()
        plans = [(oid, flow._outputs[oid].plan) for oid in flow.output_ids()]
        fresh = Dataflow.from_structure(
            plans, flow.structure(), each._sources, flow.config
        )
        fresh.restore(blob)
        if observers:
            observe(fresh)
        restored.append(fresh)
    assert state(restored[0]) == state(restored[1])
    assert lockstep(restored, events[cuts[3]:]) > 0


@pytest.mark.parametrize("observers", [False, True], ids=["bare", "observed"])
def test_two_sync_shards_two_phase(observers):
    config = ExecutionConfig(parallelism=2, backend="sync", two_phase="auto", batch_size=64)
    pair = [build(config, QUERIES[1:4] + [PRIMARY], observers, sharded=True) for _ in range(2)]
    assert lockstep([flow for _, flow in pair], merged(pair[0][0])) > 0


def test_the_settled_ingest_push_equals_observing_each_sample():
    svc = StandingQueryService()
    svc.register_stream("S", TimeVaryingRelation(SCHEMA))
    queries = [svc.submit("t", sql + " EMIT STREAM") for sql in QUERIES[1:4]]
    for event in generated(3, events=300):
        svc.ingest(event, "S")
    for query in queries:
        noted = list(query.push_samples)
        assert noted
        expected = Histogram()
        for sample in noted:
            expected.observe(sample)
        settled = query.ingest_push
        assert query.push_samples == []
        assert (settled.buckets, settled.count, settled.sum, settled.min, settled.max) == (
            expected.buckets, expected.count, expected.sum, expected.min, expected.max
        )
