"""Push-based dataflow execution over time-varying relations.

:class:`Dataflow` compiles a :class:`~repro.plan.planner.QueryPlan`,
binds its scans to registered source TVRs, and replays the sources'
stream events in processing-time order through the operator graph.  The
result is each output's changelog plus its watermark track — i.e. the
output *as a time-varying relation*, from which the materializers in
:mod:`repro.exec.materialize` derive every table/stream rendering the
paper describes.

A dataflow starts as a tree (one output, one consumer per operator)
but is a DAG underneath: :meth:`Dataflow.attach_output` grafts a second
query's plan onto any resident subplan with a matching canonical
fingerprint (see :mod:`repro.plan.fingerprint`), multicasting the
shared operator's changelog to every consuming edge while each query
keeps its own downstream operators and its own output channel.
Operators are ref-counted per consuming output, so withdrawing one
sharing query (:meth:`remove_output`) never tears down state a
survivor still reads.

Determinism: events are processed in (ptime, source registration
order, arrival order) order, and a source consumed by several scans
(e.g. ``Bid`` appearing twice in NEXMark Q7) delivers to the scans in
plan (left-to-right) order; a *shared* operator delivers to its
consumer edges in attach order, which reproduces the same interleaving
per output.  This makes changelog outputs — including the intra-instant
ordering visible in Listing 9 — reproducible, and byte-identical with
sharing on or off.
"""

from __future__ import annotations

import pickle
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from ..core.changelog import Change, ChangeKind, compact_intra_instant
from ..core.codec import SegmentedLog, changes_log, concat_segments
from ..core.colbatch import ColumnarBatch
from ..core.collector import collector_paused
from ..core.errors import ExecutionError
from ..core.relation import Relation
from ..core.schema import Schema
from ..core.times import MAX_TIMESTAMP, MIN_TIMESTAMP, Timestamp
from ..core.tvr import RowEvent, StreamEvent, TimeVaryingRelation
from ..core.watermark import WatermarkTrack
from ..obs.lineage import LineageRecorder
from ..obs.metrics import MetricsRegistry, MetricsReport
from ..obs.telemetry import RunTelemetry
from ..obs.trace import TraceEvent
from ..plan.fingerprint import node_fingerprints, subtree_size
from ..plan.logical import LogicalNode, ValuesNode
from ..plan.pipeline import get_fused_root
from ..plan.planner import QueryPlan
from .compile import build_operator, why_runs_split, why_runs_stay_per_instant
from .operators.base import Operator
from .operators.stateless import ScanOperator
from .timers import TimerQueue

__all__ = ["CHECKPOINT_VERSION", "Dataflow", "OutputChannel", "OutputLogs",
           "RunResult",
           "check_checkpoint_version", "check_same_instant", "count_edge",
           "event_runs", "merge_source_events", "replay_runs",
           "runs_columnar", "stored_changes"]

_RETRACT = ChangeKind.RETRACT
_PLAN_MISMATCH = "checkpoint does not match this dataflow's plan"

#: Format version stamped on every checkpoint payload (serial and
#: sharded), and the only one this build reads: 4 = an aggregate's
#: groups are one table of parallel columns
#: (``AggregateOperator.state_snapshot``), a columnar flow's operators
#: are those of the plan fused with absorption (``repro.plan.pipeline``),
#: and output changelogs are codec segments that may be left out
#: (``histories=False``).  A cut of any other format is refused
#: (:func:`check_checkpoint_version`); release 2.0.0 resumes formats 1-3
#: and its next cut is format 4.
CHECKPOINT_VERSION = 4


def check_checkpoint_version(payload: dict) -> None:
    """Refuse a checkpoint payload of any format but
    :data:`CHECKPOINT_VERSION` — before anything of it is used.  A
    payload without the field is format 1, as that format wrote it."""
    version = payload.get("version", 1)
    if version != CHECKPOINT_VERSION:
        raise ExecutionError(
            f"checkpoint format version {version} is not the one this "
            f"build reads ({CHECKPOINT_VERSION}): resume it with release "
            "2.0.0 and cut it again"
        )


def runs_columnar(config) -> bool:
    """Whether a flow built under ``config`` (a resolved
    ``ExecutionConfig``) runs its micro-batches columnar: ``columnar=
    "on"``, or ``"auto"`` with batching.  The one place it is decided."""
    return config.columnar == "on" or (
        config.columnar == "auto" and config.batch_size > 1
    )


def merge_source_events(
    sources: dict[str, TimeVaryingRelation],
    until: Optional[Timestamp] = None,
) -> list[tuple[StreamEvent, str]]:
    """All source events merged in deterministic processing-time order.

    Events are ordered by (ptime, source registration order, arrival
    order) — the exact replay order the serial executor uses.  The
    sharded runtime routes the *same* sequence through its shards, which
    is what lets its merged output reproduce the serial changelog
    byte for byte.

    Each source's events are already ptime-ordered (the ``until``
    cutoff has always relied on that), so concatenating the per-source
    lists in registration order and stable-sorting by ptime alone
    yields exactly the (ptime, source order, arrival order) sequence: a
    stable sort keeps the concatenation order among equal ptimes.
    Timsort's galloping mode makes that sort nearly linear over k
    already-sorted runs, and it runs entirely in C — measurably faster
    here than a Python-level k-way heap merge.
    """
    merged: list[tuple[StreamEvent, str]] = []
    append = merged.append
    for name, tvr in sources.items():
        for event in tvr.events():
            if until is not None and event.ptime > until:
                break
            append((event, name))
    merged.sort(key=_event_ptime)
    return merged


def _event_ptime(pair: tuple[StreamEvent, str]) -> Timestamp:
    return pair[0].ptime


def check_same_instant(events: Sequence[StreamEvent]) -> None:
    """The ``process_batch`` input contract, for either flow kind."""
    ptime = events[0].ptime
    for event in events:
        if not isinstance(event, RowEvent) or event.ptime != ptime:
            raise ExecutionError(
                "a batch must hold row events of a single processing-time "
                "instant"
            )


def count_edge(changes, producer, consumers) -> None:
    """Count one produced batch where it crosses an edge of the graph.

    ``changes`` — a ``list[Change]`` or a :class:`ColumnarBatch` — is
    sized and its retractions scanned **once**; the two numbers go to
    ``producer``'s out-counters (``None`` for a source payload, which
    no operator produced) and to the in-counters of every
    ``(consumer, port)`` it fans out to.
    """
    rows = len(changes)
    if rows == 1 and type(changes) is list:
        retracts = changes[0].kind is _RETRACT
    elif type(changes) is ColumnarBatch:
        retracts = changes.retract_count()
    else:
        retracts = len([c for c in changes if c.kind is _RETRACT])
    if producer is not None:
        producer.counters.rows_out += rows
    for consumer, port in consumers:
        consumer.counters.rows_in[port] += rows
    if retracts:
        if producer is not None:
            producer.counters.retracts_out += retracts
        for consumer, port in consumers:
            consumer.counters.retracts_in[port] += retracts


def stored_changes(
    stored: dict,
    key: str,
    histories: Optional[dict[str, list]],
    output_id: str,
) -> SegmentedLog:
    """One output's changelog out of its checkpoint entry, as the log a
    restored flow adopts: ``stored[key]`` — or, for a blob cut with
    ``histories=False``, the history the caller kept (codec segments or
    a plain ``list[Change]``), which must be as long as the cut
    recorded.  Segments stay encoded; no ``Change`` is built here."""
    if stored[key] is not None:
        return changes_log(stored[key])
    history = (histories or {}).get(output_id)
    log = changes_log(history)
    if history is None or len(log) != stored["size"]:
        raise ExecutionError(
            f"checkpoint carries no changelog for output {output_id!r} "
            "and no matching history was supplied"
        )
    return log


def event_runs(
    flow, events: Sequence[tuple[StreamEvent, str]]
) -> Iterator[tuple[int, list[StreamEvent], str]]:
    """The one run-grouping rule: ``(stop, run, source)`` per delivery.

    ``run`` is what ``flow`` is to be fed at once — row events of one
    source, or a single event — and ``stop`` how many of ``events`` are
    consumed once it is.  :func:`replay_runs` delivers the runs to a
    flow; a sharded ``run()`` partitions them, so its shards are fed
    shares of the very runs the serial executor forms.

    With ``batch_size > 1`` a run is a maximal stretch of row events of
    one source, capped at ``batch_size``, and only for sources
    ``batchable_source`` admits.  It spans processing-time instants
    where the flow allows (``flow.run_span_reason()`` is ``None``) and
    stays within one otherwise.  A watermark of the source and an event
    of another scanned source always break runs, so no operator ever
    sees its input watermark move inside a batch, and the batched
    changelog is byte-identical to the per-change one (see
    :meth:`Dataflow.process_batch`).  Every event a run consumes lies
    between its first and its last row's instant, so delivering it
    leaves the clock where the per-event feed would.
    """
    batch_size = flow.batch_size
    absorb = flow.lineage is None
    span = flow.run_span_reason() is None
    batchable: dict[str, bool] = {}  # memo: asked once per run otherwise
    i, n = 0, len(events)
    while i < n:
        event, source = events[i]
        run = [event]
        j = i + 1
        if batch_size > 1 and isinstance(event, RowEvent):
            ok = batchable.get(source)
            if ok is None:
                ok = batchable[source] = flow.batchable_source(source)
        else:
            ok = False
        if ok:
            ptime = event.ptime
            while j < n and len(run) < batch_size:
                nxt, nxt_source = events[j]
                if nxt.ptime != ptime and not span:
                    break
                if nxt_source != source:
                    # An event of another source no scan consumes is a
                    # clock no-op (nothing to deliver, and no timer can
                    # be due inside the run) — absorb it so one
                    # interleaved burst still forms one batch.  Only
                    # when no lineage recorder is claiming per-event
                    # ordinals.
                    if not absorb or flow.scans_source(nxt_source):
                        break
                elif isinstance(nxt, RowEvent):
                    run.append(nxt)
                else:
                    break
                j += 1
            # Absorbed events past the last row's instant would move the
            # clock beyond it: they open the next run instead.  Instants
            # never decrease, so they are a suffix of what was consumed.
            last = run[-1].ptime
            while events[j - 1][0].ptime != last:
                j -= 1
        yield j, run, source
        i = j


def replay_runs(flow, events: Sequence[tuple[StreamEvent, str]]) -> Iterator[int]:
    """Deliver a merged replay stream to ``flow`` run by run
    (:func:`event_runs`).

    Yields, after each delivery, how many of ``events`` have been
    consumed — behind ``replay`` of the serial and the sharded dataflow
    alike (and so behind the serial ``run()``, service catch-up and the
    shell's ``\\watch`` loop).  A run that spans instants — only a
    serial flow forms one — goes to the body of ``process_batch``
    without its one-instant check.
    """
    for stop, run, source in event_runs(flow, events):
        if not isinstance(run[0], RowEvent):
            flow.process(run[0], source)
        elif run[-1].ptime == run[0].ptime:
            flow.process_batch(run, source)
        else:
            flow._deliver(run, source)
        yield stop


@dataclass
class RunResult:
    """The output TVR of a dataflow run, plus runtime statistics.

    ``late_dropped``/``expired_rows``/``peak_state_rows`` are the
    headline totals; ``metrics`` is the full per-operator
    :class:`~repro.obs.metrics.MetricsReport` behind them (rows in/out,
    retractions, state peaks, watermark lag — and, for sharded runs,
    per-shard breakdowns with routing skew).
    """

    schema: Schema
    changes: list[Change]
    watermarks: WatermarkTrack
    last_ptime: Timestamp
    late_dropped: int = 0
    expired_rows: int = 0
    peak_state_rows: int = 0
    metrics: Optional[MetricsReport] = None

    def snapshot(self, at: Timestamp = MAX_TIMESTAMP) -> Relation:
        """Table rendering of the result at processing time ``at``."""
        from ..core.changelog import Changelog

        log = Changelog()
        for change in self.changes:
            if change.ptime <= at:
                log.append(change)
            else:
                break
        return log.snapshot_at(self.schema, at)


class OutputChannel:
    """One query's view of a (possibly shared) dataflow.

    Holds everything that is *per consuming query* rather than per
    physical operator: the root changelog (``log``: sealed segments
    from earlier cuts or a restore, then the live tail the executor
    extends), the output watermark track, the latency telemetry, and
    the plan whose completion columns drive it.  The physical operators
    below ``root`` may be shared with other channels of the same
    :class:`Dataflow`.

    Telemetry **settles on read**.  Emitting records nothing: a sample
    is a function of a change (its ``ptime``, its completion columns)
    and of the root watermark, which only moves at this channel's own
    watermark steps.  A step notes where the log ended and the
    watermark it leaves (:meth:`step`); :meth:`settle` derives the
    samples of ``log[settled:]`` from those notes in one pass, when
    :attr:`telemetry` is read and before the tail leaves (a cut seals
    it, a shard driver takes it, a late joiner adopts it).
    """

    __slots__ = (
        "output_id", "plan", "_root", "root_name", "completion",
        "log", "watermarks", "settled", "steps", "_telemetry",
    )

    def __init__(self, output_id: str, plan: QueryPlan, root: Operator):
        self.output_id = output_id
        self.plan = plan
        self._root = weakref.ref(root)
        self.root_name = root.name()
        self.completion = plan.root.completion_indices
        self.adopt(changes_log(), WatermarkTrack(), RunTelemetry(), 0)

    @property
    def root(self) -> Operator:
        """The root operator, which the flow owns: a report that outlives
        its flow keeps the channel's log, not its operators' state."""
        return self._root()

    def adopt(
        self,
        log: SegmentedLog,
        watermarks: WatermarkTrack,
        telemetry: RunTelemetry,
        settled: int,
    ) -> None:
        """Take over a history (a restored cut's, a donor's):
        ``telemetry`` already covers ``log`` up to position ``settled``."""
        self.log = log
        self.watermarks = watermarks
        self._telemetry = telemetry
        self.settled = settled
        self.steps: list[tuple[int, Timestamp]] = []

    def restore(
        self,
        log: SegmentedLog,
        wm_pairs: Sequence[tuple[Timestamp, Timestamp]],
        telemetry: dict,
    ) -> None:
        """Install a cut's history; the stored telemetry covers the
        whole stored log."""
        watermarks = WatermarkTrack()
        for ptime, value in wm_pairs:
            watermarks.advance(ptime, value)
        restored = RunTelemetry()
        restored.restore(telemetry)
        self.adopt(log, watermarks, restored, len(log))

    def step(self, ptime: Timestamp, value: Timestamp) -> None:
        """A root watermark step: what the log holds past the last note
        was emitted at the watermark this step leaves."""
        log = self.log
        end = log.base + len(log.tail)
        if end > (self.steps[-1][0] if self.steps else self.settled):
            self.steps.append((end, self.watermarks.current))
        self.watermarks.advance(ptime, value)

    def settle(self) -> None:
        """Derive the telemetry samples of ``log[settled:]``: each noted
        step's run at the watermark it left, the rest at the current
        one.  A position below the live tail (a settle point was missed
        before a seal) is decoded for the occasion: that may cost time,
        never samples."""
        log = self.log
        end = log.base + len(log.tail)
        start = self.settled
        if start < end:
            changes = log.slice(start)
            for stop, watermark in self.steps + [(end, self.watermarks.current)]:
                if stop > start:
                    self._telemetry.record_emit_run(
                        changes[start - self.settled:stop - self.settled],
                        self.completion,
                        watermark,
                    )
                    start = stop
            self.settled = end
        self.steps = []

    @property
    def telemetry(self) -> RunTelemetry:
        """The channel's latency telemetry, settled up to now."""
        self.settle()
        return self._telemetry


class OutputLogs:
    """Reading a flow's output changelogs, for either flow kind: each
    value of ``_outputs`` keeps its changelog as ``log``, a
    :class:`~repro.core.codec.SegmentedLog`, and ``_touched`` names the
    outputs whose log grew since somebody last asked."""

    _outputs: dict
    _touched: set

    def take_touched(self) -> set:
        """The outputs whose changelog may have grown since the last
        take (a hint: a superset is legal).  A driver that publishes
        per delivery reads this instead of polling every output; the
        result may be the live (empty) set — read it, don't keep it."""
        touched = self._touched
        if touched:
            self._touched = set()
        return touched

    def output_size_of(self, output_id: str) -> int:
        log = self._outputs[output_id].log
        return log.base + len(log.tail)

    def output_slice_of(self, output_id: str, start: int = 0) -> list[Change]:
        """Changes from position ``start`` on.  At or past the last cut
        (every live reader) that is a slice of the tail — inlined here,
        so the live path makes no call into the log; below it the
        sealed segments are decoded for this call."""
        log = self._outputs[output_id].log
        base = log.base
        if start >= base:
            return log.tail[start - base:]
        return log.slice(start)

    def output_segments_of(self, output_id: str, start: int = 0) -> list:
        """The changelog from position ``start`` — 0 or a position an
        earlier cut was taken at — as codec segments, sealing the tail:
        what an append-only log of the output gains at a cut."""
        return self._outputs[output_id].log.segments(start)

    def history_items_of(self, output_id: str) -> dict[str, int]:
        """How much of the output's history rests encoded (``sealed``:
        behind the last cut or restore) and how much is resident as
        ``Change`` objects (``live``)."""
        log = self._outputs[output_id].log
        return {"sealed": log.base, "live": len(log.tail)}


class Dataflow(OutputLogs):
    """A compiled, source-bound, runnable query (or DAG of queries).

    ``config`` is the resolved ``ExecutionConfig`` the flow runs under
    (already validated); the flow reads ``allowed_lateness``,
    ``batch_size``, ``coalesce_updates`` and ``columnar`` from it.
    """

    def __init__(
        self,
        plan: QueryPlan,
        sources: dict[str, TimeVaryingRelation],
        config,
        output_id: str = "main",
    ):
        self._init_graph(sources, config)
        self.plan = plan
        self._primary = output_id
        # The first output is attached like any later one: onto an
        # empty graph nothing is resident, so every node builds fresh.
        self.attach_output(output_id, plan)

    def _init_graph(
        self, sources: dict[str, TimeVaryingRelation], config
    ) -> None:
        """The execution knobs and the empty graph, shared by both
        construction paths (:meth:`__init__` and :meth:`from_structure`)."""
        #: the resolved ``ExecutionConfig`` this flow runs under.
        self.config = config
        #: maximum row events delivered per micro-batch; 1 = per-change.
        self.batch_size = config.batch_size
        #: whether intra-instant insert/retract churn is compacted.
        self.coalesce_updates = config.coalesce_updates
        self._columnar_active = runs_columnar(config)
        self._sources: dict[str, TimeVaryingRelation] = {
            name.lower(): tvr for name, tvr in sources.items()
        }
        self._operators: list[Operator] = []
        self._outputs: dict[str, OutputChannel] = {}
        #: id(root op) -> the output channels rooted at it
        self._outputs_of: dict[int, list[OutputChannel]] = {}
        #: id(op) -> [(consumer op, input port)], in attach order
        self._consumers: dict[int, list[tuple[Operator, int]]] = {}
        #: id(op) -> [(input port, producer op)]
        self._producers: dict[int, list[tuple[int, Operator]]] = {}
        #: id(op) -> number of output channels reading through it
        self._op_refs: dict[int, int] = {}
        #: id(op) -> canonical fingerprint of its logical subtree
        self._op_fps: dict[int, str] = {}
        #: fingerprint -> resident operator (first registered wins)
        self._fp_index: dict[str, Operator] = {}
        #: id(logical node) -> the operator built for it — the
        #: correlation donor transplants rely on.
        self._plan_node_ops: dict[int, Operator] = {}
        self._leaves: list[ScanOperator] = []
        self._leaves_by_source: dict[str, list[ScanOperator]] = {}
        self._values_rows: dict[int, tuple] = {}
        self._touched: set[str] = set()
        self._last_ptime: Timestamp = MIN_TIMESTAMP
        self._peak_state = 0
        self._opened = False
        #: optional trace hook: a callable receiving
        #: :class:`~repro.obs.trace.TraceEvent` on every primary-output
        #: change batch and watermark advance.
        self.trace: Optional[Callable[[TraceEvent], None]] = None
        #: optional lineage recorder (see :mod:`repro.obs.lineage`);
        #: install via :meth:`set_lineage`.  Tracing threads a *cause*
        #: token alongside batches and never touches the changes
        #: themselves, so the changelog is byte-identical either way.
        self.lineage: Optional[LineageRecorder] = None
        self._lineage_shard: Optional[int] = None
        self._lineage_register_outputs = True
        #: processing-time timer service; operators bind to the queue,
        #: never to the flow, so a dropped flow is not cyclic garbage.
        self._timers = TimerQueue()

    def _install(
        self, op: Operator, node: LogicalNode, fp: str, children: list[Operator]
    ) -> None:
        """Wire a freshly built (or transplanted) operator into the graph.

        The one registration block: edges to its producers, the
        residency index, scan-leaf and VALUES bookkeeping, timers.  The
        caller places ``op`` in the operator list.
        """
        for port, child in enumerate(children):
            self._consumers.setdefault(id(child), []).append((op, port))
            self._producers.setdefault(id(op), []).append((port, child))
        self._op_fps[id(op)] = fp
        # First registration wins; a plan scanning one source twice
        # (NEXMark Q7) keeps both operators — sharing only dedups
        # across attach boundaries, never inside one plan.
        self._fp_index.setdefault(fp, op)
        self._plan_node_ops[id(node)] = op
        if not node.inputs:  # a scan, VALUES, or a merge plan's combine
            self._register_leaf(op)
        if isinstance(node, ValuesNode):
            self._values_rows[id(op)] = node.rows
        op.bind_timers(self._timers)

    def _exec_root(self, plan: QueryPlan) -> LogicalNode:
        """The logical root this flow actually compiles for ``plan``.

        In columnar mode the plan is fused first
        (:mod:`repro.plan.pipeline`): aggregates absorb their
        column-selecting Projects — unless the flow compacts
        (``coalesce_updates``) — and Filter/Project/Tumble chains become
        :class:`~repro.plan.pipeline.PipelineNode` steps.  The fused
        tree is memoized per plan object so every correlation keyed by
        node identity (donor transplants, checkpoint recipes, sharded
        shard-plan sharing) sees the same objects.
        """
        if self._columnar_active:
            return get_fused_root(plan, absorb=not self.coalesce_updates)
        return plan.root

    def _register_leaf(self, leaf: Operator) -> None:
        key = leaf.source_name.lower()
        self._leaves.append(leaf)
        self._leaves_by_source.setdefault(key, []).append(leaf)
        # ("$"-names are fed by the engine itself: VALUES preludes and
        # the partial payloads of a merge plan.)
        if not key.startswith("$") and key not in self._sources:
            raise ExecutionError(f"no source registered for {leaf.source_name!r}")

    # -- public API -----------------------------------------------------------

    @property
    def operators(self) -> list[Operator]:
        return list(self._operators)

    def telemetry_of(self, output_id: str) -> RunTelemetry:
        """Latency telemetry sampled at one output channel's root."""
        return self._outputs[output_id].telemetry

    def set_lineage(
        self,
        recorder: Optional[LineageRecorder],
        shard: Optional[int] = None,
        register_outputs: bool = True,
    ) -> None:
        """Install (or remove) a lineage recorder on this flow.

        ``shard`` tags recorded operator nodes with a shard index; a
        shard flow of a :class:`~repro.runtime.sharded.ShardedDataflow`
        passes ``register_outputs=False`` because its local changelog
        positions differ from the merged ones — the parent assigns the
        merged positions via the recorder's shard notes.
        """
        self.lineage = recorder
        self._lineage_shard = shard
        self._lineage_register_outputs = register_outputs
        self._span_changed()

    def output_ids(self) -> list[str]:
        """The attached output channels, in attach order."""
        return list(self._outputs)

    def root_watermark_of(self, output_id: str) -> Timestamp:
        return self._outputs[output_id].watermarks.current

    def take_output_of(self, output_id: str) -> list[Change]:
        """Hand over what ``output_id`` produced since the last take.

        For a driver that is the channel's only reader (the sharded
        runtime's shard drive loop): the channel forgets what it hands
        out, so the flow retains — and checkpoints — no output history.
        An empty result may be the live channel list; test it, don't
        keep it.
        """
        channel = self._outputs[output_id]
        log = channel.log
        taken = log.tail
        if taken:
            channel.settle()  # while the tail is still here to read
            log.tail = []
            channel.settled = log.base
        return taken

    def output_segments_of(self, output_id: str, start: int = 0) -> list:
        self._outputs[output_id].settle()  # sealing takes the tail's objects
        return super().output_segments_of(output_id, start)

    def total_state_rows(self) -> int:
        """Rows currently retained across all operator state."""
        return sum(op.state_size() for op in self._operators)

    def state_rows_of(self, output_id: str) -> int:
        """Rows retained by the operators ``output_id`` reads through.

        Shared operators count toward *every* consuming output — the
        conservative attribution tenant quotas want.
        """
        channel = self._outputs[output_id]
        return sum(op.state_size() for op in self._reachable_ops(channel.root))

    def rows_ingested(self) -> int:
        """Rows delivered to this dataflow's scan leaves so far.

        On a shard this is exactly the rows the hash router assigned to
        it — the per-shard skew signal the dashboard and the merged
        metrics report display.
        """
        return sum(sum(leaf.counters.rows_in) for leaf in self._leaves)

    def state_report(self):
        """Per-operator state breakdown (the Section 5 feedback lesson)."""
        from .state import collect_state

        return collect_state(self)

    # -- multi-query sharing ------------------------------------------------------

    def plan_overlap(self, plan: QueryPlan) -> int:
        """How many of ``plan``'s logical nodes resident subplans cover.

        The session's :class:`~repro.service.session.SharedPlanCache`
        uses this to pick the best host flow for a new standing query.
        """
        root_node = self._exec_root(plan)
        fps = node_fingerprints(root_node)
        covered = 0

        pending = [root_node]
        while pending:
            node = pending.pop()
            if fps[id(node)] in self._fp_index:
                covered += subtree_size(node)
            else:
                pending.extend(node.inputs)
        return covered

    def shared_by(self, op: Operator) -> int:
        """Output channels currently reading through ``op``."""
        return self._op_refs.get(id(op), 0)

    def shared_operator_count(self) -> int:
        """Resident operators read by two or more output channels."""
        return sum(
            1 for op in self._operators if self._op_refs.get(id(op), 0) >= 2
        )

    def attached_operator_count(self) -> int:
        """Total operators summed per output (the sharing-ratio numerator)."""
        return sum(
            len(self._reachable_ops(channel.root))
            for channel in self._outputs.values()
        )

    def resident_operator_count(self) -> int:
        """Physical operators resident (the sharing-ratio denominator)."""
        return len(self._operators)

    def sharing_map(self) -> dict[str, list[int]]:
        """Per output, the operator-list indices its plan resolves to.

        Post-order per output; the structural recipe a checkpoint
        manifest records and :meth:`from_structure` rebuilds from.
        """
        op_index = {id(op): i for i, op in enumerate(self._operators)}
        return {
            output_id: [op_index[id(op)] for op in self._channel_node_ops(ch)]
            for output_id, ch in self._outputs.items()
        }

    def structure(self) -> dict:
        """The physical sharing recipe :meth:`from_structure` rebuilds
        from: operator order plus each output's ``node_ops``, stamped
        with the format that reads it."""
        return {
            "op_types": [type(op).__name__ for op in self._operators],
            "output_order": list(self._outputs),
            "outputs": {
                output_id: {"node_ops": node_ops}
                for output_id, node_ops in self.sharing_map().items()
            },
            "version": CHECKPOINT_VERSION,
        }

    def attach_output(
        self,
        output_id: str,
        plan: QueryPlan,
        donor: Optional["Dataflow"] = None,
        allow_root_share: bool = True,
    ) -> OutputChannel:
        """Graft ``plan`` onto this dataflow as a new output channel.

        Every subtree of ``plan`` whose canonical fingerprint matches a
        resident operator reuses that operator; the remaining (private)
        suffix is built fresh — from ``donor`` when given, a throwaway
        dataflow compiled from the *same* ``plan`` object that has
        already replayed the sources' history.  Transplanting the
        donor's private operators (with their state, pending timers,
        and output history) is what lets a late-arriving query catch up
        to the host flow's position without replaying through shared
        state.  The donor's own copies of the shared prefix are simply
        discarded: by determinism their state equals the resident one.

        ``allow_root_share=False`` blocks sharing at the root node only
        (used when two plans agree structurally but differ in EMIT
        clause, so their changelogs coincide but their materialization
        does not).
        """
        if output_id in self._outputs:
            raise ExecutionError(f"output {output_id!r} is already attached")
        if donor is not None:
            if donor._opened and not self._opened:
                raise ExecutionError(
                    "cannot transplant from an opened donor into an "
                    "unopened dataflow"
                )
            if self._opened:
                donor._open()
        root_node = self._exec_root(plan)
        fps = node_fingerprints(root_node)
        # Matching consults a snapshot of the index: a plan must never
        # dedup against itself (see the Q7 note in _install).
        index = dict(self._fp_index)
        new_ops: list[Operator] = []

        # ``build`` recurses through its own argument: a closure that
        # named itself would be a reference cycle holding this flow.
        def build(node: LogicalNode, build) -> Operator:
            fp = fps[id(node)]
            resident = index.get(fp)
            if resident is not None and (
                allow_root_share or node is not root_node
            ):
                return resident
            children = [build(child, build) for child in node.inputs]
            if donor is not None:
                op = donor._plan_node_ops[id(node)]
            else:
                op = build_operator(
                    node, children, self.config.allowed_lateness
                )
            self._install(op, node, fp, children)
            self._operators.append(op)
            new_ops.append(op)
            return op

        channel = self._open_channel(output_id, plan, build(root_node, build))
        self._graph_changed()
        if donor is not None:
            # The donor is a throwaway: adopt its history, don't copy it.
            donor_primary = donor._outputs[donor._primary]
            channel.adopt(
                donor_primary.log,
                donor_primary.watermarks,
                donor_primary.telemetry,
                donor_primary.settled,
            )
            new_ids = {id(op) for op in new_ops}
            for when, _, op in sorted(donor._timers):
                if id(op) in new_ids:
                    self._timers.schedule(when, op)
            self._last_ptime = max(self._last_ptime, donor._last_ptime)
            self._peak_state = max(self._peak_state, donor._peak_state)
        return channel

    def _graph_changed(self) -> None:
        """What is derived from the operator graph, re-derived: the
        state-sweep registry and the run shapes."""
        self.metrics_registry = MetricsRegistry(self._operators)
        self._split_reason = why_runs_split(
            self._columnar_active,
            (
                self._reachable_ops(channel.root)
                for channel in self._outputs.values()
            ),
        )
        self._span_changed()

    def _span_changed(self) -> None:
        """Re-derive the run span: the graph or the recorder changed."""
        self._span_reason = why_runs_stay_per_instant(
            self._operators, self.lineage is not None, self.coalesce_updates
        )

    def run_span_reason(self) -> Optional[str]:
        """Why :func:`event_runs` keeps this flow's runs within one
        processing-time instant — or ``None``: a run of one source's
        rows may span instants, up to the next watermark.  Decided from
        the plan and the recorder
        (:func:`~repro.exec.compile.why_runs_stay_per_instant`), like
        :meth:`run_split_reason`."""
        return self._span_reason

    def run_split_reason(self) -> Optional[str]:
        """Why a driver that attributes output by sequence number (a
        shard's drive loop) must split its share of a run at sequence
        gaps — or ``None``: the share may be fed whole, gaps and all,
        with ``process_batch(events, source, seqs)``, because every
        output's root ships the numbers with what it produces.  Decided
        from the plan alone, so every flow built from one structure
        answers alike (``ShardedDataflow.run_split_reason`` adds what
        the sharded flow itself knows)."""
        return self._split_reason

    def _open_channel(
        self, output_id: str, plan: QueryPlan, root_op: Operator
    ) -> OutputChannel:
        """Root a new output channel at ``root_op``, taking one
        reference on every operator it reads through."""
        for op in self._reachable_ops(root_op):
            self._op_refs[id(op)] = self._op_refs.get(id(op), 0) + 1
        channel = OutputChannel(output_id, plan, root_op)
        self._outputs[output_id] = channel
        self._outputs_of.setdefault(id(root_op), []).append(channel)
        return channel

    def remove_output(self, output_id: str) -> bool:
        """Detach an output channel, tearing down *only* unshared operators.

        Each operator the channel read through loses one reference;
        operators still referenced by a surviving output keep their
        state, timers, and position untouched (the ref-count invariant
        the withdrawal bugfix pins).
        """
        channel = self._outputs.pop(output_id, None)
        if channel is None:
            return False
        self._touched.discard(output_id)
        siblings = self._outputs_of.get(id(channel.root))
        if siblings is not None:
            siblings.remove(channel)
            if not siblings:
                del self._outputs_of[id(channel.root)]
        for op in self._reachable_ops(channel.root):
            self._op_refs[id(op)] -= 1
        dead = {
            id(op)
            for op in self._operators
            if self._op_refs.get(id(op), 0) <= 0
        }
        if dead:
            self._operators = [
                op for op in self._operators if id(op) not in dead
            ]
            self._leaves = [
                leaf for leaf in self._leaves if id(leaf) not in dead
            ]
            for key in list(self._leaves_by_source):
                kept = [
                    leaf
                    for leaf in self._leaves_by_source[key]
                    if id(leaf) not in dead
                ]
                if kept:
                    self._leaves_by_source[key] = kept
                else:
                    del self._leaves_by_source[key]
            for op_id in dead:
                self._op_refs.pop(op_id, None)
                self._op_fps.pop(op_id, None)
                self._producers.pop(op_id, None)
                self._consumers.pop(op_id, None)
                self._values_rows.pop(op_id, None)
            for op_id, edges in list(self._consumers.items()):
                self._consumers[op_id] = [
                    (consumer, port)
                    for consumer, port in edges
                    if id(consumer) not in dead
                ]
            self._fp_index = {}
            for op in self._operators:
                self._fp_index.setdefault(self._op_fps[id(op)], op)
            self._plan_node_ops = {
                node_id: op
                for node_id, op in self._plan_node_ops.items()
                if id(op) not in dead
            }
            self._timers.discard(dead)
        self._graph_changed()
        return True

    @classmethod
    def from_structure(
        cls,
        plans: Sequence[tuple[str, QueryPlan]],
        structure: dict,
        sources: dict[str, TimeVaryingRelation],
        config,
    ) -> "Dataflow":
        """Rebuild the exact physical sharing structure of a checkpoint.

        ``structure`` is a checkpoint payload (or the structural subset
        of one): ``op_types`` fixes the operator-list length and order,
        and each output's ``node_ops`` says which operator index every
        plan node resolved to when the checkpoint was cut.  Re-running
        fingerprint matching could legally produce a *different*
        physical sharing (withdrawals reorder the residency index), and
        then the checkpointed operator states would not line up; the
        recipe makes restore structure-exact.  Call :meth:`restore`
        with the full checkpoint afterwards to fill the states.
        """
        check_checkpoint_version(structure)
        if [oid for oid, _ in plans] != list(structure["output_order"]):
            raise ExecutionError(
                "checkpoint outputs do not match the plans being restored"
            )
        self = object.__new__(cls)
        self._init_graph(sources, config)
        slots: list[Optional[Operator]] = [None] * len(structure["op_types"])
        self._operators = slots  # filled in place below
        for output_id, plan in plans:
            node_ops = structure["outputs"][output_id]["node_ops"]
            root_node = self._exec_root(plan)
            if subtree_size(root_node) != len(node_ops):
                raise ExecutionError(_PLAN_MISMATCH)
            fps = node_fingerprints(root_node)
            pos = 0

            # (self-passing for the same reason as in attach_output)
            def build(node: LogicalNode, build) -> Operator:
                nonlocal pos
                children = [build(child, build) for child in node.inputs]
                index = node_ops[pos]
                pos += 1
                op = slots[index]
                if op is None:
                    op = slots[index] = build_operator(
                        node, children, self.config.allowed_lateness
                    )
                    self._install(op, node, fps[id(node)], children)
                return op

            self._open_channel(output_id, plan, build(root_node, build))
        if any(op is None for op in slots):
            raise ExecutionError(
                "checkpoint structure references operators no output builds"
            )
        if [type(op).__name__ for op in slots] != structure["op_types"]:
            raise ExecutionError(_PLAN_MISMATCH)
        self._primary, self.plan = plans[0][0], plans[0][1]
        self._graph_changed()
        return self

    # -- checkpoint / recovery ---------------------------------------------------

    @collector_paused
    def checkpoint(self, histories: bool = True) -> bytes:
        """A consistent snapshot of the whole dataflow, as bytes.

        This is the capability Appendix B.2.1 describes for Flink:
        "Flink periodically writes a consistent checkpoint of the
        application state … For recovery, the application is restarted
        and all operators are initialized with the state of the last
        completed checkpoint."  Feed the remaining source events to the
        restored dataflow and the results are identical to an
        uninterrupted run (see ``tests/test_checkpoint.py``).

        Snapshot by serialization: operators hand out references into
        their live state (:meth:`Operator.state_snapshot`) and the
        pickle taken here is the one and only copy.  Each output's live
        tail is *sealed* — encoded into one more codec segment
        (:mod:`repro.core.codec`), so a change is encoded once however
        many cuts follow — and the blob carries the segments joined
        into one triple.  ``histories=False`` leaves them out — for a
        caller that keeps each output's changelog in an append-only log
        of its own (the service session: :meth:`output_segments_of`)
        and hands it back to :meth:`restore`.

        Shared operator state is snapshotted once (the operator list
        holds each physical operator exactly once, however many outputs
        read it), and per-output ``node_ops`` recipes record the
        sharing structure for :meth:`from_structure`.

        Call between events (the incremental ``process`` API), not from
        inside a callback.
        """
        op_index = {id(op): i for i, op in enumerate(self._operators)}
        payload = self.structure()
        for output_id, channel in self._outputs.items():
            telemetry = channel.telemetry.snapshot()  # settles, then seal
            log = channel.log
            log.seal()
            payload["outputs"][output_id].update(
                changes=concat_segments(log.sealed) if histories else None,
                size=log.base,
                wm_pairs=channel.watermarks.as_pairs(),
                telemetry=telemetry,
            )
        payload.update(
            op_states=[op.state_snapshot() for op in self._operators],
            last_ptime=self._last_ptime,
            peak_state=self._peak_state,
            opened=self._opened,
            timers=[
                (when, seq, op_index[id(op)])
                for when, seq, op in self._timers
            ],
            timer_seq=self._timers.seq,
            # Shard flows don't own the recorder (the sharded parent
            # snapshots it once); only the owning flow persists it.
            lineage=(
                self.lineage.snapshot()
                if self.lineage is not None and self._lineage_register_outputs
                else None
            ),
        )
        return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)

    @collector_paused
    def restore(
        self,
        checkpoint,
        histories: Optional[dict[str, list]] = None,
    ) -> None:
        """Restore a checkpoint taken from a dataflow of the same structure.

        Only a cut of format :data:`CHECKPOINT_VERSION` restores; any
        other is refused before any of it is used
        (:func:`check_checkpoint_version`), as is a cut of another plan.
        ``checkpoint`` is the bytes :meth:`checkpoint` returned, or the
        payload already unpickled from them (a caller that needed the
        structure for :meth:`from_structure` decodes once and passes the
        payload on).  Either way the flow takes **ownership**: operators
        adopt the decoded state objects and mutate them from then on,
        so one decoded payload restores one flow.  ``histories`` supplies
        the output changelogs of a blob cut with ``histories=False``,
        per output as codec segments or a plain ``list[Change]``.

        Output changelogs are adopted *encoded*: restoring builds no
        ``Change``, and costs what the operator state costs.  Reading a
        restored output below the cut (:meth:`result`,
        ``output_slice_of(oid, 0)``) decodes it then.
        """
        payload = (
            checkpoint
            if isinstance(checkpoint, dict)
            else pickle.loads(checkpoint)
        )
        check_checkpoint_version(payload)
        operators = self._operators
        if payload["op_types"] != [type(op).__name__ for op in operators]:
            raise ExecutionError(_PLAN_MISMATCH)
        if set(payload["output_order"]) != set(self._outputs):
            raise ExecutionError(
                "checkpoint does not match this dataflow's outputs"
            )
        for op, snapshot in zip(operators, payload["op_states"]):
            op.state_restore(snapshot)
        for output_id, stored in payload["outputs"].items():
            self._outputs[output_id].restore(
                stored_changes(stored, "changes", histories, output_id),
                stored["wm_pairs"],
                stored["telemetry"],
            )
        self._last_ptime = payload["last_ptime"]
        self._peak_state = payload["peak_state"]
        self._opened = payload["opened"]
        self._timers.restore(payload["timers"], operators, payload["timer_seq"])
        if payload["lineage"] is not None:
            self.set_lineage(LineageRecorder.restore(payload["lineage"]))

    @collector_paused
    def run(self, until: Optional[Timestamp] = None) -> RunResult:
        """Replay all source events (up to ``until``) and collect the result.

        The replay stream is delivered in the runs :meth:`replay`
        forms.  After the last event, pending processing-time timers
        (e.g. tail-of-stream expirations) are drained so the returned
        changelog covers the relation's full known future evolution;
        the materializers then truncate to the instant being queried.
        """
        self._open()
        for _ in self.replay(merge_source_events(self._sources, until)):
            pass
        return self.finish(until)

    def replay(self, events: Sequence[tuple[StreamEvent, str]]) -> Iterator[int]:
        """Deliver a merged replay stream run by run (:func:`replay_runs`)."""
        return replay_runs(self, events)

    def process(self, event: StreamEvent, source: str) -> None:
        """Feed one source event through the dataflow (incremental API).

        A row event is a batch of one; only the watermark branch is
        written here.
        """
        if isinstance(event, RowEvent):
            self.process_batch((event,), source)
            return
        leaves, cause, fired = self._arrive((event,), source)
        for leaf in leaves:
            self._push_watermark(leaf, 0, event.value, event.ptime, cause)
        if leaves or fired:
            self._observe_state()

    def process_batch(
        self,
        events: Sequence[RowEvent],
        source: str,
        seqs: Optional[Sequence[int]] = None,
    ) -> None:
        """Feed a run of same-instant row events through the dataflow at once.

        Because every operator's batch output is the ordered
        concatenation of its per-change outputs (the :meth:`on_batch`
        contract), delivering a run this way produces — by induction
        over the operator tree — exactly the root changes that feeding
        the events one at a time would have produced, in the same
        order.  Timers due at the batch's instant fire first, as they
        would have before the run's first event; none can fire *inside*
        the run, since operators only ever schedule deadlines strictly
        after the current instant.

        ``seqs`` is for a shard's share of a run (the sharded runtime's
        drive loop): one sequence number per event, not necessarily
        consecutive, which rides the columnar batch to every root, which
        ships it with what the share produced — so the rows keep their
        places in the run.  Only a flow whose :meth:`run_split_reason`
        is ``None`` can take them.
        """
        if not events:
            return
        if seqs is not None and self._split_reason is not None:
            raise ExecutionError(
                "this flow cannot carry sequence numbers to its outputs: "
                f"{self._split_reason}"
            )
        check_same_instant(events)
        self._deliver(events, source, seqs)

    def _deliver(
        self,
        events: Sequence[RowEvent],
        source: str,
        seqs: Optional[Sequence[int]] = None,
    ) -> None:
        """The one delivery body of a run of row events: that of
        :meth:`process_batch`, and of a run :func:`replay_runs` formed
        across instants (``run_span_reason() is None``: no timer can
        come due inside it, so the on-batch contract carries over — each
        change still rides at its own ``ptime``).  The state peak is
        sampled once per delivery, as at the end of any run."""
        leaves, cause, fired = self._arrive(events, source)
        if leaves:
            payload = [event.change for event in events]
            if self._columnar_active and (len(payload) > 1 or seqs is not None):
                # One transposition up front; the batch retains the
                # rows, so a row-only pipeline converts back for free.
                # (A batch of one stays rows: nothing to amortize —
                # unless it has a sequence number to carry.)
                payload = ColumnarBatch.from_changes(
                    payload, len(leaves[0].schema)
                )
                payload.seqs = seqs
            # The graph's entry edges, counted like any other (no
            # operator produced the payload).
            count_edge(payload, None, [(leaf, 0) for leaf in leaves])
            for leaf in leaves:
                self._push_changes(leaf, 0, payload, cause)
        if leaves or fired:
            self._observe_state()

    def _arrive(
        self, events: Sequence[StreamEvent], source: str
    ) -> tuple[Sequence[ScanOperator], Optional[tuple[int, ...]], bool]:
        """The prelude of every delivery, for one run's ``events``: order
        check, the timers due at its first instant, the clock advanced
        to its last, lineage claim.  Returns the scan leaves to deliver
        to, the cause token, and whether a timer fired."""
        self._open()
        ptime = events[0].ptime
        if ptime < self._last_ptime:
            raise ExecutionError("events must be fed in processing-time order")
        fired = self._timers.due(ptime)
        if fired:
            self._fire_timers(ptime)
        last = events[-1].ptime
        if last > self._last_ptime:
            self._last_ptime = last
        recorder = self.lineage
        cause = None if recorder is None else recorder.claim(source, events)
        return self._leaves_by_source.get(source.lower(), ()), cause, fired

    def _observe_state(self) -> None:
        """The epilogue of a delivery in which some operator ran (a
        clock-only event moves no state size): one sweep over the
        operators that keep state both tracks the dataflow-wide peak
        and refreshes the per-operator state peaks the metrics layer
        reports."""
        state = self.metrics_registry.observe_state()
        if state > self._peak_state:
            self._peak_state = state

    def batchable_source(self, source: str) -> bool:
        """Whether ``source`` events may be batched without reordering.

        True when the source feeds exactly one scan leaf with at most
        one consumer.  A source scanned several times (NEXMark Q7's
        ``Bid``) must deliver each event to every scan before the next
        event arrives; a *shared* scan with several consumer edges has
        the same per-event interleaving obligation.  A source no scan
        consumes at all is trivially batchable: its events only advance
        the processing-time clock (identically per run or per event,
        since a run holds a single instant).
        """
        leaves = self._leaves_by_source.get(source.lower(), ())
        if not leaves:
            return True
        if len(leaves) != 1:
            return False
        return len(self._consumers.get(id(leaves[0]), ())) <= 1

    def scans_source(self, source: str) -> bool:
        """Whether any scan leaf consumes ``source``."""
        return bool(self._leaves_by_source.get(source.lower()))

    def changes_coalesced(self) -> int:
        """Changes dropped by intra-instant compaction, over all operators."""
        return sum(op.counters.changes_coalesced for op in self._operators)

    def finish(self, until: Optional[Timestamp] = None) -> RunResult:
        """Drain pending processing-time timers and return the result.

        The incremental counterpart of the drain ``run()`` performs
        after its last event — use it when driving ``process`` by hand
        and the query has timer-driven operators (tail-of-stream
        views).
        """
        self._fire_timers(until if until is not None else MAX_TIMESTAMP)
        return self.result()

    def result(self) -> RunResult:
        """The result accumulated so far (primary output).

        The drop/expiry totals iterate *every* operator through the
        uniform counters on the base class — an operator that starts
        dropping late rows is accounted for by construction, with no
        per-class allowlist to forget (the old ``isinstance`` tuple
        silently lost OVER and MATCH_RECOGNIZE drops).
        """
        channel = self._outputs[self._primary]
        operators = self._reachable_ops(channel.root)
        return RunResult(
            schema=channel.plan.schema,
            changes=channel.log.slice(0),
            watermarks=channel.watermarks,
            last_ptime=self._last_ptime,
            late_dropped=sum(op.late_dropped for op in operators),
            expired_rows=sum(op.expired_rows for op in operators),
            peak_state_rows=self._peak_state,
            metrics=self.metrics_report(),
        )

    def metrics_report(self, output_id: Optional[str] = None) -> MetricsReport:
        """The per-operator metrics, shaped as an output's plan tree.

        Entries carry a ``depth`` for rendering, a ``leaf`` flag
        (no inputs wired — the scans rows are routed into), and a
        ``shared_by`` count (output channels reading the operator; the
        renderer annotates entries with ``[shared ×k]`` when k ≥ 2).
        """
        channel = self._outputs[output_id or self._primary]
        entries: list[dict] = []

        pending = [(channel.root, 0)]  # pre-order, inputs in port order
        while pending:
            op, depth = pending.pop()
            producers = sorted(
                self._producers.get(id(op), []), key=lambda pc: pc[0]
            )
            entry = op.metrics()
            entry["depth"] = depth
            entry["leaf"] = not producers
            entry["shared_by"] = self._op_refs.get(id(op), 1)
            entries.append(entry)
            pending.extend(
                (child, depth + 1) for _, child in reversed(producers)
            )
        return MetricsReport(operators=entries, source=channel)

    # -- internals ---------------------------------------------------------------

    def _reachable_ops(self, root_op: Operator) -> list[Operator]:
        """Operators reachable from ``root_op`` along producer edges,
        children before parents, each exactly once."""
        seen: set[int] = set()
        order: list[Operator] = []
        pending = [(root_op, False)]
        while pending:
            op, expanded = pending.pop()
            if expanded:
                order.append(op)
            elif id(op) not in seen:
                seen.add(id(op))
                pending.append((op, True))
                pending.extend(
                    (child, False)
                    for _, child in reversed(self._producers.get(id(op), ()))
                )
        return order

    def _channel_node_ops(self, channel: OutputChannel) -> list[Operator]:
        """The operator every plan node of ``channel`` resolves to, in
        plan post-order (descending *through* shared operators)."""
        ops: list[Operator] = []
        self._collect_node_ops(self._exec_root(channel.plan), channel.root, ops)
        return ops

    def _collect_node_ops(
        self, node: LogicalNode, op: Operator, ops: list[Operator]
    ) -> None:
        # A method, not a closure: one that named itself would be a
        # reference cycle holding this flow.
        producers = sorted(
            self._producers.get(id(op), ()), key=lambda pc: pc[0]
        )
        for child_node, (_, child_op) in zip(node.inputs, producers):
            self._collect_node_ops(child_node, child_op, ops)
        ops.append(op)

    def _open(self) -> None:
        if self._opened:
            return
        self._opened = True
        # Open every operator first (children before parents), then
        # propagate initial rows (e.g. the global aggregate's
        # empty-input row) so parents are open when they arrive.
        pending = [(op, op.on_open()) for op in self._operators]
        for op, initial in pending:
            if initial:
                self._emit_up(op, initial)
        # Inline VALUES relations are delivered as a bounded prelude.
        for leaf in self._leaves:
            rows = self._values_rows.get(id(leaf))
            if rows is None:
                continue
            values = [Change(ChangeKind.INSERT, row, MIN_TIMESTAMP) for row in rows]
            count_edge(values, None, [(leaf, 0)])
            self._push_changes(leaf, 0, values)
            self._push_watermark(leaf, 0, MAX_TIMESTAMP, MIN_TIMESTAMP)

    def _push_changes(
        self,
        op: Operator,
        port: int,
        changes: list[Change],
        cause: Optional[tuple[int, ...]] = None,
    ) -> None:
        """Deliver changes into ``op`` and propagate its output onward.

        ``changes`` is either a list of :class:`Change` or (columnar
        mode) a :class:`ColumnarBatch`.  A batch is handed to columnar
        operators as-is and converted to rows at the first operator
        that cannot consume it — after which it stays rows; the
        executor never re-columnarizes mid-flight.  The input was
        counted where it crossed the edge into ``op``
        (:meth:`_emit_up`, :meth:`process_batch`); the output is counted
        where it leaves — after compaction, so ``rows_out`` is what
        went downstream.
        """
        if type(changes) is ColumnarBatch:
            if op.supports_columnar:
                produced = op.on_cols(port, changes)
            else:
                produced = op.on_batch(port, changes.to_changes())
        else:
            produced = op.on_batch(port, changes)
        if not produced:
            return
        if self.coalesce_updates and len(produced) > 1:
            if type(produced) is ColumnarBatch:
                produced = produced.to_changes()
            produced, dropped = compact_intra_instant(produced)
            if dropped:
                op.counters.changes_coalesced += dropped
                if not produced:
                    return
        if cause is not None and self.lineage is not None:
            cause = self.lineage.record_operator(
                cause,
                op.name(),
                shard=self._lineage_shard,
                shared_by=self._op_refs.get(id(op), 1),
                produced=len(produced),
            )
        self._emit_up(op, produced, cause)

    def _emit_up(
        self,
        op: Operator,
        changes: list[Change],
        cause: Optional[tuple[int, ...]] = None,
    ) -> None:
        """Fan an operator's output out: first to any output channels
        rooted at it, then to its consumer edges in attach order.

        Every produced batch — row-, open-, watermark- or timer-driven
        — passes here exactly once, so this is where it is counted:
        for its producer and all its consumers in one scan.
        """
        consumers = self._consumers.get(id(op), ())
        count_edge(changes, op, consumers)
        channels = self._outputs_of.get(id(op))
        if channels is not None:
            # Output channels store rows; ``to_changes`` is memoized,
            # so fan-out across channels converts at most once.
            rows = (
                changes.to_changes()
                if type(changes) is ColumnarBatch
                else changes
            )
            for channel in channels:
                self._collect_output(channel, rows, cause)
        for consumer, port in consumers:
            self._push_changes(consumer, port, changes, cause)

    def _push_watermark(
        self,
        op: Operator,
        port: int,
        value: Timestamp,
        ptime: Timestamp,
        cause: Optional[tuple[int, ...]] = None,
    ) -> None:
        changes, out_wm = op.process_watermark(port, value, ptime)
        if changes:
            emit_cause = cause
            if emit_cause is not None and self.lineage is not None:
                emit_cause = self.lineage.record_operator(
                    emit_cause,
                    op.name(),
                    shard=self._lineage_shard,
                    shared_by=self._op_refs.get(id(op), 1),
                    produced=len(changes),
                )
            self._emit_up(op, changes, emit_cause)
        if out_wm is None:
            return
        channels = self._outputs_of.get(id(op))
        if channels is not None:
            for channel in channels:
                channel.step(ptime, out_wm)
                if self.trace is not None and channel.output_id == self._primary:
                    self.trace(
                        TraceEvent(
                            kind="watermark",
                            ptime=ptime,
                            value=out_wm,
                            operator=channel.root_name,
                        )
                    )
        for consumer, consumer_port in self._consumers.get(id(op), ()):
            self._push_watermark(consumer, consumer_port, out_wm, ptime, cause)

    def _collect_output(
        self,
        channel: OutputChannel,
        changes: list[Change],
        cause: Optional[tuple[int, ...]] = None,
    ) -> None:
        if cause is not None and self.lineage is not None:
            if self._lineage_register_outputs:
                start = channel.log.base + len(channel.log.tail)
                self.lineage.record_output(
                    cause, channel.output_id, range(start, start + len(changes))
                )
            else:
                self.lineage.note_shard_output(
                    channel.output_id, cause, len(changes)
                )
        channel.log.tail.extend(changes)
        self._touched.add(channel.output_id)
        if self.trace is not None and channel.output_id == self._primary:
            self.trace(
                TraceEvent(
                    kind="batch",
                    ptime=changes[-1].ptime,
                    count=len(changes),
                    operator=channel.root_name,
                )
            )

    # -- timer service -------------------------------------------------------------

    def _fire_timers(self, up_to: Timestamp) -> None:
        """Fire pending timers with deadline <= ``up_to``, in order.

        A timer due exactly at an event's instant fires *before* the
        event: a row whose visibility ends at t is no longer visible at
        t.
        """
        for when, op in self._timers.pop_due(up_to):
            changes = op.on_timer(when)
            self._last_ptime = max(self._last_ptime, when)
            if changes:
                self._emit_up(op, changes)
