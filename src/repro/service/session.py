"""Resident standing queries: register, advance, checkpoint, resume.

The session manager is the heart of service mode.  Where ``run()``
replays a recorded stream and exits, a :class:`SessionManager` keeps
each admitted query's dataflow *resident* and pushes every source event
through all of them as it arrives (:meth:`SessionManager.ingest`) —
the same incremental ``process`` API the executor has always had, now
driven forever.

Equivalence is the load-bearing guarantee: a standing query's changelog
is **byte-identical** (values, ``ptime``, ``undo``/``ver`` metadata,
ordering) to a one-shot ``run()`` over the same event sequence, because
ingest feeds every event to every flow in exactly the merged order the
batch replayer uses — including events of sources a query never scans,
which are no-ops but advance the flow's clock the same way.  Queries
whose effective config asks for parallelism run on the sharded runtime
when the partition analyzer admits them, with the same guarantee.

**Multi-query optimization** (``share_plans``, on by default): the
:class:`SharedPlanCache` keeps one :class:`~repro.exec.executor.Dataflow`
per group of standing queries whose plans overlap.  Admission grafts a
new query onto the resident flow whose canonical subplan fingerprints
(:func:`~repro.plan.fingerprint.node_fingerprints`) cover the most of
its plan, so the shared prefix executes **once** per ingested event and
its changelog is multicast to every consuming query; only the private
suffix runs per query.  A freshly caught-up *donor* dataflow supplies
the private suffix's state so late joiners land at the host's position.
Subscriber deltas are byte-identical with sharing on or off — the
equivalence suite in ``tests/test_mqo.py`` enforces it, serial and
sharded, across checkpoint/restore.  See ``docs/MQO.md``.

Durability is an **append-only checkpoint plane** on the PR 4
checkpoint machinery: every ``retry.checkpoint_interval`` ingested
events (and on demand) :meth:`SessionManager.checkpoint` appends what
each output changelog and each recorded source gained since the last
cut *of that directory* as one framed segment per log, rewrites only
the small part — each flow's operator state, timers, telemetry and
watermark tracks (:meth:`Dataflow.checkpoint(histories=False)
<repro.exec.executor.Dataflow.checkpoint>`), cursors, and the sharing
map — and commits by atomically replacing a manifest that records every
log's committed length.  A cut costs O(events since the last cut + live
state), not O(history); :meth:`SessionManager.restore` reads the
committed prefix of every log (a torn tail past it is ignored) and
brings a fresh manager back to the cut — resident plans, cursors, and
subscription sequence numbers intact — so tailers can resume at the
recorded offsets.  Histories stay **encoded at rest**
(:mod:`repro.core.codec`): the cut *seals* each output's tail into a
codec segment and frames the segments the flow hands over, the restore
*adopts* the frames still pickled, and nothing here ever turns a
segment back into objects — so a resume costs what the operator state
and the query count cost.  Shared operator state is snapshotted once
per flow, and the manifest records each flow's member queries plus its
sharing map so restore can rebuild the exact physical DAG.  See
``docs/SERVICE.md`` for the directory layout.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from ..config import ExecutionConfig
from ..core.codec import PackedSegment, Segment, concat_segments
from ..core.errors import ExecutionError
from ..core.tvr import StreamEvent, TimeVaryingRelation
from ..exec.executor import merge_source_events, runs_columnar
from ..io import format_schema, parse_schema_line, parse_script
from ..obs.histogram import Histogram
from ..obs.lineage import LineageRecorder
from ..plan import plan_fingerprint
from ..plan.optimizer import optimize
from ..plan.partition import analyze_partitioning
from ..plan.planner import QueryPlan
from ..runtime.build import build_flow, runs_two_phase
from ..runtime.sharded import ShardedDataflow
from .metrics import SlowQueryLog
from .subscriptions import Delta, SubscriptionRegistry

if TYPE_CHECKING:
    from ..engine import StreamEngine

__all__ = ["StandingQuery", "SharedPlanCache", "SessionManager"]

_MANIFEST = "manifest.json"
#: Manifest layout version.  2 = append-only segment logs with committed
#: lengths and generation-named state blobs; a manifest without the
#: field is the whole-history layout (``<id>.ckpt`` carrying every
#: output changelog, ``sources/*.script``), which still restores.
_MANIFEST_VERSION = 2
_LOGS = "logs"
#: every log segment is ``magic, body length`` + a pickled codec payload
_SEGMENT_HEADER = struct.Struct(">4sQ")
_SEGMENT_MAGIC = b"RSEG"
#: segments a log may accumulate before a cut rewrites it as one
_MAX_SEGMENTS = 64
#: sort key putting touched queries back in the order they were adopted
_registration_order = attrgetter("ordinal")


@dataclass(slots=True)
class _LogState:
    """One append-only log as of the last committed cut: its file, the
    committed ``length`` in bytes, and the segments and items in it.

    ``owner`` is the live object whose history the log records (a
    :class:`StandingQuery`, a source TVR): a log is only ever appended
    to for the same object it was started for, so an id reused by a
    different query or a re-registered source starts a fresh file.
    """

    file: str
    length: int
    segments: int
    items: int
    owner: object = None

    def as_manifest(self) -> dict:
        return {
            "file": self.file,
            "length": self.length,
            "segments": self.segments,
            "items": self.items,
        }


@dataclass(slots=True)
class _Cut:
    """What this session last committed, and where.

    The next :meth:`SessionManager.checkpoint` of the same directory is
    incremental only while the manifest on disk is still byte for byte
    the one written here.
    """

    directory: str
    generation: int
    manifest_text: str
    logs: dict[str, _LogState]


def _write_atomic(path: str, chunks: Iterable[bytes]) -> int:
    """Write ``path`` whole, via a temp file and ``os.replace``."""
    written = 0
    with open(path + ".tmp", "wb") as fh:
        for chunk in chunks:
            written += fh.write(chunk)
    os.replace(path + ".tmp", path)
    return written


def _frames(segments: Iterable[Segment]) -> Iterator[bytes]:
    """``segments`` as the byte chunks of their log frames (a segment
    that was read from a frame and never unpacked goes back as it came)."""
    for segment in segments:
        body = getattr(segment, "body", None) or pickle.dumps(
            tuple(segment), pickle.HIGHEST_PROTOCOL
        )
        yield _SEGMENT_HEADER.pack(_SEGMENT_MAGIC, len(body))
        yield body


def _read_log(directory: str, spec: dict) -> list[PackedSegment]:
    """The committed prefix of one log: its segments, still pickled.

    Reads exactly ``spec["length"]`` bytes — whatever a failed later
    cut appended past the committed length is never looked at.
    """
    with open(os.path.join(directory, spec["file"]), "rb") as fh:
        data = fh.read(spec["length"])
    segments: list[PackedSegment] = []
    offset = 0
    while offset < len(data):
        magic, size = _SEGMENT_HEADER.unpack_from(data, offset)
        offset += _SEGMENT_HEADER.size
        if magic != _SEGMENT_MAGIC or offset + size > len(data):
            break
        segments.append(PackedSegment(data[offset:offset + size]))
        offset += size
    items = sum(len(segment.kinds) for segment in segments)
    if offset != spec["length"] or items != spec["items"]:
        raise ExecutionError(
            f"checkpoint log {spec['file']!r} does not hold the "
            f"{spec['items']} items in {spec['length']} bytes its manifest "
            "committed"
        )
    return segments


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return -1


def _resident_generation(directory: str) -> int:
    """The generation of whatever manifest ``directory`` holds (0 if none):
    a full cut numbers itself past it, so nothing it writes can replace
    a file that manifest still references before the new one commits."""
    try:
        with open(os.path.join(directory, _MANIFEST)) as fh:
            return int(json.load(fh).get("generation", 0))
    except (OSError, ValueError, TypeError, AttributeError):
        return 0


def _sweep(directory: str, keep: set[str]) -> None:
    """Delete the checkpoint files a just-committed manifest no longer
    references: superseded state blobs, compacted or withdrawn logs,
    leftovers of a failed cut, and the pre-segment layout's files."""
    for sub, suffixes in (
        ("", (".ckpt", ".tmp")),
        (_LOGS, (".log", ".tmp")),
        ("sources", (".script",)),
    ):
        folder = os.path.join(directory, sub) if sub else directory
        try:
            names = os.listdir(folder)
        except OSError:
            continue
        for name in names:
            relative = f"{sub}/{name}" if sub else name
            if name.endswith(suffixes) and relative not in keep:
                try:
                    os.remove(os.path.join(folder, name))
                except OSError:
                    pass


class StandingQuery:
    """One resident query: its plan, its output channel, its subscribers.

    With plan sharing, several standing queries may read through the
    same physical dataflow; each owns a distinct output channel named
    by its ``query_id``, so cursors, subscriptions, and state
    attribution stay per-query.
    """

    def __init__(
        self,
        query_id: str,
        tenant: str,
        sql: str,
        plan: QueryPlan,
        flow,
        subscriber_capacity: int,
        parallelism: int,
        output_id: Optional[str] = None,
    ):
        self.query_id = query_id
        self.tenant = tenant
        self.sql = sql
        self.plan = plan
        self.flow = flow
        self.parallelism = parallelism
        #: which of the flow's output channels is this query's changelog
        self.output_id = output_id if output_id is not None else query_id
        #: query ids sharing this flow (live view of the flow record)
        self.shared_group: list[str] = [query_id]
        self.subscriptions = SubscriptionRegistry(
            subscriber_capacity, query_id=query_id
        )
        #: output cursor: merged changes already published to subscribers.
        self.cursor = flow.output_size_of(self.output_id)
        #: microseconds from event ingest to this query's delta push.
        self.ingest_push = Histogram()
        #: position in the session's registration order (set on adoption)
        self.ordinal = 0

    @property
    def sharded(self) -> bool:
        return isinstance(self.flow, ShardedDataflow)

    def state_rows(self) -> int:
        return self.flow.state_rows_of(self.output_id)

    def history_items(self) -> dict[str, int]:
        """How much of the query's changelog rests encoded (``sealed``:
        behind the last cut or restore) and how much is resident as
        ``Change`` objects (``live``)."""
        return self.flow.history_items_of(self.output_id)

    def publish_pending(self) -> list[Delta]:
        """Publish changes the flow produced past the cursor."""
        produced = self.flow.output_slice_of(self.output_id, self.cursor)
        if not produced:
            return []
        self.cursor += len(produced)  # the slice runs to the log's end
        return self.subscriptions.publish(produced)

    def describe(self) -> dict:
        return {
            "query_id": self.query_id,
            "tenant": self.tenant,
            "sql": self.sql,
            "runtime": (
                f"sharded({self.flow.shard_count})" if self.sharded else "serial"
            ),
            "deltas": self.subscriptions.next_seq,
            "subscribers": self.subscriptions.live_count,
            "state_rows": self.state_rows(),
            "history": self.history_items(),
            "watermark": self.flow.root_watermark_of(self.output_id),
            "shared_with": sorted(
                qid for qid in self.shared_group if qid != self.query_id
            ),
        }


class _FlowRecord:
    """One physical dataflow and the standing queries reading it."""

    __slots__ = ("flow", "key", "members")

    def __init__(self, flow, key: tuple):
        self.flow = flow
        self.key = key
        #: query ids in attachment order; members[0] names the
        #: checkpoint blob.
        self.members: list[str] = []


class SharedPlanCache:
    """The residency index for multi-query optimization.

    Holds one :class:`_FlowRecord` per physical dataflow.  A new query
    is grafted onto the record whose flow's resident fingerprints cover
    the most of its plan (:meth:`~repro.exec.executor.Dataflow.plan_overlap`),
    but only when the execution shapes agree: the *config key* — runtime
    kind, partition spec, shard count and two-phase for sharded flows,
    allowed lateness, batch size, compaction, columnar — must match
    exactly, because two queries can only share an operator whose
    behaviour those knobs do not alter.  Lateness is deliberately
    **not** part of the plan fingerprint; it gates sharing here instead.
    """

    def __init__(self):
        self.records: list[_FlowRecord] = []

    @staticmethod
    def config_key(plan: QueryPlan, effective: ExecutionConfig) -> tuple:
        """The execution shape a flow must match to host ``plan``: what
        the flow does, not how its knobs are spelled (``columnar="on"``
        and ``"auto"`` run alike at ``batch_size > 1``; with no counter
        feedback, so do ``two_phase="on"`` and ``"auto"``)."""
        shape = (
            effective.allowed_lateness,
            effective.batch_size,
            effective.coalesce_updates,
            runs_columnar(effective),
        )
        if effective.parallelism > 1:
            decision = analyze_partitioning(plan)
            if decision.partitionable:
                # Two-phase is flow-level, not per-plan: whether an
                # individual output splits is decided at attach time,
                # so an ineligible query can still share a two-phase
                # flow.
                return (
                    "sharded",
                    decision.spec,
                    effective.parallelism,
                    runs_two_phase(effective, plan, decision),
                ) + shape
        return ("serial",) + shape

    def find_host(
        self, plan: QueryPlan, key: tuple
    ) -> Optional[_FlowRecord]:
        """Best resident flow for ``plan``, or ``None`` to build fresh.

        Ties break toward the earliest-registered flow, so repeated
        identical queries pile onto one dataflow instead of pairing up.
        """
        best: Optional[_FlowRecord] = None
        best_overlap = 0
        for record in self.records:
            if record.key != key:
                continue
            overlap = record.flow.plan_overlap(plan)
            if overlap > best_overlap:
                best, best_overlap = record, overlap
        return best

    def record_for(self, query_id: str) -> Optional[_FlowRecord]:
        for record in self.records:
            if query_id in record.members:
                return record
        return None

    def add(self, record: _FlowRecord) -> None:
        self.records.append(record)

    def drop_member(self, query_id: str) -> None:
        record = self.record_for(query_id)
        if record is None:
            return
        record.flow.remove_output(query_id)
        record.members.remove(query_id)
        if not record.members:
            self.records.remove(record)

    # -- observability -----------------------------------------------------------

    def shared_subplans(self) -> int:
        """Resident operators multicast to two or more queries."""
        return sum(r.flow.shared_operator_count() for r in self.records)

    def sharing_ratio(self) -> float:
        """Logical operators attached ÷ physical operators resident.

        1.0 means no sharing (or no queries); 2.0 means the average
        resident operator serves two queries.
        """
        attached = sum(r.flow.attached_operator_count() for r in self.records)
        resident = sum(r.flow.resident_operator_count() for r in self.records)
        return attached / resident if resident else 1.0


class SessionManager:
    """All resident queries of one service, advanced in lock-step.

    ``config`` is the service-level :class:`~repro.config.ExecutionConfig`
    (already resolved); per-query configs merge over it exactly as
    query-level configs merge over an engine's.
    """

    def __init__(self, engine: "StreamEngine", config: Optional[ExecutionConfig] = None):
        self.engine = engine
        self.config = (
            config if config is not None else engine.config
        ).resolved()
        self._queries: dict[str, StandingQuery] = {}
        self.plan_cache = SharedPlanCache()
        #: source events ingested since construction (or restore).
        self.events_ingested = 0
        #: per-source consumed-event counts, for tailer resumption.
        self.source_offsets: dict[str, int] = {}
        self.checkpoints_taken = 0
        #: wall seconds the most recent checkpoint took.
        self.last_checkpoint_seconds = 0.0
        #: wall seconds :meth:`restore` took (0 for a session started cold).
        self.last_resume_seconds = 0.0
        #: bytes written to checkpoint directories since construction.
        self.checkpoint_bytes_total = 0
        #: the last committed cut; the next one of the same directory
        #: appends to it (see :meth:`checkpoint`).
        self._committed: Optional[_Cut] = None
        #: threshold-crossing incidents (see metrics.SlowQueryLog).
        self.slow_log = SlowQueryLog()
        self._next_id = 1
        self._adopted = 0

    # -- registry ---------------------------------------------------------------

    def queries(self) -> list[StandingQuery]:
        return list(self._queries.values())

    def get(self, query_id: str) -> Optional[StandingQuery]:
        return self._queries.get(query_id)

    def tenant_usage(self, tenant: str) -> tuple[int, int]:
        """(active standing queries, resident state rows) for a tenant."""
        mine = [q for q in self._queries.values() if q.tenant == tenant]
        return len(mine), sum(q.state_rows() for q in mine)

    def shared_subplans(self) -> int:
        return self.plan_cache.shared_subplans()

    def sharing_ratio(self) -> float:
        return self.plan_cache.sharing_ratio()

    def register(
        self,
        tenant: str,
        sql: str,
        plan: QueryPlan,
        query_id: Optional[str] = None,
        config: Optional[ExecutionConfig] = None,
        catch_up: bool = True,
    ) -> StandingQuery:
        """Make an admitted plan resident and catch it up with history.

        The new flow replays every event the sources have recorded so
        far (so its state matches a from-the-start run), then joins the
        live ingest path.  Subscribers attach afterwards and see only
        future deltas — standard standing-query semantics.

        When the effective config's ``share_plans`` is on and a resident
        flow's fingerprints overlap the new plan, the query is grafted
        onto that flow instead of building a private one: a throwaway
        *donor* dataflow is caught up with history, and
        :meth:`~repro.exec.executor.Dataflow.attach_output` transplants
        its private-suffix operators (state, timers, output history)
        while reusing the resident shared prefix.
        """
        if query_id is None:
            query_id = f"q{self._next_id}"
            while query_id in self._queries:
                self._next_id += 1
                query_id = f"q{self._next_id}"
        elif query_id in self._queries:
            raise ExecutionError(f"standing query {query_id!r} already exists")
        effective = (
            config.merged_over(self.config) if config is not None else self.config
        ).resolved()
        optimized = QueryPlan(
            root=optimize(plan).root, emit=plan.emit, sql=plan.sql
        )
        key = SharedPlanCache.config_key(optimized, effective)
        host: Optional[_FlowRecord] = None
        # Sharing needs catch-up: grafting transplants a caught-up donor,
        # and a cold attach onto a warm flow would break equivalence.
        if effective.share_plans and catch_up:
            host = self.plan_cache.find_host(optimized, key)
        if host is not None:
            # The donor is a throwaway state supplier: its operators are
            # transplanted into the host flow, whose recorder (if any)
            # covers them from then on, so tracing the donor's replay
            # would only burn time on lineage that is discarded.
            donor = self._build_flow(
                [(query_id, optimized)], effective, lineage=False
            )
            self._catch_up(donor)
            # Root-level sharing is only sound when some member's whole
            # plan (root fingerprint + EMIT clause) coincides; otherwise
            # equal changelogs could hide differing materialization.
            fingerprint = plan_fingerprint(optimized)
            allow_root_share = any(
                plan_fingerprint(self._queries[member].plan) == fingerprint
                for member in host.members
            )
            host.flow.attach_output(
                query_id,
                optimized,
                donor=donor,
                allow_root_share=allow_root_share,
            )
            flow, record = host.flow, host
        else:
            flow = self._build_flow([(query_id, optimized)], effective)
            record = _FlowRecord(flow, key)
            if catch_up:
                self._catch_up(flow)
            self.plan_cache.add(record)
        query = self._adopt(record, query_id, tenant, sql, optimized, effective)
        if catch_up:
            # History deltas are never delivered (the cursor starts past
            # them); delta seq numbers line up with changelog positions,
            # so seek past the prefix.
            query.subscriptions.seek(query.cursor)
        self._next_id += 1
        return query

    def _adopt(
        self,
        record: _FlowRecord,
        query_id: str,
        tenant: str,
        sql: str,
        plan: QueryPlan,
        effective: ExecutionConfig,
    ) -> StandingQuery:
        """Make ``query_id`` a member of ``record``'s flow and of the session."""
        record.members.append(query_id)
        query = StandingQuery(
            query_id,
            tenant,
            sql,
            plan,
            record.flow,
            subscriber_capacity=effective.subscriber_capacity,
            parallelism=self._flow_parallelism(record.flow),
            output_id=query_id,
        )
        query.shared_group = record.members
        query.ordinal = self._adopted = self._adopted + 1
        self._queries[query_id] = query
        # Whatever catch-up or a restore appended is history, behind the
        # query's cursor: nothing for the next ingest to publish.
        record.flow.take_touched()
        return query

    def unregister(self, query_id: str) -> bool:
        query = self._queries.pop(query_id, None)
        if query is None:
            return False
        # Ref-counted teardown: only operators no surviving member
        # reads are closed and dropped; shared state is untouched.
        self.plan_cache.drop_member(query_id)
        self.slow_log.forget(query_id)
        return True

    def _build_flow(
        self,
        plans: list[tuple[str, QueryPlan]],
        effective: ExecutionConfig,
        lineage: bool = True,
        structure: Optional[dict] = None,
    ):
        """A flow for ``plans`` under ``effective`` — sharded when the
        config asks for parallelism and the analyzer admits the plan —
        fresh, or rebuilt from a checkpoint ``structure``."""
        flow = build_flow(
            plans,
            self.engine._sources,
            effective,
            analyze_partitioning(plans[0][1])
            if effective.parallelism > 1
            else None,
            structure=structure,
        )
        self._install_lineage(flow, effective, lineage)
        return flow

    def _catch_up(self, flow) -> None:
        """Replay everything the sources have recorded into ``flow``."""
        for _ in flow.replay(merge_source_events(self.engine._sources)):
            pass

    @staticmethod
    def _install_lineage(flow, effective: ExecutionConfig, lineage: bool) -> None:
        """Give a fresh flow its own provenance recorder when enabled.

        One recorder per physical flow: every resident flow sees every
        ingested event in the same order, so per-source sequence numbers
        (and hence the deterministic sampling decisions) agree across
        flows without any shared state.  Installed before catch-up, so a
        late-joining query's replayed history is numbered exactly as a
        from-the-start run would have numbered it.
        """
        if lineage and effective.lineage_sample > 0:
            flow.set_lineage(LineageRecorder(effective.lineage_sample))

    @staticmethod
    def _flow_parallelism(flow) -> int:
        return flow.shard_count if isinstance(flow, ShardedDataflow) else 1

    # -- the live ingest path ----------------------------------------------------

    def ingest(self, event: StreamEvent, source: str) -> dict[str, list[Delta]]:
        """Advance the world by one source event.

        Appends the event to the source's recorded TVR (so late-joining
        queries can catch up and the replay oracle stays checkable),
        pushes it through every resident flow **once** — a flow shared
        by k queries runs its shared prefix a single time — and
        publishes the new changelog deltas of the queries whose output
        the event *touched* (each flow says which: ``take_touched``),
        in registration order, so the call costs what changed, not what
        is resident.  Returns ``{query_id: [deltas]}`` for queries that
        produced output.
        """
        started = time.perf_counter()
        key = source.lower()
        if key not in self.engine._sources:
            raise ExecutionError(f"no source registered for {source!r}")
        self.engine._sources[key].apply(event)
        self.source_offsets[key] = self.source_offsets.get(key, 0) + 1
        self.events_ingested += 1
        touched: list[StandingQuery] = []
        for record in self.plan_cache.records:
            flow = record.flow
            flow.process(event, source)
            # (an output id is its query's id; a stale hint names none)
            touched += filter(None, map(self._queries.get, flow.take_touched()))
        if len(touched) > 1:
            touched.sort(key=_registration_order)
        published: dict[str, list[Delta]] = {}
        for query in touched:
            deltas = query.publish_pending()
            if deltas:
                published[query.query_id] = deltas
                query.ingest_push.observe(
                    int((time.perf_counter() - started) * 1_000_000)
                )
        self._check_slow_queries(touched)
        interval = self.config.retry.checkpoint_interval
        if (
            interval
            and self.config.checkpoint_dir
            and self.events_ingested % interval == 0
        ):
            self.checkpoint(self.config.checkpoint_dir)
        return published

    def queue_depth(self) -> int:
        """Undrained subscriber deltas across all queries."""
        return sum(q.subscriptions.queue_depth() for q in self._queries.values())

    def _check_slow_queries(self, touched: Iterable[StandingQuery]) -> None:
        """Fold the queries' health into the slow-query log.

        Thresholds are the session-level config's ``slow_query_p99_ms``
        and ``slow_query_depth``; 0 disables a check.  The emit-latency
        half looks only at ``touched`` — the queries this ingest
        produced output for: a histogram that gained no sample cannot
        have crossed a threshold (and reading one settles it).  Queue
        depth moves with the subscribers too, so every query is asked.
        The log itself deduplicates per episode, so calling this every
        ingest produces incident entries, not per-event spam.
        """
        p99_limit = self.config.slow_query_p99_ms
        depth_limit = self.config.slow_query_depth
        if p99_limit:
            for query in touched:
                emit = query.flow.telemetry_of(query.output_id).emit_latency
                p99 = emit.percentile(0.99)
                if p99 is not None:
                    self.slow_log.update(
                        query.query_id,
                        query.tenant,
                        "emit_p99_ms",
                        p99,
                        p99_limit,
                        self.events_ingested,
                    )
        if depth_limit:
            for query in self._queries.values():
                self.slow_log.update(
                    query.query_id,
                    query.tenant,
                    "queue_depth",
                    query.subscriptions.queue_depth(),
                    depth_limit,
                    self.events_ingested,
                )

    # -- lineage -------------------------------------------------------------------

    def explain_delta(self, query_id: str, seq: int) -> Optional[dict]:
        """The provenance of delta ``seq`` of a standing query.

        Delta sequence numbers line up with changelog positions (the
        subscription registry seeks past the history prefix), so the
        flow's lineage recorder resolves them directly.  Returns
        ``None`` when lineage is disabled for the query's flow or the
        position was not sampled; raises for an unknown query.
        """
        query = self._queries.get(query_id)
        if query is None:
            raise ExecutionError(f"no standing query {query_id!r}")
        recorder = getattr(query.flow, "lineage", None)
        if recorder is None:
            return None
        return recorder.explain(query.output_id, seq)

    def lineage_summary(self) -> Optional[dict]:
        """Tracing volume aggregated over all resident flows' recorders.

        ``None`` when no flow has lineage enabled.  ``events_seen`` and
        ``sampled`` count per flow (every flow sees every event), so the
        totals measure recording work done, not distinct source events.
        """
        summaries = [
            record.flow.lineage.summary()
            for record in self.plan_cache.records
            if getattr(record.flow, "lineage", None) is not None
        ]
        if not summaries:
            return None
        return {
            "flows": len(summaries),
            "events_seen": sum(s["events_seen"] for s in summaries),
            "sampled": sum(s["sampled"] for s in summaries),
            "retained": sum(s["retained"] for s in summaries),
            "dropped": sum(s["dropped"] for s in summaries),
        }

    # -- durability --------------------------------------------------------------

    def checkpoint(self, directory: Optional[str] = None) -> str:
        """Write a consistent cut of the whole session to ``directory``.

        Output changelogs and recorded sources only ever grow, so each
        has an append-only log under ``logs/`` and a cut appends just
        what it gained since the last cut of this directory, as one
        framed segment.  The small part is rewritten: one
        ``<first_member>.<generation>.ckpt`` per resident *flow*
        (operator state — shared state exactly once, however many
        queries read it — timers, telemetry, watermark tracks) and
        ``manifest.json`` (queries, cursors, per-source offsets, the
        flow→members sharing map, every log's committed length).

        The manifest is replaced last, atomically, and everything it
        will reference is either a new file (written to a temp name
        and renamed) or bytes appended *past* the previous manifest's
        committed lengths — so a crash at any point leaves the previous
        cut intact and restorable.

        A full cut (every log rewritten from position 0) is taken
        whenever appending does not apply: the first cut of a
        directory, a different directory than last time, or a manifest
        on disk that is no longer the one this session committed.  A
        query registered since the last cut gets its whole history as
        its first segment; a withdrawn query's log is dropped from the
        manifest and deleted; a log past ``_MAX_SEGMENTS`` segments is
        rewritten as one.  Serial and sharded flows are cut the same
        way: ``checkpoint(histories=False)`` plus each member's log.
        """
        directory = directory or self.config.checkpoint_dir
        if not directory:
            raise ExecutionError("no checkpoint directory configured")
        started = time.perf_counter()
        written = self._write_cut(directory)
        self.checkpoints_taken += 1
        self.checkpoint_bytes_total += written
        self.last_checkpoint_seconds = time.perf_counter() - started
        return directory

    def _write_cut(self, directory: str) -> int:
        """One cut of ``directory``; returns the bytes it wrote."""
        os.makedirs(os.path.join(directory, _LOGS), exist_ok=True)
        base = self._incremental_base(directory)
        prior = base.logs if base is not None else {}
        generation = 1 + (
            base.generation
            if base is not None
            else _resident_generation(directory)
        )
        written = 0
        logs: dict[str, _LogState] = {}

        def persist(key: str, owner, count: int, segments_from) -> dict:
            """Bring log ``key`` up to ``count`` items; its manifest entry.

            ``segments_from(start)`` is the owner's history from
            position ``start`` on as codec segments; they are framed as
            they come, never decoded or re-encoded here.
            """
            nonlocal written
            log = prior.get(key)
            if (
                log is not None
                and log.owner is owner
                and log.items <= count
                and log.segments < _MAX_SEGMENTS
                and _file_size(os.path.join(directory, log.file)) >= log.length
            ):
                if count > log.items:
                    segments = segments_from(log.items)
                    with open(os.path.join(directory, log.file), "r+b") as fh:
                        fh.seek(log.length)
                        fh.truncate()
                        grown = sum(map(fh.write, _frames(segments)))
                    written += grown
                    log = _LogState(
                        log.file, log.length + grown,
                        log.segments + len(segments), count, owner,
                    )
            else:
                segments = segments_from(0)
                if len(segments) >= _MAX_SEGMENTS:
                    # Compaction: joined, not decoded.
                    segments = [concat_segments(segments)]
                file = f"{_LOGS}/{key}.{generation}.log"
                size = _write_atomic(
                    os.path.join(directory, file), _frames(segments)
                )
                written += size
                log = _LogState(file, size, len(segments), count, owner)
            logs[key] = log
            return log.as_manifest()

        flows = []
        for record in self.plan_cache.records:
            flow = record.flow
            blob_id = record.members[0]
            state_file = f"{blob_id}.{generation}.ckpt"
            written += _write_atomic(
                os.path.join(directory, state_file),
                (flow.checkpoint(histories=False),),
            )
            flows.append(
                {
                    "id": blob_id,
                    "members": list(record.members),
                    "parallelism": self._flow_parallelism(flow),
                    "sharing": flow.sharing_map(),
                    "state": state_file,
                }
            )
        queries = []
        for q in self._queries.values():
            flow, output_id = q.flow, q.output_id
            queries.append(
                {
                    "query_id": q.query_id,
                    "tenant": q.tenant,
                    "sql": q.sql,
                    "parallelism": q.parallelism,
                    "cursor": q.cursor,
                    "next_seq": q.subscriptions.next_seq,
                    "log": persist(
                        f"out-{q.query_id}",
                        q,
                        flow.output_size_of(output_id),
                        lambda start: flow.output_segments_of(output_id, start),
                    ),
                }
            )
        sources = {
            name: {
                "schema": format_schema(tvr.schema),
                "log": persist(
                    f"src-{name}", tvr, tvr.event_count, tvr.event_segments
                ),
            }
            for name, tvr in self.engine._sources.items()
        }
        manifest_text = json.dumps(
            {
                "version": _MANIFEST_VERSION,
                "generation": generation,
                "events_ingested": self.events_ingested,
                "source_offsets": dict(self.source_offsets),
                "flows": flows,
                "queries": queries,
                "sources": sources,
            },
            indent=2,
        )
        written += _write_atomic(
            os.path.join(directory, _MANIFEST), (manifest_text.encode(),)
        )
        # Committed.  From here on nothing may fail the cut.
        self._committed = _Cut(
            os.path.abspath(directory), generation, manifest_text, logs
        )
        _sweep(
            directory,
            {entry["state"] for entry in flows}
            | {log.file for log in logs.values()},
        )
        return written

    def _incremental_base(self, directory: str) -> Optional[_Cut]:
        """The committed cut the next cut of ``directory`` may append
        to, or ``None`` when a full cut is due."""
        cut = self._committed
        if cut is None or cut.directory != os.path.abspath(directory):
            return None
        try:
            with open(os.path.join(directory, _MANIFEST)) as fh:
                on_disk = fh.read()
        except OSError:
            return None
        return cut if on_disk == cut.manifest_text else None

    def restore(self, directory: str, admit) -> int:
        """Resume from a checkpoint directory; returns queries restored.

        ``admit`` is a callable ``(tenant, sql) -> QueryPlan`` — the
        service passes its admission gateway, so a policy change between
        runs is enforced at restore time too.  Sources are re-registered
        from the committed prefix of their logs, each flow is rebuilt
        **with the checkpoint's exact sharing structure** (via
        ``from_structure``: re-running fingerprint matching could
        legally regroup after withdrawals, and operator states would
        misalign) and restored from its state blob — unpickled once —
        plus its members' output logs, and ``source_offsets`` tells
        tailers where to resume reading.  The restored session goes on
        appending to the same logs.  Older layouts still restore:
        whole-history directories (no ``version``: ``<id>.ckpt`` +
        ``sources/*.script``) and manifests from before plan sharing
        (no ``flows`` key: one private flow per query).

        Histories come back **encoded**: output logs and source logs
        are read as the codec segments they were written as and adopted
        whole, so a resume costs what the operator state and the query
        count cost, not what the history costs.  Objects are built when
        something reads below a log's tail (see :mod:`repro.core.codec`).
        """
        started = time.perf_counter()
        restored = self._restore(directory, admit)
        self.last_resume_seconds = time.perf_counter() - started
        return restored

    def _restore(self, directory: str, admit) -> int:
        with open(os.path.join(directory, _MANIFEST)) as fh:
            manifest_text = fh.read()
        manifest = json.loads(manifest_text)
        version = manifest.get("version", 1)
        if version > _MANIFEST_VERSION:
            raise ExecutionError(
                f"checkpoint manifest version {version} is newer than this "
                f"build reads (up to {_MANIFEST_VERSION})"
            )
        logs: dict[str, _LogState] = {}
        if version < 2:
            self._restore_script_sources(directory)
        else:
            for name, spec in manifest["sources"].items():
                tvr = TimeVaryingRelation.restored(
                    parse_schema_line(f"schema: {spec['schema']}"),
                    _read_log(directory, spec["log"]),
                )
                self._register_source(name, tvr)
                logs[f"src-{name}"] = _LogState(**spec["log"], owner=tvr)
        self.events_ingested = manifest["events_ingested"]
        self.source_offsets = dict(manifest["source_offsets"])
        if "flows" not in manifest:
            return self._restore_legacy(directory, manifest, admit)
        by_id = {spec["query_id"]: spec for spec in manifest["queries"]}
        for entry in manifest["flows"]:
            self._restore_flow(directory, entry, by_id, admit, logs)
        if version >= 2:
            self._committed = _Cut(
                os.path.abspath(directory),
                manifest["generation"],
                manifest_text,
                logs,
            )
        return len(manifest["queries"])

    def _register_source(self, name: str, tvr: TimeVaryingRelation) -> None:
        if tvr.is_bounded:
            self.engine.register_table(name, tvr)
        else:
            self.engine.register_stream(name, tvr)

    def _restore_script_sources(self, directory: str) -> None:
        """Sources of a whole-history directory: ``sources/*.script``."""
        sources_dir = os.path.join(directory, "sources")
        for entry in sorted(os.listdir(sources_dir)):
            with open(os.path.join(sources_dir, entry)) as fh:
                self._register_source(
                    entry[: -len(".script")], parse_script(fh.read())
                )

    def _restore_flow(
        self,
        directory: str,
        entry: dict,
        by_id: dict,
        admit,
        logs: dict[str, _LogState],
    ) -> None:
        """Rebuild one (possibly shared) flow and its member queries."""
        effective = ExecutionConfig(
            parallelism=entry["parallelism"]
        ).merged_over(self.config).resolved()
        plans = []
        for member in entry["members"]:
            spec = by_id[member]
            admitted = admit(spec["tenant"], spec["sql"])
            plans.append(
                (
                    member,
                    QueryPlan(
                        root=optimize(admitted).root,
                        emit=admitted.emit,
                        sql=admitted.sql,
                    ),
                )
            )
        state_file = entry.get("state", f"{entry['id']}.ckpt")
        with open(os.path.join(directory, state_file), "rb") as fh:
            # Decoded once: the payload serves from_structure *and* the
            # restore, which takes ownership of it.
            payload = pickle.loads(fh.read())
        # Lineage comes back with the payload, not from the config.
        flow = self._build_flow(
            plans, effective, lineage=False, structure=payload
        )
        flow.restore(
            payload,
            histories={
                member: _read_log(directory, by_id[member]["log"])
                for member, _ in plans
                # (a sharded query of a pre-unification cut has no log:
                # its blob carries the merged changelog inline)
                if by_id[member].get("log")
            },
        )
        record = _FlowRecord(
            flow, SharedPlanCache.config_key(plans[0][1], effective)
        )
        self.plan_cache.add(record)
        for member, plan in plans:
            spec = by_id[member]
            query = self._adopt(
                record, member, spec["tenant"], spec["sql"], plan, effective
            )
            query.cursor = spec["cursor"]
            query.subscriptions.seek(spec["next_seq"])
            if spec.get("log"):
                logs[f"out-{member}"] = _LogState(**spec["log"], owner=query)

    def _restore_legacy(self, directory: str, manifest: dict, admit) -> int:
        """Restore a pre-sharing manifest: one private flow per query."""
        for spec in manifest["queries"]:
            plan = admit(spec["tenant"], spec["sql"])
            effective = ExecutionConfig(
                parallelism=spec["parallelism"]
            ).merged_over(self.config).resolved()
            query = self.register(
                spec["tenant"],
                spec["sql"],
                plan,
                query_id=spec["query_id"],
                config=effective,
                catch_up=False,
            )
            with open(os.path.join(directory, f"{spec['query_id']}.ckpt"), "rb") as fh:
                query.flow.restore(fh.read())
            query.cursor = spec["cursor"]
            query.subscriptions.seek(spec["next_seq"])
        return len(manifest["queries"])
