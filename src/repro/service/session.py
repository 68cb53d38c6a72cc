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

Durability reuses the PR 4 checkpoint machinery: every
``retry.checkpoint_interval`` ingested events (and on demand) each
flow's :meth:`~repro.exec.executor.Dataflow.checkpoint` bytes land in
``checkpoint_dir`` together with a manifest and the sources' recorded
prefixes, and :meth:`SessionManager.restore` brings a fresh manager
back to the cut — resident plans, cursors, and subscription sequence
numbers intact — so tailers can resume at the recorded offsets.
Shared operator state is snapshotted once per flow, and the manifest
records each flow's member queries plus its sharing map so restore can
rebuild the exact physical DAG.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from typing import TYPE_CHECKING, Optional

from ..config import ExecutionConfig
from ..core.errors import ExecutionError
from ..core.tvr import StreamEvent
from ..exec.executor import Dataflow, merge_source_events
from ..io import format_script, parse_script
from ..obs.histogram import Histogram
from ..obs.lineage import LineageRecorder
from ..plan import plan_fingerprint
from ..plan.optimizer import optimize
from ..plan.partition import analyze_partitioning
from ..plan.planner import QueryPlan
from ..runtime.sharded import ShardedDataflow
from .metrics import SlowQueryLog
from .subscriptions import Delta, SubscriptionRegistry

if TYPE_CHECKING:
    from ..engine import StreamEngine

__all__ = ["StandingQuery", "SharedPlanCache", "SessionManager"]

_MANIFEST = "manifest.json"


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

    @property
    def sharded(self) -> bool:
        return isinstance(self.flow, ShardedDataflow)

    def state_rows(self) -> int:
        return self.flow.state_rows_of(self.output_id)

    def publish_pending(self) -> list[Delta]:
        """Publish changes the flow produced past the cursor."""
        produced = self.flow.output_slice_of(self.output_id, self.cursor)
        self.cursor = self.flow.output_size_of(self.output_id)
        if not produced:
            return []
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
    kind, partition spec and shard count for sharded flows, allowed
    lateness, batch size, compaction — must match exactly, because two
    queries can only share an operator whose behaviour those knobs do
    not alter.  Lateness is deliberately **not** part of the plan
    fingerprint; it gates sharing here instead.
    """

    def __init__(self):
        self.records: list[_FlowRecord] = []

    @staticmethod
    def config_key(plan: QueryPlan, effective: ExecutionConfig) -> tuple:
        """The execution shape a flow must match to host ``plan``."""
        if effective.parallelism > 1:
            decision = analyze_partitioning(plan)
            if decision.partitionable:
                return (
                    "sharded",
                    decision.spec,
                    effective.parallelism,
                    effective.allowed_lateness,
                    effective.batch_size,
                    effective.coalesce_updates,
                    # Flow-level, not per-plan: whether an individual
                    # output splits is decided at attach time, so an
                    # ineligible query can still share a two-phase flow.
                    effective.two_phase,
                    effective.columnar,
                )
        return (
            "serial",
            effective.allowed_lateness,
            effective.batch_size,
            effective.coalesce_updates,
            effective.columnar,
        )

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
        #: threshold-crossing incidents (see metrics.SlowQueryLog).
        self.slow_log = SlowQueryLog()
        self._next_id = 1

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
                optimized, effective, output_id=query_id, lineage=False
            )
            for event, source in merge_source_events(self.engine._sources):
                donor.process(event, source)
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
            flow = self._build_flow(optimized, effective, output_id=query_id)
            record = _FlowRecord(flow, key)
            if catch_up:
                for event, source in merge_source_events(self.engine._sources):
                    flow.process(event, source)
            self.plan_cache.add(record)
        record.members.append(query_id)
        query = StandingQuery(
            query_id,
            tenant,
            sql,
            optimized,
            flow,
            subscriber_capacity=effective.subscriber_capacity,
            parallelism=self._flow_parallelism(flow),
            output_id=query_id,
        )
        query.shared_group = record.members
        if catch_up:
            query.cursor = flow.output_size_of(query_id)
            # History deltas are never delivered; delta seq numbers line
            # up with changelog positions, so seek past the prefix.
            query.subscriptions.seek(query.cursor)
        self._queries[query_id] = query
        self._next_id += 1
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
        plan: QueryPlan,
        effective: ExecutionConfig,
        output_id: str,
        lineage: bool = True,
    ):
        if effective.parallelism > 1:
            decision = analyze_partitioning(plan)
            if decision.partitionable:
                flow = ShardedDataflow(
                    plan,
                    self.engine._sources,
                    decision.spec,
                    effective.parallelism,
                    effective.allowed_lateness,
                    backend="sync",  # incremental service feeding is in-process
                    retry=effective.retry,
                    batch_size=effective.batch_size,
                    coalesce_updates=effective.coalesce_updates,
                    two_phase=effective.two_phase != "off",
                    output_id=output_id,
                    columnar=effective.columnar,
                )
                self._install_lineage(flow, effective, lineage)
                return flow
        flow = Dataflow(
            plan,
            self.engine._sources,
            effective.allowed_lateness,
            batch_size=effective.batch_size,
            coalesce_updates=effective.coalesce_updates,
            output_id=output_id,
            columnar=effective.columnar,
        )
        self._install_lineage(flow, effective, lineage)
        return flow

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
            flow.set_lineage(
                LineageRecorder(
                    effective.lineage_sample,
                    max_traces=effective.lineage_max_traces,
                )
            )

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
        publishes each query's new changelog deltas to its subscribers.
        Returns ``{query_id: [deltas]}`` for queries that produced
        output.
        """
        started = time.perf_counter()
        key = source.lower()
        if key not in self.engine._sources:
            raise ExecutionError(f"no source registered for {source!r}")
        self.engine._sources[key].apply(event)
        self.source_offsets[key] = self.source_offsets.get(key, 0) + 1
        self.events_ingested += 1
        for record in self.plan_cache.records:
            record.flow.process(event, source)
        published: dict[str, list[Delta]] = {}
        for query in self._queries.values():
            deltas = query.publish_pending()
            if deltas:
                published[query.query_id] = deltas
                query.ingest_push.observe(
                    int((time.perf_counter() - started) * 1_000_000)
                )
        self._check_slow_queries()
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

    def _check_slow_queries(self) -> None:
        """Fold every query's health into the slow-query log.

        Thresholds are the session-level config's ``slow_query_p99_ms``
        and ``slow_query_depth``; 0 disables a check.  The log itself
        deduplicates per episode, so calling this every ingest is cheap
        and produces incident entries, not per-event spam.
        """
        p99_limit = self.config.slow_query_p99_ms
        depth_limit = self.config.slow_query_depth
        if not p99_limit and not depth_limit:
            return
        for query in self._queries.values():
            if p99_limit:
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

        Layout: ``manifest.json`` (queries, cursors, per-source
        offsets, and the flow→members sharing map), one
        ``<first_member>.ckpt`` blob per resident *flow* — shared
        operator state is snapshotted exactly once, however many
        queries read it — and ``sources/<name>.script`` with each
        source's recorded prefix.  Atomic enough for a single-writer
        service: the manifest is written last.
        """
        directory = directory or self.config.checkpoint_dir
        if not directory:
            raise ExecutionError("no checkpoint directory configured")
        os.makedirs(os.path.join(directory, "sources"), exist_ok=True)
        flows = []
        for record in self.plan_cache.records:
            blob = record.flow.checkpoint()
            blob_id = record.members[0]
            with open(os.path.join(directory, f"{blob_id}.ckpt"), "wb") as fh:
                fh.write(blob)
            flows.append(
                {
                    "id": blob_id,
                    "members": list(record.members),
                    "parallelism": self._flow_parallelism(record.flow),
                    "sharing": record.flow.sharing_map(),
                }
            )
        for name, tvr in self.engine._sources.items():
            with open(
                os.path.join(directory, "sources", f"{name}.script"), "w"
            ) as fh:
                fh.write(format_script(tvr))
        manifest = {
            "events_ingested": self.events_ingested,
            "source_offsets": dict(self.source_offsets),
            "flows": flows,
            "queries": [
                {
                    "query_id": q.query_id,
                    "tenant": q.tenant,
                    "sql": q.sql,
                    "parallelism": q.parallelism,
                    "cursor": q.cursor,
                    "next_seq": q.subscriptions.next_seq,
                }
                for q in self._queries.values()
            ],
        }
        with open(os.path.join(directory, _MANIFEST), "w") as fh:
            json.dump(manifest, fh, indent=2)
        self.checkpoints_taken += 1
        return directory

    def restore(self, directory: str, admit) -> int:
        """Resume from a checkpoint directory; returns queries restored.

        ``admit`` is a callable ``(tenant, sql) -> QueryPlan`` — the
        service passes its admission gateway, so a policy change between
        runs is enforced at restore time too.  Sources are re-registered
        from their recorded prefixes, each flow is rebuilt **with the
        checkpoint's exact sharing structure** (via ``from_structure``:
        re-running fingerprint matching could legally regroup after
        withdrawals, and operator states would misalign) and restored
        from its blob, and ``source_offsets`` tells tailers where to
        resume reading.  Manifests from before plan sharing (no
        ``flows`` key) restore one private flow per query.
        """
        with open(os.path.join(directory, _MANIFEST)) as fh:
            manifest = json.load(fh)
        sources_dir = os.path.join(directory, "sources")
        for entry in sorted(os.listdir(sources_dir)):
            name = entry[: -len(".script")]
            with open(os.path.join(sources_dir, entry)) as fh:
                tvr = parse_script(fh.read())
            if tvr.is_bounded:
                self.engine.register_table(name, tvr)
            else:
                self.engine.register_stream(name, tvr)
        self.events_ingested = manifest["events_ingested"]
        self.source_offsets = dict(manifest["source_offsets"])
        if "flows" not in manifest:
            return self._restore_legacy(directory, manifest, admit)
        by_id = {spec["query_id"]: spec for spec in manifest["queries"]}
        for entry in manifest["flows"]:
            self._restore_flow(directory, entry, by_id, admit)
        return len(manifest["queries"])

    def _restore_flow(
        self, directory: str, entry: dict, by_id: dict, admit
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
        with open(os.path.join(directory, f"{entry['id']}.ckpt"), "rb") as fh:
            blob = fh.read()
        payload = pickle.loads(blob)
        if "shard_count" in payload:
            structure = pickle.loads(payload["shards"][0])
            decision = analyze_partitioning(plans[0][1])
            flow = ShardedDataflow.from_structure(
                plans,
                structure,
                self.engine._sources,
                decision.spec,
                payload["shard_count"],
                effective.allowed_lateness,
                backend="sync",
                retry=effective.retry,
                batch_size=effective.batch_size,
                coalesce_updates=effective.coalesce_updates,
                two_phase=effective.two_phase != "off",
                columnar=effective.columnar,
            )
        else:
            flow = Dataflow.from_structure(
                plans,
                payload,
                self.engine._sources,
                effective.allowed_lateness,
                batch_size=effective.batch_size,
                coalesce_updates=effective.coalesce_updates,
                columnar=effective.columnar,
            )
        flow.restore(blob)
        record = _FlowRecord(
            flow, SharedPlanCache.config_key(plans[0][1], effective)
        )
        self.plan_cache.add(record)
        for member, plan in plans:
            spec = by_id[member]
            record.members.append(member)
            query = StandingQuery(
                member,
                spec["tenant"],
                spec["sql"],
                plan,
                flow,
                subscriber_capacity=effective.subscriber_capacity,
                parallelism=self._flow_parallelism(flow),
                output_id=member,
            )
            query.shared_group = record.members
            query.cursor = spec["cursor"]
            query.subscriptions.seek(spec["next_seq"])
            self._queries[member] = query

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
