"""``ShardedDataflow``: N shard dataflows behind the serial ``Dataflow`` API.

Each shard is a complete, independent :class:`~repro.exec.executor.Dataflow`
compiled from the same plan.  Row events are hash-routed to one shard by
the partition key; watermark events are broadcast so every shard's
completeness view (late-row drops, state expiry) is exactly the serial
one.  Because the analyzer admits only row-driven operators — nothing
that emits on watermark advances or timers — each output change belongs
to exactly one routed row event, and interleaving the shard output
slices in global event order reproduces the serial changelog byte for
byte (values, ``ptime``, ``undo``, ``ver``, ordering).

Two driving modes share that merge invariant:

* :meth:`process` — the incremental API: route, run, splice inline.
* :meth:`run` — the batch API: split the merged source sequence into
  per-shard subsequences, run them on a worker-pool backend
  (:mod:`repro.runtime.backends`) under a per-shard supervisor
  (:mod:`repro.runtime.supervisor`) that restarts failed workers from
  their last checkpoint, then dedup re-emitted slices by sequence
  number, merge the tagged output slices, and replay the watermark
  observations into the frontier.

With ``two_phase=True``, eligible grouped-aggregate plans run split:
each shard executes the plan's *partial* half (folding only its routed
rows into per-group payloads), and a
:class:`~repro.runtime.combine.CombineStage` behind the merge point
folds those payloads into the final aggregate changelog.  Payload
slices and watermark observations are applied to the stage in global
sequence order — the same interleaving the serial executor sees — so
the spliced output keeps the serial guarantee while the merge path
carries one payload per shard batch instead of one change per input
row.  Plans the physical planner cannot split (see
:mod:`repro.plan.physical`) simply run single-phase.

Like the serial executor, a sharded dataflow can host several output
channels over shared subplans (:meth:`attach_output` /
:meth:`remove_output`): each shard grafts the new plan onto its local
DAG, and the merge layer keeps a per-output merged changelog and
watermark frontier.  Sharing requires the queries to agree on the
partitioning spec — rows must co-locate identically or shard-local
state would diverge from the serial oracle.

Checkpoints nest the shard checkpoints plus the frontiers and merged
changelogs, so a sharded run restores onto a fresh ``ShardedDataflow``
of the same structure and shard count.
"""

from __future__ import annotations

import pickle
from typing import Callable, Optional, Sequence

from ..core.changelog import Change
from ..core.codec import decode_changes, encode_changes
from ..core.errors import ExecutionError
from ..core.times import MIN_TIMESTAMP, Timestamp
from ..core.tvr import RowEvent, StreamEvent, TimeVaryingRelation, WatermarkEvent
from ..exec.executor import (
    CHECKPOINT_VERSION,
    Dataflow,
    RunResult,
    check_checkpoint_version,
    merge_source_events,
)
from ..obs.lineage import LineageRecorder
from ..obs.metrics import RecoveryStats, merge_shard_reports
from ..obs.telemetry import RunTelemetry
from ..obs.trace import TraceEvent
from ..plan.partition import PartitionSpec
from ..plan.physical import TwoPhaseSplit, split_eligibility
from .backends import run_shards
from .combine import CombineStage
from .faults import FaultInjector, FaultPlan
from .frontier import WatermarkFrontier
from .merge import (
    TaggedSlice,
    WatermarkObservation,
    dedup_by_seq,
    dedup_observations,
    merge_tagged_changes,
    merge_tagged_slices,
    replay_frontier,
)
from .routing import partition_events
from .supervisor import RetryPolicy, ShardSupervisor


__all__ = ["ShardedDataflow"]


class _OutputMerge:
    """Per-output merge state: the spliced changelog and its frontier."""

    __slots__ = ("merged", "frontier")

    def __init__(self, shards: int):
        self.merged: list[Change] = []
        self.frontier = WatermarkFrontier(shards)


class ShardedDataflow:
    """A keyed-parallel dataflow with deterministic, serial-identical output."""

    def __init__(
        self,
        plan,
        sources: dict[str, TimeVaryingRelation],
        spec: PartitionSpec,
        shards: int,
        allowed_lateness: int = 0,
        backend: str = "threads",
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        batch_size: int = 1,
        coalesce_updates: bool = False,
        two_phase: bool = False,
        output_id: str = "main",
        columnar: str = "off",
    ):
        if shards < 1:
            raise ExecutionError("a sharded dataflow needs at least one shard")
        self.plan = plan
        self.spec = spec
        self.backend = backend
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.batch_size = batch_size
        self.coalesce_updates = coalesce_updates
        self.two_phase = two_phase
        self.columnar = columnar
        self._allowed_lateness = allowed_lateness
        self._raw_sources = sources
        self._sources = {name.lower(): tvr for name, tvr in sources.items()}
        #: per-output physical split and its combine stage; an output
        #: absent from these maps runs single-phase.
        self._splits: dict[str, TwoPhaseSplit] = {}
        self._stages: dict[str, CombineStage] = {}
        split = self._prepare_split(plan)
        shard_plan = split.shard_plan if split is not None else plan
        self._shards = [
            Dataflow(
                shard_plan,
                sources,
                allowed_lateness,
                batch_size=batch_size,
                coalesce_updates=coalesce_updates,
                output_id=output_id,
                columnar=columnar,
            )
            for _ in range(shards)
        ]
        if split is not None:
            self._splits[output_id] = split
            self._stages[output_id] = CombineStage(
                split, allowed_lateness, coalesce_updates
            )
        self._outputs: dict[str, _OutputMerge] = {
            output_id: _OutputMerge(shards)
        }
        self._primary = output_id
        self._last_ptime: Timestamp = MIN_TIMESTAMP
        self._trace: Optional[Callable[[TraceEvent], None]] = None
        self._recovery = RecoveryStats()
        #: optional lineage recorder shared with every shard flow;
        #: install via :meth:`set_lineage`.
        self.lineage: Optional[LineageRecorder] = None

    def _prepare_split(self, plan) -> Optional[TwoPhaseSplit]:
        """The plan's two-phase split, if this flow runs two-phase.

        The split is recomputed deterministically wherever the flow is
        (re)built — checkpoints carry only the stage *state*, never the
        rewritten plan.  ``delta_mode`` tracks the flow's
        ``coalesce_updates`` flag: with coalescing on, byte-level output
        identity is already waived, so partials ship folded per-group
        deltas instead of replayable per-row entries.
        """
        if not self.two_phase:
            return None
        split, _ = split_eligibility(plan)
        if split is not None:
            split.partial.delta_mode = self.coalesce_updates
        return split

    @property
    def _frontier(self) -> WatermarkFrontier:
        return self._outputs[self._primary].frontier

    @property
    def _merged_changes(self) -> list[Change]:
        return self._outputs[self._primary].merged

    @property
    def trace(self) -> Optional[Callable[[TraceEvent], None]]:
        """Trace hook over the whole sharded run.

        When set, the callback receives shard-tagged ``"batch"`` events
        from every shard, a ``"frontier"`` event per shard watermark
        advance, and a ``"watermark"`` event when the merged minimum
        moves — per-shard root-watermark events are folded into the
        frontier timeline rather than reported twice.  With the
        ``threads`` backend, batch events arrive from worker threads;
        the callback must tolerate concurrent calls (appending to a
        list is fine).  With the ``processes`` backend, events observed
        inside forked shard workers do not reach the parent's callback.
        """
        return self._trace

    @trace.setter
    def trace(self, callback: Optional[Callable[[TraceEvent], None]]) -> None:
        self._trace = callback
        self._frontier.trace = callback
        for index, shard in enumerate(self._shards):
            shard.trace = _shard_batch_tagger(callback, index)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[Dataflow]:
        """The underlying shard dataflows (read-only use, e.g. state reports)."""
        return list(self._shards)

    @property
    def frontier(self) -> WatermarkFrontier:
        return self._frontier

    @property
    def output_size(self) -> int:
        """Merged primary-output changes so far (mirrors ``Dataflow``)."""
        return len(self._merged_changes)

    def output_slice(self, start: int = 0) -> list:
        """Merged primary-output changes from ``start`` (mirrors ``Dataflow``).

        The merged changelog only grows, so ``output_slice(cursor)``
        after each :meth:`process` yields every change exactly once —
        the incremental consumption contract service mode relies on.
        """
        return list(self._merged_changes[start:])

    @property
    def root_watermark(self) -> Timestamp:
        """The merged (minimum) primary root watermark across all shards."""
        return self._frontier.current

    def output_ids(self) -> list[str]:
        """The attached output channels, in attach order."""
        return list(self._outputs)

    def output_size_of(self, output_id: str) -> int:
        return len(self._outputs[output_id].merged)

    def output_slice_of(self, output_id: str, start: int = 0) -> list[Change]:
        return list(self._outputs[output_id].merged[start:])

    def root_watermark_of(self, output_id: str) -> Timestamp:
        return self._outputs[output_id].frontier.current

    def state_rows_of(self, output_id: str) -> int:
        """Rows retained by the operators ``output_id`` reads, all shards."""
        total = sum(shard.state_rows_of(output_id) for shard in self._shards)
        stage = self._stages.get(output_id)
        if stage is not None:
            total += stage.state_rows()
        return total

    def is_two_phase(self, output_id: Optional[str] = None) -> bool:
        """Whether ``output_id`` (default: primary) runs split aggregation."""
        return (output_id if output_id is not None else self._primary) in (
            self._stages
        )

    def combine_stage(self, output_id: Optional[str] = None):
        """The output's :class:`CombineStage`, or ``None`` if single-phase."""
        return self._stages.get(
            output_id if output_id is not None else self._primary
        )

    @property
    def telemetry(self) -> RunTelemetry:
        """Latency telemetry merged over shards.

        Watermarks are broadcast and every root change is produced by
        exactly one shard (or, two-phase, by the combine stage fed in
        that shard's slice position), so this merge reproduces the
        serial run's distributions sample for sample.
        """
        return self.telemetry_of(self._primary)

    def telemetry_of(self, output_id: str) -> RunTelemetry:
        """One output channel's latency telemetry, merged over shards.

        For a two-phase output the shards emit partial payloads, not
        query rows, so the combine stage's telemetry — one sample per
        final root change, taken at the merged frontier — *is* the
        channel's telemetry, and the shard channels contribute nothing.
        """
        stage = self._stages.get(output_id)
        if stage is not None:
            return RunTelemetry.merged([stage.telemetry])
        return RunTelemetry.merged(
            shard.telemetry_of(output_id) for shard in self._shards
        )

    def set_lineage(self, recorder: Optional[LineageRecorder]) -> None:
        """Install (or remove) one lineage recorder across all shards.

        The parent makes the sampling decision once per routed event
        (so per-source ordinals — and therefore the sampled set — match
        the serial run exactly, even though watermarks are broadcast to
        every shard) and assigns merged-changelog positions; the shard
        flows record the operator path, tagged with their index.
        Lineage rides the incremental :meth:`process` path — the one
        service mode drives; supervised batch runs leave it inert.
        """
        self.lineage = recorder
        for index, shard in enumerate(self._shards):
            shard.set_lineage(recorder, shard=index, register_outputs=False)

    def shard_routed_rows(self) -> list[int]:
        """Rows delivered to each shard's scan leaves (the skew signal)."""
        return [shard.rows_ingested() for shard in self._shards]

    def total_state_rows(self) -> int:
        """Rows currently retained across all shards' operator state."""
        return sum(shard.total_state_rows() for shard in self._shards) + sum(
            stage.state_rows() for stage in self._stages.values()
        )

    def changes_coalesced(self) -> int:
        """Changes dropped by intra-instant compaction, over all shards."""
        return sum(shard.changes_coalesced() for shard in self._shards) + sum(
            stage.changes_coalesced() for stage in self._stages.values()
        )

    def state_report(self):
        """Per-operator state breakdown, summed across shards."""
        from ..exec.state import collect_sharded_state

        return collect_sharded_state(self)

    # -- multi-query sharing ------------------------------------------------------

    def plan_overlap(self, plan) -> int:
        """Resident-subplan coverage of ``plan`` (every shard is identical)."""
        return self._shards[0].plan_overlap(plan)

    def shared_operator_count(self) -> int:
        """Operators read by two or more outputs (counted once, via shard 0)."""
        return self._shards[0].shared_operator_count()

    def attached_operator_count(self) -> int:
        return self._shards[0].attached_operator_count()

    def resident_operator_count(self) -> int:
        return len(self._shards[0].operators)

    def sharing_map(self) -> dict[str, list[int]]:
        """Per-output operator indices (identical across shards)."""
        return self._shards[0].sharing_map()

    def attach_output(
        self,
        output_id: str,
        plan,
        donor: Optional["ShardedDataflow"] = None,
        allow_root_share: bool = True,
    ):
        """Graft ``plan`` onto every shard as a new output channel.

        ``donor`` must be a caught-up ``ShardedDataflow`` of the same
        shard count built over the *same* partition spec — rows must
        co-locate identically for shard-local shared state to stay
        byte-equal to the unshared run.  Shard *i* transplants from the
        donor's shard *i*; the merge layer takes over the donor's
        primary merged changelog and frontier.
        """
        if output_id in self._outputs:
            raise ExecutionError(f"output {output_id!r} is already attached")
        split = self._prepare_split(plan)
        if donor is not None:
            if donor.shard_count != self.shard_count:
                raise ExecutionError(
                    "donor shard count does not match the host dataflow"
                )
            if donor.spec != self.spec:
                raise ExecutionError(
                    "donor partition spec does not match the host dataflow"
                )
            donor_split = donor._splits.get(donor._primary)
            if (split is None) != (donor_split is None):
                raise ExecutionError(
                    "donor and host disagree on two-phase aggregation for "
                    "this plan; shard-local state would not transplant"
                )
            if donor_split is not None:
                # Adopt the donor's rewrite wholesale: shard-level
                # transplanting matches operators by logical-node
                # *identity*, so the attach must use the very plan
                # object the donor's shards were compiled from.
                split = donor_split
        shard_plan = split.shard_plan if split is not None else plan
        for index, shard in enumerate(self._shards):
            shard.attach_output(
                output_id,
                shard_plan,
                donor=donor._shards[index] if donor is not None else None,
                allow_root_share=allow_root_share,
            )
        merge = _OutputMerge(len(self._shards))
        if split is not None:
            self._splits[output_id] = split
            if donor is not None:
                # The donor's combine stage carries the global per-group
                # accumulators matching the transplanted shard state.
                self._stages[output_id] = donor._stages[donor._primary]
            else:
                self._stages[output_id] = CombineStage(
                    split, self._allowed_lateness, self.coalesce_updates
                )
        if donor is not None:
            donor_merge = donor._outputs[donor._primary]
            merge.merged = donor_merge.merged
            merge.frontier = donor_merge.frontier
            self._last_ptime = max(self._last_ptime, donor._last_ptime)
        self._outputs[output_id] = merge
        return merge

    def remove_output(self, output_id: str) -> bool:
        """Detach an output from every shard (ref-counted teardown)."""
        if output_id not in self._outputs:
            return False
        for shard in self._shards:
            shard.remove_output(output_id)
        del self._outputs[output_id]
        self._splits.pop(output_id, None)
        self._stages.pop(output_id, None)
        return True

    # -- incremental API ---------------------------------------------------------

    def process(self, event: StreamEvent, source: str) -> None:
        """Route one source event and splice its output inline.

        Mirrors ``Dataflow.process``: events must arrive in
        processing-time order, and each output's merged changelog grows
        by exactly the changes the serial executor would have appended.
        """
        if event.ptime < self._last_ptime:
            raise ExecutionError("events must be fed in processing-time order")
        self._last_ptime = max(self._last_ptime, event.ptime)
        recorder = self.lineage
        if recorder is not None:
            # The parent claims the per-source ordinal and makes the
            # sampling decision once; shard flows replay it via the
            # pending context, so lineage sampling is identical to the
            # serial run however the event is routed or broadcast.
            recorder.set_pending(recorder.claim(source, (event,)))
        try:
            self._route(event, source)
        finally:
            if recorder is not None:
                recorder.clear_pending()

    def _route(self, event: StreamEvent, source: str) -> None:
        recorder = self.lineage
        if isinstance(event, RowEvent):
            owner = self.spec.shard_of(
                source, event.change.values, len(self._shards)
            )
            targets = range(len(self._shards)) if owner is None else (owner,)
            for index in targets:
                shard = self._shards[index]
                before = {
                    oid: shard.output_size_of(oid) for oid in self._outputs
                }
                merged_at: dict[str, int] = {}
                shard.process(event, source)
                for oid, merge in self._outputs.items():
                    produced = shard.output_slice_of(oid, before[oid])
                    if produced and owner is None:
                        raise ExecutionError(
                            f"broadcast row event for {source!r} produced "
                            f"output in shard {index}; the plan is not "
                            "cleanly partitioned"
                        )
                    stage = self._stages.get(oid)
                    if stage is not None and produced:
                        # Two-phase: the shard emitted partial payloads;
                        # fold them through the combine stage and splice
                        # the *final* changes instead.
                        produced = stage.feed(produced, merge.frontier.current)
                    merged_at[oid] = len(merge.merged)
                    merge.merged.extend(produced)
                if recorder is not None:
                    # Shard notes arrive in production order; walk each
                    # output's cursor forward over the spliced slice.
                    for oid, cause, count in recorder.drain_shard_notes():
                        start = merged_at[oid]
                        if oid in self._stages:
                            # The note counted partial payloads; what
                            # landed in the merged changelog is the
                            # combine stage's output for this event.
                            count = len(self._outputs[oid].merged) - start
                        recorder.record_output(
                            cause, oid, range(start, start + count)
                        )
                        merged_at[oid] = start + count
        elif isinstance(event, WatermarkEvent):
            for index, shard in enumerate(self._shards):
                before = {
                    oid: shard.output_size_of(oid) for oid in self._outputs
                }
                shard.process(event, source)
                if any(
                    shard.output_size_of(oid) != before[oid]
                    for oid in self._outputs
                ):
                    raise ExecutionError(
                        "watermark advance produced output in shard "
                        f"{index}; the partition analyzer admitted a "
                        "watermark-triggered operator it should not have"
                    )
            for oid, merge in self._outputs.items():
                stage = self._stages.get(oid)
                for index, shard in enumerate(self._shards):
                    advanced = merge.frontier.observe(
                        index, event.ptime, shard.root_watermark_of(oid)
                    )
                    if stage is not None and advanced is not None:
                        # The merged frontier moved: free combine-stage
                        # state exactly when the serial root would.
                        stage.advance(advanced, event.ptime)
        else:  # pragma: no cover — the event algebra is closed
            raise ExecutionError(f"unknown stream event {event!r}")

    def finish(self, until: Optional[Timestamp] = None) -> RunResult:
        """Drain shard timers and return the result.

        Partitionable plans schedule no processing-time timers, so the
        drain must be silent; any output here would have no routed row
        event to order by, and the merge invariant would be lost.
        """
        for index, shard in enumerate(self._shards):
            before = {
                oid: shard.output_size_of(oid) for oid in self._outputs
            }
            shard.finish(until)
            if any(
                shard.output_size_of(oid) != before[oid]
                for oid in self._outputs
            ):
                raise ExecutionError(
                    f"timer drain produced output in shard {index}; the "
                    "partition analyzer admitted a timer-driven operator "
                    "it should not have"
                )
        return self.result()

    # -- batch API ---------------------------------------------------------------

    def run(self, until: Optional[Timestamp] = None) -> RunResult:
        """Replay all source events (up to ``until``) on the worker pool.

        Batch runs are *supervised*: each shard worker restarts from
        its last checkpoint on failure (including faults injected by
        ``fault_plan``) with the retries, backoff, and replay dedup the
        :class:`~repro.runtime.supervisor.ShardSupervisor` implements.
        The ``sync`` backend drives the incremental reference path
        unless a fault plan demands supervision.
        """
        events = merge_source_events(self._sources, until)
        if (
            self.backend == "sync"
            and self.fault_plan is None
            and self.batch_size <= 1
        ):
            for event, source in events:
                self.process(event, source)
            return self.finish(until)
        self._run_batch(events, until)
        return self.result()

    def _run_batch(
        self, events: list[tuple[StreamEvent, str]], until: Optional[Timestamp]
    ) -> None:
        if len(self._outputs) > 1:
            raise ExecutionError(
                "supervised batch runs drive a single output; multi-output "
                "sharded dataflows must use the incremental process() API"
            )
        tasks = partition_events(events, self.spec, len(self._shards))
        transfer_state = self.backend == "processes"
        injector = FaultInjector(self.fault_plan)
        trace = self._trace
        split = self._splits.get(self._primary)
        shard_plan = split.shard_plan if split is not None else self.plan

        def make_supervisor(index: int) -> ShardSupervisor:
            def make_dataflow() -> Dataflow:
                flow = Dataflow(
                    shard_plan,
                    self._raw_sources,
                    self._allowed_lateness,
                    batch_size=self.batch_size,
                    coalesce_updates=self.coalesce_updates,
                    output_id=self._primary,
                    columnar=self.columnar,
                )
                flow.trace = _shard_batch_tagger(trace, index)
                return flow

            return ShardSupervisor(
                shard=index,
                dataflow=self._shards[index],
                make_dataflow=make_dataflow,
                tasks=tasks[index],
                until=until,
                policy=self.retry,
                injector=injector,
                transfer_state=transfer_state,
            )

        supervisors = [make_supervisor(i) for i in range(len(self._shards))]
        outcomes = run_shards(
            [supervisor.run for supervisor in supervisors], self.backend
        )
        for index, (supervisor, outcome) in enumerate(
            zip(supervisors, outcomes)
        ):
            if transfer_state:
                # Fork-based workers mutated copies; pull each shard's
                # final state back via its checkpoint bytes.
                if outcome.state is not None:
                    self._shards[index].restore(outcome.state)
            else:
                # Thread workers may have replaced a restarted shard's
                # dataflow with the restored instance.
                self._shards[index] = supervisor.final_flow
            self._recovery.merge(outcome.stats)
            # Recovery trace events are forwarded post-hoc in shard
            # order, so the annotated trace log is deterministic across
            # backends (forked workers cannot reach the parent's hook).
            if trace is not None:
                for event in outcome.events:
                    trace(event)
        deduped_slices = []
        for outcome in outcomes:
            unique, drops = dedup_by_seq(outcome.slices)
            self._recovery.dedup_drops += drops
            deduped_slices.append(unique)
        observations = [
            dedup_observations(outcome.observations) for outcome in outcomes
        ]
        stage = self._stages.get(self._primary)
        if stage is None:
            self._merged_changes.extend(merge_tagged_changes(deduped_slices))
            replay_frontier(self._frontier, observations)
        else:
            self._replay_two_phase(stage, deduped_slices, observations)
        for event, _ in events:
            if event.ptime > self._last_ptime:
                self._last_ptime = event.ptime

    def _replay_two_phase(
        self,
        stage: CombineStage,
        deduped_slices: list[list[TaggedSlice]],
        observations: list[list[WatermarkObservation]],
    ) -> None:
        """Drive the combine stage from a supervised batch run's logs.

        Payload slices and watermark observations are interleaved in
        global sequence order — exactly how the incremental path would
        have fed the stage — so a batch run's merged changelog matches
        the synchronous reference byte for byte.  (An event sequence
        number names either a routed row batch or a broadcast
        watermark, never both.)
        """
        merge = self._outputs[self._primary]
        slices = merge_tagged_slices(deduped_slices)
        by_seq: dict[int, list[tuple[int, Timestamp, Timestamp]]] = {}
        for shard, obs in enumerate(observations):
            for seq, ptime, value in obs:
                by_seq.setdefault(seq, []).append((shard, ptime, value))
        slice_index = 0
        for seq in sorted(set(by_seq) | {s for s, _ in slices}):
            while slice_index < len(slices) and slices[slice_index][0] == seq:
                merge.merged.extend(
                    stage.feed(
                        slices[slice_index][1], merge.frontier.current
                    )
                )
                slice_index += 1
            for shard, ptime, value in sorted(by_seq.get(seq, ())):
                advanced = merge.frontier.observe(shard, ptime, value)
                if advanced is not None:
                    stage.advance(advanced, ptime)

    @property
    def recovery(self) -> RecoveryStats:
        """Recovery accounting so far (restarts, replay, dedup, clamps)."""
        stats = RecoveryStats(
            shard_restarts=self._recovery.shard_restarts,
            rows_replayed=self._recovery.rows_replayed,
            dedup_drops=self._recovery.dedup_drops,
            wm_regressions=self._recovery.wm_regressions
            + self._frontier.wm_regressions,
        )
        return stats

    # -- results -----------------------------------------------------------------

    def result(self) -> RunResult:
        """The merged result accumulated so far (primary output).

        Counters sum over shards: watermarks are broadcast, so every
        shard applies the serial completeness rules to exactly the rows
        routed to it, and the totals (late drops, expiries, rows in/out)
        equal the serial run's.  The attached metrics report additionally
        keeps the per-shard breakdown, surfacing routing skew.
        """
        shard_results = [shard.result() for shard in self._shards]
        return RunResult(
            schema=self.plan.schema,
            changes=list(self._merged_changes),
            watermarks=self._frontier.merged,
            last_ptime=max(
                [self._last_ptime] + [r.last_ptime for r in shard_results]
            ),
            late_dropped=sum(r.late_dropped for r in shard_results),
            expired_rows=sum(r.expired_rows for r in shard_results)
            + sum(s.expired_rows() for s in self._stages.values()),
            peak_state_rows=sum(r.peak_state_rows for r in shard_results)
            + sum(s.peak_state_rows() for s in self._stages.values()),
            metrics=self.metrics_report(),
        )

    def metrics_report(self, output_id: Optional[str] = None):
        """Per-operator totals over shards, plus per-shard breakdowns.

        The merged report also carries the run's recovery accounting
        (shard restarts, rows replayed, dedup drops, watermark clamps)
        — zero-valued for a fault-free run, ``None`` only on serial
        reports.
        """
        report = merge_shard_reports(
            [shard.metrics_report(output_id) for shard in self._shards]
        )
        report.recovery = self.recovery
        stage = self._stages.get(
            output_id if output_id is not None else self._primary
        )
        if stage is not None:
            # The combine stage sits above the shards' partial trees:
            # its operators head the report at depths 0..k-1 and every
            # shard entry shifts below them, so the rendered tree reads
            # root-first like the physical plan actually executed.
            stage_entries = stage.metrics_entries()
            for entry in report.operators:
                entry["depth"] += len(stage_entries)
            report.operators[:0] = stage_entries
            report.telemetry = self.telemetry_of(
                output_id if output_id is not None else self._primary
            )
        return report

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> bytes:
        """A consistent snapshot of every shard plus the merge state.

        Like :meth:`Dataflow.checkpoint` this is snapshot by
        serialization — shard blobs, combine-stage state and the merged
        changelogs (through the changelog codec) are all pickled before
        the call returns.
        """
        return pickle.dumps(self._checkpoint_payload(), pickle.HIGHEST_PROTOCOL)

    def _checkpoint_payload(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "shard_count": len(self._shards),
            "shards": [shard.checkpoint() for shard in self._shards],
            "output_order": list(self._outputs),
            "outputs": {
                oid: {
                    "merged": encode_changes(merge.merged),
                    "frontier": merge.frontier.snapshot(),
                }
                for oid, merge in self._outputs.items()
            },
            "last_ptime": self._last_ptime,
            # Combine stages carry *state*, never structure: a restored
            # flow recomputes the physical split from its own plan, so
            # the checkpoint stays valid across planner-identical
            # rebuilds (mirroring how shard plans are never pickled).
            "two_phase_outputs": sorted(self._stages),
            "stages": {
                oid: stage.snapshot() for oid, stage in self._stages.items()
            },
            "recovery": self._recovery.as_dict(),
            # Shard blobs carry no lineage (they don't own the shared
            # recorder); the parent snapshots it exactly once.
            "lineage": (
                self.lineage.snapshot() if self.lineage is not None else None
            ),
        }

    def restore(self, checkpoint) -> None:
        """Restore a checkpoint of the same structure and shard width.

        Accepts the checkpoint bytes or the payload already unpickled
        from them (whose shard entries may in turn be decoded shard
        payloads); ownership passes to this flow either way — see
        :meth:`Dataflow.restore`.
        """
        self._restore_payload(
            checkpoint
            if isinstance(checkpoint, dict)
            else pickle.loads(checkpoint)
        )

    def _restore_payload(self, payload: dict) -> None:
        check_checkpoint_version(payload)
        if payload["shard_count"] != len(self._shards):
            raise ExecutionError(
                f"checkpoint has {payload['shard_count']} shards, this "
                f"dataflow has {len(self._shards)}"
            )
        for shard, blob in zip(self._shards, payload["shards"]):
            shard.restore(blob)
        if "outputs" in payload:
            if set(payload["output_order"]) != set(self._outputs):
                raise ExecutionError(
                    "checkpoint does not match this dataflow's outputs"
                )
            for oid, stored in payload["outputs"].items():
                merge = self._outputs[oid]
                merge.merged = decode_changes(stored["merged"])
                merge.frontier.restore(stored["frontier"])
        else:  # pre-DAG checkpoint shape
            merge = self._outputs[self._primary]
            merge.frontier.restore(payload["frontier"])
            merge.merged = list(payload["merged_changes"])
        self._last_ptime = payload["last_ptime"]
        stored_stages = payload.get("stages", {})
        if set(stored_stages) != set(self._stages):
            raise ExecutionError(
                "checkpoint two-phase outputs "
                f"{sorted(stored_stages)} do not match this dataflow's "
                f"{sorted(self._stages)}"
            )
        for oid, blob in stored_stages.items():
            self._stages[oid].restore(blob)
        # Absent in pre-supervisor checkpoints; start the ledger fresh.
        self._recovery = RecoveryStats(**payload.get("recovery", {}))
        if payload.get("lineage") is not None:
            self.set_lineage(LineageRecorder.restore(payload["lineage"]))

    @classmethod
    def from_structure(
        cls,
        plans: Sequence[tuple[str, "object"]],
        structure: dict,
        sources: dict[str, TimeVaryingRelation],
        spec: PartitionSpec,
        shards: int,
        allowed_lateness: int = 0,
        backend: str = "threads",
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        batch_size: int = 1,
        coalesce_updates: bool = False,
        two_phase: bool = False,
        columnar: str = "off",
    ) -> "ShardedDataflow":
        """Rebuild a multi-output sharded dataflow from a checkpoint recipe.

        ``structure`` is one shard's checkpoint payload (all shards are
        structurally identical); see ``Dataflow.from_structure``.  With
        ``two_phase`` the physical split is recomputed per plan — the
        rewrite is deterministic, so the rebuilt shard trees match the
        checkpointed ones.  Call :meth:`restore` with the full sharded
        checkpoint afterwards.
        """
        if shards < 1:
            raise ExecutionError("a sharded dataflow needs at least one shard")
        self = cls.__new__(cls)
        self.plan = plans[0][1]
        self.spec = spec
        self.backend = backend
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.batch_size = batch_size
        self.coalesce_updates = coalesce_updates
        self.two_phase = two_phase
        self.columnar = columnar
        self._allowed_lateness = allowed_lateness
        self._raw_sources = sources
        self._sources = {name.lower(): tvr for name, tvr in sources.items()}
        self._splits = {}
        self._stages = {}
        shard_plans = []
        for oid, plan in plans:
            split = self._prepare_split(plan)
            if split is not None:
                self._splits[oid] = split
                self._stages[oid] = CombineStage(
                    split, allowed_lateness, coalesce_updates
                )
                shard_plans.append((oid, split.shard_plan))
            else:
                shard_plans.append((oid, plan))
        self._shards = [
            Dataflow.from_structure(
                shard_plans,
                structure,
                sources,
                allowed_lateness,
                batch_size=batch_size,
                coalesce_updates=coalesce_updates,
                columnar=columnar,
            )
            for _ in range(shards)
        ]
        self._outputs = {oid: _OutputMerge(shards) for oid, _ in plans}
        self._primary = plans[0][0]
        self._last_ptime = MIN_TIMESTAMP
        self._trace = None
        self._recovery = RecoveryStats()
        self.lineage = None
        return self


def _shard_batch_tagger(
    callback: Optional[Callable[[TraceEvent], None]], shard: int
) -> Optional[Callable[[TraceEvent], None]]:
    """Forward a shard's batch events, tagged with its index.

    Shard-local watermark events are swallowed: the frontier reports
    the same advances as ``"frontier"`` events, with the merged-minimum
    ``"watermark"`` events layered on top, so a collector's
    ``watermark_advances`` means the same thing serial or sharded.
    """
    if callback is None:
        return None

    def forward(event: TraceEvent) -> None:
        if event.kind == "batch":
            callback(event.at_shard(shard))

    return forward
