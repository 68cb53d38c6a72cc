"""``ShardedDataflow``: N shard dataflows behind the serial ``Dataflow`` contract.

Each shard is a complete, independent :class:`~repro.exec.executor.Dataflow`
compiled from the same plan.  Row events are hash-routed to one shard by
the partition key; watermark events are broadcast so every shard's
completeness view (late-row drops, state expiry) is exactly the serial
one.  Because the analyzer admits only row-driven operators — nothing
that emits on watermark advances or timers — each output change belongs
to exactly one routed row event, and interleaving the shard output
slices in global event order reproduces the serial changelog byte for
byte (values, ``ptime``, ``undo``, ``ver``, ordering).

There is one protocol, whoever drives:

1. **task** — the parent forms each instant's run once, by the serial
   executor's rule (:func:`~repro.exec.executor.event_runs`), numbers
   the events, and hands every shard its *share* of the run as one
   ``(run id, seqs, events, source)`` task — sequence gaps and all
   (:func:`~repro.runtime.routing.partition_events`);
2. **drive** — :func:`~repro.runtime.supervisor.drive_run` feeds a
   shard flow a task — whole, when the shard plan carries the rows'
   sequence numbers to its root; split at the gaps otherwise — and
   *takes* what it produced, logging ``(tag, changes)`` slices and
   watermark observations per output
   (:class:`~repro.runtime.merge.ShardLog`) — the shard keeps no output
   history;
3. **splice** — :func:`~repro.runtime.merge.splice` interleaves the
   logs by sequence number into each output's merged changelog and
   watermark frontier, putting a run's shares back together first.

:meth:`ShardedDataflow.process` / :meth:`~ShardedDataflow.process_batch`
/ :meth:`~ShardedDataflow.replay` do this for one run of events at a
time, driving the shards in the caller.  :meth:`~ShardedDataflow.run`
does it once for every run the sources hold, driving each shard with
the configured backend (:mod:`repro.runtime.backends`) under a
:class:`~repro.runtime.supervisor.ShardSupervisor` that restarts a
failed worker from its last checkpoint; what a restarted worker
re-emitted is dropped by tag before the splice.

With ``two_phase=True``, eligible grouped-aggregate plans run split:
each shard executes the plan's *partial* half (folding only its routed
rows into per-group payloads), and behind the merge point an ordinary
:class:`~repro.exec.executor.Dataflow` — the *combine flow* — runs the
merge half (``TwoPhaseSplit.merge_plan``: the combine aggregate under
the original finishing steps), folding those payloads into the final
aggregate changelog.  The splice feeds it payloads and frontier
advances in global sequence order — the same interleaving the serial
executor sees — so the output keeps the serial guarantee while the
merge path carries one payload per shard feed instead of one change per
input row, and the combine flow is fed one reassembled payload per run.
Its counting, compaction, state sweep and telemetry are the executor's
own.  Plans the physical planner cannot split (see
:mod:`repro.plan.physical`) simply run single-phase.

Like the serial executor, a sharded dataflow can host several output
channels over shared subplans (:meth:`attach_output` /
:meth:`remove_output`): each shard grafts the new plan onto its local
DAG, and the merge layer keeps a per-output merged changelog and
watermark frontier.  Sharing requires the queries to agree on the
partitioning spec — rows must co-locate identically or shard-local
state would diverge from the serial oracle.

Checkpoints nest the shard checkpoints (operator state only) plus the
frontiers and — unless the caller keeps them (``histories=False``) —
the merged changelogs, so a sharded run restores onto a fresh
``ShardedDataflow`` of the same structure and shard count.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from functools import partial
from typing import Callable, Optional, Sequence

from ..core.codec import changes_log, concat_segments
from ..core.collector import collector_paused
from ..core.errors import ExecutionError
from ..core.times import MIN_TIMESTAMP, Timestamp
from ..core.tvr import RowEvent, StreamEvent, TimeVaryingRelation
from ..core.watermark import WatermarkTrack
from ..exec.compile import SHARDS_KEEP_INSTANTS
from ..exec.executor import (
    CHECKPOINT_VERSION,
    Dataflow,
    OutputLogs,
    RunResult,
    check_checkpoint_version,
    check_same_instant,
    stored_changes,
)
from ..exec.history import PreparedHistory
from ..obs.metrics import RecoveryStats, merge_shard_reports
from ..obs.telemetry import RunTelemetry
from ..obs.trace import TraceEvent
from ..plan.partition import PartitionSpec
from ..plan.physical import TwoPhaseSplit, split_eligibility
from .backends import forks, run_shards
from .faults import FaultInjector
from .frontier import WatermarkFrontier
from .merge import (
    MergedOutput,
    ShardLog,
    dedup_by_seq,
    dedup_observations,
    splice,
)
from .routing import partition_events
from .supervisor import ShardSupervisor, drain_timers, drive_run


__all__ = ["ShardedDataflow"]


class ShardedDataflow(OutputLogs):
    """A keyed-parallel dataflow with deterministic, serial-identical output."""

    sharded = True

    def __init__(
        self,
        plan,
        sources: dict[str, TimeVaryingRelation],
        config,
        output_id: str = "main",
        *,
        spec: PartitionSpec,
        two_phase: bool,
    ):
        """``config`` is the resolved ``ExecutionConfig`` (its
        ``parallelism`` is the shard count); ``spec`` and ``two_phase``
        are what the planner decided for it (see ``build_flow``)."""
        self._init([(output_id, plan)], None, sources, config, spec, two_phase)

    @classmethod
    def from_structure(
        cls,
        plans: Sequence[tuple[str, "object"]],
        structure: dict,
        sources: dict[str, TimeVaryingRelation],
        config,
        *,
        spec: PartitionSpec,
        two_phase: bool,
    ) -> "ShardedDataflow":
        """Rebuild a multi-output sharded dataflow from a checkpoint recipe.

        ``structure`` is the decoded sharded checkpoint payload; every
        shard is rebuilt from shard 0's recipe (all shards are
        structurally identical; see ``Dataflow.from_structure``), whose
        blob is decoded in place so :meth:`restore` of the same payload
        does not decode it again.  With ``two_phase`` the physical split
        is recomputed per plan — the rewrite is deterministic, so the
        rebuilt shard trees match the checkpointed ones.  Call
        :meth:`restore` with the payload afterwards.
        """
        check_checkpoint_version(structure)
        recipe = structure["shards"][0]
        if not isinstance(recipe, dict):
            recipe = structure["shards"][0] = pickle.loads(recipe)
        self = cls.__new__(cls)
        self._init(plans, recipe, sources, config, spec, two_phase)
        return self

    def _init(
        self,
        plans: Sequence[tuple[str, "object"]],
        structure: Optional[dict],
        sources: dict[str, TimeVaryingRelation],
        config,
        spec: PartitionSpec,
        two_phase: bool,
    ) -> None:
        """The one initialiser behind both construction paths."""
        self._primary, self.plan = plans[0]
        #: the resolved ``ExecutionConfig`` this flow (and every shard)
        #: runs under.
        self.config = config
        self.spec = spec
        self.two_phase = two_phase
        self.batch_size = config.batch_size
        self._sources = sources
        self._history = getattr(sources, "history", None) or PreparedHistory()
        #: per-output physical split and the flow running its merge
        #: half (the combine flow, whose one output is ``"main"``); an
        #: output absent from these maps runs single-phase.
        self.splits: dict[str, TwoPhaseSplit] = {}
        self.combines: dict[str, Dataflow] = {}
        #: per output, the plan its shards run (the partial half of a
        #: split plan) — what a fresh shard is built from.
        self._shard_plans: dict[str, object] = {}
        self._outputs: dict[str, MergedOutput] = {}
        self._touched: set[str] = set()
        self._last_ptime: Timestamp = MIN_TIMESTAMP
        self._trace: Optional[Callable[[TraceEvent], None]] = None
        self._recovery = RecoveryStats()
        shards = config.parallelism
        for output_id, plan in plans:
            self._open_output(output_id, plan, self._prepare_split(plan), shards)
        self._shards = [self._new_shard(i, structure) for i in range(shards)]

    def _open_output(
        self,
        output_id: str,
        plan,
        split: Optional[TwoPhaseSplit],
        shards: int,
        combine: Optional[Dataflow] = None,
    ) -> MergedOutput:
        """Merge-side bookkeeping of one output: the plan its shards run,
        its combine flow when that plan is split (``combine`` to adopt a
        donor's), its merged changelog."""
        if split is not None:
            self.splits[output_id] = split
            if combine is None:
                # Compiled like every other flow: fused, so the combine
                # aggregate absorbs a column-selecting finishing Project
                # (payloads still arrive as rows).
                combine = Dataflow(split.merge_plan, {}, self.config)
            self.combines[output_id] = combine
        self._shard_plans[output_id] = (
            split.shard_plan if split is not None else plan
        )
        merge = self._outputs[output_id] = MergedOutput(shards)
        return merge

    def _new_shard(self, index: int, structure: Optional[dict] = None) -> Dataflow:
        """A fresh shard flow over this flow's outputs — at construction,
        and for a restarted worker — structure-exact when a checkpoint
        recipe says which operators the outputs share."""
        if structure is None:
            ((output_id, plan),) = self._shard_plans.items()
            flow = Dataflow(plan, self._sources, self.config, output_id)
        else:
            flow = Dataflow.from_structure(
                list(self._shard_plans.items()), structure, self._sources,
                self.config,
            )
        flow.trace = self._shard_trace(index)
        return flow

    def _shard_trace(self, index: int) -> Optional[Callable[[TraceEvent], None]]:
        """Shard ``index``'s trace hook — none when the primary output is
        two-phase: its shards emit partial payloads, and its batches are
        reported by the combine flow's root."""
        if self._primary in self.combines:
            return None
        return _batch_events(self._trace, index)

    def _prepare_split(self, plan) -> Optional[TwoPhaseSplit]:
        """The plan's two-phase split, if this flow runs two-phase.

        The split is recomputed deterministically wherever the flow is
        (re)built — checkpoints carry only the combine flows' *state*,
        never the rewritten plan.  ``delta_mode`` tracks the flow's
        ``coalesce_updates`` flag: with coalescing on, byte-level output
        identity is already waived, so partials ship folded per-group
        deltas instead of replayable per-row entries.
        """
        if not self.two_phase:
            return None
        split, _ = split_eligibility(plan)
        if split is not None:
            split.partial.delta_mode = self.config.coalesce_updates
        return split

    @property
    def trace(self) -> Optional[Callable[[TraceEvent], None]]:
        """Trace hook over the whole sharded run.

        When set, the callback receives shard-tagged ``"batch"`` events
        from every shard, a ``"frontier"`` event per shard watermark
        advance, and a ``"watermark"`` event when the merged minimum
        moves — per-shard root-watermark events are folded into the
        frontier timeline rather than reported twice.  For a two-phase
        primary output the ``"batch"`` events come from the combine
        flow's root instead (untagged: it runs in the caller), one per
        run that changed the output — the shards' partial payloads are
        not output.  The callback is only ever called from the caller's
        thread, one event at a time.  With the ``processes`` backend,
        events observed inside forked shard workers do not reach the
        parent's callback.
        """
        return self._trace

    @trace.setter
    def trace(self, callback: Optional[Callable[[TraceEvent], None]]) -> None:
        self._trace = callback
        self.frontier.trace = callback
        for index, shard in enumerate(self._shards):
            shard.trace = self._shard_trace(index)
        combine = self.combines.get(self._primary)
        if combine is not None:
            combine.trace = _batch_events(callback)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[Dataflow]:
        """The underlying shard dataflows (read-only use, e.g. state reports)."""
        return list(self._shards)

    @property
    def frontier(self) -> WatermarkFrontier:
        """The primary output's watermark frontier."""
        return self._outputs[self._primary].frontier

    def output_ids(self) -> list[str]:
        """The attached output channels, in attach order."""
        return list(self._outputs)

    def root_watermark_of(self, output_id: str) -> Timestamp:
        return self._outputs[output_id].frontier.current

    def state_rows_of(self, output_id: str) -> int:
        """Rows retained by the operators ``output_id`` reads, all shards."""
        total = sum(shard.state_rows_of(output_id) for shard in self._shards)
        combine = self.combines.get(output_id)
        if combine is not None:
            total += combine.total_state_rows()
        return total

    def is_two_phase(self, output_id: Optional[str] = None) -> bool:
        """Whether ``output_id`` (default: primary) runs split aggregation."""
        return (output_id or self._primary) in self.combines

    def telemetry_of(self, output_id: str) -> RunTelemetry:
        """One output channel's latency telemetry, merged over shards.

        Watermarks are broadcast and every root change is produced by
        exactly one shard, so the merge reproduces the serial run's
        distributions sample for sample.  For a two-phase output the
        shards emit partial payloads, not query rows, so the combine
        flow's telemetry — its root watermark is the merged frontier's —
        *is* the channel's telemetry, and the shard channels contribute
        nothing.
        """
        combine = self.combines.get(output_id)
        if combine is not None:
            return RunTelemetry.merged([combine.telemetry_of("main")])
        return RunTelemetry.merged(
            shard.telemetry_of(output_id) for shard in self._shards
        )

    def run_split_reason(self) -> Optional[str]:
        """Why this flow's shards are fed their share of a run split at
        sequence gaps — or ``None``: they are fed it whole, and the
        splice puts the run back together by sequence number.

        The one place the run shape is decided, read once per delivery
        and once per :meth:`run` — never by a shard, so a restarted
        worker's fresh flow cannot see it differently.  The shard plan
        must carry sequence numbers to every root
        (``Dataflow.run_split_reason``).
        """
        return self._shards[0].run_split_reason()

    def run_span_reason(self) -> str:
        """Why the runs this flow forms (:func:`event_runs`) stay within
        one processing-time instant: always, because a two-phase shard's
        payload for its share of a run carries one ``ptime``
        (``PartialAggregateOperator._condense``)."""
        return SHARDS_KEEP_INSTANTS

    def shard_routed_rows(self) -> list[int]:
        """Rows delivered to each shard's scan leaves (the skew signal)."""
        return [shard.rows_ingested() for shard in self._shards]

    def _flows(self) -> list[Dataflow]:
        """Every serial flow this one drives: the shards, then the
        combine flows."""
        return [*self._shards, *self.combines.values()]

    def total_state_rows(self) -> int:
        """Rows currently retained across all operator state."""
        return sum(flow.total_state_rows() for flow in self._flows())

    def changes_coalesced(self) -> int:
        """Changes dropped by intra-instant compaction, over all flows."""
        return sum(flow.changes_coalesced() for flow in self._flows())

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
        share_root: Optional[str] = None,
    ):
        """Graft ``plan`` onto every shard as a new output channel.

        ``donor`` must be a caught-up ``ShardedDataflow`` of the same
        shard count built over the *same* partition spec — rows must
        co-locate identically for shard-local shared state to stay
        byte-equal to the unshared run.  Shard *i* transplants from the
        donor's shard *i*, and shares the root of its own copy of
        ``share_root`` (see :meth:`Dataflow.attach_output`); the merge
        layer takes over the donor's primary merged changelog and
        frontier.
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
            donor_split = donor.splits.get(donor._primary)
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
        for index, shard in enumerate(self._shards):
            shard.attach_output(
                output_id,
                split.shard_plan if split is not None else plan,
                donor=donor._shards[index] if donor is not None else None,
                share_root=share_root,
            )
        # The donor's combine flow carries the global per-group
        # accumulators matching the transplanted shard state.
        merge = self._open_output(
            output_id,
            plan,
            split,
            len(self._shards),
            donor.combines.get(donor._primary) if donor is not None else None,
        )
        if donor is not None:
            donor_merge = donor._outputs[donor._primary]
            merge.log = donor_merge.log
            merge.frontier = donor_merge.frontier
            self._last_ptime = max(self._last_ptime, donor._last_ptime)
        return merge

    def remove_output(self, output_id: str) -> bool:
        """Detach an output from every shard (ref-counted teardown)."""
        if output_id not in self._outputs:
            return False
        for shard in self._shards:
            shard.remove_output(output_id)
        del self._outputs[output_id], self._shard_plans[output_id]
        self._touched.discard(output_id)
        self.splits.pop(output_id, None)
        self.combines.pop(output_id, None)
        return True

    # -- driving -----------------------------------------------------------------

    def process(self, event: StreamEvent, source: str) -> None:
        """Feed one source event through the dataflow (incremental API).

        Mirrors ``Dataflow.process``: a row event is a batch of one;
        events must arrive in processing-time order, and each output's
        merged changelog grows by exactly the changes the serial
        executor would have appended.
        """
        if isinstance(event, RowEvent):
            self.process_batch((event,), source)
        else:
            self._deliver((event,), source)

    def process_batch(self, events: Sequence[RowEvent], source: str) -> None:
        """Feed a run of same-instant row events of one source at once.

        The run is partitioned, each shard is driven over its share in
        the caller, and the shard logs are spliced — the merged output
        is byte-identical to feeding the events one at a time.
        """
        if events:
            check_same_instant(events)
            self._deliver(events, source)

    def batchable_source(self, source: str) -> bool:
        """Whether ``source`` events may be batched (every shard agrees)."""
        return self._shards[0].batchable_source(source)

    def scans_source(self, source: str) -> bool:
        """Whether any scan leaf consumes ``source``."""
        return self._shards[0].scans_source(source)

    def _deliver(self, events: Sequence[StreamEvent], source: str) -> None:
        """One instant's ``events``: partition, drive in the caller, splice."""
        ptime = events[0].ptime
        if ptime < self._last_ptime:
            raise ExecutionError("events must be fed in processing-time order")
        self._last_ptime = ptime
        whole = self.run_split_reason() is None
        logs = {}
        for index, tasks in enumerate(
            partition_events([(events, source)], self.spec, len(self._shards))
        ):
            if tasks:
                (task,) = tasks  # one run in: one share, or none
                logs[index] = {oid: ShardLog() for oid in self._outputs}
                drive_run(self._shards[index], task, logs[index], whole)
        splice(self._outputs, self.combines, logs, self._touched)

    def finish(self, until: Optional[Timestamp] = None) -> RunResult:
        """Drain shard timers (silently — see
        :func:`~repro.runtime.supervisor.drain_timers`) and return the
        result."""
        for index, shard in enumerate(self._shards):
            drain_timers(shard, until, index)
        return self.result()

    @collector_paused
    def run(self, until: Optional[Timestamp] = None) -> RunResult:
        """Replay all source events (up to ``until``) on the shard driver.

        Everything the sources hold, in the runs :func:`event_runs`
        forms for this flow (read off the prepared history), is
        partitioned at once, and each shard is driven by a worker of
        ``backend`` under supervision:
        a failed worker (including faults injected by ``fault_plan``)
        restarts from its last checkpoint with the retries, backoff,
        and replay the
        :class:`~repro.runtime.supervisor.ShardSupervisor` implements;
        what it re-emits is dropped by tag before the one splice.
        """
        runs = list(self._history.runs(self, self._sources, until))
        tasks = partition_events(
            ((run, source) for _, run, source in runs),
            self.spec,
            len(self._shards),
        )
        transfer_state = forks(self.config.backend)
        injector = FaultInjector(self.config.fault_plan)
        structure = self._shards[0].structure()
        whole = self.run_split_reason() is None
        supervisors = [
            ShardSupervisor(
                shard=index,
                dataflow=shard,
                make_dataflow=partial(self._new_shard, index, structure),
                tasks=tasks[index],
                until=until,
                policy=self.config.retry,
                injector=injector,
                transfer_state=transfer_state,
                whole_runs=whole,
            )
            for index, shard in enumerate(self._shards)
        ]
        outcomes = run_shards(
            [supervisor.run for supervisor in supervisors], self.config.backend
        )
        logs = {}
        for index, (supervisor, outcome) in enumerate(
            zip(supervisors, outcomes)
        ):
            if transfer_state:
                # Fork-based workers mutated copies; pull each shard's
                # final state back via its checkpoint bytes.
                if outcome.state is not None:
                    self._shards[index].restore(outcome.state)
            else:
                # An in-caller worker may have replaced a restarted
                # shard's dataflow with the restored instance.
                self._shards[index] = supervisor.final_flow
            self._recovery.merge(outcome.stats)
            # Recovery trace events are forwarded post-hoc in shard
            # order, so the annotated trace log is deterministic across
            # backends (forked workers cannot reach the parent's hook).
            if self._trace is not None:
                for event in outcome.events:
                    self._trace(event)
            logs[index] = shard_logs = outcome.logs()
            if outcome.stats.shard_restarts:
                # Only a restarted worker re-emits.
                for oid, log in list(shard_logs.items()):
                    unique, drops = dedup_by_seq(log.slices)
                    self._recovery.dedup_drops += drops
                    shard_logs[oid] = ShardLog(
                        unique, dedup_observations(log.observations)
                    )
        splice(self._outputs, self.combines, logs, self._touched)
        if runs:  # (its runs keep to one instant: the last is the clock's)
            self._last_ptime = max(self._last_ptime, runs[-1][1][-1].ptime)
        return self.result()

    @property
    def recovery(self) -> RecoveryStats:
        """Recovery accounting so far (restarts, replay, dedup, clamps)."""
        return replace(
            self._recovery,
            wm_regressions=self._recovery.wm_regressions
            + self.frontier.wm_regressions,
        )

    # -- results -----------------------------------------------------------------

    def result(self) -> RunResult:
        """The merged result accumulated so far (primary output).

        Counters sum over shards: watermarks are broadcast, so every
        shard applies the serial completeness rules to exactly the rows
        routed to it, and the totals (late drops, expiries, rows in/out)
        equal the serial run's.  The attached metrics report additionally
        keeps the per-shard breakdown, surfacing routing skew.
        """
        results = [flow.result() for flow in self._flows()]
        return RunResult(
            schema=self.plan.schema,
            changes=self.output_slice_of(self._primary),
            watermarks=self.frontier.merged,
            last_ptime=max([self._last_ptime] + [r.last_ptime for r in results]),
            late_dropped=sum(r.late_dropped for r in results),
            expired_rows=sum(r.expired_rows for r in results),
            peak_state_rows=sum(r.peak_state_rows for r in results),
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
        output_id = output_id or self._primary
        combine = self.combines.get(output_id)
        if combine is not None:
            # The merge half sits above the shards' partial trees: its
            # operators head the report at depths 0..k-1 and every shard
            # entry shifts below them, so the rendered tree reads
            # root-first like the physical plan actually executed.  Its
            # leaf is fed by the splice, not routed rows.
            merge_entries = combine.metrics_report().operators
            merge_entries[-1]["leaf"] = False
            for entry in report.operators:
                entry["depth"] += len(merge_entries)
            report.operators[:0] = merge_entries
            report.source = self.telemetry_of(output_id)
        return report

    # -- checkpointing -----------------------------------------------------------

    @collector_paused
    def checkpoint(self, histories: bool = True) -> bytes:
        """A consistent snapshot of every shard plus the merge state.

        Like :meth:`Dataflow.checkpoint` this is snapshot by
        serialization — shard blobs (operator state only: the drive
        loop leaves no output history in a shard), the combine flows'
        state and the merged changelogs (each tail sealed into one more
        codec segment, the segments joined into one triple) are all pickled
        before the call returns.  ``histories=False`` leaves the merged
        changelogs out, for a caller that keeps them in a log of its
        own (:meth:`output_segments_of`) and hands them back to
        :meth:`restore`.
        """
        for merge in self._outputs.values():
            merge.log.seal()
        payload = {
            "version": CHECKPOINT_VERSION,
            "shard_count": len(self._shards),
            "shards": [shard.checkpoint() for shard in self._shards],
            "output_order": list(self._outputs),
            "outputs": {
                oid: {
                    "merged": (
                        concat_segments(merge.log.sealed) if histories else None
                    ),
                    "size": merge.log.base,
                    "frontier": merge.frontier.snapshot(),
                }
                for oid, merge in self._outputs.items()
            },
            "last_ptime": self._last_ptime,
            # Combine flows carry *state*, never structure: a restored
            # flow recomputes the physical split from its own plan, so
            # the checkpoint stays valid across planner-identical
            # rebuilds (mirroring how shard plans are never pickled).
            "two_phase_outputs": sorted(self.combines),
            "stages": {
                oid: _stage_bytes(combine)
                for oid, combine in self.combines.items()
            },
            "recovery": self._recovery.as_dict(),
            # (format 4 keeps the entry a lineage recorder once filled)
            "lineage": None,
        }
        return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)

    @collector_paused
    def restore(
        self,
        checkpoint,
        histories: Optional[dict[str, list]] = None,
    ) -> None:
        """Restore a checkpoint of the same structure and shard width.

        Only a cut of format ``CHECKPOINT_VERSION`` restores.  Accepts
        the checkpoint bytes or the payload already unpickled from them
        (whose shard entries may in turn be decoded shard payloads);
        ownership passes to this flow either way — see
        :meth:`Dataflow.restore`.  ``histories`` supplies the merged
        changelogs of a blob cut with ``histories=False``; either way
        they are adopted encoded and no ``Change`` is built.
        """
        payload = (
            checkpoint
            if isinstance(checkpoint, dict)
            else pickle.loads(checkpoint)
        )
        check_checkpoint_version(payload)
        if payload["shard_count"] != len(self._shards):
            raise ExecutionError(
                f"checkpoint has {payload['shard_count']} shards, this "
                f"dataflow has {len(self._shards)}"
            )
        for shard, blob in zip(self._shards, payload["shards"]):
            shard.restore(blob)
        if set(payload["output_order"]) != set(self._outputs):
            raise ExecutionError(
                "checkpoint does not match this dataflow's outputs"
            )
        for oid, stored in payload["outputs"].items():
            merge = self._outputs[oid]
            merge.log = stored_changes(stored, "merged", histories, oid)
            merge.frontier.restore(stored["frontier"])
        self._last_ptime = payload["last_ptime"]
        stored_stages = payload["stages"]
        if set(stored_stages) != set(self.combines):
            raise ExecutionError(
                "checkpoint two-phase outputs "
                f"{sorted(stored_stages)} do not match this dataflow's "
                f"{sorted(self.combines)}"
            )
        for oid, blob in stored_stages.items():
            _restore_stage(
                self.combines[oid], blob, self._last_ptime,
                self._outputs[oid].frontier.current,
            )
        self._recovery = RecoveryStats(**payload["recovery"])


def _batch_events(
    callback: Optional[Callable[[TraceEvent], None]],
    shard: Optional[int] = None,
) -> Optional[Callable[[TraceEvent], None]]:
    """Forward a flow's batch events — tagged with its index, for a
    shard.

    The flow's watermark events are swallowed: the frontier reports the
    same advances as ``"frontier"`` events, with the merged-minimum
    ``"watermark"`` events layered on top (a combine flow's root
    watermark *is* that minimum), so a collector's
    ``watermark_advances`` means the same thing serial or sharded.
    """
    if callback is None:
        return None

    def forward(event: TraceEvent) -> None:
        if event.kind == "batch":
            callback(event if shard is None else event.at_shard(shard))

    return forward


def _stage_bytes(combine: Dataflow) -> bytes:
    """A combine flow's checkpoint entry, serialized on the spot
    (operator snapshots reference live state): its operator states and
    its telemetry, ``{"ops": [...], "telemetry": RunTelemetry}``."""
    return pickle.dumps(
        {
            "ops": [op.state_snapshot() for op in combine.operators],
            "telemetry": combine.telemetry_of("main"),
        },
        pickle.HIGHEST_PROTOCOL,
    )


def _restore_stage(
    combine: Dataflow,
    blob,
    ptime: Timestamp,
    watermark: Timestamp,
) -> None:
    """Adopt a :func:`_stage_bytes` entry into a fresh combine flow.

    The entry holds no watermark: aggregates pass watermarks through,
    so the flow's root watermark is the restored frontier's ``watermark``
    (in effect since ``ptime``), and a sample settled before the next
    advance is taken against it, as in an uninterrupted run.
    """
    payload = pickle.loads(blob)
    operators = combine.operators
    held = len(payload["ops"])
    if held != len(operators):
        raise ExecutionError(
            f"combine flow shape changed: checkpoint has "
            f"{held} operators, the flow has {len(operators)}"
        )
    for op, state in zip(operators, payload["ops"]):
        op.state_restore(state)
    # One stateful operator (the combine): its peak is the flow's.
    combine._peak_state = sum(op.counters.peak_state_rows for op in operators)
    track = WatermarkTrack()
    track.advance(ptime, watermark)
    combine._outputs["main"].adopt(
        changes_log(), track, payload["telemetry"], 0
    )
