"""Supervised shard execution: detect failures, restore, replay, dedup.

PR 1's sharded runtime proved the paper's one-query/one-relation
guarantee holds under parallelism; this layer makes it hold under
*failure*.  Each shard worker runs under a :class:`ShardSupervisor`
that:

1. drives the shard's tasks — its shares of the runs the parent
   formed (:func:`~repro.runtime.routing.partition_events`) — through
   :func:`drive_run`, the one function that feeds a shard flow, also
   called directly (no supervisor, no pool) by incremental routing;
2. takes a shard checkpoint every ``RetryPolicy.checkpoint_interval``
   events, recording the task offset it covers (checkpoints land
   between tasks, and a task is never re-formed, so a restart is fed
   the very shares the failed attempt was);
3. on any failure — an operator exception, an injected crash, or a
   simulated hang from the fault harness (:mod:`repro.runtime.faults`)
   — restores a fresh shard dataflow from the last checkpoint (or from
   scratch when none exists), waits out an exponential backoff, and
   replays the input from the recorded offset;
4. keeps *every* emission in its output log, duplicates included, the
   way a real worker that crashed after shipping output would; the
   merge stage deduplicates by tag — a global sequence number
   (:func:`repro.runtime.merge.dedup_by_seq`), which is why the merged
   changelog stays byte-identical to a fault-free serial run.

The retry budget is bounded (``max_restarts``); when it is exhausted
the original failure propagates unchanged, so a deterministic bug
fails the run instead of looping forever.

Recovery is never silent: each restart appends a ``"recovery"``
:class:`~repro.obs.trace.TraceEvent` and increments the
:class:`~repro.obs.metrics.RecoveryStats` counters surfaced on the
run's :class:`~repro.obs.metrics.MetricsReport`, the Prometheus
exposition, and the shell's ``\\watch`` dashboard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Mapping, Optional

from ..config import RetryPolicy
from ..core.errors import ExecutionError
from ..core.times import MIN_TIMESTAMP, Timestamp
from ..core.tvr import RowEvent
from ..exec.executor import Dataflow
from ..obs.metrics import RecoveryStats
from ..obs.trace import TraceEvent
from .faults import FaultInjector, InjectedFault
from .merge import ShardLog
from .routing import ShardTask

__all__ = [
    "RetryPolicy",
    "ShardSupervisor",
    "SupervisedOutcome",
    "drain_timers",
    "drive_run",
]


def drive_run(
    flow: Dataflow,
    task: ShardTask,
    logs: Mapping[str, ShardLog],
    whole: bool = False,
) -> None:
    """Feed ``flow`` one task: its share of one run.

    The one protocol a shard speaks: ``(run id, seqs, events, source)``
    tasks in, ``(tag, changes)`` slices and watermark observations out,
    logged per output into ``logs``.

    The parent formed the run; the share holds the rows of it this
    shard owns, so its sequence numbers have gaps wherever another
    shard owns the row in between.  ``whole`` is the run shape, decided
    once by whoever owns the shards
    (``ShardedDataflow.run_split_reason() is None``) and the same for
    every flow that ever drives this shard — a restarted worker's
    included, which must re-emit the failed one's slices tag for tag.
    With it the share is fed whole — one ``process_batch`` with its
    numbers — and what it produced is tagged with the run id: the
    numbers inside tell the merge where each row goes.  Without it the
    flow can only say *that* a feed produced output, not which row did,
    so the share is split at the gaps — another shard's output must
    interleave there — and each piece's output is tagged with the
    piece's first sequence number, which is where all of it belongs
    (see :data:`~repro.runtime.merge.TaggedSlice`).

    This loop is the only reader of the shard's output channels, so it
    *takes* what each feed produced and the shard retains no history.
    """
    run, seqs, events, source = task
    if not isinstance(events[0], RowEvent):
        (event,) = events
        flow.process(event, source)
        for output_id, log in logs.items():
            if flow.take_output_of(output_id):
                raise ExecutionError(
                    "watermark advance produced output in a shard; the "
                    "partition analyzer admitted a watermark-triggered "
                    "operator it should not have"
                )
            log.observations.append(
                (run, event.ptime, flow.root_watermark_of(output_id))
            )
        return
    if whole and (len(seqs) > 1 or seqs[0] != run):
        flow.process_batch(events, source, seqs)
        _take_slices(flow, logs, run)
        return
    # (The one row that opens its run — every row, fed one at a time —
    # needs no numbers shipped: the tag is its sequence number.)
    start, n = 0, len(seqs)
    for stop in range(1, n + 1):
        if stop == n or seqs[stop] != seqs[stop - 1] + 1:
            flow.process_batch(events[start:stop], source)
            _take_slices(flow, logs, seqs[start])
            start = stop


def _take_slices(flow: Dataflow, logs: Mapping[str, ShardLog], tag: int) -> None:
    for output_id, log in logs.items():
        produced = flow.take_output_of(output_id)
        if produced:
            log.slices.append((tag, produced))


def drain_timers(flow: Dataflow, until: Optional[Timestamp], shard: int) -> None:
    """Drain a shard flow's timers, which must stay silent.

    Partitionable plans schedule no processing-time timers; any output
    here would have no routed row event to order by, and the merge
    invariant would be lost.
    """
    flow.finish(until)
    if any(flow.take_output_of(output_id) for output_id in flow.output_ids()):
        raise ExecutionError(
            f"timer drain produced output in shard {shard}; the partition "
            "analyzer admitted a timer-driven operator it should not have"
        )


@dataclass
class SupervisedOutcome(ShardLog):
    """One shard's supervised run: output logs, recovery ledger, final state.

    The outcome *is* the :class:`~repro.runtime.merge.ShardLog` of the
    flow's first output, ``first_output`` (``slices`` /
    ``observations``); ``attached`` holds the logs of every further
    output by id.  Logs may contain
    duplicate sequence numbers when restarts replayed input —
    downstream dedup collapses them.  ``state`` carries the final shard
    checkpoint for forked workers (``None`` for in-caller ``sync``
    workers, whose dataflow survives in place).  All fields pickle, so
    the outcome crosses the fork pipe intact.
    """

    stats: RecoveryStats = field(default_factory=RecoveryStats)
    events: list[TraceEvent] = field(default_factory=list)
    state: Optional[bytes] = None
    first_output: str = "main"
    attached: dict[str, ShardLog] = field(default_factory=dict)

    def logs(self) -> dict[str, ShardLog]:
        """The per-output logs, the first output's (this object) first."""
        return {self.first_output: self, **self.attached}


class ShardSupervisor:
    """Drives one shard's subsequence with restart-from-checkpoint recovery."""

    def __init__(
        self,
        shard: int,
        dataflow: Dataflow,
        make_dataflow: Callable[[], Dataflow],
        tasks: list[ShardTask],
        until: Optional[Timestamp],
        policy: RetryPolicy,
        injector: FaultInjector,
        transfer_state: bool = False,
        whole_runs: bool = False,
    ):
        self._shard = shard
        self._flow = dataflow
        self._make = make_dataflow
        self._tasks = tasks
        self._until = until
        self._policy = policy
        self._injector = injector
        self._transfer_state = transfer_state
        #: the run shape (see :func:`drive_run`): fixed for the run, so
        #: every attempt is fed — and tags — alike.
        self._whole_runs = whole_runs
        #: the shard dataflow after the run — the original instance when
        #: no restart happened, a restored replacement otherwise.
        self.final_flow: Dataflow = dataflow

    def run(self) -> SupervisedOutcome:
        """Supervise the shard to completion (or until the budget dies)."""
        outcome = SupervisedOutcome()
        policy = self._policy
        interval = policy.checkpoint_interval
        tasks = self._tasks
        n = len(tasks)
        # Fault positions, the checkpoint interval and the replay
        # ledger all count *events* of the shard's routed subsequence:
        # ``starts[i]`` is the event offset at which task ``i`` begins.
        starts = [0, *accumulate(len(task[2]) for task in tasks)]
        armed = self._injector.armed
        whole = self._whole_runs
        attempt = 0
        offset = 0  # next task index to process
        checkpoint: Optional[bytes] = None
        checkpoint_offset = 0
        high_water = -1  # highest event offset ever processed
        last_ptime: Timestamp = MIN_TIMESTAMP
        flow = self._flow
        outcome.first_output, *rest = flow.output_ids()
        outcome.attached = {output_id: ShardLog() for output_id in rest}
        logs = outcome.logs()

        while True:
            try:
                checkpoints_this_attempt = 0
                i = offset
                while i < n:
                    task = tasks[i]
                    event = task[2][0]
                    begin, end = starts[i], starts[i + 1]
                    if armed:
                        # Once the share is known and before it is fed.
                        for position in range(begin, end):
                            self._injector.before_event(
                                self._shard, attempt, position
                            )
                    drive_run(flow, task, logs, whole)
                    if isinstance(event, RowEvent):
                        outcome.stats.rows_replayed += max(
                            0, min(end, high_water + 1) - begin
                        )
                    high_water = max(high_water, end - 1)
                    last_ptime = max(last_ptime, event.ptime)
                    i += 1
                    # Checkpoints are only considered between tasks, so
                    # a restart is fed whole shares again and re-produces
                    # identical (tag, slice) pairs for the dedup stage.
                    if (
                        interval
                        and i < n
                        and end - starts[checkpoint_offset] >= interval
                    ):
                        checkpoint = flow.checkpoint()
                        checkpoint_offset = i
                        checkpoints_this_attempt += 1
                        self._injector.after_checkpoint(
                            self._shard, attempt, checkpoints_this_attempt
                        )
                drain_timers(flow, self._until, self._shard)
                self.final_flow = flow
                if self._transfer_state:
                    outcome.state = flow.checkpoint()
                return outcome
            except Exception as exc:  # noqa: BLE001 — classified and re-raised
                attempt += 1
                if attempt > policy.max_restarts:
                    raise
                outcome.stats.shard_restarts += 1
                outcome.events.append(
                    TraceEvent(
                        kind="recovery",
                        ptime=last_ptime,
                        count=attempt,
                        operator=f"supervisor:{_failure_label(exc)}",
                        shard=self._shard,
                    )
                )
                delay = policy.delay_ms(attempt)
                if delay > 0:
                    time.sleep(delay / 1000.0)
                flow = self._make()
                if checkpoint is not None:
                    flow.restore(checkpoint)
                offset = checkpoint_offset


def _failure_label(exc: BaseException) -> str:
    """A short, stable description of what the supervisor caught."""
    if isinstance(exc, InjectedFault):
        return exc.label
    return type(exc).__name__
