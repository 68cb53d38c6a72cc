"""Supervised shard execution: detect failures, restore, replay, dedup.

PR 1's sharded runtime proved the paper's one-query/one-relation
guarantee holds under parallelism; this layer makes it hold under
*failure*.  Each shard worker runs under a :class:`ShardSupervisor`
that:

1. drives the shard's routed event subsequence exactly as the plain
   batch driver did (same invariant checks, same tagged output slices);
2. takes a shard checkpoint every ``RetryPolicy.checkpoint_interval``
   events, recording the input offset it covers (with micro-batching
   enabled, checkpoints land on the next batch boundary, so a restart
   always replays whole batches and re-forms them identically);
3. on any failure — an operator exception, an injected crash, or a
   simulated hang from the fault harness (:mod:`repro.runtime.faults`)
   — restores a fresh shard dataflow from the last checkpoint (or from
   scratch when none exists), waits out an exponential backoff, and
   replays the input from the recorded offset;
4. keeps *every* emission in its output log, duplicates included, the
   way a real worker that crashed after shipping output would; the
   merge stage deduplicates by global sequence number
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
from typing import Callable, Optional

from ..core.codec import decode_slices, encode_slices
from ..core.errors import ExecutionError
from ..core.times import MIN_TIMESTAMP, Timestamp
from ..core.tvr import RowEvent, WatermarkEvent
from ..exec.executor import Dataflow
from ..obs.metrics import RecoveryStats
from ..obs.trace import TraceEvent
from .faults import FaultInjector, InjectedFault
from .merge import TaggedSlice, WatermarkObservation
from .routing import ShardEvent

__all__ = ["RetryPolicy", "ShardSupervisor", "SupervisedOutcome"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a shard supervisor restarts failed workers.

    * ``max_restarts`` — restarts allowed per shard before the failure
      propagates (the bounded retry budget).
    * ``backoff_base_ms`` / ``backoff_factor`` / ``backoff_cap_ms`` —
      exponential backoff between attempts: restart *n* waits
      ``base * factor**(n-1)`` ms, capped.  The default base of 0
      disables sleeping entirely, which keeps tests and CI
      deterministic; production configs set a real base.
    * ``checkpoint_interval`` — events between shard checkpoints.  0
      (the default) takes no mid-run checkpoints, so recovery replays
      the shard's input from the beginning; a positive interval bounds
      the replay tail at the cost of periodic state snapshots.
    """

    max_restarts: int = 2
    backoff_base_ms: int = 0
    backoff_factor: float = 2.0
    backoff_cap_ms: int = 5_000
    checkpoint_interval: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ExecutionError("max_restarts must be >= 0")
        if self.backoff_base_ms < 0:
            raise ExecutionError("backoff_base_ms must be >= 0")
        if self.backoff_factor < 1.0:
            raise ExecutionError("backoff_factor must be >= 1.0")
        if self.backoff_cap_ms < 0:
            raise ExecutionError("backoff_cap_ms must be >= 0")
        if self.checkpoint_interval < 0:
            raise ExecutionError("checkpoint_interval must be >= 0")

    def delay_ms(self, restart_number: int) -> float:
        """Backoff before restart ``restart_number`` (1-based), in ms."""
        if self.backoff_base_ms == 0:
            return 0.0
        delay = self.backoff_base_ms * self.backoff_factor ** (restart_number - 1)
        return min(delay, float(self.backoff_cap_ms))


@dataclass
class SupervisedOutcome:
    """One shard's supervised run: output log, recovery ledger, final state.

    ``slices``/``observations`` may contain duplicate sequence numbers
    when restarts replayed input — downstream dedup collapses them.
    ``state`` carries the final shard checkpoint for process workers
    (``None`` for thread workers, whose dataflow survives in place).
    All fields pickle, so the outcome crosses the fork pipe intact;
    ``slices`` cross it through the changelog codec
    (:func:`~repro.core.codec.encode_slices`) and decode to the same
    ``(seq, slice)`` tags.
    """

    slices: list[TaggedSlice] = field(default_factory=list)
    observations: list[WatermarkObservation] = field(default_factory=list)
    stats: RecoveryStats = field(default_factory=RecoveryStats)
    events: list[TraceEvent] = field(default_factory=list)
    state: Optional[bytes] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["slices"] = encode_slices(self.slices)
        return state

    def __setstate__(self, state: dict) -> None:
        state["slices"] = decode_slices(state["slices"])
        self.__dict__.update(state)


class ShardSupervisor:
    """Drives one shard's subsequence with restart-from-checkpoint recovery."""

    def __init__(
        self,
        shard: int,
        dataflow: Dataflow,
        make_dataflow: Callable[[], Dataflow],
        tasks: list[ShardEvent],
        until: Optional[Timestamp],
        policy: RetryPolicy,
        injector: FaultInjector,
        transfer_state: bool = False,
    ):
        self._shard = shard
        self._flow = dataflow
        self._make = make_dataflow
        self._tasks = tasks
        self._until = until
        self._policy = policy
        self._injector = injector
        self._transfer_state = transfer_state
        #: the shard dataflow after the run — the original instance when
        #: no restart happened, a restored replacement otherwise.
        self.final_flow: Dataflow = dataflow

    def run(self) -> SupervisedOutcome:
        """Supervise the shard to completion (or until the budget dies)."""
        outcome = SupervisedOutcome()
        policy = self._policy
        attempt = 0
        offset = 0  # next task index to process
        checkpoint: Optional[bytes] = None
        checkpoint_offset = 0
        high_water = -1  # highest task index ever processed
        last_ptime: Timestamp = MIN_TIMESTAMP
        flow = self._flow
        while True:
            try:
                checkpoints_this_attempt = 0
                tasks = self._tasks
                n = len(tasks)
                batch_size = flow.batch_size
                i = offset
                while i < n:
                    seq, event, source = tasks[i]
                    # Micro-batch: extend over consecutive row events
                    # that share this event's instant and source AND
                    # carry globally consecutive sequence numbers — a
                    # seq gap means another shard owns the missing
                    # event, whose output must interleave between ours,
                    # so batching across it would break the seq-ordered
                    # merge.  Checkpoints are only considered at batch
                    # boundaries, so a restart replays whole batches and
                    # re-produces identical (seq, slice) tags for the
                    # dedup stage.
                    j = i + 1
                    if (
                        batch_size > 1
                        and isinstance(event, RowEvent)
                        and flow.batchable_source(source)
                    ):
                        ptime = event.ptime
                        prev_seq = seq
                        while j < n and j - i < batch_size:
                            next_seq, next_event, next_source = tasks[j]
                            if (
                                next_seq != prev_seq + 1
                                or next_source != source
                                or not isinstance(next_event, RowEvent)
                                or next_event.ptime != ptime
                            ):
                                break
                            prev_seq = next_seq
                            j += 1
                    for idx in range(i, j):
                        self._injector.before_event(self._shard, attempt, idx)
                    before = flow.output_size
                    if j - i == 1:
                        flow.process(event, source)
                    else:
                        flow.process_batch(
                            [task[1] for task in tasks[i:j]], source
                        )
                    produced = flow.output_slice(before)
                    if produced:
                        if isinstance(event, WatermarkEvent):
                            raise ExecutionError(
                                "watermark advance produced output in a "
                                "shard; the partition analyzer admitted a "
                                "watermark-triggered operator it should not "
                                "have"
                            )
                        outcome.slices.append((seq, produced))
                    if isinstance(event, WatermarkEvent):
                        outcome.observations.append(
                            (seq, event.ptime, flow.root_watermark)
                        )
                    if isinstance(event, RowEvent):
                        for idx in range(i, j):
                            if idx <= high_water:
                                outcome.stats.rows_replayed += 1
                    high_water = max(high_water, j - 1)
                    last_ptime = max(last_ptime, event.ptime)
                    i = j
                    interval = policy.checkpoint_interval
                    if (
                        interval
                        and i < n
                        and (i - checkpoint_offset) >= interval
                    ):
                        checkpoint = flow.checkpoint()
                        checkpoint_offset = i
                        checkpoints_this_attempt += 1
                        self._injector.after_checkpoint(
                            self._shard, attempt, checkpoints_this_attempt
                        )
                before = flow.output_size
                flow.finish(self._until)
                if flow.output_slice(before):
                    raise ExecutionError(
                        "timer drain produced output in a shard; the "
                        "partition analyzer admitted a timer-driven operator "
                        "it should not have"
                    )
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
