"""The one execution-configuration object: :class:`ExecutionConfig`.

The standardization retrospective the roadmap leans on (*Lessons
Learned from Efforts to Standardize Streaming In SQL*) argues that a
small, stable public configuration surface is what lets query semantics
survive engine evolution.  Every way of running a query accepts the
same frozen :class:`ExecutionConfig`::

    from repro import ExecutionConfig, StreamEngine

    config = ExecutionConfig(parallelism=4, backend="processes")
    engine = StreamEngine(config=config)
    query = engine.query(sql)
    query.run()                                        # engine config
    query.run(config=ExecutionConfig(parallelism=1))   # call-site override

**Precedence** is *call-site > engine > defaults*, merged field by
field: every field defaults to ``None`` meaning "inherit from the next
layer down", and :meth:`ExecutionConfig.resolved` fills whatever is
still unset from :data:`EXECUTION_DEFAULTS`.  (``python -m repro``
flags build the engine-layer config.)  The pre-config keyword
spellings were removed in 2.0; ``docs/API.md`` maps each to its field.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Optional

from .core.errors import ExecutionError, ValidationError

if TYPE_CHECKING:
    from .runtime.faults import FaultPlan

__all__ = [
    "ExecutionConfig", "EXECUTION_DEFAULTS", "BACKENDS", "FAULT_KINDS", "RetryPolicy",
]

#: The shard drivers ``backend`` may name (see :mod:`repro.runtime.backends`).
BACKENDS = ("sync", "processes")
#: The fault kinds a ``fault_plan`` spec may name (see
#: :mod:`repro.runtime.faults`, which loads only when a plan is given).
FAULT_KINDS = (
    "crash-before-batch",
    "crash-after-checkpoint",
    "slow-shard",
    "poison-row",
)


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


#: The bottom layer of the precedence chain: what an unset field means.
EXECUTION_DEFAULTS: dict[str, Any] = {
    "parallelism": 1,
    "backend": "sync",
    "telemetry": None,
    "allowed_lateness": 0,
    "retry": RetryPolicy(),
    "fault_plan": None,
    "batch_size": 1,
    "coalesce_updates": False,
    "two_phase": "auto",
    "columnar": "auto",
    "queue_capacity": 1024,
    "subscriber_capacity": 256,
    "checkpoint_dir": "",
    "share_plans": True,
    "slow_query_p99_ms": 0,
    "slow_query_depth": 0,
}


@dataclass(frozen=True)
class ExecutionConfig:
    """How a query executes: parallelism, backend, telemetry, recovery.

    Fields (``None`` = inherit from the next precedence layer):

    * ``parallelism`` — shard count for key-partitionable queries
      (default 1: serial).
    * ``backend`` — shard driver: ``"sync"`` (the default) drives every
      shard in the caller's thread; ``"processes"`` forks one worker per
      shard and ships its state back (``"sync"`` where ``fork`` is
      unavailable).  Output is identical on both; sharding is a
      determinism and recovery harness, not a speed-up (see
      docs/RUNTIME.md).
    * ``telemetry`` — a :class:`~repro.obs.export.TelemetryExporter`
      instance or a ``"jsonl:PATH"`` / ``"prometheus:PATH"`` spec
      string (default: record latency telemetry, export nowhere).
    * ``allowed_lateness`` — milliseconds of per-group state retention
      past the watermark, so late rows update results instead of being
      dropped.
    * ``retry`` — the :class:`RetryPolicy`
      governing supervised shard restarts (budget, backoff, checkpoint
      interval).
    * ``fault_plan`` — a :class:`~repro.runtime.faults.FaultPlan` (or
      its spec string, e.g. ``"crash-after-checkpoint"``) injected into
      sharded batch runs; testing/CI only.
    * ``batch_size`` — maximum row events delivered through the operator
      tree per micro-batch (default 1: per-change execution).  A serial
      replay's batches hold one source's rows and span processing-time
      instants up to the next watermark, unless
      ``Dataflow.run_span_reason()`` names why not (a ``CURRENT_TIME``
      tail's timers, ``coalesce_updates``; sharded
      runs always stay per instant).  The output changelog is
      byte-identical to per-change execution at any value; larger values
      only trade latency granularity for throughput.
    * ``coalesce_updates`` — opt-in intra-instant compaction: drop
      insert/retract pairs that cancel within one processing-time
      instant.  Per-instant snapshots are preserved, but the changelog
      row count shrinks, so ``EMIT STREAM`` renderings see fewer rows
      (see docs/API.md).
    * ``columnar`` — the encoding of a micro-batch: ``"auto"`` (the
      default) transposes every multi-row batch into per-column
      vectors, ``"off"`` keeps rows (``"on"`` was removed in 6.0).
      Operators without a columnar path receive rows at their
      boundary.  The plan a flow compiles is the same in either mode
      (adjacent filter/project/tumble steps fused into one generated
      pipeline, aggregates absorbing the column-selecting projections
      around them), and so is the changelog, byte for byte (see
      docs/RUNTIME.md).
    * ``two_phase`` — physical aggregation shape for sharded runs:
      ``"auto"`` (the default) splits every eligible grouped aggregate
      into shard-local partials plus a merge-stage combine; ``"off"``
      disables the split.  See docs/RUNTIME.md.
    * ``queue_capacity`` — service mode: bounded depth of each live
      source's event queue; a full queue blocks the tailer
      (backpressure) instead of buffering without limit.
    * ``subscriber_capacity`` — service mode: deltas a subscriber's
      cursor may lag its query's broadcast log before it is evicted as
      a slow consumer.
    * ``checkpoint_dir`` — service mode: directory for session
      checkpoints (taken every ``retry.checkpoint_interval`` ingested
      events); empty string (the default) disables durability.
    * ``share_plans`` — service mode: multi-query optimization.  When
      on (the default), a newly admitted standing query whose plan
      shares canonical subplan fingerprints with a resident query is
      grafted onto the resident dataflow, computing the shared prefix
      once and multicasting its changelog; subscriber deltas are
      byte-identical either way (see docs/MQO.md).
    * ``slow_query_p99_ms`` — service mode: a standing query whose
      p99 emit latency crosses this many milliseconds is recorded in
      the structured slow-query log; ``0`` (the default) disables the
      check.
    * ``slow_query_depth`` — service mode: a standing query whose
      subscriber buffer depth crosses this many undrained deltas is
      recorded in the slow-query log; ``0`` disables the check.

    Instances are frozen and hashable; derive variants with
    :meth:`dataclasses.replace` or by merging layers via
    :meth:`merged_over`.
    """

    parallelism: Optional[int] = None
    backend: Optional[str] = None
    telemetry: Any = None
    allowed_lateness: Optional[int] = None
    retry: Optional[RetryPolicy] = None
    fault_plan: Optional[FaultPlan] = None
    batch_size: Optional[int] = None
    coalesce_updates: Optional[bool] = None
    two_phase: Optional[str] = None
    columnar: Optional[str] = None
    queue_capacity: Optional[int] = None
    subscriber_capacity: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    share_plans: Optional[bool] = None
    slow_query_p99_ms: Optional[int] = None
    slow_query_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.fault_plan, str):
            from .runtime.faults import FaultPlan

            object.__setattr__(self, "fault_plan", FaultPlan.parse(self.fault_plan))
        self.validate()

    # -- layering ----------------------------------------------------------------

    def merged_over(self, base: "ExecutionConfig") -> "ExecutionConfig":
        """This config with unset fields inherited from ``base``.

        The precedence combinator: ``call_site.merged_over(engine_cfg)``
        keeps every field the call site pinned and fills the rest from
        the engine layer.
        """
        values = {}
        for spec in fields(self):
            mine = getattr(self, spec.name)
            values[spec.name] = (
                mine if mine is not None else getattr(base, spec.name)
            )
        return ExecutionConfig(**values)

    def resolved(self) -> "ExecutionConfig":
        """All fields concrete: unset ones filled from :data:`EXECUTION_DEFAULTS`."""
        values = {
            spec.name: (
                getattr(self, spec.name)
                if getattr(self, spec.name) is not None
                else EXECUTION_DEFAULTS[spec.name]
            )
            for spec in fields(self)
        }
        return ExecutionConfig(**values)

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Reject impossible settings; unset (``None``) fields pass."""
        if self.parallelism is not None and self.parallelism < 1:
            raise ValidationError("parallelism must be at least 1")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValidationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.allowed_lateness is not None and self.allowed_lateness < 0:
            raise ValidationError("allowed_lateness must be >= 0 milliseconds")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ValidationError(
                f"retry must be a RetryPolicy, got {self.retry!r}"
            )
        if self.fault_plan is not None:
            from .runtime.faults import FaultPlan

            if not isinstance(self.fault_plan, FaultPlan):
                raise ValidationError(
                    f"fault_plan must be a FaultPlan or spec string, "
                    f"got {self.fault_plan!r}"
                )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError("batch_size must be at least 1")
        if self.two_phase is not None and self.two_phase not in ("auto", "off"):
            raise ValidationError(
                f"two_phase must be 'auto' or 'off', got {self.two_phase!r}"
            )
        if self.columnar is not None and self.columnar not in ("auto", "off"):
            raise ValidationError(
                f"columnar must be 'auto' or 'off', got {self.columnar!r}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValidationError("queue_capacity must be at least 1")
        if self.subscriber_capacity is not None and self.subscriber_capacity < 1:
            raise ValidationError("subscriber_capacity must be at least 1")
        if self.checkpoint_dir is not None and not isinstance(
            self.checkpoint_dir, str
        ):
            raise ValidationError(
                f"checkpoint_dir must be a path string, got {self.checkpoint_dir!r}"
            )
        if self.share_plans is not None and not isinstance(
            self.share_plans, bool
        ):
            raise ValidationError(
                f"share_plans must be a bool, got {self.share_plans!r}"
            )
        if self.slow_query_p99_ms is not None and self.slow_query_p99_ms < 0:
            raise ValidationError("slow_query_p99_ms must be >= 0 (0 = off)")
        if self.slow_query_depth is not None and self.slow_query_depth < 0:
            raise ValidationError("slow_query_depth must be >= 0 (0 = off)")


#: once-per-process warnings already given
_WARNED: set[str] = set()


def warn_coalesce_emit_stream() -> None:
    """Warn once per process that compaction thins EMIT STREAM output.

    ``coalesce_updates=True`` preserves every per-instant snapshot but
    drops intra-instant insert/retract churn, so a materialization that
    explicitly renders the changelog (``EMIT STREAM``, with its
    ``undo``/``ver`` metadata columns) sees fewer rows and renumbered
    ``ver`` values than a per-change run.  A ``UserWarning`` (not a
    ``DeprecationWarning`` — the combination is supported, just
    semantics-bending) flags the first such query per process; see
    docs/API.md for the semantics note.
    """
    if "coalesce_updates+emit_stream" in _WARNED:
        return
    _WARNED.add("coalesce_updates+emit_stream")
    warnings.warn(
        "coalesce_updates=True compacts intra-instant changes, so this "
        "EMIT STREAM query renders fewer changelog rows (and different "
        "ver numbering) than per-change execution; per-instant snapshots "
        "are unchanged (see docs/API.md)",
        UserWarning,
        stacklevel=3,
    )
