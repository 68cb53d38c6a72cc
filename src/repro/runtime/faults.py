"""Deterministic fault injection for the supervised sharded runtime.

Recovery code that is only exercised by real crashes is recovery code
that is never exercised.  A :class:`FaultPlan` describes *exactly*
which shard fails, *when* (at which event offset or checkpoint), *how*
(crash, hang, poison row), and *how many attempts* the fault survives —
with no wall-clock reads and no global randomness, so every recovery
path is replayable in CI byte for byte.

Fault kinds (the strings accepted by :meth:`FaultPlan.parse` and the
``--fault-plan`` CLI flag):

* ``crash-before-batch`` — the shard worker raises :class:`InjectedCrash`
  immediately before processing the ``at``-th event of its routed
  subsequence (a simulated process crash between batches).
* ``crash-after-checkpoint`` — the worker crashes immediately after
  taking its ``at``-th checkpoint of the attempt, so recovery replays
  from the checkpoint that was *just* written.
* ``slow-shard`` — the worker raises :class:`InjectedHang` at the
  ``at``-th event, standing in for the supervisor's hang-via-timeout
  detection without any real sleeping (see docs/RUNTIME.md for why a
  wall-clock timeout cannot be part of a deterministic harness).
* ``poison-row`` — the ``at``-th event is poisoned: processing it
  raises until the fault's ``times`` budget is spent, then heals (a
  transient bad row, the classic at-least-once dedup test).

Every fault fires on attempts ``0 .. times-1`` of its shard and heals
afterwards; the injection decision is a pure function of
``(spec, shard, attempt, position)``, which is what makes the harness
deterministic under restart and across the sync/processes backends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from ..config import FAULT_KINDS
from ..core.errors import ExecutionError

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "InjectedHang",
]



class InjectedFault(Exception):
    """Base class for all injected failures (never raised by real bugs)."""

    #: the fault kind that raised this, for supervisor trace provenance.
    label = "injected-fault"


class InjectedCrash(InjectedFault):
    """A simulated worker crash (``crash-*`` and ``poison-row`` kinds)."""

    label = "crash"


class InjectedHang(InjectedFault):
    """A simulated hang, as the supervisor's timeout detector would report it."""

    label = "hang"


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: ``kind`` fires on ``shard`` at ``at``.

    ``at`` is an event offset into the shard's routed subsequence for
    the event-positioned kinds, or a checkpoint ordinal (1-based,
    within one attempt) for ``crash-after-checkpoint``.  The fault
    fires on the shard's first ``times`` attempts and heals afterwards.
    """

    kind: str
    shard: int = 0
    at: int = 1
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ExecutionError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.shard < 0:
            raise ExecutionError("fault shard index must be >= 0")
        if self.at < 0:
            raise ExecutionError("fault position must be >= 0")
        if self.times < 1:
            raise ExecutionError("fault must fire at least once")

    def fires(self, shard: int, attempt: int) -> bool:
        """Whether this spec is armed for ``shard`` on ``attempt``."""
        return shard == self.shard and attempt < self.times

    def spec_string(self) -> str:
        return f"{self.kind}:shard={self.shard},at={self.at},times={self.times}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec` — the whole run's fault script."""

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def empty(self) -> bool:
        return not self.faults

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a spec string: ``kind[:key=value,...][;kind...]``.

        Examples::

            FaultPlan.parse("crash-after-checkpoint")
            FaultPlan.parse("crash-before-batch:shard=1,at=5")
            FaultPlan.parse("poison-row:at=3,times=2;slow-shard:shard=2")
        """
        specs = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, params = part.partition(":")
            fields: dict[str, int] = {}
            if params:
                for item in params.split(","):
                    key, eq, value = item.partition("=")
                    key = key.strip()
                    if not eq or key not in ("shard", "at", "times"):
                        raise ExecutionError(
                            f"bad fault parameter {item!r} in {part!r}; "
                            "expected shard=N, at=N, or times=N"
                        )
                    try:
                        fields[key] = int(value)
                    except ValueError as exc:
                        raise ExecutionError(
                            f"fault parameter {item!r} is not an integer"
                        ) from exc
            specs.append(FaultSpec(kind.strip(), **fields))
        if not specs:
            raise ExecutionError(f"fault plan {text!r} names no faults")
        return cls(tuple(specs))

    @classmethod
    def seeded(
        cls,
        seed: int,
        shards: int,
        events_per_shard: int,
        kinds: Iterable[str] = FAULT_KINDS,
        count: int = 1,
    ) -> "FaultPlan":
        """A reproducible random plan from a private ``random.Random(seed)``.

        Never touches the global random state or the clock: the same
        ``(seed, shards, events_per_shard)`` always yields the same plan.
        """
        rng = random.Random(seed)
        kinds = tuple(kinds)
        specs = tuple(
            FaultSpec(
                kind=rng.choice(kinds),
                shard=rng.randrange(shards),
                at=rng.randrange(1, max(2, events_per_shard)),
            )
            for _ in range(count)
        )
        return cls(specs)

    def spec_string(self) -> str:
        """The plan as a parseable spec string (round-trips via parse)."""
        return ";".join(spec.spec_string() for spec in self.faults)


class FaultInjector:
    """Raises the plan's faults at their scripted positions.

    Stateless by design: whether a fault fires depends only on the
    spec and the ``(shard, attempt, position)`` the supervisor passes
    in, so injection behaves identically inside forked process workers
    (which cannot share mutable parent state) and thread workers.
    """

    def __init__(self, plan: Optional[FaultPlan]):
        self._plan = plan if plan is not None else FaultPlan()

    @property
    def armed(self) -> bool:
        return not self._plan.empty

    def before_event(self, shard: int, attempt: int, offset: int) -> None:
        """Hook: about to process the shard's ``offset``-th event."""
        for spec in self._plan.faults:
            if spec.at != offset or not spec.fires(shard, attempt):
                continue
            if spec.kind == "crash-before-batch":
                raise InjectedCrash(
                    f"injected crash on shard {shard} before event {offset} "
                    f"(attempt {attempt})"
                )
            if spec.kind == "poison-row":
                raise InjectedCrash(
                    f"injected poison row on shard {shard} at event {offset} "
                    f"(attempt {attempt})"
                )
            if spec.kind == "slow-shard":
                raise InjectedHang(
                    f"injected hang on shard {shard} at event {offset} "
                    f"(attempt {attempt}); supervisor treats this as a timeout"
                )

    def after_checkpoint(self, shard: int, attempt: int, ordinal: int) -> None:
        """Hook: the shard just wrote its ``ordinal``-th checkpoint (1-based)."""
        for spec in self._plan.faults:
            if (
                spec.kind == "crash-after-checkpoint"
                and spec.at == ordinal
                and spec.fires(shard, attempt)
            ):
                raise InjectedCrash(
                    f"injected crash on shard {shard} after checkpoint "
                    f"{ordinal} (attempt {attempt})"
                )
