"""The watermark frontier: shard-local watermarks merged on the minimum.

Each shard runs a full copy of the dataflow and so produces its own
root output watermark.  A downstream consumer — ``EMIT AFTER
WATERMARK`` above all (Extensions 5–7) — may only treat an event-time
boundary as complete once *every* shard has passed it, exactly the
hold-back rule multi-input operators apply per input port (Section 5),
lifted to the shard dimension.  :class:`WatermarkFrontier` tracks the
per-shard values and publishes the merged minimum as a
:class:`~repro.core.watermark.WatermarkTrack`, which becomes the
``watermarks`` of the sharded :class:`~repro.exec.executor.RunResult`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.errors import WatermarkError
from ..core.times import MIN_TIMESTAMP, Timestamp
from ..core.watermark import WatermarkTrack
from ..obs.trace import TraceEvent

__all__ = ["WatermarkFrontier"]


class WatermarkFrontier:
    """Per-shard watermark tracking with a published minimum."""

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise WatermarkError("frontier needs at least one shard")
        self._values: list[Timestamp] = [MIN_TIMESTAMP] * shard_count
        self._merged = WatermarkTrack()
        #: restored shard watermarks clamped instead of letting the
        #: merged minimum regress below a value already reported in a
        #: ``frontier`` trace event (mid-run shard restarts).
        self.wm_regressions = 0
        #: optional trace hook: receives a ``"frontier"`` event per
        #: per-shard advance and a ``"watermark"`` event whenever the
        #: published minimum moves — the propagation timeline that makes
        #: straggler shards visible (a fast shard's frontier events run
        #: far ahead of the merged watermark events).
        self.trace: Optional[Callable[[TraceEvent], None]] = None

    @property
    def shard_count(self) -> int:
        return len(self._values)

    @property
    def merged(self) -> WatermarkTrack:
        """The published (minimum) watermark as a step function."""
        return self._merged

    @property
    def current(self) -> Timestamp:
        """The current merged minimum across all shards."""
        return min(self._values)

    def shard_value(self, shard: int) -> Timestamp:
        return self._values[shard]

    def observe(self, shard: int, ptime: Timestamp, value: Timestamp) -> Timestamp | None:
        """Record shard ``shard``'s watermark reaching ``value`` at ``ptime``.

        Returns the newly published merged watermark if the minimum
        advanced, else ``None``.  Per-shard watermarks must be
        monotonic, mirroring the serial watermark contract.
        """
        if value < self._values[shard]:
            raise WatermarkError(
                f"shard {shard} watermark regressed from "
                f"{self._values[shard]} to {value}"
            )
        advanced = value > self._values[shard]
        self._values[shard] = value
        if advanced and self.trace is not None:
            self.trace(
                TraceEvent(
                    kind="frontier",
                    ptime=ptime,
                    value=value,
                    operator="frontier",
                    shard=shard,
                )
            )
        merged = min(self._values)
        if merged > self._merged.current:
            self._merged.advance(ptime, merged)
            if self.trace is not None:
                self.trace(
                    TraceEvent(
                        kind="watermark",
                        ptime=ptime,
                        value=merged,
                        operator="frontier",
                    )
                )
            return merged
        return None

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "values": list(self._values),
            "merged_pairs": self._merged.as_pairs(),
            "wm_regressions": self.wm_regressions,
        }

    def restore(self, snapshot: dict) -> None:
        """Restore a snapshot, refusing corrupt ones before mutating self.

        A snapshot is corrupt when its shard count differs, a shard
        value is not a timestamp, the merged pairs are not a monotone
        step function, or the published minimum runs ahead of some
        shard — a merged watermark above a shard's own value would
        assert completeness the shard never reached.
        """
        values = snapshot.get("values")
        if not isinstance(values, list) or len(values) != len(self._values):
            raise WatermarkError(
                f"frontier snapshot has {len(values) if isinstance(values, list) else 'no'} "
                f"shard values, this frontier has {len(self._values)} shards"
            )
        for shard, value in enumerate(values):
            if not isinstance(value, int) or isinstance(value, bool):
                raise WatermarkError(
                    f"frontier snapshot shard {shard} watermark is not a "
                    f"timestamp: {value!r}"
                )
        # Rebuild the merged track off to the side first: advance()
        # validates monotonicity, so a corrupt pair list raises before
        # any of this frontier's state changes.
        merged = WatermarkTrack()
        for ptime, value in snapshot["merged_pairs"]:
            merged.advance(ptime, value)
        for shard, value in enumerate(values):
            if value < merged.current:
                raise WatermarkError(
                    f"frontier snapshot is corrupt: merged watermark "
                    f"{merged.current} runs ahead of shard {shard} at {value}"
                )
        # A snapshot older than this frontier's live state (a mid-run
        # restart restoring an earlier checkpoint) must not regress what
        # was already observed — and possibly already reported in
        # ``frontier``/``watermark`` trace events.  Clamp each shard to
        # its observed floor and keep the further-along published track,
        # counting every clamp as a wm_regression instead of erroring.
        self.wm_regressions = snapshot.get("wm_regressions", 0)
        clamped = []
        for shard, value in enumerate(values):
            floor = self._values[shard]
            if value < floor:
                self.wm_regressions += 1
                value = floor
            clamped.append(value)
        if merged.current < self._merged.current:
            self.wm_regressions += 1
            merged = self._merged
        self._values = clamped
        self._merged = merged

    def __repr__(self) -> str:
        return f"WatermarkFrontier({self._values}, merged={self._merged.current})"
