"""Fixed-bucket log-scale histograms for latency telemetry.

The materialization extensions (EMIT AFTER WATERMARK / AFTER DELAY,
Sections 4-6) trade latency for completeness; quantifying that trade
needs latency *distributions*, not averages.  :class:`Histogram` is the
engine's one distribution type: millisecond values land in power-of-two
buckets, so the bucket layout is a constant of the library and any two
histograms — one per shard, one per run, one per process — merge by
elementwise addition.  That merge is associative and commutative
(pinned by a Hypothesis property in ``tests/test_telemetry.py``),
which is what makes the sharded runtime's per-shard observations sum
into exactly the serial run's distribution.

The same layout maps 1:1 onto Prometheus histogram exposition
(cumulative ``le`` buckets, ``_sum``, ``_count``); see
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["Histogram", "BUCKET_BOUNDS"]

# Upper bounds of the value buckets, in milliseconds: 1ms, 2ms, 4ms, ...
# 2**40 ms (~35 years).  Values above the last bound land in a final
# overflow bucket (Prometheus "+Inf").  Fixed at import time so every
# histogram anywhere in a run — or across runs — shares the layout.
BUCKET_BOUNDS: tuple[int, ...] = tuple(2**i for i in range(41))


class Histogram:
    """A mergeable log2-bucket histogram of non-negative millisecond values.

    Tracks exact ``count``/``sum``/``min``/``max`` alongside the bucket
    counts; percentiles are estimated from the buckets (upper-bound
    rule, clamped to the observed extremes), so a reported p99 is never
    below the true p99 by more than one bucket width.
    """

    __slots__ = ("buckets", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        """Record one value; negatives clamp to zero (an early emit has
        no latency, it is ahead of its deadline)."""
        if value < 0:
            value = 0
        self.buckets[_bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[int]) -> None:
        """Record many values at once; identical to observing each in
        turn.  Values are tallied first, so the bucket arithmetic runs
        once per *distinct* value — telemetry settles a watermark
        step's worth of samples at a time, and those repeat: a burst
        shares its instant, a window its bound.  (A plain dict, not a
        ``Counter``: a shard driver settles runs of one.)"""
        tally: dict[int, int] = {}
        for value in values:
            tally[value] = tally.get(value, 0) + 1
        buckets = self.buckets
        top = len(buckets) - 1
        total = 0
        seen = 0
        lo, hi = self.min, self.max
        for value, times in tally.items():
            if value < 0:
                value = 0
            buckets[0 if value <= 1 else min((value - 1).bit_length(), top)] += times
            total += value * times
            seen += times
            if lo is None or value < lo:
                lo = value
            if hi is None or value > hi:
                hi = value
        if not seen:
            return
        self.count += seen
        self.sum += total
        self.min, self.max = lo, hi

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (in place); returns self."""
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    @classmethod
    def merged(cls, histograms: Iterable["Histogram"]) -> "Histogram":
        out = cls()
        for histogram in histograms:
            out.merge(histogram)
        return out

    def percentile(self, q: float) -> Optional[int]:
        """The value at quantile ``q`` (0 < q <= 1), bucket-resolved.

        Returns the upper bound of the bucket holding the q-th sample,
        clamped to the exact observed min/max so single-bucket
        histograms report exact values.
        """
        if self.count == 0:
            return None
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                bound = (
                    BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else self.max
                )
                assert self.min is not None and self.max is not None
                return max(self.min, min(self.max, bound))
        return self.max  # pragma: no cover — seen always reaches count

    @property
    def mean(self) -> Optional[float]:
        return (self.sum / self.count) if self.count else None

    def summary(self) -> dict:
        """count/sum/min/max plus the headline percentiles, JSON-ready."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def restore(self, snapshot: dict) -> None:
        buckets = snapshot["buckets"]
        if len(buckets) != len(self.buckets):
            raise ValueError(
                f"histogram snapshot has {len(buckets)} buckets, "
                f"this layout has {len(self.buckets)}"
            )
        self.buckets = list(buckets)
        self.count = snapshot["count"]
        self.sum = snapshot["sum"]
        self.min = snapshot["min"]
        self.max = snapshot["max"]

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Histogram":
        out = cls()
        out.restore(snapshot)
        return out

    # -- exposition -------------------------------------------------------------

    def cumulative_buckets(self) -> list[tuple[str, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, ending "+Inf"."""
        out: list[tuple[str, int]] = []
        running = 0
        for bound, n in zip(BUCKET_BOUNDS, self.buckets):
            running += n
            out.append((str(bound), running))
        out.append(("+Inf", self.count))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:
        if not self.count:
            return "Histogram(empty)"
        return (
            f"Histogram(n={self.count}, min={self.min}, "
            f"p50={self.percentile(0.5)}, p99={self.percentile(0.99)}, "
            f"max={self.max})"
        )


def _bucket_index(value: int) -> int:
    """Index of the smallest bucket whose bound covers ``value``."""
    if value <= 1:
        return 0
    index = (value - 1).bit_length()
    return min(index, len(BUCKET_BOUNDS))
