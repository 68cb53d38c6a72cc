"""Watermarks: processing-time → event-time completeness assertions.

Section 3.2.2 defines a watermark as a *monotonic function from
processing time to event time*: observing watermark value ``x`` at
processing time ``y`` asserts that every record arriving after ``y``
will carry an event timestamp strictly greater than ``x``.

:class:`WatermarkTrack` records that function for one relation as a step
function of (ptime, value) pairs.  Watermark *generators* produce the
assertions at a source: :class:`PunctuatedWatermarks` replays explicit
watermark events (the paper's example dataset style, ``WM -> 8:05``),
and :class:`BoundedOutOfOrderness` derives them heuristically from
observed event timestamps minus a fixed slack — the "configuration to
allow sufficient slack time" the paper mentions.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from .errors import WatermarkError
from .times import MAX_TIMESTAMP, MIN_TIMESTAMP, Duration, Timestamp

__all__ = [
    "WatermarkTrack",
    "BoundedOutOfOrderness",
    "PunctuatedWatermarks",
    "merge_watermarks",
]


class WatermarkTrack:
    """The watermark of one relation over processing time.

    A monotone step function: both the processing times and the
    watermark values are non-decreasing.  ``value_at(ptime)`` evaluates
    the function; ``advance`` appends a new assertion.
    """

    __slots__ = ("_ptimes", "_values")

    def __init__(self) -> None:
        self._ptimes: list[Timestamp] = []
        self._values: list[Timestamp] = []

    def advance(self, ptime: Timestamp, value: Timestamp) -> None:
        """Record that at ``ptime`` the watermark reached ``value``."""
        if self._ptimes:
            if ptime < self._ptimes[-1]:
                raise WatermarkError(
                    f"watermark observed out of processing-time order: "
                    f"{ptime} after {self._ptimes[-1]}"
                )
            if value < self._values[-1]:
                raise WatermarkError(
                    f"watermark regressed from {self._values[-1]} to {value}"
                )
            if value == self._values[-1]:
                return  # no new information
        self._ptimes.append(ptime)
        self._values.append(value)

    def value_at(self, ptime: Timestamp) -> Timestamp:
        """The watermark value in effect at ``ptime`` (inclusive)."""
        i = bisect_right(self._ptimes, ptime)
        if i == 0:
            return MIN_TIMESTAMP
        return self._values[i - 1]

    @property
    def current(self) -> Timestamp:
        """The most recently observed watermark value."""
        return self._values[-1] if self._values else MIN_TIMESTAMP

    def as_pairs(self) -> list[tuple[Timestamp, Timestamp]]:
        """The (ptime, value) steps recorded so far."""
        return list(zip(self._ptimes, self._values))

    def __repr__(self) -> str:
        return f"WatermarkTrack({self.as_pairs()})"


class BoundedOutOfOrderness:
    """Heuristic watermark generator: max event time seen minus a slack.

    Asserts that records never arrive more than ``max_delay`` behind the
    furthest-ahead record observed so far.
    """

    def __init__(self, max_delay: Duration):
        if max_delay < 0:
            raise WatermarkError("max_delay must be non-negative")
        self._max_delay = max_delay
        self._max_seen: Timestamp = MIN_TIMESTAMP

    def observe(self, event_time: Timestamp) -> Timestamp:
        """Feed one event timestamp; returns the current watermark."""
        if event_time > self._max_seen:
            self._max_seen = event_time
        return self.current

    @property
    def current(self) -> Timestamp:
        if self._max_seen == MIN_TIMESTAMP:
            return MIN_TIMESTAMP
        return self._max_seen - self._max_delay


class PunctuatedWatermarks:
    """Watermark generator driven by explicit in-stream punctuations."""

    def __init__(self) -> None:
        self._current: Timestamp = MIN_TIMESTAMP

    def punctuate(self, value: Timestamp) -> Timestamp:
        """Record an explicit watermark punctuation."""
        if value < self._current:
            raise WatermarkError(
                f"punctuated watermark regressed from {self._current} to {value}"
            )
        self._current = value
        return self._current

    @property
    def current(self) -> Timestamp:
        return self._current


def merge_watermarks(values: Iterable[Timestamp]) -> Timestamp:
    """Combine the watermarks of multiple inputs.

    A multi-input operator (join, union) can only assert completeness up
    to the *least* complete input, so the merged watermark is the
    minimum — the "hold-back" behavior Section 5 describes for relations
    with more than one event time attribute.  An empty input set merges
    to ``MAX_TIMESTAMP`` (a nullary source is vacuously complete).
    """
    result = MAX_TIMESTAMP
    for value in values:
        if value < result:
            result = value
    return result
