"""The processing-time timer queue of one dataflow.

Operators whose output changes with the mere passage of processing
time (the time-progressing expressions of Section 8) register
deadlines here; the executor fires what is due before each arrival.
The queue is its own small object — operators bind to *it*, not to a
bound method of the :class:`~repro.exec.executor.Dataflow` — so an
operator never references its flow and a replaced flow is freed by
reference counting alone instead of waiting for a cycle collection.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator, Sequence

from ..core.times import Timestamp

if TYPE_CHECKING:  # pragma: no cover
    from .operators.base import Operator

__all__ = ["TimerQueue"]


class TimerQueue:
    """Pending ``(deadline, seq, operator)`` timers, earliest first.

    ``seq`` is the registration ordinal: it keeps equal deadlines in
    registration order and is part of the checkpoint payload.
    """

    __slots__ = ("_heap", "seq")

    def __init__(self) -> None:
        self._heap: list[tuple[Timestamp, int, "Operator"]] = []
        self.seq = 0

    def schedule(self, when: Timestamp, op: "Operator") -> None:
        heapq.heappush(self._heap, (when, self.seq, op))
        self.seq += 1

    def due(self, up_to: Timestamp) -> bool:
        heap = self._heap
        return bool(heap) and heap[0][0] <= up_to

    def pop_due(self, up_to: Timestamp) -> Iterator[tuple[Timestamp, "Operator"]]:
        """Pop timers with deadline <= ``up_to`` in firing order,
        including ones registered while earlier ones fire."""
        heap = self._heap
        while heap and heap[0][0] <= up_to:
            when, _, op = heapq.heappop(heap)
            yield when, op

    def __iter__(self) -> Iterator[tuple[Timestamp, int, "Operator"]]:
        """The queued entries, in heap order (``sorted()`` of them is
        firing order: ``seq`` is unique, so operators never compare)."""
        return iter(self._heap)

    def discard(self, dead: set[int]) -> None:
        """Forget the timers of operators whose ``id`` is in ``dead``."""
        self._heap = [entry for entry in self._heap if id(entry[2]) not in dead]
        heapq.heapify(self._heap)

    def restore(
        self,
        entries: Sequence[tuple[Timestamp, int, int]],
        operators: Sequence["Operator"],
        seq: int,
    ) -> None:
        """Adopt checkpointed ``(deadline, seq, operator index)`` entries."""
        self._heap = [(when, n, operators[i]) for when, n, i in entries]
        heapq.heapify(self._heap)
        self.seq = seq
