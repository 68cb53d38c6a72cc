"""Semi and anti joins: ``expr [NOT] IN (SELECT col FROM ...)``.

A left row's membership in the output depends only on whether its probe
value currently has any matches in the subquery result — a match
*count*, maintained incrementally.  Left rows flip in and out of the
output as the right side changes; the emitted rows are the unmodified
left rows, so all downstream metadata (alignment, completion under a
bounded right side) survives.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable

from ...core.changelog import Change, ChangeKind
from ...core.errors import ExecutionError
from ...core.schema import Schema
from .base import Operator

__all__ = ["SemiJoinOperator"]


class SemiJoinOperator(Operator):
    """IN (semi) / NOT IN (anti) against a single-column subquery."""

    def __init__(
        self,
        schema: Schema,
        probe: Callable[[tuple], Any],
        negated: bool,
    ):
        super().__init__(schema, arity=2)
        self._probe = probe
        self._negated = negated
        # probe value -> Counter(left rows); None-valued probes are
        # stored but never emitted (IN is unknown for NULL)
        self._left: dict[Any, Counter] = {}
        # right value -> multiplicity
        self._right: Counter = Counter()

    def _passes(self, value: Any) -> bool:
        if value is None:
            return False  # NULL IN (...) / NULL NOT IN (...) is unknown
        present = self._right.get(value, 0) > 0
        return present != self._negated

    # -- data path ---------------------------------------------------------------

    def on_change(self, port: int, change: Change) -> list[Change]:
        if port == 0:
            return self._on_left(change)
        return self._on_right(change)

    def _on_left(self, change: Change) -> list[Change]:
        values = change.values
        probe = self._probe(values)
        bucket = self._left.setdefault(probe, Counter())
        if change.is_insert:
            bucket[values] += 1
        else:
            if bucket[values] <= 0:
                raise ExecutionError("semi-join retraction for unknown row")
            bucket[values] -= 1
            if bucket[values] == 0:
                del bucket[values]
                if not bucket:
                    del self._left[probe]
        if self._passes(probe):
            return [change]
        return []

    def _on_right(self, change: Change) -> list[Change]:
        (value,) = change.values
        if value is None:
            # NULL right values match nothing under the match-count
            # semantics (see SemiJoinNode's NULL note)
            return []
        previous = self._right[value]
        self._right[value] += change.delta
        if self._right[value] < 0:
            raise ExecutionError("semi-join right side retracted a missing row")
        if self._right[value] == 0:
            del self._right[value]
        became_present = previous == 0 and change.is_insert
        became_absent = previous == 1 and change.is_retract
        if not (became_present or became_absent):
            return []
        # 0 <-> >0 transition: flip the left rows probing this value
        bucket = self._left.get(value)
        if not bucket:
            return []
        appearing = became_present != self._negated
        kind = ChangeKind.INSERT if appearing else ChangeKind.RETRACT
        out: list[Change] = []
        for left_values, count in bucket.items():
            out.extend(
                Change(kind, left_values, change.ptime) for _ in range(count)
            )
        return out

    # -- introspection ------------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["left"] = self._left
        snapshot["right"] = self._right
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._left = snapshot["left"]
        self._right = snapshot["right"]

    def state_size(self) -> int:
        return sum(
            sum(bucket.values()) for bucket in self._left.values()
        ) + sum(self._right.values())

    def _extra_metrics(self) -> dict:
        return {"right_values": len(self._right)}

    def name(self) -> str:
        return f"{'Anti' if self._negated else 'Semi'}Join"
