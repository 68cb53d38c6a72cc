"""Outer joins over changelogs (LEFT and FULL; RIGHT is planned as a
mirrored LEFT).

Outer joins are the textbook hard case for incremental maintenance:
whether a row appears null-extended depends on an *aggregate* of the
other side (its match count), so changes on one side can flip rows of
the other between matched and null-extended form.  The operator tracks
the current match count per distinct row on each outer side and emits
the corresponding retract/insert pairs on every 0 ↔ >0 transition —
plain changelog algebra that every downstream operator already
understands.

Watermark-driven state expiry is deliberately *not* applied to outer
joins: expiring a row would silently flip its matches on the other side
to null-extended, which is a result change, not a no-op.  State stays
bounded only by the inputs (the same conservative stance Flink takes
for general joins).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Optional

from ...core.changelog import Change, ChangeKind
from ...core.errors import ExecutionError
from ...core.schema import Schema
from .base import Operator

__all__ = ["OuterJoinOperator", "LeftJoinOperator"]


class OuterJoinOperator(Operator):
    """Incremental LEFT / FULL OUTER JOIN with two-sided state.

    ``outer`` is a pair of booleans: whether the left / right side
    keeps unmatched rows (LEFT = (True, False), FULL = (True, True)).
    """

    def __init__(
        self,
        schema: Schema,
        left_width: int,
        right_width: int,
        condition: Optional[Callable[[tuple], Any]],
        left_key: Optional[tuple[int, ...]] = None,
        right_key: Optional[tuple[int, ...]] = None,
        outer: tuple[bool, bool] = (True, False),
    ):
        super().__init__(schema, arity=2)
        self._widths = (left_width, right_width)
        self._nulls = ((None,) * right_width, (None,) * left_width)
        self._condition = condition
        self._keys = (left_key or (), right_key or ())
        self._outer = outer
        # key -> Counter(values -> multiplicity), per side
        self._state: tuple[dict, dict] = ({}, {})
        # per side: distinct row -> current match count on the other side
        self._match_counts: tuple[dict[tuple, int], dict[tuple, int]] = ({}, {})
        # Running count of row occurrences held on both sides (see
        # ``JoinOperator``): ``state_size()`` is read after every event.
        self._rows = 0

    # -- helpers ---------------------------------------------------------------

    def _combine(self, port: int, values: tuple, other_values: tuple) -> tuple:
        if port == 0:
            return values + other_values
        return other_values + values

    def _null_extended(self, port: int, values: tuple) -> tuple:
        if port == 0:
            return values + self._nulls[0]
        return self._nulls[1] + values

    def _matches(self, port: int, values: tuple, other_values: tuple) -> bool:
        if self._condition is None:
            return True
        return self._condition(self._combine(port, values, other_values)) is True

    def _bucket(self, port: int, key: tuple, create: bool = False) -> Counter:
        side = self._state[port]
        bucket = side.get(key)
        if bucket is None and create:
            bucket = Counter()
            side[key] = bucket
        return bucket if bucket is not None else Counter()

    def _match_count(self, port: int, key: tuple, values: tuple) -> int:
        counts = self._match_counts[port]
        if values in counts:
            return counts[values]
        total = sum(
            count
            for other_values, count in self._bucket(1 - port, key).items()
            if self._matches(port, values, other_values)
        )
        counts[values] = total
        return total

    # -- data path ---------------------------------------------------------------

    def on_change(self, port: int, change: Change) -> list[Change]:
        values = change.values
        key = tuple(values[i] for i in self._keys[port])
        bucket = self._bucket(port, key, create=change.is_insert)
        if change.is_insert:
            bucket[values] += 1
            self._rows += 1
        else:
            if bucket[values] <= 0:
                raise ExecutionError("outer-join retraction for unknown row")
            bucket[values] -= 1
            self._rows -= 1
            if bucket[values] == 0:
                del bucket[values]
                if not bucket:
                    del self._state[port][key]

        # this row's own contribution (null row or matched rows)
        own: list[Change] = []
        matches = self._match_count(port, key, values)
        if matches == 0:
            if self._outer[port]:
                own.append(
                    Change(
                        change.kind, self._null_extended(port, values), change.ptime
                    )
                )
        else:
            for other_values, count in self._bucket(1 - port, key).items():
                if self._matches(port, values, other_values):
                    own.extend(
                        Change(
                            change.kind,
                            self._combine(port, values, other_values),
                            change.ptime,
                        )
                        for _ in range(count)
                    )
        if change.is_retract and not self._bucket(port, key).get(values):
            self._match_counts[port].pop(values, None)

        # 0 <-> >0 flips on the other side's rows
        flips: list[Change] = []
        other = 1 - port
        other_counts = self._match_counts[other]
        delta = 1 if change.is_insert else -1
        for other_values, other_count in self._bucket(other, key).items():
            if not self._matches(other, other_values, values):
                continue
            if other_values in other_counts:
                # cached values are pre-change
                previous = other_counts[other_values]
                current = previous + delta
            else:
                # a fresh scan sees the post-change bucket
                current = sum(
                    count
                    for candidate, count in self._bucket(port, key).items()
                    if self._matches(other, other_values, candidate)
                )
                previous = current - delta
            other_counts[other_values] = current
            if not self._outer[other]:
                continue
            null_row = self._null_extended(other, other_values)
            if change.is_insert and previous == 0:
                flips.extend(
                    Change(ChangeKind.RETRACT, null_row, change.ptime)
                    for _ in range(other_count)
                )
            elif change.is_retract and current == 0:
                flips.extend(
                    Change(ChangeKind.INSERT, null_row, change.ptime)
                    for _ in range(other_count)
                )
        # retractions before insertions: a consumer never transiently
        # holds both the null-extended and the matched version of a row
        if change.is_insert:
            return flips + own
        return own + flips

    # -- introspection ---------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["state"] = self._state
        snapshot["match_counts"] = self._match_counts
        snapshot["rows"] = self._rows
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._state = snapshot["state"]
        self._match_counts = snapshot["match_counts"]
        self._rows = snapshot["rows"]

    def state_size(self) -> int:
        return self._rows

    def _extra_metrics(self) -> dict:
        return {
            "match_counts_cached": sum(len(c) for c in self._match_counts)
        }

    def name(self) -> str:
        kind = "FullJoin" if self._outer[1] else "LeftJoin"
        return f"{kind}(state={self.state_size()} rows)"


#: A LEFT OUTER JOIN operator: ``OuterJoinOperator``'s default ``outer``.
LeftJoinOperator = OuterJoinOperator
