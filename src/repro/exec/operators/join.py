"""Incremental binary joins over changelogs.

The classic two-sided materialized join (Appendix B.2.3: "a join
operator fully materializes both input relations"): each side's live
rows are kept in keyed bags; a change on one side probes the other
side's bag and emits the delta of the join result.  Insert probes emit
inserts, retract probes emit retracts — the algebra of changelogs makes
the incremental maintenance uniform.

When the optimizer can prove the join condition bounds the two sides'
event times to within a window of each other (a *time-windowed join*,
e.g. NEXMark Q7's ``bidtime >= wend - 10min AND bidtime < wend``), it
supplies expiration metadata and the operator purges rows the watermark
has made unjoinable — the state-cleanup special case Section 5 calls
out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Optional, Sequence

from ...core.changelog import Change, ChangeKind
from ...core.schema import Schema
from ...core.times import Duration, Timestamp
from .base import Operator

__all__ = ["JoinOperator", "TimeBound"]

_INSERT = ChangeKind.INSERT


def _key_getter(indices: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[i] for i in indices)``, without the generator."""
    if len(indices) != 1:
        return itemgetter(*indices) if indices else lambda values: ()
    return lambda values, only=indices[0]: (values[only],)


@dataclass(frozen=True)
class TimeBound:
    """State-expiry metadata for one join side.

    ``time_index`` is the event time column (side-local ordinal) and
    ``slack`` how long past the watermark the row may still join: the
    row expires when ``watermark >= row[time_index] + slack``.
    """

    time_index: int
    slack: Duration


class JoinOperator(Operator):
    """INNER/CROSS join with two-sided materialized state."""

    def __init__(
        self,
        schema: Schema,
        left_width: int,
        condition: Optional[Callable[[tuple], Any]],
        left_key: Optional[tuple[int, ...]] = None,
        right_key: Optional[tuple[int, ...]] = None,
        left_bound: Optional[TimeBound] = None,
        right_bound: Optional[TimeBound] = None,
    ):
        super().__init__(schema, arity=2)
        self._left_width = left_width
        self._condition = condition
        # Hash keys: equal-length index tuples into each side's rows.
        # Without equi-keys everything lands in one bucket.
        self._key_of = tuple(map(_key_getter, (left_key or (), right_key or ())))
        self._state: tuple[dict, dict] = ({}, {})
        self._bounds = (left_bound, right_bound)
        # Running count of row occurrences held on both sides, so
        # ``state_size()`` — read after every event by the metrics
        # sweep — is O(1) instead of a walk over every bucket.
        self._rows = 0

    # -- data path ---------------------------------------------------------------

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        # Both sides' state dicts, the key getter, the condition and the
        # row count are bound once for the whole batch instead of per
        # probe; bucket counts go through ``get`` (a ``Counter``'s
        # ``+=`` on a new row would call its ``__missing__``).
        key_of = self._key_of[port]
        side = self._state[port]
        other = self._state[1 - port]
        condition = self._condition
        left = port == 0
        rows = self._rows
        out: list[Change] = []
        append = out.append
        try:
            for change in changes:
                values = change.values
                key = key_of(values)
                bucket = side.get(key)
                kind = change.kind
                if kind is _INSERT:
                    if bucket is None:
                        bucket = side[key] = Counter()
                    bucket[values] = bucket.get(values, 0) + 1
                    rows += 1
                else:
                    count = 0 if bucket is None else bucket.get(values, 0)
                    if not count:
                        # The matching insert was expired by the
                        # watermark; the retraction has nothing to undo.
                        self.expired_rows += 1
                        continue
                    rows -= 1
                    if count > 1:
                        bucket[values] = count - 1
                    else:
                        del bucket[values]
                        if not bucket:
                            del side[key]
                matches = other.get(key)
                if not matches:
                    continue
                # ``condition`` is only the residual the keys do not
                # decide (the compiler drops the key equalities), so a
                # key with a NULL or NaN part, where ``=`` is never
                # TRUE, must not match the bucket it finds.  (A loop:
                # a generator here costs more than the comparisons.)
                if key:
                    joinable = True
                    for part in key:
                        if part is None or part != part:
                            joinable = False
                            break
                    if not joinable:
                        continue
                ptime = change.ptime
                for other_values, count in matches.items():
                    combined = (
                        values + other_values if left else other_values + values
                    )
                    if condition is not None and condition(combined) is not True:
                        continue
                    for _ in range(count):
                        append(Change(kind, combined, ptime))
        finally:
            self._rows = rows
        return out

    # -- watermark-driven state expiry -----------------------------------------------

    def _on_watermark_advanced(self, merged: Timestamp, ptime: Timestamp) -> list[Change]:
        for port in (0, 1):
            bound = self._bounds[port]
            if bound is None:
                continue
            side = self._state[port]
            for key, bucket in list(side.items()):
                for values in [
                    values for values in bucket
                    if values[bound.time_index] + bound.slack <= merged
                ]:
                    count = bucket.pop(values)
                    self.expired_rows += count
                    self._rows -= count
                if not bucket:
                    del side[key]
        return []

    # -- introspection ---------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["state"] = self._state
        snapshot["rows"] = self._rows
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._state = snapshot["state"]
        self._rows = snapshot["rows"]

    def state_size(self) -> int:
        return self._rows

    def name(self) -> str:
        return f"Join(state={self.state_size()} rows)"
