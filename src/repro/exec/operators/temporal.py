"""Temporal filters: predicates over CURRENT_TIME (Section 8).

A predicate like ``bidtime > CURRENT_TIME - INTERVAL '1' HOUR`` defines
a *tail-of-stream* view: rows join the relation when they arrive and
leave it again when the moving boundary passes them — with no input
event involved.  The standard row-at-a-time filter cannot express this,
so the operator keeps the visible rows in state and uses the executor's
processing-time timer service to retract (or admit) rows exactly when
their boundary crosses ``CURRENT_TIME``.

Each :class:`~repro.plan.logical.TemporalBound` contributes one edge of
a row's visibility interval::

    'before': visible while now <  row[time_index] + offset
    'from'  : visible once  now >= row[time_index] + offset

The row is visible on the intersection of all bounds.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from ...core.changelog import Change, ChangeKind
from ...core.schema import Schema
from ...core.times import MAX_TIMESTAMP, MIN_TIMESTAMP, Timestamp
from ...plan.logical import TemporalBound
from .base import Operator

__all__ = ["TemporalFilterOperator"]


class TemporalFilterOperator(Operator):
    """Keeps rows whose visibility interval contains CURRENT_TIME."""

    def __init__(self, schema: Schema, bounds: Sequence[TemporalBound]):
        super().__init__(schema, arity=1)
        self._bounds = tuple(bounds)
        self._visible: Counter = Counter()
        self._future: Counter = Counter()
        # deadline -> list of ("enter" | "exit", values)
        self._agenda: dict[Timestamp, list[tuple[str, tuple]]] = {}

    def _interval(self, values: tuple) -> tuple[Timestamp, Timestamp]:
        """The [start, end) processing-time visibility of a row."""
        start, end = MIN_TIMESTAMP, MAX_TIMESTAMP
        for bound in self._bounds:
            ts = values[bound.time_index]
            if ts is None:
                return (MAX_TIMESTAMP, MAX_TIMESTAMP)  # NULL never matches
            edge = ts + bound.offset
            if bound.kind == "before":
                end = min(end, edge)
            else:
                start = max(start, edge)
        return start, end

    def _schedule(self, when: Timestamp, action: str, values: tuple) -> None:
        self._agenda.setdefault(when, []).append((action, values))
        self.register_timer(when)

    # -- data path ---------------------------------------------------------------

    def on_change(self, port: int, change: Change) -> list[Change]:
        values = change.values
        start, end = self._interval(values)
        now = change.ptime
        if change.is_insert:
            if now >= end:
                self.expired_rows += 1
                return []
            if now >= start:
                self._visible[values] += 1
                if end < MAX_TIMESTAMP:
                    self._schedule(end, "exit", values)
                return [change]
            self._future[values] += 1
            self._schedule(start, "enter", values)
            return []
        # retraction
        if self._visible.get(values, 0) > 0:
            self._visible[values] -= 1
            if self._visible[values] == 0:
                del self._visible[values]
            return [change]
        if self._future.get(values, 0) > 0:
            self._future[values] -= 1
            if self._future[values] == 0:
                del self._future[values]
            return []
        # the matching insert was already expired by a timer
        self.expired_rows += 1
        return []

    # -- timers ---------------------------------------------------------------------

    def on_timer(self, when: Timestamp) -> list[Change]:
        actions = self._agenda.pop(when, [])
        out: list[Change] = []
        for action, values in actions:
            if action == "exit":
                count = self._visible.pop(values, 0)
                out.extend(
                    Change(ChangeKind.RETRACT, values, when) for _ in range(count)
                )
            else:  # enter
                count = self._future.pop(values, 0)
                if count == 0:
                    continue  # retracted before it ever became visible
                self._visible[values] += count
                _, end = self._interval(values)
                if end < MAX_TIMESTAMP:
                    self._schedule(end, "exit", values)
                out.extend(
                    Change(ChangeKind.INSERT, values, when) for _ in range(count)
                )
        return out

    # -- introspection -----------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["visible"] = self._visible
        snapshot["future"] = self._future
        snapshot["agenda"] = self._agenda
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._visible = snapshot["visible"]
        self._future = snapshot["future"]
        self._agenda = snapshot["agenda"]

    def state_size(self) -> int:
        return sum(self._visible.values()) + sum(self._future.values())

    def _extra_metrics(self) -> dict:
        return {
            "visible_rows": sum(self._visible.values()),
            "pending_timers": len(self._agenda),
        }

    def name(self) -> str:
        return f"TemporalFilter({len(self._bounds)} bounds)"
