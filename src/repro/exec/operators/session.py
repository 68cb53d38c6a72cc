"""Session windows: transitive-closure sessionization.

Section 8 of the paper lists session windows ("periods of contiguous
activity") as the first expanded-windowing future-work item; Beam and
Flink both ship them, and we implement them as a third windowing TVF
with the same ``wstart``/``wend`` convention as Tumble and Hop.

Each row opens a proto-session ``[t, t + gap)``; overlapping
proto-sessions of the same key merge transitively.  Because a new row
can *merge previously separate sessions*, the operator is stateful and
retractive: when windows change, previously emitted rows are retracted
and re-emitted with the merged window — standard changelog behavior
that downstream operators already handle.

Watermark reasoning: a session whose end is at or before the watermark
can never grow again (any row that could extend it would have a
timestamp before the watermark, which the watermark contract forbids),
so its state is freed.  Rows at or before the watermark are late and
dropped, mirroring Extension 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ...core.changelog import Change, diff_bags
from ...core.errors import ExecutionError
from ...core.schema import Schema
from ...core.times import Duration, Timestamp
from .base import Operator

__all__ = ["SessionOperator"]


@dataclass
class _Session:
    start: Timestamp
    end: Timestamp
    #: bag of (input row values) -> count
    rows: Counter = field(default_factory=Counter)

    def tagged(self) -> Counter:
        """The session's rows tagged with its window, as a bag."""
        out: Counter = Counter()
        for values, count in self.rows.items():
            out[(self.start, self.end) + values] = count
        return out


class SessionOperator(Operator):
    """Per-key transitive-closure session windows."""

    def __init__(
        self,
        schema: Schema,
        timecol: int,
        gap: Duration,
        key_indices: tuple[int, ...] = (),
        allowed_lateness: Duration = 0,
    ):
        super().__init__(schema, arity=1)
        self._timecol = timecol
        self._gap = gap
        self._key_indices = key_indices
        self._allowed_lateness = allowed_lateness
        self._sessions: dict[tuple, list[_Session]] = {}

    def _key_of(self, values: tuple) -> tuple:
        return tuple(values[i] for i in self._key_indices)

    def on_change(self, port: int, change: Change) -> list[Change]:
        ts = change.values[self._timecol]
        if ts is None:
            raise ExecutionError("NULL event timestamp in Session input")
        if ts + self._allowed_lateness <= self.input_watermark:
            self.late_dropped += 1
            return []
        key = self._key_of(change.values)
        sessions = self._sessions.setdefault(key, [])

        before: Counter = Counter()
        if change.is_insert:
            touched = [
                s for s in sessions if ts < s.end and s.start < ts + self._gap
            ]
            for s in touched:
                before.update(s.tagged())
                sessions.remove(s)
            merged = _Session(
                start=min([ts] + [s.start for s in touched]),
                end=max([ts + self._gap] + [s.end for s in touched]),
            )
            for s in touched:
                merged.rows.update(s.rows)
            merged.rows[change.values] += 1
            sessions.append(merged)
            after = merged.tagged()
        else:
            owner = next(
                (s for s in sessions if s.rows.get(change.values, 0) > 0), None
            )
            if owner is None:
                raise ExecutionError("retraction for unknown session row")
            before.update(owner.tagged())
            sessions.remove(owner)
            owner.rows[change.values] -= 1
            if owner.rows[change.values] == 0:
                del owner.rows[change.values]
            # Removing a row can split the session; re-cluster the rest.
            rebuilt = self._recluster(owner.rows)
            sessions.extend(rebuilt)
            after = Counter()
            for s in rebuilt:
                after.update(s.tagged())
        if not sessions:
            self._sessions.pop(key, None)
        return diff_bags(before, after, change.ptime)

    def _recluster(self, rows: Counter) -> list[_Session]:
        """Re-derive sessions from scratch for a bag of rows."""
        if not rows:
            return []
        ordered = sorted(rows.items(), key=lambda kv: kv[0][self._timecol])
        out: list[_Session] = []
        current: _Session | None = None
        for values, count in ordered:
            ts = values[self._timecol]
            if current is None or ts >= current.end:
                current = _Session(start=ts, end=ts + self._gap)
                out.append(current)
            current.rows[values] += count
            current.end = max(current.end, ts + self._gap)
        return out

    def _on_watermark_advanced(self, merged: Timestamp, ptime: Timestamp) -> list[Change]:
        # Sessions that can no longer grow are finalized: free the rows.
        horizon = merged - self._allowed_lateness
        for key in list(self._sessions):
            kept = [s for s in self._sessions[key] if s.end > horizon]
            if kept:
                self._sessions[key] = kept
            else:
                del self._sessions[key]
        return []

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["sessions"] = self._sessions
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._sessions = snapshot["sessions"]

    def state_size(self) -> int:
        return sum(
            sum(s.rows.values())
            for sessions in self._sessions.values()
            for s in sessions
        )

    def _extra_metrics(self) -> dict:
        return {
            "open_sessions": sum(len(s) for s in self._sessions.values())
        }
