"""Time-varying relations: the paper's single semantic object.

A :class:`TimeVaryingRelation` (TVR) is a relation whose contents evolve
over processing time, together with the watermark metadata that makes
event-time reasoning possible.  Both classic tables and streams are
TVRs; they differ only in how they are *rendered* (snapshot vs.
changelog), which is exactly the stream/table duality of Section 3.1.

A TVR is assembled from a processing-time-ordered sequence of
:class:`StreamEvent` items — row insertions, row retractions, and
watermark advances — mirroring the paper's example dataset notation::

    8:07  WM -> 8:05
    8:08  INSERT (8:07, $2, A)

which here reads::

    events = [wm(t("8:07"), t("8:05")), ins(t("8:08"), (t("8:07"), 2, "A"))]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .changelog import Change, ChangeKind, Changelog
from .errors import ExecutionError
from .relation import Relation
from .schema import Schema
from .times import MAX_TIMESTAMP, MIN_TIMESTAMP, Timestamp
from .watermark import WatermarkTrack

__all__ = [
    "StreamEvent",
    "RowEvent",
    "WatermarkEvent",
    "ins",
    "rm",
    "wm",
    "TimeVaryingRelation",
]


@dataclass(frozen=True)
class RowEvent:
    """A row being inserted into or retracted from the relation."""

    ptime: Timestamp
    change: Change

    @property
    def is_insert(self) -> bool:
        return self.change.is_insert


@dataclass(frozen=True)
class WatermarkEvent:
    """The relation's watermark advancing to ``value`` at ``ptime``."""

    ptime: Timestamp
    value: Timestamp


StreamEvent = RowEvent | WatermarkEvent


def ins(ptime: Timestamp, values: Sequence[Any]) -> RowEvent:
    """An insertion of ``values`` at processing time ``ptime``."""
    return RowEvent(ptime, Change(ChangeKind.INSERT, tuple(values), ptime))


def rm(ptime: Timestamp, values: Sequence[Any]) -> RowEvent:
    """A retraction of ``values`` at processing time ``ptime``."""
    return RowEvent(ptime, Change(ChangeKind.RETRACT, tuple(values), ptime))


def wm(ptime: Timestamp, value: Timestamp) -> WatermarkEvent:
    """The watermark advancing to ``value`` at processing time ``ptime``."""
    return WatermarkEvent(ptime, value)


class TimeVaryingRelation:
    """A relation evolving over processing time, with watermark metadata.

    The full suite of relational operators applies to a TVR pointwise in
    time; this class only stores and renders the data — query evaluation
    lives in :mod:`repro.exec`.

    The events are held in a :class:`~repro.core.codec.SegmentedLog`.
    A relation built by applying events keeps them all as objects (its
    log is never sealed: every late-joining query re-reads a source
    from the start).  One brought back by :meth:`restored` keeps its
    recorded prefix encoded until someone reads below it.  Beside the
    events, a second log with an always-empty tail holds the segments
    :meth:`event_segments` handed to earlier cuts, one per cut boundary.
    """

    def __init__(self, schema: Schema, events: Iterable[StreamEvent] = ()):
        # (the codec is built on this module's event classes)
        from .codec import events_log

        self._schema = schema
        self._events = events_log()
        self._cut = events_log()
        self._watermarks = WatermarkTrack()
        self._last_ptime: Timestamp = MIN_TIMESTAMP
        for event in events:
            self.apply(event)

    # -- construction --------------------------------------------------

    @classmethod
    def from_table(
        cls, schema: Schema, rows: Iterable[Sequence[Any]]
    ) -> "TimeVaryingRelation":
        """A bounded TVR: a classic table, complete from the start.

        All rows exist at the beginning of time and the watermark
        immediately jumps to ``MAX_TIMESTAMP``, asserting total
        completeness — this is how a recorded stream is replayed "as a
        table" to get the same query results (Section 4).
        """
        tvr = cls(schema)
        for row in rows:
            tvr.insert(MIN_TIMESTAMP, row)
        tvr.advance_watermark(MIN_TIMESTAMP, MAX_TIMESTAMP)
        return tvr

    @classmethod
    def restored(cls, schema: Schema, segments: list) -> "TimeVaryingRelation":
        """A recorded relation brought back from its event log's
        ``segments`` (:func:`~repro.core.codec.encode_events` triples),
        which it adopts still encoded.

        The event count, the last processing time and the watermark
        track are read off the encoded vectors; no event is built until
        :meth:`events` is asked for a position inside the adopted prefix
        (or :attr:`changelog` / :meth:`snapshot` for the row data).
        The segments are trusted to be what :meth:`events` of a valid
        relation encoded to — ordering and arity were checked when the
        events were first applied.
        """
        from .codec import events_log, segment_watermarks

        tvr = cls(schema)
        log = tvr._events = events_log(segments)
        if log.sealed:
            tvr._cut = events_log(log.sealed)  # (the same segments)
            for segment in log.sealed:
                triple = tuple(segment)  # (a framed one unpickles once)
                for ptime, value in segment_watermarks(triple):
                    tvr._watermarks.advance(ptime, value)
            tvr._last_ptime = triple[2][-1]  # its ptimes vector
        return tvr

    # -- mutation ------------------------------------------------------

    def apply(self, event: StreamEvent) -> None:
        """Append one stream event; processing time must not regress."""
        if event.ptime < self._last_ptime:
            raise ExecutionError(
                f"stream event out of processing-time order: {event.ptime} "
                f"after {self._last_ptime}"
            )
        if isinstance(event, RowEvent):
            if len(event.change.values) != len(self._schema):
                raise ExecutionError(
                    f"row arity {len(event.change.values)} does not match "
                    f"schema arity {len(self._schema)}"
                )
        else:
            self._watermarks.advance(event.ptime, event.value)
        self._events.tail.append(event)
        self._last_ptime = event.ptime

    def insert(self, ptime: Timestamp, values: Sequence[Any]) -> None:
        """Insert a row at processing time ``ptime``."""
        self.apply(ins(ptime, values))

    def retract(self, ptime: Timestamp, values: Sequence[Any]) -> None:
        """Retract a row occurrence at processing time ``ptime``."""
        self.apply(rm(ptime, values))

    def advance_watermark(self, ptime: Timestamp, value: Timestamp) -> None:
        """Advance this relation's watermark."""
        self.apply(wm(ptime, value))

    # -- accessors -----------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def changelog(self) -> Changelog:
        """The stream rendering: the changelog of this TVR, derived from
        its events on each read (the events are the one record kept)."""
        return Changelog(
            event.change for event in self.events() if isinstance(event, RowEvent)
        )

    @property
    def watermarks(self) -> WatermarkTrack:
        return self._watermarks

    @property
    def last_ptime(self) -> Timestamp:
        """The processing time of the most recent event."""
        return self._last_ptime

    @property
    def is_bounded(self) -> bool:
        """Whether the relation has asserted total completeness."""
        return self._watermarks.current >= MAX_TIMESTAMP

    def events(self, start: int = 0) -> list[StreamEvent]:
        """The stream events from position ``start`` on, in
        processing-time order (all of them by default).

        The event list only grows, so ``events(cursor)`` with a cursor
        taken from :attr:`event_count` returns exactly what was applied
        since — what an append-only log of the relation persists.

        Reading below a restored relation's still-encoded prefix
        decodes it once and keeps the objects: whoever replays a source
        (every late-joining query does) will be followed by another.
        """
        log = self._events
        if start < log.base:
            log.unseal()
        return log.slice(start)

    def event_segments(self, start: int = 0) -> list:
        """The events from boundary ``start`` on as codec segments:
        what a cut appends to a log that already holds ``start`` events.

        The events stay objects for the next replay; the segments are
        kept beside them, so a later cut — a full one included — gets
        the very segments earlier cuts framed, plus one new segment for
        the events since the last cut (none when there are none).
        Every count a cut was handed is a boundary; anything else
        raises.
        """
        cut, log = self._cut, self._events
        cut.tail = log.slice(cut.base)  # (never below the restored prefix)
        return cut.segments(start)

    @property
    def event_count(self) -> int:
        """Stream events applied so far."""
        return len(self._events)

    def snapshot(self, ptime: Timestamp = MAX_TIMESTAMP) -> Relation:
        """The table rendering: the relation's contents at ``ptime``."""
        return self.changelog.snapshot_at(self._schema, ptime)

    def watermark_at(self, ptime: Timestamp) -> Timestamp:
        """The watermark in effect at ``ptime``."""
        return self._watermarks.value_at(ptime)

    def contract_violations(self, time_column: str | None = None) -> list[str]:
        """Rows that violate the watermark contract (Section 3.2.2).

        A watermark asserts a lower bound on future rows' event
        timestamps; rows arriving strictly below the watermark in force
        are late.  Late rows are legal input (Extension 2 defines how
        they are dropped or, with allowed lateness, applied), but a
        *source* emitting them has a broken watermark generator — this
        diagnostic lists them.  ``time_column`` defaults to the
        schema's single event time column.

        The bound is treated as *inclusive* (a row exactly at the
        watermark is fine).  Section 3.2.2's prose says future
        timestamps are "greater than" the watermark, but the paper's
        own example violates that reading: row C (bidtime 8:05) arrives
        at 8:13 while the watermark stands at exactly 8:05, and every
        listing includes C in the results.
        """
        if time_column is None:
            event_cols = self._schema.event_time_columns
            if len(event_cols) != 1:
                raise ExecutionError(
                    "contract_violations needs an explicit time_column "
                    f"when the schema has {len(event_cols)} event time "
                    "columns"
                )
            time_column = event_cols[0].name
        index = self._schema.index_of(time_column)
        violations: list[str] = []
        watermark = MIN_TIMESTAMP
        for event in self.events():
            if isinstance(event, WatermarkEvent):
                watermark = event.value
                continue
            ts = event.change.values[index]
            if ts is not None and ts < watermark:
                violations.append(
                    f"row {event.change.values!r} at ptime {event.ptime} "
                    f"has {time_column}={ts} < watermark {watermark}"
                )
        return violations

    def __repr__(self) -> str:
        return (
            f"TimeVaryingRelation({self.event_count} events, "
            f"schema={self._schema})"
        )
