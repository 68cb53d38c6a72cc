"""CQL streams: timestamped tuples delivered in timestamp order.

In the STREAM system (Arasu, Babu & Widom), a stream is a bag of
``(tuple, timestamp)`` pairs and *time is metadata*: timestamps are not
ordinary columns, and the system buffers out-of-order arrivals
(via *heartbeats*) so the query processor always sees rows in
timestamp order.  Section 4 of the paper contrasts this with its own
explicit-timestamp proposal.

:meth:`CqlStream.from_tvr` performs exactly that heartbeat buffering
when replaying one of our TVRs into CQL: rows are released in event-
time order, up to the source's final watermark.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..core.errors import ValidationError
from ..core.schema import Schema
from ..core.times import Timestamp
from ..core.tvr import TimeVaryingRelation

__all__ = ["CqlStream"]


class CqlStream:
    """A CQL stream: schema plus timestamp-ordered elements.

    ``elements`` are ``(timestamp, values)`` pairs; the timestamp is
    metadata and is *not* part of ``values`` (CQL's implicit-time
    model).
    """

    def __init__(
        self,
        schema: Schema,
        elements: Iterable[tuple[Timestamp, tuple[Any, ...]]] = (),
    ):
        self.schema = schema
        self.elements: list[tuple[Timestamp, tuple[Any, ...]]] = sorted(
            ((ts, tuple(values)) for ts, values in elements), key=lambda e: e[0]
        )

    @classmethod
    def from_tvr(
        cls,
        tvr: TimeVaryingRelation,
        timecol: str,
        keep_time_column: bool = False,
    ) -> "CqlStream":
        """Replay a TVR into CQL, buffering out-of-order rows.

        This models STREAM's heartbeat mechanism: an element becomes
        visible to the query processor only in timestamp order, and
        only once the source watermark (the heartbeat) has passed its
        timestamp.  Rows beyond the final watermark stay buffered
        forever — the latency/completeness trade-off Section 3.2 of the
        paper attributes to the in-order model.
        """
        time_index = tvr.schema.index_of(timecol)
        final_wm = tvr.watermarks.current
        elements = []
        for change in tvr.changelog:
            if not change.is_insert:
                raise ValidationError(
                    "CQL replay requires an append-only source stream"
                )
            ts = change.values[time_index]
            if ts > final_wm:
                continue  # never released by a heartbeat
            values = (
                change.values
                if keep_time_column
                else tuple(
                    v for i, v in enumerate(change.values) if i != time_index
                )
            )
            elements.append((ts, values))
        schema = (
            tvr.schema
            if keep_time_column
            else Schema(
                [c for i, c in enumerate(tvr.schema.columns) if i != time_index]
            ).degraded()
        )
        return cls(schema, elements)

    def rows_until(self, tick: Timestamp) -> list[tuple[Timestamp, tuple[Any, ...]]]:
        """Elements with timestamp <= ``tick`` (the heartbeat contract)."""
        return [(ts, values) for ts, values in self.elements if ts <= tick]

    def span(self) -> tuple[Timestamp, Timestamp]:
        """(min, max) element timestamps; raises on an empty stream."""
        if not self.elements:
            raise ValidationError("empty CQL stream has no span")
        return self.elements[0][0], self.elements[-1][0]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)
