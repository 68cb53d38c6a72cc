"""The changelog codec: how a ``list[Change]`` crosses a pickle boundary.

A :class:`~repro.core.changelog.Change` is a frozen, slotted dataclass,
so pickling one goes through the Python-level ``__getstate__`` /
``__setstate__`` pair dataclasses generate — per object, on both sides.
Checkpoints, the sharded merge state, the fork pipe of the processes
backend and the session's durable logs all move whole changelogs, and
paid that price per change.

The codec transposes a changelog the way
:class:`~repro.core.colbatch.ColumnarBatch` transposes a micro-batch —
parallel ``kinds`` / ``ptimes`` vectors next to the row data — except
that the row tuples stay whole (operators downstream want rows, and a
tuple of plain values pickles at C speed):

* ``kinds`` — one byte per change, ``0`` insert / ``1`` retract;
* ``values`` — the row tuples, in order;
* ``ptimes`` — the processing times, in order.

The triple is what gets pickled; :func:`decode_changes` rebuilds the
``Change`` objects with one C-level ``map``.  Decoding accepts a plain
``list[Change]`` too and returns it unchanged, which is all it takes to
keep reading blobs written before the codec existed.

Source events (:func:`encode_events`) and the supervisor's tagged
output slices (:func:`encode_slices`) are the same idea with one more
vector each.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .changelog import Change, ChangeKind
from .tvr import RowEvent, StreamEvent, WatermarkEvent

__all__ = [
    "decode_changes",
    "decode_events",
    "decode_slices",
    "encode_changes",
    "encode_events",
    "encode_slices",
]

_RETRACT = ChangeKind.RETRACT
#: kind byte -> ChangeKind member (identity-preserving on decode)
_KIND_OF = (ChangeKind.INSERT, ChangeKind.RETRACT).__getitem__
#: the event-kind byte of a watermark advance (rows use the change's)
_WATERMARK = 2


def encode_changes(changes: Sequence[Change]) -> tuple[bytes, list, list]:
    """``(kinds, values, ptimes)`` for a changelog slice."""
    return (
        bytes([c.kind is _RETRACT for c in changes]),
        [c.values for c in changes],
        [c.ptime for c in changes],
    )


def decode_changes(encoded) -> list[Change]:
    """The changelog :func:`encode_changes` was given.

    A ``list`` is a pre-codec blob's plain ``list[Change]`` and comes
    back as is; the caller owns either result.
    """
    if type(encoded) is list:
        return encoded
    kinds, values, ptimes = encoded
    return list(map(Change, map(_KIND_OF, kinds), values, ptimes))


def encode_events(events: Sequence[StreamEvent]) -> tuple[bytes, list, list]:
    """``(kinds, payloads, ptimes)`` for a run of source events.

    A row event's payload is its row tuple, a watermark event's is the
    watermark value.  Like the ``.script`` notation, the encoding keeps
    one processing time per event (the event's own).
    """
    kinds = bytearray()
    payloads = []
    for event in events:
        if type(event) is RowEvent:
            change = event.change
            kinds.append(change.kind is _RETRACT)
            payloads.append(change.values)
        else:
            kinds.append(_WATERMARK)
            payloads.append(event.value)
    return bytes(kinds), payloads, [event.ptime for event in events]


def decode_events(encoded) -> list[StreamEvent]:
    kinds, payloads, ptimes = encoded
    return [
        WatermarkEvent(ptime, payload)
        if kind == _WATERMARK
        else RowEvent(ptime, Change(_KIND_OF(kind), payload, ptime))
        for kind, payload, ptime in zip(kinds, payloads, ptimes)
    ]


def encode_slices(slices: Sequence[tuple[int, list[Change]]]) -> tuple:
    """``(seqs, lengths, encoded changes)`` for tagged output slices.

    The slices of one shard's supervised run are flattened into a
    single changelog; the sequence tags and slice lengths ride beside
    it, so decoding restores exactly the ``(seq, slice)`` pairs —
    duplicates from replayed input included — that ``dedup_by_seq``
    expects.
    """
    flat = [change for _, changes in slices for change in changes]
    return (
        [seq for seq, _ in slices],
        [len(changes) for _, changes in slices],
        encode_changes(flat),
    )


def decode_slices(encoded) -> list[tuple[int, list[Change]]]:
    seqs, lengths, changes = encoded
    flat = decode_changes(changes)
    ends = list(accumulate(lengths))
    return [
        (seq, flat[end - length:end])
        for seq, length, end in zip(seqs, lengths, ends)
    ]
