"""The changelog codec, and the one shape every append-only history has.

**The codec.**  A :class:`~repro.core.changelog.Change` is a frozen,
slotted dataclass, so pickling one goes through the Python-level
``__getstate__`` / ``__setstate__`` pair dataclasses generate — per
object, on both sides.  The codec transposes a changelog the way
:class:`~repro.core.colbatch.ColumnarBatch` transposes a micro-batch —
parallel ``kinds`` / ``ptimes`` vectors next to the row data — except
that the row tuples stay whole (operators downstream want rows, and a
tuple of plain values pickles at C speed):

* ``kinds`` — one byte per change, ``0`` insert / ``1`` retract;
* ``values`` — the row tuples, in order;
* ``ptimes`` — the processing times, in order.

That triple is what a sealed :class:`Segment` holds.  Source events
(:func:`encode_events`) and the supervisor's tagged output slices
(:func:`encode_slices`) are the same idea with one more kind byte / one
more vector.

**Encoded at rest.**  A stream is one *encoding* of a time-varying
relation, materialised when somebody asks for it (paper §3, §6.5); a
recovered flow needs its operators' *state*, not its history as objects
(App. B.2.1).  So every append-only history in the engine — an output
channel's changelog, a sharded output's merged changelog, a recorded
source's events — is a :class:`SegmentedLog`: sealed segments plus a
live tail.

* **Seal at the cut.**  A checkpoint seals the tail into one more
  segment, so a change is encoded once in its life however many cuts
  follow, and every position a cut happened at is a segment boundary:
  the next cut moves whole segments (:meth:`SegmentedLog.segments`).
* **Frame once.**  A log file holds each segment as its *frame*, the
  pickle of its triple.  :meth:`Segment.frame` pickles at most once in
  the segment's life and the segment keeps the bytes instead of the
  vectors, so every later cut — a full one into a fresh directory
  included — writes the frames the segments already hold.  A recorded
  source's events stay objects for late joiners, so it keeps the
  segments it handed to earlier cuts beside them
  (:meth:`~repro.core.tvr.TimeVaryingRelation.event_segments`).
* **Born encoded.**  A late joiner's catch-up history sits behind its
  cursor and is never delivered, so it never becomes objects: while
  the catch-up replays, each output log's tail is an :class:`OpenRun`
  that keeps what arrives as the triple's vectors — an aggregate's
  batch as the kind, row and ptime vectors its fold emitted — and the
  catch-up seals it as one segment at its end.  The joiner's first
  cut writes that segment as it is.
* **Adopt at restore.**  Restoring installs the stored segments as they
  are.  No ``Change`` is built; lengths, last processing times and
  watermark entries are read off the encoded vectors.  A segment read
  back from a log file arrives framed: only its kind bytes — its
  length — are taken off the head of the pickle, so resuming a session
  costs what its operator state and its queries cost, whatever its
  history.
* **Decode on read.**  :meth:`SegmentedLog.slice` is the one place a
  segment turns back into objects, and only when a reader asks for
  positions below the tail (a framed segment unpickles its vectors for
  that read).  The live paths never do — ``publish_pending`` and the
  session's ``persist`` read the tail — so it costs only ``result()`` /
  ``finish()`` of a restored flow, a look back from a client (the
  explanation of a catch-up delta included), or a late joiner
  re-reading a restored source (which unseals *once* and keeps the
  objects — :meth:`SegmentedLog.unseal` — because every later joiner
  reads it again).  A reader that needs only the vectors reads them
  off the segments (:meth:`SegmentedLog.encoded`): an output's latency
  telemetry settles a sealed history, a catch-up's included, that way.

A plain ``list`` of objects is a legal history wherever segments are
(:func:`decode_changes` returns it unchanged, a log adopts it as its
tail), which is all it takes to keep reading blobs written before the
codec existed.
"""

from __future__ import annotations

import pickle
import pickletools
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from typing import Callable, Iterator, Optional, Sequence

from .changelog import Change, ChangeKind
from .colbatch import ColumnarBatch
from .errors import ExecutionError
from .times import Timestamp
from .tvr import RowEvent, StreamEvent, WatermarkEvent

__all__ = [
    "Segment",
    "SegmentedLog",
    "Triple",
    "changes_log",
    "concat_segments",
    "decode_changes",
    "decode_events",
    "decode_slices",
    "encode_changes",
    "encode_events",
    "encode_slices",
    "events_log",
    "segment_watermarks",
]

#: one encoded run of a history as plain data:
#: ``(kinds, values | payloads, ptimes)``
Triple = tuple[bytes, list, list]

_RETRACT = ChangeKind.RETRACT
#: kind byte -> ChangeKind member (identity-preserving on decode)
_KIND_OF = (ChangeKind.INSERT, ChangeKind.RETRACT).__getitem__
#: the event-kind byte of a watermark advance (rows use the change's)
_WATERMARK = 2


def encode_changes(changes) -> tuple[bytes, list, list]:
    """``(kinds, values, ptimes)`` for a changelog slice: a list of
    changes, or a :class:`~repro.core.colbatch.ColumnarBatch`, whose
    vectors are read as they are, no ``Change`` built (its rows may
    come as an iterator, its ptimes as its own vector)."""
    if type(changes) is ColumnarBatch:
        return (
            bytes([kind is _RETRACT for kind in changes.kinds]),
            changes.row_values(),
            changes.ptimes,
        )
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


def _kinds_of(body: bytes) -> bytes:
    """The kind bytes at the head of a frame, read without unpickling
    the vectors behind them."""
    for opcode, arg, _ in pickletools.genops(body):
        if type(arg) is bytes:
            return arg
        if opcode.name not in ("PROTO", "FRAME"):
            break
    return pickle.loads(body)[0]  # not a pickle of ours: no shortcut


class Segment:
    """One sealed run of a history: its kind bytes, plus its *frame* —
    ``pickle.dumps`` of the triple, what a log file holds — and/or its
    vectors (the triple itself).

    Built from the triple when a log seals (``Segment(triple)``) or
    from the frame when a log file is read back (``Segment(body=...)``:
    only the kind bytes — the segment's length, all that adopting a
    history needs — are taken off the head of the pickle).
    :meth:`frame` pickles at most once in the segment's life, and from
    then on the segment keeps the bytes, not the vectors.  Stands in
    for the triple wherever one is read (indexing, unpacking); a framed
    segment unpickles its vectors for that read only.
    """

    __slots__ = ("kinds", "body", "_triple")

    def __init__(
        self, triple: Optional[Triple] = None, body: Optional[bytes] = None
    ):
        self.body = body
        self._triple = triple
        self.kinds: bytes = _kinds_of(body) if triple is None else triple[0]

    def frame(self) -> bytes:
        """The segment's log frame, pickled on first use only."""
        if self.body is None:
            self.body = pickle.dumps(tuple(self._triple), pickle.HIGHEST_PROTOCOL)
            self._triple = None
        return self.body

    def _load(self) -> Triple:
        triple = self._triple
        return pickle.loads(self.body) if triple is None else triple

    def __getitem__(self, index: int):
        return self.kinds if index == 0 else self._load()[index]

    def __iter__(self):
        return iter(self._load())


def concat_segments(segments: Sequence[Segment | Triple]) -> Triple:
    """One plain triple holding what ``segments`` hold, in order: joins
    and list concatenation, no object rebuilt (a framed segment is
    unpickled once)."""
    triples = [tuple(segment) for segment in segments]
    if len(triples) == 1:
        return triples[0]
    return (
        b"".join(triple[0] for triple in triples),
        list(chain.from_iterable(triple[1] for triple in triples)),
        list(chain.from_iterable(triple[2] for triple in triples)),
    )


def segment_watermarks(
    segment: Segment | Triple,
) -> Iterator[tuple[Timestamp, Timestamp]]:
    """The ``(ptime, value)`` of every watermark advance in an event
    segment, found on the kind bytes without building an event."""
    kinds, payloads, ptimes = segment
    at = kinds.find(_WATERMARK)
    while at >= 0:
        yield ptimes[at], payloads[at]
        at = kinds.find(_WATERMARK, at + 1)


class OpenRun:
    """A changelog's tail while its history is born encoded
    (:meth:`SegmentedLog.open_run`): what is appended — a change list
    or a columnar batch — is kept as the at-rest vectors, counted like
    the objects it stands in for, until :meth:`SegmentedLog.seal` makes
    it one segment."""

    __slots__ = ("kinds", "values", "ptimes")

    def __init__(self) -> None:
        self.kinds, self.values, self.ptimes = bytearray(), [], []

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):  # (a reader below the seal decodes)
        return iter(decode_changes((self.kinds, self.values, self.ptimes)))

    def extend(self, changes) -> None:
        kinds, values, ptimes = encode_changes(changes)
        self.kinds += kinds
        self.values += values
        self.ptimes += ptimes


class SegmentedLog:
    """An append-only history: sealed :class:`Segment` runs, then a live
    tail.

    ``sealed[i]`` holds positions ``bounds[i]`` to ``bounds[i + 1]``,
    ``base`` (``== bounds[-1]``) items are sealed in all, and ``tail``
    is a plain list holding the rest as objects.  Writers ``extend`` /
    ``append`` the tail directly and hot readers compute
    ``base + len(tail)`` themselves: the live path pays attribute loads
    and one integer add for the container, never a call into it.

    ``history`` (what a restore adopts) is one segment, a list of
    segments — kept encoded; a plain triple, as a blob or a caller
    hands one over, is wrapped — or a plain list of objects, which
    becomes the tail; the log owns it from then on.
    """

    __slots__ = ("encode", "decode", "sealed", "bounds", "base", "tail")

    def __init__(
        self,
        encode: Callable[[list], Triple],
        decode: Callable[[Triple], list],
        history=None,
    ):
        self.encode = encode
        self.decode = decode
        self.sealed: list[Segment] = []
        self.bounds: list[int] = [0]
        self.base = 0
        self.tail: list = []
        if isinstance(history, (tuple, Segment)):
            history = [history]
        if history and isinstance(history[0], (tuple, Segment)):
            for segment in history:
                self._adopt(segment)
        elif history:
            self.tail = history

    def _adopt(self, segment: Segment | Triple) -> None:
        if segment[0]:  # an empty segment is no boundary
            if type(segment) is not Segment:
                segment = Segment(segment)
            self.sealed.append(segment)
            self.base += len(segment.kinds)
            self.bounds.append(self.base)

    def __len__(self) -> int:
        return self.base + len(self.tail)

    def slice(self, start: int = 0) -> list:
        """The items from position ``start`` on, as objects (a new list).

        At or above ``base`` — the only case on a live path — that is a
        slice of the tail.  Below it, the segments overlapping
        ``[start, base)`` are decoded: the one place in the engine a
        sealed segment turns back into objects.
        """
        base = self.base
        if start >= base:
            return self.tail[start - base:]
        first = bisect_right(self.bounds, start) - 1
        parts = [self.decode(segment) for segment in self.sealed[first:]]
        items = parts[0] if len(parts) == 1 else list(chain.from_iterable(parts))
        del items[:start - self.bounds[first]]
        items += self.tail
        return items

    def seal(self) -> None:
        """Encode the tail into one more segment and drop the objects
        (an open run's vectors are adopted as they are)."""
        tail = self.tail
        if tail:
            self._adopt(
                (bytes(tail.kinds), tail.values, tail.ptimes)
                if isinstance(tail, OpenRun)
                else self.encode(tail)
            )
        self.tail = []

    def open_run(self) -> None:
        """Seal, then keep what is appended encoded (an :class:`OpenRun`)
        until the next seal: for a history nobody reads as objects."""
        self.seal()
        self.tail = OpenRun()

    def encoded(self, start: int = 0) -> Triple:
        """The sealed items from position ``start`` on (none at or above
        ``base``) as one triple of new vectors, read off the segments':
        none is decoded (a framed one is unpickled)."""
        first = bisect_right(self.bounds, start) - 1
        skip = start - self.bounds[first]
        kinds, values, ptimes = concat_segments(self.sealed[first:])
        return kinds[skip:], values[skip:], ptimes[skip:]

    def sealed_from(self, start: int = 0) -> list[Segment]:
        """The sealed segments from boundary ``start`` on.

        Every position a cut happened at is a boundary by construction
        (the cut sealed there), so anything else is a caller's bug and
        raises — there is no decode-and-re-encode fallback.
        """
        at = bisect_left(self.bounds, start)
        if at == len(self.bounds) or self.bounds[at] != start:
            raise ExecutionError(
                f"position {start} is not a segment boundary of this log "
                f"(boundaries: {self.bounds})"
            )
        return self.sealed[at:]

    def segments(self, start: int = 0) -> list[Segment]:
        """Seal, then the segments from boundary ``start`` on: what a
        cut appends to a log that already holds ``start`` items."""
        self.seal()
        return self.sealed_from(start)

    def unseal(self) -> None:
        """Decode every sealed segment into the tail, for good — for a
        history that is re-read from the start again and again."""
        if self.sealed:
            self.tail = self.slice(0)
            self.sealed, self.bounds, self.base = [], [0], 0


def changes_log(history=None) -> SegmentedLog:
    """A changelog's :class:`SegmentedLog` (optionally adopting ``history``)."""
    return SegmentedLog(encode_changes, decode_changes, history)


def events_log(history=None) -> SegmentedLog:
    """A recorded source's :class:`SegmentedLog` of stream events."""
    return SegmentedLog(encode_events, decode_events, history)
