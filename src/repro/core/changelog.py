"""Changelogs: the stream encoding of a time-varying relation.

Section 3.3.1 of the paper describes changelogs as the element-by-element
differences between successive versions of a relation — a sequence of
INSERT and RETRACT (DELETE) operations, each stamped with the processing
time at which it was applied.  A changelog and the sequence of snapshots
it produces are two encodings of the same time-varying relation; this
module provides both directions of that conversion plus the *upsert*
encoding used by Flink (Appendix B.2.3), which collapses a retraction
followed by an insertion with the same unique key into a single UPSERT
message.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from .errors import ExecutionError
from .relation import Relation
from .schema import Schema
from .times import MIN_TIMESTAMP, Timestamp

__all__ = [
    "ChangeKind",
    "Change",
    "Changelog",
    "UpsertKind",
    "Upsert",
    "compact_intra_instant",
    "diff_bags",
    "to_upserts",
    "upserts_to_changes",
]


class ChangeKind(enum.Enum):
    """Whether a change adds or removes one row occurrence."""

    INSERT = "+"
    RETRACT = "-"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True, init=False)
class Change:
    """One element of a changelog.

    ``ptime`` is the processing time at which the change became part of
    the relation.  ``values`` is the raw row tuple.

    A frozen dataclass — assignment and deletion raise
    :class:`~dataclasses.FrozenInstanceError`; equality, hash, repr and
    the pickled form are the dataclass's — except for ``__init__``,
    which the hot path pays once per change: it stores through the slot
    descriptors instead of an ``object.__setattr__`` lookup per field.
    """

    kind: ChangeKind
    values: tuple[Any, ...]
    ptime: Timestamp

    def __init__(self, kind: ChangeKind, values: tuple[Any, ...], ptime: Timestamp):
        _set_kind(self, kind)
        _set_values(self, values)
        _set_ptime(self, ptime)

    @property
    def is_insert(self) -> bool:
        return self.kind is ChangeKind.INSERT

    @property
    def is_retract(self) -> bool:
        return self.kind is ChangeKind.RETRACT

    @property
    def delta(self) -> int:
        """Multiplicity delta: +1 for insert, -1 for retract."""
        return 1 if self.kind is ChangeKind.INSERT else -1

    def inverted(self) -> "Change":
        """The change that undoes this one, at the same instant."""
        kind = ChangeKind.RETRACT if self.is_insert else ChangeKind.INSERT
        return Change(kind, self.values, self.ptime)

    def at(self, ptime: Timestamp) -> "Change":
        """This change re-stamped at a different processing time."""
        return Change(self.kind, self.values, ptime)

    def __str__(self) -> str:
        return f"{self.kind}{self.values}@{self.ptime}"


_set_kind = Change.kind.__set__
_set_values = Change.values.__set__
_set_ptime = Change.ptime.__set__


class Changelog:
    """An append-only, processing-time-ordered sequence of changes."""

    __slots__ = ("_changes", "_last_ptime")

    def __init__(self, changes: Iterable[Change] = ()):
        self._changes: list[Change] = []
        self._last_ptime: Timestamp = MIN_TIMESTAMP
        for change in changes:
            self.append(change)

    def append(self, change: Change) -> None:
        """Append a change; processing time must not go backwards."""
        if change.ptime < self._last_ptime:
            raise ExecutionError(
                f"changelog ptime went backwards: {change.ptime} after "
                f"{self._last_ptime}"
            )
        self._changes.append(change)
        self._last_ptime = change.ptime

    def extend(self, changes: Iterable[Change]) -> None:
        for change in changes:
            self.append(change)

    def __len__(self) -> int:
        return len(self._changes)

    def __iter__(self) -> Iterator[Change]:
        return iter(self._changes)

    def __getitem__(self, i: int) -> Change:
        return self._changes[i]

    @property
    def last_ptime(self) -> Timestamp:
        """Processing time of the most recent change."""
        return self._last_ptime

    def bag_at(self, ptime: Timestamp) -> Counter:
        """The relation contents as of ``ptime`` (inclusive), as a bag."""
        bag: Counter = Counter()
        for change in self._changes:
            if change.ptime > ptime:
                break
            bag[change.values] += change.delta
            if bag[change.values] == 0:
                del bag[change.values]
        if any(count < 0 for count in bag.values()):
            raise ExecutionError("changelog retracted a row that was never inserted")
        return bag

    def snapshot_at(self, schema: Schema, ptime: Timestamp) -> Relation:
        """Materialize the table view of this changelog at ``ptime``."""
        rows: list[tuple[Any, ...]] = []
        for values, count in self.bag_at(ptime).items():
            rows.extend([values] * count)
        return Relation(schema, rows)

    def changes_between(
        self, after: Timestamp, until: Timestamp
    ) -> list[Change]:
        """Changes with ``after < ptime <= until``, in order."""
        return [c for c in self._changes if after < c.ptime <= until]


def diff_bags(
    before: Counter, after: Counter, ptime: Timestamp
) -> list[Change]:
    """The minimal changelog fragment turning ``before`` into ``after``.

    Retractions are emitted before insertions so that a consumer
    applying the fragment never holds both the old and new version of an
    updated row at once.
    """
    changes: list[Change] = []
    for values in set(before) | set(after):
        delta = after.get(values, 0) - before.get(values, 0)
        if delta < 0:
            changes.extend(
                Change(ChangeKind.RETRACT, values, ptime) for _ in range(-delta)
            )
    for values in set(after):
        delta = after.get(values, 0) - before.get(values, 0)
        if delta > 0:
            changes.extend(
                Change(ChangeKind.INSERT, values, ptime) for _ in range(delta)
            )
    return changes


def compact_intra_instant(
    changes: Sequence[Change],
) -> tuple[list[Change], int]:
    """Drop insert/retract pairs that cancel within one instant.

    A changelog that inserts and retracts the same row at the same
    processing time describes a row the TVR never contained at any
    observable instant (Section 3.3.1: snapshots are taken *between*
    instants, not inside them), so both halves of such a pair can be
    dropped without changing any per-instant snapshot.  The cancellation
    is bracket-style — a change cancels against the *most recent*
    surviving opposite-kind change with the same ``(values, ptime)`` —
    so survivors keep their original order and every prefix of the
    compacted sequence applies the same net deltas as the corresponding
    uncompacted prefix restricted to survivors, which keeps downstream
    bag arithmetic non-negative.

    Returns ``(survivors, dropped)`` where ``dropped`` counts removed
    changes (always even).  Compaction changes the changelog row count,
    which is why it is opt-in (``coalesce_updates``) and verified by
    snapshot equivalence rather than changelog equality.
    """
    if len(changes) < 2:
        return list(changes), 0
    kept: list[Change | None] = list(changes)
    # Per (values, ptime): indices of surviving changes, all of one
    # kind — opposite kinds cannot coexist, they would have cancelled.
    stacks: dict[tuple, list[int]] = {}
    kinds: dict[tuple, ChangeKind] = {}
    dropped = 0
    for i, change in enumerate(changes):
        key = (change.values, change.ptime)
        stack = stacks.get(key)
        if not stack:
            stacks[key] = [i]
            kinds[key] = change.kind
        elif kinds[key] is change.kind:
            stack.append(i)
        else:
            kept[stack.pop()] = None
            kept[i] = None
            dropped += 2
    if not dropped:
        return list(changes), 0
    return [c for c in kept if c is not None], dropped


class UpsertKind(enum.Enum):
    """Message kinds of the upsert encoding."""

    UPSERT = "U"
    DELETE = "D"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Upsert:
    """One message of an upsert-encoded changelog.

    ``key`` is the unique-key tuple the encoding is defined over.  For
    UPSERT messages ``values`` is the full new row; for DELETE messages
    it is the last row that carried the key.
    """

    kind: UpsertKind
    key: tuple[Any, ...]
    values: tuple[Any, ...]
    ptime: Timestamp


def to_upserts(
    changes: Iterable[Change], key_indices: Sequence[int]
) -> list[Upsert]:
    """Re-encode a retraction changelog as an upsert stream.

    Requires that ``key_indices`` identify a unique key: at any instant
    at most one live row may carry a given key.  An UPDATE — encoded in
    the retraction stream as RETRACT(old) then INSERT(new) with the same
    key — becomes a single UPSERT(new), which is the space saving Flink's
    upsert streams exploit (Appendix B.2.3).
    """
    key_of = lambda values: tuple(values[i] for i in key_indices)  # noqa: E731
    out: list[Upsert] = []
    pending_retract: dict[tuple[Any, ...], Change] = {}

    def flush_pending() -> None:
        for key, change in pending_retract.items():
            out.append(Upsert(UpsertKind.DELETE, key, change.values, change.ptime))
        pending_retract.clear()

    last_ptime: Timestamp | None = None
    for change in changes:
        if last_ptime is not None and change.ptime != last_ptime:
            # Retractions can only fuse with an insert at the same instant.
            flush_pending()
        last_ptime = change.ptime
        key = key_of(change.values)
        if change.is_retract:
            if key in pending_retract:
                raise ExecutionError(
                    f"duplicate live rows for upsert key {key!r}"
                )
            pending_retract[key] = change
        else:
            pending_retract.pop(key, None)
            out.append(Upsert(UpsertKind.UPSERT, key, change.values, change.ptime))
    flush_pending()
    return out


def upserts_to_changes(
    upserts: Iterable[Upsert],
) -> list[Change]:
    """Decode an upsert stream back into a retraction changelog."""
    live: dict[tuple[Any, ...], tuple[Any, ...]] = {}
    out: list[Change] = []
    for msg in upserts:
        old = live.get(msg.key)
        if msg.kind is UpsertKind.DELETE:
            if old is None:
                raise ExecutionError(f"DELETE for unknown upsert key {msg.key!r}")
            out.append(Change(ChangeKind.RETRACT, old, msg.ptime))
            del live[msg.key]
        else:
            if old is not None:
                out.append(Change(ChangeKind.RETRACT, old, msg.ptime))
            out.append(Change(ChangeKind.INSERT, msg.values, msg.ptime))
            live[msg.key] = msg.values
    return out
