"""Columnar micro-batches: the vectorized payload between operators.

Inside one micro-batch the executor can move data column-wise instead
of as per-row :class:`~repro.core.changelog.Change` objects.  A
:class:`ColumnarBatch` holds one sequence per column plus parallel
``kinds``/``ptimes`` vectors, and optionally a ``seqs`` vector: per row,
the sequence number of the source event it derives from, set where a
shard of the sharded runtime scans its share of a run (see below).  The
payoff on the hot path is twofold:

* kind-preserving operators (Tumble, pipelines without filters) can
  *share* untouched column sequences with their input instead of
  rebuilding one tuple per row, and
* generated expression loops (:mod:`repro.exec.codegen`) read scalars
  straight out of columns, so no intermediate ``Change`` or row tuple
  is ever allocated between fused operators.

Batches are immutable by convention: a batch may be fanned out to
several consumers (shared subplans multicast their output), so an
operator must never mutate the column sequences it receives — derived
batches reference or copy, never write.  Conversion back to rows
(:meth:`to_changes`) happens lazily at the first non-vectorized
boundary and is memoized, so an output channel and a row-at-a-time
consumer downstream of the same batch pay for the conversion once.

A batch may also be built over whole row tuples (``values``: an
aggregate fold's output, whose rows are born whole): its columns are
then transposed on first read, and its row view is built on first
read too — a catch-up that keeps history encoded reads neither
(:func:`~repro.core.codec.encode_changes` takes the vectors as they are).

The row and columnar encodings are two spellings of the same changelog
slice; converting in either direction is byte-identity-preserving by
construction, which is what lets the executor mix vectorized and
row-at-a-time operators freely inside one plan.

**The carry rule for** ``seqs``: wherever an operator derives the
``ptimes`` of its output batch, it derives ``seqs`` the same way — the
input's vector shared when rows map 1:1 (Scan, Tumble, a projection),
gathered by the same indices when rows multiply (Hop), compressed by
the same mask when rows are dropped (a fused filter, the aggregate's
late-row cut) — and ``None`` stays ``None``.  The row encoding has no
place for them, so they survive only along columnar operators
(``Operator.carries_seqs``); the sharded runtime decides from the plan
whether they reach the root (``Dataflow.run_split_reason``) and sets
them where a share is fed (``Dataflow.process_batch(..., seqs)``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .changelog import Change, ChangeKind
from .times import Timestamp

__all__ = ["ColumnarBatch"]

_RETRACT = ChangeKind.RETRACT


class ColumnarBatch:
    """A micro-batch of changes stored column-wise.

    ``columns`` is one sequence per output column (all the same
    length) — or ``None`` for a batch built over ``values``, its row
    tuples; ``kinds`` and ``ptimes`` are the parallel per-row change
    kind and processing-time vectors.  ``seqs`` is ``None`` or the
    parallel vector of source-event sequence numbers (the module
    docstring has the carry rule).
    """

    __slots__ = ("_columns", "kinds", "ptimes", "seqs", "values", "_rows", "_retracts")

    def __init__(
        self,
        columns: Optional[Sequence[Sequence]],
        kinds: Sequence[ChangeKind],
        ptimes: Sequence[Timestamp],
        seqs: Optional[Sequence[int]] = None,
        values: Optional[list[tuple]] = None,
    ):
        self._columns = None if columns is None else tuple(columns)
        self.kinds = kinds
        self.ptimes = ptimes
        self.seqs = seqs
        self.values = values
        self._rows: Optional[list[Change]] = None
        self._retracts: Optional[int] = None

    @property
    def columns(self) -> tuple:
        """One sequence per column (of a batch over row tuples:
        transposed on first read)."""
        if self._columns is None:
            self._columns = tuple(zip(*self.values))
        return self._columns

    # -- construction --------------------------------------------------

    @classmethod
    def from_changes(
        cls, changes: Sequence[Change], width: int
    ) -> "ColumnarBatch":
        """Transpose a run of row changes into columns.

        The original change list is retained as the memoized row view,
        so a batch that crosses back to the row encoding untouched
        hands out the very objects it was built from.
        """
        kinds = [c.kind for c in changes]
        ptimes = [c.ptime for c in changes]
        if changes:
            columns = list(zip(*(c.values for c in changes)))
        else:
            columns = [() for _ in range(width)]
        batch = cls(columns, kinds, ptimes)
        batch._rows = list(changes)
        return batch

    # -- row view ------------------------------------------------------

    def row_values(self):
        """The row tuples, in order (an iterable)."""
        return zip(*self.columns) if self.values is None else self.values

    def to_changes(self) -> list[Change]:
        """The row encoding of this batch (memoized)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(
                map(Change, self.kinds, self.row_values(), self.ptimes)
            )
        return rows

    def __iter__(self):  # (a list extended with a batch takes its row view)
        return iter(self.to_changes())

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def width(self) -> int:
        return len(self.columns)

    def retract_count(self) -> int:
        """Retractions in the batch (memoized; counters use this)."""
        count = self._retracts
        if count is None:
            count = self._retracts = self.kinds.count(_RETRACT)
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarBatch({len(self)} rows x {self.width} cols, "
            f"{self.retract_count()} retracts)"
        )
