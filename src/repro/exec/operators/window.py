"""Windowing TVF operators: Tumble and Hop (Extension 3).

Both are *stateless* relational transforms: they map each input row to
one (Tumble) or ``size/slide`` (Hop) output rows carrying the window's
``wstart``/``wend`` as ordinary event time columns.  This is the
paper's fix for ``GROUP BY HOP(...)``: the row multiplication happens
in a table-valued function, so the grouping above it is a plain
relational GROUP BY.

Session windows (a future-work item in Section 8 that we implement) are
stateful and live in :mod:`.session`.
"""

from __future__ import annotations

from typing import Sequence

from ...core.changelog import Change
from ...core.colbatch import ColumnarBatch
from ...core.errors import ExecutionError
from ...core.schema import Schema
from ...core.times import Duration, align_to_window
from .base import Operator

__all__ = ["TumbleOperator", "HopOperator", "hop_windows"]


class TumbleOperator(Operator):
    """Assigns each row to the fixed window containing its timestamp."""

    supports_columnar = True
    carries_seqs = True

    def __init__(
        self, schema: Schema, timecol: int, size: Duration, offset: Duration = 0
    ):
        super().__init__(schema, arity=1)
        self._timecol = timecol
        self._size = size
        self._offset = offset

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        timecol, size, offset = self._timecol, self._size, self._offset
        make = Change
        out: list[Change] = []
        append = out.append
        for change in changes:
            ts = change.values[timecol]
            if ts is None:
                raise ExecutionError("NULL event timestamp in Tumble input")
            wstart = align_to_window(ts, size, offset)
            append(
                make(
                    change.kind,
                    (wstart, wstart + size) + change.values,
                    change.ptime,
                )
            )
        return out

    def on_cols(self, port: int, batch):
        # The columnar fast path: Tumble is kind-preserving and 1:1,
        # so every input column and the kinds, ptimes and seqs vectors
        # are shared with the input batch untouched — only the two
        # window columns are materialized.
        size, offset = self._size, self._offset
        wstarts: list[int] = []
        append = wstarts.append
        for ts in batch.columns[self._timecol]:
            if ts is None:
                raise ExecutionError("NULL event timestamp in Tumble input")
            # Inline align_to_window: ts - ((ts - offset) % size) is
            # the same grid alignment without the second multiply.
            append(ts - ((ts - offset) % size))
        wends = [ws + size for ws in wstarts]
        return ColumnarBatch(
            (wstarts, wends) + batch.columns,
            batch.kinds,
            batch.ptimes,
            batch.seqs,
        )


def hop_windows(
    ts: int, size: Duration, slide: Duration, offset: Duration = 0
) -> list[tuple[int, int]]:
    """All (wstart, wend) hop windows containing ``ts``.

    Windows start every ``slide`` and are ``size`` wide.  With
    ``slide < size`` windows overlap (each row lands in
    ``ceil(size/slide)``-ish windows); with ``slide > size`` there are
    gaps and a row may fall in no window at all.
    """
    windows: list[tuple[int, int]] = []
    # Earliest window that could contain ts starts at ts - size
    # (exclusive); walk starts aligned to the slide grid.
    first_start = align_to_window(ts - size, slide, offset) + slide
    start = first_start
    while start <= ts:
        end = start + size
        if ts < end:
            windows.append((start, end))
        start += slide
    return windows


class HopOperator(Operator):
    """Assigns each row to every sliding window that contains it."""

    supports_columnar = True
    carries_seqs = True

    def __init__(
        self,
        schema: Schema,
        timecol: int,
        size: Duration,
        slide: Duration,
        offset: Duration = 0,
    ):
        super().__init__(schema, arity=1)
        self._timecol = timecol
        self._size = size
        self._slide = slide
        self._offset = offset

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        size, slide, offset = self._size, self._slide, self._offset
        timecol = self._timecol
        make = Change
        out: list[Change] = []
        append = out.append
        for change in changes:
            ts = change.values[timecol]
            if ts is None:
                raise ExecutionError("NULL event timestamp in Hop input")
            for wstart, wend in hop_windows(ts, size, slide, offset):
                append(
                    make(change.kind, (wstart, wend) + change.values, change.ptime)
                )
        return out

    def on_cols(self, port: int, batch):
        # Hop is 1:N, so columns cannot be shared; materialize the row
        # index list first, then gather every output column from it.
        size, slide, offset = self._size, self._slide, self._offset
        wstarts: list[int] = []
        wends: list[int] = []
        indices: list[int] = []
        tcol = batch.columns[self._timecol]
        for row, ts in enumerate(tcol):
            if ts is None:
                raise ExecutionError("NULL event timestamp in Hop input")
            for wstart, wend in hop_windows(ts, size, slide, offset):
                wstarts.append(wstart)
                wends.append(wend)
                indices.append(row)
        kinds = batch.kinds
        ptimes = batch.ptimes
        seqs = batch.seqs
        out_cols = [wstarts, wends]
        for col in batch.columns:
            out_cols.append([col[i] for i in indices])
        return ColumnarBatch(
            out_cols,
            [kinds[i] for i in indices],
            [ptimes[i] for i in indices],
            None if seqs is None else [seqs[i] for i in indices],
        )
