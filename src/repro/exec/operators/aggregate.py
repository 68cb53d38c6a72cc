"""Incremental grouped aggregation with retraction support.

The operator maintains per-group accumulators and, on every input
change, re-derives the group's output row.  If the row changed, it
emits a retraction of the previous version followed by an insertion of
the new one — the instantaneous-view changelog that EMIT STREAM renders
(Listing 9).  If the row is unchanged (e.g. a new bid that does not
beat the current MAX), nothing is emitted.

Event-time semantics (Extensions 1 & 2):

* inputs whose event-time grouping key is already covered by the input
  watermark belong to a **complete** group and are dropped as late
  data;
* when the watermark passes a group's event-time key, the group's
  accumulators are **freed** — this is the "state for an ongoing
  aggregation can be freed" lesson of Section 5, and what keeps state
  bounded on unbounded inputs (see ``bench_state_size``).  Completed
  groups are found through an index by completion bound, so an advance
  costs the groups created since the last one plus the groups it
  frees, not the groups held.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress, groupby, islice
from operator import itemgetter
from typing import Any, Iterable, Optional, Sequence

from ...core.changelog import Change, ChangeKind
from ...core.colbatch import ColumnarBatch
from ...core.containers import SortedMultiset
from ...core.errors import ExecutionError
from ...core.schema import Schema
from ...core.times import MIN_TIMESTAMP, Timestamp
from ...plan.logical import AggCall
from ...plan.physical import PARTIALS
from ..codegen import fold_kernel
from .base import Operator

__all__ = [
    "AggregateOperator",
    "CombineAggregateOperator",
    "PartialAggregateOperator",
    "SUPPRESSED",
]


class _Suppressed:
    """Placeholder for a DISTINCT duplicate the partial stage absorbed.

    A singleton with a pickle-stable identity so payloads survive the
    processes backend: ``__reduce__`` reconstructs *the* instance, and
    combine-side checks stay plain ``is`` comparisons.
    """

    _instance: Optional["_Suppressed"] = None

    def __new__(cls) -> "_Suppressed":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (_Suppressed, ())

    def __repr__(self) -> str:
        return "<suppressed>"


SUPPRESSED = _Suppressed()


@dataclass(slots=True)
class _GroupState:
    accumulators: list[Any]
    distinct_counts: list[Optional[dict[Any, int]]]
    row_count: int = 0
    emitted: Optional[tuple[Any, ...]] = None


def _adopted(items: list) -> SortedMultiset:
    """A multiset over ``items`` (sorted, and the caller's to give):
    wrapped, not copied."""
    multiset = SortedMultiset.__new__(SortedMultiset)
    multiset._items = items
    return multiset


def _underflow(key: tuple) -> ExecutionError:
    return ExecutionError(f"retraction for empty group {key!r} in aggregation")


def _rows(arg_cols: Sequence[Sequence], keys: Sequence) -> Iterable[tuple]:
    """Per-aggregate argument vectors, transposed to one tuple per row."""
    return zip(*arg_cols) if arg_cols else [()] * len(keys)


def _selector(select: Optional[Sequence[int]], width: int):
    """The row -> emitted row function of an absorbed output selection,
    or ``None`` when every row is emitted whole."""
    if select is None or tuple(select) == tuple(range(width)):
        return None
    if len(select) == 1:
        (sole,) = select
        return lambda row: (row[sole],)
    return itemgetter(*select)


class AggregateOperator(Operator):
    """Keyed incremental aggregation over a changelog.

    The group transition is written once — generated per aggregate
    shape from the functions' source templates
    (:func:`repro.exec.codegen.fold_kernel`) — and entered two ways.
    :meth:`on_batch` hands its ``Change`` list to the row entry, whose
    loop header reads each row's key and arguments and applies the
    lateness cutoff inline.  :meth:`on_cols` reduces a columnar batch
    to parallel sequences of group keys, change kinds, processing times
    and one argument vector per aggregate, drops late rows, and hands
    them to the vector entry, which returns a batch over the row tuples
    it emits; the two-phase combine stage feeds the vector entry from
    its replay payloads and reads the batch's row view.

    ``select`` is the output selection of a Project the fusion pass
    absorbed (:mod:`repro.plan.pipeline`): the columns of the group's
    full ``key + results`` row that are emitted.  Group state keeps the
    full row — a change in a column that is not emitted still moves the
    row — and only the emitted ``Change`` is built from the selection.
    """

    supports_columnar = True

    def __init__(
        self,
        schema: Schema,
        group_indices: Sequence[int],
        aggs: Sequence[AggCall],
        event_time_key_positions: Sequence[int],
        input_bounded: bool,
        allowed_lateness: int = 0,
        select: Optional[Sequence[int]] = None,
    ):
        super().__init__(schema, arity=1)
        self._group_indices = tuple(group_indices)
        self._aggs = tuple(aggs)
        self._select = _selector(
            select, len(self._group_indices) + len(self._aggs)
        )
        self._et_positions = tuple(event_time_key_positions)
        self._allowed_lateness = allowed_lateness
        self._groups: dict[tuple, _GroupState] = {}
        # A group completes once the watermark covers all of its
        # event-time keys (for a window keyed by (wstart, wend): wend),
        # so its completion bound is their max.
        positions = self._et_positions
        et_of = itemgetter(*positions) if positions else None
        self._bound_of = et_of if len(positions) < 2 else lambda key: max(et_of(key))
        # The expiry index: bound -> keys of the groups created at it,
        # and a heap of its bounds.  It is never cut: a restore empties
        # it, and the next advance indexes the whole restored table.
        self._expiry: dict = {}
        self._expiry_bounds: list = []
        self._indexed = 0  # ``_groups_created`` when the index was filled
        self._finalized_max: Timestamp = MIN_TIMESTAMP
        self._global = not self._group_indices
        # Monotonic, unlike the ``groups`` gauge (which drops back as
        # the watermark frees state): the expiry index reads it to find
        # the groups created since it was last filled.
        self._groups_created = 0
        # Running sum of ``state.row_count`` over all groups, so
        # ``state_size()`` — read after every event by the metrics
        # sweep — is O(1) instead of a walk over every group.
        self._retained = 0
        self._arg_indices = tuple(agg.arg_index for agg in self._aggs)
        # For the group table: which accumulators a cut writes as their
        # sorted item lists, and which aggregates keep DISTINCT counts.
        self._multisets = tuple(
            type(agg.function.create()) is SortedMultiset for agg in self._aggs
        )
        self._distinct = tuple(
            i for i, agg in enumerate(self._aggs) if agg.distinct
        )
        # The group transition: generated per shape, shared by every
        # operator of that shape, handed this operator on each call —
        # a vector entry, and a row entry that also knows the layout.
        selects = self._select is not None
        self._fold = fold_kernel(self._aggs, self._global, selects)
        self._fold_rows = fold_kernel(self._aggs, self._global, selects, (
            self._group_indices, self._arg_indices, self._et_positions
        ))

    # -- lifecycle ------------------------------------------------------------

    def on_open(self) -> list[Change]:
        if not self._global or () in self._groups:
            return []
        # A global aggregate over an empty input still has one row
        # (COUNT(*) = 0, SUM = NULL, ...), like any SQL engine.
        state = self._groups[()] = self._new_group()
        out: list[Change] = []
        self._settle((), state, MIN_TIMESTAMP, out.append)
        return out

    def _new_group(self) -> _GroupState:
        accumulators = [agg.function.create() for agg in self._aggs]
        distinct = [dict() if agg.distinct else None for agg in self._aggs]
        self._groups_created += 1
        return _GroupState(accumulators, distinct)

    # -- data path: the two entries ------------------------------------------------

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        return self._fold_rows(self, changes)

    def _extract_cols(self, batch) -> tuple:
        # ``(keys, kinds, ptimes, arg_cols)``: one argument vector per
        # aggregate, all ``None`` for an argument-less one.
        # No row tuple or Change is materialized per input; the vector
        # entry's output is a batch over whole row tuples.
        columns = batch.columns
        n = len(batch.kinds)
        key_cols = [columns[i] for i in self._group_indices]
        # A burst usually lands in one window, making the whole batch
        # one group; ``count`` detects that at C speed, and one shared
        # key object lets the fold keep its group across rows.
        if n and all(col.count(col[0]) == n for col in key_cols):
            keys = [tuple(col[0] for col in key_cols)] * n
        else:
            keys = list(zip(*key_cols))
        nones = [None] * n
        arg_cols = [nones if i is None else columns[i] for i in self._arg_indices]
        return keys, batch.kinds, batch.ptimes, arg_cols

    def on_cols(self, port: int, batch) -> ColumnarBatch:
        return self._fold(self, *self._drop_late(*self._extract_cols(batch)))

    # -- event time ------------------------------------------------------------------

    def _drop_late(self, keys, kinds, ptimes, arg_cols) -> tuple:
        """The extracted vectors without the rows of complete groups.

        A group is complete once its completion bound is at or below
        the input watermark less the allowed lateness (with lateness, a
        group survives the watermark by that margin so late firings can
        still update it: the "late" pane of the early/on-time/late
        pattern).  Inputs whose group is complete are late data:
        counted and dropped, once per batch — the input watermark cannot
        move inside a batch, because watermark events break batches.
        This is the columnar and the partial stage's cutoff; a row batch
        meets the same test inline, in the fold's generated row entry.
        """
        if self._et_positions:
            cutoff = self.input_watermark - self._allowed_lateness
            on_time = [bound > cutoff for bound in map(self._bound_of, keys)]
            if False in on_time:
                self.late_dropped += on_time.count(False)
                keys, kinds, ptimes, *arg_cols = (
                    list(compress(vector, on_time))
                    for vector in (keys, kinds, ptimes, *arg_cols)
                )
        return keys, kinds, ptimes, arg_cols

    def _on_watermark_advanced(self, merged: Timestamp, ptime: Timestamp) -> list[Change]:
        # Free the state of groups that just became complete.  Their
        # output rows are already current; late inputs will be dropped
        # (by the row entry's cutoff, or by _drop_late), so the
        # accumulators are never needed again.
        if not self._et_positions or merged <= self._finalized_max:
            return []
        self._finalized_max = merged
        groups, expiry, bounds = self._groups, self._expiry, self._expiry_bounds
        # New groups sit at the end of the table, in creation order: the
        # last ``created`` entries hold every one still alive (and
        # perhaps older keys, indexed again: harmless).
        fresh = islice(reversed(groups), self._groups_created - self._indexed)
        self._indexed = self._groups_created
        for bound, keys in groupby(fresh, self._bound_of):
            if bound not in expiry:
                heappush(bounds, bound)
            expiry.setdefault(bound, []).extend(keys)
        # A key whose group was emptied (and perhaps created again, at
        # the same bound) is freed once; the other entries find nothing.
        cutoff = merged - self._allowed_lateness
        while bounds and bounds[0] <= cutoff:
            for key in expiry.pop(heappop(bounds)):
                state = groups.pop(key, None)
                if state is not None:
                    self._retained -= state.row_count
        return []

    # -- data path: the transition ---------------------------------------------------

    def _settle(self, key: tuple, state: _GroupState, ptime: Timestamp, append) -> None:
        """The group tail for callers outside the fold (the open row,
        combine-stage deltas): drop an emptied group, otherwise re-derive
        its output row and emit retract/insert if it moved."""
        emitted = state.emitted
        select = self._select or (lambda row: row)
        emptied = state.row_count == 0 and not self._global
        row = None if emptied else key + tuple(
            [agg.function.result(acc) for agg, acc in zip(self._aggs, state.accumulators)]
        )
        if row != emitted and emitted is not None:
            append(Change(ChangeKind.RETRACT, select(emitted), ptime))
        if emptied:
            del self._groups[key]
        elif row != emitted:
            append(Change(ChangeKind.INSERT, select(row), ptime))
            state.emitted = row

    # -- introspection ----------------------------------------------------------------

    def state_snapshot(self) -> dict:
        """The base snapshot plus the groups as one table of parallel
        columns (checkpoint format 4), in group order: keys, row
        counts, each group's emitted results (``None`` for a group
        that never emitted; the row is ``key + results``), one column
        of accumulator states per aggregate — a MIN/MAX multiset as
        its sorted item list — and one column of DISTINCT counts per
        DISTINCT aggregate.  A cut pickles a few vectors, not a group
        object (and a multiset) per group."""
        snapshot = super().state_snapshot()
        states = list(self._groups.values())
        width = len(self._group_indices)
        snapshot["groups"] = (
            list(self._groups),
            [state.row_count for state in states],
            [
                None if state.emitted is None else state.emitted[width:]
                for state in states
            ],
            [
                [state.accumulators[i]._items for state in states]
                if multiset
                else [state.accumulators[i] for state in states]
                for i, multiset in enumerate(self._multisets)
            ],
            [[state.distinct_counts[i] for state in states] for i in self._distinct],
        )
        snapshot["finalized_max"] = self._finalized_max
        snapshot["groups_created"] = self._groups_created
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        groups = self._groups = self._adopt_table(*snapshot["groups"])
        self._expiry, self._expiry_bounds, self._indexed = {}, [], 0
        self._finalized_max = snapshot["finalized_max"]
        self._groups_created = snapshot["groups_created"]
        self._retained = sum(state.row_count for state in groups.values())

    def _adopt_table(self, keys, row_counts, results, accumulators, distinct):
        """The dict of groups :meth:`state_snapshot`'s table describes,
        built around the table's own lists (multisets wrap their item
        lists; nothing is copied)."""
        none = [None] * len(keys)
        columns = [
            [_adopted(items) for items in column] if multiset else column
            for column, multiset in zip(accumulators, self._multisets)
        ]
        counts = [none] * len(self._aggs)
        for i, column in zip(self._distinct, distinct):
            counts[i] = column
        return {
            key: _GroupState(list(accs), list(dedup), row_count,
                             None if tail is None else key + tail)
            for key, accs, dedup, row_count, tail in zip(
                keys, _rows(columns, keys), _rows(counts, keys), row_counts,
                results,
            )
        }

    def state_size(self) -> int:
        return self._retained

    def _extra_metrics(self) -> dict:
        return {
            "groups": len(self._groups),
            "groups_created": self._groups_created,
        }

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def name(self) -> str:
        return f"Aggregate({len(self._aggs)} aggs, {len(self._groups)} groups)"


class PartialAggregateOperator(AggregateOperator):
    """Shard-local half of a two-phase aggregation.

    Instead of maintaining accumulators and emitting a retract/insert
    pair per input row, this operator condenses each micro-batch into
    **one** payload change shipped across the merge:

    * **replay mode** (``delta_mode=False``, the byte-identity path):
      the payload carries the batch's effective rows in order as
      ``(sign, key, values)`` entries; the combine operator replays
      them through the exact single-phase transitions.  A columnar
      batch that carries sequence numbers (a shard's share of a run,
      gaps and all) ships them beside the entries —
      ``("P2R", n, entries, seqs)`` — so the merge can put the run's
      entries back in global order before the combine sees them.
    * **delta mode** (``delta_mode=True``, paired with
      ``coalesce_updates``): the batch is folded into one delta per
      touched group via the :class:`AggregateFunction` delta protocol,
      so merge traffic is O(groups touched), not O(rows).

    The late-data check runs *here*, against the shard's input
    watermark — watermarks are broadcast, so the cutoff at each row's
    global sequence position is exactly the serial operator's.  The
    only persistent state is DISTINCT dedup counts (rows of one group
    always hash to one shard, so shard-local counts are global for
    that group); without DISTINCT the operator is stateless and the
    empty-group retraction guard falls to the combine stage.
    """

    # Both encodings condense into the same payload (``_condense``): a
    # row batch is transposed into columns and takes the columnar path.
    supports_columnar = True

    @property
    def ships_seqs(self) -> bool:
        """Replay payloads are per row; a delta payload is per group and
        has no row order left to restore."""
        return not self.delta_mode

    def __init__(self, *args, delta_mode: bool = False, **kwargs):
        # (the aggregate's arguments; an absorbed selection never
        # reaches a partial stage)
        super().__init__(*args, **kwargs)
        if not self._group_indices:
            raise ExecutionError(
                "partial aggregation requires group keys; global "
                "aggregates are not split"
            )
        self.delta_mode = delta_mode

    # -- lifecycle ------------------------------------------------------------

    def on_open(self) -> list[Change]:
        # Never global (checked above): no seed row.  The combine
        # stage owns any output-side initialization.
        return []

    # -- data path ---------------------------------------------------------------

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        # (An empty run transposes to an empty batch, whatever its width.)
        return self.on_cols(port, ColumnarBatch.from_changes(changes, 0))

    def on_cols(self, port: int, batch) -> list[Change]:
        if not len(batch):
            return []
        return self._condense(*self._extract_cols(batch), batch.seqs)

    def _condense(self, keys, kinds, ptimes, arg_cols, seqs=None) -> list[Change]:
        """One payload change for a non-empty extracted batch."""
        # One batch sits at one processing instant, so the payload is
        # stamped with the first ptime — of the batch as it came in.
        ptime = ptimes[0]
        # The serial operator's lateness cutoff, at the shard's input
        # watermark; sequence numbers ride through it as one more
        # per-row vector.
        if seqs is not None:
            arg_cols = [*arg_cols, seqs]
        keys, kinds, _, arg_cols = self._drop_late(keys, kinds, ptimes, arg_cols)
        if not keys:
            return []
        if seqs is not None:
            seqs = arg_cols.pop()
        insert = ChangeKind.INSERT
        signs = [1 if kind is insert else -1 for kind in kinds]
        if self.delta_mode:
            payload = ("P2D", len(keys), self._deltas(keys, signs, arg_cols))
        else:
            if self._distinct:
                arg_cols = self._dedup(keys, signs, arg_cols)
            # Forward each effective row's sign, key, and aggregate
            # arguments verbatim.
            payload = (
                "P2R", len(keys), tuple(zip(signs, keys, _rows(arg_cols, keys)))
            )
            if seqs is not None:
                payload += (tuple(seqs),)
        return [Change(insert, payload, ptime)]

    def _dedup(self, keys, signs, arg_cols) -> list[list]:
        """The argument vectors with DISTINCT duplicates suppressed.

        DISTINCT dedup happens shard-side so the combine stage never
        sees a duplicate: forwarded values mark the local 0->1 / 1->0
        transitions, everything else ships as SUPPRESSED.  Group state
        exists purely to host the counts; it mirrors the serial
        operator's row_count and empty-retraction guard so errors
        surface identically.
        """
        groups = self._groups
        distinct = self._distinct
        cols = list(arg_cols)
        for i in distinct:
            cols[i] = list(cols[i])  # extractor-owned vectors stay intact
        for idx, (key, sign) in enumerate(zip(keys, signs)):
            state = groups.get(key)
            if state is None:
                state = groups[key] = self._new_group()
            if sign < 0 and state.row_count <= 0:
                raise _underflow(key)
            state.row_count += sign
            self._retained += sign
            for i in distinct:
                counts = state.distinct_counts[i]
                value = cols[i][idx]
                seen = counts.get(value, 0)
                if sign > 0:
                    counts[value] = seen + 1
                    if seen:
                        cols[i][idx] = SUPPRESSED
                elif seen > 1:
                    counts[value] = seen - 1
                    cols[i][idx] = SUPPRESSED
                else:
                    counts.pop(value, None)
            if state.row_count == 0:
                # Death resets the dedup counts, exactly when the
                # serial operator would drop the group.
                del groups[key]
        return cols

    def _deltas(self, keys, signs, arg_cols) -> tuple:
        """One ``(key, row_count delta, frozen per-aggregate deltas)``
        entry per touched group, in first-touch order so the combine
        emits groups in a deterministic order per payload."""
        specs = [
            (
                agg.distinct,
                None if agg.distinct else agg.function.delta_add,
                None if agg.distinct else agg.function.delta_retract,
            )
            for agg in self._aggs
        ]
        builders: dict[tuple, list] = {}
        for key, sign, vals in zip(keys, signs, _rows(arg_cols, keys)):
            builder = builders.get(key)
            if builder is None:
                builder = builders[key] = [
                    0,
                    [
                        ([], []) if agg.distinct else agg.function.delta_create()
                        for agg in self._aggs
                    ],
                ]
            builder[0] += sign
            adding = sign > 0
            for delta, value, (distinct, add, retract) in zip(
                builder[1], vals, specs
            ):
                if distinct:
                    # DISTINCT deltas are always raw value lists; the
                    # combine's global dedup counts decide what
                    # reaches the accumulator.
                    delta[0 if adding else 1].append(value)
                elif adding:
                    add(delta, value)
                else:
                    retract(delta, value)
        return tuple(
            (
                key,
                builder[0],
                tuple(
                    (tuple(delta[0]), tuple(delta[1]))
                    if agg.distinct
                    else agg.function.delta_freeze(delta)
                    for agg, delta in zip(self._aggs, builder[1])
                ),
            )
            for key, builder in builders.items()
        )

    # -- introspection ----------------------------------------------------------------

    def _extra_metrics(self) -> dict:
        extras = super()._extra_metrics()
        extras["partial_mode"] = "delta" if self.delta_mode else "replay"
        return extras

    def name(self) -> str:
        mode = "delta" if self.delta_mode else "replay"
        return f"PartialAggregate({len(self._aggs)} aggs, {mode})"


class CombineAggregateOperator(AggregateOperator):
    """Merge-stage half of a two-phase aggregation.

    Consumes the partial payloads of every shard in global sequence
    order.  Replay payloads go through the inherited single-phase
    transitions entry by entry — group keys arrive pre-extracted, the
    lateness cutoff already happened shard-side, and SUPPRESSED marks
    a DISTINCT duplicate the shard absorbed — so the emitted changelog
    is byte-identical to serial execution.  Delta payloads fold one
    summary per touched group into the global accumulators and emit
    one retract/insert pair per group, the coalesced shape.

    ``rows_in`` counts payloads — that *is* the merge-traffic metric —
    while ``agg_rows_in`` preserves the true row count the payloads
    stood for (EXPLAIN ANALYZE shows both).
    """

    # Payloads are opaque row changes; the columnar fast path must not
    # apply aggregate transitions to them.
    supports_columnar = False
    #: The leaf of a merge plan's flow, fed payloads under this name.
    source_name = PARTIALS

    #: rows the partial payloads stood for (a restore sets it)
    _agg_rows_in = 0

    # -- data path ---------------------------------------------------------------

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        out: list[Change] = []
        for change in changes:
            tag, rows, entries = change.values
            self._agg_rows_in += rows
            if tag == "P2R":
                out += self._replay(entries, change.ptime)
            elif tag == "P2D":
                self._apply_deltas(entries, change.ptime, out)
            else:
                raise ExecutionError(
                    f"unknown partial aggregation payload tag {tag!r}"
                )
        return out

    def _replay(self, entries: tuple, ptime: Timestamp) -> list[Change]:
        # Replay entries are the fold's own input shape, one tuple per
        # row: keys pre-extracted, lateness applied shard-side,
        # SUPPRESSED where a shard absorbed a DISTINCT duplicate (what
        # is forwarded is a 0<->1 transition, which the fold's dedup
        # counts pass straight on to the accumulator).
        if not entries:
            return []
        signs, keys, vals = zip(*entries)
        insert, retract = ChangeKind.INSERT, ChangeKind.RETRACT
        return self._fold(
            self,
            keys,
            [insert if sign > 0 else retract for sign in signs],
            [ptime] * len(keys),
            list(zip(*vals)),
        ).to_changes()

    def _apply_deltas(
        self, entries: tuple, ptime: Timestamp, out: list[Change]
    ) -> None:
        groups = self._groups
        aggs = self._aggs
        append = out.append
        for key, rc_delta, frozen in entries:
            state = groups.get(key)
            if state is None:
                state = groups[key] = self._new_group()
            if state.row_count + rc_delta < 0:
                raise _underflow(key)
            state.row_count += rc_delta
            self._retained += rc_delta
            for i, agg in enumerate(aggs):
                counts = state.distinct_counts[i]
                if counts is not None:
                    adds, removes = frozen[i]
                    for value in adds:
                        seen = counts.get(value, 0)
                        counts[value] = seen + 1
                        if not seen:
                            agg.function.add(state.accumulators[i], value)
                    for value in removes:
                        seen = counts.get(value, 0)
                        if seen > 1:
                            counts[value] = seen - 1
                            continue
                        counts.pop(value, None)
                        agg.function.retract(state.accumulators[i], value)
                else:
                    agg.function.delta_apply(state.accumulators[i], frozen[i])
            self._settle(key, state, ptime, append)

    # -- introspection ----------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["agg_rows_in"] = self._agg_rows_in
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._agg_rows_in = snapshot["agg_rows_in"]

    def _extra_metrics(self) -> dict:
        extras = super()._extra_metrics()
        extras["agg_rows_in"] = self._agg_rows_in
        return extras

    def name(self) -> str:
        return (
            f"CombineAggregate({len(self._aggs)} aggs, "
            f"{len(self._groups)} groups)"
        )
