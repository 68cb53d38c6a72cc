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
  bounded on unbounded inputs (see ``bench_state_size``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Optional, Sequence

from ...core.changelog import Change, ChangeKind
from ...core.errors import ExecutionError
from ...core.schema import Schema
from ...core.times import MIN_TIMESTAMP, Timestamp
from ...plan.logical import AggCall
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


@dataclass
class _GroupState:
    accumulators: list[Any]
    distinct_counts: list[Optional[dict[Any, int]]]
    row_count: int = 0
    emitted: Optional[tuple[Any, ...]] = None
    # Count of retained input row occurrences (for state accounting).
    retained: int = field(default=0)


class AggregateOperator(Operator):
    """Keyed incremental aggregation over a changelog."""

    supports_columnar = True

    def __init__(
        self,
        schema: Schema,
        group_indices: Sequence[int],
        aggs: Sequence[AggCall],
        event_time_key_positions: Sequence[int],
        input_bounded: bool,
        allowed_lateness: int = 0,
    ):
        super().__init__(schema, arity=1)
        self._group_indices = tuple(group_indices)
        self._aggs = tuple(aggs)
        self._et_positions = tuple(event_time_key_positions)
        self._allowed_lateness = allowed_lateness
        self._groups: dict[tuple, _GroupState] = {}
        self._finalized_max: Timestamp = MIN_TIMESTAMP
        self._global = not self._group_indices
        # Monotonic, unlike the ``groups`` gauge (which drops back as
        # the watermark frees state): the cost model's fan-in feedback
        # needs lifetime rows-per-group.
        self._groups_created = 0
        # Running sum of ``state.retained`` over all groups, so
        # ``state_size()`` — read after every event by the metrics
        # sweep — is O(1) instead of a walk over every group.
        self._retained = 0

    # -- lifecycle ------------------------------------------------------------

    def on_open(self) -> list[Change]:
        if not self._global or () in self._groups:
            return []
        # A global aggregate over an empty input still has one row
        # (COUNT(*) = 0, SUM = NULL, ...), like any SQL engine.
        state = self._new_group()
        self._groups[()] = state
        row = self._output_row((), state)
        state.emitted = row
        return [Change(ChangeKind.INSERT, row, MIN_TIMESTAMP)]

    def _new_group(self) -> _GroupState:
        accumulators = [agg.function.create() for agg in self._aggs]
        distinct = [dict() if agg.distinct else None for agg in self._aggs]
        self._groups_created += 1
        return _GroupState(accumulators, distinct)

    # -- data path ---------------------------------------------------------------

    def on_change(self, port: int, change: Change) -> list[Change]:
        values = change.values
        key = tuple(values[i] for i in self._group_indices)

        if self._is_late(key):
            self.late_dropped += 1
            return []

        state = self._groups.get(key)
        if state is None:
            state = self._new_group()
            self._groups[key] = state

        if change.is_insert:
            state.row_count += 1
            state.retained += 1
            self._retained += 1
            self._accumulate(state, values, add=True)
        else:
            if state.row_count <= 0:
                raise ExecutionError(
                    f"retraction for empty group {key!r} in aggregation"
                )
            state.row_count -= 1
            state.retained -= 1
            self._retained -= 1
            self._accumulate(state, values, add=False)

        out: list[Change] = []
        if state.row_count == 0 and not self._global:
            if state.emitted is not None:
                out.append(Change(ChangeKind.RETRACT, state.emitted, change.ptime))
            del self._groups[key]
            return out

        row = self._output_row(key, state)
        if row == state.emitted:
            return []
        if state.emitted is not None:
            out.append(Change(ChangeKind.RETRACT, state.emitted, change.ptime))
        out.append(Change(ChangeKind.INSERT, row, change.ptime))
        state.emitted = row
        return out

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        # Same transitions as on_change, with the per-change lookups
        # hoisted: one group-dict binding, one lateness cutoff (the
        # input watermark cannot move inside a batch, because watermark
        # events break batches), one output list.
        groups = self._groups
        group_indices = self._group_indices
        et_positions = self._et_positions
        lateness = self._allowed_lateness
        is_global = self._global
        wm = self.input_watermark if et_positions else MIN_TIMESTAMP
        retract = ChangeKind.RETRACT
        insert = ChangeKind.INSERT
        out: list[Change] = []
        append = out.append
        aggs = self._aggs
        net = 0  # retained rows gained by this batch
        if len(aggs) == 1 and not aggs[0].distinct:
            # The dominant shape (one non-DISTINCT aggregate, e.g.
            # COUNT(*) per window): inline the single accumulator's
            # add/retract/result instead of looping the agg list per
            # change.  Transitions are identical to the generic loop.
            agg0 = aggs[0]
            arg0 = agg0.arg_index
            add0 = agg0.function.add
            retract0 = agg0.function.retract
            result0 = agg0.function.result
            single_key = group_indices[0] if len(group_indices) == 1 else None
            for change in changes:
                values = change.values
                key = (
                    (values[single_key],)
                    if single_key is not None
                    else tuple(values[i] for i in group_indices)
                )
                if et_positions and all(
                    key[pos] + lateness <= wm for pos in et_positions
                ):
                    self.late_dropped += 1
                    continue
                state = groups.get(key)
                if state is None:
                    state = self._new_group()
                    groups[key] = state
                value = values[arg0] if arg0 is not None else None
                if change.kind is insert:
                    state.row_count += 1
                    state.retained += 1
                    net += 1
                    add0(state.accumulators[0], value)
                else:
                    if state.row_count <= 0:
                        self._retained += net
                        raise ExecutionError(
                            f"retraction for empty group {key!r} in aggregation"
                        )
                    state.row_count -= 1
                    state.retained -= 1
                    net -= 1
                    retract0(state.accumulators[0], value)
                emitted = state.emitted
                if state.row_count == 0 and not is_global:
                    if emitted is not None:
                        append(Change(retract, emitted, change.ptime))
                    del groups[key]
                    continue
                row = key + (result0(state.accumulators[0]),)
                if row == emitted:
                    continue
                if emitted is not None:
                    append(Change(retract, emitted, change.ptime))
                append(Change(insert, row, change.ptime))
                state.emitted = row
            self._retained += net
            return out
        for change in changes:
            values = change.values
            key = tuple(values[i] for i in group_indices)
            if et_positions and all(
                key[pos] + lateness <= wm for pos in et_positions
            ):
                self.late_dropped += 1
                continue
            state = groups.get(key)
            if state is None:
                state = self._new_group()
                groups[key] = state
            if change.kind is insert:
                state.row_count += 1
                state.retained += 1
                net += 1
                self._accumulate(state, values, add=True)
            else:
                if state.row_count <= 0:
                    self._retained += net
                    raise ExecutionError(
                        f"retraction for empty group {key!r} in aggregation"
                    )
                state.row_count -= 1
                state.retained -= 1
                net -= 1
                self._accumulate(state, values, add=False)
            if state.row_count == 0 and not is_global:
                if state.emitted is not None:
                    append(Change(retract, state.emitted, change.ptime))
                del groups[key]
                continue
            row = self._output_row(key, state)
            if row == state.emitted:
                continue
            if state.emitted is not None:
                append(Change(retract, state.emitted, change.ptime))
            append(Change(insert, row, change.ptime))
            state.emitted = row
        self._retained += net
        return out

    def on_cols(self, port: int, batch) -> list[Change]:
        # Columnar entry: the single non-DISTINCT-aggregate fast path
        # reads the key and argument columns directly, so no row tuple
        # or Change is materialized per input.  Output is rows either
        # way — aggregation is where the columnar run ends.
        aggs = self._aggs
        if len(aggs) != 1 or aggs[0].distinct:
            return self.on_batch(port, batch.to_changes())
        groups = self._groups
        group_indices = self._group_indices
        et_positions = self._et_positions
        lateness = self._allowed_lateness
        is_global = self._global
        wm = self.input_watermark if et_positions else MIN_TIMESTAMP
        retract = ChangeKind.RETRACT
        insert = ChangeKind.INSERT
        out: list[Change] = []
        append = out.append
        agg0 = aggs[0]
        arg0 = agg0.arg_index
        add0 = agg0.function.add
        retract0 = agg0.function.retract
        result0 = agg0.function.result
        # COUNT(*) — no argument, unconditional transition — runs with
        # the accumulator cell inlined, three method calls fewer per row.
        count_star = arg0 is None and agg0.function.name == "COUNT"
        columns = batch.columns
        kinds = batch.kinds
        ptimes = batch.ptimes
        arg_col = columns[arg0] if arg0 is not None else None
        # One- and two-column group keys (every windowed GROUP BY is at
        # least (wend, wstart)) build their key tuples and run their
        # lateness checks with direct column indexing; wider keys take
        # the general generator path.
        key_col = kc0 = kc1 = key_cols = None
        if len(group_indices) == 1:
            key_col = columns[group_indices[0]]
        elif len(group_indices) == 2:
            kc0, kc1 = columns[group_indices[0]], columns[group_indices[1]]
        else:
            key_cols = [columns[i] for i in group_indices]
        n_et = len(et_positions)
        et_a = columns[group_indices[et_positions[0]]] if n_et >= 1 else None
        et_b = columns[group_indices[et_positions[1]]] if n_et >= 2 else None
        late_bound = wm - lateness
        net = 0  # retained rows gained by this batch
        # A burst usually lands in one window, making the whole batch
        # one group; ``list.count`` detects that at C speed, and the
        # constant-key loop then does one lateness check, one state
        # lookup, and no key tuple per row.
        n_rows = len(kinds)
        const_key = None
        if key_col is not None:
            v0 = key_col[0]
            if key_col.count(v0) == n_rows:
                const_key = (v0,)
        elif kc0 is not None:
            a0, b0 = kc0[0], kc1[0]
            if kc0.count(a0) == n_rows and kc1.count(b0) == n_rows:
                const_key = (a0, b0)
        if const_key is not None:
            key = const_key
            if n_et and all(key[pos] <= late_bound for pos in et_positions):
                self.late_dropped += n_rows
                return out
            state = groups.get(key)
            for idx, kind in enumerate(kinds):
                if state is None:
                    state = self._new_group()
                    groups[key] = state
                acc0 = state.accumulators[0]
                ptime = ptimes[idx]
                if kind is insert:
                    state.row_count += 1
                    state.retained += 1
                    net += 1
                    if count_star:
                        acc0[0] += 1
                    else:
                        add0(
                            acc0,
                            arg_col[idx] if arg_col is not None else None,
                        )
                else:
                    if state.row_count <= 0:
                        self._retained += net
                        raise ExecutionError(
                            f"retraction for empty group {key!r} in "
                            "aggregation"
                        )
                    state.row_count -= 1
                    state.retained -= 1
                    net -= 1
                    if count_star:
                        acc0[0] -= 1
                    else:
                        retract0(
                            acc0,
                            arg_col[idx] if arg_col is not None else None,
                        )
                emitted = state.emitted
                if state.row_count == 0 and not is_global:
                    if emitted is not None:
                        append(Change(retract, emitted, ptime))
                    del groups[key]
                    state = None
                    continue
                row = key + ((acc0[0] if count_star else result0(acc0)),)
                if row == emitted:
                    continue
                if emitted is not None:
                    append(Change(retract, emitted, ptime))
                append(Change(insert, row, ptime))
                state.emitted = row
            self._retained += net
            return out
        for idx, kind in enumerate(kinds):
            if n_et:
                if n_et == 1:
                    late = et_a[idx] <= late_bound
                elif n_et == 2:
                    late = et_a[idx] <= late_bound and et_b[idx] <= late_bound
                else:
                    late = all(
                        columns[group_indices[pos]][idx] <= late_bound
                        for pos in et_positions
                    )
                if late:
                    self.late_dropped += 1
                    continue
            if key_col is not None:
                key = (key_col[idx],)
            elif kc0 is not None:
                key = (kc0[idx], kc1[idx])
            else:
                key = tuple(col[idx] for col in key_cols)
            state = groups.get(key)
            if state is None:
                state = self._new_group()
                groups[key] = state
            acc0 = state.accumulators[0]
            ptime = ptimes[idx]
            if kind is insert:
                state.row_count += 1
                state.retained += 1
                net += 1
                if count_star:
                    acc0[0] += 1
                else:
                    add0(acc0, arg_col[idx] if arg_col is not None else None)
            else:
                if state.row_count <= 0:
                    self._retained += net
                    raise ExecutionError(
                        f"retraction for empty group {key!r} in aggregation"
                    )
                state.row_count -= 1
                state.retained -= 1
                net -= 1
                if count_star:
                    acc0[0] -= 1
                else:
                    retract0(acc0, arg_col[idx] if arg_col is not None else None)
            emitted = state.emitted
            if state.row_count == 0 and not is_global:
                if emitted is not None:
                    append(Change(retract, emitted, ptime))
                del groups[key]
                continue
            row = key + ((acc0[0] if count_star else result0(acc0)),)
            if row == emitted:
                continue
            if emitted is not None:
                append(Change(retract, emitted, ptime))
            append(Change(insert, row, ptime))
            state.emitted = row
        self._retained += net
        return out

    def _accumulate(self, state: _GroupState, values: tuple, add: bool) -> None:
        for i, agg in enumerate(self._aggs):
            value = values[agg.arg_index] if agg.arg_index is not None else None
            counts = state.distinct_counts[i]
            if counts is not None:
                # DISTINCT: only the first occurrence reaches the
                # accumulator; only the last removal retracts it.
                if add:
                    seen = counts.get(value, 0)
                    counts[value] = seen + 1
                    if seen:
                        continue
                else:
                    seen = counts.get(value, 0)
                    if seen > 1:
                        counts[value] = seen - 1
                        continue
                    counts.pop(value, None)
            if add:
                agg.function.add(state.accumulators[i], value)
            else:
                agg.function.retract(state.accumulators[i], value)

    def _output_row(self, key: tuple, state: _GroupState) -> tuple:
        results = tuple(
            agg.function.result(state.accumulators[i])
            for i, agg in enumerate(self._aggs)
        )
        return key + results

    # -- event time ------------------------------------------------------------------

    def _is_late(self, key: tuple) -> bool:
        """Whether this change belongs to a group declared complete.

        A group is complete once *all* of its event-time keys are
        covered by the watermark: for a window grouped by (wstart,
        wend) that is ``wend <= watermark``, since wstart < wend.  (A
        group keyed by wstart alone would otherwise complete while its
        window was still open; the planner's sibling-key injection
        guarantees wend is always present alongside wstart.)
        """
        if not self._et_positions:
            return False
        wm = self.input_watermark
        return all(
            key[pos] + self._allowed_lateness <= wm
            for pos in self._et_positions
        )

    def _group_complete_at(self, key: tuple, wm: Timestamp) -> bool:
        """With allowed lateness, state survives the watermark by that
        margin so late firings can still update the group (the "late"
        pane of the early/on-time/late pattern)."""
        return bool(self._et_positions) and all(
            key[pos] + self._allowed_lateness <= wm
            for pos in self._et_positions
        )

    def _on_watermark_advanced(self, merged: Timestamp, ptime: Timestamp) -> list[Change]:
        # Free the state of groups that just became complete.  Their
        # output rows are already current; late inputs will be dropped
        # by _is_late, so the accumulators are never needed again.
        if not self._et_positions or merged <= self._finalized_max:
            return []
        self._finalized_max = merged
        done = [
            key
            for key in self._groups
            if self._group_complete_at(key, merged)
        ]
        for key in done:
            self._retained -= self._groups.pop(key).retained
        return []

    # -- introspection ----------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["groups"] = self._groups
        snapshot["finalized_max"] = self._finalized_max
        snapshot["groups_created"] = self._groups_created
        snapshot["retained"] = self._retained
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._groups = snapshot["groups"]
        self._finalized_max = snapshot["finalized_max"]
        self._groups_created = snapshot.get("groups_created", 0)
        retained = snapshot.get("retained")
        if retained is None:  # a blob from before the running total
            retained = sum(s.retained for s in self._groups.values())
        self._retained = retained

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
      them through the exact single-phase transitions.
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

    # Payload condensation overrides on_batch, so the inherited
    # columnar fast path would bypass it; the executor converts at the
    # boundary instead.
    supports_columnar = False

    def __init__(
        self,
        schema: Schema,
        group_indices: Sequence[int],
        aggs: Sequence[AggCall],
        event_time_key_positions: Sequence[int],
        input_bounded: bool,
        allowed_lateness: int = 0,
        delta_mode: bool = False,
    ):
        super().__init__(
            schema,
            group_indices,
            aggs,
            event_time_key_positions,
            input_bounded,
            allowed_lateness,
        )
        if not self._group_indices:
            raise ExecutionError(
                "partial aggregation requires group keys; global "
                "aggregates are not split"
            )
        self.delta_mode = delta_mode
        self._has_distinct = any(agg.distinct for agg in self._aggs)
        # Hot-loop table for _delta_batch: one attribute-free tuple per
        # aggregate, so the per-row loop does no method resolution on
        # ``agg.function``.
        self._delta_specs = tuple(
            (
                agg.arg_index,
                agg.distinct,
                None if agg.distinct else agg.function.delta_create,
                None if agg.distinct else agg.function.delta_add,
                None if agg.distinct else agg.function.delta_retract,
            )
            for agg in self._aggs
        )

    # -- lifecycle ------------------------------------------------------------

    def on_open(self) -> list[Change]:
        # Never global (checked above): no seed row.  The combine
        # stage owns any output-side initialization.
        return []

    # -- data path ---------------------------------------------------------------

    def on_change(self, port: int, change: Change) -> list[Change]:
        return self.on_batch(port, (change,))

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        if not changes:
            return []
        # Watermark events break batches, so one batch sits at one
        # processing instant and under one lateness cutoff.
        if self.delta_mode:
            return self._delta_batch(changes)
        return self._replay_batch(changes)

    def _replay_batch(self, changes: Sequence[Change]) -> list[Change]:
        group_indices = self._group_indices
        et_positions = self._et_positions
        lateness = self._allowed_lateness
        wm = self.input_watermark if et_positions else MIN_TIMESTAMP
        aggs = self._aggs
        insert = ChangeKind.INSERT
        entries: list[tuple] = []
        if not self._has_distinct:
            # Stateless: forward each effective row's sign, key, and
            # aggregate arguments verbatim.
            arg_indices = tuple(agg.arg_index for agg in aggs)
            for change in changes:
                values = change.values
                key = tuple(values[i] for i in group_indices)
                if et_positions and all(
                    key[pos] + lateness <= wm for pos in et_positions
                ):
                    self.late_dropped += 1
                    continue
                vals = tuple(
                    values[i] if i is not None else None for i in arg_indices
                )
                entries.append(
                    (1 if change.kind is insert else -1, key, vals)
                )
        else:
            # DISTINCT dedup happens shard-side so the combine stage
            # never sees a duplicate: forwarded values mark the local
            # 0->1 / 1->0 transitions, everything else ships as
            # SUPPRESSED.  Group state exists purely to host the
            # counts; it mirrors the serial operator's row_count and
            # empty-retraction guard so errors surface identically.
            groups = self._groups
            for change in changes:
                values = change.values
                key = tuple(values[i] for i in group_indices)
                if et_positions and all(
                    key[pos] + lateness <= wm for pos in et_positions
                ):
                    self.late_dropped += 1
                    continue
                state = groups.get(key)
                if state is None:
                    state = self._new_group()
                    groups[key] = state
                adding = change.kind is insert
                if adding:
                    state.row_count += 1
                    state.retained += 1
                    self._retained += 1
                else:
                    if state.row_count <= 0:
                        raise ExecutionError(
                            f"retraction for empty group {key!r} in aggregation"
                        )
                    state.row_count -= 1
                    state.retained -= 1
                    self._retained -= 1
                vals = []
                for i, agg in enumerate(aggs):
                    value = (
                        values[agg.arg_index]
                        if agg.arg_index is not None
                        else None
                    )
                    counts = state.distinct_counts[i]
                    if counts is None:
                        vals.append(value)
                    elif adding:
                        seen = counts.get(value, 0)
                        counts[value] = seen + 1
                        vals.append(SUPPRESSED if seen else value)
                    else:
                        seen = counts.get(value, 0)
                        if seen > 1:
                            counts[value] = seen - 1
                            vals.append(SUPPRESSED)
                        else:
                            counts.pop(value, None)
                            vals.append(value)
                if state.row_count == 0:
                    # Death resets the dedup counts, exactly when the
                    # serial operator would drop the group.
                    del groups[key]
                entries.append(
                    (1 if adding else -1, key, tuple(vals))
                )
        if not entries:
            return []
        payload = ("P2R", len(entries), tuple(entries))
        return [Change(ChangeKind.INSERT, payload, changes[0].ptime)]

    def _delta_batch(self, changes: Sequence[Change]) -> list[Change]:
        group_indices = self._group_indices
        et_positions = self._et_positions
        lateness = self._allowed_lateness
        wm = self.input_watermark if et_positions else MIN_TIMESTAMP
        aggs = self._aggs
        specs = self._delta_specs
        insert = ChangeKind.INSERT
        if len(group_indices) == 1:
            sole = group_indices[0]
            key_of = lambda values: (values[sole],)  # noqa: E731
        else:
            key_of = itemgetter(*group_indices)
        # First-touch insertion order, so the combine emits groups in
        # a deterministic order per payload.
        builders: dict[tuple, list] = {}
        rows = 0
        for change in changes:
            values = change.values
            key = key_of(values)
            if et_positions and all(
                key[pos] + lateness <= wm for pos in et_positions
            ):
                self.late_dropped += 1
                continue
            rows += 1
            builder = builders.get(key)
            if builder is None:
                builder = [
                    0,
                    [
                        ([], []) if distinct else create()
                        for _, distinct, create, _, _ in specs
                    ],
                ]
                builders[key] = builder
            adding = change.kind is insert
            builder[0] += 1 if adding else -1
            for delta, (arg_index, distinct, _, add, retract) in zip(
                builder[1], specs
            ):
                value = values[arg_index] if arg_index is not None else None
                if distinct:
                    # DISTINCT deltas are always raw value lists; the
                    # combine's global dedup counts decide what
                    # reaches the accumulator.
                    delta[0 if adding else 1].append(value)
                elif adding:
                    add(delta, value)
                else:
                    retract(delta, value)
        if not builders:
            return []
        entries = tuple(
            (
                key,
                builder[0],
                tuple(
                    (tuple(delta[0]), tuple(delta[1]))
                    if agg.distinct
                    else agg.function.delta_freeze(delta)
                    for agg, delta in zip(aggs, builder[1])
                ),
            )
            for key, builder in builders.items()
        )
        payload = ("P2D", rows, entries)
        return [Change(ChangeKind.INSERT, payload, changes[0].ptime)]

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
    while ``agg_rows_in`` preserves the true row count for the cost
    model's fan-in feedback.
    """

    # Payloads are opaque row changes; the columnar fast path must not
    # apply aggregate transitions to them.
    supports_columnar = False

    def __init__(
        self,
        schema: Schema,
        group_indices: Sequence[int],
        aggs: Sequence[AggCall],
        event_time_key_positions: Sequence[int],
        input_bounded: bool,
        allowed_lateness: int = 0,
    ):
        super().__init__(
            schema,
            group_indices,
            aggs,
            event_time_key_positions,
            input_bounded,
            allowed_lateness,
        )
        self._agg_rows_in = 0

    # -- data path ---------------------------------------------------------------

    def on_change(self, port: int, change: Change) -> list[Change]:
        return self.on_batch(port, (change,))

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        out: list[Change] = []
        for change in changes:
            tag, rows, entries = change.values
            self._agg_rows_in += rows
            if tag == "P2R":
                self._replay(entries, change.ptime, out)
            elif tag == "P2D":
                self._apply_deltas(entries, change.ptime, out)
            else:
                raise ExecutionError(
                    f"unknown partial aggregation payload tag {tag!r}"
                )
        return out

    def _replay(
        self, entries: tuple, ptime: Timestamp, out: list[Change]
    ) -> None:
        groups = self._groups
        aggs = self._aggs
        retract = ChangeKind.RETRACT
        insert = ChangeKind.INSERT
        append = out.append
        for sign, key, vals in entries:
            state = groups.get(key)
            if state is None:
                state = self._new_group()
                groups[key] = state
            if sign > 0:
                state.row_count += 1
                state.retained += 1
                self._retained += 1
                for i, agg in enumerate(aggs):
                    value = vals[i]
                    if value is SUPPRESSED:
                        continue
                    counts = state.distinct_counts[i]
                    if counts is not None:
                        counts[value] = 1
                    agg.function.add(state.accumulators[i], value)
            else:
                if state.row_count <= 0:
                    raise ExecutionError(
                        f"retraction for empty group {key!r} in aggregation"
                    )
                state.row_count -= 1
                state.retained -= 1
                self._retained -= 1
                for i, agg in enumerate(aggs):
                    value = vals[i]
                    if value is SUPPRESSED:
                        continue
                    counts = state.distinct_counts[i]
                    if counts is not None:
                        counts.pop(value, None)
                    agg.function.retract(state.accumulators[i], value)
            emitted = state.emitted
            if state.row_count == 0:
                if emitted is not None:
                    append(Change(retract, emitted, ptime))
                del groups[key]
                continue
            row = self._output_row(key, state)
            if row == emitted:
                continue
            if emitted is not None:
                append(Change(retract, emitted, ptime))
            append(Change(insert, row, ptime))
            state.emitted = row

    def _apply_deltas(
        self, entries: tuple, ptime: Timestamp, out: list[Change]
    ) -> None:
        groups = self._groups
        aggs = self._aggs
        retract = ChangeKind.RETRACT
        insert = ChangeKind.INSERT
        append = out.append
        for key, rc_delta, frozen in entries:
            state = groups.get(key)
            if state is None:
                state = self._new_group()
                groups[key] = state
            new_count = state.row_count + rc_delta
            if new_count < 0:
                raise ExecutionError(
                    f"retraction for empty group {key!r} in aggregation"
                )
            state.row_count = new_count
            state.retained += rc_delta
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
            emitted = state.emitted
            if new_count == 0:
                if emitted is not None:
                    append(Change(retract, emitted, ptime))
                del groups[key]
                continue
            row = self._output_row(key, state)
            if row == emitted:
                continue
            if emitted is not None:
                append(Change(retract, emitted, ptime))
            append(Change(insert, row, ptime))
            state.emitted = row

    # -- introspection ----------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["agg_rows_in"] = self._agg_rows_in
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._agg_rows_in = snapshot.get("agg_rows_in", 0)

    def _extra_metrics(self) -> dict:
        extras = super()._extra_metrics()
        extras["agg_rows_in"] = self._agg_rows_in
        return extras

    def name(self) -> str:
        return (
            f"CombineAggregate({len(self._aggs)} aggs, "
            f"{len(self._groups)} groups)"
        )
