"""Analytic OVER windows over event-time order.

Like MATCH_RECOGNIZE, OVER windows are defined over the *event-time
sequence* of each partition, so the operator buffers arrivals and
processes them only once the watermark proves their position in the
sequence is final.  Each stabilized row is emitted exactly once,
augmented with its running frame aggregates; the frame (the previous
``frame_rows`` rows, or the whole partition prefix) is maintained
incrementally with the same add/retract accumulators the grouped
aggregation uses.

State is the per-partition frame plus the not-yet-stable buffer — both
bounded by the frame size and the watermark lag respectively (the
B.2.3 point of tying OVER to watermarked attributes).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ...core.changelog import Change, ChangeKind
from ...core.errors import ExecutionError
from ...core.schema import Schema
from ...core.times import Timestamp
from ...plan.logical import AggCall
from .base import Operator

__all__ = ["OverOperator"]


@dataclass
class _PartitionState:
    #: (event_ts, seq, row) not yet stabilized by the watermark
    pending: list[tuple[Timestamp, int, tuple]] = field(default_factory=list)
    #: the current frame rows, oldest first
    frame: deque = field(default_factory=deque)
    accumulators: list[Any] = field(default_factory=list)


class OverOperator(Operator):
    """Watermark-sequenced running aggregates per partition."""

    def __init__(
        self,
        schema: Schema,
        partition_indices: Sequence[int],
        order_index: int,
        calls: Sequence[AggCall],
        frame_rows: Optional[int],
    ):
        super().__init__(schema, arity=1)
        self._partition = tuple(partition_indices)
        self._order = order_index
        self._calls = tuple(calls)
        self._frame_rows = frame_rows
        self._states: dict[tuple, _PartitionState] = {}
        self._seq = 0

    def _new_state(self) -> _PartitionState:
        state = _PartitionState()
        state.accumulators = [call.function.create() for call in self._calls]
        return state

    # -- data path ---------------------------------------------------------------

    def on_change(self, port: int, change: Change) -> list[Change]:
        values = change.values
        ts = values[self._order]
        if ts is None:
            raise ExecutionError("NULL ordering timestamp in OVER input")
        key = tuple(values[i] for i in self._partition)
        if change.is_retract:
            # An upstream aggregate may revise rows that have not been
            # sequenced yet; once a row is past the watermark and
            # emitted, it is final and cannot be taken back.
            state = self._states.get(key)
            if state is not None:
                for i, (_, _, pending_values) in enumerate(state.pending):
                    if pending_values == values:
                        del state.pending[i]
                        return []
            raise ExecutionError(
                "OVER input must be append-only once rows are past the "
                "watermark"
            )
        if ts <= self.input_watermark:
            self.late_dropped += 1
            return []
        state = self._states.get(key)
        if state is None:
            state = self._new_state()
            self._states[key] = state
        self._seq += 1
        insort(state.pending, (ts, self._seq, values))
        return []

    def _on_watermark_advanced(self, merged: Timestamp, ptime: Timestamp) -> list[Change]:
        out: list[Change] = []
        for key, state in self._states.items():
            cut = bisect_right(state.pending, (merged, float("inf"), ()))
            if not cut:
                continue
            stable = state.pending[:cut]
            del state.pending[:cut]
            for _, _, values in stable:
                self._push_row(state, values)
                results = tuple(
                    call.function.result(state.accumulators[i])
                    for i, call in enumerate(self._calls)
                )
                out.append(
                    Change(ChangeKind.INSERT, values + results, ptime)
                )
        return out

    def _push_row(self, state: _PartitionState, values: tuple) -> None:
        state.frame.append(values)
        for i, call in enumerate(self._calls):
            arg = values[call.arg_index] if call.arg_index is not None else None
            call.function.add(state.accumulators[i], arg)
        if (
            self._frame_rows is not None
            and len(state.frame) > self._frame_rows + 1
        ):
            evicted = state.frame.popleft()
            for i, call in enumerate(self._calls):
                arg = (
                    evicted[call.arg_index]
                    if call.arg_index is not None
                    else None
                )
                call.function.retract(state.accumulators[i], arg)

    # -- introspection ------------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["states"] = self._states
        snapshot["seq"] = self._seq
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._states = snapshot["states"]
        self._seq = snapshot["seq"]

    def state_size(self) -> int:
        return sum(
            len(state.pending) + len(state.frame)
            for state in self._states.values()
        )

    def _extra_metrics(self) -> dict:
        return {
            "partitions": len(self._states),
            "pending_rows": sum(
                len(state.pending) for state in self._states.values()
            ),
        }

    def name(self) -> str:
        return f"Over({len(self._calls)} calls)"
