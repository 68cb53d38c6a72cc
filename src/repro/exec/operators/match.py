"""MATCH_RECOGNIZE execution: watermark-sequenced row pattern matching.

The hard part of pattern matching over a stream is out-of-order input:
patterns are defined over the *event-time order* of rows, but rows
arrive in processing-time order.  The operator therefore buffers each
partition's rows and matches only over the **stable prefix** — rows at
or below the watermark, which the watermark contract guarantees is
final.  This is exactly the event-time-first design the paper argues
for: the same query gives the same matches regardless of arrival order.

Matching is greedy with backtracking over concatenation patterns with
``? * +`` quantifiers.  An attempt that runs into the stable boundary
is *deferred* (a future row might change its outcome); a match whose
last row sits on the boundary is likewise deferred unless the input is
complete, since greedy quantifiers might still extend it.  Consumed and
unmatchable rows are discarded — pattern state is bounded by the
watermark lag, one more instance of the Section 5 state-cleanup lesson.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Any, Callable, Optional, Sequence

from ...core.changelog import Change, ChangeKind
from ...core.errors import ExecutionError
from ...core.schema import Schema
from ...core.times import MAX_TIMESTAMP, Timestamp
from .base import Operator

__all__ = ["MatchRecognizeOperator"]

_MATCH = "match"
_FAIL = "fail"
_DEFER = "defer"


class MatchRecognizeOperator(Operator):
    """Per-partition greedy pattern matching over stable rows."""

    def __init__(
        self,
        schema: Schema,
        partition_indices: Sequence[int],
        order_index: int,
        measures: Sequence,  # MatchMeasure
        pattern: Sequence[tuple[str, str]],
        defines: dict[str, Callable[[tuple], Any]],
        after_match: str = "PAST LAST ROW",
    ):
        super().__init__(schema, arity=1)
        self._partition = tuple(partition_indices)
        self._order = order_index
        self._measures = tuple(measures)
        self._pattern = tuple(pattern)
        self._defines = dict(defines)
        self._skip_to_next = after_match == "TO NEXT ROW"
        # partition key -> sorted [(ts, seq, row), ...] of unconsumed rows
        self._buffers: dict[tuple, list[tuple[Timestamp, int, tuple]]] = {}
        self._seq = 0
        self.matches_emitted = 0

    # -- data path ---------------------------------------------------------------

    def on_change(self, port: int, change: Change) -> list[Change]:
        if change.is_retract:
            raise ExecutionError(
                "MATCH_RECOGNIZE requires an append-only input stream"
            )
        values = change.values
        ts = values[self._order]
        if ts is None:
            raise ExecutionError("NULL ordering timestamp in MATCH_RECOGNIZE")
        if ts <= self.input_watermark:
            self.late_dropped += 1
            return []
        key = tuple(values[i] for i in self._partition)
        self._seq += 1
        insort(self._buffers.setdefault(key, []), (ts, self._seq, values))
        return []

    def _on_watermark_advanced(self, merged: Timestamp, ptime: Timestamp) -> list[Change]:
        complete = merged >= MAX_TIMESTAMP
        out: list[Change] = []
        for key in list(self._buffers):
            buffer = self._buffers[key]
            cut = bisect_right(buffer, (merged, float("inf"), ()))
            stable = [entry[2] for entry in buffer[:cut]]
            consumed = self._match_partition(key, stable, complete, ptime, out)
            if consumed:
                del buffer[:consumed]
            if not buffer:
                del self._buffers[key]
        return out

    # -- matching -----------------------------------------------------------------

    def _match_partition(
        self,
        key: tuple,
        stable: list[tuple],
        complete: bool,
        ptime: Timestamp,
        out: list[Change],
    ) -> int:
        """Match over a partition's stable rows; returns rows consumed."""
        i = 0
        while i < len(stable):
            status, end, mapping = self._try_match(stable, i, complete)
            if status == _DEFER:
                break
            if status == _FAIL or end == i:
                # a failed start — or a zero-width match, which SQL
                # discards — can never participate in a later match
                i += 1
                continue
            out.append(
                Change(ChangeKind.INSERT, self._measure_row(key, mapping), ptime)
            )
            self.matches_emitted += 1
            i = i + 1 if self._skip_to_next else end
        return i

    def _measure_row(self, key: tuple, mapping: dict[str, list[tuple]]) -> tuple:
        return key + tuple(m.evaluate(mapping) for m in self._measures)

    def _try_match(
        self, rows: list[tuple], start: int, complete: bool
    ) -> tuple[str, int, dict[str, list[tuple]]]:
        """Greedy backtracking match attempt starting at ``start``.

        Returns (status, end_exclusive, symbol→rows).  ``_DEFER`` means
        the outcome could still change when more rows stabilize.
        """
        boundary = len(rows)
        deferred = False

        def tail_open(last_consumer: Optional[int]) -> bool:
            """Could future rows extend a match ending at the boundary?

            Yes if the element that consumed the final row is a greedy
            ``+``/``*`` (it would prefer more rows), or if any later
            element was satisfied zero-width (``?``/``*``) and could
            still claim a future row.  A pattern ending in a plain
            element is closed no matter where it ends.
            """
            if last_consumer is None:
                return False
            if self._pattern[last_consumer][1] in ("+", "*"):
                return True
            return any(
                quantifier in ("?", "*", "+")
                for _, quantifier in self._pattern[last_consumer + 1 :]
            )

        def attempt(
            elem: int, pos: int, mapping: dict[str, list[tuple]],
            last_consumer: Optional[int] = None,
        ) -> Optional[tuple[int, dict[str, list[tuple]]]]:
            nonlocal deferred
            if elem == len(self._pattern):
                # a greedy match ending on the boundary might extend
                if pos == boundary and not complete and tail_open(last_consumer):
                    deferred = True
                    return None
                return pos, mapping
            symbol, quantifier = self._pattern[elem]
            predicate = self._defines.get(symbol)

            def row_matches(index: int) -> Optional[bool]:
                nonlocal deferred
                if index >= boundary:
                    if not complete:
                        deferred = True
                    return None
                if predicate is None:
                    return True
                return predicate(rows[index]) is True

            def with_row(mapping: dict, index: int) -> dict:
                extended = dict(mapping)
                extended[symbol] = mapping.get(symbol, []) + [rows[index]]
                return extended

            if quantifier == "":
                ok = row_matches(pos)
                if ok:
                    return attempt(
                        elem + 1, pos + 1, with_row(mapping, pos), elem
                    )
                return None
            if quantifier == "?":
                ok = row_matches(pos)
                if ok:
                    result = attempt(
                        elem + 1, pos + 1, with_row(mapping, pos), elem
                    )
                    if result is not None:
                        return result
                return attempt(elem + 1, pos, mapping, last_consumer)
            # + and *: consume greedily, then backtrack
            taken: list[int] = []
            current = mapping
            index = pos
            while True:
                ok = row_matches(index)
                if not ok:
                    break
                current = with_row(current, index)
                taken.append(index)
                index += 1
            minimum = 1 if quantifier == "+" else 0
            while len(taken) >= minimum:
                consumer = elem if taken else last_consumer
                result = attempt(elem + 1, pos + len(taken), current, consumer)
                if result is not None:
                    return result
                if not taken:
                    break
                taken.pop()
                current = dict(current)
                shortened = current[symbol][:-1]
                if shortened:
                    current[symbol] = shortened
                else:
                    del current[symbol]
            return None

        result = attempt(0, start, {})
        if result is not None:
            end, mapping = result
            return _MATCH, end, mapping
        if deferred:
            return _DEFER, start, {}
        return _FAIL, start, {}

    # -- introspection ------------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["buffers"] = self._buffers
        snapshot["seq"] = self._seq
        snapshot["matches_emitted"] = self.matches_emitted
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._buffers = snapshot["buffers"]
        self._seq = snapshot["seq"]
        self.matches_emitted = snapshot["matches_emitted"]

    def state_size(self) -> int:
        return sum(len(b) for b in self._buffers.values())

    def _extra_metrics(self) -> dict:
        return {
            "matches_emitted": self.matches_emitted,
            "partitions": len(self._buffers),
        }

    def name(self) -> str:
        return f"MatchRecognize({self.matches_emitted} matches)"
