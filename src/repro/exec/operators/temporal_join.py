"""Correlated temporal-table joins (Section 8).

Enriching a stream with the value a slowly-changing table had *at the
event's own time* — an order with the exchange rate at order time — is
the paper's flagship future-work join.  The operator:

* materializes the right side as **versions**: per key, a list of
  (version_time, row) sorted by version time;
* **buffers** left rows until the right watermark passes their
  timestamp, so the applicable version is provably final (no later
  version with an earlier timestamp can still arrive);
* on emission, binary-searches the valid version (greatest version_time
  at or before the left row's time) and outputs the concatenated row —
  or nothing if no version existed yet.

Version state is pruned on watermark advance: only the newest version
at or below the frontier plus all newer versions can ever be read
again.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Sequence

from ...core.changelog import Change, ChangeKind
from ...core.errors import ExecutionError
from ...core.schema import Schema
from ...core.times import Timestamp
from .base import Operator

__all__ = ["TemporalJoinOperator"]


class TemporalJoinOperator(Operator):
    """Streaming enrichment against a versioned table."""

    def __init__(
        self,
        schema: Schema,
        left_time_index: int,
        right_time_index: int,
        left_keys: Sequence[int],
        right_keys: Sequence[int],
    ):
        super().__init__(schema, arity=2)
        self._left_time = left_time_index
        self._right_time = right_time_index
        self._left_keys = tuple(left_keys)
        self._right_keys = tuple(right_keys)
        # key -> sorted list of (version_time, seq, values)
        self._versions: dict[tuple, list[tuple[Timestamp, int, tuple]]] = {}
        # key -> newest version time discarded by pruning (for loud
        # failure if a retraction needs a pruned version)
        self._pruned_upto: dict[tuple, Timestamp] = {}
        self._seq = 0
        # left rows waiting for the right watermark: (ltime, values) bag
        self._pending: list[tuple[Timestamp, tuple]] = []
        self.unmatched_dropped = 0

    # -- data path ---------------------------------------------------------------

    def on_change(self, port: int, change: Change) -> list[Change]:
        if port == 1:
            return self._on_version(change)
        return self._on_left(change)

    def _on_version(self, change: Change) -> list[Change]:
        if change.is_retract:
            raise ExecutionError(
                "a temporal table must be an append-only stream of versions"
            )
        values = change.values
        key = tuple(values[i] for i in self._right_keys)
        vtime = values[self._right_time]
        if vtime is None:
            raise ExecutionError("NULL version timestamp in temporal table")
        self._seq += 1
        insort(self._versions.setdefault(key, []), (vtime, self._seq, values))
        return []

    def _on_left(self, change: Change) -> list[Change]:
        values = change.values
        ltime = values[self._left_time]
        if ltime is None:
            raise ExecutionError("NULL event timestamp in temporal join input")
        right_wm = self._input_wms[1]
        if change.is_retract:
            # still buffered? then it simply leaves the buffer
            entry = (ltime, values)
            if entry in self._pending:
                self._pending.remove(entry)
                return []
            # already emitted: the version lookup is deterministic, so
            # the retraction reproduces the same joined row
            joined = self._lookup(values, ltime)
            if joined is None:
                self.unmatched_dropped += 1
                return []
            return [Change(ChangeKind.RETRACT, joined, change.ptime)]
        if ltime <= right_wm:
            joined = self._lookup(values, ltime)
            if joined is None:
                self.unmatched_dropped += 1
                return []
            return [Change(ChangeKind.INSERT, joined, change.ptime)]
        self._pending.append((ltime, values))
        return []

    def _lookup(self, left_values: tuple, ltime: Timestamp) -> tuple | None:
        key = tuple(left_values[i] for i in self._left_keys)
        versions = self._versions.get(key)
        if not versions:
            return None
        # the greatest version at or before ltime
        i = bisect_right(versions, (ltime, float("inf"), ()))
        if i == 0:
            pruned = self._pruned_upto.get(key)
            if pruned is not None and pruned <= ltime:
                raise ExecutionError(
                    "temporal join cannot reconstruct a pruned version; "
                    "the left input must be append-only once rows are "
                    "past the watermark"
                )
            return None
        return left_values + versions[i - 1][2]

    # -- watermark-driven release and pruning ------------------------------------------

    def _on_watermark_advanced(self, merged: Timestamp, ptime: Timestamp) -> list[Change]:
        right_wm = self._input_wms[1]
        out: list[Change] = []
        still_pending: list[tuple[Timestamp, tuple]] = []
        for ltime, values in self._pending:
            if ltime <= right_wm:
                joined = self._lookup(values, ltime)
                if joined is None:
                    self.unmatched_dropped += 1
                else:
                    out.append(Change(ChangeKind.INSERT, joined, ptime))
            else:
                still_pending.append((ltime, values))
        self._pending = still_pending
        # prune versions no future left row can read: future left times
        # exceed the left watermark, so per key only the newest version
        # at or below that frontier plus everything newer stays.  Rows
        # still buffered for the right watermark hold the frontier back.
        frontier = self._input_wms[0]
        if self._pending:
            frontier = min(
                frontier, min(ltime for ltime, _ in self._pending)
            )
        for key, versions in self._versions.items():
            i = bisect_right(versions, (frontier, float("inf"), ()))
            if i > 1:
                self._pruned_upto[key] = versions[i - 2][0]
                del versions[: i - 1]
        return out

    # -- introspection ------------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["versions"] = self._versions
        snapshot["pruned_upto"] = self._pruned_upto
        snapshot["seq"] = self._seq
        snapshot["pending"] = self._pending
        snapshot["unmatched_dropped"] = self.unmatched_dropped
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._versions = snapshot["versions"]
        self._pruned_upto = snapshot["pruned_upto"]
        self._seq = snapshot["seq"]
        self._pending = snapshot["pending"]
        self.unmatched_dropped = snapshot["unmatched_dropped"]

    def state_size(self) -> int:
        return len(self._pending) + sum(
            len(v) for v in self._versions.values()
        )

    def _extra_metrics(self) -> dict:
        return {
            "unmatched_dropped": self.unmatched_dropped,
            "pending_rows": len(self._pending),
            "versions": sum(len(v) for v in self._versions.values()),
        }

    def name(self) -> str:
        return f"TemporalJoin(state={self.state_size()})"
