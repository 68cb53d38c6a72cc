"""INTERSECT / EXCEPT over changelogs with bag semantics.

The output multiplicity of a row is a pure function of its counts on
the two sides, so the operator keeps one pair of counts per distinct
row and emits the multiplicity delta whenever a change moves either
count — rows flip in and out as either input evolves, just like every
other retractive operator here.
"""

from __future__ import annotations

from ...core.changelog import Change, ChangeKind
from ...core.errors import ExecutionError
from ...core.schema import Schema
from .base import Operator

__all__ = ["SetOpOperator"]


class SetOpOperator(Operator):
    """INTERSECT [ALL] / EXCEPT [ALL]."""

    def __init__(self, schema: Schema, op: str, all: bool):
        super().__init__(schema, arity=2)
        self._op = op
        self._all = all
        # row values -> [left count, right count]
        self._counts: dict[tuple, list[int]] = {}
        # Running sum of every count, so ``state_size()`` — read after
        # every delivery by the metrics sweep — is O(1).  Not part of a
        # cut: a restore recomputes it from the counts.
        self._rows = 0

    def _output_multiplicity(self, left: int, right: int) -> int:
        if self._op == "INTERSECT":
            result = min(left, right)
        else:  # EXCEPT ALL subtracts bags; EXCEPT keeps what the right lacks
            result = max(left - right, 0) if self._all or not right else 0
        if not self._all:
            return 1 if result > 0 else 0
        return result

    def on_change(self, port: int, change: Change) -> list[Change]:
        values = change.values
        counts = self._counts.setdefault(values, [0, 0])
        before = self._output_multiplicity(*counts)
        counts[port] += change.delta
        if counts[port] < 0:
            raise ExecutionError("set operation retracted a missing row")
        self._rows += change.delta
        after = self._output_multiplicity(*counts)
        if counts == [0, 0]:
            del self._counts[values]
        if after == before:
            return []
        kind = ChangeKind.INSERT if after > before else ChangeKind.RETRACT
        return [
            Change(kind, values, change.ptime) for _ in range(abs(after - before))
        ]

    # -- checkpointing -------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["counts"] = self._counts
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._counts = snapshot["counts"]
        self._rows = sum(l + r for l, r in self._counts.values())

    # -- introspection -----------------------------------------------------------

    def state_size(self) -> int:
        return self._rows

    def _extra_metrics(self) -> dict:
        return {"distinct_rows": len(self._counts)}

    def name(self) -> str:
        return f"{self._op}{' ALL' if self._all else ''}"
