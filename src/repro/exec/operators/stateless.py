"""Stateless operators: scan, union, sort-passthrough.

Stateless operators transform each change independently, preserving its
kind — an insert projects to an insert, a retract to a retract.  That
is exactly why they need no state (Appendix B.2.3: "operators that
process a single row at a time ... can simply adjust and forward or
filter change messages").
"""

from __future__ import annotations

from typing import Sequence

from ...core.changelog import Change
from ...core.schema import Schema
from .base import Operator

__all__ = ["ScanOperator", "UnionOperator", "SortOperator"]


class _ForwardOperator(Operator):
    """Forwards every change untouched, in either encoding."""

    supports_columnar = True
    carries_seqs = True  # the batch goes on as it came

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        return list(changes)

    def on_cols(self, port: int, batch):
        return batch


class ScanOperator(_ForwardOperator):
    """Leaf operator bound to a registered source; pure passthrough."""

    def __init__(self, schema: Schema, source_name: str):
        super().__init__(schema, arity=1)
        self.source_name = source_name

    def name(self) -> str:
        return f"Scan({self.source_name})"


class UnionOperator(_ForwardOperator):
    """Bag union: forwards changes from every input port."""


class SortOperator(_ForwardOperator):
    """ORDER BY / LIMIT placeholder.

    Ordering is a property of *table* materialization, not of a
    changelog, so the operator forwards changes untouched; the engine
    applies the sort keys and limit when rendering a snapshot
    (and rejects ``EMIT STREAM`` over LIMIT queries).
    """

    def __init__(self, schema: Schema):
        super().__init__(schema, arity=1)
