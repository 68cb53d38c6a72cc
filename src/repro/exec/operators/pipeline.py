"""The fused filter/project/tumble operator.

One :class:`PipelineOperator` executes a whole chain of filter, project
and tumble steps (see :mod:`repro.plan.pipeline`) as a single generated
loop — one per encoding: a row loop producing ``Change`` objects and a
columnar loop producing a :class:`~repro.core.colbatch.ColumnarBatch`
that shares untouched columns with its input.
"""

from __future__ import annotations

from typing import Sequence

from ...core.changelog import Change
from ...core.colbatch import ColumnarBatch
from ...core.schema import Schema
from .. import codegen
from .base import Operator

__all__ = ["PipelineOperator"]


class PipelineOperator(Operator):
    """Runs fused filter/project/tumble steps in one generated loop."""

    supports_columnar = True
    carries_seqs = True

    def __init__(
        self,
        schema: Schema,
        in_width: int,
        steps: Sequence[codegen.Step],
    ):
        super().__init__(schema, arity=1)
        self._steps = tuple(steps)
        self._run_rows, self._run_cols = codegen.compile_pipeline(
            self._steps, in_width
        )

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        return self._run_rows(changes)

    def on_cols(self, port: int, batch: ColumnarBatch) -> ColumnarBatch:
        return self._run_cols(batch)

    def name(self) -> str:
        kinds = "+".join(kind for kind, _ in self._steps)
        return f"Pipeline({kinds})"
