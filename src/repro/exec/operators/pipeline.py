"""The fused filter/project operator.

One :class:`PipelineOperator` executes a whole chain of filter and
project steps (see :mod:`repro.plan.pipeline`).  With codegen enabled
the chain runs as a single generated loop — one per encoding: a row
loop producing ``Change`` objects and a columnar loop producing a
:class:`~repro.core.colbatch.ColumnarBatch` that shares untouched
columns with its input.  With codegen disabled (or unavailable) it
falls back to interpreting the compiled per-step closures, which is
still one operator hop instead of one per chain link.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...core.changelog import Change
from ...core.colbatch import ColumnarBatch
from ...core.schema import Schema
from ...plan import rex as rexmod
from .. import codegen
from .base import Operator

__all__ = ["PipelineOperator"]


class PipelineOperator(Operator):
    """Runs fused filter/project steps in one generated loop."""

    supports_columnar = True

    def __init__(
        self,
        schema: Schema,
        in_width: int,
        steps: Sequence[codegen.Step],
    ):
        super().__init__(schema, arity=1)
        self._steps = tuple(steps)
        self._in_width = in_width
        self._run_cols: Optional[callable] = None
        if codegen.ENABLED:
            self._run_rows, self._run_cols = codegen.compile_pipeline(
                self._steps, in_width
            )
        else:
            compiled = []
            for kind, payload in self._steps:
                if kind == "filter":
                    compiled.append((True, rexmod.compile_rex(payload)))
                else:
                    compiled.append(
                        (False, tuple(rexmod.compile_rex(e) for e in payload))
                    )
            self._compiled_steps = compiled
            self._run_rows = self._interp_rows
        #: only the generated columnar loop derives ``seqs``; the
        #: interpreted fallback goes through rows.
        self.carries_seqs = self._run_cols is not None

    def _interp_rows(self, changes: Sequence[Change]) -> list[Change]:
        out: list[Change] = []
        append = out.append
        steps = self._compiled_steps
        make = Change
        for change in changes:
            values = change.values
            dropped = False
            projected = False
            for is_filter, fns in steps:
                if is_filter:
                    if fns(values) is not True:
                        dropped = True
                        break
                else:
                    values = tuple(fn(values) for fn in fns)
                    projected = True
            if dropped:
                continue
            append(
                make(change.kind, values, change.ptime) if projected else change
            )
        return out

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        return self._run_rows(changes)

    def on_cols(self, port: int, batch: ColumnarBatch) -> ColumnarBatch:
        run_cols = self._run_cols
        if run_cols is not None:
            return run_cols(batch)
        return self._run_rows(batch.to_changes())

    def name(self) -> str:
        kinds = "+".join(kind for kind, _ in self._steps)
        return f"Pipeline({kinds})"
