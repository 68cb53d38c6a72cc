"""Incremental streaming executor: operators, dataflow, materializers."""

from .executor import Dataflow, RunResult
from .state import OperatorState, StateReport, collect_state
from .materialize import (
    DeltaChange,
    StreamChange,
    apply_emit_delays,
    delta_view,
    stream_schema,
    stream_view,
    table_view,
)

__all__ = [
    "Dataflow",
    "RunResult",
    "OperatorState",
    "StateReport",
    "collect_state",
    "StreamChange",
    "DeltaChange",
    "delta_view",
    "stream_schema",
    "stream_view",
    "table_view",
    "apply_emit_delays",
]
