"""repro: a reproduction of "One SQL to Rule Them All" (SIGMOD 2019).

A streaming SQL engine over time-varying relations with event-time
semantics (watermarks, windowing TVFs) and materialization control
(EMIT STREAM / AFTER WATERMARK / AFTER DELAY), plus the CQL baseline
and the NEXMark workload the paper builds its examples on.

Quickstart::

    from repro import StreamEngine, TimeVaryingRelation, Schema
    from repro import timestamp_col, int_col, string_col, t, minutes

    bid = TimeVaryingRelation(Schema([
        timestamp_col("bidtime", event_time=True),
        int_col("price"),
        string_col("item"),
    ]))
    bid.advance_watermark(t("8:07"), t("8:05"))
    bid.insert(t("8:08"), (t("8:07"), 2, "A"))

    engine = StreamEngine()
    engine.register_stream("Bid", bid)
    print(engine.query("SELECT * FROM Bid").table().to_table())
"""

from .core import (
    MAX_TIMESTAMP,
    MIN_TIMESTAMP,
    BoundedOutOfOrderness,
    Change,
    ChangeKind,
    Changelog,
    Column,
    Duration,
    EmitSpec,
    ExecutionError,
    LexError,
    ParseError,
    PlanError,
    PunctuatedWatermarks,
    Relation,
    ReproError,
    Row,
    RowEvent,
    Schema,
    SchemaError,
    SqlError,
    SqlType,
    StreamEvent,
    Timestamp,
    TimeVaryingRelation,
    ValidationError,
    WatermarkError,
    WatermarkEvent,
    WatermarkTrack,
    bool_col,
    days,
    float_col,
    fmt_duration,
    fmt_time,
    hours,
    ins,
    int_col,
    millis,
    minutes,
    rm,
    seconds,
    string_col,
    t,
    timestamp_col,
    wm,
)
from .config import ExecutionConfig, RetryPolicy
from .engine import PreparedQuery, StreamEngine
from .exec import DeltaChange, StateReport, StreamChange
from .io import format_script, parse_script
from .obs import (
    Histogram,
    MetricsReport,
    RecoveryStats,
    RunTelemetry,
    TraceCollector,
    TraceEvent,
)
from .obs.export import JsonLinesExporter, PrometheusExporter, make_exporter
from .plan.physical import (
    PhysicalDecision,
    TwoPhaseSplit,
    plan_physical,
    split_eligibility,
)
from .lazy import lazy_exports

# (EXPLAIN and the fault harness load when first asked for)
__getattr__ = lazy_exports(__name__, {
    ".explain": "EXPLAIN_MODES parse_explain render_explain",
    ".runtime.faults": "FaultPlan FaultSpec",
})

__version__ = "6.1.0"

__all__ = [
    "StreamEngine",
    "PreparedQuery",
    "ExecutionConfig",
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
    "RecoveryStats",
    "StreamChange",
    "DeltaChange",
    "StateReport",
    "MetricsReport",
    "Histogram",
    "RunTelemetry",
    "TraceEvent",
    "TraceCollector",
    "JsonLinesExporter",
    "PrometheusExporter",
    "make_exporter",
    "parse_script",
    "format_script",
    # explain API (stable)
    "EXPLAIN_MODES",
    "parse_explain",
    "render_explain",
    # physical aggregation planning (provisional)
    "PhysicalDecision",
    "TwoPhaseSplit",
    "plan_physical",
    "split_eligibility",
    # re-exported core API
    "Timestamp",
    "Duration",
    "MIN_TIMESTAMP",
    "MAX_TIMESTAMP",
    "millis",
    "seconds",
    "minutes",
    "hours",
    "days",
    "t",
    "fmt_time",
    "fmt_duration",
    "SqlType",
    "Column",
    "Schema",
    "int_col",
    "float_col",
    "string_col",
    "bool_col",
    "timestamp_col",
    "Row",
    "Relation",
    "ChangeKind",
    "Change",
    "Changelog",
    "TimeVaryingRelation",
    "StreamEvent",
    "RowEvent",
    "WatermarkEvent",
    "ins",
    "rm",
    "wm",
    "WatermarkTrack",
    "BoundedOutOfOrderness",
    "PunctuatedWatermarks",
    "EmitSpec",
    "ReproError",
    "SqlError",
    "LexError",
    "ParseError",
    "ValidationError",
    "PlanError",
    "ExecutionError",
    "SchemaError",
    "WatermarkError",
]
