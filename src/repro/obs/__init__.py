"""Observability: operator metrics, latency telemetry, traces, lineage.

See :mod:`repro.obs.metrics` for the counter/report layer,
:mod:`repro.obs.histogram` / :mod:`repro.obs.telemetry` for the
latency-distribution layer, :mod:`repro.obs.trace` for the
event-callback API, :mod:`repro.obs.lineage` for delta provenance
recomputed on read, and :mod:`repro.obs.export` for the JSONL and
Prometheus exporters; docs/OBSERVABILITY.md has the user-facing
catalogue (including the stable Prometheus metric names).
"""

from .histogram import BUCKET_BOUNDS, Histogram
from .metrics import (
    MetricsRegistry,
    MetricsReport,
    OperatorCounters,
    RecoveryStats,
    merge_shard_reports,
    watermark_lag,
)
from .telemetry import RunTelemetry, render_dashboard
from .trace import TraceCollector, TraceEvent

__all__ = [
    "OperatorCounters",
    "MetricsRegistry",
    "MetricsReport",
    "RecoveryStats",
    "merge_shard_reports",
    "watermark_lag",
    "Histogram",
    "BUCKET_BOUNDS",
    "RunTelemetry",
    "render_dashboard",
    "TraceCollector",
    "TraceEvent",
]
