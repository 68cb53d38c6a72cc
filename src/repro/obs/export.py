"""Pluggable telemetry exporters: JSON-lines event logs and Prometheus.

An exporter is anything with the :class:`TelemetryExporter` interface:
``on_event`` receives every :class:`~repro.obs.trace.TraceEvent` of a
run as it happens, ``export`` receives the finished
:class:`~repro.exec.executor.RunResult`, and ``close`` releases any
file handles.  :class:`~repro.engine.StreamEngine` accepts an exporter
instance — or a ``"jsonl:PATH"`` / ``"prometheus:PATH"`` spec string
resolved by :func:`make_exporter` — via its ``telemetry=`` argument and
wires it into every query execution, serial or sharded.

Two exporters ship in the box:

* :class:`JsonLinesExporter` — one JSON object per trace event, written
  as it arrives.  The log round-trips: :func:`read_events` parses it
  back into :class:`TraceEvent` objects.
* :class:`PrometheusExporter` — renders the run's
  :class:`~repro.obs.metrics.MetricsReport` (counters, gauges, and the
  latency histograms) in Prometheus text exposition format under the
  stable metric names documented in docs/OBSERVABILITY.md.

:func:`parse_exposition` is a dependency-free parser/validator for the
exposition format, used by the golden tests and the CI smoke check.
"""

from __future__ import annotations

import json
import threading
from typing import IO, Optional, Union

from .metrics import MetricsReport
from .trace import TraceEvent

__all__ = [
    "TelemetryExporter",
    "JsonLinesExporter",
    "PrometheusExporter",
    "make_exporter",
    "read_events",
    "render_exposition",
    "Exposition",
    "format_labels",
    "parse_exposition",
]


class TelemetryExporter:
    """The exporter interface; subclasses override what they need."""

    def on_event(self, event: TraceEvent) -> None:
        """Receive one trace event, in arrival order (maybe concurrently)."""

    def export(self, result) -> None:
        """Receive the finished run (a ``RunResult`` with ``metrics``)."""

    def close(self) -> None:
        """Release resources; further events are an error."""


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------


def _event_to_dict(event: TraceEvent) -> dict:
    return {
        "kind": event.kind,
        "ptime": event.ptime,
        "count": event.count,
        "value": event.value,
        "operator": event.operator,
        "shard": event.shard,
    }


def _event_from_dict(payload: dict) -> TraceEvent:
    return TraceEvent(
        kind=payload["kind"],
        ptime=payload["ptime"],
        count=payload.get("count", 0),
        value=payload.get("value"),
        operator=payload.get("operator", ""),
        shard=payload.get("shard"),
    )


class JsonLinesExporter(TelemetryExporter):
    """Append each trace event to ``target`` as one JSON object per line.

    ``target`` is a path (opened for writing) or an open text handle
    (left open on :meth:`close`).  The engine emits events from one
    thread; writes are still serialized under a lock, so an exporter
    shared by threads of the caller's own never interleaves lines.
    """

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._lock = threading.Lock()
        self.events_written = 0

    def on_event(self, event: TraceEvent) -> None:
        line = json.dumps(_event_to_dict(event), separators=(",", ":"))
        with self._lock:
            self._handle.write(line + "\n")
            self.events_written += 1

    def export(self, result) -> None:
        with self._lock:
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()


def read_events(source: Union[str, IO[str]]) -> list[TraceEvent]:
    """Parse a JSON-lines event log back into trace events."""
    if isinstance(source, str):
        with open(source) as handle:
            lines = handle.readlines()
    else:
        lines = source.readlines()
    return [
        _event_from_dict(json.loads(line))
        for line in lines
        if line.strip()
    ]


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

# The stable metric-name catalogue.  Families are (name, type, help);
# renaming any of these is a breaking change for downstream scrapers.
_OPERATOR_COUNTERS = (
    ("repro_operator_rows_out_total", "rows_out", "Changes emitted by the operator"),
    ("repro_operator_retracts_out_total", "retracts_out", "Retractions emitted by the operator"),
    ("repro_operator_late_dropped_total", "late_dropped", "Rows dropped behind the watermark"),
    ("repro_operator_expired_rows_total", "expired_rows", "State rows reclaimed by watermark cleanup"),
    ("repro_operator_wm_advances_total", "wm_advances", "Output watermark advances"),
    ("repro_operator_changes_coalesced_total", "changes_coalesced",
     "Changes dropped by intra-instant compaction"),
)
_OPERATOR_GAUGES = (
    ("repro_operator_state_rows", "state_rows", "Rows currently retained in operator state"),
    ("repro_operator_peak_state_rows", "peak_state_rows", "High-water mark of retained rows"),
    ("repro_operator_watermark_lag_ms", "watermark_lag", "Output watermark trailing the inputs, ms"),
)
_HISTOGRAMS = (
    ("repro_emit_latency_ms", "emit_latency", "Root emit latency vs event-time completion, ms"),
    ("repro_root_watermark_lag_ms", "watermark_lag", "Root emission ptime minus root watermark, ms"),
)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_labels(pairs: dict) -> str:
    """Render a Prometheus label set, escaping values."""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in pairs.items()
    )
    return "{" + inner + "}"


class Exposition:
    """Prometheus text exposition (format 0.0.4), written in order: the
    one writer behind :func:`render_exposition` and the service's
    ``/metrics`` body."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value, labels: Optional[dict] = None) -> None:
        braces = format_labels(labels) if labels else ""
        self.lines.append(f"{name}{braces} {value}")

    def metric(self, name: str, kind: str, help_text: str, value) -> None:
        """A family of one unlabelled sample."""
        self.family(name, kind, help_text)
        self.sample(name, value)

    def histogram(
        self, name: str, histogram, labels: Optional[dict] = None
    ) -> None:
        """One histogram series: cumulative buckets, then sum and count."""
        for le, cumulative in histogram.cumulative_buckets():
            bucket = {**(labels or {}), "le": le}
            self.sample(f"{name}_bucket", cumulative, bucket)
        self.sample(f"{name}_sum", histogram.sum, labels)
        self.sample(f"{name}_count", histogram.count, labels)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_exposition(report: MetricsReport) -> str:
    """A MetricsReport as Prometheus text exposition (format 0.0.4).

    Operators are labelled by their pre-order ``index`` (which makes
    every label set unique even when a plan contains two operators of
    the same name), plus the human-readable ``operator`` and ``type``.
    """
    out = Exposition()
    labels = [
        {"index": index, "operator": entry["operator"], "type": entry["type"]}
        for index, entry in enumerate(report.operators)
    ]
    out.family("repro_operator_rows_in_total", "counter",
               "Changes received by the operator, per input port")
    for base, entry in zip(labels, report.operators):
        for port, rows in enumerate(entry["rows_in"]):
            out.sample(
                "repro_operator_rows_in_total", rows, {**base, "port": port}
            )
    for kind, families in (
        ("counter", _OPERATOR_COUNTERS), ("gauge", _OPERATOR_GAUGES)
    ):
        for name, key, help_text in families:
            out.family(name, kind, help_text)
            for base, entry in zip(labels, report.operators):
                out.sample(name, entry.get(key, 0), base)

    out.family("repro_shard_routed_rows", "gauge",
               "Rows routed to each shard's scan leaves")
    for shard, rows in enumerate(report.shard_rows or []):
        out.sample("repro_shard_routed_rows", rows, {"shard": shard})

    recovery = report.recovery
    if recovery is not None:
        for name, value, help_text in (
            ("repro_recovery_shard_restarts_total", recovery.shard_restarts,
             "Supervised shard workers restarted from a checkpoint"),
            ("repro_recovery_rows_replayed_total", recovery.rows_replayed,
             "Input rows re-processed while catching restarted shards up"),
            ("repro_recovery_dedup_drops_total", recovery.dedup_drops,
             "Re-emitted output changes dropped by sequence-number dedup"),
            ("repro_recovery_wm_regressions_total", recovery.wm_regressions,
             "Restored shard watermarks clamped to already-observed values"),
        ):
            out.metric(name, "counter", help_text, value)

    telemetry = report.telemetry
    if telemetry is not None:
        for name, attr, help_text in _HISTOGRAMS:
            out.family(name, "histogram", help_text)
            out.histogram(name, getattr(telemetry, attr))
        out.metric("repro_early_emits_total", "counter",
                   "Root changes emitted before their completion time",
                   telemetry.early_emits)
    return out.text()


class PrometheusExporter(TelemetryExporter):
    """Render the finished run's metrics as Prometheus text exposition.

    Trace events are ignored (Prometheus scrapes state, not events).
    ``export`` stores the rendered text in :attr:`last_text` and, when
    a ``path`` was given, rewrites the file — the usual node-exporter
    "textfile collector" handoff.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.last_text: Optional[str] = None

    def export(self, result) -> None:
        report = result.metrics if hasattr(result, "metrics") else result
        if report is None:
            return
        self.last_text = render_exposition(report)
        if self.path is not None:
            with open(self.path, "w") as handle:
                handle.write(self.last_text)


def make_exporter(spec) -> Optional[TelemetryExporter]:
    """Resolve the engine's ``telemetry=`` argument into an exporter.

    Accepts ``None`` (telemetry recording stays on; nothing is
    exported), an exporter instance, or a spec string:
    ``"jsonl:PATH"`` or ``"prometheus:PATH"`` (``"prom:PATH"`` for
    short).
    """
    if spec is None:
        return None
    if isinstance(spec, TelemetryExporter):
        return spec
    if callable(getattr(spec, "on_event", None)) and callable(
        getattr(spec, "export", None)
    ):
        return spec  # duck-typed exporter
    if not isinstance(spec, str):
        raise ValueError(
            f"telemetry must be an exporter or a spec string, got {spec!r}"
        )
    scheme, _, path = spec.partition(":")
    if not path:
        raise ValueError(
            f"telemetry spec {spec!r} has no path; expected "
            "'jsonl:PATH' or 'prometheus:PATH'"
        )
    if scheme == "jsonl":
        return JsonLinesExporter(path)
    if scheme in ("prometheus", "prom"):
        return PrometheusExporter(path)
    raise ValueError(
        f"unknown telemetry scheme {scheme!r}; expected 'jsonl' or 'prometheus'"
    )


# ---------------------------------------------------------------------------
# a tiny exposition parser (for tests and the CI smoke check)
# ---------------------------------------------------------------------------


def parse_exposition(text: str) -> dict:
    """Parse and validate Prometheus text exposition, no deps needed.

    Returns ``{family: {"type": ..., "help": ..., "samples":
    [(metric_name, labels_dict, value), ...]}}``.  Raises
    ``ValueError`` on malformed lines, samples without a declared
    family, non-monotone histogram buckets, or histograms missing
    their ``_sum``/``_count`` series.
    """
    families: dict[str, dict] = {}

    def family_of(metric: str) -> Optional[str]:
        for suffix in ("_bucket", "_sum", "_count"):
            base = metric[: -len(suffix)] if metric.endswith(suffix) else None
            if base and base in families and families[base]["type"] == "histogram":
                return base
        return metric if metric in families else None

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4 and parts[1] == "TYPE":
                raise ValueError(f"malformed comment line: {raw!r}")
            name = parts[2]
            entry = families.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )
            if parts[1] == "TYPE":
                if entry["type"] is not None:
                    raise ValueError(f"duplicate TYPE for {name}")
                kind = parts[3]
                if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ValueError(f"unknown metric type {kind!r} for {name}")
                entry["type"] = kind
            else:
                entry["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("#"):
            continue
        metric, labels, value = _parse_sample(raw)
        base = family_of(metric)
        if base is None:
            raise ValueError(f"sample for undeclared family: {raw!r}")
        families[base]["samples"].append((metric, labels, value))

    for name, entry in families.items():
        if entry["type"] is None:
            raise ValueError(f"family {name} has samples but no TYPE")
        if entry["type"] == "histogram":
            _validate_histogram(name, entry["samples"])
    return families


def _parse_sample(raw: str) -> tuple[str, dict, float]:
    line = raw.strip()
    labels: dict[str, str] = {}
    if "{" in line:
        metric, rest = line.split("{", 1)
        body, _, tail = rest.partition("}")
        value_text = tail.strip()
        for item in _split_labels(body):
            if not item:
                continue
            key, _, quoted = item.partition("=")
            if not (quoted.startswith('"') and quoted.endswith('"')):
                raise ValueError(f"unquoted label value in {raw!r}")
            labels[key.strip()] = (
                quoted[1:-1]
                .replace("\\n", "\n")
                .replace('\\"', '"')
                .replace("\\\\", "\\")
            )
    else:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed sample line: {raw!r}")
        metric, value_text = parts
    metric = metric.strip()
    if not metric or not metric.replace("_", "").replace(":", "").isalnum():
        raise ValueError(f"malformed metric name in {raw!r}")
    try:
        value = float(value_text)
    except ValueError as exc:
        raise ValueError(f"malformed sample value in {raw!r}") from exc
    return metric, labels, value


def _split_labels(body: str) -> list[str]:
    """Split a label body on commas outside quoted values."""
    items: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            items.append("".join(current).strip())
            current = []
            continue
        current.append(char)
    if current:
        items.append("".join(current).strip())
    return items


def _validate_histogram(name: str, samples: list) -> None:
    """Validate one histogram family, per label set.

    A family may carry many series distinguished by labels other than
    ``le`` (e.g. per-query histograms labelled ``tenant``/``query``);
    each such series must independently have cumulative buckets, an
    ``+Inf`` bucket, and matching ``_sum``/``_count`` samples.
    """
    def series_key(labels: dict) -> tuple:
        return tuple(sorted((k, v) for k, v in labels.items() if k != "le"))

    buckets: dict[tuple, list] = {}
    counts: dict[tuple, float] = {}
    sums: dict[tuple, float] = {}
    for metric, labels, value in samples:
        key = series_key(labels)
        if metric == f"{name}_bucket":
            buckets.setdefault(key, []).append((labels, value))
        elif metric == f"{name}_count":
            counts[key] = value
        elif metric == f"{name}_sum":
            sums[key] = value
    if not buckets:
        raise ValueError(f"histogram {name} is missing bucket/sum/count series")
    for key, series in buckets.items():
        if key not in counts or key not in sums:
            raise ValueError(
                f"histogram {name}{dict(key)} is missing bucket/sum/count series"
            )
        last = -1.0
        saw_inf = False
        for labels, value in series:
            le = labels.get("le")
            if le is None:
                raise ValueError(f"histogram {name} bucket without le label")
            if value < last:
                raise ValueError(f"histogram {name} buckets are not cumulative")
            last = value
            saw_inf = saw_inf or le == "+Inf"
        if not saw_inf:
            raise ValueError(f"histogram {name} has no +Inf bucket")
        if series[-1][1] != counts[key]:
            raise ValueError(f"histogram {name} +Inf bucket disagrees with _count")
    for key in list(counts) + list(sums):
        if key not in buckets:
            raise ValueError(
                f"histogram {name}{dict(key)} is missing bucket/sum/count series"
            )
