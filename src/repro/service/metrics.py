"""Service-level observability: the ``repro_service_*`` metric families.

The per-run metrics layer (:mod:`repro.obs`) describes *one execution*;
a long-lived service needs the complementary view — how many queries
are resident, how many consumers hang off them, how fast deltas flow,
and what admission is turning away.  :class:`ServiceMetrics` is that
ledger, and :func:`render_service_exposition` renders it (plus live
gauges read off the session manager) in Prometheus text format, ready
to be concatenated with the per-query expositions the existing
:class:`~repro.obs.export.PrometheusExporter` produces.

Families (stable names — renaming is a breaking change for scrapers):

* ``repro_service_active_queries`` (gauge) — resident standing queries.
* ``repro_service_subscribers`` (gauge) — live subscribers, per query.
* ``repro_service_delivered_deltas_total`` (counter) — deltas made
  available to live subscribers (published deltas × live subscribers),
  per query.
* ``repro_service_encoded_frames_total`` (counter) — wire frames
  encoded, per query: at most one per published delta however many
  subscribers read it, and none while only in-process consumers listen.
* ``repro_service_log_retained`` (gauge) — deltas the query's broadcast
  log currently holds (log head minus the slowest live cursor).
* ``repro_service_admission_rejects_total`` (counter) — rejections,
  labelled by structured ``code``.
* ``repro_service_admitted_total`` (counter) — queries admitted.
* ``repro_service_events_ingested_total`` (counter) — source events
  pushed through the resident flows.
* ``repro_service_requests_total`` (counter) — line-JSON requests the
  server answered.
* ``repro_service_request_batches_total`` (counter) — reply writes those
  answers left in; requests ÷ batches is the mean batch size (1 with a
  client that waits for each reply, the pipeline depth with one that
  does not).
* ``repro_service_push_writes_total`` (counter) — socket writes that
  carried subscriber frames (one per streaming connection per push).
* ``repro_service_queue_depth`` (gauge) — undrained subscriber deltas
  (the fan-out backpressure signal).
* ``repro_service_source_queue_depth`` (gauge) — events waiting in the
  live sources' bounded queues, per source.
* ``repro_service_slow_evictions_total`` (counter) — subscribers
  evicted for lagging the log head by more than their capacity.
* ``repro_service_checkpoints_total`` (counter) — session checkpoints
  taken.
* ``repro_service_checkpoint_seconds`` (gauge) — wall time of the most
  recent session checkpoint (an incremental cut tracks events since
  the previous cut, not history).
* ``repro_service_checkpoint_bytes_total`` (counter) — bytes written to
  checkpoint directories.
* ``repro_service_resume_seconds`` (gauge) — wall time the session's
  resume from a checkpoint directory took (0 when started cold); tracks
  operator state and query count, not history.
* ``repro_service_history_items`` (gauge) — changelog items per query,
  by ``form``: ``sealed`` (encoded segments behind the last cut or
  restore) or ``live`` (resident ``Change`` objects).
* ``repro_service_shared_subplans`` (gauge) — resident operators
  multicast to two or more standing queries (multi-query optimization).
* ``repro_service_sharing_ratio`` (gauge) — logical operators attached
  ÷ physical operators resident; 1.0 means no sharing.
* ``repro_service_emit_latency_ms`` (histogram) — root emit latency vs
  event-time completion, per standing query (``tenant``/``query``
  labels).
* ``repro_service_ingest_to_push_us`` (histogram) — microseconds from
  an event entering :meth:`SessionManager.ingest` to the query's new
  deltas being appended to its broadcast log, per standing query.
* ``repro_service_slow_queries_total`` (counter) — slow-query-log
  entries recorded (threshold-crossing episodes, not per-event spam).
* ``repro_service_lineage_sampled_total`` / ``_dropped_total``
  (counters) and ``repro_service_lineage_traces`` (gauge) — delta
  provenance tracing volume, when lineage is enabled.

The **slow-query log** (:class:`SlowQueryLog`) is the structured
companion to the histograms: whenever a standing query's p99 emit
latency or undrained subscriber depth crosses its configured threshold
(``slow_query_p99_ms`` / ``slow_query_depth``), one JSON-ready entry
``{"query", "tenant", "reason", "value", "threshold", "at_event"}`` is
recorded — once per *episode* (the crossing edge), so a persistently
slow query produces one entry, not one per ingested event.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..obs.export import format_labels
from ..obs.histogram import Histogram
from .admission import REJECT_CODES

if TYPE_CHECKING:
    from .session import SessionManager

__all__ = ["ServiceMetrics", "SlowQueryLog", "render_service_exposition"]


class SlowQueryLog:
    """A bounded, structured log of standing-query threshold crossings.

    Entries are recorded on the *rising edge*: a query enters an
    episode when ``value`` reaches ``threshold`` and leaves it when the
    value drops back below, so the log records incidents rather than
    repeating one slow query every event.  ``at_event`` is the
    session's ingested-event count — a logical clock, so tests and
    replays are deterministic.  At most ``max_entries`` entries are
    retained (oldest evicted); :attr:`total` counts all entries ever
    recorded.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._ring: deque[dict] = deque(maxlen=max_entries)
        self.total = 0
        self._active: set[tuple[str, str]] = set()

    def update(
        self,
        query_id: str,
        tenant: str,
        reason: str,
        value: int,
        threshold: int,
        at_event: int,
    ) -> Optional[dict]:
        """Fold one observation in; returns the new entry on a rising edge."""
        key = (query_id, reason)
        if value < threshold:
            self._active.discard(key)
            return None
        if key in self._active:
            return None
        self._active.add(key)
        entry = {
            "query": query_id,
            "tenant": tenant,
            "reason": reason,
            "value": value,
            "threshold": threshold,
            "at_event": at_event,
        }
        self._ring.append(entry)
        self.total += 1
        return entry

    def forget(self, query_id: str) -> None:
        """Close any open episodes of a withdrawn query."""
        self._active = {k for k in self._active if k[0] != query_id}

    def entries(self) -> list[dict]:
        """The retained entries, oldest first (JSON-ready dicts)."""
        return [dict(entry) for entry in self._ring]


class ServiceMetrics:
    """Monotonic counters of one service's lifetime."""

    def __init__(self) -> None:
        self.admitted = 0
        self.rejects: dict[str, int] = {code: 0 for code in REJECT_CODES}
        self.subscribes = 0
        #: the line-JSON server's loop: requests answered, the reply
        #: writes they left in, and writes of subscriber frames.
        self.requests = 0
        self.request_batches = 0
        self.push_writes = 0

    def record_admitted(self) -> None:
        self.admitted += 1

    def record_reject(self, code: str) -> None:
        self.rejects[code] = self.rejects.get(code, 0) + 1

    def record_subscribe(self) -> None:
        self.subscribes += 1

    def record_replies(self, count: int) -> None:
        """``count`` requests were answered with one write."""
        self.requests += count
        self.request_batches += 1

    def record_push_write(self) -> None:
        self.push_writes += 1

    @property
    def rejected_total(self) -> int:
        return sum(self.rejects.values())


def render_service_exposition(
    metrics: ServiceMetrics,
    session: "SessionManager",
    source_depths: Optional[dict[str, int]] = None,
) -> str:
    """The service's Prometheus exposition (format 0.0.4).

    Validates with :func:`repro.obs.export.parse_exposition`; the CI
    smoke job uploads exactly this text as its scrape artifact.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    queries = session.queries()
    family("repro_service_active_queries", "gauge",
           "Standing queries currently resident")
    lines.append(f"repro_service_active_queries {len(queries)}")

    def per_query(
        name: str, kind: str, help_text: str, value, split: str = ""
    ) -> None:
        """One sample per query — or, with ``split`` naming one more
        label, one per entry of the dict ``value(query)`` returns."""
        family(name, kind, help_text)
        for query in queries:
            base = {"query": query.query_id, "tenant": query.tenant}
            if not split:
                lines.append(f"{name}{format_labels(base)} {value(query)}")
                continue
            for label, number in value(query).items():
                labels = format_labels({**base, split: label})
                lines.append(f"{name}{labels} {number}")

    per_query("repro_service_subscribers", "gauge",
              "Live subscribers attached to each standing query",
              lambda q: q.subscriptions.live_count)
    per_query("repro_service_delivered_deltas_total", "counter",
              "Changelog deltas made available to live subscribers, "
              "per standing query",
              lambda q: q.subscriptions.delivered)
    per_query("repro_service_encoded_frames_total", "counter",
              "Wire frames encoded (at most one per published delta), "
              "per standing query",
              lambda q: q.subscriptions.encoded_frames)
    per_query("repro_service_log_retained", "gauge",
              "Deltas held in each standing query's broadcast log",
              lambda q: q.subscriptions.retained)

    family("repro_service_admitted_total", "counter",
           "Queries admitted through the gateway")
    lines.append(f"repro_service_admitted_total {metrics.admitted}")

    family("repro_service_admission_rejects_total", "counter",
           "Queries rejected by the admission gateway, by structured code")
    for code in sorted(metrics.rejects):
        labels = format_labels({"code": code})
        lines.append(
            f"repro_service_admission_rejects_total{labels} "
            f"{metrics.rejects[code]}"
        )

    family("repro_service_events_ingested_total", "counter",
           "Source events pushed through the resident dataflows")
    lines.append(
        f"repro_service_events_ingested_total {session.events_ingested}"
    )

    family("repro_service_requests_total", "counter",
           "Line-JSON requests answered by the server")
    lines.append(f"repro_service_requests_total {metrics.requests}")
    family("repro_service_request_batches_total", "counter",
           "Reply writes the answered requests left in")
    lines.append(
        f"repro_service_request_batches_total {metrics.request_batches}"
    )
    family("repro_service_push_writes_total", "counter",
           "Socket writes that carried subscriber frames")
    lines.append(f"repro_service_push_writes_total {metrics.push_writes}")

    family("repro_service_queue_depth", "gauge",
           "Undrained subscriber deltas across all standing queries")
    lines.append(f"repro_service_queue_depth {session.queue_depth()}")

    family("repro_service_source_queue_depth", "gauge",
           "Events waiting in each live source's bounded queue")
    for name, depth in sorted((source_depths or {}).items()):
        labels = format_labels({"source": name})
        lines.append(f"repro_service_source_queue_depth{labels} {depth}")

    family("repro_service_slow_evictions_total", "counter",
           "Subscribers evicted for lagging the log by more than their capacity")
    evictions = sum(q.subscriptions.evictions for q in queries)
    lines.append(f"repro_service_slow_evictions_total {evictions}")

    per_query("repro_service_state_rows", "gauge",
              "Operator-state rows resident per standing query",
              lambda q: q.state_rows())

    family("repro_service_checkpoints_total", "counter",
           "Session checkpoints written to the checkpoint directory")
    lines.append(
        f"repro_service_checkpoints_total {session.checkpoints_taken}"
    )
    family("repro_service_checkpoint_seconds", "gauge",
           "Wall seconds the most recent session checkpoint took")
    lines.append(
        "repro_service_checkpoint_seconds "
        f"{session.last_checkpoint_seconds:.6f}"
    )
    family("repro_service_checkpoint_bytes_total", "counter",
           "Bytes written to checkpoint directories")
    lines.append(
        f"repro_service_checkpoint_bytes_total {session.checkpoint_bytes_total}"
    )
    family("repro_service_resume_seconds", "gauge",
           "Wall seconds the resume from a checkpoint directory took")
    lines.append(
        f"repro_service_resume_seconds {session.last_resume_seconds:.6f}"
    )
    per_query("repro_service_history_items", "gauge",
              "Changelog items per standing query, resting encoded "
              "(sealed) or resident as objects (live)",
              lambda q: q.history_items(), split="form")

    family("repro_service_shared_subplans", "gauge",
           "Resident operators multicast to two or more standing queries")
    lines.append(
        f"repro_service_shared_subplans {session.shared_subplans()}"
    )

    family("repro_service_sharing_ratio", "gauge",
           "Logical operators attached over physical operators resident")
    lines.append(
        f"repro_service_sharing_ratio {session.sharing_ratio():.6f}"
    )

    def histogram_series(name: str, base: dict, histogram: Histogram) -> None:
        for le, cumulative in histogram.cumulative_buckets():
            lines.append(
                f"{name}_bucket"
                + format_labels({**base, "le": le})
                + f" {cumulative}"
            )
        lines.append(f"{name}_sum{format_labels(base)} {histogram.sum}")
        lines.append(f"{name}_count{format_labels(base)} {histogram.count}")

    # Histogram families are only declared when a series exists: the
    # exposition validator (rightly) rejects a histogram TYPE comment
    # with no bucket/sum/count samples.
    if queries:
        family("repro_service_emit_latency_ms", "histogram",
               "Root emit latency vs event-time completion, per standing query")
        for query in queries:
            histogram_series(
                "repro_service_emit_latency_ms",
                {"query": query.query_id, "tenant": query.tenant},
                query.flow.telemetry_of(query.output_id).emit_latency,
            )
        family("repro_service_ingest_to_push_us", "histogram",
               "Microseconds from event ingest to subscriber delta push")
        for query in queries:
            histogram_series(
                "repro_service_ingest_to_push_us",
                {"query": query.query_id, "tenant": query.tenant},
                query.ingest_push,
            )

    family("repro_service_slow_queries_total", "counter",
           "Slow-query log entries recorded (threshold-crossing episodes)")
    lines.append(f"repro_service_slow_queries_total {session.slow_log.total}")

    lineage = session.lineage_summary()
    if lineage is not None:
        family("repro_service_lineage_sampled_total", "counter",
               "Source events opened as lineage traces")
        lines.append(
            f"repro_service_lineage_sampled_total {lineage['sampled']}"
        )
        family("repro_service_lineage_dropped_total", "counter",
               "Lineage traces evicted past the retention bound")
        lines.append(
            f"repro_service_lineage_dropped_total {lineage['dropped']}"
        )
        family("repro_service_lineage_traces", "gauge",
               "Lineage traces currently retained")
        lines.append(f"repro_service_lineage_traces {lineage['retained']}")
    return "\n".join(lines) + "\n"
