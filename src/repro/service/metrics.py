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

from ..obs.export import Exposition
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
    out = Exposition()
    queries = session.queries()
    out.metric("repro_service_active_queries", "gauge",
               "Standing queries currently resident", len(queries))

    def per_query(
        name: str, kind: str, help_text: str, value, split: str = ""
    ) -> None:
        """One sample per query — or, with ``split`` naming one more
        label, one per entry of the dict ``value(query)`` returns."""
        out.family(name, kind, help_text)
        for query in queries:
            base = {"query": query.query_id, "tenant": query.tenant}
            if not split:
                out.sample(name, value(query), base)
                continue
            for label, number in value(query).items():
                out.sample(name, number, {**base, split: label})

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

    out.metric("repro_service_admitted_total", "counter",
               "Queries admitted through the gateway", metrics.admitted)
    out.family("repro_service_admission_rejects_total", "counter",
               "Queries rejected by the admission gateway, by structured code")
    for code in sorted(metrics.rejects):
        out.sample("repro_service_admission_rejects_total",
                   metrics.rejects[code], {"code": code})
    out.metric("repro_service_events_ingested_total", "counter",
               "Source events pushed through the resident dataflows",
               session.events_ingested)
    out.metric("repro_service_requests_total", "counter",
               "Line-JSON requests answered by the server", metrics.requests)
    out.metric("repro_service_request_batches_total", "counter",
               "Reply writes the answered requests left in",
               metrics.request_batches)
    out.metric("repro_service_push_writes_total", "counter",
               "Socket writes that carried subscriber frames",
               metrics.push_writes)
    out.metric("repro_service_queue_depth", "gauge",
               "Undrained subscriber deltas across all standing queries",
               session.queue_depth())
    out.family("repro_service_source_queue_depth", "gauge",
               "Events waiting in each live source's bounded queue")
    for name, depth in sorted((source_depths or {}).items()):
        out.sample("repro_service_source_queue_depth", depth, {"source": name})
    out.metric("repro_service_slow_evictions_total", "counter",
               "Subscribers evicted for lagging the log by more than their "
               "capacity",
               sum(q.subscriptions.evictions for q in queries))
    per_query("repro_service_state_rows", "gauge",
              "Operator-state rows resident per standing query",
              lambda q: q.state_rows())

    out.metric("repro_service_checkpoints_total", "counter",
               "Session checkpoints written to the checkpoint directory",
               session.checkpoints_taken)
    out.metric("repro_service_checkpoint_seconds", "gauge",
               "Wall seconds the most recent session checkpoint took",
               f"{session.last_checkpoint_seconds:.6f}")
    out.metric("repro_service_checkpoint_bytes_total", "counter",
               "Bytes written to checkpoint directories",
               session.checkpoint_bytes_total)
    out.metric("repro_service_resume_seconds", "gauge",
               "Wall seconds the resume from a checkpoint directory took",
               f"{session.last_resume_seconds:.6f}")
    per_query("repro_service_history_items", "gauge",
              "Changelog items per standing query, resting encoded "
              "(sealed) or resident as objects (live)",
              lambda q: q.history_items(), split="form")
    out.metric("repro_service_shared_subplans", "gauge",
               "Resident operators multicast to two or more standing queries",
               session.shared_subplans())
    out.metric("repro_service_sharing_ratio", "gauge",
               "Logical operators attached over physical operators resident",
               f"{session.sharing_ratio():.6f}")

    # Histogram families are only declared when a series exists: the
    # exposition validator (rightly) rejects a histogram TYPE comment
    # with no bucket/sum/count samples.
    if queries:
        for name, help_text, histogram in (
            ("repro_service_emit_latency_ms",
             "Root emit latency vs event-time completion, per standing query",
             lambda q: q.flow.telemetry_of(q.output_id).emit_latency),
            ("repro_service_ingest_to_push_us",
             "Microseconds from event ingest to subscriber delta push",
             lambda q: q.ingest_push),
        ):
            out.family(name, "histogram", help_text)
            for query in queries:
                out.histogram(
                    name,
                    histogram(query),
                    {"query": query.query_id, "tenant": query.tenant},
                )

    out.metric("repro_service_slow_queries_total", "counter",
               "Slow-query log entries recorded (threshold-crossing episodes)",
               session.slow_log.total)
    return out.text()
