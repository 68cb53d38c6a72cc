"""``repro.service`` — continuous standing queries over live sources.

Batch mode (:meth:`repro.engine.PreparedQuery.run`) replays a recorded
time-varying relation and exits; service mode keeps admitted queries
*resident* and pushes changelog deltas to subscribers as sources
advance, with the changelog guaranteed byte-identical to a one-shot
replay of the same events.  The pieces:

* :mod:`~repro.service.admission` — the four-gate front door
  (parse / structure+ACL / quota / semantics) with structured
  rejection codes.
* :mod:`~repro.service.session` — resident dataflows, catch-up,
  checkpoint/restore.
* :mod:`~repro.service.subscriptions` — per-query fan-out: one
  broadcast log, subscriber cursors, lag-based slow-consumer eviction.
* :mod:`~repro.service.sources` — file tailing and socket feeds with
  bounded-queue backpressure.
* :mod:`~repro.service.server` — the composed service core and the
  line-JSON TCP server behind ``python -m repro serve``.
* :mod:`~repro.service.metrics` — the ``repro_service_*`` Prometheus
  families.

See ``docs/SERVICE.md`` for the architecture tour.
"""

from .admission import AdmissionError, AdmissionGateway, TenantPolicy
from .metrics import ServiceMetrics, render_service_exposition
from .server import ServiceServer, StandingQueryService, run_service
from .session import SessionManager, StandingQuery
from .sources import LiveSource, TailReader, pump, serve_socket_lines, tail_file
from .subscriptions import Delta, Subscriber, SubscriptionRegistry

__all__ = [
    "AdmissionError",
    "AdmissionGateway",
    "TenantPolicy",
    "ServiceMetrics",
    "render_service_exposition",
    "ServiceServer",
    "StandingQueryService",
    "run_service",
    "SessionManager",
    "StandingQuery",
    "LiveSource",
    "TailReader",
    "pump",
    "serve_socket_lines",
    "tail_file",
    "Delta",
    "Subscriber",
    "SubscriptionRegistry",
]
