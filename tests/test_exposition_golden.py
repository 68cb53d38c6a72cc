"""Both Prometheus renderers, pinned byte for byte.

The run exposition (:class:`~repro.obs.export.PrometheusExporter`, serial
and sharded with recovery counters) and the service exposition (what
``GET /metrics`` serves) are rendered from deterministic inputs and
compared with the text under ``tests/fixtures/exposition_*.prom``.  The
one wall-clock input, the ingest-to-push histogram, is fed from a fake
clock.  A change to either renderer that moves a byte fails here.
"""

import asyncio
import itertools
import os

from repro import ExecutionConfig, StreamEngine
from repro.core.tvr import TimeVaryingRelation
from repro.obs.export import PrometheusExporter
from repro.service import ServiceServer
from repro.service.admission import AdmissionError

from .test_mqo import Q_MAX, Q_SUM, SCHEMA, make_events, service_with_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def golden(name: str) -> str:
    with open(os.path.join(FIXTURES, name)) as handle:
        return handle.read()


def run_exposition(parallelism: int) -> str:
    exporter = PrometheusExporter()
    engine = StreamEngine(
        config=ExecutionConfig(
            parallelism=parallelism, backend="sync", telemetry=exporter
        )
    )
    engine.register_stream("S", TimeVaryingRelation(SCHEMA, make_events(40)))
    engine.query(Q_SUM).run()
    return exporter.last_text


def service_exposition(monkeypatch):
    """A service with two tenants' queries (one shared prefix), a
    rejected submit and a fake clock."""
    ticks = itertools.count()
    monkeypatch.setattr(
        "repro.service.session.time.perf_counter", lambda: next(ticks) * 7e-6
    )
    svc = service_with_source(max_queries=2)
    queries = [svc.submit("alice", Q_SUM), svc.submit("bob", Q_MAX)]
    svc.submit("alice", Q_MAX)
    try:
        svc.submit("alice", Q_SUM)
    except AdmissionError:
        pass
    for i, query in enumerate(queries):
        svc.subscribe(query.query_id, f"sub-{i}")
    for event in make_events(30):
        svc.ingest(event, "S")
    return svc


def http_metrics_body(svc) -> str:
    async def fetch():
        server = ServiceServer(svc, "127.0.0.1", 0)
        await server.start()
        http = await server.serve_http("127.0.0.1", 0)
        try:
            reader, writer = await asyncio.open_connection(*http.address)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
        finally:
            await server.stop()
        return raw.partition(b"\r\n\r\n")[2].decode()

    return asyncio.run(fetch())


def test_serial_run_exposition_is_pinned():
    assert run_exposition(1) == golden("exposition_serial.prom")


def test_sharded_run_exposition_is_pinned():
    assert run_exposition(2) == golden("exposition_sharded.prom")


def test_service_exposition_is_pinned(monkeypatch):
    svc = service_exposition(monkeypatch)
    assert svc.scrape() == golden("exposition_service.prom")
    assert http_metrics_body(svc) == golden("exposition_service.prom")
