"""The per-tenant service observability plane.

Covers, mirroring docs/SERVICE.md and docs/OBSERVABILITY.md:

* the labeled histogram families (``repro_service_emit_latency_ms``,
  ``repro_service_ingest_to_push_us``) render per query/tenant and
  validate with the exposition parser (per-labelset histogram checks);
* the structured slow-query log — rising-edge episodes, not per-event
  spam — and its ``slowlog`` wire op;
* the ``lineage`` wire op tracing a subscriber delta over the wire;
* the HTTP scrape plane: ``GET /metrics`` (parseable exposition),
  ``GET /healthz`` (JSON liveness), 404/405 fallbacks;
* the shell's ``\\lineage`` command and the ``\\watch`` tenants line.
"""

import asyncio
import json

import pytest

from repro import ExecutionConfig
from repro.core.tvr import ins, wm
from repro.obs.export import parse_exposition
from repro.service import ServiceServer
from repro.shell import Shell

from .test_mqo import (
    Q_MAX,
    Q_SUM,
    make_events,
    service_with_source,
)


def ingested_service(config=None, sqls=(Q_SUM,), events=None, subscribe=True):
    svc = service_with_source(config=config)
    queries = [svc.submit(f"tenant{i}", sql) for i, sql in enumerate(sqls)]
    if subscribe:
        for i, query in enumerate(queries):
            svc.subscribe(query.query_id, f"sub-{i}")
    for event in events if events is not None else make_events(30):
        svc.ingest(event, "S")
    return svc, queries


class TestLabeledHistograms:
    def test_per_query_families_render_and_validate(self):
        svc, queries = ingested_service(sqls=(Q_SUM, Q_MAX))
        text = svc.scrape()
        families = parse_exposition(text)  # validates per labelset
        emit = families["repro_service_emit_latency_ms"]
        assert emit["type"] == "histogram"
        labelsets = {
            (labels.get("query"), labels.get("tenant"))
            for metric, labels, _ in emit["samples"]
            if metric.endswith("_count")
        }
        assert labelsets == {
            (q.query_id, q.tenant) for q in queries
        }
        push = families["repro_service_ingest_to_push_us"]
        counts = [
            value for metric, _, value in push["samples"]
            if metric.endswith("_count")
        ]
        assert any(count > 0 for count in counts), (
            "no ingest-to-push samples recorded"
        )

    def test_emit_latency_matches_flow_telemetry(self):
        svc, (query,) = ingested_service()
        telemetry = query.flow.telemetry_of(query.output_id)
        assert query.ingest_push.count > 0
        families = parse_exposition(svc.scrape())
        samples = families["repro_service_emit_latency_ms"]["samples"]
        (count,) = [
            value for metric, labels, value in samples
            if metric.endswith("_count") and labels["query"] == query.query_id
        ]
        assert count == telemetry.emit_latency.count

    def test_histogram_families_absent_with_no_queries(self):
        svc = service_with_source()
        families = parse_exposition(svc.scrape())
        assert "repro_service_emit_latency_ms" not in families
        assert "repro_service_slow_queries_total" in families


class TestSlowQueryLog:
    def test_depth_threshold_logs_one_episode(self):
        config = ExecutionConfig(slow_query_depth=3)
        svc, (query,) = ingested_service(config=config)
        # the subscriber never drains, so depth grows past 3 and stays
        assert query.subscriptions.queue_depth() > 3
        entries = svc.slow_queries()
        assert len(entries) == 1, "episodes must not repeat per event"
        (entry,) = entries
        assert entry["query"] == query.query_id
        assert entry["reason"] == "queue_depth"
        assert entry["value"] >= entry["threshold"] == 3
        assert entry["at_event"] > 0
        assert svc.session.slow_log.total == 1

    def test_recovery_reopens_the_episode(self):
        from .test_mqo import MINUTE

        config = ExecutionConfig(slow_query_depth=2)
        svc, (query,) = ingested_service(config=config, events=[])
        subscriber = query.subscriptions.get("sub-0")
        for i in range(6):  # one speculative delta per fresh window
            svc.ingest(ins(1_000_000 + i * 1_000, (0, i * 2 * MINUTE, i)), "S")
        assert svc.session.slow_log.total == 1
        subscriber.take()  # drain: depth back under the threshold
        # a quiet watermark publishes nothing, so the next health check
        # observes the recovered depth and closes the episode
        svc.ingest(wm(1_010_000, 1), "S")
        for i in range(6):
            svc.ingest(
                ins(1_020_000 + i * 1_000, (0, (6 + i) * 2 * MINUTE, i)), "S"
            )
        assert svc.session.slow_log.total == 2  # a second episode
        reasons = [e["reason"] for e in svc.slow_queries()]
        assert reasons == ["queue_depth", "queue_depth"]

    def test_p99_threshold_uses_emit_latency(self):
        # threshold of 1ms: windowed emissions wait out the watermark,
        # so p99 emit latency is far above 1ms and the episode opens.
        config = ExecutionConfig(slow_query_p99_ms=1)
        svc, (query,) = ingested_service(config=config)
        reasons = {e["reason"] for e in svc.slow_queries()}
        assert "emit_p99_ms" in reasons

    def test_p99_check_reads_only_queries_that_published(self, monkeypatch):
        """The slow-query check used to walk every query's histogram on
        every ingest; an idle query's cannot have crossed a threshold."""
        from repro.obs.histogram import Histogram

        idle_sql = (
            "SELECT k, wend, SUM(v) AS total FROM Tumble(data => TABLE(S), "
            "timecol => DESCRIPTOR(ts), dur => INTERVAL '3' MINUTE) TS "
            "WHERE v < 0 GROUP BY k, wend EMIT STREAM"
        )
        config = ExecutionConfig(slow_query_p99_ms=1)
        svc, (busy, idle) = ingested_service(
            config=config, sqls=(Q_SUM, idle_sql), events=make_events(10)
        )
        assert idle.subscriptions.next_seq == 0  # it never published
        histograms = {
            id(q.flow.telemetry_of(q.output_id).emit_latency): q.query_id
            for q in (busy, idle)
        }
        read = []
        real = Histogram.percentile
        monkeypatch.setattr(
            Histogram, "percentile",
            lambda self, q: read.append(histograms.get(id(self)))
            or real(self, q),
        )
        for event in make_events(30)[10:]:  # (the stream, continued)
            svc.ingest(event, "S")
        assert busy.query_id in read
        assert idle.query_id not in read
        assert {e["query"] for e in svc.slow_queries()} == {busy.query_id}

    def test_thresholds_off_by_default(self):
        svc, _ = ingested_service()
        assert svc.slow_queries() == []

    def test_scrape_counts_slow_queries(self):
        config = ExecutionConfig(slow_query_depth=1)
        svc, _ = ingested_service(config=config)
        families = parse_exposition(svc.scrape())
        (sample,) = families["repro_service_slow_queries_total"]["samples"]
        assert sample[2] >= 1


class TestWireOps:
    def run_session(self, service, script):
        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(payload):  # (a str goes out as the raw line)
                if not isinstance(payload, str):
                    payload = json.dumps(payload)
                writer.write((payload + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            try:
                return await script(rpc, reader, server)
            finally:
                writer.close()
                await server.stop()

        return asyncio.run(drive())

    def test_lineage_op_traces_a_delta(self):
        svc, (query, other) = ingested_service(sqls=(Q_SUM, Q_MAX))
        svc.withdraw(other.query_id)
        size = query.flow.output_size_of(query.output_id)

        async def script(rpc, reader, server):
            traced = await rpc(
                {"op": "lineage", "query": query.query_id, "seq": 0}
            )
            missing = [
                await rpc({"op": "lineage", "query": qid, "seq": seq})
                for qid, seq in [
                    (query.query_id, 10**9), (query.query_id, size),
                    (query.query_id, -1), (other.query_id, 0),
                ]
            ]
            unknown = await rpc({"op": "lineage", "query": "nope", "seq": 0})
            return traced, missing, unknown

        traced, missing, unknown = self.run_session(svc, script)
        assert traced["ok"] and traced["traced"]
        assert traced["lineage"]["sources"]
        assert traced["lineage"]["path"]
        for reply in missing:  # past the end, negative, withdrawn
            assert reply == {"ok": True, "traced": False, "lineage": None}
        assert not unknown["ok"]
        assert unknown["error"]["code"] == "invalid_query"

    def test_a_lineage_seq_that_is_not_an_integer_keeps_the_client(self):
        """``1e400`` and ``Infinity`` parse to an infinite float that
        ``int()`` cannot take; ``1.9`` and ``true`` are not positions.
        Each is an ``invalid_query`` reply, and the connection stays."""
        svc, (query,) = ingested_service()
        bad = ["1e400", "Infinity", "1.9", "true", '"0"', "null"]

        async def script(rpc, reader, server):
            replies = [
                await rpc(
                    f'{{"op": "lineage", "query": "{query.query_id}", '
                    f'"seq": {seq}}}'
                )
                for seq in bad
            ]
            good = await rpc(
                {"op": "lineage", "query": query.query_id, "seq": 0}
            )
            return replies, good

        replies, good = self.run_session(svc, script)
        for seq, reply in zip(bad, replies):
            assert not reply["ok"], seq
            assert reply["error"]["code"] == "invalid_query", seq
        assert good["ok"] and good["traced"]

    def test_slowlog_op_returns_entries(self):
        svc, (query,) = ingested_service(
            config=ExecutionConfig(slow_query_depth=1)
        )

        async def script(rpc, reader, server):
            return await rpc({"op": "slowlog"})

        response = self.run_session(svc, script)
        assert response["ok"]
        assert response["entries"]
        assert response["entries"][0]["query"] == query.query_id


class TestHttpPlane:
    def run_http(self, service, requests):
        """Serve the HTTP plane and issue raw requests; return responses."""

        async def fetch(host, port, request):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(request.encode())
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            status = head.split(b"\r\n", 1)[0].decode()
            headers = {
                line.split(":", 1)[0].lower(): line.split(":", 1)[1].strip()
                for line in head.decode().split("\r\n")[1:]
            }
            return status, headers, body.decode()

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            http = await server.serve_http("127.0.0.1", 0)
            host, port = http.address
            try:
                return [
                    await fetch(host, port, request) for request in requests
                ]
            finally:
                await server.stop()

        return asyncio.run(drive())

    def test_metrics_endpoint_serves_parseable_exposition(self):
        svc, _ = ingested_service(sqls=(Q_SUM, Q_MAX))
        (response,) = self.run_http(
            svc, ["GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"]
        )
        status, headers, body = response
        assert status == "HTTP/1.1 200 OK"
        assert headers["content-type"].startswith("text/plain")
        assert int(headers["content-length"]) == len(body.encode())
        families = parse_exposition(body)
        assert "repro_service_active_queries" in families
        assert "repro_service_emit_latency_ms" in families
        assert body == svc.scrape()

    def test_healthz_endpoint_serves_liveness_json(self):
        svc, _ = ingested_service()
        (response,) = self.run_http(
            svc, ["GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"]
        )
        status, headers, body = response
        assert status == "HTTP/1.1 200 OK"
        assert headers["content-type"].startswith("application/json")
        document = json.loads(body)
        assert document["status"] == "ok"
        assert document["queries"] == 1
        assert document["events_ingested"] == 30
        assert document["subscribers"] == 1

    def test_unknown_route_and_method(self):
        svc, _ = ingested_service()
        responses = self.run_http(
            svc,
            [
                "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n",
                "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
            ],
        )
        assert responses[0][0] == "HTTP/1.1 404 Not Found"
        assert responses[1][0] == "HTTP/1.1 405 Method Not Allowed"

    def test_http_plane_closes_with_the_server(self):
        svc, _ = ingested_service()

        async def drive():
            server = ServiceServer(svc, "127.0.0.1", 0)
            await server.start()
            http = await server.serve_http("127.0.0.1", 0)
            host, port = http.address
            await server.stop()
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        asyncio.run(drive())


class TestShellObservability:
    def shell_with_standing_query(self):
        shell = Shell()
        from repro.core.tvr import TimeVaryingRelation

        from .test_mqo import SCHEMA

        shell.engine.register_stream("S", TimeVaryingRelation(SCHEMA))
        out = shell.feed(f"\\subscribe alice {Q_SUM};")
        assert out.startswith("admitted")
        for event in make_events(30):
            shell.service.ingest(event, "S")
        return shell

    def test_lineage_command_traces_a_delta(self):
        shell = self.shell_with_standing_query()
        query = shell.service.session.queries()[0]
        out = shell.feed(f"\\lineage {query.query_id} 0")
        assert f"{query.query_id} #0" in out
        assert "source rows:" in out
        assert "path:" in out
        assert "change(s)" in out

    def test_lineage_command_reports_untraced_and_usage(self):
        shell = self.shell_with_standing_query()
        query = shell.service.session.queries()[0]
        assert "not traced" in shell.feed(f"\\lineage {query.query_id} 99999")
        assert "not traced" in shell.feed(f"\\lineage {query.query_id} -1")
        assert "usage" in shell.feed("\\lineage q1")
        fresh = Shell()
        assert "no standing queries" in fresh.feed("\\lineage q1 0")

    def test_watch_shows_per_tenant_line(self):
        shell = self.shell_with_standing_query()
        out = shell.feed("SELECT k, v FROM S EMIT STREAM;")  # warm the engine
        assert out is not None
        frame = shell.feed(f"\\watch SELECT k, v FROM S;")
        assert "tenants   1 with standing queries" in frame
        assert "alice" in frame
        assert "1 queries" in frame
        assert "p99 emit" in frame

    def test_watch_has_no_tenant_line_without_a_service(self):
        shell = Shell()
        from repro.core.tvr import TimeVaryingRelation

        from .test_mqo import SCHEMA

        shell.engine.register_stream("S", TimeVaryingRelation(SCHEMA, make_events(10)))
        frame = shell.feed("\\watch SELECT k, v FROM S;")
        assert "tenants" not in frame
