"""Live sources, the line-JSON server, the shell commands, the CLI.

The asyncio pieces run under ``asyncio.run`` inside ordinary pytest
functions, so no plugin is needed.
"""

import asyncio
import contextlib
import io
import json
import os
import socket
from unittest import mock

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.io import format_jsonl, format_script
from repro.service import (
    LiveSource,
    ServiceServer,
    StandingQueryService,
    TailReader,
    pump,
)
from repro.shell import Shell

WINDOWED_MAX = (
    "SELECT TB.wend, MAX(TB.price) maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) TB GROUP BY TB.wend EMIT STREAM"
)


def empty_service(bid_stream, config=None):
    svc = StandingQueryService(config=config)
    svc.register_stream("Bid", TimeVaryingRelation(bid_stream.schema))
    return svc


class TestTailReader:
    def test_reads_appended_chunks(self, bid_stream, tmp_path):
        path = tmp_path / "feed.jsonl"
        lines = format_jsonl(bid_stream).splitlines(keepends=True)
        reader = TailReader(str(path))
        assert reader.poll() == []  # file does not exist yet
        path.write_text("".join(lines[:3]))
        first = reader.poll()
        with open(path, "a") as handle:
            handle.write("".join(lines[3:]))
        rest = reader.poll() + reader.close()
        assert first + rest == bid_stream.events()

    def test_partial_final_line_buffers_until_complete(
        self, bid_stream, tmp_path
    ):
        path = tmp_path / "feed.script"
        lines = format_script(bid_stream).splitlines(keepends=True)
        reader = TailReader(str(path))
        path.write_text("".join(lines[:2]) + lines[2][:10])  # mid-write
        got = reader.poll()
        assert len(got) == 1  # the cut line stays buffered, no error
        with open(path, "a") as handle:
            handle.write(lines[2][10:] + "".join(lines[3:]))
        got += reader.poll() + reader.close()
        assert got == bid_stream.events()

    def test_skip_resumes_past_consumed_events(self, bid_stream, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(format_jsonl(bid_stream))
        reader = TailReader(str(path), skip=4)
        assert reader.poll() + reader.close() == bid_stream.events()[4:]


class TestPump:
    def test_merges_sources_by_ptime(self):
        a_events = [ins(100, (1,)), ins(300, (3,))]
        b_events = [ins(200, (2,)), ins(400, (4,))]

        async def drive():
            a, b = LiveSource("a"), LiveSource("b")
            order = []
            for source, events in ((a, a_events), (b, b_events)):
                for event in events:
                    await source.put(event)
                await source.end()
            dropped = await pump(
                [a, b], lambda event, name: order.append((event.ptime, name))
            )
            return order, dropped

        order, dropped = asyncio.run(drive())
        assert order == [(100, "a"), (200, "b"), (300, "a"), (400, "b")]
        assert dropped == 0

    def test_regressing_events_are_dropped_not_ingested(self):
        async def drive():
            source = LiveSource("s")
            for event in [ins(500, (1,)), ins(100, (2,)), ins(600, (3,))]:
                await source.put(event)
            await source.end()
            seen = []
            dropped = await pump(
                [source], lambda event, name: seen.append(event.ptime)
            )
            return seen, dropped

        seen, dropped = asyncio.run(drive())
        assert seen == [500, 600]
        assert dropped == 1


class TestServerProtocol:
    def run_session(self, service, script):
        """Start a server, run ``script(rpc, reader)``, return its result."""

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            try:
                return await script(rpc, reader, server)
            finally:
                writer.close()
                await server.stop()

        return asyncio.run(drive())

    def test_submit_subscribe_ingest_stream(self, bid_stream):
        service = empty_service(bid_stream)
        feed_lines = [
            line
            for line in format_jsonl(bid_stream).splitlines()
            if "schema" not in line
        ]

        async def script(rpc, reader, server):
            admitted = await rpc(
                {"op": "submit", "tenant": "alice", "sql": WINDOWED_MAX}
            )
            assert admitted["ok"] and admitted["schema"] == ["wend", "maxPrice"]
            sub = await rpc(
                {"op": "subscribe", "query": admitted["query"],
                 "subscriber": "a1"}
            )
            assert sub["ok"] and sub["cursor"] == 0
            rejected = await rpc(
                {"op": "submit", "tenant": "bob", "sql": "SELECT * FROM Nope"}
            )
            assert not rejected["ok"]
            assert rejected["error"]["code"] == "unknown_table"

            deltas = []
            for line in feed_lines:
                await rpc({"op": "ingest", "source": "Bid", "event": line})
                while True:
                    try:
                        raw = await asyncio.wait_for(
                            reader.readline(), timeout=0.05
                        )
                    except asyncio.TimeoutError:
                        break
                    message = json.loads(raw)
                    if "delta" in message:
                        deltas.append(message["delta"])
            listing = await rpc({"op": "queries"})
            scrape = await rpc({"op": "metrics"})
            return deltas, listing, scrape

        deltas, listing, scrape = self.run_session(service, script)

        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert [
            (d["ptime"], d["kind"], tuple(d["values"])) for d in deltas
        ] == [
            (
                c.ptime,
                "insert" if c.is_insert else "retract",
                tuple(c.values),
            )
            for c in expected
        ]
        assert [d["seq"] for d in deltas] == list(range(len(deltas)))

        assert listing["ok"] and len(listing["queries"]) == 1
        assert listing["queries"][0]["tenant"] == "alice"

        from repro.obs.export import parse_exposition

        families = parse_exposition(scrape["exposition"])
        text = scrape["exposition"]
        assert "repro_service_active_queries 1" in text
        assert 'repro_service_admission_rejects_total{code="unknown_table"} 1' in text
        assert f"repro_service_delivered_deltas_total" in text
        assert "repro_service_events_ingested_total" in text

    def test_unknown_op_and_bad_json(self, bid_stream):
        service = empty_service(bid_stream)

        async def script(rpc, reader, server):
            bad_op = await rpc({"op": "frobnicate"})
            ping = await rpc({"op": "ping"})
            return bad_op, ping

        bad_op, ping = self.run_session(service, script)
        assert not bad_op["ok"] and "unknown op" in bad_op["error"]["detail"]
        assert ping == {"ok": True}

    def test_live_tail_through_server(self, bid_stream, tmp_path):
        service = empty_service(bid_stream)
        path = tmp_path / "bids.jsonl"
        lines = format_jsonl(bid_stream).splitlines(keepends=True)
        path.write_text("".join(lines[: len(lines) // 2]))

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            query = service.submit("alice", WINDOWED_MAX)
            subscriber = service.subscribe(query.query_id, "local")
            server.add_tail("Bid", str(path), poll_interval=0.01)
            server.start_pump()
            await asyncio.sleep(0.05)
            with open(path, "a") as handle:
                handle.write("".join(lines[len(lines) // 2 :]))
            await asyncio.sleep(0.1)
            server._follow = False
            await server.drain()
            await server.stop()
            return query, subscriber

        query, subscriber = asyncio.run(drive())
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert query.flow.output_slice_of(query.output_id) == expected
        assert [d.change for d in subscriber.take()] == expected


class TestShellCommands:
    @pytest.fixture
    def loaded_shell(self, bid_stream, tmp_path):
        shell = Shell()
        schema_only = tmp_path / "schema.script"
        schema_only.write_text(
            format_script(bid_stream).splitlines(keepends=True)[0]
        )
        feed = tmp_path / "feed.jsonl"
        feed.write_text(format_jsonl(bid_stream))
        shell.feed(f"\\load Bid {schema_only}")
        return shell, str(feed)

    def test_subscribe_queries_pump_roundtrip(self, loaded_shell, bid_stream):
        shell, feed = loaded_shell
        out = shell.feed(f"\\subscribe alice {WINDOWED_MAX};")
        assert "admitted q1 for tenant alice" in out
        assert "(no standing queries)" not in shell.feed("\\queries")
        out = shell.feed(f"\\pump Bid {feed}")
        assert f"pumped {len(bid_stream.events())} events" in out
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        # one printed line per delta, after the header
        assert len(out.splitlines()) == 1 + len(expected)

    def test_subscribe_rejection_is_reported(self, loaded_shell):
        shell, _ = loaded_shell
        out = shell.feed("\\subscribe bob SELECT * FROM Secrets;")
        assert out.startswith("rejected [unknown_table]")

    def test_queries_empty(self):
        assert Shell().feed("\\queries") == "(no standing queries)"

    def test_usage_lines(self):
        shell = Shell()
        assert "usage" in shell.feed("\\subscribe onlytenant")
        assert "usage" in shell.feed("\\pump onlyname")


class TestWatchInterrupt:
    def test_ctrl_c_restores_cursor_and_prints_final_frame(self, engine):
        shell = Shell(engine)
        sink = io.StringIO()
        shell.watch_sink = sink
        original = engine.query("SELECT * FROM Bid").dataflow().process

        calls = {"n": 0}

        from repro.exec.executor import Dataflow

        real_process = Dataflow.process

        def interrupting(self, event, source):
            calls["n"] += 1
            if calls["n"] == 4:
                raise KeyboardInterrupt
            return real_process(self, event, source)

        import repro.exec.executor as executor_module

        Dataflow.process = interrupting
        try:
            out = shell._command("\\watch SELECT * FROM Bid;")
        finally:
            Dataflow.process = real_process

        assert "(interrupted after" in out
        written = sink.getvalue()
        assert written.startswith("\x1b[?25l")  # cursor hidden for the run
        assert written.endswith("\x1b[?25h\x1b[0m")  # ...and restored

    def test_uninterrupted_watch_still_returns_final_frame(self, engine):
        shell = Shell(engine)
        sink = io.StringIO()
        shell.watch_sink = sink
        out = shell._command("\\watch SELECT * FROM Bid;")
        assert "(interrupted" not in out
        written = sink.getvalue()
        assert written.startswith("\x1b[?25l")
        assert written.endswith("\x1b[?25h\x1b[0m")


class TestServeCli:
    def test_build_serve_config_carries_service_fields(self):
        from repro.__main__ import build_config, build_serve_parser

        args = build_serve_parser().parse_args(
            [
                "--queue-capacity", "16",
                "--subscriber-capacity", "4",
                "--checkpoint-dir", "/tmp/ckpt",
                "--parallelism", "2",
            ]
        )
        config = build_config(args)
        assert config.queue_capacity == 16
        assert config.subscriber_capacity == 4
        assert config.checkpoint_dir == "/tmp/ckpt"
        assert config.parallelism == 2

    def test_register_recorded_bounded_vs_stream(self, bid_stream, tmp_path):
        from repro.__main__ import _register_recorded

        service = StandingQueryService()
        stream_path = tmp_path / "s.jsonl"
        stream_path.write_text(format_jsonl(bid_stream))
        count = _register_recorded(service, "Bid", str(stream_path))
        assert count == len(bid_stream.events())
        assert not service.engine.source("Bid").is_bounded

    def test_register_tail_schema_requires_schema_line(
        self, bid_stream, tmp_path
    ):
        from repro.__main__ import _register_tail_schema

        service = StandingQueryService()
        good = tmp_path / "good.jsonl"
        good.write_text(format_jsonl(bid_stream))
        _register_tail_schema(service, "Bid", str(good))
        assert service.engine.source("Bid").schema == bid_stream.schema

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ptime": 1, "insert": [1, 2, 3]}\n')
        with pytest.raises(SystemExit):
            _register_tail_schema(service, "Nope", str(bad))

    def test_load_policies_list_and_object_forms(self, tmp_path):
        from repro.__main__ import _load_policies

        as_list = tmp_path / "list.json"
        as_list.write_text(json.dumps([{"name": "alice"}]))
        policies, default = _load_policies(str(as_list))
        assert "alice" in policies and default is not None

        as_object = tmp_path / "object.json"
        as_object.write_text(
            json.dumps({"tenants": [{"name": "bob"}], "default": None})
        )
        policies, default = _load_policies(str(as_object))
        assert "bob" in policies and default is None


class TestTenantAuth:
    """Token mode closes the tenant-spoofing hole: with any token
    configured, the request's ``tenant`` field is only believed when it
    matches the connection's authenticated identity."""

    def auth_service(self, bid_stream):
        from repro.service.admission import TenantPolicy

        svc = StandingQueryService(
            policies={"alice": TenantPolicy(name="alice", token="s3cret")}
        )
        svc.register_stream("Bid", TimeVaryingRelation(bid_stream.schema))
        return svc

    def run_session(self, service, script):
        return TestServerProtocol().run_session(service, script)

    def test_unauthenticated_submit_is_rejected(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def script(rpc, reader, server):
            return await rpc(
                {"op": "submit", "tenant": "alice", "sql": WINDOWED_MAX}
            )

        response = self.run_session(service, script)
        assert not response["ok"]
        assert response["error"]["code"] == "auth_denied"
        assert service.metrics.rejects["auth_denied"] == 1

    def test_wrong_token_is_rejected(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def script(rpc, reader, server):
            return await rpc(
                {"op": "auth", "tenant": "alice", "token": "wrong"}
            )

        response = self.run_session(service, script)
        assert not response["ok"]
        assert response["error"]["code"] == "auth_denied"

    def test_tokenless_tenant_cannot_authenticate(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def script(rpc, reader, server):
            return await rpc({"op": "auth", "tenant": "mallory", "token": ""})

        response = self.run_session(service, script)
        assert not response["ok"]
        assert response["error"]["code"] == "auth_denied"
        assert "no token configured" in response["error"]["detail"]

    def test_authenticated_submit_and_spoof_rejection(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def script(rpc, reader, server):
            login = await rpc(
                {"op": "auth", "tenant": "alice", "token": "s3cret"}
            )
            own = await rpc(
                {"op": "submit", "tenant": "alice", "sql": WINDOWED_MAX}
            )
            spoofed = await rpc(
                {"op": "submit", "tenant": "bob", "sql": WINDOWED_MAX}
            )
            implicit = await rpc({"op": "submit", "sql": WINDOWED_MAX})
            return login, own, spoofed, implicit

        login, own, spoofed, implicit = self.run_session(service, script)
        assert login == {"ok": True, "tenant": "alice"}
        assert own["ok"]
        assert not spoofed["ok"]
        assert spoofed["error"]["code"] == "auth_denied"
        assert "does not match" in spoofed["error"]["detail"]
        assert implicit["ok"]  # no tenant claim: the session's identity
        queries = service.list_queries()
        assert {q["tenant"] for q in queries} == {"alice"}

    def test_auth_state_is_per_connection(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            host, port = server.address

            async def rpc(reader, writer, payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            r1, w1 = await asyncio.open_connection(host, port)
            r2, w2 = await asyncio.open_connection(host, port)
            try:
                await rpc(r1, w1, {"op": "auth", "tenant": "alice",
                                   "token": "s3cret"})
                other = await rpc(
                    r2, w2,
                    {"op": "submit", "tenant": "alice", "sql": WINDOWED_MAX},
                )
                return other
            finally:
                w1.close()
                w2.close()
                await server.stop()

        other = asyncio.run(drive())
        assert not other["ok"]
        assert other["error"]["code"] == "auth_denied"

    def test_policy_json_carries_tokens(self, tmp_path):
        from repro.__main__ import _load_policies

        path = tmp_path / "policies.json"
        path.write_text(json.dumps([{"name": "alice", "token": "s3cret"}]))
        policies, _ = _load_policies(str(path))
        assert policies["alice"].token == "s3cret"


class TestListenSource:
    def test_socket_feed_end_to_end(self, bid_stream):
        service = empty_service(bid_stream)
        feed_lines = [
            line
            for line in format_jsonl(bid_stream).splitlines()
            if "schema" not in line
        ]

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            query = service.submit("alice", WINDOWED_MAX)
            subscriber = service.subscribe(query.query_id, "local")
            await server.listen_source("Bid", "127.0.0.1", 0)
            _, sock_server = server._socket_servers[-1]
            host, port = sock_server.sockets[0].getsockname()[:2]
            server.start_pump()
            reader, writer = await asyncio.open_connection(host, port)
            for line in feed_lines:
                writer.write((line + "\n").encode())
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.1)
            server._follow = False
            await server.drain()
            await server.stop()
            return query, subscriber

        query, subscriber = asyncio.run(drive())
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert query.flow.output_slice_of(query.output_id) == expected
        assert [d.change for d in subscriber.take()] == expected

    def test_socket_and_tail_share_one_source(self, bid_stream, tmp_path):
        """A tail and a socket listener on the same source must feed
        one shared queue — the pump merges by name, so a duplicate
        LiveSource would be silently shadowed and its events lost."""
        service = empty_service(bid_stream)
        lines = format_jsonl(bid_stream).splitlines()
        schema_line, events = lines[0], lines[1:]
        half = len(events) // 2
        feed = tmp_path / "bids.jsonl"
        feed.write_text("\n".join([schema_line] + events[:half]) + "\n")

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            query = service.submit("alice", WINDOWED_MAX)
            server.add_tail("Bid", str(feed))
            await server.listen_source("Bid", "127.0.0.1", 0)
            assert len(server.sources) == 1  # one queue, two producers
            _, sock_server = server._socket_servers[-1]
            host, port = sock_server.sockets[0].getsockname()[:2]
            server.start_pump()
            await asyncio.sleep(0.2)  # the tailed half ingests first
            reader, writer = await asyncio.open_connection(host, port)
            for line in events[half:]:
                writer.write((line + "\n").encode())
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.1)
            server._follow = False
            await server.drain()
            await server.stop()
            return query

        query = asyncio.run(drive())
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert query.flow.output_slice_of(query.output_id) == expected

    def test_listen_source_requires_registered_source(self, bid_stream):
        service = empty_service(bid_stream)

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                await server.listen_source("Nope", "127.0.0.1", 0)
            finally:
                await server.stop()

        with pytest.raises(Exception):
            asyncio.run(drive())

    def test_split_listen_source_spec(self):
        from repro.__main__ import _split_listen_source

        assert _split_listen_source("Bid=0.0.0.0:9000") == (
            "Bid", "0.0.0.0", 9000
        )
        assert _split_listen_source("Bid=:9000") == ("Bid", "127.0.0.1", 9000)
        for bad in ("Bid", "Bid=localhost", "Bid=localhost:nope"):
            with pytest.raises(SystemExit) as excinfo:
                _split_listen_source(bad)
            assert "--listen-source expects NAME=HOST:PORT" in str(
                excinfo.value
            )

    def test_serve_parser_accepts_share_plans_flags(self):
        from repro.__main__ import build_config, build_serve_parser

        parser = build_serve_parser()
        on = build_config(parser.parse_args(["--share-plans"]))
        off = build_config(parser.parse_args(["--no-share-plans"]))
        unset = build_config(parser.parse_args([]))
        assert on.share_plans is True
        assert off.share_plans is False
        assert unset.share_plans is None
        assert unset.resolved().share_plans is True


# -- the push plane ------------------------------------------------------------

PASSTHROUGH = "SELECT bidtime, price, item FROM Bid EMIT STREAM"


def bid_line(n: int) -> str:
    """The n-th synthetic Bid insert as a JSONL feed line."""
    ptime = 30_000_000 + n * 1000
    return json.dumps({"ptime": ptime, "insert": [ptime, n, "x" * 40]})


async def open_rpc(server):
    """One line-JSON client connection: (rpc, reader, writer)."""
    reader, writer = await asyncio.open_connection(*server.address)

    async def rpc(payload):
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())

    return rpc, reader, writer


def with_server(service, script, timeout=60.0):
    """Run ``script(server)`` against a started server, bounded in time."""

    async def drive():
        server = ServiceServer(service, "127.0.0.1", 0)
        await server.start()
        try:
            return await asyncio.wait_for(script(server), timeout)
        finally:
            await server.stop()

    return asyncio.run(drive())


def test_stalled_subscriber_does_not_block_ingest(bid_stream):
    """Eight subscribers on a socket that stops reading must cost the
    ingesting connection nothing: its acks keep flowing, the stalled
    cursors lag past their capacity and are evicted, and a subscriber
    that does read sees every delta."""
    events = 10_000
    service = empty_service(
        bid_stream, ExecutionConfig(subscriber_capacity=256)
    )
    query = service.submit("alice", PASSTHROUGH)

    async def script(server):
        loop = asyncio.get_running_loop()
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.setblocking(False)
        await loop.sock_connect(stalled, server.address)
        try:
            received = b""
            for n in range(8):
                await loop.sock_sendall(stalled, (json.dumps(
                    {"op": "subscribe", "query": query.query_id,
                     "subscriber": f"stalled-{n}"}) + "\n").encode())
            while received.count(b"\n") < 8:
                received += await loop.sock_recv(stalled, 4096)
            # ... and from here on the stalled client never reads again.
            stalled_subscribers = [
                query.subscriptions.get(f"stalled-{n}") for n in range(8)
            ]

            healthy_rpc, healthy_reader, healthy_writer = await open_rpc(server)
            assert (await healthy_rpc(
                {"op": "subscribe", "query": query.query_id,
                 "subscriber": "healthy"}))["ok"]

            async def read_deltas():
                seqs = []
                while len(seqs) < events:
                    message = json.loads(await healthy_reader.readline())
                    assert "delta" in message, message
                    seqs.append(message["delta"]["seq"])
                return seqs

            healthy = asyncio.ensure_future(read_deltas())
            _, ingest_reader, ingest_writer = await open_rpc(server)
            ingest_writer.write("".join(
                json.dumps({"op": "ingest", "source": "Bid",
                            "event": bid_line(n)}) + "\n"
                for n in range(events)
            ).encode())
            acked = 0
            while acked < events:
                reply = json.loads(await ingest_reader.readline())
                assert reply["ok"], reply
                acked += 1
            seqs = await healthy
            ingest_writer.close()
            healthy_writer.close()
            return acked, seqs, stalled_subscribers
        finally:
            stalled.close()

    acked, seqs, stalled_subscribers = with_server(
        service, script, timeout=30.0
    )
    assert acked == events
    assert seqs == list(range(events))
    registry = query.subscriptions
    assert registry.evictions == 8
    assert all(subscriber.evicted for subscriber in stalled_subscribers)
    assert registry.encoded_frames <= events  # one encode per delta at most


def test_withdrawn_and_unsubscribed_streams_are_pruned(bid_stream):
    """Subscribe/withdraw churn must not leave entries in the stream
    table, and each ended stream gets one ``closed`` line."""
    service = empty_service(bid_stream)

    async def script(server):
        rpc, reader, writer = await open_rpc(server)
        notices = []
        for round_ in range(5):
            admitted = await rpc(
                {"op": "submit", "tenant": "alice", "sql": PASSTHROUGH}
            )
            query_id = admitted["query"]
            for name in ("keeps", "leaves"):
                assert (await rpc({"op": "subscribe", "query": query_id,
                                   "subscriber": name}))["ok"]
            assert (await rpc({"op": "unsubscribe", "query": query_id,
                               "subscriber": "leaves"}))["removed"]
            notices.append(json.loads(await reader.readline()))
            assert (await rpc({"op": "ingest", "source": "Bid",
                               "event": bid_line(round_)}))["ok"]
            assert "delta" in json.loads(await reader.readline())
            assert (await rpc({"op": "withdraw", "query": query_id}))["removed"]
            notices.append(json.loads(await reader.readline()))
            assert not server._streams
        # the connection itself is still usable after all that
        assert (await rpc({"op": "ping"})) == {"ok": True}
        writer.close()
        return notices

    notices = with_server(service, script)
    assert [n["reason"] for n in notices] == ["unsubscribed", "withdrawn"] * 5
    assert [n["closed"] for n in notices] == ["leaves", "keeps"] * 5
    assert all(n["query"] for n in notices)


def test_default_subscriber_ids_are_never_reused(bid_stream):
    service = empty_service(bid_stream)
    query = service.submit("alice", PASSTHROUGH)

    async def script(server):
        first_rpc, _, first_writer = await open_rpc(server)
        second_rpc, second_reader, second_writer = await open_rpc(server)
        subscribe = {"op": "subscribe", "query": query.query_id}
        first = (await first_rpc(subscribe))["subscriber"]
        second = (await second_rpc(subscribe))["subscriber"]
        first_writer.close()
        while len(server._streams) > 1:  # the server notices the drop
            await asyncio.sleep(0.01)
        third_rpc, third_reader, third_writer = await open_rpc(server)
        third = (await third_rpc(subscribe))["subscriber"]
        await third_rpc(
            {"op": "ingest", "source": "Bid", "event": bid_line(0)}
        )
        survivor = json.loads(await second_reader.readline())
        newcomer = json.loads(await third_reader.readline())
        second_writer.close()
        third_writer.close()
        return first, second, third, survivor, newcomer

    first, second, third, survivor, newcomer = with_server(service, script)
    assert len({first, second, third}) == 3
    assert survivor["delta"]["seq"] == newcomer["delta"]["seq"] == 0
    # the dropped connection's cursor no longer pins the log
    assert query.subscriptions.get(first) is None


def test_oversized_request_line_gets_a_parse_error(bid_stream):
    service = empty_service(bid_stream)

    async def script(server):
        reader, writer = await asyncio.open_connection(*server.address)
        writer.write(json.dumps(
            {"op": "ingest", "source": "Bid", "event": "x" * 200_000}
        ).encode() + b"\n")
        await writer.drain()
        reply = json.loads(await reader.readline())
        closed = await reader.read()  # the server hangs up cleanly
        writer.close()
        # a fresh connection is served as usual
        rpc, _, other = await open_rpc(server)
        ping = await rpc({"op": "ping"})
        other.close()
        return reply, closed, ping

    reply, closed, ping = with_server(service, script)
    assert reply["ok"] is False
    assert reply["error"]["code"] == "parse_error"
    assert reply["error"]["detail"] == "request line too long"
    assert closed == b"" and ping == {"ok": True}


def test_wire_fanout_encodes_each_delta_once(bid_stream):
    """32 subscribers on one connection: 32 lines per delta on the
    wire, one encode per delta in the server, and the scrape says so."""
    service = empty_service(bid_stream)
    query = service.submit("alice", PASSTHROUGH)

    async def script(server):
        rpc, reader, writer = await open_rpc(server)
        for n in range(32):
            await rpc({"op": "subscribe", "query": query.query_id,
                       "subscriber": f"s{n}"})
        lines = []
        for n in range(20):
            await rpc({"op": "ingest", "source": "Bid", "event": bid_line(n)})
            for _ in range(32):
                lines.append(await reader.readline())
        scrape = (await rpc({"op": "metrics"}))["exposition"]
        writer.close()
        return lines, scrape

    lines, scrape = with_server(service, script)
    assert len(lines) == 20 * 32
    for n in range(20):  # subscription order, one identical frame each
        assert len(set(lines[32 * n:32 * (n + 1)])) == 1
        assert json.loads(lines[32 * n])["delta"]["seq"] == n
    assert query.subscriptions.encoded_frames == 20
    labels = f'{{query="{query.query_id}",tenant="alice"}}'
    assert f"repro_service_encoded_frames_total{labels} 20" in scrape
    assert f"repro_service_log_retained{labels} 0" in scrape


# -- the batch contract: what a read delivered is one batch --------------------


def ingest_op(n: int) -> bytes:
    return (json.dumps(
        {"op": "ingest", "source": "Bid", "event": bid_line(n)}
    ) + "\n").encode()


class CountingTransport:
    """A server-side transport that counts its ``write`` calls."""

    def __init__(self, inner):
        self._inner = inner
        self.writes = 0

    def write(self, data):
        self.writes += 1
        self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextlib.contextmanager
def counted_connections():
    """Server connections accepted inside write through a
    :class:`CountingTransport`; yields them in accept order."""
    from repro.service import server as server_module

    connection_made = server_module._Connection.connection_made
    transports: list[CountingTransport] = []

    def counting(self, transport):
        transports.append(CountingTransport(transport))
        connection_made(self, transports[-1])

    with mock.patch.object(
        server_module._Connection, "connection_made", counting
    ):
        yield transports


async def read_lines(reader, count: int) -> list[bytes]:
    return [await reader.readline() for _ in range(count)]


def test_pipelined_burst_is_one_write_per_connection(bid_stream):
    """16 requests in one segment: one reply write, one push write, no
    task per streaming connection; 16 single sends: 16 of each."""
    service = empty_service(bid_stream)
    query = service.submit("alice", PASSTHROUGH)
    metrics = service.metrics

    async def script(server):
        tasks_before = len(asyncio.all_tasks())
        sub_rpc, sub_reader, sub_writer = await open_rpc(server)
        for n in range(32):
            await sub_rpc({"op": "subscribe", "query": query.query_id,
                           "subscriber": f"s{n}"})
        rpc, reader, writer = await open_rpc(server)
        assert await rpc({"op": "ping"}) == {"ok": True}
        assert len(asyncio.all_tasks()) == tasks_before
        subscriber_side, requester_side = transports

        def counts():
            return (requester_side.writes, subscriber_side.writes,
                    metrics.requests, metrics.request_batches,
                    metrics.push_writes)

        def since(before):
            return tuple(now - then for now, then in zip(counts(), before))

        start = counts()
        writer.write(b"".join(ingest_op(n) for n in range(16)))
        replies = await read_lines(reader, 16)
        frames = await read_lines(sub_reader, 16 * 32)
        burst, start = since(start), counts()
        for n in range(16, 32):
            replies.append(json.dumps(await rpc(
                {"op": "ingest", "source": "Bid", "event": bid_line(n)}
            )).encode() + b"\n")
            frames += await read_lines(sub_reader, 32)
        singles = since(start)
        writer.close()
        sub_writer.close()
        return burst, singles, replies, frames

    with counted_connections() as transports:
        burst, singles, replies, frames = with_server(service, script)
    # transport writes on the requester's / the subscribers' connection,
    # then the server's counters: requests, request batches, push writes
    assert burst == (1, 1, 16, 1, 1)
    assert singles == (16, 16, 16, 16, 16)
    assert all(json.loads(reply)["ok"] for reply in replies)
    assert len(frames) == 32 * 32
    assert query.subscriptions.encoded_frames == 32


def test_pipelined_and_single_ingests_push_the_same_bytes(bid_stream):
    count = 40

    def received(pipelined: bool) -> bytes:
        service = empty_service(bid_stream)
        query = service.submit("alice", PASSTHROUGH, query_id="hot")

        async def script(server):
            sub_rpc, sub_reader, sub_writer = await open_rpc(server)
            await sub_rpc({"op": "subscribe", "query": "hot",
                           "subscriber": "only"})
            rpc, reader, writer = await open_rpc(server)
            if pipelined:
                writer.write(b"".join(ingest_op(n) for n in range(count)))
                await read_lines(reader, count)
            else:
                for n in range(count):
                    await rpc({"op": "ingest", "source": "Bid",
                               "event": bid_line(n)})
            data = b"".join(await read_lines(sub_reader, count))
            writer.close()
            sub_writer.close()
            return data

        return with_server(service, script)

    assert received(pipelined=True) == received(pipelined=False)


@pytest.mark.parametrize("capacity", [256, 2])
def test_reply_precedes_the_deltas_its_request_caused(bid_stream, capacity):
    """One connection, requester and subscriber at once, 16 pipelined
    ingests: replies in request order, reply *i* before delta *i* —
    also when a small capacity makes the server push mid-batch."""
    service = empty_service(
        bid_stream, ExecutionConfig(subscriber_capacity=capacity)
    )
    query = service.submit("alice", PASSTHROUGH)

    async def script(server):
        rpc, reader, writer = await open_rpc(server)
        await rpc({"op": "subscribe", "query": query.query_id,
                   "subscriber": "self"})
        writer.write(b"".join(ingest_op(n) for n in range(16)))
        lines = [json.loads(line) for line in await read_lines(reader, 32)]
        writer.close()
        return lines

    lines = with_server(service, script)
    replies_seen = 0
    seqs = []
    for message in lines:
        if "delta" in message:
            seqs.append(message["delta"]["seq"])
            assert replies_seen > seqs[-1], lines
        else:
            assert message == {"ok": True, "published": {query.query_id: 1}}
            replies_seen += 1
    assert replies_seen == 16 and seqs == list(range(16))
    assert query.subscriptions.evictions == 0


def test_small_capacity_subscriber_survives_a_pipelined_burst(bid_stream):
    """Batching must not let a burst outrun a healthy subscriber: once a
    cursor lags by half the smallest capacity the server pushes."""
    service = empty_service(bid_stream, ExecutionConfig(subscriber_capacity=4))
    query = service.submit("alice", PASSTHROUGH)

    async def script(server):
        sub_rpc, sub_reader, sub_writer = await open_rpc(server)
        await sub_rpc({"op": "subscribe", "query": query.query_id,
                       "subscriber": "small"})
        _, reader, writer = await open_rpc(server)
        writer.write(b"".join(ingest_op(n) for n in range(64)))
        replies = await read_lines(reader, 64)
        frames = await read_lines(sub_reader, 64)
        writer.close()
        sub_writer.close()
        return replies, frames

    replies, frames = with_server(service, script)
    assert all(json.loads(reply)["ok"] for reply in replies)
    assert [json.loads(f)["delta"]["seq"] for f in frames] == list(range(64))
    assert query.subscriptions.evictions == 0


def test_deep_pipeline_does_not_starve_another_connection(bid_stream):
    """A writes 5 000 ingests in one go, B then pings: B is answered
    while A still has acks to come."""
    events = 5000
    service = empty_service(bid_stream)
    service.submit("alice", PASSTHROUGH)

    async def script(server):
        _, a_reader, a_writer = await open_rpc(server)
        b_rpc, _, b_writer = await open_rpc(server)
        acked = 0

        async def count_acks():
            nonlocal acked
            while acked < events:
                assert json.loads(await a_reader.readline())["ok"]
                acked += 1

        a_writer.write(b"".join(ingest_op(n) for n in range(events)))
        counting = asyncio.ensure_future(count_acks())
        pong = await b_rpc({"op": "ping"})
        acked_at_pong = acked
        await counting
        a_writer.close()
        b_writer.close()
        return pong, acked_at_pong

    pong, acked_at_pong = with_server(service, script)
    assert pong == {"ok": True}
    assert acked_at_pong < events


def test_a_connection_answers_a_bounded_batch_per_loop_turn(bid_stream):
    """The budget itself, exactly: one read that delivered 200 requests
    is answered ``REQUESTS_PER_TURN`` per loop turn, one write each."""
    from repro.service.server import REQUESTS_PER_TURN, _Connection

    service = empty_service(bid_stream)

    async def drive():
        transport = mock.Mock()
        connection = _Connection(ServiceServer(service))
        connection.connection_made(transport)
        connection.data_received(b'{"op": "ping"}\n' * 200)
        per_turn = []
        while connection.requests:
            per_turn.append(transport.write.call_args[0][0].count(b"\n"))
            assert transport.write.call_count == len(per_turn)
            await asyncio.sleep(0)
        per_turn.append(transport.write.call_args[0][0].count(b"\n"))
        return per_turn, transport

    per_turn, transport = asyncio.run(drive())
    full, rest = divmod(200, REQUESTS_PER_TURN)
    assert full >= 1  # or this test needs a longer read
    assert per_turn == [REQUESTS_PER_TURN] * full + [rest]
    assert transport.pause_reading.call_count == full
    assert transport.resume_reading.call_count == 1
    assert service.metrics.requests == 200
    assert service.metrics.request_batches == len(per_turn)


def test_unterminated_final_line_is_served_at_eof(bid_stream):
    service = empty_service(bid_stream)

    async def script(server):
        reader, writer = await asyncio.open_connection(*server.address)
        writer.write(b'{"op": "ping"}\n{"op": "queries"}')
        writer.write_eof()
        data = await reader.read()  # both replies, then the server's EOF
        writer.close()
        return [json.loads(line) for line in data.splitlines()]

    assert with_server(service, script) == [
        {"ok": True}, {"ok": True, "queries": []},
    ]


@pytest.mark.parametrize("payload, code", [
    ("[1, 2]", "parse_error"),
    ("3", "parse_error"),
    ('"x"', "parse_error"),
    ("null", "parse_error"),
    ('{"op": "ingest", "source": 7, "event": "x"}', "invalid_query"),
    ('{"op": "ingest", "source": "Bid", "event": 7}', "invalid_query"),
    ('{"op": "ingest", "source": "Bid", "event": {"ptime": 1}}',
     "invalid_query"),
])
def test_hostile_request_gets_a_reply_and_keeps_the_connection(
    bid_stream, payload, code
):
    """Valid JSON of the wrong shape is a client error, not a server
    one: a coded reply — behind the replies already due in its batch —
    and the same connection still answers."""
    service = empty_service(bid_stream)

    async def script(server):
        rpc, reader, writer = await open_rpc(server)
        writer.write(b'{"op": "ping"}\n' + payload.encode() + b"\n")
        before, reply = map(json.loads, await read_lines(reader, 2))
        after = await rpc({"op": "ping"})
        writer.close()
        return before, reply, after

    before, reply, after = with_server(service, script)
    assert before == after == {"ok": True}
    assert reply["ok"] is False and reply["error"]["code"] == code


def test_an_op_that_raises_costs_its_client_only_the_connection(bid_stream):
    """An exception ``_dispatch`` does not map is a server bug: the
    replies already due are still written, that one connection is
    dropped, and the server goes on serving."""
    service = empty_service(bid_stream)
    service.list_queries = mock.Mock(side_effect=RuntimeError("boom"))

    async def script(server):
        handler = mock.Mock()
        asyncio.get_running_loop().set_exception_handler(handler)
        reader, writer = await asyncio.open_connection(*server.address)
        writer.write(b'{"op": "ping"}\n{"op": "queries"}\n{"op": "ping"}\n')
        data = await reader.read()
        writer.close()
        rpc, _, other = await open_rpc(server)
        ping = await rpc({"op": "ping"})
        other.close()
        return data, ping, handler.call_args[0][1]["exception"]

    data, ping, logged = with_server(service, script)
    assert data == b'{"ok": true}\n'
    assert ping == {"ok": True}
    assert isinstance(logged, RuntimeError)
