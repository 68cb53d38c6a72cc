"""The standing-query service: admission, residency, fan-out, scrape.

Two layers, deliberately separated:

* :class:`StandingQueryService` — the synchronous core.  It composes a
  :class:`~repro.engine.StreamEngine` (the catalog and sources), an
  :class:`~repro.service.admission.AdmissionGateway` (the four-gate
  front door), a :class:`~repro.service.session.SessionManager` (the
  resident dataflows), and :class:`~repro.service.metrics.ServiceMetrics`
  (the ``repro_service_*`` ledger).  Everything the service can do —
  submit, subscribe, ingest, scrape, checkpoint, resume — is a plain
  method call here, which is what the tests, the shell, and the
  examples drive directly.
* :class:`ServiceServer` — the asyncio binding: a line-JSON TCP
  protocol over the core plus the live-source pump, used by
  ``python -m repro serve``.

Wire protocol (one JSON object per line, both directions)::

    → {"op": "submit", "tenant": "alice", "sql": "SELECT ..."}
    ← {"ok": true, "query": "q1", "schema": ["bidder", "total"]}
    → {"op": "subscribe", "query": "q1", "subscriber": "alice-1"}
    ← {"ok": true, "subscriber": "alice-1", "cursor": 0}
    ← {"delta": {"seq": 0, "ptime": ..., "kind": "insert", "values": [...]}}
    → {"op": "ingest", "source": "bid", "event": "{\\"ptime\\": ...}"}
    ← {"ok": true, "published": {"q1": 2}}

The request lines one read delivers are **one batch**: dispatched back
to back, their replies leave in one write, then one synchronous push
writes each streaming connection the frames it is owed — a reply always
ahead of the deltas its request caused, and no task or loop turn in
between.  A stream ends with one unsolicited line — ``{"evicted": id,
"query": q}`` for a slow consumer, ``{"closed": id, "query": q,
"reason": "withdrawn" | "unsubscribed"}`` otherwise.

A rejection is ``{"ok": false, "error": {"code": ..., "tenant": ...,
"detail": ...}}`` — the :class:`~repro.service.admission.AdmissionError`
structure verbatim, so clients can switch on ``error.code``.

When any tenant policy carries a ``token``, the gateway runs in
authenticated mode: a connection must first prove its identity ::

    → {"op": "auth", "tenant": "alice", "token": "s3cret"}
    ← {"ok": true, "tenant": "alice"}

and every later ``submit`` is attributed to the *authenticated* tenant
— a mismatched ``tenant`` field is an ``auth_denied`` rejection, which
closes the spoofing hole of trusting the request's claim outright.
Without tokens the field is trusted as before (development mode).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
from collections import deque
from typing import TYPE_CHECKING, Optional

from ..config import ExecutionConfig
from ..core.errors import ExecutionError, ReproError, ValidationError
from ..core.schema import Schema
from ..core.tvr import StreamEvent, TimeVaryingRelation
from ..engine import StreamEngine
from ..io import parse_event_line
from .admission import AdmissionError, AdmissionGateway, TenantPolicy
from .metrics import ServiceMetrics, render_service_exposition
from .session import SessionManager, StandingQuery
from .sources import LiveSource, pump, serve_socket_lines, tail_file
from .subscriptions import Subscriber

if TYPE_CHECKING:
    from .http import MetricsHttpServer

__all__ = ["StandingQueryService", "ServiceServer", "run_service"]


class StandingQueryService:
    """One service instance: gateway + session + metrics over an engine."""

    def __init__(
        self,
        engine: Optional[StreamEngine] = None,
        config: Optional[ExecutionConfig] = None,
        policies: Optional[dict[str, TenantPolicy]] = None,
        default_policy: Optional[TenantPolicy] = TenantPolicy(name="*"),
    ):
        self.engine = engine if engine is not None else StreamEngine(config=config)
        self.session = SessionManager(self.engine, config=config)
        self.gateway = AdmissionGateway(
            self.engine._catalog,
            self.engine._registry,
            policies=dict(policies or {}),
            default_policy=default_policy,
        )
        self.metrics = ServiceMetrics()
        #: live-source queue depths, refreshed by the server's pump.
        self.source_depths: dict[str, int] = {}

    @property
    def config(self) -> ExecutionConfig:
        return self.session.config

    # -- sources ------------------------------------------------------------

    def register_stream(self, name: str, tvr: TimeVaryingRelation) -> None:
        self.engine.register_stream(name, tvr)

    def register_table(self, name: str, schema_or_tvr, rows=()) -> None:
        self.engine.register_table(name, schema_or_tvr, rows)

    def source_schema(self, name: str) -> Schema:
        return self.engine.source(name).schema

    # -- the front door -----------------------------------------------------

    def submit(
        self,
        tenant: str,
        sql: str,
        query_id: Optional[str] = None,
        config: Optional[ExecutionConfig] = None,
    ) -> StandingQuery:
        """Admit ``sql`` for ``tenant`` and make it resident.

        Raises :class:`~repro.service.admission.AdmissionError` (and
        bumps the matching reject counter) when any gate refuses; an
        admitted query is caught up with all recorded history and joins
        the live ingest path.
        """
        active, state_rows = self.session.tenant_usage(tenant)
        try:
            plan = self.gateway.admit(
                tenant, sql, active_queries=active, state_rows=state_rows
            )
        except AdmissionError as exc:
            self.metrics.record_reject(exc.code)
            raise
        query = self.session.register(
            tenant, sql, plan, query_id=query_id, config=config
        )
        self.metrics.record_admitted()
        return query

    def withdraw(self, query_id: str) -> bool:
        """Drop a standing query (and all its subscribers)."""
        return self.session.unregister(query_id)

    def subscribe(
        self,
        query_id: str,
        subscriber_id: str,
        capacity: Optional[int] = None,
    ) -> Subscriber:
        query = self.session.get(query_id)
        if query is None:
            raise ExecutionError(f"no standing query {query_id!r}")
        subscriber = query.subscriptions.subscribe(subscriber_id, capacity)
        self.metrics.record_subscribe()
        return subscriber

    def unsubscribe(self, query_id: str, subscriber_id: str) -> bool:
        query = self.session.get(query_id)
        if query is None:
            return False
        return query.subscriptions.unsubscribe(subscriber_id)

    # -- the data path ------------------------------------------------------

    def ingest(self, event: StreamEvent, source: str):
        """Advance every resident query by one source event."""
        return self.session.ingest(event, source)

    def ingest_line(self, source: str, line: str):
        """Parse one feed line (script or JSONL) and ingest it."""
        parsed = parse_event_line(line, self.source_schema(source), source)
        if isinstance(parsed, Schema):
            raise ExecutionError(
                "schema lines are not ingestable; the source is already "
                "registered"
            )
        return self.ingest(parsed, source)

    def list_queries(self) -> list[dict]:
        return [query.describe() for query in self.session.queries()]

    def scrape(self) -> str:
        """The ``repro_service_*`` Prometheus exposition, one string."""
        return render_service_exposition(
            self.metrics, self.session, self.source_depths
        )

    # -- observability --------------------------------------------------------

    def explain_delta(self, query_id: str, seq: int) -> Optional[dict]:
        """Trace one subscriber delta back to its source rows, by
        replaying the recorded sources into a fresh flow of the query.

        ``None`` for a position outside the query's changelog or a
        withdrawn query; raises :class:`~repro.core.errors.ExecutionError`
        for a query never registered.  See docs/OBSERVABILITY.md for the
        result shape and what an explain costs.
        """
        return self.session.explain_delta(query_id, seq)

    def slow_queries(self) -> list[dict]:
        """The retained slow-query log entries, oldest first."""
        return self.session.slow_log.entries()

    # -- durability ---------------------------------------------------------

    def checkpoint(self, directory: Optional[str] = None) -> str:
        return self.session.checkpoint(directory)

    def resume(self, directory: Optional[str] = None) -> int:
        """Restore from a checkpoint directory if one exists.

        Re-admission runs through this service's gateway, so restored
        queries obey the *current* policies.  Returns the number of
        queries restored (0 when there is nothing to resume).
        """
        directory = directory or self.config.checkpoint_dir
        if not directory or not os.path.exists(
            os.path.join(directory, "manifest.json")
        ):
            return 0

        def admit(tenant: str, sql: str):
            return self.gateway.admit(tenant, sql)

        return self.session.restore(directory, admit)


def _line(payload: dict) -> bytes:
    """One protocol line."""
    return (json.dumps(payload) + "\n").encode("utf-8")


def _error(code: str, detail: str) -> dict:
    """A refusal of the request line itself, in the one rejection shape."""
    return {"ok": False, "error": AdmissionError(code, "", detail).as_dict()}


class _Request(dict):
    """One request object: a missing field is refused by name."""

    def __missing__(self, key: str):
        raise ValidationError(f"missing field {key!r}")


#: one subscription carried by a connection.
_Stream = tuple[StandingQuery, Subscriber]
#: longest request line served; a longer one is a ``parse_error``.
MAX_LINE = 64 * 1024
#: requests one connection has answered per loop turn, at most; what a
#: read delivered beyond that is continued after the other connections'
#: turn, so a deep pipeline delays nobody else by more than this many.
REQUESTS_PER_TURN = 64


class _Connection(asyncio.Protocol):
    """One client connection: request lines in; replies and frames out."""

    __slots__ = ("server", "transport", "tail", "requests", "writable",
                 "closing")

    def __init__(self, server: "ServiceServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        #: bytes read past the last newline; ``None`` while the rest of
        #: an over-long line is being discarded.
        self.tail: Optional[bytes] = b""
        #: complete request lines not yet answered.
        self.requests: deque[bytes] = deque()
        #: False while the transport is above its high-water mark.
        self.writable = True
        #: hang up once the backlog is answered.
        self.closing = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.requests.clear()
        self.server._detach(self)

    def data_received(self, data: bytes) -> None:
        if self.tail is None:
            # Closing with the rest of the line unread would reset the
            # connection and could lose the reply.
            if b"\n" in data:
                self.transport.close()
            return
        lines = (self.tail + data).split(b"\n")
        self.tail = lines.pop()
        self.requests.extend(lines)
        if len(self.tail) > MAX_LINE:
            self.requests.append(self.tail)  # answered "too long" in turn
            self.tail = None
        self.serve()

    def eof_received(self) -> bool:
        if self.tail:
            self.requests.append(self.tail)  # a final unterminated line
        self.tail = b""
        self.closing = True
        self.serve()
        return True  # serve() closes, once the backlog is answered

    def pause_writing(self) -> None:
        # The client is not reading: take no more requests from it and
        # push it nothing, so its lag shows where eviction looks — in
        # its cursors.
        self.writable = False
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.writable = True
        self.serve()  # the backlog, if any, then the push it was skipped by

    def serve(self) -> None:
        """Answer one batch of queued lines: the replies, then one push."""
        if not self.writable:
            return  # resume_writing() comes back here
        server, requests, transport = self.server, self.requests, self.transport
        replies: list[bytes] = []
        try:
            try:
                for _ in range(min(len(requests), REQUESTS_PER_TURN)):
                    line = requests.popleft()
                    if len(line) > MAX_LINE:
                        replies.append(_line(_error(
                            "parse_error", "request line too long")))
                        requests.clear()
                        if self.tail is not None:  # else data_received()
                            self.closing = True  # hangs up at the line's end
                        break
                    reply = server._dispatch(line, self)
                    replies.append(_line(reply))
                    published = reply.get("published")
                    if published and server._lagging(published):
                        # Subscribers must not fall behind by a whole
                        # pipelined burst: this reply, then its deltas.
                        self._reply(replies)
                        server._push()
            finally:
                self._reply(replies)
        except Exception:
            transport.close()  # this client only; the loop logs the traceback
            raise
        server._push()
        if requests:
            if self.writable:
                transport.pause_reading()
                asyncio.get_running_loop().call_soon(self.serve)
        elif self.closing:
            transport.close()
        elif self.writable:
            transport.resume_reading()

    def _reply(self, replies: list[bytes]) -> None:
        """Write (and forget) the replies gathered so far, as one buffer."""
        if replies:
            self.transport.write(b"".join(replies))
            self.server.service.metrics.record_replies(len(replies))
            replies.clear()


class ServiceServer:
    """Line-JSON TCP front end plus the live-source pump."""

    def __init__(
        self,
        service: StandingQueryService,
        host: str = "127.0.0.1",
        port: int = 7654,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: the stream table: each connection with a live stream, and its
        #: streams in subscription order.
        self._streams: dict[_Connection, list[_Stream]] = {}
        #: default subscriber ids; never reused, whatever detaches.
        self._subscriber_ids = itertools.count(1)
        self.sources: list[LiveSource] = []
        self._tail_tasks: list[asyncio.Task] = []
        #: (source, listening server) pairs from :meth:`listen_source`.
        self._socket_servers: list[
            tuple[LiveSource, asyncio.AbstractServer]
        ] = []
        self._pump_task: Optional[asyncio.Task] = None
        self._follow = True
        #: connection → authenticated tenant (token mode only).
        self._authed: dict[_Connection, str] = {}
        #: optional HTTP scrape plane (GET /metrics, GET /healthz).
        self.http: Optional[MetricsHttpServer] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )

    async def serve_http(self, host: str, port: int) -> MetricsHttpServer:
        """Open the HTTP scrape plane next to the line-JSON port.

        The source-depth gauges are refreshed on every scrape, the same
        way the line-JSON ``metrics`` op refreshes them.
        """
        from .http import MetricsHttpServer  # (loads with --metrics only)

        def scrape_with_depths() -> str:
            self._refresh_depths()
            return self.service.scrape()

        self.http = MetricsHttpServer(
            self.service, host, port, scrape=scrape_with_depths
        )
        await self.http.start()
        return self.http

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    def add_tail(
        self,
        name: str,
        path: str,
        *,
        poll_interval: float = 0.05,
    ) -> LiveSource:
        """Tail ``path`` into registered source ``name`` (resuming past
        any events a restored session already consumed)."""
        schema = self.service.source_schema(name)
        skip = self.service.session.source_offsets.get(name.lower(), 0)
        source = self._live_source(name)
        self._tail_tasks.append(
            asyncio.ensure_future(
                tail_file(
                    source,
                    path,
                    schema=schema,
                    skip=skip,
                    poll_interval=poll_interval,
                    follow=lambda: self._follow,
                )
            )
        )
        return source

    async def listen_source(self, name: str, host: str, port: int) -> LiveSource:
        """Accept line-oriented feed connections into source ``name``.

        The source must already be registered (its schema types the
        incoming lines); producers connect with plain TCP and write
        JSONL or script notation, one event per line, exactly as a
        tailed feed file would contain.
        """
        schema = self.service.source_schema(name)
        source = self._live_source(name)
        server = await serve_socket_lines(
            source, host, port, schema=schema
        )
        self._socket_servers.append((source, server))
        return source

    def _live_source(self, name: str) -> LiveSource:
        """One queue per source name: the pump merges by name, so a
        second feed for the same source (a tail plus a socket
        listener) must share the existing queue, not shadow it."""
        for source in self.sources:
            if source.name == name:
                source.add_producer()
                return source
        source = LiveSource(
            name, queue_capacity=self.service.config.queue_capacity
        )
        self.sources.append(source)
        return source

    def start_pump(self) -> asyncio.Task:
        """Start draining the live sources into the session."""

        async def flush_streams(name, event, result) -> None:
            self._refresh_depths()
            self._push()

        self._pump_task = asyncio.ensure_future(
            pump(self.sources, self.service.ingest, on_ingest=flush_streams)
        )
        return self._pump_task

    async def drain(self) -> None:
        """Stop following tails and sockets, let the pump finish."""
        self._follow = False
        for task in self._tail_tasks:
            await task
        for source, server in self._socket_servers:
            server.close()
            await server.wait_closed()
            await source.end()
        self._socket_servers = []
        if self._pump_task is not None:
            await self._pump_task
        self._refresh_depths()
        self._push()

    async def stop(self) -> None:
        for _, server in self._socket_servers:
            server.close()
            await server.wait_closed()
        self._socket_servers = []
        if self.http is not None:
            await self.http.stop()
            self.http = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def _refresh_depths(self) -> None:
        self.service.source_depths = {s.name: s.depth for s in self.sources}

    # -- protocol -----------------------------------------------------------

    def _lagging(self, query_ids) -> bool:
        """Is a live cursor on one of these queries' logs more than half
        the smallest live capacity behind?  O(queries), no subscriber is
        visited: the log keeps both numbers."""
        if not self._streams:
            return False
        get = self.service.session.get
        for query_id in query_ids:
            log = get(query_id).subscriptions
            if 2 * log.retained > log._min_capacity:
                return True
        return False

    def _detach(self, connection: _Connection) -> None:
        """The connection is gone: free its cursors, forget who it was."""
        for query, subscriber in self._streams.pop(connection, ()):
            if query.subscriptions.get(subscriber.id) is subscriber:
                query.subscriptions.unsubscribe(subscriber.id)
        self._authed.pop(connection, None)

    def _effective_tenant(self, request: dict, connection) -> str:
        """Who this request acts as, spoof-proofed in token mode.

        Without configured tokens the request's ``tenant`` field is
        trusted (development mode).  With tokens, only a connection
        that has authenticated may submit, and a ``tenant`` field that
        contradicts the authenticated identity is rejected rather than
        believed.
        """
        if not self.service.gateway.tokens_configured:
            return str(request["tenant"])
        authed = self._authed.get(connection)
        if authed is None:
            raise AdmissionError(
                "auth_denied",
                str(request.get("tenant", "")),
                "connection is not authenticated; send "
                '{"op": "auth", "tenant": ..., "token": ...} first',
            )
        claimed = request.get("tenant")
        if claimed is not None and str(claimed) != authed:
            raise AdmissionError(
                "auth_denied",
                str(claimed),
                f"request tenant {str(claimed)!r} does not match the "
                f"authenticated tenant {authed!r}",
            )
        return authed

    def _dispatch(self, line: bytes, connection: _Connection) -> dict:
        """The reply to one request line."""
        try:
            request = json.loads(line.decode("utf-8"))
        except ValueError:
            return _error("parse_error", "request is not valid JSON")
        if not isinstance(request, dict):
            return _error("parse_error", "request is not a JSON object")
        request = _Request(request)
        op = request.get("op")
        try:
            if op == "auth":
                tenant = str(request["tenant"])
                try:
                    self.service.gateway.authenticate(
                        tenant, request.get("token")
                    )
                except AdmissionError as exc:
                    self.service.metrics.record_reject(exc.code)
                    raise
                self._authed[connection] = tenant
                return {"ok": True, "tenant": tenant}
            if op == "submit":
                try:
                    tenant = self._effective_tenant(request, connection)
                except AdmissionError as exc:
                    self.service.metrics.record_reject(exc.code)
                    raise
                query = self.service.submit(
                    tenant, request["sql"],
                    query_id=request.get("query"),
                )
                return {
                    "ok": True,
                    "query": query.query_id,
                    "schema": [c.name for c in query.plan.schema.columns],
                }
            if op == "subscribe":
                query_id = request["query"]
                subscriber_id = request.get("subscriber")
                if subscriber_id is None:
                    subscriber_id = f"sub-{next(self._subscriber_ids)}"
                subscriber = self.service.subscribe(query_id, subscriber_id)
                self._streams.setdefault(connection, []).append(
                    (self.service.session.get(query_id), subscriber)
                )
                return {
                    "ok": True,
                    "subscriber": subscriber.id,
                    "cursor": subscriber.cursor,
                }
            if op == "unsubscribe":
                removed = self.service.unsubscribe(
                    request["query"], request["subscriber"]
                )
                return {"ok": True, "removed": removed}
            if op == "withdraw":
                return {"ok": True, "removed": self.service.withdraw(request["query"])}
            if op == "ingest":
                source, event = request["source"], request["event"]
                if not (isinstance(source, str) and isinstance(event, str)):
                    raise TypeError("ingest needs a string source and event")
                published = self.service.ingest_line(source, event)
                return {
                    "ok": True,
                    "published": {q: len(d) for q, d in published.items()},
                }
            if op == "queries":
                return {"ok": True, "queries": self.service.list_queries()}
            if op == "metrics":
                self._refresh_depths()
                return {"ok": True, "exposition": self.service.scrape()}
            if op == "lineage":
                seq = request["seq"]
                if type(seq) is not int:  # (not a bool, 1.9 nor 1e400)
                    raise TypeError(
                        f"lineage seq must be a JSON integer, got {seq!r}"
                    )
                explanation = self.service.explain_delta(request["query"], seq)
                return {
                    "ok": True,
                    "traced": explanation is not None,
                    "lineage": explanation,
                }
            if op == "slowlog":
                return {"ok": True, "entries": self.service.slow_queries()}
            if op == "checkpoint":
                return {"ok": True, "directory": self.service.checkpoint(
                    request.get("directory") or None)}
            if op == "ping":
                return {"ok": True}
            return _error("invalid_query", f"unknown op {op!r}")
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            if not isinstance(exc, AdmissionError):
                exc = AdmissionError.of(exc, str(request.get("tenant", "")))
            return {"ok": False, "error": exc.as_dict()}

    # -- the push plane ------------------------------------------------------

    def _push(self) -> None:
        """Write every streaming connection the frames it is owed, each
        in one write.

        Synchronous: it never waits on a socket.  A connection whose
        transport is above its high-water mark is skipped, so a client
        that stops reading accumulates lag in its cursors and is evicted
        by the ordinary slow-consumer policy.
        """
        for connection, streams in list(self._streams.items()):
            transport = connection.transport
            if not connection.writable or transport.is_closing():
                continue
            data = self._pull(streams)
            if data:
                transport.write(data)
                self.service.metrics.record_push_write()
            if not streams:
                del self._streams[connection]

    def _pull(self, streams: list[_Stream]) -> bytes:
        """Everything one connection's streams are owed, as one buffer.

        Subscribers in subscription order, each one's frames ascending
        in ``seq``.  Streams that ended — query withdrawn, subscriber
        unsubscribed (or replaced), subscriber evicted — are pruned from
        ``streams`` with one final notice line.
        """
        session = self.service.session
        chunks: list[bytes] = []
        kept: list[_Stream] = []
        for stream in streams:
            query, subscriber = stream
            if session.get(query.query_id) is not query:
                notice = {"closed": subscriber.id, "query": query.query_id,
                          "reason": "withdrawn"}
            elif query.subscriptions.get(subscriber.id) is not subscriber:
                notice = {"closed": subscriber.id, "query": query.query_id,
                          "reason": "unsubscribed"}
            elif subscriber.evicted:
                notice = {"evicted": subscriber.id, "query": query.query_id}
            else:
                chunks.append(subscriber.take_frames())
                kept.append(stream)
                continue
            chunks.append(_line(notice))
        if len(kept) != len(streams):
            streams[:] = kept
        return b"".join(chunks)


async def run_service(
    service: StandingQueryService,
    host: str,
    port: int,
    tails: dict[str, str],
    *,
    sockets: Optional[dict[str, tuple[str, int]]] = None,
    http: Optional[tuple[str, int]] = None,
    follow: bool = True,
    ready=None,
) -> ServiceServer:
    """Assemble and run one server: listen, tail, pump.

    ``tails`` maps source name → feed path; ``sockets`` maps source
    name → ``(host, port)`` to accept line-oriented feed connections
    (the ``--listen-source`` flag); ``http``, when given, is the
    ``(host, port)`` of the HTTP scrape plane (``GET /metrics`` and
    ``GET /healthz``, the ``--metrics`` flag).  With ``follow=True``
    the coroutine serves until cancelled; with ``follow=False`` it
    reads each feed to end-of-file, drains the pump, and returns (the
    CI smoke mode).  ``ready``, when given, is called with the server
    once it is listening and the pump is running.
    """
    server = ServiceServer(service, host, port)
    await server.start()
    if http is not None:
        await server.serve_http(*http)
    for name, path in tails.items():
        server.add_tail(name, path)
    for name, (src_host, src_port) in (sockets or {}).items():
        await server.listen_source(name, src_host, src_port)
    server._follow = follow
    server.start_pump()
    if ready is not None:
        ready(server)
    if follow:
        try:
            while True:
                await asyncio.sleep(3600)
        finally:
            await server.stop()
    else:
        # Like the line-JSON listener, the HTTP plane stays open after
        # the drain so callers can still scrape; ``server.stop()``
        # closes both.
        await server.drain()
    return server
