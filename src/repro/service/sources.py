"""Live sources: tail files and sockets into resident dataflows.

Replay mode reads a complete recorded TVR; service mode reads a feed
that is still being written.  Two layers:

* :class:`TailReader` — synchronous, incremental file tailing built on
  :class:`repro.io.TailParser`: every :meth:`poll` picks up bytes
  appended since the last one and returns the newly completed events.
  A record caught mid-write stays buffered (the parser never sees an
  unterminated line), so tailing a file as a producer appends to it is
  safe by construction.  ``skip`` replays past the events a restored
  session already consumed (its ``source_offsets``).
* :class:`LiveSource` — the asyncio binding: a reader task feeds a
  **bounded** ``asyncio.Queue`` (``ExecutionConfig.queue_capacity``),
  so a slow consumer blocks the tailer instead of buffering without
  limit — backpressure, not OOM.  :func:`tail_file` and
  :func:`serve_socket_lines` are the two reader tasks that ship in the
  box (JSONL or script notation, decided per line by the parser).

:func:`pump` is the consumer side: it drains a set of live sources into
a :class:`~repro.service.session.SessionManager`, merging available
events in processing-time order.  Feeds must respect each source's own
processing-time order (the recorded-TVR contract); an event that would
regress the *merged* clock is dropped and counted rather than allowed
to poison every resident flow.
"""

from __future__ import annotations

import asyncio
import os
from typing import Awaitable, Callable, Optional

from ..core.schema import Schema
from ..core.tvr import StreamEvent
from ..io import TailParser

__all__ = ["TailReader", "LiveSource", "tail_file", "serve_socket_lines", "pump"]


class TailReader:
    """Incrementally read a growing feed file into stream events."""

    def __init__(
        self,
        path: str,
        schema: Optional[Schema] = None,
        skip: int = 0,
    ):
        self.path = path
        self._parser = TailParser(schema)
        self._position = 0
        self._skip = skip
        #: events returned so far (offset for session bookkeeping).
        self.events_read = 0

    @property
    def schema(self) -> Optional[Schema]:
        return self._parser.schema

    def poll(self) -> list[StreamEvent]:
        """Events completed by bytes appended since the last poll."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r") as handle:
            handle.seek(self._position)
            chunk = handle.read()
            self._position = handle.tell()
        if not chunk:
            return []
        return self._take(self._parser.feed(chunk))

    def close(self) -> list[StreamEvent]:
        """Flush a final unterminated line (end of feed, no newline coming)."""
        return self._take(self._parser.close())

    def _take(self, events: list[StreamEvent]) -> list[StreamEvent]:
        """``events`` less the ones still to skip, counted as read."""
        if self._skip:
            taken = min(self._skip, len(events))
            events = events[taken:]
            self._skip -= taken
        self.events_read += len(events)
        return events


class LiveSource:
    """One named live feed behind a bounded event queue.

    The queue holds ``(source_name, event)`` pairs; ``None`` is the
    reader's end-of-feed sentinel.  ``depth`` is the backpressure gauge
    exported as ``repro_service_source_queue_depth``.
    """

    def __init__(self, name: str, queue_capacity: int = 1024):
        self.name = name
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_capacity)
        self.finished = False
        #: feeds writing into this queue; the end sentinel posts only
        #: when the last one ends (a tail and a socket listener may
        #: legitimately share one source).
        self._producers = 1

    @property
    def depth(self) -> int:
        return self.queue.qsize()

    def add_producer(self) -> None:
        self._producers += 1

    async def put(self, event: StreamEvent) -> None:
        await self.queue.put(event)

    async def end(self) -> None:
        self._producers -= 1
        if self._producers > 0:
            return
        self.finished = True
        await self.queue.put(None)


async def tail_file(
    source: LiveSource,
    path: str,
    *,
    schema: Optional[Schema] = None,
    skip: int = 0,
    poll_interval: float = 0.05,
    follow: Callable[[], bool] = lambda: True,
) -> None:
    """Reader task: tail ``path`` into ``source``'s queue.

    Polls for appended bytes every ``poll_interval`` seconds while
    ``follow()`` is true; when following stops, flushes any final
    unterminated line and posts the end sentinel.  Puts block when the
    queue is full — that is the backpressure.
    """
    reader = TailReader(path, schema=schema, skip=skip)
    while True:
        keep_going = follow()
        for event in reader.poll():
            await source.put(event)
        if not keep_going:
            break
        await asyncio.sleep(poll_interval)
    for event in reader.close():
        await source.put(event)
    await source.end()


async def serve_socket_lines(
    source: LiveSource,
    host: str,
    port: int,
    *,
    schema: Optional[Schema] = None,
) -> asyncio.AbstractServer:
    """Reader task: accept line-oriented feed connections into a queue.

    Each connection gets its own :class:`~repro.io.TailParser` (so a
    producer can open with its own ``schema:`` line); all connections
    funnel into the one bounded queue.  Returns the listening server;
    close it to stop accepting.
    """

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        parser = TailParser(schema if schema is not None else source_schema())
        try:
            while True:
                data = await reader.readline()
                if not data:
                    break
                for event in parser.feed(data.decode("utf-8")):
                    await source.put(event)
            for event in parser.close():
                await source.put(event)
        finally:
            writer.close()

    def source_schema() -> Optional[Schema]:
        return schema

    return await asyncio.start_server(handle, host, port)


async def pump(
    sources: list[LiveSource],
    ingest: Callable[[StreamEvent, str], object],
    *,
    on_ingest: Optional[Callable[[str, StreamEvent, object], Awaitable[None]]] = None,
) -> int:
    """Drain live sources into ``ingest`` in merged processing-time order.

    Waits on every source's queue concurrently, holds at most one
    pending event per source, and always ingests the earliest-ptime
    head available — the live analogue of the executor's deterministic
    k-way replay merge.  Events that would regress the merged clock are
    dropped and counted in the returned total (the feed broke the
    recorded-TVR ordering contract; resident flows must not see it).
    Returns the number of dropped events once every source has ended.
    """
    heads: dict[str, StreamEvent] = {}
    pending: dict[str, asyncio.Task] = {}
    live = {source.name: source for source in sources}
    last_ptime: Optional[int] = None
    dropped = 0

    def ensure_tasks() -> None:
        for name, source in list(live.items()):
            if name not in heads and name not in pending:
                pending[name] = asyncio.ensure_future(source.queue.get())

    while live or heads:
        ensure_tasks()
        if pending:
            done, _ = await asyncio.wait(
                pending.values(), return_when=asyncio.FIRST_COMPLETED
            )
            for name in [n for n, task in pending.items() if task in done]:
                event = pending.pop(name).result()
                if event is None:
                    live.pop(name, None)
                else:
                    heads[name] = event
        if not heads:
            continue
        # Ingest the earliest available head; ties break by source name
        # so the merge is deterministic.
        name = min(heads, key=lambda n: (heads[n].ptime, n))
        event = heads.pop(name)
        if last_ptime is not None and event.ptime < last_ptime:
            dropped += 1
            continue
        last_ptime = event.ptime
        result = ingest(event, name)
        if on_ingest is not None:
            await on_ingest(name, event, result)
    return dropped
