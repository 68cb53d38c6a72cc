r"""An interactive streaming-SQL shell.

Beam SQL ships an interactive shell (Appendix B.3.1); this is ours.
Backslash commands manage the catalog and the query instant, and any
other input is buffered until a ``;`` and executed as SQL::

    repro> \load Bid examples/data/paper_bids.script
    repro> \at 8:13
    repro> SELECT * FROM Bid;
    repro> SELECT ... EMIT STREAM;        -- renders the changelog

Run it with ``python -m repro``.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from .core.errors import ReproError
from .core.times import MAX_TIMESTAMP, fmt_time, t
from .engine import StreamEngine
from .explain import parse_explain
from .io import parse_script

__all__ = ["Shell"]

_HELP = """\
Commands:
  \\help               show this help
  \\tables             list registered relations
  \\schema NAME        show a relation's schema
  \\load NAME PATH     register a stream from a dataset script file
  \\save NAME PATH     write a registered relation as a dataset script
  \\at TIME            set the table-view instant (e.g. \\at 8:13)
  \\until TIME         set the stream-view horizon
  \\explain [MODE] SQL;  show the plan (MODE: logical|physical|analyze)
  \\analyze SQL;       run a query and show the plan with operator metrics
  \\watch SQL;         run a query with a live telemetry dashboard
  \\state SQL;         run a query and show per-operator state
  \\view NAME SQL;     register a view (expanded wherever referenced)
  \\subscribe TENANT SQL;  admit a standing query and subscribe to it
  \\queries            list resident standing queries
  \\pump NAME PATH     feed a recorded file through the standing queries
  \\lineage QUERY SEQ  trace a standing query's delta back to source rows
  \\quit               exit
Anything else is SQL, terminated by ';'.  Add EMIT STREAM to see the
changelog rendering instead of a table; EXPLAIN, EXPLAIN ANALYZE, and
EXPLAIN (PHYSICAL) prefixes work like their backslash commands."""


class Shell:
    """A line-oriented shell around a :class:`StreamEngine`.

    ``feed`` consumes one input line and returns the output to display
    (or ``None`` while buffering a multi-line statement), which makes
    the shell fully testable without a terminal.
    """

    def __init__(self, engine: Optional[StreamEngine] = None):
        self.engine = engine or StreamEngine()
        self.at: int | None = None
        self.until: int | None = None
        self.done = False
        self._buffer: list[str] = []
        #: where ``\watch`` writes its refreshing frames; ``run()`` points
        #: this at its stdout, tests leave it None and get the final frame.
        self.watch_sink: Optional[TextIO] = None
        #: lazily built standing-query service sharing this engine.
        self._service = None
        #: the shell's own subscriber per standing query it follows.
        self._subscribers: dict[str, object] = {}

    # -- driving ---------------------------------------------------------------

    def feed(self, line: str) -> Optional[str]:
        """Process one line of input; returns printable output or None."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("\\"):
            return self._command(stripped)
        if not stripped and not self._buffer:
            return None
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer)
            self._buffer = []
            return self._run_sql(statement)
        return None

    @property
    def prompt(self) -> str:
        return "   ...> " if self._buffer else "repro> "

    def run(self, stdin: TextIO = sys.stdin, stdout: TextIO = sys.stdout) -> None:
        """Interactive loop until EOF or ``\\quit``."""
        stdout.write("repro streaming SQL shell — \\help for help\n")
        self.watch_sink = stdout
        while not self.done:
            stdout.write(self.prompt)
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            output = self.feed(line)
            if output:
                stdout.write(output + "\n")

    # -- commands ---------------------------------------------------------------

    def _command(self, line: str) -> str:
        parts = line.split()
        name = parts[0].lower()
        args = parts[1:]
        try:
            if name in ("\\q", "\\quit", "\\exit"):
                self.done = True
                return "bye"
            if name in ("\\h", "\\help"):
                return _HELP
            if name == "\\tables":
                names = self.engine._catalog.names()
                return "\n".join(names) if names else "(no relations registered)"
            if name == "\\schema":
                if len(args) != 1:
                    return "usage: \\schema NAME"
                return str(self.engine.source(args[0]).schema)
            if name == "\\load":
                if len(args) != 2:
                    return "usage: \\load NAME PATH"
                with open(args[1]) as handle:
                    tvr = parse_script(handle.read())
                self.engine.register_stream(args[0], tvr)
                return (
                    f"registered stream {args[0]} "
                    f"({tvr.event_count} events)"
                )
            if name == "\\at":
                if not args:
                    self.at = None
                    return "table instant reset to latest"
                self.at = _parse_instant(args[0])
                return f"table views will render as of {fmt_time(self.at)}"
            if name == "\\until":
                if not args:
                    self.until = None
                    return "stream horizon reset to latest"
                self.until = _parse_instant(args[0])
                return f"stream views will render until {fmt_time(self.until)}"
            if name == "\\explain":
                rest = line.split(None, 1)[1].rstrip(";")
                head = rest.split(None, 1)
                if head and head[0].isalpha() and head[0].lower() != "select":
                    # A leading word is a mode: checked (and refused) as
                    # EXPLAIN (MODE) is.
                    rest = f"({head[0]}) {head[1]}" if len(head) > 1 else ""
                explained = rest.strip() and parse_explain(f"EXPLAIN {rest}")
                if not explained:
                    return "usage: \\explain [MODE] SELECT ...;"
                mode, sql = explained
                return self.engine.explain(sql, mode=mode)
            if name == "\\analyze":
                sql = line.split(None, 1)[1].rstrip(";")
                return self.engine.explain(sql, mode="analyze")
            if name == "\\watch":
                if len(parts) < 2:
                    return "usage: \\watch SELECT ...;"
                sql = line.split(None, 1)[1].rstrip(";")
                return self._watch(sql)
            if name == "\\save":
                if len(args) != 2:
                    return "usage: \\save NAME PATH"
                from .io import format_script

                tvr = self.engine.source(args[0])
                with open(args[1], "w") as handle:
                    handle.write(format_script(tvr))
                return f"wrote {args[0]} ({tvr.event_count} events) to {args[1]}"
            if name == "\\view":
                rest = line.split(None, 2)
                if len(rest) < 3:
                    return "usage: \\view NAME SELECT ...;"
                self.engine.register_view(rest[1], rest[2].rstrip(";"))
                return f"registered view {rest[1]}"
            if name == "\\state":
                sql = line.split(None, 1)[1].rstrip(";")
                return str(self.engine.query(sql).stats()["state_report"])
            if name == "\\subscribe":
                rest = line.split(None, 2)
                if len(rest) < 3:
                    return "usage: \\subscribe TENANT SELECT ...;"
                return self._subscribe(rest[1], rest[2].rstrip(";"))
            if name == "\\queries":
                return self._queries()
            if name == "\\pump":
                if len(args) != 2:
                    return "usage: \\pump NAME PATH"
                return self._pump(args[0], args[1])
            if name == "\\lineage":
                if len(args) != 2:
                    return "usage: \\lineage QUERY_ID SEQ"
                return self._lineage(args[0], int(args[1]))
            return f"unknown command {name} (\\help for help)"
        except (ReproError, OSError, KeyError, ValueError) as exc:
            return f"error: {exc}"

    def _watch(self, sql: str, frames: int = 8) -> str:
        """Run ``sql`` incrementally under a live telemetry dashboard.

        Events are replayed through the incremental dataflow API in the
        same same-instant runs as ``Dataflow.run()`` (so ``batch_size``
        and ``coalesce_updates`` shape the dashboard, including the
        coalesce line); every ``total/frames`` events a one-screen frame
        (rows/sec, watermark, lag percentiles, per-shard skew) is
        written to :attr:`watch_sink` with an ANSI clear so the view
        refreshes in place.  The final frame is returned either way,
        so the command is fully testable without a terminal.

        When the effective config carries a fault plan and the query is
        sharded, the run goes through the supervised batch path instead
        (faults fire, workers restart from checkpoints) and the final
        frame shows the recovery line: restarts, rows replayed, dedup
        drops.
        """
        import time

        from .obs.telemetry import render_dashboard

        query = self.engine.query(sql)
        use_sharded = (
            self.engine.parallelism > 1
            and query.partition_decision().partitionable
        )
        flow = query.sharded_dataflow() if use_sharded else query.dataflow()
        exporter = self.engine.telemetry
        if exporter is not None:
            flow.trace = exporter.on_event
        total = sum(tvr.event_count for tvr in self.engine._sources.values())
        interval = max(1, total // frames)
        start = time.perf_counter()

        def frame(done: int, final: bool) -> str:
            return render_dashboard(
                title=sql,
                events_done=done,
                events_total=total,
                rows_emitted=flow.output_size_of("main"),
                elapsed=time.perf_counter() - start,
                watermark=flow.root_watermark_of("main"),
                telemetry=flow.telemetry_of("main"),
                shard_rows=flow.shard_routed_rows() if use_sharded else None,
                recovery=getattr(flow, "recovery", None),
                coalesced=flow.changes_coalesced(),
                tenants=(
                    self._tenant_rows() if self._service is not None else None
                ),
                final=final,
            )

        sink = self.watch_sink
        supervised = use_sharded and flow.config.fault_plan is not None
        if supervised:
            # Fault injection only fires on the supervised batch path,
            # so drive the whole run at once and show the outcome frame.
            result = flow.run()
            if exporter is not None:
                exporter.export(result)
            return frame(total, final=True)
        # Both flow kinds replay through the one run iterator behind
        # run(), off the engine's prepared history, so batch_size /
        # coalesce_updates shape the dashboard exactly as they shape a
        # batch run.
        progress = flow.replay()
        next_frame = interval
        done = 0
        interrupted = False
        cursor_hidden = False
        try:
            if sink is not None:
                # Hide the cursor for the refresh loop; the finally
                # below restores it (and resets ANSI state) even when
                # the loop is interrupted, so Ctrl-C never leaves the
                # terminal cursorless or mid-escape.
                sink.write("\x1b[?25l")
                sink.flush()
                cursor_hidden = True
            for done in progress:
                if sink is not None and next_frame <= done < total:
                    sink.write("\x1b[2J\x1b[H" + frame(done, final=False) + "\n")
                    sink.flush()
                    next_frame = (done // interval + 1) * interval
            result = flow.finish()
            if exporter is not None:
                exporter.export(result)
            done = total
        except KeyboardInterrupt:
            interrupted = True
        finally:
            if cursor_hidden:
                sink.write("\x1b[?25h\x1b[0m")
                sink.flush()
        final = frame(done, final=True)
        if interrupted:
            final += f"\n(interrupted after {done}/{total} events)"
        return final

    # -- standing queries --------------------------------------------------------

    @property
    def service(self):
        """The shell's standing-query service (created on first use).

        Shares this shell's engine, so ``\\load``-ed relations are the
        service's catalog and ``\\pump`` advances the same sources SQL
        statements query.
        """
        if self._service is None:
            from .service import StandingQueryService

            self._service = StandingQueryService(engine=self.engine)
        return self._service

    def _subscribe(self, tenant: str, sql: str) -> str:
        from .service import AdmissionError

        try:
            query = self.service.submit(tenant, sql)
        except AdmissionError as exc:
            return f"rejected [{exc.code}]: {exc.detail}"
        subscriber = self.service.subscribe(
            query.query_id, f"shell-{query.query_id}"
        )
        self._subscribers[query.query_id] = subscriber
        info = query.describe()
        return (
            f"admitted {query.query_id} for tenant {tenant} "
            f"({info['runtime']}); subscribed from seq {subscriber.cursor}"
        )

    def _queries(self) -> str:
        if self._service is None or not self.service.list_queries():
            return "(no standing queries)"
        lines = []
        for info in self.service.list_queries():
            shared = info.get("shared_with") or []
            sharing = f"  shared_with={','.join(shared)}" if shared else ""
            lines.append(
                f"{info['query_id']}  tenant={info['tenant']}  "
                f"runtime={info['runtime']}  deltas={info['deltas']}  "
                f"subscribers={info['subscribers']}  "
                f"state_rows={info['state_rows']}{sharing}"
            )
            lines.append(f"    {info['sql']}")
        return "\n".join(lines)

    def _pump(self, name: str, path: str) -> str:
        """Feed a recorded file through the resident standing queries.

        The interactive stand-in for the server's live tailers: every
        event in the file advances the named source and all standing
        queries, and deltas delivered to this shell's own subscriptions
        are printed changelog-style.
        """
        from .io import TailParser

        parser = TailParser(self.engine.source(name).schema)
        with open(path) as handle:
            events = parser.feed(handle.read())
        events += parser.close()
        published = 0
        for event in events:
            for deltas in self.service.ingest(event, name).values():
                published += len(deltas)
        printed: list[str] = []
        for query_id, subscriber in self._subscribers.items():
            for delta in subscriber.take():
                info = delta.as_dict()
                printed.append(
                    f"{query_id} #{info['seq']} {fmt_time(info['ptime'])} "
                    f"{info['kind']} {tuple(info['values'])}"
                )
        header = f"pumped {len(events)} events; {published} deltas published"
        return "\n".join([header] + printed)

    def _lineage(self, query_id: str, seq: int) -> str:
        """Render one delta's provenance: source rows, then the path."""
        if self._service is None:
            return "(no standing queries; \\subscribe first)"
        explanation = self.service.explain_delta(query_id, seq)
        if explanation is None:
            return f"{query_id} #{seq}: not traced (no such delta)"
        lines = [
            f"{query_id} #{seq}  trace={explanation['trace_id']}",
            "source rows:",
        ]
        for row in explanation["sources"]:
            if row["kind"] == "watermark":
                lines.append(
                    f"  {row['source']} seq={row['seq']} "
                    f"watermark→{fmt_time(row['values'])} "
                    f"@{fmt_time(row['ptime'])}"
                )
            else:
                lines.append(
                    f"  {row['source']} seq={row['seq']} "
                    f"{tuple(row['values'])} @{fmt_time(row['ptime'])}"
                )
        lines.append("path:")
        for step in explanation["path"]:
            where = f" [shard {step['shard']}]" if step["shard"] is not None else ""
            shared = (
                f" [shared ×{step['shared_by']}]" if step["shared_by"] > 1 else ""
            )
            lines.append(
                f"  {step['operator']}{where}{shared} "
                f"→ {step['produced']} change(s)"
            )
        return "\n".join(lines)

    def _tenant_rows(self) -> list[dict]:
        """Per-tenant service health for the \\watch dashboard."""
        by_tenant: dict[str, dict] = {}
        for query in self.service.session.queries():
            row = by_tenant.setdefault(
                query.tenant,
                {"tenant": query.tenant, "queries": 0, "deltas": 0,
                 "emit": []},
            )
            row["queries"] += 1
            row["deltas"] += query.subscriptions.delivered
            row["emit"].append(
                query.flow.telemetry_of(query.output_id).emit_latency
            )
        from .obs.histogram import Histogram

        out = []
        for tenant in sorted(by_tenant):
            row = by_tenant.pop(tenant)
            merged = Histogram.merged(row.pop("emit"))
            row["p99_emit_ms"] = merged.percentile(0.99)
            out.append(row)
        return out

    def _run_sql(self, sql: str) -> str:
        try:
            statement = sql.strip().rstrip(";").strip()
            explained = parse_explain(statement)
            if explained is not None:
                mode, inner = explained
                return self.engine.explain(inner, mode=mode)
            query = self.engine.query(sql)
            if query.emit.stream:
                until = self.until if self.until is not None else MAX_TIMESTAMP
                return query.stream_table(until=until).to_table()
            at = self.at if self.at is not None else MAX_TIMESTAMP
            return query.table(at=at).to_table()
        except ReproError as exc:
            return f"error: {exc}"


def _parse_instant(text: str) -> int:
    if ":" in text:
        return t(text)
    return int(text)
