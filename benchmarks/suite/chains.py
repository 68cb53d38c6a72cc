"""The call chains every workload is assembled from.

Each chain drives one route through the layers under ``src/repro`` by
calling public functions only, wraps every layer call in a span of the
bench's tracer (a no-op tracer on untraced runs), and returns the
timings the end-to-end metrics are built from.  Per-layer metrics are
read back from the spans, so a traced and an untraced run execute the
same code.

Span names are ``<layer>.<call>``; ``bench.*`` spans are the request
roots and their self time is the suite's own overhead.
"""

from __future__ import annotations

import json
import os
import shutil

from repro import ExecutionConfig, StreamEngine, TimeVaryingRelation
from repro.io import parse_event_line
from repro.service import StandingQueryService, TenantPolicy
from repro.sql import parse

from harness import feed, now, repeat_for

__all__ = [
    "LiveProbe",
    "io_chain",
    "new_engine",
    "recovery_chain",
    "replay_chain",
    "service_recovery_chain",
    "sharded_chain",
    "submit_chain",
]

TENANTS = ("acme", "bolt", "cyan", "dune")
CHUNK = 256  # events per throughput sample on the live path


def new_engine(streams: dict, config: ExecutionConfig) -> StreamEngine:
    engine = StreamEngine(config=config)
    for name, tvr in streams.items():
        engine.register_stream(name, tvr)
    return engine


# -- one-shot replay ---------------------------------------------------------


def replay_chain(bench, queries: dict[str, str], budget: float):
    """Serial ``parse → plan → compile → run`` of each query, round robin.

    Returns ``({query: [run seconds]}, {query: RunResult})``.
    """
    tracer, engine = bench.tracer, bench.engine
    runs: dict[str, list[float]] = {name: [] for name in queries}
    results = {}

    def one_round() -> None:
        for name, sql in queries.items():
            with tracer.span("bench.replay", name):
                with tracer.span("sql.parse", name):
                    parse(sql)
                with tracer.span("plan.plan", name):
                    query = engine.query(sql)
                with tracer.span("exec.compile", name):
                    flow = query.dataflow()
                with bench.host.stopwatch() as watch:
                    with tracer.span("exec.run", name):
                        results[name] = flow.run()
                runs[name].append(watch.seconds)

    repeat_for(budget, one_round)
    return runs, results


def sharded_chain(bench, name: str, config: ExecutionConfig, budget: float,
                  min_reps: int = 3):
    """``sharded_dataflow(config).run()`` of one query, repeated.

    A process backend gets every CPU for the duration (its workers
    inherit the affinity) and its runs are **not** host-normalised: a
    run that spans the CPUs follows neither CPU's factor (24 runs in
    the probe: quartiles 12 % apart raw, 20 % divided by the mean
    factor, 19 % by the larger).  Returns ``([run seconds], last
    RunResult)``.
    """
    tracer, host = bench.tracer, bench.host
    query = bench.engine.query(bench.spec.queries[name])
    spans_cpus = config.backend == "processes"
    last = []

    def one() -> float:
        with tracer.span("bench.sharded", name):
            with tracer.span("runtime.build", name):
                flow = query.sharded_dataflow(config)
            with host.stopwatch() as watch:
                with tracer.span("runtime.run", name):
                    last[:] = [flow.run()]
        return watch.raw_seconds if spans_cpus else watch.seconds

    if spans_cpus:
        host.pin(host.cpus)
    try:
        runs = repeat_for(budget, one, min_reps)
    finally:
        host.pin(host.home)
    return runs, last[0]


# -- the recovery drill ------------------------------------------------------


def recovery_chain(bench, name: str, budget: float, sharded=None):
    """Feed 75 %, then ``checkpoint → fresh flow → restore`` repeatedly,
    then feed the rest into the last restored flow and ``finish()``.

    ``sharded`` is the ``ExecutionConfig`` of a sharded flow, or None
    for the serial one.  Returns ``([recover seconds], finished
    RunResult, checkpoint bytes, state rows at the cut)``.
    """
    tracer = bench.tracer
    query = bench.engine.query(bench.spec.queries[name])
    batch = bench.config.batch_size

    def make_flow():
        if sharded is not None:
            return query.sharded_dataflow(sharded)
        return query.dataflow()

    events = bench.events
    cut = len(events) * 3 // 4
    flow = make_flow()
    with tracer.span("bench.drill", name):
        with tracer.span("exec.feed", name):
            feed(flow, events[:cut], batch)
    state_rows = flow.total_state_rows()
    last = []

    def one() -> float:
        with tracer.span("bench.recover", name):
            with bench.host.stopwatch() as watch:
                with tracer.span("exec.checkpoint", name):
                    blob = flow.checkpoint()
                with tracer.span("exec.compile", name):
                    fresh = make_flow()
                with tracer.span("exec.restore", name):
                    fresh.restore(blob)
        last[:] = [fresh, blob]
        return watch.seconds

    samples = repeat_for(budget, one)
    fresh, blob = last
    with tracer.span("bench.drill", name):
        with tracer.span("exec.feed", name):
            feed(fresh, events[cut:], batch)
        finished = fresh.finish()
    return samples, finished, len(blob), state_rows


# -- the resident service ----------------------------------------------------


def policies() -> dict[str, TenantPolicy]:
    return {
        tenant: TenantPolicy(
            name=tenant, max_standing_queries=64, max_state_rows=10**9
        )
        for tenant in TENANTS
    }


class LiveProbe:
    """One in-process ``StandingQueryService`` holding the workload's
    queries, fed one event per ``ingest`` by a single closed-loop caller
    that drains every subscriber after every call."""

    def __init__(self, bench, queries: dict[str, str], subscribers: int = 1):
        self.bench = bench
        self.config = bench.config.resolved()
        self.service = StandingQueryService(
            config=self.config, policies=policies()
        )
        self.schemas = {}
        for name, tvr in bench.streams.items():
            self.service.register_stream(name, TimeVaryingRelation(tvr.schema))
            self.schemas[name] = tvr.schema
        self.sql = dict(queries)
        self.subscribers = []  # (query id, Subscriber)
        self.firsts = {}  # query id -> the subscriber whose deltas are kept
        for index, (name, sql) in enumerate(queries.items()):
            with bench.tracer.span("bench.standing", name):
                with bench.tracer.span("service.submit", name):
                    self.service.submit(
                        TENANTS[index % len(TENANTS)], sql, query_id=name)
            for n in range(subscribers):
                sub = self.service.subscribe(name, f"{name}-{n}")
                self.subscribers.append((name, sub))
                self.firsts.setdefault(name, sub)
        #: every delta the first subscriber of each query received
        self.received: dict[str, list] = {name: [] for name in queries}
        #: deltas received by the other subscribers (counted, not kept)
        self.other_deltas = 0
        self.position = 0  # events ingested so far

    def ingest(self, events: list[tuple], upto: int, wire_format: bool):
        """Ingest ``events[self.position:upto]``, one ``ingest`` call each.

        With ``wire_format`` each event arrives as its JSONL line and
        each delta leaves as its JSON line, as on the server's path.
        Returns ``([seconds per publishing call], [events/s per chunk])``.
        """
        tracer, host = self.bench.tracer, self.bench.host
        session = self.service.session
        lines = self.bench.lines if wire_format else None
        firsts = self.firsts
        latencies: list[float] = []
        rates: list[float] = []
        chunk: list[float] = []  # raw latencies since the last host factor
        factor = host.factor()
        chunk_start = now()
        in_chunk = 0
        position = self.position
        end = min(upto, len(events))
        while position < end:
            event, source = events[position]
            start = now()
            with tracer.span("bench.event", position):
                if lines is not None:
                    with tracer.span("io.parse_line", position):
                        event = parse_event_line(
                            lines[id(event)], self.schemas[source], source
                        )
                with tracer.span("service.ingest", position):
                    session.ingest(event, source)
                got = []
                with tracer.span("service.take", position):
                    for name, sub in self.subscribers:
                        deltas = sub.take()
                        if deltas:
                            got.append((name, sub, deltas))
                if lines is not None and got:
                    with tracer.span("io.encode_all", position):
                        for name, _, deltas in got:
                            for delta in deltas:
                                json.dumps(
                                    {"query": name, "delta": delta.as_dict()}
                                )
            stop = now()
            position += 1
            if got:
                chunk.append(stop - start)
                for name, sub, deltas in got:
                    if sub is firsts[name]:
                        self.received[name].extend(deltas)
                    else:
                        self.other_deltas += len(deltas)
            in_chunk += 1
            if in_chunk == CHUNK or position == end:
                with tracer.span("bench.calibrate", position):
                    before, factor = factor, host.factor()
                scale = (before + factor) / 2.0
                latencies.extend(seconds / scale for seconds in chunk)
                if in_chunk == CHUNK:
                    rates.append(CHUNK * scale / (stop - chunk_start))
                chunk_start, in_chunk, chunk = now(), 0, []
        self.position = position
        return latencies, rates

    def verify(self, ledger) -> None:
        """Every first subscriber's deltas equal the one-shot changelog of
        the same SQL over the events the service recorded, gap-free."""
        for name, deltas in self.received.items():
            expected = self.service.engine.query(self.sql[name]).run().changes
            ledger.check(
                [d.seq for d in deltas] == list(range(len(deltas))),
                f"{name}: delta seq has gaps",
            )
            ledger.check(
                [d.change for d in deltas] == expected,
                f"{name}: live deltas differ from the one-shot changelog",
            )
        evicted = sum(1 for _, sub in self.subscribers if sub.evicted)
        ledger.count(len(self.subscribers), evicted, "subscribers evicted")


def submit_chain(bench, probe: LiveProbe, queries: list[str], budget: float):
    """Late joiners: admit each of ``queries`` in turn into the service
    that already holds history, then withdraw it again.

    Returns ``[[submit seconds] per query]`` (admission + registration
    with catch-up; the withdraw is not timed).
    """
    tracer, service = bench.tracer, probe.service
    samples: list[list[float]] = [[] for _ in queries]
    rounds = [0]

    def one_round() -> None:
        for index, sql in enumerate(queries):
            tenant = TENANTS[index % len(TENANTS)]
            request = rounds[0] * len(queries) + index
            with tracer.span("bench.submit", request):
                with bench.host.stopwatch() as watch:
                    if tracer.enabled:
                        active, rows = service.session.tenant_usage(tenant)
                        with tracer.span("service.admit", request):
                            plan = service.gateway.admit(
                                tenant, sql, active_queries=active, state_rows=rows
                            )
                        with tracer.span("service.register", request):
                            query = service.session.register(tenant, sql, plan)
                    else:
                        query = service.submit(tenant, sql)
            samples[index].append(watch.seconds)
            service.withdraw(query.query_id)
        rounds[0] += 1

    repeat_for(budget, one_round)
    return samples


def service_recovery_chain(bench, probe: LiveProbe, budget: float, directory: str):
    """``service.checkpoint(dir)`` then ``resume(dir)`` into a fresh
    service, repeatedly.  Returns ``([recover seconds], last service)``."""
    tracer = bench.tracer
    last = []

    def one() -> float:
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        with tracer.span("bench.recover", "service"):
            with bench.host.stopwatch() as watch:
                with tracer.span("service.checkpoint", "service"):
                    probe.service.checkpoint(directory)
                with tracer.span("service.resume", "service"):
                    fresh = StandingQueryService(
                        config=probe.config, policies=policies()
                    )
                    restored = fresh.resume(directory)
        last[:] = [fresh, restored]
        return watch.seconds

    samples = repeat_for(budget, one, min_reps=2)
    return samples, last[0], last[1]


# -- stand-alone layer calls (traced runs only) ------------------------------


def io_chain(bench, deltas: list, count: int = 2000) -> None:
    """``parse_event_line`` over the input's first lines and
    ``dumps(Delta.as_dict())`` over the first deltas, one span each."""
    tracer = bench.tracer
    for ordinal, (event, source) in enumerate(bench.events[:count]):
        line = bench.lines[id(event)]
        schema = bench.streams[source].schema
        with tracer.span("bench.io", ordinal):
            with tracer.span("io.parse_line", ordinal):
                parse_event_line(line, schema, source)
    for ordinal, delta in enumerate(deltas[:count]):
        with tracer.span("bench.io", ordinal):
            with tracer.span("io.encode", ordinal):
                json.dumps(delta.as_dict())
