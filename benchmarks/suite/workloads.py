"""The five workloads: what each runs, on which inputs, and why.

A workload is a :class:`Spec` — generator settings, SQL, and which
chain is its hot path — plus the shared procedure in :class:`Bench`
that sets it up, measures it, traces it and checks its outputs.  Sizes
are event counts at ``--scale 1``; they were chosen so that one run
fits the driver's time cap on two cores.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
from dataclasses import dataclass, field

from repro import ExecutionConfig, RowEvent, TimeVaryingRelation

import chains
import gen
from harness import (
    NULL_TRACER,
    Host,
    Ledger,
    Tracer,
    by_layer,
    changelog_digest,
    geomean,
    merged_events,
    now,
    percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

with open(os.path.join(HERE, "suite.json")) as _fh:
    SUITE = json.load(_fh)

#: the execution config every replay and every resident flow runs with
FIXED = ExecutionConfig(**SUITE["execution"])
PROCESSES = ExecutionConfig(**SUITE["sharded"])
SYNC_SHARDS = ExecutionConfig(
    parallelism=SUITE["sharded"]["parallelism"], backend="sync"
)
SETUPS = 3  # set-ups per run; ``setup_s`` is their median
MIN_EVENTS = 1000  # floor under ``--scale`` so every phase has input
TAIL = 256  # events kept back to compare a restored service with the original


def tumble(select: str, group: str, seconds: int = 10, where: str = "",
           emit: str = "") -> str:
    return (
        f"SELECT {select} FROM Tumble(data => TABLE(Bid), "
        f"timecol => DESCRIPTOR(bidtime), "
        f"dur => INTERVAL '{seconds}' SECONDS) TB {where} "
        f"GROUP BY {group} {emit}"
    ).strip()


def window_max(seconds: int = 10, emit: str = "") -> str:
    return tumble("TB.wend, MAX(TB.price) AS high", "TB.wend", seconds, emit=emit)


def window_count(seconds: int = 10, emit: str = "") -> str:
    return tumble("TB.wend, COUNT(*) AS bids", "TB.wend", seconds, emit=emit)


def per_auction(seconds: int = 10, emit: str = "") -> str:
    return tumble(
        "TB.auction, TB.wend, COUNT(*) AS bids, MAX(TB.price) AS high",
        "TB.auction, TB.wend", seconds, emit=emit,
    )


def keyed(seconds: int = 600) -> str:
    return tumble(
        "TB.bidder, TB.auction, TB.wend, COUNT(*) AS bids, MAX(TB.price) AS high",
        "TB.bidder, TB.auction, TB.wend", seconds,
    )


BID_AUCTION_JOIN = (
    "SELECT B.auction, B.price, A.seller, A.category "
    "FROM Bid B JOIN Auction A ON B.auction = A.id"
)

_AGGREGATES = (
    "MAX(TB.price)", "MIN(TB.price)", "COUNT(*)", "SUM(TB.price)",
    "AVG(TB.price)", "MAX(TB.bidder)", "MIN(TB.bidder)", "SUM(TB.bidder)",
)
_DISTINCT = ((5, 100), (15, 200), (20, 300), (30, 400),
             (40, 500), (60, 600), (90, 700), (120, 800))


def live_queries() -> dict[str, str]:
    """16 standing queries: 8 share one tumble prefix, 8 differ in
    filter and window and share nothing."""
    queries = {}
    for n, aggregate in enumerate(_AGGREGATES):
        queries[f"shared{n}"] = tumble(
            f"TB.wend, {aggregate} AS v", "TB.wend", emit="EMIT STREAM"
        )
    for n, (seconds, price) in enumerate(_DISTINCT):
        queries[f"own{n}"] = tumble(
            "TB.wend, COUNT(*) AS v", "TB.wend", seconds,
            where=f"WHERE TB.price > {price}", emit="EMIT STREAM",
        )
    return queries


def live_late_joiners() -> list[str]:
    """8 late submits: 4 graft onto the shared prefix, 4 bring their own."""
    shared = [
        tumble(f"TB.wend, {a} AS late", "TB.wend", emit="EMIT STREAM")
        for a in ("MAX(TB.auction)", "MIN(TB.auction)",
                  "SUM(TB.auction)", "AVG(TB.auction)")
    ]
    own = [
        tumble("TB.wend, COUNT(*) AS late", "TB.wend", seconds,
               where=f"WHERE TB.price > {price}", emit="EMIT STREAM")
        for seconds, price in ((25, 150), (35, 250), (45, 350), (50, 450))
    ]
    return shared + own


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    hot: str  # the chain behind events_per_s: replay | sharded | live | wire
    gen: dict  # GenConfig fields at --scale 1 (seed excluded)
    queries: dict
    late_joiners: list  # SQL admitted late, for submit_ms
    recover: str  # the query whose flow the recovery drill snapshots
    shard: str  # a key-partitionable query, for the runtime chain
    live_events: int  # events the resident service ingests
    subscribers: int = 1  # per standing query
    replay: tuple = ()  # queries the traced replay chain runs (default all)
    budget: dict = field(default_factory=dict)  # share of --seconds per phase


SPECS = {spec.name: spec for spec in (
    Spec(
        name="replay.window",
        why="Serial one-shot replay of three tumble shapes: nearly all time "
            "is exec; state, runtime and service idle, so it bypasses "
            "state, sharding and service work.",
        hot="replay",
        gen=dict(events=60_000, auctions=500),
        queries={"max": window_max(), "count": window_count(),
                 "per_auction": per_auction()},
        late_joiners=[window_max(20), window_count(20), per_auction(20)],
        recover="max",
        shard="per_auction",
        live_events=3_000,
        budget=dict(hot=0.40, submit=0.15, recover=0.10),
    ),
    Spec(
        name="replay.keyed_state",
        why="10-minute tumble keyed by (bidder, auction) and a Bid-Auction "
            "join hold thousands of live state rows, then checkpoint and "
            "restore: state size and snapshot cost dominate.",
        hot="replay",
        gen=dict(events=12_000, auctions=2000, auction_every=16,
                 late_by_ms=(600_000, 1_200_000)),
        queries={"keyed": keyed(), "join": BID_AUCTION_JOIN},
        late_joiners=[keyed(1200), BID_AUCTION_JOIN.replace(
            "A.category", "A.category, A.itemName")],
        recover="keyed",
        shard="keyed",
        live_events=1_500,
        budget=dict(hot=0.35, submit=0.10, recover=0.25),
    ),
    Spec(
        name="sharded.skew",
        why="Per-auction tumble over Zipf(1.1) keys on 2 process shards: "
            "routing, merge and combine dominate and keys are uneven; "
            "replay.window runs the same job single-threaded.",
        hot="sharded",
        gen=dict(events=20_000, auctions=500, zipf_s=1.1),
        queries={"per_auction": per_auction()},
        late_joiners=[per_auction(20), per_auction(30)],
        recover="per_auction",
        shard="per_auction",
        live_events=4_000,
        budget=dict(hot=0.40, submit=0.15, recover=0.15),
    ),
    Spec(
        name="live.queries",
        why="16 standing queries of 4 tenants in one in-process service, "
            "one caller ingesting and draining, then late joiners: "
            "session, plan sharing and admission do the work.",
        hot="live",
        gen=dict(events=10_500, auctions=500),
        queries=live_queries(),
        late_joiners=live_late_joiners(),
        recover="shared2",
        shard="own0",
        live_events=10_000,
        replay=("shared2", "own0"),
        budget=dict(submit=0.15, recover=0.20),
    ),
    Spec(
        name="wire.fanout",
        why="python -m repro serve with one churn query and 32 subscribers "
            "on one connection: line parsing, per-subscriber buffering, "
            "JSON encoding and socket writes dominate.",
        hot="wire",
        gen=dict(events=14_000, auctions=500, burst=1, gap_ms=16),
        queries={"hot": window_count(emit="EMIT STREAM")},
        late_joiners=[window_count(20, "EMIT STREAM"),
                      window_max(20, "EMIT STREAM")],
        recover="hot",
        shard="hot",
        live_events=8_000,
        subscribers=32,
        budget=dict(submit=0.12, open_loop=0.36),
    ),
)}


class Bench:
    """One workload on one seed: set-up, measurement, trace, oracle."""

    def __init__(self, spec: Spec, seed: int, seconds: float, scale: float):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.config = FIXED
        self.tracer = NULL_TRACER
        self.ledger = Ledger()
        self.host = Host(
            SUITE["host_speed"]["reference_ms"] / 1e3, SUITE["host_speed"]["spin"]
        )
        self.report: list[str] = []  # human-readable lines, in print order
        self.digests: dict[str, str] = {}  # changelog digest per query
        self.inputs: dict[str, str] = {}  # sha256 per generated stream

    def scaled(self, count: int) -> int:
        return max(MIN_EVENTS, int(count * self.scale))

    def share(self, phase: str) -> float:
        return self.spec.budget[phase] * self.seconds

    def say(self, text: str) -> None:
        self.report.append(text)

    def same(self, what: str, result, reference) -> None:
        self.ledger.check(
            result.changes == reference.changes
            and result.watermarks.as_pairs() == reference.watermarks.as_pairs(),
            f"{what} differs from its reference run",
        )

    def replay_queries(self) -> dict[str, str]:
        names = self.spec.replay or self.spec.queries
        return {name: self.spec.queries[name] for name in names}

    def replay_rate(self, runs: dict[str, list[float]]) -> float:
        """Geometric mean over queries of source events per second."""
        return geomean(
            [self.rows / statistics.median(times) for times in runs.values()]
        )

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        """Everything before the first timed call: inputs, lines, engine."""
        config = gen.GenConfig(
            seed=self.seed,
            **{**self.spec.gen, "events": self.scaled(self.spec.gen["events"])},
        )
        self.streams = gen.generate(config)
        self.lines = {}  # id(event) -> its JSONL feed line
        for name, tvr in self.streams.items():
            self.inputs[name], lines = gen.render(tvr)
            self.lines.update(
                (id(event), line) for event, line in zip(tvr.events(), lines)
            )
        self.events = merged_events(self.streams)
        self.rows = sum(1 for e, _ in self.events if isinstance(e, RowEvent))
        self.engine = chains.new_engine(self.streams, self.config)
        self.live_events = min(
            self.scaled(self.spec.live_events), len(self.events) - TAIL
        )

    def timed_setups(self) -> float:
        samples = []
        for _ in range(SETUPS):
            with self.host.stopwatch() as watch:
                self.setup()
            samples.append(watch.seconds)
        return statistics.median(samples)

    def teardown(self) -> None:
        pass

    # -- the untraced run: end-to-end metrics ------------------------------------

    def measure(self) -> dict:
        spec = self.spec
        results = {}
        if spec.hot != "live":
            budget = self.share("hot") if spec.hot == "replay" else 0.0
            runs, results = chains.replay_chain(self, spec.queries, budget)
            rate, samples = self.replay_rate(runs), min(map(len, runs.values()))
            for name, times in runs.items():
                self.say(
                    f"  exec.query_events_per_s[{name}] = "
                    f"{self.rows / statistics.median(times):.1f} 1/s (n={len(times)})"
                )
        if spec.hot == "sharded":
            runs, sharded = chains.sharded_chain(
                self, spec.shard, PROCESSES, self.share("hot")
            )
            self.same("sharded run", sharded, results[spec.shard])
            self.say(f"  runtime.vs_serial = "
                     f"{rate * statistics.median(runs) / self.rows:.3f} ratio")
            rate, samples = self.rows / statistics.median(runs), len(runs)

        probe = chains.LiveProbe(self, spec.queries, spec.subscribers)
        latencies, rates = probe.ingest(self.events, self.live_events, False)
        if spec.hot == "live":
            rate, samples = statistics.median(rates), len(rates)
        submits = chains.submit_chain(
            self, probe, spec.late_joiners, self.share("submit")
        )
        if spec.hot == "live":
            recovers = self.service_recovery(probe)
        else:
            recovers = self.flow_recovery(results[spec.recover])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        probe.verify(self.ledger)
        self.prefix_oracle()
        for name, result in results.items():
            self.digests[name] = changelog_digest(
                result.changes, result.watermarks.as_pairs()
            )
        if spec.hot == "live":
            for name, deltas in probe.received.items():
                self.digests[name] = changelog_digest(d.change for d in deltas)
        return {
            "events_per_s": (rate, samples),
            "delta_p50_ms": (statistics.median(latencies) * 1e3, len(latencies)),
            "delta_p99_ms": (percentile(latencies, 0.99) * 1e3, len(latencies)),
            "submit_ms": (
                geomean([statistics.median(s) for s in submits]) * 1e3,
                min(map(len, submits)),
            ),
            "recover_s": (statistics.median(recovers), len(recovers)),
            "peak_rss_mb": (peak_rss_mb, 1),
        }

    def flow_recovery(self, uninterrupted) -> list[float]:
        sharded = SYNC_SHARDS if self.spec.hot == "sharded" else None
        samples, finished, nbytes, rows = chains.recovery_chain(
            self, self.spec.recover, self.share("recover"), sharded
        )
        self.same("restored-and-finished run", finished, uninterrupted)
        self.say(f"  checkpoint = {nbytes} bytes over {rows} state rows")
        return samples

    def service_recovery(self, probe) -> list[float]:
        samples, fresh, restored = chains.service_recovery_chain(
            self, probe, self.share("recover"), os.path.join(OUT, "live-ckpt")
        )
        self.ledger.check(
            restored == len(probe.sql), "not every standing query was restored"
        )
        # Restored equals uninterrupted: the same next events must
        # publish the same deltas from both services.
        before = {name: len(deltas) for name, deltas in probe.received.items()}
        start = probe.position
        theirs = {name: [] for name in probe.received}
        for event, source in self.events[start:start + TAIL]:
            for name, deltas in fresh.ingest(event, source).items():
                theirs[name].extend(deltas)
        probe.ingest(self.events, start + TAIL, False)
        diverged = sum(
            probe.received[name][before[name]:] != theirs[name] for name in theirs
        )
        self.ledger.count(len(theirs), diverged, "restored service diverged")
        return samples

    def prefix_oracle(self) -> None:
        """Batched columnar execution equals row-at-a-time execution on
        the first tenth of the input."""
        count = max(MIN_EVENTS // 2, len(self.events) // 10)
        prefix = {
            name: TimeVaryingRelation(tvr.schema)
            for name, tvr in self.streams.items()
        }
        for event, source in self.events[:count]:
            prefix[source].apply(event)
        engine = chains.new_engine(prefix, self.config)
        plain = ExecutionConfig(batch_size=1, columnar="off")
        for name, sql in self.replay_queries().items():
            query = engine.query(sql)
            self.same(
                f"{name}: batched prefix run",
                query.dataflow().run(),
                query.dataflow(plain).run(),
            )

    # -- the traced run: per-layer metrics ----------------------------------------

    def hot_chain(self, budget: float):
        """The workload's hot path once more, for a traced-to-untraced
        ratio: ``(events/s, extra)``."""
        spec = self.spec
        if spec.hot == "replay":
            runs, results = chains.replay_chain(
                self, self.replay_queries(), budget)
            return self.replay_rate(runs), (runs, results)
        if spec.hot == "sharded":
            runs, _ = chains.sharded_chain(self, spec.shard, PROCESSES, budget)
            return self.rows / statistics.median(runs), None
        probe = chains.LiveProbe(self, spec.queries, spec.subscribers)
        latencies, rates = probe.ingest(
            self.events, self.live_events, spec.hot == "wire")
        return statistics.median(rates), probe

    def trace(self) -> dict:
        """Every chain under spans, on this workload's inputs and SQL."""
        spec = self.spec
        budget = self.seconds * 0.2
        untraced, _ = self.hot_chain(budget)
        self.tracer = tracer = Tracer()
        regions = {}  # chain -> (first span, last span, wall seconds)

        def region(name: str, fn):
            since, start = len(tracer.spans), now()
            value = fn()
            regions[name] = (since, len(tracer.spans), now() - start)
            return value

        traced, extra = region("hot", lambda: self.hot_chain(budget))
        if spec.hot == "replay":
            runs, results = extra
        else:
            runs, results = region("replay", lambda: chains.replay_chain(
                self, self.replay_queries(), 0.0))
        if spec.hot in ("live", "wire"):
            probe = extra
        else:
            probe = chains.LiveProbe(self, spec.queries, spec.subscribers)
            region("live", lambda: probe.ingest(
                self.events, self.live_events, False))
        sync_runs, sync_result = region(
            "runtime", lambda: chains.sharded_chain(
                self, spec.shard, ExecutionConfig(parallelism=8, backend="sync"),
                0.0, min_reps=1))
        self.same("sync sharded run", sync_result, results[spec.shard])
        _, finished, nbytes, state_rows = region(
            "recovery", lambda: chains.recovery_chain(
                self, spec.recover, self.seconds * 0.1))
        self.same("restored-and-finished run", finished, results[spec.recover])
        region("submit", lambda: chains.submit_chain(
            self, probe, spec.late_joiners, self.seconds * 0.1))
        deltas = next(iter(probe.received.values()))
        region("io", lambda: chains.io_chain(self, deltas))
        with tracer.span("bench.scrape", 0):
            with tracer.span("obs.scrape", 0):
                probe.service.scrape()
        probe.verify(self.ledger)
        self.check_spans(tracer, regions)
        self.say_self_times(tracer, regions["hot"])
        self.write_trace(tracer, regions)

        med = self.span_median
        totals = [result.metrics.totals for result in results.values()]
        changes = sum(len(result.changes) for result in results.values())
        shard_rows = sync_result.metrics.shard_rows
        serial_s = statistics.median(runs[spec.shard])
        delta_count = sum(len(d) for d in probe.received.values())
        return {
            "sql.parse_us": med("sql.parse", 1e6),
            "plan.plan_ms": med("plan.plan", 1e3) - med("sql.parse", 1e3),
            "exec.compile_ms": med("exec.compile", 1e3),
            "exec.run_s": sum(statistics.median(t) for t in runs.values()),
            "exec.rows_in": sum(t["rows_in"] for t in totals),
            "exec.rows_out": sum(t["rows_out"] for t in totals),
            "exec.retracts_out": sum(t["retracts_out"] for t in totals),
            "exec.late_dropped": sum(t["late_dropped"] for t in totals),
            "exec.peak_state_rows": sum(
                r.peak_state_rows for r in results.values()),
            "exec.changes_per_event": changes / (self.rows * len(results)),
            "exec.checkpoint_s": med("exec.checkpoint"),
            "exec.restore_s": med("exec.restore"),
            "exec.checkpoint_bytes": nbytes,
            "exec.bytes_per_state_row": nbytes / max(1, state_rows),
            "runtime.run_s": statistics.median(sync_runs),
            "runtime.vs_serial": statistics.median(sync_runs) / serial_s,
            "runtime.max_shard_share": max(shard_rows) / max(1, sum(shard_rows)),
            "runtime.merge_in": merge_in(sync_result),
            "service.admit_us": med("service.admit", 1e6),
            "service.register_ms": med("service.register", 1e3),
            "service.ingest_us": med("service.ingest", 1e6),
            "service.take_us": med("service.take", 1e6),
            "service.deltas_per_event": delta_count / probe.position,
            "service.shared_subplans": probe.service.session.shared_subplans(),
            "io.parse_line_us": med("io.parse_line", 1e6),
            "io.encode_us": med("io.encode", 1e6),
            "obs.scrape_ms": med("obs.scrape", 1e3),
            "trace.overhead": traced / untraced,
        }

    def span_median(self, name: str, scale: float = 1.0) -> float:
        """Median duration of the spans called ``name``, at reference
        host speed (spans are raw; the run's median factor scales them)."""
        spans = [s[2] - s[1] for s in self.tracer.spans if s[0] == name]
        return statistics.median(spans) * scale / statistics.median(self.host.factors)

    def check_spans(self, tracer: Tracer, regions: dict) -> None:
        """Request roots tile the hot chain's timed region, so per-layer
        self times sum to the traced wall time within 5 %."""
        since, until, wall = regions["hot"]
        roots = sum(s[2] - s[1] for s in tracer.spans[since:until] if s[3] < 0)
        self.say(f"  self times / traced wall of the hot chain = {roots / wall:.4f}")
        self.ledger.check(
            abs(roots / wall - 1.0) <= 0.05,
            f"self times cover {roots / wall:.3f} of the traced wall",
        )

    def say_self_times(self, tracer: Tracer, hot: tuple) -> None:
        own = tracer.self_times()
        self.say("  self time per layer call, all chains:")
        for name in sorted(own):
            self.say(f"    {name:<22} {own[name]:9.4f} s")
        since, until, _ = hot
        layers = by_layer(tracer.self_times(since, until))
        total = sum(layers.values())
        self.say("  share of the blocking path (hot chain), by layer:")
        for layer in sorted(layers, key=layers.get, reverse=True):
            self.say(f"    {layer:<10} {layers[layer] / total:7.1%}")

    def write_trace(self, tracer: Tracer, regions: dict) -> None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{self.spec.name}.json")
        with open(path, "w") as fh:
            json.dump({
                "workload": self.spec.name,
                "seed": self.seed,
                "fields": ["name", "start", "end", "parent", "request"],
                "regions": regions,
                "spans": tracer.spans,
            }, fh)
        self.say(f"  {len(tracer.spans)} spans written to {os.path.relpath(path)}")


def merge_in(result) -> int:
    """Changes entering the merge stage of a sharded run: the combine
    operator's input on a two-phase plan, else the merged changelog."""
    for entry in result.metrics.operators:
        if entry["type"].startswith("Combine"):
            return sum(entry["rows_in"])
    return len(result.changes)
