"""``wire.fanout``: the workload measured through the line-JSON server.

Set-up boots ``python -m repro serve``, admits the hot query and
attaches every subscriber to one connection.  The run is:

* **phase A** — closed loop, a fixed number of ``ingest`` ops with 16 in
  flight: ``events_per_s``;
* late-joining ``submit`` ops against the history phase A recorded:
  ``submit_ms``;
* **phase B** — open loop at three frozen rates, every event timed from
  the instant it was due: ``delta_p50_ms`` is the middle rate's;
* ``checkpoint`` op, then a second server resumed from it until it
  answers: ``recover_s``.

The traced run replays the same lines in-process (see
``Bench.trace``) and compares the wire's per-event time with it.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from bisect import bisect

from repro import Change, ChangeKind, RowEvent, TimeVaryingRelation
from repro.io import format_jsonl

import chains
import wire
from harness import changelog_digest, geomean, now, percentile, repeat_for
from workloads import OUT, SUITE, TAIL, Bench

WIRE = SUITE["wire"]
PHASE_B_SPLIT = (0.25, 0.5, 0.25)  # the middle rate carries delta_p50_ms
READER_POLL_S = 0.002  # see wire.DeltaReader
MIN_PHASE = 32  # events per open-loop rate, however small --scale/--seconds


class WireBench(Bench):
    server = None
    resumed = None
    control = None
    feed = None

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        self.teardown()
        self.live_events = min(
            self.live_events, len(self.events) - TAIL - 3 * MIN_PHASE)
        os.makedirs(OUT, exist_ok=True)
        self.payloads = [
            json.dumps({"op": "ingest", "source": source,
                        "event": self.lines[id(event)]}).encode() + b"\n"
            for event, source in self.events
        ]
        flags = []
        for name, tvr in self.streams.items():
            path = os.path.join(OUT, f"wire-{name}.jsonl")
            with open(path, "w") as fh:
                fh.write(format_jsonl(TimeVaryingRelation(tvr.schema)))
            flags += ["--source", f"{name}={path}"]
        self.server = self.boot("wire-server.log", flags)
        self.control = wire.Client(self.server.port)
        self.feed = wire.Client(self.server.port)
        for name, sql in self.spec.queries.items():
            reply = self.control.request(
                {"op": "submit", "tenant": "acme", "sql": sql, "query": name})
            if not reply.get("ok"):
                raise RuntimeError(f"submit refused: {reply}")
            for n in range(self.spec.subscribers):
                reply = self.feed.request(
                    {"op": "subscribe", "query": name, "subscriber": f"{name}-{n}"})
                if not reply.get("ok"):
                    raise RuntimeError(f"subscribe refused: {reply}")

    def boot(self, log_name: str, flags: list[str]) -> wire.Server:
        execution = SUITE["execution"]
        server = wire.Server(os.path.join(OUT, log_name), flags + [
            "--batch-size", str(execution["batch_size"]),
            "--columnar", execution["columnar"],
            "--two-phase", execution["two_phase"],
        ])
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server

    def teardown(self) -> None:
        for client in (self.control, self.feed):
            if client is not None:
                client.close()
        for server in (self.server, self.resumed):
            if server is not None:
                server.stop()
        self.control = self.feed = self.server = self.resumed = None

    # -- the untraced run ----------------------------------------------------------

    def server_deltas(self) -> int:
        """Deltas the hot query has published so far, as the server counts."""
        reply = self.control.request({"op": "queries"})
        return {q["query_id"]: q["deltas"] for q in reply["queries"]}["hot"]

    def settle(self, reader: wire.DeltaReader) -> None:
        """Wait until every published delta line has been received."""
        expected = self.server_deltas() * self.spec.subscribers
        self.ledger.check(
            reader.wait_for_lines(expected, timeout=20.0),
            f"delta lines missing: {reader.lines} of {expected} arrived",
        )

    def measure(self) -> dict:
        spec = self.spec
        sock = self.control.sock
        reader = wire.DeltaReader(self.feed.sock)
        reader.start()
        cpu_start, wall_start = time.process_time(), now()

        # Phase A: closed loop.
        position = self.live_events
        reader.poll_s = READER_POLL_S
        rates, refused = wire.closed_loop(
            sock, self.payloads[:position], WIRE["in_flight"], self.host.factor)
        self.ledger.count(position, refused, "ingest refused in phase A")
        self.settle(reader)
        reader.poll_s = None
        phase_a_deltas = len(reader.first)

        # Late joiners.
        submits = self.submit_phase()

        # Phase B: open loop at the frozen rates.
        budget = self.share("open_loop")
        sustained = 0
        for rate, split in zip(WIRE["open_loop_rates"], PHASE_B_SPLIT):
            count = min(max(MIN_PHASE, int(rate * budget * split)),
                        len(self.payloads) - TAIL - position)
            stats = self.open_phase(reader, position, count, rate)
            position += count
            if rate == WIRE["open_loop_rates"][1]:
                latencies = stats["latencies"]
            if stats["holds"]:
                sustained = max(sustained, rate)
        self.say(f"  sustained_rate = {sustained} 1/s (highest frozen rate with "
                 f"p50 < {WIRE['latency_limit_ms']:g} ms and no growing backlog)")

        recovers = self.recover_phase(reader, position)
        peak_rss_mb = self.server.peak_rss_mb()
        wall = now() - wall_start
        self.say(f"  client CPU share = "
                 f"{(time.process_time() - cpu_start) / wall:.2f} of one core")
        reader.halt()
        self.ledger.check(reader.error is None, f"reader failed: {reader.error}")
        self.verify_wire(reader, position + TAIL)
        self.digests["hot"] = changelog_digest(
            _change(json.loads(line)["delta"])
            for _, line in reader.first[:phase_a_deltas]
        )
        return {
            "events_per_s": (statistics.median(rates), len(rates)),
            "delta_p50_ms": (statistics.median(latencies) * 1e3, len(latencies)),
            "delta_p99_ms": (percentile(latencies, 0.99) * 1e3, len(latencies)),
            "submit_ms": (
                geomean([statistics.median(s) for s in submits]) * 1e3,
                min(map(len, submits)),
            ),
            "recover_s": (statistics.median(recovers), len(recovers)),
            "peak_rss_mb": (peak_rss_mb, 1),
        }

    def submit_phase(self) -> list[list[float]]:
        samples: list[list[float]] = [[] for _ in self.spec.late_joiners]

        def one_round() -> None:
            for index, sql in enumerate(self.spec.late_joiners):
                with self.host.stopwatch() as watch:
                    reply = self.control.request(
                        {"op": "submit", "tenant": "bolt", "sql": sql})
                samples[index].append(watch.seconds)
                self.ledger.check(bool(reply.get("ok")), f"submit rejected: {reply}")
                self.control.request({"op": "withdraw", "query": reply.get("query")})

        repeat_for(self.share("submit"), one_round)
        return samples

    def open_phase(self, reader, position: int, count: int, rate: float) -> dict:
        mark = len(reader.first)
        due, lateness, (mid, end), refused, factors = wire.open_loop(
            self.control.sock, self.payloads[position:position + count], rate,
            self.host.quick_factor)
        self.ledger.count(count, refused, f"ingest refused at {rate}/s")
        self.settle(reader)
        arrivals = reader.arrivals(mark)
        times = [at for at, _ in factors]
        latencies = []
        for offset in range(count):
            event = self.events[position + offset][0]
            if isinstance(event, RowEvent) and event.ptime in arrivals:
                # the host factor sampled last before the event was due
                factor = factors[max(0, bisect(times, due[offset]) - 1)][1]
                latencies.append((arrivals[event.ptime] - due[offset]) / factor)
        late = sum(1 for seconds in lateness if seconds > 1.0 / rate)
        valid = late <= 0.01 * count
        p50 = statistics.median(latencies) * 1e3
        self.say(
            f"  open loop {rate:>5} 1/s: p50 = {p50:.3f} ms, "
            f"p99 = {percentile(latencies, 0.99) * 1e3:.3f} ms (n={len(latencies)}), "
            f"backlog mid/end = {mid}/{end} ops, generator late on "
            f"{late / count:.2%} of sends{'' if valid else ' — run INVALID'}"
        )
        holds = p50 < WIRE["latency_limit_ms"] and end <= mid + WIRE["in_flight"]
        return {"latencies": latencies, "holds": holds and valid}

    def recover_phase(self, reader, position: int) -> list[float]:
        directory = os.path.join(OUT, "wire-ckpt")

        def one() -> float:
            if self.resumed is not None:
                self.resumed.stop()
            shutil.rmtree(directory, ignore_errors=True)
            with self.host.stopwatch() as watch:
                reply = self.control.request(
                    {"op": "checkpoint", "directory": directory})
                self.resumed = self.boot(
                    "wire-resumed.log", ["--checkpoint-dir", directory])
            self.ledger.check(bool(reply.get("ok")), f"checkpoint failed: {reply}")
            return watch.seconds

        samples = repeat_for(0.0, one, min_reps=3)
        # Restored equals uninterrupted: the same next events must reach
        # a subscriber of either server as the same lines.
        with wire.Client(self.resumed.port) as control, \
                wire.Client(self.resumed.port) as feed:
            reply = feed.request(
                {"op": "subscribe", "query": "hot", "subscriber": "after"})
            self.ledger.check(bool(reply.get("ok")), f"resumed subscribe: {reply}")
            other = wire.DeltaReader(feed.sock, next_seq=reply.get("cursor", 0))
            other.start()
            tail = self.payloads[position:position + TAIL]
            mark = len(reader.first)
            wire.closed_loop(control.sock, tail, WIRE["in_flight"])
            wire.closed_loop(self.control.sock, tail, WIRE["in_flight"])
            self.settle(reader)
            other.wait_for_lines(len(reader.first) - mark, timeout=10.0)
            other.halt()
            self.ledger.check(
                [line for _, line in other.first]
                == [line for _, line in reader.first[mark:]],
                "resumed server's deltas differ from the original's",
            )
        return samples

    def verify_wire(self, reader, ingested: int) -> None:
        """The probe subscriber's lines equal the one-shot changelog over
        the events sent, gap-free, and every subscriber got every line."""
        recorded = {
            name: TimeVaryingRelation(tvr.schema)
            for name, tvr in self.streams.items()
        }
        for event, source in self.events[:ingested]:
            recorded[source].apply(event)
        engine = chains.new_engine(recorded, self.config)
        expected = engine.query(self.spec.queries["hot"]).run().changes
        deltas = [json.loads(line)["delta"] for _, line in reader.first]
        self.ledger.check(
            [d["seq"] for d in deltas] == list(range(len(deltas))),
            "delta seq has gaps",
        )
        self.ledger.check(
            [_change(d) for d in deltas] == expected,
            "wire deltas differ from the one-shot changelog",
        )
        self.ledger.check(
            reader.lines == len(deltas) * self.spec.subscribers,
            f"{reader.lines} lines for {len(deltas)} deltas",
        )
        self.say(f"  service.lines_per_delta = "
                 f"{reader.lines / max(1, len(deltas)):.1f} lines")

    # -- the traced run ------------------------------------------------------------

    def trace(self) -> dict:
        """In-process trace, plus how much slower one event is on the wire."""
        reader = wire.DeltaReader(self.feed.sock)
        reader.poll_s = READER_POLL_S
        reader.start()
        rates, _ = wire.closed_loop(
            self.control.sock, self.payloads[:self.live_events],
            WIRE["in_flight"], self.host.factor)
        self.settle(reader)
        reader.halt()
        values = super().trace()
        encode_all_us = self.span_median("io.encode_all", 1e6)
        in_process_us = encode_all_us + sum(
            values[name] for name in (
                "io.parse_line_us", "service.ingest_us", "service.take_us"))
        wire_us = 1e6 / statistics.median(rates)
        self.say(f"  service.server_overhead_us = {wire_us - in_process_us:.1f} us "
                 f"(wire {wire_us:.1f} us/event - in-process {in_process_us:.1f} us, "
                 f"of which {encode_all_us:.1f} us encode every subscriber's lines)")
        return values


def _change(delta: dict) -> Change:
    kind = ChangeKind.INSERT if delta["kind"] == "insert" else ChangeKind.RETRACT
    return Change(kind, tuple(delta["values"]), delta["ptime"])
