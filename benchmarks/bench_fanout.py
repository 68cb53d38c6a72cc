"""Fan-out benchmark: one standing query, 1 → 100 000 subscribers.

One churn query (a per-key running ``MAX`` over a tumbling window, so
most events retract one row and insert another) is resident in a
:class:`~repro.service.StandingQueryService`; the sweep attaches 1,
100, 10 000 and 100 000 subscribers to it, ingests the same events,
and lets every subscriber pull its wire frames (``take_frames``) in
rounds, without sockets — what is measured is the broadcast log, not
the kernel.  A second arm does use them: the same query behind a real
:class:`~repro.service.ServiceServer` on loopback, 32 subscribers on
one connection, ``ingest`` ops pipelined 16 at a time on another.

Four things are asserted, making the bench double as a regression
gate for the push plane (``docs/SERVICE.md``):

* **publish does not see the audience** — the time
  ``SubscriptionRegistry.publish`` takes per delta at 100 000
  subscribers is at most 2x what it takes at one;
* **one encode per delta** — ``encoded_frames`` equals the deltas
  published at every sweep point, while the frames pulled equal
  deltas x subscribers;
* **a subscriber is a cursor** — resident memory grows by under 400
  bytes per added subscriber (measured first, at the largest audience,
  before the sweep's own garbage can be reused and hide the growth);
* **a pipelined burst is one batch** (the wire arm) — every burst of 16
  requests costs exactly two socket writes, one of replies and one of
  subscriber frames, still with one encode per delta.

Writes ``BENCH_fanout.json`` — the artifact the CI ``fanout-bench`` job
uploads.  Runs under plain pytest and as a script::

    PYTHONPATH=src python benchmarks/bench_fanout.py
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from pathlib import Path

from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.io import format_jsonl
from repro.service import ServiceServer, StandingQueryService

MINUTE = 60_000
NUM_EVENTS = 1200
SUBSCRIBER_SWEEP = [1, 100, 10_000, 100_000]
#: events between pull rounds: at most two deltas per event, so a
#: subscriber never lags its 256-delta capacity.
PULL_EVERY = 64
REPEATS = 3
GATE_PUBLISH_RATIO = 2.0
GATE_BYTES_PER_SUBSCRIBER = 400
WIRE_SUBSCRIBERS = 32
WIRE_BURST = 16
GATE_WRITES_PER_BURST = 2

SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)
CHURN = (
    "SELECT k, wend, MAX(v) AS top FROM Tumble(data => TABLE(S), "
    "timecol => DESCRIPTOR(ts), dur => INTERVAL '10' MINUTE) TS "
    "GROUP BY k, wend EMIT STREAM"
)

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_fanout.json"
SCHEMA_VERSION = 2


def make_events(n: int, start: int = 1_000_000) -> list:
    """Rising values on four keys: nearly every event moves a maximum."""
    events, ptime = [], start
    for i in range(n):
        ptime += 1_000
        if i % 100 == 99:
            events.append(wm(ptime, (i // 100) * MINUTE))
        else:
            events.append(ins(ptime, (i % 4, (i // 100) * MINUTE + i % 100, i)))
    return events


def resident_bytes() -> int:
    """This process's resident set size, from ``/proc/self/statm``."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4096


def _audience(subscribers: int):
    """A service with the churn query resident and its subscribers."""
    svc = StandingQueryService()
    svc.register_stream("S", TimeVaryingRelation(SCHEMA))
    query = svc.submit("bench", CHURN)
    audience = [
        svc.subscribe(query.query_id, f"sub-{n}") for n in range(subscribers)
    ]
    return svc, query, audience


def footprint(subscribers: int) -> float:
    """Resident bytes each of ``subscribers`` added cursors costs."""
    gc.collect()
    before = resident_bytes()
    held = _audience(subscribers)
    gc.collect()
    grown = resident_bytes() - before
    del held
    return grown / subscribers


def _run(subscribers: int, events: list) -> dict:
    """Attach ``subscribers`` cursors, ingest, pull in rounds; time publish."""
    svc, query, audience = _audience(subscribers)
    registry = query.subscriptions
    publish = registry.publish
    publish_s = 0.0

    def timed_publish(changes):
        nonlocal publish_s
        started = time.perf_counter()
        deltas = publish(changes)
        publish_s += time.perf_counter() - started
        return deltas

    registry.publish = timed_publish
    # The audience is the benchmark's, not the program's: keep it out of
    # the collector's full passes, which would land in some samples.
    gc.freeze()
    frames = 0
    pull_s = 0.0
    try:
        for index, event in enumerate(events, 1):
            svc.ingest(event, "S")
            if index % PULL_EVERY == 0 or index == len(events):
                started = time.perf_counter()
                for subscriber in audience:
                    frames += subscriber.take_frames().count(b"\n")
                pull_s += time.perf_counter() - started
    finally:
        gc.unfreeze()
    deltas = registry.next_seq
    return {
        "subscribers": subscribers,
        "deltas": deltas,
        "publish_us_per_delta": publish_s / deltas * 1e6,
        "encoded_frames": registry.encoded_frames,
        "encodes_per_delta": registry.encoded_frames / deltas,
        "frames_pulled": frames,
        "frames_per_second": frames / pull_s,
        "evictions": registry.evictions,
        "retained": registry.retained,
    }


def _wire_run(events: list) -> dict:
    """The churn query behind a loopback server, bursts of ``WIRE_BURST``.

    Socket writes are the server's own counters (reply writes are
    ``request_batches``), read around each burst once its replies and
    every subscriber line it caused have arrived.
    """
    tvr = TimeVaryingRelation(SCHEMA)
    for event in events:
        tvr.apply(event)
    ops = [
        (json.dumps({"op": "ingest", "source": "S", "event": line}) + "\n")
        .encode()
        for line in format_jsonl(tvr, include_schema=False).splitlines()
    ]
    svc, query, _ = _audience(0)
    registry, metrics = query.subscriptions, svc.metrics

    async def drive() -> tuple[list[int], float, int, int]:
        server = ServiceServer(svc, "127.0.0.1", 0)
        await server.start()
        try:
            feed_reader, feed = await asyncio.open_connection(*server.address)
            for n in range(WIRE_SUBSCRIBERS):
                feed.write((json.dumps(
                    {"op": "subscribe", "query": query.query_id,
                     "subscriber": f"sub-{n}"}) + "\n").encode())
                assert json.loads(await feed_reader.readline())["ok"]
            reader, control = await asyncio.open_connection(*server.address)
            writes = []
            replies_before = metrics.request_batches
            pushes_before = metrics.push_writes
            started = time.perf_counter()
            for at in range(0, len(ops), WIRE_BURST):
                burst = ops[at:at + WIRE_BURST]
                seq = registry.next_seq
                before = metrics.request_batches + metrics.push_writes
                control.write(b"".join(burst))
                for _ in burst:
                    assert json.loads(await reader.readline())["ok"]
                for _ in range((registry.next_seq - seq) * WIRE_SUBSCRIBERS):
                    await feed_reader.readline()
                writes.append(
                    metrics.request_batches + metrics.push_writes - before)
            elapsed = time.perf_counter() - started
            control.close()
            feed.close()
            return (writes, elapsed, metrics.request_batches - replies_before,
                    metrics.push_writes - pushes_before)
        finally:
            await server.stop()

    writes, elapsed, reply_writes, push_writes = asyncio.run(drive())
    return {
        "subscribers": WIRE_SUBSCRIBERS,
        "burst": WIRE_BURST,
        "bursts": len(writes),
        "deltas": registry.next_seq,
        "encoded_frames": registry.encoded_frames,
        "writes_per_burst": sorted(set(writes)),
        "requests": len(ops),
        "reply_writes": reply_writes,
        "push_writes": push_writes,
        "events_per_second": len(ops) / elapsed,
        "evictions": registry.evictions,
    }


def collect() -> dict:
    rss_bytes_per_subscriber = footprint(max(SUBSCRIBER_SWEEP))
    events = make_events(NUM_EVENTS)
    sweep = []
    for subscribers in SUBSCRIBER_SWEEP:
        # Best of a few repeats: publish takes about a microsecond, so
        # one scheduler hiccup would otherwise decide the ratio.
        runs = [_run(subscribers, events) for _ in range(REPEATS)]
        sweep.append(min(runs, key=lambda r: r["publish_us_per_delta"]))
    return {
        "schema_version": SCHEMA_VERSION,
        "events": NUM_EVENTS,
        "query": CHURN,
        "rss_bytes_per_subscriber": rss_bytes_per_subscriber,
        "sweep": sweep,
        "wire": _wire_run(events),
    }


def write_artifact(payload: dict) -> Path:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return ARTIFACT


def test_fanout_bench_produces_artifact():
    """The bench is also the gate: publish cost flat in the audience,
    exactly one encode per delta, subscribers a few machine words."""
    payload = collect()
    assert payload["schema_version"] == SCHEMA_VERSION
    by_count = {point["subscribers"]: point for point in payload["sweep"]}
    for point in payload["sweep"]:
        assert point["deltas"] > NUM_EVENTS, "the query must churn"
        assert point["encoded_frames"] == point["deltas"], point
        assert point["frames_pulled"] == (
            point["deltas"] * point["subscribers"]
        ), point
        assert point["evictions"] == 0 and point["retained"] == 0, point
    lone, crowd = by_count[1], by_count[100_000]
    ratio = crowd["publish_us_per_delta"] / lone["publish_us_per_delta"]
    assert ratio <= GATE_PUBLISH_RATIO, (
        f"publish per delta is {ratio:.2f}x slower at 100k subscribers "
        f"({crowd['publish_us_per_delta']:.2f} us vs "
        f"{lone['publish_us_per_delta']:.2f} us at one)"
    )
    assert payload["rss_bytes_per_subscriber"] < GATE_BYTES_PER_SUBSCRIBER
    wire = payload["wire"]
    assert wire["deltas"] > NUM_EVENTS and wire["evictions"] == 0, wire
    assert wire["encoded_frames"] == wire["deltas"], wire
    assert wire["writes_per_burst"] == [GATE_WRITES_PER_BURST], wire
    path = write_artifact(payload)
    assert path.exists() and path.stat().st_size > 0


if __name__ == "__main__":
    data = collect()
    path = write_artifact(data)
    for point in data["sweep"]:
        print(
            f"subscribers={point['subscribers']:>7,}  "
            f"publish {point['publish_us_per_delta']:.2f} us/delta  "
            f"encodes/delta {point['encodes_per_delta']:.0f}  "
            f"pulled {point['frames_per_second']:>12,.0f} frames/s"
        )
    print(f"{data['rss_bytes_per_subscriber']:.0f} resident bytes per "
          f"subscriber at {max(SUBSCRIBER_SWEEP):,}")
    wire = data["wire"]
    print(
        f"wire: {wire['bursts']} bursts of {wire['burst']} to "
        f"{wire['subscribers']} subscribers, "
        f"{wire['writes_per_burst']} "
        f"socket writes per burst ({wire['reply_writes']} reply + "
        f"{wire['push_writes']} push), encodes/delta "
        f"{wire['encoded_frames'] / wire['deltas']:.0f}, "
        f"{wire['events_per_second']:,.0f} events/s"
    )
    print(f"wrote {path}")
