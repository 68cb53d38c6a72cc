"""Fan-out benchmark: one standing query, 1 → 100 000 subscribers.

One churn query (a per-key running ``MAX`` over a tumbling window, so
most events retract one row and insert another) is resident in a
:class:`~repro.service.StandingQueryService`; the sweep attaches 1,
100, 10 000 and 100 000 subscribers to it, ingests the same events,
and lets every subscriber pull its wire frames (``take_frames``) in
rounds, without sockets — what is measured is the broadcast log, not
the kernel.

Three things are asserted, making the bench double as a regression
gate for the push plane (``docs/SERVICE.md``):

* **publish does not see the audience** — the time
  ``SubscriptionRegistry.publish`` takes per delta at 100 000
  subscribers is at most 2x what it takes at one;
* **one encode per delta** — ``encoded_frames`` equals the deltas
  published at every sweep point, while the frames pulled equal
  deltas x subscribers;
* **a subscriber is a cursor** — resident memory grows by under 400
  bytes per added subscriber (measured first, at the largest audience,
  before the sweep's own garbage can be reused and hide the growth).

Writes ``BENCH_fanout.json`` — the artifact the CI ``fanout-bench`` job
uploads.  Runs under plain pytest and as a script::

    PYTHONPATH=src python benchmarks/bench_fanout.py
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.service import StandingQueryService

MINUTE = 60_000
NUM_EVENTS = 1200
SUBSCRIBER_SWEEP = [1, 100, 10_000, 100_000]
#: events between pull rounds: at most two deltas per event, so a
#: subscriber never lags its 256-delta capacity.
PULL_EVERY = 64
REPEATS = 3
GATE_PUBLISH_RATIO = 2.0
GATE_BYTES_PER_SUBSCRIBER = 400

SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)
CHURN = (
    "SELECT k, wend, MAX(v) AS top FROM Tumble(data => TABLE(S), "
    "timecol => DESCRIPTOR(ts), dur => INTERVAL '10' MINUTE) TS "
    "GROUP BY k, wend EMIT STREAM"
)

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_fanout.json"
SCHEMA_VERSION = 1


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
    print(f"wrote {path}")
