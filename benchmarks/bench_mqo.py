"""Multi-query optimization benchmark: shared-subplan throughput sweep.

Sweeps the number of resident standing queries (1 → 64) over a fixed
pool of four distinct query shapes — alias-varied tumbling-window
aggregates over one keyed stream — so the count of *distinct* subplans
stays constant while the sharing ratio grows.  Every sweep point runs
twice through the standing-query service: once with ``share_plans``
on (queries with matching fingerprints graft onto one DAG, the shared
prefix executes once per ingested event) and once with it off (one
private dataflow per query, the pre-MQO behaviour).

Two things are asserted on every point, making the bench double as a
regression gate:

* **byte-identity** — each standing query's full delta stream is
  change-for-change identical with sharing on or off (the invariant of
  ``docs/MQO.md``);
* **it pays** — at 16 standing queries the shared service must ingest
  at least 3x the events/second of the unshared one.

A counted arm admits 8 late joiners, one after another, onto a
16-member host whose history does not change between them (each is
withdrawn again), then one more after a single appended event.  Per
register it counts what a graft re-derives, and the counts must repeat
exactly: ``plan_fingerprint`` calls (at most 1: the joiner's own; the
members' are kept on the flow record), ``node_fingerprints`` walks (at
most 4: the joiner's plan, the host-overlap probe, the donor and the
graft) and passes of the merge and of run grouping over the recorded
history (1 for the first joiner after an append, 0 for every other:
replays read the engine's prepared history, ``repro.exec.history``).
It also gates where each joiner's catch-up history rests: all of it
sealed, encoded at rest, and none as live ``Change`` objects —
``describe()["history"]`` is ``{"sealed": N, "live": 0}`` with ``N``
the length of the one-shot changelog of the same SQL over the same
history.

Writes ``BENCH_mqo.json`` — the artifact the CI ``mqo-bench`` job
uploads.  Runs under plain pytest and as a script::

    PYTHONPATH=src python benchmarks/bench_mqo.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import repro.exec.executor
import repro.exec.history
import repro.plan.fingerprint
import repro.service.session
from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.service import StandingQueryService
from repro.service.admission import TenantPolicy

MINUTE = 60_000
NUM_EVENTS = 600
QUERY_SWEEP = [1, 2, 4, 8, 16, 32, 64]
GATE_POINT = 16
GATE_SPEEDUP = 3.0

SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

TUMBLE = (
    "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE)"
)

#: Four distinct subplans; every query in the sweep is one of these
#: with a per-query output alias (aliases are fingerprint-invariant,
#: so copies of the same shape share their whole plan).
POOL = [
    f"SELECT k, wend, SUM(v) AS a{{i}} FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM",
    f"SELECT k, wend, MAX(v) AS a{{i}} FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM",
    f"SELECT k, wend, MIN(v) AS a{{i}} FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM",
    f"SELECT k, wend, COUNT(*) AS a{{i}} FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM",
]

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_mqo.json"
SCHEMA_VERSION = 3
LATE_JOINERS = 8
#: what one register may re-derive on the counted arm (see the module doc)
MAX_PLAN_FINGERPRINTS = 1
MAX_NODE_WALKS = 4


def make_events(n: int, start: int = 1_000_000) -> list:
    """A deterministic keyed stream with a watermark every 5th event."""
    events, ptime, wm_value = [], start, 0
    for i in range(n):
        ptime += 15_000
        if i % 5 == 4:
            wm_value += 2 * MINUTE
            events.append(wm(ptime, wm_value))
        else:
            events.append(
                ins(ptime, (i % 5, (i * 37_000) % (12 * MINUTE), i))
            )
    return events


def pool_queries(n: int) -> list[str]:
    """``n`` SQL texts cycling the pool, each with a unique alias."""
    return [POOL[i % len(POOL)].format(i=i) for i in range(n)]


def _service(share_plans: bool) -> StandingQueryService:
    svc = StandingQueryService(
        config=ExecutionConfig(share_plans=share_plans),
        default_policy=TenantPolicy(name="*", max_standing_queries=128),
    )
    svc.register_stream("S", TimeVaryingRelation(SCHEMA))
    return svc


def _run(n: int, events: list, share_plans: bool) -> tuple[dict, list]:
    """Admit ``n`` queries, ingest the stream, time the ingest loop."""
    svc = _service(share_plans)
    queries = [svc.submit("bench", sql) for sql in pool_queries(n)]
    start = time.perf_counter()
    for event in events:
        svc.ingest(event, "S")
    elapsed = time.perf_counter() - start
    session = svc.session
    record = {
        "share_plans": share_plans,
        "queries": n,
        "seconds": elapsed,
        "events_per_second": len(events) / elapsed,
        "resident_operators": sum(
            r.flow.resident_operator_count() for r in session.plan_cache.records
        ),
        "shared_subplans": session.shared_subplans(),
        "sharing_ratio": session.sharing_ratio(),
    }
    deltas = [
        q.flow.output_slice_of(q.output_id, 0) for q in queries
    ]
    return record, deltas


#: (module, attribute, count key) of every call the counted arm counts
COUNTED = (
    (repro.service.session, "plan_fingerprint", "plan_fingerprints"),
    (repro.exec.executor, "node_fingerprints", "node_walks"),
    (repro.plan.fingerprint, "node_fingerprints", "node_walks"),
    (repro.exec.history, "merge_events", "merges"),
    (repro.exec.history, "event_runs", "groupings"),
)


def late_joiner_counts(events: list) -> dict:
    """The counted arm: per register, the calls :data:`COUNTED` names,
    for 8 late joiners onto a 16-member host with history unchanged
    between them, then for one joiner after one appended event."""
    late = [
        POOL[i % len(POOL)].format(i=GATE_POINT + i) for i in range(LATE_JOINERS + 1)
    ]
    # the one-shot changelog length each joiner's sealed history must have
    oneshot = [oneshot_length(sql, events[:-1]) for sql in late[:-1]]
    oneshot.append(oneshot_length(late[-1], events))
    svc = _service(share_plans=True)
    hosts = {id(svc.submit("bench", sql).flow) for sql in pool_queries(GATE_POINT)}
    assert len(hosts) == 1, "the 16 members do not share one flow"
    for event in events[:-1]:
        svc.ingest(event, "S")
    counts: dict[str, int] = {}

    def counting(real, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return counted

    saved = [(module, name, getattr(module, name)) for module, name, _ in COUNTED]
    for (module, name, key), (_, _, real) in zip(COUNTED, saved):
        setattr(module, name, counting(real, key))
    per_register: list[dict[str, int]] = []

    def register(sql: str, changes: int) -> None:
        counts.update(dict.fromkeys((key for _, _, key in COUNTED), 0))
        started = time.perf_counter()
        query = svc.submit("late", sql)
        elapsed = time.perf_counter() - started
        assert id(query.flow) in hosts, "a late joiner did not graft"
        history = query.describe()["history"]
        per_register.append({
            **counts, "register_ms": elapsed * 1e3, "oneshot_changes": changes,
            "history_sealed": history["sealed"], "history_live": history["live"],
        })
        svc.withdraw(query.query_id)

    try:
        for sql, changes in zip(late[:-1], oneshot):
            register(sql, changes)
        svc.ingest(events[-1], "S")
        register(late[-1], oneshot[-1])
    finally:
        for module, name, real in saved:
            setattr(module, name, real)
    return {
        "members": GATE_POINT,
        "history_events": len(events) - 1,
        "late_joiners": per_register[:-1],
        "after_append": per_register[-1],
    }


def oneshot_length(sql: str, events: list) -> int:
    """How many changes a one-shot run of ``sql`` over ``events`` emits."""
    engine = StreamEngine()
    engine.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    return len(engine.query(sql).run().changes)


def check_counts(arm: dict) -> None:
    """The counted arm's gate: the counts repeat exactly, and each
    joiner's catch-up history rests sealed, none of it live."""
    joiners, after = arm["late_joiners"], arm["after_append"]
    for entry in [*joiners, after]:
        assert entry["plan_fingerprints"] <= MAX_PLAN_FINGERPRINTS, entry
        assert entry["node_walks"] <= MAX_NODE_WALKS, entry
        assert entry["history_live"] == 0, entry
        assert entry["history_sealed"] == entry["oneshot_changes"] > 0, entry
    passes = [(entry["merges"], entry["groupings"]) for entry in joiners]
    assert passes == [(1, 1)] + [(0, 0)] * (LATE_JOINERS - 1), passes
    assert (after["merges"], after["groupings"]) == (1, 1), after


def collect() -> dict:
    events = make_events(NUM_EVENTS)
    sweep = []
    for n in QUERY_SWEEP:
        shared, shared_deltas = _run(n, events, share_plans=True)
        unshared, unshared_deltas = _run(n, events, share_plans=False)
        for i, (a, b) in enumerate(zip(shared_deltas, unshared_deltas)):
            assert a == b, (
                f"query {i}/{n}: shared delta stream diverged from unshared"
            )
        sweep.append(
            {
                "queries": n,
                "shared": shared,
                "unshared": unshared,
                "speedup": shared["events_per_second"]
                / unshared["events_per_second"],
            }
        )
    arm = late_joiner_counts(events)
    check_counts(arm)
    return {
        "schema_version": SCHEMA_VERSION,
        "events": NUM_EVENTS,
        "distinct_subplans": len(POOL),
        "sweep": sweep,
        "late_joiner_counts": arm,
    }


def write_artifact(payload: dict) -> Path:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return ARTIFACT


def test_mqo_bench_produces_artifact():
    """The bench is also the gate: at 16 standing queries over 4
    distinct subplans, sharing must hold at least a 3x ingest-
    throughput advantage, the sharing ratio must reflect the 4-way
    multicast, and every delta stream must be byte-identical either
    way, and the counted arm's counts must repeat exactly (both asserted
    inside :func:`collect`)."""
    payload = collect()
    assert payload["schema_version"] == SCHEMA_VERSION
    (point,) = [p for p in payload["sweep"] if p["queries"] == GATE_POINT]
    assert point["speedup"] >= GATE_SPEEDUP, (
        f"sharing speedup at {GATE_POINT} queries only "
        f"{point['speedup']:.2f}x"
    )
    assert point["shared"]["sharing_ratio"] >= 2.0
    assert point["shared"]["resident_operators"] < (
        point["unshared"]["resident_operators"]
    )
    path = write_artifact(payload)
    assert path.exists() and path.stat().st_size > 0


if __name__ == "__main__":
    data = collect()
    path = write_artifact(data)
    for point in data["sweep"]:
        shared, unshared = point["shared"], point["unshared"]
        print(
            f"queries={point['queries']:>3}  "
            f"shared: {shared['events_per_second']:>9,.0f} ev/s "
            f"(ops={shared['resident_operators']}, "
            f"ratio={shared['sharing_ratio']:.2f})  "
            f"unshared: {unshared['events_per_second']:>9,.0f} ev/s "
            f"(ops={unshared['resident_operators']})  "
            f"speedup={point['speedup']:.2f}x"
        )
    arm = data["late_joiner_counts"]
    for index, entry in enumerate([*arm["late_joiners"], arm["after_append"]]):
        label = "after append" if index == LATE_JOINERS else f"joiner {index + 1}"
        print(
            f"{label:>12}: plan_fingerprint={entry['plan_fingerprints']} "
            f"node walks={entry['node_walks']} merges={entry['merges']} "
            f"groupings={entry['groupings']} sealed={entry['history_sealed']} "
            f"live={entry['history_live']} ({entry['register_ms']:.2f} ms)"
        )
    print(f"wrote {path}")
