"""Micro-batching benchmark: columnar throughput sweep and compaction.

Sweeps ``batch_size`` x ``columnar`` x ``coalesce_updates`` over four
NEXMark-shaped workloads on a *bursty* generated stream
(``events_per_instant=64``, so same-instant runs actually exist for the
scheduler to batch) and writes ``BENCH_batching.json`` — the artifact
CI uploads:

* **tumble** — tumbling-window MAX grouped by window end: one running
  extreme per window, the shape where columnar batches amortize best.
  This workload carries the headline throughput gate.
* **tumble_churn** — the same window with ``COUNT(*)``: every bid in a
  burst retracts and re-emits the running count, so the changelog is
  churn-dominated.  It carries the coalescing gate (compaction must
  remove >= 30% of propagated changes) and pins byte-identity on the
  worst-case retraction pattern.
* **q3** — NEXMark Q3, an incremental two-stream join;
* **q7** — NEXMark Q7, whose plan scans ``Bid`` twice; its multi-leaf
  source is deliberately *excluded* from batching by the scheduler, so
  it benchmarks the fallback path and proves it stays correct.

Every default-mode run (``coalesce_updates=False``) — serial or
sharded, columnar auto or off, two-phase or single-phase, plan-shared or
not — is asserted change-for-change
identical to the ``batch_size=1`` row-at-a-time baseline: the batching
invariant of ``docs/RUNTIME.md`` sections 7 and 9.  Coalesced runs are
asserted snapshot-equivalent at every distinct processing instant,
with the churn they removed reported as ``changes_coalesced``.

A **burst-1** arm runs NEXMark's *default* generator — one event per
processing-time instant, a watermark every 20 events — through Q0, Q1,
Q2 and the suite's per-auction tumble shape at ``batch_size=64``
against ``batch_size=1``: byte-identical, and the serial replay must
deliver the scanned rows in runs that span instants, at most
``ceil(rows / 64) + watermarks`` deliveries (a count gate; the speedup
is printed).

``batch_size=0`` in the sweep is shorthand for *per-instant* batching
(no size cap: one batch per same-instant run), spelled
``PER_INSTANT_BATCH`` at the execution layer.

The generator's watermark cadence is widened to ``WATERMARK_INTERVAL``
events: a watermark must break a scheduler run (the input watermark
may not move inside a batch), so the default cadence of 20 would cap
every effective batch at ~18 bids no matter what ``batch_size`` says.
192 leaves three full 64-event bursts between watermarks — batching is
measured at the sizes the sweep names, while still exercising hundreds
of watermark advances per run.

Runs under plain pytest (no pytest-benchmark fixtures) and as a
script::

    PYTHONPATH=src python benchmarks/bench_batching.py
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from repro import ExecutionConfig, StreamEngine
from repro.exec.executor import Dataflow
from repro.nexmark import NexmarkConfig, generate
from repro.nexmark.queries import (
    Q0_PASSTHROUGH,
    Q1_CURRENCY,
    Q3_LOCAL_ITEM_SUGGESTION,
    q2_selection,
    q7_highest_bid,
    register_udfs,
)
from repro.service import StandingQueryService

NUM_EVENTS = 5_000
EVENTS_PER_INSTANT = 64
WATERMARK_INTERVAL = 192
SEED = 42

#: sweep values; 0 means "per-instant" (no cap on the same-instant run).
BATCH_SWEEP = [1, 16, 64, 256, 0]
PER_INSTANT_BATCH = 1 << 30

#: the headline pair: columnar batch=64 vs row-at-a-time batch=1.  Its
#: wall-clock floor is printed, not gated: it flaps on shared hosts, and
#: speed is judged by the suite's ``replay.window`` comparison.
GATE_BATCH = 64
SPEEDUP_FLOOR = 5.0

TUMBLE_SQL = """
    SELECT TB.wend, MAX(TB.price) AS high
    FROM Tumble(
      data    => TABLE(Bid),
      timecol => DESCRIPTOR(bidtime),
      dur     => INTERVAL '10' SECONDS) TB
    GROUP BY TB.wend
"""

TUMBLE_CHURN_SQL = """
    SELECT TB.wend, COUNT(*) AS bids
    FROM Tumble(
      data    => TABLE(Bid),
      timecol => DESCRIPTOR(bidtime),
      dur     => INTERVAL '10' SECONDS) TB
    GROUP BY TB.wend
"""

WORKLOADS = {
    "tumble": TUMBLE_SQL,
    "tumble_churn": TUMBLE_CHURN_SQL,
    "q3": Q3_LOCAL_ITEM_SUGGESTION,
    "q7": q7_highest_bid(),
}

#: the burst-1 arm: queries over ``Bid`` alone, on the default generator
BURST_ONE = {
    "q0": Q0_PASSTHROUGH,
    "q1": Q1_CURRENCY,
    "q2": q2_selection(),
    "per_auction": """
        SELECT TB.auction, TB.wend, COUNT(*) AS bids, MAX(TB.price) AS high
        FROM Tumble(
          data    => TABLE(Bid),
          timecol => DESCRIPTOR(bidtime),
          dur     => INTERVAL '10' SECONDS) TB
        GROUP BY TB.auction, TB.wend
    """,
}
BURST_ONE_EVENTS = 20_000

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_batching.json"
SCHEMA_VERSION = 6


def _streams():
    return generate(
        NexmarkConfig(
            num_events=NUM_EVENTS,
            seed=SEED,
            events_per_instant=EVENTS_PER_INSTANT,
            watermark_interval=WATERMARK_INTERVAL,
        )
    )


def _engine(streams, **config) -> StreamEngine:
    engine = StreamEngine(config=ExecutionConfig(**config))
    streams.register_on(engine)
    return engine


def _run(
    streams,
    sql: str,
    batch_size: int,
    coalesce: bool,
    columnar: str = "off",
) -> tuple:
    """One serial configuration; returns (record, RunResult)."""
    effective = batch_size if batch_size >= 1 else PER_INSTANT_BATCH
    engine = _engine(
        streams,
        batch_size=effective,
        coalesce_updates=coalesce,
        columnar=columnar,
    )
    flow = engine.query(sql).dataflow()
    start = time.perf_counter()
    result = flow.run()
    elapsed = time.perf_counter() - start
    totals = result.metrics.totals
    record = {
        "batch_size": batch_size or "per-instant",
        "coalesce_updates": coalesce,
        "columnar": columnar,
        "backend": "serial",
        "seconds": elapsed,
        "events_per_second": NUM_EVENTS / elapsed,
        "root_changes": len(result.changes),
        "rows_out": totals["rows_out"],
        "retracts_out": totals["retracts_out"],
        "changes_coalesced": totals["changes_coalesced"],
    }
    return record, result


def _run_sharded(streams, sql: str, batch_size: int, columnar: str) -> tuple:
    """Sharded default-mode run (None when the plan is not partitionable)."""
    engine = _engine(
        streams,
        parallelism=4,
        backend="sync",
        batch_size=batch_size,
        columnar=columnar,
    )
    query = engine.query(sql)
    if not query.partition_decision().partitionable:
        return None, None
    start = time.perf_counter()
    result = query.run()
    elapsed = time.perf_counter() - start
    record = {
        "batch_size": batch_size,
        "coalesce_updates": False,
        "columnar": columnar,
        "backend": "sync(4)",
        "seconds": elapsed,
        "events_per_second": NUM_EVENTS / elapsed,
        "root_changes": len(result.changes),
    }
    return record, result


def _assert_identical(baseline, result, label: str) -> None:
    assert result.changes == baseline.changes, f"{label}: changelog diverged"
    assert result.watermarks.as_pairs() == baseline.watermarks.as_pairs(), (
        f"{label}: watermark track diverged"
    )


def _assert_snapshot_equivalent(baseline, result, label: str) -> None:
    instants = sorted(
        {c.ptime for c in baseline.changes} | {c.ptime for c in result.changes}
    )
    for at in instants:
        assert baseline.snapshot(at) == result.snapshot(at), (
            f"{label}: snapshot diverged at ptime {at}"
        )


def _burst_one_run(streams, sql: str, batch_size: int) -> tuple:
    """One serial run; returns (RunResult, seconds, sizes of the row
    deliveries of ``Bid`` — each run passes ``Dataflow._deliver`` once)."""
    engine = _engine(streams, batch_size=batch_size)
    register_udfs(engine)  # (Q1's currency conversion)
    flow = engine.query(sql).dataflow()
    sizes = []
    real = Dataflow._deliver

    def counted(self, events, source, seqs=None):
        if source == "bid":
            sizes.append(len(events))
        return real(self, events, source, seqs)

    Dataflow._deliver = counted
    try:
        start = time.perf_counter()
        result = flow.run()
        elapsed = time.perf_counter() - start
    finally:
        Dataflow._deliver = real
    return result, elapsed, sizes


def _burst_one() -> list[dict]:
    """The burst-1 arm: byte-identity with ``batch_size=1``, the delivery
    count against its bound, and the speedup."""
    streams = generate(NexmarkConfig(num_events=BURST_ONE_EVENTS, seed=SEED))
    bids = streams.bids.events()
    rows = sum(1 for event in bids if hasattr(event, "change"))
    marks = len(bids) - rows
    records = []
    for name, sql in BURST_ONE.items():
        baseline, per_event_s, _ = _burst_one_run(streams, sql, 1)
        result, batched_s, sizes = _burst_one_run(streams, sql, GATE_BATCH)
        _assert_identical(baseline, result, f"burst-1 {name}")
        assert sum(sizes) == rows, f"burst-1 {name}: rows lost"
        records.append({
            "name": name,
            "rows": rows,
            "watermarks": marks,
            "row_deliveries": len(sizes),
            "bound": math.ceil(rows / GATE_BATCH) + marks,
            "speedup": per_event_s / batched_s,
        })
    return records


def _mqo_deltas(streams, share_plans: bool, **config) -> list:
    """Run the tumble workload as a standing query; return its deltas."""
    from repro.core.tvr import TimeVaryingRelation

    service = StandingQueryService(
        config=ExecutionConfig(share_plans=share_plans, **config)
    )
    # register an *empty* stream with the generated schema, then replay
    # the recording through the live ingest path (the registered TVR
    # records what the service ingests, so it must start empty).
    service.register_stream("Bid", TimeVaryingRelation(streams.bids.schema))
    query = service.submit("bench", TUMBLE_SQL)
    for event in streams.bids.events():
        service.ingest(event, "Bid")
    return query.flow.output_slice_of(query.output_id, 0)


def _check_mqo(streams) -> dict:
    """Plan-shared columnar service vs unshared row service: same deltas."""
    shared = _mqo_deltas(
        streams, share_plans=True, batch_size=GATE_BATCH, columnar="auto"
    )
    unshared = _mqo_deltas(streams, share_plans=False, columnar="off")
    assert shared == unshared, "mqo: shared columnar deltas diverged"
    return {
        "workload": "tumble",
        "deltas": len(shared),
        "identical": True,
    }


def collect() -> dict:
    streams = _streams()
    workloads = []
    for name, sql in WORKLOADS.items():
        baseline = None
        runs = []
        for batch_size in BATCH_SWEEP:
            modes = [("off", False), ("off", True)]
            if batch_size != 1:
                # columnar is a no-op at batch_size=1 (single events
                # take the row path); sweep it where batches exist.
                modes.insert(1, ("auto", False))
            for columnar, coalesce in modes:
                record, result = _run(
                    streams, sql, batch_size, coalesce, columnar=columnar
                )
                label = (
                    f"{name} batch={record['batch_size']} "
                    f"columnar={columnar} coalesce={coalesce}"
                )
                if baseline is None:
                    baseline = result  # batch=1, columnar=off, no coalesce
                elif not coalesce:
                    _assert_identical(baseline, result, label)
                else:
                    _assert_snapshot_equivalent(baseline, result, label)
                runs.append(record)
        sharded, sharded_result = _run_sharded(
            streams, sql, GATE_BATCH, columnar="auto"
        )
        if sharded is not None:  # (None: not partitionable)
            _assert_identical(baseline, sharded_result, f"{name} sharded")
            runs.append(sharded)
        workloads.append(
            {
                "name": name,
                "query": " ".join(sql.split()),
                "events": NUM_EVENTS,
                "seed": SEED,
                "events_per_instant": EVENTS_PER_INSTANT,
                "watermark_interval": WATERMARK_INTERVAL,
                "runs": runs,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "workloads": workloads,
        "mqo": _check_mqo(streams),
        "burst_one": _burst_one(),
    }


def write_artifact(payload: dict) -> Path:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return ARTIFACT


def _find(workload: dict, batch_size, coalesce: bool, columnar: str) -> dict:
    for run in workload["runs"]:
        if (
            run["batch_size"] == batch_size
            and run["coalesce_updates"] is coalesce
            and run["columnar"] == columnar
            and run["backend"] == "serial"
        ):
            return run
    raise AssertionError(
        f"missing run batch={batch_size} coalesce={coalesce} "
        f"columnar={columnar}"
    )


def report_speedup(payload: dict) -> float:
    """Print the headline pair's throughput ratio against its floor."""
    tumble = payload["workloads"][0]
    speedup = (
        _find(tumble, GATE_BATCH, False, "auto")["events_per_second"]
        / _find(tumble, 1, False, "off")["events_per_second"]
    )
    print(
        f"tumble columnar batch={GATE_BATCH} vs batch=1: {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR:g}x, printed only)"
    )
    return speedup


def report_burst_one(payload: dict) -> None:
    """Print the burst-1 arm and gate its delivery counts."""
    for record in payload["burst_one"]:
        print(
            f"burst-1 {record['name']}: {record['row_deliveries']} row "
            f"deliveries for {record['rows']} rows (bound {record['bound']}), "
            f"batch={GATE_BATCH} vs batch=1: {record['speedup']:.2f}x"
        )
        assert record["row_deliveries"] <= record["bound"], record


def test_batching_bench_produces_artifact():
    """The bench is also the regression gate, on counts: coalescing
    must actually shrink the changelog (>= 30% fewer propagated changes
    on the churn workload), and the artifact must land on disk for CI
    to upload, and the burst-1 arm's row deliveries must stay within
    their bound.  The change-for-change and snapshot equivalence checks
    already ran inside :func:`collect`; the columnar speedup is printed
    against its floor, not gated."""
    payload = collect()
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["mqo"]["identical"]
    assert payload["workloads"][0]["name"] == "tumble"
    report_speedup(payload)
    report_burst_one(payload)

    churn = payload["workloads"][1]
    assert churn["name"] == "tumble_churn"
    churn_serial = _find(churn, 1, False, "off")
    coalesced = _find(churn, GATE_BATCH, True, "off")
    before = churn_serial["rows_out"] + churn_serial["retracts_out"]
    after = coalesced["rows_out"] + coalesced["retracts_out"]
    reduction = 1 - after / before
    assert coalesced["changes_coalesced"] > 0
    assert reduction >= 0.30, f"coalesce reduction only {reduction:.1%}"

    path = write_artifact(payload)
    assert path.exists() and path.stat().st_size > 0


if __name__ == "__main__":
    data = collect()
    path = write_artifact(data)
    for workload in data["workloads"]:
        print(f"== {workload['name']}")
        for run in workload["runs"]:
            print(
                f"  batch={run['batch_size']!s:>11} "
                f"columnar={run['columnar']:<4} "
                f"coalesce={str(run['coalesce_updates']):<5} "
                f"({run['backend']:>10}): {run['seconds']:.3f}s  "
                f"{run['events_per_second']:>9,.0f} ev/s  "
                f"changes={run['root_changes']}"
            )
    mqo = data["mqo"]
    print(f"== mqo  shared-plan deltas={mqo['deltas']} identical={mqo['identical']}")
    report_speedup(data)
    report_burst_one(data)
    print(f"wrote {path}")
