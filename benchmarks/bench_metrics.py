"""Metrics-layer benchmark: observability cost and shard-skew report.

Runs a key-partitionable NEXMark aggregation (per-auction bid counts
over tumbling windows) serially and sharded, with a trace collector
attached, and writes ``BENCH_metrics.json`` — the artifact CI uploads:

* per-configuration wall time and events/second (the metrics layer is
  always on, so these times *include* its cost);
* what that cost is per delivery, as counts that repeat exactly
  (``accounting``): a resident 16-output flow is fed one event per
  ``process`` under ``sys.setprofile``, and the Python-level calls per
  event — in total, and into ``repro/obs/`` — are recorded.  Accounting
  rides the edge and root telemetry is derived when it is read, so the
  second number is gated: ``obs_calls_per_event <= 1.5`` (1.0 measured;
  4.6 when every root watermark step recorded its samples, 266 with the
  per-operator, per-emission recorders before that).  The edge helper
  itself (``repro.exec.executor.count_edge``, one call per produced
  batch) is part of the delivery loop and shows in the total.  The same
  flow built at ``batch_size=64`` — columnar, so its plans are fused and
  its aggregates absorb their column-selecting Projects — is fed the
  same events, and the operator invocations per event are counted and
  gated: ``operator_invocations_per_event <= 22`` (the flow compiled
  without absorption or tumble steps made 40.78), and so are the
  Python-level calls per event of that feed:
  ``batch_size_64_calls_per_event <= 175`` (292.6 when an aggregate
  extracted its rows into vectors and dropped late ones before the
  generated fold; its generated row entry reads them inline);
* what the aggregate transition costs per row, also counted: one serial
  ``run()`` of the query, profiled — the calls made while its generated
  row entry (``_fold_rows``, what a row batch enters) is on the stack,
  per row folded, gated at ``fold_calls_per_row <= 4.4`` (4.33
  measured; the hand-written fold loop made 9.02), and the
  ``record_emit_run`` calls inside ``run()``, gated at 0 (the parent
  recorded 250: one per root watermark step);
* the per-operator flow totals from the :class:`MetricsReport`;
* rows routed per shard and the max/min skew summary;
* the trace summary (batches, changes, watermark advances);
* per-query emit-latency and watermark-lag percentiles (``latency``),
  identical across configurations by the routing invariance argument.

``schema_version`` is bumped whenever the artifact layout changes so
downstream dashboards can dispatch on it (currently 7: the calls per
event at ``batch_size=64`` in ``accounting``, and the fold's calls per
row counted in its row entry; 6 added the fold's calls per row and the
telemetry recorded inside ``run()``; 5 added operator invocations; 4 added the ``accounting`` stanza; 3
added the execution knobs ``batch_size``/``coalesce_updates`` to the
workload stanza so runs at different settings are never compared as
equals).

Runs under plain pytest (no pytest-benchmark fixtures) and as a
script::

    PYTHONPATH=src python benchmarks/bench_metrics.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro import ExecutionConfig, StreamEngine, TraceCollector
from repro.exec.executor import Dataflow
from repro.exec.operators.aggregate import AggregateOperator
from repro.nexmark import NexmarkConfig, generate
from repro.obs.telemetry import RunTelemetry

NUM_EVENTS = 5_000
SHARD_SWEEP = [1, 2, 4]

SQL = """
    SELECT TB.auction, TB.wend, COUNT(*) AS bids
    FROM Tumble(
      data    => TABLE(Bid),
      timecol => DESCRIPTOR(bidtime),
      dur     => INTERVAL '10' SECONDS) TB
    GROUP BY TB.auction, TB.wend
"""

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_metrics.json"
SCHEMA_VERSION = 7

#: gate on Python-level calls into ``repro/obs/`` per delivered event
OBS_CALLS_PER_EVENT_MAX = 1.5
#: gate on calls made inside the generated aggregate fold, per row folded
FOLD_CALLS_PER_ROW_MAX = 4.4
#: gate on operator invocations per delivered event, at ``batch_size=64``
INVOCATIONS_PER_EVENT_MAX = 22
#: gate on Python-level calls per delivered event, at ``batch_size=64``
CALLS_PER_EVENT_64_MAX = 175
ACCOUNTING_EVENTS = 2_000


def _latency(report) -> dict:
    """The run's latency telemetry as plain JSON-able percentiles."""
    telemetry = report.telemetry
    if telemetry is None:  # pragma: no cover — every dataflow attaches one
        return {}
    return telemetry.summary()


def _workload():
    return generate(NexmarkConfig(num_events=NUM_EVENTS, seed=42))


def _run_serial_traced(streams) -> dict:
    """Serial run with a trace collector attached to the dataflow."""
    engine = StreamEngine()
    streams.register_on(engine)
    dataflow = engine.query(SQL).dataflow()
    trace = TraceCollector()
    dataflow.trace = trace
    start = time.perf_counter()
    result = dataflow.run()
    elapsed = time.perf_counter() - start
    return {
        "shards": 1,
        "backend": "serial",
        "seconds": elapsed,
        "events_per_second": NUM_EVENTS / elapsed,
        "totals": result.metrics.totals,
        "late_dropped": result.late_dropped,
        "expired_rows": result.expired_rows,
        "latency": _latency(result.metrics),
        "trace": trace.summary(),
    }


def _run_sharded(streams, shards: int) -> dict:
    # Single-phase pinned: a two-phase run adds a combine stage whose
    # operators count rows of their own, and the totals below are
    # compared with the serial run's operator for operator.
    engine = StreamEngine(
        config=ExecutionConfig(
            parallelism=shards, backend="sync", two_phase="off"
        )
    )
    streams.register_on(engine)
    query = engine.query(SQL)
    assert query.partition_decision().partitionable
    start = time.perf_counter()
    result = query.run()
    elapsed = time.perf_counter() - start
    report = result.metrics
    return {
        "shards": shards,
        "backend": "sync",
        "seconds": elapsed,
        "events_per_second": NUM_EVENTS / elapsed,
        "totals": report.totals,
        "late_dropped": result.late_dropped,
        "expired_rows": result.expired_rows,
        "latency": _latency(report),
        "shard_rows": report.shard_rows,
        "skew": report.skew,
    }


def _tumble(select: str, seconds: int, where: str = "") -> str:
    return (
        f"SELECT TB.wend, {select} AS x FROM Tumble(data => TABLE(Bid), "
        f"timecol => DESCRIPTOR(bidtime), "
        f"dur => INTERVAL '{seconds}' SECONDS) TB {where} GROUP BY TB.wend"
    )


#: 16 standing queries: 8 aggregates over one shared scan + tumble
#: prefix, 8 with a filter and a window of their own
ACCOUNTING_QUERIES = [
    _tumble(aggregate, 10)
    for aggregate in (
        "MAX(TB.price)", "MIN(TB.price)", "COUNT(*)", "SUM(TB.price)",
        "AVG(TB.price)", "MAX(TB.bidder)", "MIN(TB.bidder)", "SUM(TB.bidder)",
    )
] + [
    _tumble("COUNT(*)", 5 * (n + 2), where=f"WHERE TB.price > {100 * (n + 1)}")
    for n in range(8)
]


def _accounting_flow(streams, config=None) -> Dataflow:
    """The resident 16-output flow, built under ``config``."""
    engine = StreamEngine(config=config)
    streams.register_on(engine)
    flow = engine.query(ACCOUNTING_QUERIES[0]).dataflow()
    for n, sql in enumerate(ACCOUNTING_QUERIES[1:], 1):
        flow.attach_output(f"q{n}", engine.query(sql).plan)
    return flow


def _profiled(flow, events, count) -> None:
    """Feed ``events`` one ``process`` each, calling ``count(frame)`` on
    every Python-level call."""

    def profile(frame, event, arg):
        if event == "call":
            count(frame)

    sys.setprofile(profile)
    try:
        for event in events:
            flow.process(event, "Bid")
    finally:
        sys.setprofile(None)


def _count_accounting_calls(streams) -> dict:
    """Python-level calls per event through a resident 16-output flow,
    one event per ``process`` — counts, so they repeat exactly — and the
    calls and operator invocations per event of the same flow at
    ``batch_size=64`` (every ``Dataflow._push_changes`` is one
    operator's ``on_batch`` or ``on_cols``)."""
    events = streams.bids.events()[:ACCOUNTING_EVENTS]
    counts = {"total": 0, "obs": 0, "total_64": 0, "invocations": 0}
    obs_dir = str(Path("repro") / "obs") + "/"

    def call(frame):
        counts["total"] += 1
        if obs_dir in frame.f_code.co_filename:
            counts["obs"] += 1

    flow = _accounting_flow(streams)
    _profiled(flow, events, call)
    push = Dataflow._push_changes.__code__

    def invocation(frame):
        counts["total_64"] += 1
        if frame.f_code is push:
            counts["invocations"] += 1

    fused = _accounting_flow(streams, ExecutionConfig(batch_size=64))
    _profiled(fused, events, invocation)
    return {
        "outputs": len(flow.output_ids()),
        "operators": len(flow.operators),
        "events": len(events),
        "calls_per_event": counts["total"] / len(events),
        "batch_size_64_calls_per_event": counts["total_64"] / len(events),
        "batch_size_64_calls_per_event_max": CALLS_PER_EVENT_64_MAX,
        "obs_calls_per_event": counts["obs"] / len(events),
        "obs_calls_per_event_max": OBS_CALLS_PER_EVENT_MAX,
        "batch_size_64_operators": len(fused.operators),
        "operator_invocations_per_event": counts["invocations"] / len(events),
        "operator_invocations_per_event_max": INVOCATIONS_PER_EVENT_MAX,
    }


def _count_fold_calls(streams) -> dict:
    """One serial ``run()`` of the bench query under ``sys.setprofile``:
    the Python- and C-level calls made while the aggregate's generated
    row entry is on the stack, per row it folds, and the
    ``record_emit_run`` calls inside ``run()`` — root telemetry is
    derived when it is read, so none; the read after the run records."""
    engine = StreamEngine()
    streams.register_on(engine)
    flow = engine.query(SQL).dataflow()
    (aggregate,) = [op for op in flow.operators if isinstance(op, AggregateOperator)]
    fold = aggregate._fold_rows.__code__
    counts = {"depth": 0, "calls": 0, "records": 0}
    real_record = RunTelemetry.record_emit_run

    def profile(frame, event, arg):
        if frame.f_code is fold and event in ("call", "return"):
            counts["depth"] += 1 if event == "call" else -1
        elif counts["depth"] and event in ("call", "c_call"):
            counts["calls"] += 1

    def record(telemetry, *args):
        counts["records"] += 1
        return real_record(telemetry, *args)

    RunTelemetry.record_emit_run = record
    sys.setprofile(profile)
    try:
        result = flow.run()
    finally:
        sys.setprofile(None)
        RunTelemetry.record_emit_run = real_record
    entry = aggregate.metrics()
    folded = sum(entry["rows_in"]) - entry["late_dropped"]
    return {
        "rows_folded": folded,
        "fold_calls_per_row": counts["calls"] / folded,
        "fold_calls_per_row_max": FOLD_CALLS_PER_ROW_MAX,
        "record_emit_run_in_run": counts["records"],
        "telemetry_samples_on_read": result.metrics.telemetry.watermark_lag.count,
    }


def collect() -> dict:
    """All configurations; the serial totals anchor the sharded ones."""
    streams = _workload()
    runs = [_run_serial_traced(streams)]
    for shards in SHARD_SWEEP[1:]:
        runs.append(_run_sharded(streams, shards))
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "events": NUM_EVENTS,
            "seed": 42,
            "query": " ".join(SQL.split()),
            "batch_size": 1,
            "coalesce_updates": False,
            "two_phase": "off",
        },
        "runs": runs,
        "accounting": {
            **_count_accounting_calls(streams), **_count_fold_calls(streams)
        },
    }


def write_artifact(payload: dict) -> Path:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return ARTIFACT


def test_metrics_bench_produces_artifact():
    """The bench is also the regression gate: every configuration must
    agree on the flow totals (routing-invariant counters), and the
    artifact must land on disk for CI to upload."""
    payload = collect()
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["workload"]["batch_size"] == 1
    assert payload["workload"]["coalesce_updates"] is False
    serial = payload["runs"][0]
    assert serial["latency"]["emit_latency"]["count"] > 0
    for run in payload["runs"][1:]:
        for key in ("rows_in", "rows_out", "late_dropped", "expired_rows"):
            assert run["totals"][key] == serial["totals"][key], key
        assert sum(run["shard_rows"]) == sum(
            payload["runs"][1]["shard_rows"]
        )  # every row routed exactly once, regardless of width
        # Routing invariance: shard-merged latency histograms hold exactly
        # the serial run's samples.
        assert run["latency"] == serial["latency"]
    assert serial["trace"]["batches"] > 0
    assert serial["trace"]["watermark_advances"] > 0
    accounting = payload["accounting"]
    assert accounting["outputs"] == 16
    assert accounting["obs_calls_per_event"] <= OBS_CALLS_PER_EVENT_MAX, accounting
    assert (
        accounting["operator_invocations_per_event"] <= INVOCATIONS_PER_EVENT_MAX
    ), accounting
    assert (
        accounting["batch_size_64_calls_per_event"] <= CALLS_PER_EVENT_64_MAX
    ), accounting
    assert accounting["fold_calls_per_row"] <= FOLD_CALLS_PER_ROW_MAX, accounting
    assert accounting["record_emit_run_in_run"] == 0, accounting
    assert accounting["telemetry_samples_on_read"] > 0, accounting
    path = write_artifact(payload)
    assert path.exists() and path.stat().st_size > 0


if __name__ == "__main__":
    data = collect()
    path = write_artifact(data)
    for run in data["runs"]:
        print(
            f"shards={run['shards']:<2} ({run['backend']:>7}): "
            f"{run['seconds']:.3f}s  {run['events_per_second']:,.0f} ev/s  "
            f"rows_out={run['totals']['rows_out']}"
        )
    counted = data["accounting"]
    print(
        f"accounting: {counted['calls_per_event']:.1f} calls/event, "
        f"{counted['obs_calls_per_event']:.1f} into repro/obs "
        f"(gate <= {counted['obs_calls_per_event_max']}) over "
        f"{counted['outputs']} outputs / {counted['operators']} operators"
    )
    print(
        f"at batch_size=64: {counted['batch_size_64_calls_per_event']:.1f} "
        f"calls/event (gate <= {counted['batch_size_64_calls_per_event_max']}), "
        f"{counted['operator_invocations_per_event']:.2f} "
        f"operator invocations/event (gate <= "
        f"{counted['operator_invocations_per_event_max']}) over "
        f"{counted['batch_size_64_operators']} operators"
    )
    print(
        f"fold row entry: {counted['fold_calls_per_row']:.2f} calls/row folded "
        f"(gate <= {counted['fold_calls_per_row_max']}); record_emit_run inside run(): "
        f"{counted['record_emit_run_in_run']} (gate 0)"
    )
    print(f"wrote {path}")
