"""CI telemetry smoke check: one NEXMark query, both exporters, validated.

Runs the per-auction tumbling-window bid count over a generated NEXMark
workload with the Prometheus and JSON-lines exporters attached, then:

* parses the exposition text with :func:`repro.obs.export.parse_exposition`
  (the dependency-free validator) and asserts the stable counter, gauge,
  and histogram families are present with samples;
* re-reads the JSONL event log and asserts every line round-trips to a
  :class:`~repro.obs.TraceEvent`;
* writes both artifacts (``TELEMETRY_smoke.prom``,
  ``TELEMETRY_events.jsonl``) for CI to upload.

With ``--fault-plan`` the run goes through the supervised recovery path:
the plan is injected into every shard worker, workers restart from
checkpoints, and the check additionally asserts that restarts actually
fired (``repro_recovery_shard_restarts_total > 0``) and that the JSONL
log carries the ``"recovery"`` trace events annotating them.

Runs under plain pytest and as a script::

    PYTHONPATH=src python benchmarks/telemetry_smoke.py
    PYTHONPATH=src python benchmarks/telemetry_smoke.py \\
        --fault-plan crash-after-checkpoint
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro import ExecutionConfig, RetryPolicy, StreamEngine
from repro.obs.export import (
    JsonLinesExporter,
    PrometheusExporter,
    parse_exposition,
    read_events,
)
from repro.nexmark import NexmarkConfig, generate

NUM_EVENTS = 2_000
SHARDS = 4

SQL = """
    SELECT TB.auction, TB.wend, COUNT(*) AS bids
    FROM Tumble(
      data    => TABLE(Bid),
      timecol => DESCRIPTOR(bidtime),
      dur     => INTERVAL '10' SECONDS) TB
    GROUP BY TB.auction, TB.wend
"""

ROOT = Path(__file__).resolve().parents[1]
PROM_ARTIFACT = ROOT / "TELEMETRY_smoke.prom"
JSONL_ARTIFACT = ROOT / "TELEMETRY_events.jsonl"

# The stable families the smoke check insists on; a rename here must be
# deliberate and documented in docs/OBSERVABILITY.md.
REQUIRED_FAMILIES = {
    "repro_operator_rows_in_total": "counter",
    "repro_operator_rows_out_total": "counter",
    "repro_operator_wm_advances_total": "counter",
    "repro_operator_state_rows": "gauge",
    "repro_emit_latency_ms": "histogram",
    "repro_root_watermark_lag_ms": "histogram",
}

# Additionally required when the run executes under a fault plan.
RECOVERY_FAMILIES = {
    "repro_recovery_shard_restarts_total": "counter",
    "repro_recovery_rows_replayed_total": "counter",
    "repro_recovery_dedup_drops_total": "counter",
    "repro_recovery_wm_regressions_total": "counter",
}


class _Tee:
    """Fan one run's callbacks out to several exporters."""

    def __init__(self, *exporters):
        self.exporters = exporters

    def on_event(self, event):
        for exporter in self.exporters:
            exporter.on_event(event)

    def export(self, result):
        for exporter in self.exporters:
            exporter.export(result)

    def close(self):
        for exporter in self.exporters:
            exporter.close()


def run_smoke(fault_plan: str | None = None) -> dict:
    """Execute the query with both exporters; return the validated pieces."""
    prom = PrometheusExporter(str(PROM_ARTIFACT))
    jsonl = JsonLinesExporter(str(JSONL_ARTIFACT))
    config = ExecutionConfig(
        parallelism=SHARDS,
        backend="sync",
        telemetry=_Tee(prom, jsonl),
        retry=RetryPolicy(max_restarts=4, checkpoint_interval=50),
        fault_plan=fault_plan,
    )
    engine = StreamEngine(config=config)
    generate(NexmarkConfig(num_events=NUM_EVENTS, seed=42)).register_on(engine)
    result = engine.query(SQL).run()
    engine.telemetry.close()

    required = dict(REQUIRED_FAMILIES)
    if fault_plan is not None:
        required.update(RECOVERY_FAMILIES)
    families = parse_exposition(PROM_ARTIFACT.read_text())
    for name, kind in required.items():
        if name not in families:
            raise AssertionError(f"exposition is missing family {name}")
        if families[name]["type"] != kind:
            raise AssertionError(
                f"{name} should be a {kind}, got {families[name]['type']}"
            )
        if not families[name]["samples"]:
            raise AssertionError(f"family {name} has no samples")

    lines = [
        line for line in JSONL_ARTIFACT.read_text().splitlines() if line.strip()
    ]
    for line in lines:
        json.loads(line)  # every line is one valid JSON object
    events = read_events(str(JSONL_ARTIFACT))
    if len(events) != len(lines):
        raise AssertionError("JSONL log did not round-trip event for event")
    if not any(event.kind == "batch" for event in events):
        raise AssertionError("JSONL log has no batch events")
    # Batches are reported where output is made: for this two-phase plan
    # the combine flow's root, not the shards' partial payloads.
    traced = sum(event.count for event in events if event.kind == "batch")
    if traced != len(result.changes):
        raise AssertionError(
            f"JSONL batch events count {traced} changes, the run "
            f"produced {len(result.changes)}"
        )

    if fault_plan is not None:
        recovery = result.metrics.recovery
        if recovery is None or recovery.shard_restarts < 1:
            raise AssertionError(
                f"fault plan {fault_plan!r} produced no shard restarts — "
                "the injected faults never fired"
            )
        recoveries = [event for event in events if event.kind == "recovery"]
        if len(recoveries) < recovery.shard_restarts:
            raise AssertionError(
                "JSONL log is missing recovery events: "
                f"{len(recoveries)} logged vs {recovery.shard_restarts} restarts"
            )
        # The faulted run must still produce the fault-free answer.
        baseline_engine = StreamEngine(
            config=ExecutionConfig(parallelism=1, backend="sync")
        )
        generate(NexmarkConfig(num_events=NUM_EVENTS, seed=42)).register_on(
            baseline_engine
        )
        baseline = baseline_engine.query(SQL).run()
        if result.changes != baseline.changes:
            raise AssertionError(
                "recovered output diverged from the fault-free serial run"
            )

    return {"result": result, "families": families, "events": events}


def test_telemetry_smoke():
    """The smoke check is also a test: both artifacts validate and land."""
    pieces = run_smoke()
    assert pieces["result"].metrics.telemetry.emit_latency.count > 0
    assert PROM_ARTIFACT.exists() and PROM_ARTIFACT.stat().st_size > 0
    assert JSONL_ARTIFACT.exists() and JSONL_ARTIFACT.stat().st_size > 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="run under a deterministic fault plan (e.g. "
             "'crash-after-checkpoint') and assert recovery happened",
    )
    args = parser.parse_args(argv)
    pieces = run_smoke(args.fault_plan)
    telemetry = pieces["result"].metrics.telemetry
    print(
        f"ok: {len(pieces['families'])} metric families, "
        f"{len(pieces['events'])} trace events, "
        f"emit-latency n={telemetry.emit_latency.count}"
    )
    recovery = pieces["result"].metrics.recovery
    if args.fault_plan is not None and recovery is not None:
        print(
            f"recovery: {recovery.shard_restarts} restart(s), "
            f"{recovery.rows_replayed} rows replayed, "
            f"{recovery.dedup_drops} dedup drops"
        )
    print(f"wrote {PROM_ARTIFACT}")
    print(f"wrote {JSONL_ARTIFACT}")


if __name__ == "__main__":
    main()
