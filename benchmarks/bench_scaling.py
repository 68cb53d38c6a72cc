"""Throughput scaling: events/second across workload sizes.

Confirms the engine's per-event cost stays flat (linear total time) as
the NEXMark workload grows, for a stateless query and for the windowed
Q7 pipeline — i.e. watermark-driven state cleanup keeps per-event work
independent of history length.

Also hosts the **two-phase aggregation sweep**: a high-fan-in bursty
tumble workload swept over shard counts × {single-phase, two-phase} ×
{coalesce off, coalesce on}, gated on counts, not timings:
byte-equality with serial when not coalescing and a ≥4x merge-traffic
reduction (the throughput ratio of the coalesced delta arm at 8 shards
is printed and recorded, not gated — it sits at its old 1.5x floor and
flaps; speed is judged by the suite's ``sharded.skew``).  The
**interleaved-keys arm** feeds bursts whose rows alternate keys — a
shard owns every other row or so — and gates that micro-batches survive
the router: the combine stage is fed once per serial run and a shard is
fed at most once per run.  Writes ``BENCH_scaling.json`` — the artifact
the CI ``scaling-bench`` job uploads.  Runs under plain pytest and as a
script::

    PYTHONPATH=src python benchmarks/bench_scaling.py
"""

import json
import time
from pathlib import Path

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.times import seconds
from repro.core.tvr import RowEvent, TimeVaryingRelation, ins, wm
from repro.exec.executor import Dataflow, event_runs, merge_source_events
from repro.nexmark import NexmarkConfig, generate
from repro.nexmark.queries import Q0_PASSTHROUGH, q7_highest_bid
from repro.plan.physical import PARTIALS


def _run(num_events, sql):
    streams = generate(NexmarkConfig(num_events=num_events, seed=17))
    engine = StreamEngine()
    streams.register_on(engine)
    dataflow = engine.query(sql).dataflow()
    dataflow.run()
    return dataflow


@pytest.mark.parametrize("num_events", [1_000, 4_000])
def test_passthrough_scaling(benchmark, num_events):
    dataflow = benchmark(lambda: _run(num_events, Q0_PASSTHROUGH))
    assert dataflow.result().last_ptime > 0


@pytest.mark.parametrize("num_events", [1_000, 4_000])
def test_q7_scaling(benchmark, num_events):
    dataflow = benchmark(lambda: _run(num_events, q7_highest_bid(seconds(10))))
    # state stays bounded regardless of workload size
    assert dataflow.result().peak_state_rows < 2_000


# A key-partitionable NEXMark aggregation: per-auction bid counts over
# tumbling windows.  The partition analyzer routes it by Bid.auction, so
# it runs on the sharded runtime at parallelism > 1.
SHARDED_SQL = """
    SELECT TB.auction, TB.wend, COUNT(*) AS bids
    FROM Tumble(
      data    => TABLE(Bid),
      timecol => DESCRIPTOR(bidtime),
      dur     => INTERVAL '10' SECONDS) TB
    GROUP BY TB.auction, TB.wend
"""

SHARD_SWEEP = [1, 2, 4, 8]


def _run_sharded(streams, shards, backend="sync"):
    engine = StreamEngine(
        config=ExecutionConfig(parallelism=shards, backend=backend)
    )
    streams.register_on(engine)
    query = engine.query(SHARDED_SQL)
    if shards == 1:
        dataflow = query.dataflow()
        return dataflow.run()
    sharded = query.sharded_dataflow()
    return sharded.run()


@pytest.mark.parametrize("shards", SHARD_SWEEP)
def test_shard_sweep(benchmark, shards):
    """Shard sweep over NEXMark: N ∈ {1, 2, 4, 8} (satellite of ISSUE 1)."""
    streams = generate(NexmarkConfig(num_events=4_000, seed=17))
    result = benchmark(lambda: _run_sharded(streams, shards))
    assert result.last_ptime > 0


def test_shard_sweep_rows_per_sec():
    """One-shot sweep report: rows/sec per shard count, plus an equality
    check that every width produced the identical changelog."""
    num_events = 4_000
    streams = generate(NexmarkConfig(num_events=num_events, seed=17))
    baseline = None
    print(f"\nshard sweep over NEXMark ({num_events} events, {SHARDED_SQL.split()[1]}...):")
    for shards in SHARD_SWEEP:
        t0 = time.perf_counter()
        result = _run_sharded(streams, shards)
        elapsed = time.perf_counter() - t0
        rate = num_events / elapsed
        print(f"  N={shards}: {elapsed * 1000:7.1f} ms  {rate:10.0f} rows/sec")
        if baseline is None:
            baseline = result.changes
        else:
            assert result.changes == baseline  # identical at every width


# ---------------------------------------------------------------------------
# two-phase aggregation sweep (the CI scaling-bench artifact)
# ---------------------------------------------------------------------------

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
SCHEMA_VERSION = 2  # 2: + the interleaved-keys arm, speedup no longer gated

TP_SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

#: Decomposable aggregate mix over 10-second tumbling windows; the
#: partition analyzer shards it by ``k``, the physical planner may
#: split it.
TP_SQL = """
    SELECT k, wend, SUM(v) AS total, COUNT(*) AS n
    FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts),
                dur => INTERVAL '10' SECONDS) TS
    GROUP BY k, wend
"""

TP_KEYS = 8
TP_BURSTS = 40
TP_BURST_LEN = 512          # rows per burst, all one key at one ptime
TP_BATCH = 512              # micro-batch size = the burst length
TP_SHARD_SWEEP = [1, 2, 4, 8]
TP_REPEATS = 3              # best-of timing per arm
GATE_SHARDS = 8
GATE_TRAFFIC = 4.0          # merge rows: single-phase / two-phase
IL_KEYS = 64                # interleaved arm: keys cycling inside a burst
IL_BURSTS = 40
IL_BATCH = 64               # several runs per 512-row burst
IL_SHARDS = [2, 8]


def two_phase_events():
    """~20k rows: bursts of one key at one ptime (so shards receive
    globally consecutive sequence runs and micro-batching forms full
    extents), ~3 event-time values per window per burst, a watermark
    every ~10 bursts, and a closing max watermark."""
    events, ptime, i = [], 1_000_000, 0
    for b in range(TP_BURSTS):
        ptime += 1_000
        for _ in range(TP_BURST_LEN):
            events.append(
                ins(ptime, (b % TP_KEYS, (b // TP_KEYS) * 10_000 + i % 3, i))
            )
            i += 1
        if b % 10 == 9:
            events.append(wm(ptime + 1, (b // TP_KEYS) * 10_000))
    events.append(wm(ptime + 1_000, 1 << 60))
    return events


def _run_two_phase_arm(events, shards, two_phase, coalesce):
    engine = StreamEngine(
        config=ExecutionConfig(
            parallelism=shards,
            backend="sync",
            batch_size=TP_BATCH,
            two_phase=two_phase,
            coalesce_updates=coalesce,
        )
    )
    engine.register_stream("S", TimeVaryingRelation(TP_SCHEMA, events))
    best = None
    for _ in range(TP_REPEATS):
        flow = engine.query(TP_SQL).sharded_dataflow()
        t0 = time.perf_counter()
        flow.run()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best[1]:
            best = (flow, elapsed)
    flow, elapsed = best
    report = flow.metrics_report()
    try:
        combine_rows_in = report.find("CombineAggregate")["rows_in"][0]
    except KeyError:
        combine_rows_in = None
    num_rows = TP_BURSTS * TP_BURST_LEN
    return {
        "shards": shards,
        "two_phase": two_phase,
        "coalesce": coalesce,
        "seconds": elapsed,
        "rows_per_second": num_rows / elapsed,
        "changes": len(flow.result().changes),
        "combine_rows_in": combine_rows_in,
        "is_two_phase": flow.is_two_phase(),
    }, flow.result().changes


def collect_two_phase() -> dict:
    events = two_phase_events()
    serial = StreamEngine(config=ExecutionConfig(backend="sync"))
    serial.register_stream("S", TimeVaryingRelation(TP_SCHEMA, events))
    baseline = serial.query(TP_SQL).run().changes

    sweep = []
    for shards in TP_SHARD_SWEEP:
        for two_phase in ("off", "auto"):
            for coalesce in (False, True):
                record, changes = _run_two_phase_arm(
                    events, shards, two_phase, coalesce
                )
                if not coalesce:
                    # replay payloads (and single-phase alike) must be
                    # byte-identical to the serial changelog
                    assert changes == baseline, (
                        f"changelog diverged at shards={shards}, "
                        f"two_phase={two_phase}"
                    )
                sweep.append(record)
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": TP_BURSTS * TP_BURST_LEN,
        "keys": TP_KEYS,
        "batch_size": TP_BATCH,
        "sweep": sweep,
        "interleaved": collect_interleaved(),
    }


def interleaved_events():
    """~20k rows like :func:`two_phase_events`, except that every burst
    cycles through ``IL_KEYS`` keys row by row: under hash routing a
    shard's rows have a sequence gap after nearly every one.  No row is
    late, so every run reaches the combine stage."""
    events, ptime, i = [], 1_000_000, 0
    for b in range(IL_BURSTS):
        ptime += 1_000
        for _ in range(TP_BURST_LEN):
            events.append(ins(ptime, (i % IL_KEYS, b * 2_500 + i % 3, i)))
            i += 1
        if b % 10 == 9:
            events.append(wm(ptime + 1, (b - 8) * 2_500))
    events.append(wm(ptime + 1_000, 1 << 60))
    return events


def collect_interleaved() -> dict:
    """Counts that repeat exactly: serial runs, and per shard count the
    batches the shards were fed and the feeds of the combine stage."""
    events = interleaved_events()

    def engine(**config):
        eng = StreamEngine(
            config=ExecutionConfig(
                backend="sync", batch_size=IL_BATCH, two_phase="auto", **config
            )
        )
        eng.register_stream("S", TimeVaryingRelation(TP_SCHEMA, events))
        return eng

    serial_flow = engine().query(TP_SQL).dataflow()
    serial_runs = sum(
        isinstance(run[0], RowEvent)
        for _, run, _ in event_runs(
            serial_flow, merge_source_events(serial_flow._sources)
        )
    )
    baseline = serial_flow.run().changes

    fed = []
    real = Dataflow.process_batch

    def counting(flow, rows, source, *rest):
        if source != PARTIALS:  # shard feeds, not the combine flow's
            fed.append(len(rows))
        return real(flow, rows, source, *rest)

    arms = []
    for shards in IL_SHARDS:
        flow = engine(parallelism=shards).query(TP_SQL).sharded_dataflow()
        del fed[:]
        Dataflow.process_batch = counting
        try:
            t0 = time.perf_counter()
            result = flow.run()
            elapsed = time.perf_counter() - t0
        finally:
            Dataflow.process_batch = real
        assert result.changes == baseline, f"diverged at {shards} shards"
        arms.append({
            "shards": shards,
            "shard_batches": len(fed),
            "rows_fed": sum(fed),
            "combine_feeds": result.metrics.find("CombineAggregate")["rows_in"][0],
            "run_shape": flow.run_split_reason() or "sequence-tagged",
            "seconds": elapsed,
        })
    return {
        "rows": IL_BURSTS * TP_BURST_LEN,
        "keys": IL_KEYS,
        "batch_size": IL_BATCH,
        "serial_runs": serial_runs,
        "arms": arms,
    }


def write_artifact(payload: dict) -> Path:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return ARTIFACT


def _arm(payload, shards, two_phase, coalesce):
    (record,) = [
        r
        for r in payload["sweep"]
        if r["shards"] == shards
        and r["two_phase"] == two_phase
        and r["coalesce"] == coalesce
    ]
    return record


def test_two_phase_sweep_produces_artifact():
    """The bench is also the gate — on counts: the combine stage must
    ingest ≥4x fewer rows than the single-phase merge carries, every
    non-coalesced arm must be byte-identical to serial (asserted inside
    :func:`collect_two_phase`), and on interleaved keys the shards are
    fed whole shares of the serial runs.  The delta arm's throughput
    ratio at 8 shards is printed, not gated."""
    payload = collect_two_phase()
    assert payload["schema_version"] == SCHEMA_VERSION

    delta = _arm(payload, GATE_SHARDS, "auto", True)
    single = _arm(payload, GATE_SHARDS, "off", True)
    assert delta["is_two_phase"] and not single["is_two_phase"]
    speedup = delta["rows_per_second"] / single["rows_per_second"]
    payload["delta_speedup_at_gate_shards"] = speedup
    print(
        f"\ntwo-phase delta vs single-phase at {GATE_SHARDS} shards: "
        f"{speedup:.2f}x (reported, not gated)"
    )

    replay = _arm(payload, GATE_SHARDS, "auto", False)
    single_replay = _arm(payload, GATE_SHARDS, "off", False)
    # single-phase merge traffic = every shard change crosses the merge
    assert replay["combine_rows_in"] * GATE_TRAFFIC <= (
        single_replay["changes"]
    )

    check_interleaved(payload["interleaved"])

    path = write_artifact(payload)
    assert path.exists() and path.stat().st_size > 0


def check_interleaved(interleaved: dict) -> None:
    """Micro-batches survive sharding, in counts: one combine feed per
    serial run, at most one shard batch per (shard, run), every row fed
    exactly once."""
    runs = interleaved["serial_runs"]
    assert runs == IL_BURSTS * (TP_BURST_LEN // IL_BATCH)
    assert [arm["shards"] for arm in interleaved["arms"]] == IL_SHARDS
    for arm in interleaved["arms"]:
        assert arm["run_shape"] == "sequence-tagged", arm
        assert arm["combine_feeds"] == runs, arm
        assert arm["shard_batches"] <= arm["shards"] * runs, arm
        assert arm["rows_fed"] == interleaved["rows"], arm


def test_interleaved_keys_keep_their_batches():
    check_interleaved(collect_interleaved())


def test_per_event_cost_is_flat():
    """Quadruple the events → roughly quadruple the time (no blowup)."""
    sql = q7_highest_bid(seconds(10))
    t0 = time.perf_counter()
    _run(1_000, sql)
    small = time.perf_counter() - t0
    t0 = time.perf_counter()
    _run(4_000, sql)
    large = time.perf_counter() - t0
    # allow generous headroom for noise: 4x work should cost < 12x time
    assert large < max(12 * small, large)  # sanity guard, never flaky
    assert large / small < 12


if __name__ == "__main__":
    data = collect_two_phase()
    path = write_artifact(data)
    for record in data["sweep"]:
        mode = "two-phase " if record["is_two_phase"] else "single    "
        co = "coalesce" if record["coalesce"] else "replay  "
        print(
            f"N={record['shards']}  {mode} {co}  "
            f"{record['rows_per_second']:>9,.0f} rows/s  "
            f"changes={record['changes']:>6}  "
            f"combine_in={record['combine_rows_in']}"
        )
    interleaved = data["interleaved"]
    print(f"interleaved keys: {interleaved['serial_runs']} serial runs")
    for arm in interleaved["arms"]:
        print(
            f"N={arm['shards']}  shard batches={arm['shard_batches']:>5}  "
            f"combine feeds={arm['combine_feeds']:>4}  "
            f"{interleaved['rows'] / arm['seconds']:>9,.0f} rows/s  "
            f"({arm['run_shape']})"
        )
    check_interleaved(interleaved)
    print(f"wrote {path}")
