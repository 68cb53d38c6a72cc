"""How the ``parent_*`` fixtures in this directory were written.

Three generations, each written **with that parent commit on the path**,
from the repository root::

    PYTHONPATH=<checkout>/src python tests/fixtures/make_parent_fixtures.py <generation>

``pr15`` — checkout ad9282f: a two-phase sharded flow blob
(``parent_sharded_flow_two_phase.ckpt``), cut half way through.

``pr17`` — checkout 4495e0c: a serial flow blob
(``parent_serial_flow.ckpt``), cut half way through.

``pr18`` — checkout 382d47b (before accounting moved onto the edge and
telemetry settled on read): what the engine *reports*, not only what it
emits.  ``parent_metrics.json`` holds every ``MetricsReport`` operator
block, telemetry snapshot and ``peak_state_rows`` of :func:`metrics_cases`
(NEXMark Q0-Q8, an open-row global aggregate, a per-auction tumble, a bursty
keyed tumble (intra-instant compaction), a watermark-driven session window, a timer-driven temporal filter; ``batch_size`` 1 / 64,
``coalesce_updates`` off / on, serial and sharded single- / two-phase);
``parent_serial_flow_midstep.ckpt`` is a serial flow blob cut *between*
two watermark steps of its output, so a telemetry sample not settled at
the cut is missing from it.

The blobs are format 2, which the engine no longer reads: they are
goldens of what a cut *contains* (counters, peaks, telemetry, watermark
tracks, a two-phase stage), decoded with plain ``pickle`` by
``tests/test_metrics.py``.  The inputs are the paper's Bid stream, cut
at the half-way event; the tests regenerate the same stream.
"""

import json
import os
import random
import sys

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation
from repro.nexmark import NexmarkConfig, generate, paper_bid_stream
from repro.nexmark import queries as nexmark

HERE = os.path.dirname(os.path.abspath(__file__))

TUMBLED_BY_ITEM = (
    "SELECT item, wend, MAX(price) AS maxprice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTE) TB "
    "GROUP BY item, wend"
)


def pr15() -> None:
    bids = paper_bid_stream()
    events = bids.events()
    engine = StreamEngine(config=ExecutionConfig(parallelism=3, two_phase="auto"))
    engine.register_stream("Bid", bids)
    flow = engine.query(TUMBLED_BY_ITEM).sharded_dataflow()
    for event in events[: len(events) // 2]:
        flow.process(event, "Bid")
    with open(os.path.join(HERE, "parent_sharded_flow_two_phase.ckpt"), "wb") as fh:
        fh.write(flow.checkpoint())


def pr17() -> None:
    bids = paper_bid_stream()
    events = bids.events()
    engine = StreamEngine()
    engine.register_stream("Bid", bids)
    flow = engine.query(TUMBLED_BY_ITEM).dataflow()
    for event in events[: len(events) // 2]:
        flow.process(event, "Bid")
    with open(os.path.join(HERE, "parent_serial_flow.ckpt"), "wb") as fh:
        fh.write(flow.checkpoint())


# -- pr18: what the engine reports -------------------------------------------

KEYED_SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

SESSION_BY_KEY = (
    "SELECT k, wstart, wend, COUNT(*) AS n "
    "FROM Session(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "key => DESCRIPTOR(k), gap => INTERVAL '1' MINUTE) TS "
    "GROUP BY k, wstart, wend"
)
TUMBLED_BY_AUCTION = (
    "SELECT TB.auction, TB.wend, COUNT(*) AS bids, MAX(TB.price) AS top "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' SECONDS) TB "
    "GROUP BY TB.auction, TB.wend"
)
TUMBLED_BY_KEY = (
    "SELECT k, wend, SUM(v) AS total "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS "
    "GROUP BY k, wend"
)
TEMPORAL_TAIL = "SELECT k, v FROM S WHERE ts > CURRENT_TIME - INTERVAL '3' MINUTES"

#: name -> (sql, engine kind); "recorded" engines hold bounded tables
METRICS_QUERIES = {
    "q0": (nexmark.Q0_PASSTHROUGH, "nexmark"),
    "q1": (nexmark.Q1_CURRENCY, "nexmark"),
    "q2": (nexmark.q2_selection(7), "nexmark"),
    "q3": (nexmark.Q3_LOCAL_ITEM_SUGGESTION, "nexmark"),
    "q4": (nexmark.Q4_AVERAGE_PRICE_FOR_CATEGORY, "recorded"),
    "q5": (nexmark.q5_hot_items(), "nexmark"),
    "q6": (nexmark.Q6_AVERAGE_SELLING_PRICE_BY_SELLER, "recorded"),
    "q7": (nexmark.q7_highest_bid(), "nexmark"),
    "q8": (nexmark.q8_monitor_new_users(), "nexmark"),
    "global_count": ("SELECT COUNT(*) FROM Bid", "nexmark"),
    "tumble": (TUMBLED_BY_AUCTION, "nexmark"),
    "keyed_tumble": (TUMBLED_BY_KEY, "keyed"),
    "session": (SESSION_BY_KEY, "keyed"),
    "temporal": (TEMPORAL_TAIL, "keyed"),
}

#: label -> config overrides; sharded runtimes only run partitionable plans
METRICS_RUNTIMES = {
    "serial": {},
    "sharded": dict(parallelism=2, backend="sync", two_phase="off"),
    "two_phase": dict(parallelism=2, backend="sync", two_phase="auto"),
}


def keyed_stream(events: int = 240, seed: int = 18) -> TimeVaryingRelation:
    """Bursty keyed rows over ~20 minutes of event time, out of order, a
    watermark every 12 rows and a few rows behind it (late drops)."""
    rng = random.Random(seed)
    tvr = TimeVaryingRelation(KEYED_SCHEMA)
    ptime = 1_000_000
    for n in range(events):
        if n % 4 == 0:
            ptime += rng.randrange(1, 20_000)
        lag = 400_000 if rng.random() < 0.03 else rng.randrange(0, 30_000)
        tvr.insert(ptime, (rng.randrange(5), ptime - lag, rng.randrange(100)))
        if n % 12 == 11:
            ptime += 1
            tvr.advance_watermark(ptime, ptime - 40_000)
    return tvr


def metrics_engine(kind: str) -> StreamEngine:
    engine = StreamEngine()
    if kind == "keyed":
        engine.register_stream("S", keyed_stream())
        return engine
    streams = generate(NexmarkConfig(num_events=400, seed=18))
    if kind == "recorded":
        streams.register_recorded_on(engine)
    else:
        streams.register_on(engine)
    nexmark.register_udfs(engine)
    return engine


def metrics_cases():
    """``(case id, flow)`` for every cell of the matrix, flows un-run.

    The case id is the key of ``parent_metrics.json``.
    """
    engines = {kind: metrics_engine(kind) for kind in ("nexmark", "recorded", "keyed")}
    for name, (sql, kind) in METRICS_QUERIES.items():
        query = engines[kind].query(sql)
        partitionable = query.partition_decision().partitionable
        for runtime, overrides in METRICS_RUNTIMES.items():
            if overrides and not partitionable:
                continue
            for batch_size in (1, 64):
                for coalesce in (False, True):
                    config = ExecutionConfig(
                        batch_size=batch_size,
                        coalesce_updates=coalesce,
                        **overrides,
                    )
                    flow = (
                        query.sharded_dataflow(config)
                        if overrides
                        else query.dataflow(config)
                    )
                    yield f"{name}/{runtime}/b{batch_size}/c{int(coalesce)}", flow


def reported(result) -> dict:
    """What a run reports, JSON-shaped: every operator block, the
    telemetry snapshot, the peaks."""
    metrics = result.metrics
    return json.loads(json.dumps({
        "operators": metrics.operators,
        "shard_rows": metrics.shard_rows,
        "telemetry": metrics.telemetry.snapshot(),
        "peak_state_rows": result.peak_state_rows,
        "late_dropped": result.late_dropped,
        "expired_rows": result.expired_rows,
    }))


#: two rows past the output's last watermark step, one event before the next
MIDSTEP_CUT = 9


def pr18() -> None:
    cells = {case: reported(flow.run()) for case, flow in metrics_cases()}
    with open(os.path.join(HERE, "parent_metrics.json"), "w") as fh:
        json.dump(cells, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")

    bids = paper_bid_stream()
    events = bids.events()
    engine = StreamEngine()
    engine.register_stream("Bid", bids)
    flow = engine.query(TUMBLED_BY_ITEM).dataflow()
    for event in events[:MIDSTEP_CUT]:
        flow.process(event, "Bid")
    with open(os.path.join(HERE, "parent_serial_flow_midstep.ckpt"), "wb") as fh:
        fh.write(flow.checkpoint())


if __name__ == "__main__":
    {"pr15": pr15, "pr17": pr17, "pr18": pr18}[sys.argv[1]]()
