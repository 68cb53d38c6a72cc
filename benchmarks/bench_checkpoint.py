"""Checkpoint-plane benchmark: cut cost against history (Appendix B.2.1).

One resident :class:`~repro.service.StandingQueryService` holds the 16
standing queries of the suite's ``live.queries`` workload (8 sharing
one tumble prefix, 8 with their own filter and window) and ingests
100 000 bids, cutting a session checkpoint into one directory every
5 000 events through the service's own auto-checkpoint
(``retry.checkpoint_interval``), so every cut runs inline in an
``ingest`` call exactly as it does in production.

Asserted, making the bench double as a regression gate for the
checkpoint plane (``docs/SERVICE.md``, *Durability*):

* **a cut is flat in history** — the last five incremental cuts
  (80 k–100 k events of history) take at most 2x the time and write at
  most 2x the bytes of the first five (10 k–30 k; best time and median
  bytes of each five): what a cut costs tracks the events since the
  previous cut plus live state, not the age of the session;
* **a full cut is not** — one full cut of the same session at 100 k
  into a fresh directory is there for contrast (every log from
  position 0) — **but it frames nothing twice**: every history segment
  it writes was framed by the incremental cut that sealed it, so it
  makes exactly one ``pickle.dumps`` per flow blob and none for a
  history segment (before: one more per output and source log — the
  whole history pickled again);
* **incremental == full** — services resumed from the grown directory
  and from the single full cut publish exactly the deltas the original
  service publishes for the next 256 events;
* the **longest ingest call that contained a cut** is reported: the
  stall a ``--checkpoint-interval`` imposes on the ingest path;
* **a resume is flat in history** — the same 16 queries cut at history
  H = 2 500 and at 8 H resume within 2x of each other (best of five
  each), and resuming builds **zero** ``Change`` objects at either
  size and at 100 k: histories are adopted encoded, still pickled
  (``repro.core.codec``).  What still grows with history is reported as
  a slope: reading the log bytes and unpickling the recorded *source*
  for its watermark track, well under a microsecond per source event
  (before: every output change and source event rebuilt as objects,
  resume linear in history — ~8x between these two sizes).

A second, small section keeps what this file has always measured: the
size and take/restore time of one NEXMark Q7 flow checkpoint, and that
restore + replay equals the uninterrupted run.

A third cuts aggregate state the way the suite's ``replay.keyed_state``
recovery drill does: its ``(bidder, auction)`` keyed tumble, on its
inputs at seed 42, cut three quarters through (≈ 8 k groups).  Gated on
counts that repeat exactly: at most ``GATE_BYTES_PER_ROW`` checkpoint
bytes per state row, and — counted with ``pickletools.genops`` over the
aggregate's operator state — no ``NEWOBJ`` or ``BUILD`` opcode and no
global of this package (checkpoint format 4 cuts groups as one table of
columns; format 3 pickled two objects per group); **no cyclic
collection starts inside** ``checkpoint`` or ``restore`` over its ten
cut + restore cycles (both are paused calls, ``repro.core.collector``;
before the pause: ≈ 106 / 10 / 1 collections of generation 0 / 1 / 2
per cycle); restore + continue equals the uninterrupted run.

Writes ``BENCH_checkpoint.json`` — the artifact the CI
``checkpoint-bench`` job uploads.  Runs under plain pytest and as a
script::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py
"""

from __future__ import annotations

import collections
import contextlib
import gc
import inspect
import json
import pickle
import pickletools
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import Change, ExecutionConfig, RetryPolicy, StreamEngine
from repro.core import codec
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.times import seconds
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.exec.executor import Dataflow
from repro.exec.operators.aggregate import AggregateOperator
from repro.nexmark import NexmarkConfig, generate
from repro.nexmark.queries import q7_highest_bid
from repro.service import StandingQueryService

sys.path.insert(0, str(Path(__file__).resolve().parent / "suite"))
import gen  # noqa: E402  (the suite's input generator)
import workloads  # noqa: E402  (the suite's workload specs)
from harness import merged_events  # noqa: E402  (the suite's replay order)

HISTORY = 100_000
CUT_EVERY = 5_000
TAIL = 256  # events a resumed service is compared on
GATE_FLAT = 2.0  # last incremental cuts vs first; resume at 8 H vs H
RESUME_H = 2_500  # the resume arm cuts at H and at 8 H
GATE_BYTES_PER_ROW = 80  # the state-table arm's cut (format 3: 147.4)

BID_SCHEMA = Schema(
    [
        int_col("auction"),
        int_col("bidder"),
        int_col("price"),
        timestamp_col("bidtime", event_time=True),
    ]
)

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_checkpoint.json"
SCHEMA_VERSION = 4


def tumble(select: str, seconds_: int = 10, where: str = "") -> str:
    return (
        f"SELECT {select} FROM Tumble(data => TABLE(Bid), "
        f"timecol => DESCRIPTOR(bidtime), "
        f"dur => INTERVAL '{seconds_}' SECONDS) TB {where} "
        f"GROUP BY TB.wend EMIT STREAM"
    )


def live_queries() -> dict[str, str]:
    """The ``live.queries`` set: 8 share one tumble prefix, 8 differ in
    filter and window and share nothing."""
    queries = {}
    for n, aggregate in enumerate((
        "MAX(TB.price)", "MIN(TB.price)", "COUNT(*)", "SUM(TB.price)",
        "AVG(TB.price)", "MAX(TB.bidder)", "MIN(TB.bidder)", "SUM(TB.bidder)",
    )):
        queries[f"shared{n}"] = tumble(f"TB.wend, {aggregate} AS v")
    for n, (width, price) in enumerate((
        (5, 100), (15, 200), (20, 300), (30, 400),
        (40, 500), (60, 600), (90, 700), (120, 800),
    )):
        queries[f"own{n}"] = tumble(
            "TB.wend, COUNT(*) AS v", width, f"WHERE TB.price > {price}"
        )
    return queries


def make_events(n: int, seed: int = 42) -> list:
    """Bids in bursts of 64 per processing instant, event time trailing
    by up to 4 s, a watermark every 192 events, 1 % of rows later than
    the watermark — the input shape of the suite's generator."""
    rng = random.Random(seed)
    events, ptime, watermark = [], 8 * 3_600_000, None
    for i in range(n):
        if i % 64 == 0:
            ptime += 1_000
        if (i + 1) % 192 == 0:
            watermark = ptime - 4_000
            events.append(wm(ptime, watermark))
            continue
        if watermark is not None and rng.random() < 0.01:
            event_time = watermark - rng.randrange(10_000, 30_001)
        else:
            event_time = ptime - rng.randrange(4_001)
        events.append(ins(ptime, (
            rng.randrange(1, 501), rng.randrange(1, 2001),
            rng.randrange(1, 1000), event_time,
        )))
    return events


def directory_bytes(directory: str) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def resumed_from(directory: str) -> StandingQueryService:
    service = StandingQueryService(config=ExecutionConfig(batch_size=64))
    assert service.resume(directory) == len(live_queries())
    return service


def timed_resume(directory: str) -> tuple[StandingQueryService, float]:
    """One resume and its wall seconds.  Everything alive beforehand is
    the harness's, not garbage the resume made, so it is frozen out of
    the collector's way (a restart resumes into an empty heap)."""
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        service = resumed_from(directory)
        return service, time.perf_counter() - started
    finally:
        gc.unfreeze()


def live_service(**config) -> StandingQueryService:
    service = StandingQueryService(
        config=ExecutionConfig(batch_size=64, **config)
    )
    service.register_stream("Bid", TimeVaryingRelation(BID_SCHEMA))
    for index, (name, sql) in enumerate(live_queries().items()):
        service.submit(f"tenant{index % 4}", sql, query_id=name)
    return service


@contextlib.contextmanager
def counted_dumps():
    """Within the block, every ``pickle.dumps`` call appends the size of
    what it returned to the list this yields."""
    sizes, real = [], pickle.dumps

    def counting(*args, **kwargs):
        blob = real(*args, **kwargs)
        sizes.append(len(blob))
        return blob

    pickle.dumps = counting
    try:
        yield sizes
    finally:
        pickle.dumps = real


def changes_built_resuming(directory: str) -> int:
    """``Change`` objects the codec builds during one resume."""
    built = 0

    def counting(kind, values, ptime):
        nonlocal built
        built += 1
        return Change(kind, values, ptime)

    codec.Change = counting
    try:
        resumed_from(directory)
    finally:
        codec.Change = Change
    return built


def resume_run() -> dict:
    """One service cut at history H and at 8 H; each cut resumed five
    times (best kept: a resume takes tens of milliseconds)."""
    events = make_events(8 * RESUME_H)
    workdir = tempfile.mkdtemp(prefix="bench-resume-")
    arms = []
    try:
        service = live_service()
        fed = 0
        for history in (RESUME_H, 8 * RESUME_H):
            for event in events[fed:history]:
                service.ingest(event, "Bid")
            fed = history
            directory = f"{workdir}/h{history}"
            service.checkpoint(directory)
            arms.append({
                "history": history,
                "output_items": sum(
                    sum(query.history_items().values())
                    for query in service.session.queries()
                ),
                "state_rows": sum(
                    query.state_rows() for query in service.session.queries()
                ),
                "resume_s": min(timed_resume(directory)[1] for _ in range(5)),
                "changes_built": changes_built_resuming(directory),
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    short, long = arms
    return {
        "arms": arms,
        "us_per_source_event": (long["resume_s"] - short["resume_s"])
        / (long["history"] - short["history"]) * 1e6,
    }


def session_run() -> dict:
    """Grow one session to ``HISTORY`` events, cutting as it goes."""
    events = make_events(HISTORY + TAIL)
    workdir = tempfile.mkdtemp(prefix="bench-checkpoint-")
    grown, full = f"{workdir}/grown", f"{workdir}/full"
    try:
        service = live_service(
            retry=RetryPolicy(checkpoint_interval=CUT_EVERY),
            checkpoint_dir=grown,
        )
        session = service.session
        cuts, plain_ingest = [], []
        for index, event in enumerate(events[:HISTORY], 1):
            taken, written = session.checkpoints_taken, session.checkpoint_bytes_total
            started = time.perf_counter()
            service.ingest(event, "Bid")
            elapsed = time.perf_counter() - started
            if session.checkpoints_taken > taken:
                cuts.append({
                    "history": index,
                    "cut_s": session.last_checkpoint_seconds,
                    "bytes": session.checkpoint_bytes_total - written,
                    "ingest_s": elapsed,
                })
            else:
                plain_ingest.append(elapsed)
        grown_bytes = directory_bytes(grown)
        written = session.checkpoint_bytes_total
        with counted_dumps() as dumps:
            service.checkpoint(full)  # a fresh directory: every log from 0
        full_cut = {
            "history": HISTORY,
            "cut_s": session.last_checkpoint_seconds,
            "bytes": session.checkpoint_bytes_total - written,
            "flows": len(session.plan_cache.records),
            "pickle_dumps": len(dumps),
            "pickled_bytes": sum(dumps),
        }
        from_grown, resume_grown_s = timed_resume(grown)
        from_full, resume_full_s = timed_resume(full)
        resume_changes_built = changes_built_resuming(grown)
        diverged = 0
        for event in events[HISTORY:]:
            published = service.ingest(event, "Bid")
            diverged += from_grown.ingest(event, "Bid") != published
            diverged += from_full.ingest(event, "Bid") != published
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    incremental = cuts[1:]  # the first cut of a directory is a full one
    return {
        "queries": len(live_queries()),
        "history": HISTORY,
        "cut_every": CUT_EVERY,
        "cuts": cuts,
        "first_incremental": _typical(incremental[:5]),
        "last_incremental": _typical(incremental[-5:]),
        "full_cut": full_cut,
        "grown_directory_bytes": grown_bytes,
        "resume_grown_s": resume_grown_s,
        "resume_full_s": resume_full_s,
        "resume_changes_built": resume_changes_built,
        "tail_events": TAIL,
        "tail_diverged": diverged,
        "longest_ingest_with_cut_s": max(cut["ingest_s"] for cut in cuts),
        "median_ingest_s": statistics.median(plain_ingest),
    }


def _typical(cuts: list[dict]) -> dict:
    """Best time and median bytes of five neighbouring cuts: a cut takes
    tens of milliseconds, so one scheduler hiccup or page-cache flush
    would otherwise decide a ratio of two single timings."""
    return {
        "cut_s": min(cut["cut_s"] for cut in cuts),
        "bytes": int(statistics.median(cut["bytes"] for cut in cuts)),
    }


def flow_run() -> dict:
    """One NEXMark Q7 flow: checkpoint size, take/restore time, and
    restore + replay == uninterrupted."""
    streams = generate(NexmarkConfig(num_events=2_000, seed=8))
    engine = StreamEngine()
    streams.register_on(engine)
    events = []
    for idx, name in enumerate(["Person", "Auction", "Bid"]):
        for i, event in enumerate(engine.source(name).events()):
            events.append((event.ptime, idx, i, event, name))
    events.sort(key=lambda item: item[:3])
    query = engine.query(q7_highest_bid(seconds(10)))
    cut = len(events) // 2
    half = query.dataflow()
    for *_, event, name in events[:cut]:
        half.process(event, name)
    take, restore = [], []
    for _ in range(20):
        started = time.perf_counter()
        blob = half.checkpoint()
        take.append(time.perf_counter() - started)
        flow = query.dataflow()
        started = time.perf_counter()
        flow.restore(blob)
        restore.append(time.perf_counter() - started)
    for *_, event, name in events[cut:]:
        flow.process(event, name)
    return {
        "events": len(events),
        "state_rows": half.total_state_rows(),
        "checkpoint_bytes": len(blob),
        "take_ms": statistics.median(take) * 1e3,
        "restore_ms": statistics.median(restore) * 1e3,
        "recovered_equals_uninterrupted": (
            flow.finish().changes == query.run().changes
        ),
    }


def aggregate_opcodes(state: dict) -> dict:
    """Pickle opcodes of one aggregate's operator state, as a cut writes
    it, and the globals it names."""
    blob = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
    ops = list(pickletools.genops(blob))
    counts = collections.Counter(op.name for op, _, _ in ops)
    return {
        "bytes": len(blob),
        "NEWOBJ": counts["NEWOBJ"],
        "BUILD": counts["BUILD"],
        "EMPTY_DICT": counts["EMPTY_DICT"],
        # a module name STACK_GLOBAL reads (or GLOBAL's "module name")
        "repro_globals": sum(
            isinstance(arg, str) and arg.startswith("repro")
            for _, arg, _ in ops
        ),
    }


@contextlib.contextmanager
def collections_inside(*methods):
    """Count, per generation, the cyclic collections that start while
    the body of one of ``methods`` is on the Python stack."""
    bodies = {inspect.unwrap(method).__code__ for method in methods}
    counts = [0, 0, 0]

    def on_gc(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in bodies:
                counts[info["generation"]] += 1
                return
            frame = frame.f_back

    gc.callbacks.append(on_gc)
    try:
        yield counts
    finally:
        gc.callbacks.remove(on_gc)


def state_table_run(seed: int = 42) -> dict:
    """``replay.keyed_state``'s recovery drill: its keyed tumble on its
    inputs, cut three quarters through, what the aggregate's state
    pickles to, and restore + continue against the uninterrupted run."""
    spec = workloads.SPECS["replay.keyed_state"]
    streams = gen.generate(gen.GenConfig(seed=seed, **spec.gen))
    engine = StreamEngine(config=workloads.FIXED)
    for name, tvr in streams.items():
        engine.register_stream(name, tvr)
    query = engine.query(spec.queries[spec.recover])
    events = merged_events(streams)
    cut = len(events) * 3 // 4

    def fed(flow, part):
        for _ in flow.replay(part):
            pass
        return flow

    flow = fed(query.dataflow(), events[:cut])
    blob = flow.checkpoint()
    states = [
        aggregate_opcodes(state)
        for op, state in zip(flow.operators, pickle.loads(blob)["op_states"])
        if isinstance(op, AggregateOperator)
    ]
    take, restore = [], []
    with collections_inside(Dataflow.checkpoint, Dataflow.restore) as collected:
        for _ in range(10):
            started = time.perf_counter()
            blob = flow.checkpoint()
            take.append(time.perf_counter() - started)
            restored = query.dataflow()
            started = time.perf_counter()
            restored.restore(blob)
            restore.append(time.perf_counter() - started)
    finished = fed(restored, events[cut:]).finish()
    uninterrupted = fed(query.dataflow(), events).finish()
    state_rows = flow.total_state_rows()
    return {
        "seed": seed,
        "groups": sum(
            op.group_count for op in flow.operators
            if isinstance(op, AggregateOperator)
        ),
        "state_rows": state_rows,
        "checkpoint_bytes": len(blob),
        "bytes_per_state_row": len(blob) / state_rows,
        "aggregate_states": states,
        "take_ms": statistics.median(take) * 1e3,
        "restore_ms": statistics.median(restore) * 1e3,
        "cycles": len(take),
        # by generation, summed over the cycles
        "collections_inside": collected,
        "recovered_equals_uninterrupted": (
            finished.changes == uninterrupted.changes
            and finished.watermarks.as_pairs()
            == uninterrupted.watermarks.as_pairs()
        ),
    }


def collect() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "session": session_run(),
        "resume": resume_run(),
        "flow": flow_run(),
        "state_table": state_table_run(),
    }


def write_artifact(payload: dict) -> Path:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return ARTIFACT


def test_checkpoint_bench_produces_artifact():
    """The bench is also the gate: cut cost flat in history, resume
    cost flat in history and free of ``Change`` objects, resumed
    services indistinguishable, flow recovery byte-identical, no
    collection inside a keyed_state cut or restore."""
    payload = collect()
    session, flow = payload["session"], payload["flow"]
    short, long = payload["resume"]["arms"]
    assert long["history"] == 8 * short["history"]
    assert long["output_items"] > 6 * short["output_items"]
    assert long["resume_s"] <= GATE_FLAT * short["resume_s"], (short, long)
    assert short["changes_built"] == long["changes_built"] == 0
    assert session["resume_changes_built"] == 0
    assert [cut["history"] for cut in session["cuts"]] == list(
        range(CUT_EVERY, HISTORY + 1, CUT_EVERY)
    )
    first, last = session["first_incremental"], session["last_incremental"]
    assert last["bytes"] <= GATE_FLAT * first["bytes"], (first, last)
    assert last["cut_s"] <= GATE_FLAT * first["cut_s"], (first, last)
    # the contrast: a full cut at the same history rewrites everything
    assert session["full_cut"]["bytes"] > 5 * last["bytes"]
    # ... and pickles only the flow blobs: every history frame is reused
    full = session["full_cut"]
    assert full["pickle_dumps"] == full["flows"], full
    assert session["tail_diverged"] == 0
    assert flow["recovered_equals_uninterrupted"]
    assert flow["checkpoint_bytes"] > 100
    table = payload["state_table"]
    assert table["groups"] > 8_000
    assert table["bytes_per_state_row"] <= GATE_BYTES_PER_ROW, table
    (state,) = table["aggregate_states"]
    assert (state["NEWOBJ"], state["BUILD"], state["repro_globals"]) == (0, 0, 0)
    assert table["collections_inside"] == [0, 0, 0], table["collections_inside"]
    assert table["recovered_equals_uninterrupted"]
    path = write_artifact(payload)
    assert path.exists() and path.stat().st_size > 0


if __name__ == "__main__":
    data = collect()
    path = write_artifact(data)
    run = data["session"]
    for cut in run["cuts"]:
        print(
            f"history={cut['history']:>7,}  cut {cut['cut_s'] * 1e3:7.1f} ms  "
            f"{cut['bytes']:>10,} bytes  (ingest call {cut['ingest_s'] * 1e3:.1f} ms)"
        )
    full = run["full_cut"]
    print(
        f"full cut at {run['history']:,}: {full['cut_s'] * 1e3:.1f} ms, "
        f"{full['bytes']:,} bytes; {full['pickle_dumps']} pickle.dumps "
        f"({full['pickled_bytes']:,} bytes) for {full['flows']} flow blobs"
    )
    print(
        f"incremental cut, first vs last: "
        f"{run['first_incremental']['cut_s'] * 1e3:.1f} -> "
        f"{run['last_incremental']['cut_s'] * 1e3:.1f} ms, "
        f"{run['first_incremental']['bytes']:,} -> "
        f"{run['last_incremental']['bytes']:,} bytes"
    )
    print(
        f"resume: {run['resume_grown_s'] * 1e3:.0f} ms from the grown directory, "
        f"{run['resume_full_s'] * 1e3:.0f} ms from the full cut; "
        f"{run['tail_diverged']} divergences over {run['tail_events']} events"
    )
    short, long = data["resume"]["arms"]
    print(
        f"resume at history {short['history']:,} / {long['history']:,}: "
        f"{short['resume_s'] * 1e3:.1f} / {long['resume_s'] * 1e3:.1f} ms "
        f"({data['resume']['us_per_source_event']:.2f} us per source event), "
        f"Change objects built {short['changes_built']} / "
        f"{long['changes_built']} / {run['resume_changes_built']} at "
        f"{run['history']:,}"
    )
    print(
        f"longest ingest call with a cut {run['longest_ingest_with_cut_s'] * 1e3:.1f} ms "
        f"(median ingest {run['median_ingest_s'] * 1e6:.0f} us)"
    )
    flow = data["flow"]
    print(
        f"Q7 flow checkpoint: {flow['checkpoint_bytes']:,} bytes over "
        f"{flow['state_rows']} state rows, take {flow['take_ms']:.2f} ms, "
        f"restore {flow['restore_ms']:.2f} ms"
    )
    table = data["state_table"]
    (state,) = table["aggregate_states"]
    print(
        f"keyed_state cut (seed {table['seed']}): {table['groups']:,} groups, "
        f"{table['checkpoint_bytes']:,} bytes, "
        f"{table['bytes_per_state_row']:.1f} bytes per state row "
        f"(gate <= {GATE_BYTES_PER_ROW}); aggregate state {state['bytes']:,} "
        f"bytes, NEWOBJ {state['NEWOBJ']} BUILD {state['BUILD']} "
        f"EMPTY_DICT {state['EMPTY_DICT']} repro globals "
        f"{state['repro_globals']}; take {table['take_ms']:.1f} ms, "
        f"restore {table['restore_ms']:.1f} ms; collections inside "
        f"checkpoint + restore over {table['cycles']} cycles "
        f"(gen 0 / 1 / 2): {' / '.join(map(str, table['collections_inside']))} "
        f"(gate 0)"
    )
    print(f"wrote {path}")
