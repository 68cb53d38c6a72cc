"""Watermark-driven state cleanup (Section 5: finite state over
infinite input).

Runs the same windowed aggregation twice over an ever-growing stream:
once with watermarks flowing (state for closed windows is freed) and
once with the watermark withheld (state can only grow).  Asserts that
peak state is bounded in the first case and linear in the second —
the quantitative version of "state can be freed when the watermark is
sufficiently advanced".

A counted arm asks what freeing costs.  It runs the suite's
``replay.keyed_state`` keyed tumble (``(bidder, auction)`` keys, seed
42: ≈ 11 k groups created, 63 watermark advances) with a group table
that counts the entries read off it — iterated, or popped — and gates
that an advance pays for what the watermark completes, not for what
it holds: entries visited <= groups created + groups freed.  A full
sweep per advance (the design before the expiry index) visits the sum
of the table's sizes at each advance, printed beside it (350 957).
The count repeats exactly.

Runs under pytest (the first three arms time themselves with
pytest-benchmark) and as a script, which checks every gate and writes
``BENCH_state_size.json``::

    PYTHONPATH=src python benchmarks/bench_state_size.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro import StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation
from repro.exec.operators.aggregate import AggregateOperator

sys.path.insert(0, str(Path(__file__).resolve().parent / "suite"))
import gen  # noqa: E402  (the suite's input generator)
import workloads  # noqa: E402  (the suite's workload specs)

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_state_size.json"

SCHEMA = Schema([timestamp_col("ts", event_time=True), int_col("v")])

AGG = (
    "SELECT TB.wend, COUNT(*) c FROM Tumble(data => TABLE(S), "
    "timecol => DESCRIPTOR(ts), dur => INTERVAL '5' SECONDS) TB "
    "GROUP BY TB.wend"
)

N_EVENTS = 3_000


def build_stream(with_watermarks: bool) -> TimeVaryingRelation:
    tvr = TimeVaryingRelation(SCHEMA)
    ptime = 0
    for i in range(N_EVENTS):
        ptime += 100
        tvr.insert(ptime, (ptime, i))
        if with_watermarks and i % 20 == 19:
            tvr.advance_watermark(ptime, ptime - 1_000)
    return tvr


def peak_state(with_watermarks: bool) -> int:
    engine = StreamEngine()
    engine.register_stream("S", build_stream(with_watermarks))
    dataflow = engine.query(AGG).dataflow()
    for event in engine.source("S").events():
        dataflow.process(event, "S")
    return dataflow.result().peak_state_rows


def test_state_bounded_with_watermarks(benchmark):
    peak = benchmark(lambda: peak_state(with_watermarks=True))
    # a handful of open 5-second windows at 10 events/second
    assert peak < 200


def test_state_linear_without_watermarks(benchmark):
    peak = benchmark(lambda: peak_state(with_watermarks=False))
    assert peak >= N_EVENTS  # every row retained


def test_cleanup_factor(benchmark):
    def factor():
        return peak_state(False) / peak_state(True)

    ratio = benchmark(factor)
    assert ratio > 15  # watermarks shrink state by an order of magnitude


class CountingTable(dict):
    """A group table that counts the entries read off it: each key an
    iteration yields, and each ``pop`` that finds its key."""

    def __init__(self, groups):
        super().__init__(groups)
        self.visited = 0

    def _counted(self, keys):
        for key in keys:
            self.visited += 1
            yield key

    def __iter__(self):
        return self._counted(dict.__iter__(self))

    def __reversed__(self):
        return self._counted(dict.__reversed__(self))

    def keys(self):
        return list(self)

    def values(self):
        return [self[key] for key in self]

    def items(self):
        return [(key, self[key]) for key in self]

    def pop(self, key, *default):
        if key in self:
            self.visited += 1
        return dict.pop(self, key, *default)


def expiry_visits(seed: int = 42) -> dict:
    """The keyed query of ``replay.keyed_state`` run once, its group
    table counted; beside it, what a full sweep per advance would read."""
    spec = workloads.SPECS["replay.keyed_state"]
    engine = StreamEngine(config=workloads.FIXED)
    for name, tvr in gen.generate(gen.GenConfig(seed=seed, **spec.gen)).items():
        engine.register_stream(name, tvr)
    flow = engine.query(spec.queries["keyed"]).dataflow()
    (op,) = [op for op in flow.operators if isinstance(op, AggregateOperator)]
    table = op._groups = CountingTable(op._groups)
    sweep = {"advances": 0, "visits": 0, "held_max": 0}
    advance = op._on_watermark_advanced

    def counted_advance(merged, ptime):
        if merged > op._finalized_max:  # an advance that may free groups
            sweep["advances"] += 1
            sweep["visits"] += len(table)
            sweep["held_max"] = max(sweep["held_max"], len(table))
        return advance(merged, ptime)

    op._on_watermark_advanced = counted_advance
    flow.run()
    created = op._groups_created
    return {
        "seed": seed,
        "groups_created": created,
        "groups_freed": created - len(table),
        "advances": sweep["advances"],
        "groups_held_max": sweep["held_max"],
        "visited": table.visited,
        "full_sweep_visits": sweep["visits"],
    }


def test_an_advance_visits_what_it_creates_and_frees():
    arm = expiry_visits()
    assert arm["groups_created"] > 10_000 and arm["advances"] > 50
    assert arm["groups_freed"] > 0
    assert arm["visited"] <= arm["groups_created"] + arm["groups_freed"]
    assert arm["visited"] * 10 < arm["full_sweep_visits"]


if __name__ == "__main__":
    bounded, unbounded = peak_state(True), peak_state(False)
    arm = expiry_visits()
    ARTIFACT.write_text(json.dumps({
        "schema_version": 1,
        "peak_state_with_watermarks": bounded,
        "peak_state_without_watermarks": unbounded,
        "expiry": arm,
    }, indent=2) + "\n")
    print(f"peak state: {bounded} rows with watermarks, {unbounded} without "
          f"({unbounded / bounded:.1f}x)")
    print(
        f"keyed_state expiry (seed {arm['seed']}): {arm['groups_created']:,} "
        f"groups created, {arm['groups_freed']:,} freed over "
        f"{arm['advances']} advances (up to {arm['groups_held_max']:,} held); "
        f"{arm['visited']:,} table entries visited "
        f"(a full sweep per advance: {arm['full_sweep_visits']:,})"
    )
    assert bounded < 200 and unbounded >= N_EVENTS and unbounded / bounded > 15
    assert arm["visited"] <= arm["groups_created"] + arm["groups_freed"]
    assert arm["visited"] * 10 < arm["full_sweep_visits"]
