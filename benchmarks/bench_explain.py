"""What one delta explain costs: replaying a query's history on request.

``svc.explain_delta(query, seq)`` rebuilds the query's flow and replays
the recorded sources up to the delta's instant (docs/OBSERVABILITY.md),
so its cost grows with the history before the delta.  Two histories,
both from the suite's generator at seed 42 under the suite's execution
config (``batch_size=64``, columnar and two-phase ``auto``):

* the ``live.queries`` workload's: its 16 standing queries over
  10 500 generated events, explaining the first, middle and last delta
  of ``shared2`` (grafted onto the shared tumble prefix) and ``own0``;
* 100 000 generated events under ``shared2`` alone, first and last
  delta.

Prints the median of three explains per position::

    PYTHONPATH=src python benchmarks/bench_explain.py
"""

from __future__ import annotations

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "suite"))

import gen  # noqa: E402
import workloads  # noqa: E402

from repro.core.tvr import TimeVaryingRelation  # noqa: E402
from repro.service import StandingQueryService  # noqa: E402
from repro.service.admission import TenantPolicy  # noqa: E402

REPEATS = 3


def fed_service(events: int, queries: dict) -> tuple:
    streams = gen.generate(gen.GenConfig(seed=42, events=events, auctions=500))
    svc = StandingQueryService(
        config=workloads.FIXED,
        default_policy=TenantPolicy(name="*", max_standing_queries=64),
    )
    for name, tvr in streams.items():
        svc.register_stream(name, TimeVaryingRelation(tvr.schema))
    ids = {name: svc.submit("t", sql).query_id for name, sql in queries.items()}
    merged = workloads.merged_events(streams)
    for event, source in merged:
        svc.ingest(event, source)
    return svc, ids, len(merged)


def explain_ms(svc, query_id: str, seq: int) -> float:
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        assert svc.explain_delta(query_id, seq) is not None
        times.append((time.perf_counter() - started) * 1000)
    return statistics.median(times)


def report(label: str, svc, ids: dict, names, fractions) -> None:
    for name in names:
        query = svc.session.get(ids[name])
        size = query.flow.output_size_of(query.output_id)
        for fraction in fractions:
            seq = min(size - 1, int(size * fraction))
            print(f"{label} {name} delta {seq}/{size}: "
                  f"{explain_ms(svc, ids[name], seq):.0f} ms")


def main() -> None:
    svc, ids, events = fed_service(10_500, workloads.live_queries())
    print(f"live.queries history: {events} events, {len(ids)} queries")
    report("live.queries", svc, ids, ("shared2", "own0"), (0, 0.5, 1))
    shared = {"shared2": workloads.live_queries()["shared2"]}
    svc, ids, events = fed_service(100_000, shared)
    print(f"100k history: {events} events")
    report("100k", svc, ids, ("shared2",), (0, 1))


if __name__ == "__main__":
    main()
