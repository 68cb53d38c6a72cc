"""SQL front-end cost per admitted statement: parse, tables, plan, optimize.

A standing query is its SQL text, so every admission — a submit, an
``EXPLAIN``, and every query a resume re-admits from a checkpoint —
runs the same four stages: ``parse`` (tokenize included),
``referenced_tables`` (the admission gateway's ACL walk), ``Planner.plan``
and ``optimize``.  This benchmark runs them over the suite's
``live.queries`` statements (16 standing queries + 8 late joiners) and
reports, per statement:

* the Python-level calls each stage makes (``sys.setprofile`` ``call``
  events only; C calls are not counted), which repeat exactly and are
  gated: ``calls_per_admitted_statement <= 800`` (1 618 with a
  character-loop lexer, a nine-level expression descent, a
  ``dataclasses.fields`` AST walk and an optimizer that re-walked the
  whole tree after every rule hit);
* the minimum-of-N wall time of each stage, in µs, printed and never
  gated (wall-clock floors flap on shared hosts; speed is judged by the
  suite's parent/change comparison).

Runs under pytest and as a script, which checks the gate and writes
``BENCH_frontend.json``::

    PYTHONPATH=src python benchmarks/bench_frontend.py
"""

import json
import sys
import time
from pathlib import Path

from repro.plan.optimizer import optimize
from repro.plan.planner import Catalog, Planner, referenced_tables
from repro.sql.functions import default_registry
from repro.sql.parser import parse

sys.path.insert(0, str(Path(__file__).resolve().parent / "suite"))
import gen  # noqa: E402  (the suite's input schemas)
import workloads  # noqa: E402  (the suite's workload specs)

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_frontend.json"
SCHEMA_VERSION = 1
CALLS_PER_STATEMENT_MAX = 800
REPEATS = 30
STAGES = ("parse", "referenced_tables", "plan", "optimize")


def statements() -> list[str]:
    """The ``live.queries`` standing queries, then its late joiners."""
    return list(workloads.live_queries().values()) + workloads.live_late_joiners()


def catalog() -> Catalog:
    cat = Catalog()
    cat.register("Bid", gen.BID_SCHEMA, bounded=False)
    cat.register("Auction", gen.AUCTION_SCHEMA, bounded=False)
    return cat


def stages(sql: str, cat: Catalog, registry) -> list:
    """One thunk per stage; each feeds on the previous stage's result."""
    state: dict = {}

    def do_parse():
        state["statement"] = parse(sql)

    def do_tables():
        referenced_tables(state["statement"], cat)

    def do_plan():
        state["plan"] = Planner(cat, registry).plan(state["statement"], sql=sql)

    def do_optimize():
        optimize(state["plan"])

    return [do_parse, do_tables, do_plan, do_optimize]


def count_calls(thunk) -> int:
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls[0] - 1  # the thunk's own frame


def collect(repeats: int = REPEATS) -> dict:
    cat = catalog()
    registry = default_registry()
    sqls = statements()
    calls = dict.fromkeys(STAGES, 0)
    best_us = dict.fromkeys(STAGES, 0.0)
    for sql in sqls:
        thunks = stages(sql, cat, registry)
        for stage, thunk in zip(STAGES, thunks):
            calls[stage] += count_calls(thunk)
        best = [float("inf")] * len(thunks)
        for _ in range(repeats):
            for i, thunk in enumerate(thunks):
                start = time.perf_counter()
                thunk()
                best[i] = min(best[i], time.perf_counter() - start)
        for stage, seconds in zip(STAGES, best):
            best_us[stage] += seconds * 1e6
    n = len(sqls)
    per_stage = {
        stage: {
            "calls_per_statement": calls[stage] / n,
            "min_us_per_statement": round(best_us[stage] / n, 2),
        }
        for stage in STAGES
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": "live.queries (standing queries + late joiners)",
        "statements": n,
        "repeats": repeats,
        "stages": per_stage,
        "calls_per_admitted_statement": sum(calls.values()) / n,
        "calls_per_admitted_statement_max": CALLS_PER_STATEMENT_MAX,
        "min_us_per_admitted_statement": round(sum(best_us.values()) / n, 2),
    }


def write_artifact(data: dict) -> Path:
    ARTIFACT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return ARTIFACT


def test_calls_per_admitted_statement():
    data = collect(repeats=1)
    assert data["statements"] == 24
    assert data["calls_per_admitted_statement"] <= CALLS_PER_STATEMENT_MAX, data


if __name__ == "__main__":
    data = collect()
    path = write_artifact(data)
    for stage in STAGES:
        row = data["stages"][stage]
        print(
            f"{stage:<18} {row['calls_per_statement']:>7.1f} calls  "
            f"{row['min_us_per_statement']:>8.1f} us  per statement"
        )
    total = data["calls_per_admitted_statement"]
    print(
        f"admitted statement: {total:.1f} calls (gate <= "
        f"{CALLS_PER_STATEMENT_MAX}), {data['min_us_per_admitted_statement']:.1f} us"
    )
    print(f"wrote {path}")
    if total > CALLS_PER_STATEMENT_MAX:
        sys.exit(f"calls_per_admitted_statement {total:.1f} > {CALLS_PER_STATEMENT_MAX}")
