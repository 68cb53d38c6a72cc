"""``run.py --compare A.json B.json``: did B regress against A?

One row per (end-to-end metric, workload) with both medians, the ratio
B/A (base: A's median), the wider of the two run-to-run spreads, and a
verdict by the bounds of ``BENCHMARK.json``:

* ``unresolved`` — the spread (inter-quartile distance as a share of
  the median) is wider than the bound, so the runs cannot tell;
* ``regressed`` / ``improved`` — B's median is worse / better than A's
  by more than the bound;
* ``unchanged`` — otherwise.

``failed`` operations are compared as counts: more failures in B than
in A is a regression whatever the timings say.
"""

from __future__ import annotations

import json
import statistics


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the bound's scale)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(metric, workload) -> values`` over the untraced runs of a file."""
    with open(path) as fh:
        results = json.load(fh)["results"]
    out: dict[tuple[str, str], list[float]] = {}
    for result in results:
        if result["trace"]:
            continue
        for name, metric in result["metrics"].items():
            out.setdefault((name, result["workload"]), []).append(metric["value"])
        out.setdefault(("failed", result["workload"]), []).append(result["failed"])
    return out


def verdict(a: list[float], b: list[float], better: str, bound: float):
    base, new = statistics.median(a), statistics.median(b)
    width = max(spread(a), spread(b))
    worse = (new - base) / base if better == "lower" else (base - new) / base
    if width > bound:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    elif worse < -bound:
        word = "improved"
    else:
        word = "unchanged"
    return base, new, width, word


def main(path_a: str, path_b: str, benchmark: dict) -> int:
    a, b = load(path_a), load(path_b)
    print(f"{'metric':<14} {'workload':<20} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'spread':>7} {'bound':>6}  verdict   (base: A)")
    bad = 0
    for entry in benchmark["end_to_end"]:
        for spec in benchmark["workloads"]:
            key = (entry["name"], spec["name"])
            if key not in a or key not in b:
                continue
            base, new, width, word = verdict(
                a[key], b[key], entry["better"], entry["bound"])
            bad += word in ("regressed", "unresolved")
            print(f"{key[0]:<14} {key[1]:<20} {base:>12.6g} {new:>12.6g} "
                  f"{new / base:>7.3f} {width:>7.1%} {entry['bound']:>6.0%}  {word}")
    for spec in benchmark["workloads"]:
        key = ("failed", spec["name"])
        if key in a and key in b:
            failed_a, failed_b = sum(a[key]), sum(b[key])
            word = "regressed" if failed_b > failed_a else "unchanged"
            bad += word == "regressed"
            print(f"{'failed':<14} {key[1]:<20} {failed_a:>12} {failed_b:>12} "
                  f"{'':>7} {'':>7} {'':>6}  {word}")
    return 1 if bad else 0
