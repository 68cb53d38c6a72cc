"""Smoke tests of the benchmark suite itself.

Run with ``pytest benchmarks/suite -q`` — outside tier-1's
``testpaths``, because they start subprocesses and a server.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [spec["name"] for spec in BENCHMARK["workloads"]]


def run(*args, cwd=None, script=RUN):
    return subprocess.run(
        [sys.executable, script, *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All five workloads, untraced and traced, at 2 % of full size."""
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    done = run("--seed", "7", "--scale", "0.02", "--seconds", "0.5",
               "--trace", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as fh:
        return str(out), json.load(fh)["results"]


def test_every_workload_runs_and_is_correct(smoke):
    _, results = smoke
    assert [r["workload"] for r in results if not r["trace"]] == WORKLOADS
    assert [r["workload"] for r in results if r["trace"]] == WORKLOADS
    for result in results:
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1


def test_metric_names_and_units_match_benchmark_json(smoke):
    _, results = smoke
    for result in results:
        listed = BENCHMARK["per_layer" if result["trace"] else "end_to_end"]
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == {entry["name"]: entry["unit"] for entry in listed}
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
    for result in results:
        if not result["trace"]:
            assert all(m["value"] > 0 for m in result["metrics"].values()), result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_trees_are_well_formed(smoke, workload):
    with open(os.path.join(HERE, "out", f"trace-{workload}.json")) as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    assert spans
    own = [end - start for _, start, end, _, _ in spans]
    for index, (name, start, end, parent, request) in enumerate(spans):
        assert end >= start, name
        if parent < 0:
            assert name.startswith("bench."), name  # one root opens a request
            continue
        assert parent < index
        _, parent_start, parent_end, _, parent_request = spans[parent]
        assert parent_start <= start and end <= parent_end, name
        assert request == parent_request, name
        own[parent] -= end - start
    assert min(own) >= -1e-9  # self time is never negative


def test_compare_of_a_file_with_itself_is_unchanged(smoke):
    path, _ = smoke
    done = run("--compare", path, path)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) == (len(BENCHMARK["end_to_end"]) + 1) * len(WORKLOADS)
    assert all(row.split()[-1] == "unchanged" for row in rows), done.stdout


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path,
               script=str(tmp_path / "benchmarks" / "suite" / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
