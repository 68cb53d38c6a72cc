"""The repo benchmark: one command, five workloads, every metric by name.

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py --seed 42 [--trace] [--scale F] [--runs N] [--out FILE]
    python3 benchmarks/suite/run.py --compare A.json B.json

With ``--workload`` the process runs that workload itself and prints,
as the last line of its standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it, every workload runs
in a fresh subprocess of its own (so ``peak_rss_mb`` is per workload)
and the results are saved for ``--compare``.

See ``README.md`` beside this file for what each name means.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(args, benchmark: dict) -> int:
    """Run one workload in this process; print the report and the result."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads
    import wire_workload

    import_s = time.perf_counter() - _STARTED
    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.SPECS)}", file=sys.stderr)
        return 2
    bench_type = wire_workload.WireBench if spec.hot == "wire" else workloads.Bench
    bench = bench_type(spec, args.seed, args.seconds, args.scale)
    print(f"== {spec.name} seed={args.seed} seconds={args.seconds:g} "
          f"scale={args.scale:g} trace={args.trace}")
    try:
        setup_s = import_s / bench.host.factor() + bench.timed_setups()
        # The generated inputs are the benchmark's, not the program's:
        # keep them out of the collector's full passes, whose timing
        # would otherwise land in some samples and not in others.
        gc.collect()
        gc.freeze()
        for name, sha in bench.inputs.items():
            print(f"  input {name}: {len(bench.streams[name].events())} events "
                  f"sha256={sha}")
        if args.trace:
            values = bench.trace()
            listed = benchmark["per_layer"]
        else:
            measured = bench.measure()
            measured["setup_s"] = (setup_s, workloads.SETUPS)
            for name, (value, samples) in measured.items():
                print(f"  {name} = {value:.6g} (n={samples})")
            values = {name: value for name, (value, _) in measured.items()}
            listed = benchmark["end_to_end"]
            check_expected(bench, args)
    finally:
        bench.teardown()
    for line in bench.report:
        print(line)
    factors = sorted(bench.host.factors)
    print(f"  host speed factor: median {factors[len(factors) // 2]:.3f}, "
          f"range {factors[0]:.3f}-{factors[-1]:.3f} over {len(factors)} samples "
          f"(timings are divided by it)")
    ledger = bench.ledger
    for failure in ledger.failures:
        print(f"  FAILED: {failure}")
    print(f"  failed_share = {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    metrics = {}
    for entry in listed:
        metrics[entry["name"]] = {
            "value": values[entry["name"]], "unit": entry["unit"]}
        if args.trace:
            print(f"  {entry['name']} = {values[entry['name']]:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def check_expected(bench, args) -> None:
    """On the recorded seed at full scale, inputs and changelogs must
    match the digests stored in ``expected.json``."""
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    if args.seed != expected["seed"] or args.scale != 1.0:
        return
    if args.write_expected:
        expected["workloads"][bench.spec.name] = {
            "inputs": bench.inputs, "changelogs": bench.digests}
        with open(EXPECTED, "w") as fh:
            json.dump(expected, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    stored = expected["workloads"].get(bench.spec.name, {})
    for kind, mine in (("inputs", bench.inputs), ("changelogs", bench.digests)):
        for name, sha in mine.items():
            bench.ledger.check(
                stored.get(kind, {}).get(name) == sha,
                f"{kind[:-1]} {name} drifted from expected.json",
            )


def run_all(args, benchmark: dict) -> int:
    """Every workload in a fresh subprocess; save the results."""
    results = []
    modes = [0, 1] if args.trace else [0]
    for spec in benchmark["workloads"]:
        for run in range(args.runs):
            for trace in modes:
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", spec["name"],
                    "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds),
                    "--scale", str(args.scale),
                    "--trace", str(trace),
                ]
                if args.write_expected:
                    command.append("--write-expected")
                done = subprocess.run(command, capture_output=True, text=True)
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                if done.returncode != 0:
                    return done.returncode
                result = json.loads(done.stdout.strip().splitlines()[-1])
                results.append({"workload": spec["name"], "seed": args.seed + run,
                                "trace": trace, **result})
    out = args.out or os.path.join(HERE, "out", f"results-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"seconds": args.seconds, "scale": args.scale,
                   "results": results}, fh, indent=1)
    print(f"results saved to {os.path.relpath(out)}")
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every event count")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (seeds seed, seed+1, ...)")
    parser.add_argument("--out", help="where to save the results of a full run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's digests in expected.json")
    args = parser.parse_args(argv)
    if args.compare:
        sys.path.insert(0, HERE)
        import compare
        return compare.main(args.compare[0], args.compare[1], benchmark)
    if args.workload:
        return run_one(args, benchmark)
    return run_all(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
