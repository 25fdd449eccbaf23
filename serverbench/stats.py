#!/usr/bin/env python3
"""Runs one workload on several seeds and summarises every metric.

Usage, from the root of a checkout:

    python3 serverbench/stats.py --workload NAME [--runs 10] [--first-seed 1]
                                 [--seconds 30] [--trace 0|1]

Each run is `serverbench/run.py` with the next seed. For each metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and the
spread: (q3 - q1) / median, the figure the bounds in BENCHMARK.json are set
against. For a timed set it also summarises the timings as measured, before
the host-speed scaling (the `# as measured` line of each run). Also prints
the share of failed operations and whether every run was correct. The
per-run results, with each run's `#` lines, are kept in
.bench_out/stats-<workload>.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

AS_MEASURED = re.compile(
    r"# as measured: setup_s (\S+) s, query p50/p90 (\S+)/(\S+) us, "
    r"mutation p50/p90 (\S+)/(\S+) us, (\S+) req/s")


def as_measured(result):
    """The unscaled timings of one run, from its `# as measured` line."""
    for line in result.get("notes", []):
        match = AS_MEASURED.match(line)
        if match:
            names = ["setup_s", "query_p50_us", "query_p90_us",
                     "mutation_p50_us", "mutation_p90_us", "requests_per_s"]
            units = ["s", "us", "us", "us", "us", "req/s"]
            return {"raw " + name: {"value": float(value), "unit": unit}
                    for name, value, unit in zip(names, match.groups(),
                                                 units)}
    return {}


def summarise(results):
    print("%-28s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3",
                                       "spread"))
    rows = [r["metrics"] | as_measured(r) for r in results]
    for name, first in rows[0].items():
        values = [row[name]["value"] for row in rows]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("nan")
        print("%-28s %12.6g %12.6g %12.6g %8.3f  %s" %
              (name, median, q1, q3, spread, first["unit"]))
    shares = {r["failed"] / r["attempted"] for r in results}
    print("failed share per run: %s; all correct: %s" %
          (sorted(shares), all(r["correct"] for r in results)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    path = os.path.join(ROOT, ".bench_out", "stats-%s.json" % args.workload)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr[-2000:])
            sys.exit("seed %d: run failed (exit %d)" % (seed, out.returncode))
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["notes"] = [line for line in lines if line.startswith("#")]
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"],
               result["failed"]), flush=True)

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    summarise(results)


if __name__ == "__main__":
    main()
