"""Noise calibration for ppmbench (run.sh --calibrate).

Runs every workload ten times end to end, each run with its own seed, in
two sets of five (seeds 1-5 and 6-10).  Prints each metric's per-set
median and quartiles, then writes each end-to-end metric's bound into
BENCHMARK.json.  A bound is a share of the median.

The target rule:

  ops_per_s, peak_rss_mb   max(3%, 2 x the gap between the set medians),
                           at most 10%
  setup_s                  the same, with a floor of 1 ms of its median
  vt_*                     exact (0): virtual time is identical for a seed

A bound must also hold the benchmark's own noise, because runs of the
same commit are compared across seeds:

  - the spread of the ten runs (interquartile range over median) must
    stay under a third of the bound, and the set medians within it;
  - setup_s has no spread limit, but a later change must not be able to
    move work into set-up unseen, so it gets the largest bound allowed.

So each bound is max(target, 2 x gap, 3 x spread), at most 25%, the
largest bound BENCHMARK.json accepts; setup_s is 25%.  The largest bound
over the workloads is kept.  Every bound above its target is printed as a
"deviation" line with the measured gap and spread.

usage: python3 calibrate.py RUN_SH BENCHMARK_JSON
"""

import json
import math
import statistics
import subprocess
import sys

WORKLOADS = ["kmsg", "admin", "churn", "collective"]
RUNS_PER_SET = 5
SECONDS = 10
TARGET_FLOOR = 0.03
TARGET_CAP = 0.10
SPREAD_MARGIN = 3
MAX_BOUND = 0.25


def run(run_sh, workload, seed):
    out = subprocess.run(
        ["bash", run_sh, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"calibrate: {workload} seed {seed} failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def target(name, gap, median):
    if name.startswith("vt_"):
        return 0.0
    floor = TARGET_FLOOR
    if name == "setup_s":
        floor = max(floor, 0.001 / median)
    return min(TARGET_CAP, max(floor, 2 * gap))


def bound(name, sets):
    """Returns (target, bound, gap, spread) of one workload's metric."""
    medians = [statistics.median(s) for s in sets]
    gap = abs(medians[0] - medians[1]) / medians[0]
    q1, q2, q3 = statistics.quantiles(sets[0] + sets[1], n=4)
    spread = (q3 - q1) / q2
    t = target(name, gap, q2)
    if name == "setup_s":
        return t, MAX_BOUND, gap, spread
    return t, min(MAX_BOUND, max(t, 2 * gap, SPREAD_MARGIN * spread)), gap, spread


def main():
    run_sh, benchmark_json = sys.argv[1], sys.argv[2]
    with open(benchmark_json) as f:
        benchmark = json.load(f)
    bounds = {}
    deviations = []
    for workload in WORKLOADS:
        runs = [run(run_sh, workload, seed) for seed in range(1, 2 * RUNS_PER_SET + 1)]
        sets = [runs[:RUNS_PER_SET], runs[RUNS_PER_SET:]]
        for metric in runs[0]:
            values = [[r[metric] for r in s] for s in sets]
            for i, v in enumerate(values):
                q1, q2, q3 = statistics.quantiles(v, n=4)
                print(f"{workload} {metric} set{i + 1} median {q2:.6g} "
                      f"quartiles {q1:.6g} {q3:.6g}")
            t, b, gap, spread = bound(metric, values)
            print(f"{workload} {metric} gap {gap:.4f} spread {spread:.4f} "
                  f"target {t:.4f} bound {b:.4f}")
            if b > t:
                deviations.append(f"deviation {workload} {metric}: target {t:.4f}, "
                                  f"gap {gap:.4f}, spread {spread:.4f}, bound {b:.4f}")
            bounds[metric] = max(bounds.get(metric, 0.0), b)
    for line in deviations:
        print(line)
    for m in benchmark["end_to_end"]:
        m["bound"] = math.ceil(bounds[m["name"]] * 1000) / 1000
        print(f"bound {m['name']} {m['bound']}")
    with open(benchmark_json, "w") as f:
        json.dump(benchmark, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
