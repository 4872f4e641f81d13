#!/usr/bin/env python3
"""Runs two sets of ten runs (seeds 1..10) of each workload with `--trace 0`
and the run length of BENCHMARK.json. The sets alternate: on odd seeds the
first set runs first, on even seeds the second. For every end-to-end metric
it prints each set's median and spread (the distance between the first and
third quartiles of statistics.quantiles(n=4), as a share of the median), the
second median's distance from the first, and the metric's bound.

    python3 perfbench/spread.py [workload ...]

Run from the repository root. With no workload named, it runs them all.
"""
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: not correct: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        sets = [{}, {}]
        for seed in SEEDS:
            for s in (0, 1) if seed % 2 else (1, 0):
                for name, value in run(workload, seed, bench["run_seconds"]).items():
                    sets[s].setdefault(name, []).append(value)
                print(f"# {workload} seed {seed} set {s + 1} done", file=sys.stderr, flush=True)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = sets[0][name], sets[1][name]
            ma, mb = statistics.median(a), statistics.median(b)
            shift = mb / ma - 1
            print(f"{workload:<11} {name:<12} set1 {ma:10.4f} spread {spread(a):6.1%}  "
                  f"set2 {mb:10.4f} spread {spread(b):6.1%}  shift {shift:+6.1%}  "
                  f"bound {bound:.0%}", flush=True)


if __name__ == "__main__":
    main()
