#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Usage (from the repository root):
  python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--seconds 20]
                              [--workloads narrow_topk,wal_ingest]

Runs perfbench/run.py once per seed and workload with --trace 0, then prints
for every metric its median and its spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. The benchmark is
steady when every spread, setup_s's too, stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for name, v in run(workload, seed, args.seconds).items():
                values.setdefault(name, []).append(v)
        print(f"{workload} ({args.seeds} seeds)")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            ok = spread < bound / 3
            steady &= ok
            print(f"  {name:16s} median {med:12.4f}  spread {spread:7.2%}"
                  f"  bound {bound:5.0%}  {'ok' if ok else 'NOISY'}  "
                  + " ".join(f"{v:.4g}" for v in vs))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
