#!/usr/bin/env python3
"""Determinism self-test of the benchmark harness.

Usage (from the repository root):
  python3 perfbench/selftest.py [--workloads narrow_topk,wal_ingest]

For each workload (all by default), with short runs:
  * two runs with the same seed report identical counts: ios_per_query,
    ios_per_update and pins per op (--trace 1) and space_amp (--trace 0).
    wal_ingest is held to 0.1% instead: ExecuteBatch runs a batch's queries
    concurrently, and two of them on one shard reach its LRU buffer pool
    in either order, which moves a few hits and misses;
  * a different seed generates different inputs (the input fingerprint the
    harness prints on stderr changes) but the same set of metric names;
  * every run passes its own checks (correct, failed == 0).
Also checks that an unknown workload name is rejected without a result.
Exits non-zero on the first failure.
"""

import argparse
import json
import re
import subprocess
import sys

WORKLOADS = ("narrow_topk", "wal_ingest", "mvcc_ingest")
TRACE_COUNTS = ("em.device.ios_per_query", "em.device.ios_per_update",
                "em.buffer_pool.pins_per_query",
                "em.buffer_pool.pins_per_update")
PLAIN_COUNTS = ("space_amp",)
# Relative tolerance on same-seed counts (see the docstring); 0 = identical.
TOLERANCE = {"wal_ingest": 1e-3}


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit "
                 f"{p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: {result}")
    fp = re.search(r"input_fingerprint (\w+)", p.stderr).group(1)
    return fp, {k: v["value"] for k, v in result["metrics"].items()}


def check(cond, msg):
    if not cond:
        sys.exit(f"FAIL {msg}")
    print(f"ok   {msg}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()

    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "no_such_workload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    check(p.returncode != 0 and not p.stdout.strip(),
          "unknown workload is rejected without a result")

    for w in args.workloads.split(","):
        for trace, counts in ((1, TRACE_COUNTS), (0, PLAIN_COUNTS)):
            fp_a, a = run(w, 1, trace)
            fp_b, b = run(w, 1, trace)
            fp_c, c = run(w, 2, trace)
            check(fp_a == fp_b, f"{w} trace {trace}: same seed, same inputs")
            tol = TOLERANCE.get(w, 0)
            for name in counts:
                check(abs(a[name] - b[name]) <= tol * abs(a[name]),
                      f"{w} trace {trace}: same seed, same {name} "
                      f"({a[name]!r} vs {b[name]!r})")
            check(fp_a != fp_c, f"{w} trace {trace}: other seed, other inputs")
            check(sorted(a) == sorted(c),
                  f"{w} trace {trace}: other seed, same metric names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
