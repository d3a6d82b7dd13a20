#!/usr/bin/env python3
"""Runs one workload of the top-k service benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload narrow_topk --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and through it the library) into $CARGO_TARGET_DIR
(default .bench_build), then runs one workload in one process. The last
line of standard output is the result object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end set,
with --trace 1 the per-layer set. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("narrow_topk", "wal_ingest", "mvcc_ingest")
RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log = sys.stderr
    subprocess.run(
        ["cmake", "-S", src_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=log, stderr=log, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "topk_bench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=log, stderr=log, env=env)
    return os.path.join(build_dir, "topk_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src_dir = os.path.dirname(os.path.abspath(__file__))
    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(src_dir, os.path.join(out_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Shard files and logs of the file-backed workloads live here, inside
    # the build directory, and are removed when the run ends.
    workdir = os.path.join(out_root, f"perfbench-work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        rc = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
