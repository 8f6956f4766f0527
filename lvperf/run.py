#!/usr/bin/env python3
"""Builds the lvperf benchmark from source and runs one workload.

    python3 lvperf/run.py --workload pbbs_fixpoint --seed 1 --seconds 20 --trace 0

Run from the repository root. The build tree goes to $CARGO_TARGET_DIR/lvperf
(default .bench_build/lvperf); the traced run writes its span file to
<build tree>/out. The benchmark's output is relayed unchanged: a run-record
line, then the result object as the last line. The exit code is the
benchmark's (1 when an output check or the exact-count check failed); a
build or usage failure exits nonzero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pbbs_fixpoint", "pbbs_rounds", "service_mix")
# A first run (which builds) must end within 900 s, any other within 180 s.
BUILD_BUDGET_S = 700
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "lvperf", "-j", jobs]]
    deadline = time.monotonic() + BUILD_BUDGET_S
    for cmd in steps:
        # Build chatter goes to stderr so the result stays the last line
        # of standard output.
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in (0, 600]")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "lvperf"))
    out_dir = os.path.join(build_dir, "out")
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"lvperf: build failed: {e}", file=sys.stderr)
        return 3
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "lvperf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("lvperf: run timed out", file=sys.stderr)
        return 4
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(run.stdout)
        print("lvperf: the benchmark printed no result", file=sys.stderr)
        return run.returncode or 5
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
