#!/usr/bin/env python3
"""Builds the online-testing benchmark from source and runs one workload.

Usage, from the root of a checkout:
  python3 online_bench/run.py --workload steady_state --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) in the checkout
and is reused while the sources are unchanged. Build output goes to standard
error; the benchmark's last line of standard output is its JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("steady_state", "full_load", "federated")
RUN_TIMEOUT_S = 170


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "online_bench")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "online_bench", "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "online_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        print("online_bench: build failed", file=sys.stderr)
        return 1
    # One CPU for the benchmark's two threads: a federation round trip then
    # hands off between them on a running CPU instead of waiting for an idle
    # virtual CPU to be woken, which on a shared host varies run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("online_bench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("online_bench: exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        print("online_bench: malformed or incorrect result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
