#!/usr/bin/env python3
"""Checks that the online-testing benchmark repeats.

Runs two alternating sets of every workload (set A, then set B, for each seed
in turn), prints each end-to-end metric's median and interquartile range per
set, and reports:
  * whether each set's spread (IQR as a share of the median) stays within the
    metric's bound in BENCHMARK.json (setup_s is exempt from this test),
  * whether set B's median is no worse than set A's by more than the bound,
  * whether the failed share of operations is the same in both sets,
  * whether the deterministic counts (attempted, failed, set-up and round
    digests) matched across all runs with the same seed.

Usage, from the root of a checkout:
  python3 online_bench/steadiness.py [--runs 5] [--seed 1] [--workloads a,b]
                                     [--save results.json]
Exits 0 when every test passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    lines = proc.stdout.splitlines()
    digest = next((l for l in lines if l.startswith("digest ")), "")
    return json.loads(lines[-1]), digest


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workloads", default="", help="comma-separated subset")
    parser.add_argument("--save", default="", help="write every run's result here as JSON")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = spec["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    digests = {}
    digests_match = True
    for i in range(args.runs):
        seed = args.seed + i
        for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
            for w in workloads:
                result, digest = run_once(w, seed, spec["run_seconds"])
                results[w][side].append(result)
                key = (w, seed)
                fingerprint = (digest, result["failed"] * 1.0 / result["attempted"])
                if digests.setdefault(key, fingerprint) != fingerprint:
                    digests_match = False
                    print("MISMATCH %s seed %d: %s vs %s" % (w, seed, digests[key], fingerprint))

    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)

    ok = digests_match
    for w in workloads:
        print("== %s (%d runs per set)" % (w, args.runs))
        shares = {}
        for side in ("A", "B"):
            runs = results[w][side]
            shares[side] = (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
        share_ok = shares["A"][0] * shares["B"][1] == shares["B"][0] * shares["A"][1]
        ok = ok and share_ok
        print("  failed/attempted: A %d/%d  B %d/%d  %s" % (
            shares["A"][0], shares["A"][1], shares["B"][0], shares["B"][1],
            "same share" if share_ok else "SHARES DIFFER"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_side = {}
            for side in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in results[w][side]]
                per_side[side] = (statistics.median(values), spread(values))
            (med_a, sp_a), (med_b, sp_b) = per_side["A"], per_side["B"]
            worse = (med_b - med_a) / med_a if m["better"] == "lower" else (med_a - med_b) / med_a
            spread_ok = name == "setup_s" or (sp_a <= bound and sp_b <= bound)
            agree_ok = worse <= bound
            ok = ok and spread_ok and agree_ok
            print("  %-16s A %12.6g iqr %5.1f%%   B %12.6g iqr %5.1f%%   B worse by %6.2f%%"
                  "  bound %4.1f%%  %s" % (
                      name, med_a, 100 * sp_a, med_b, 100 * sp_b, 100 * worse, 100 * bound,
                      "ok" if spread_ok and agree_ok else "FAIL"))
    print("deterministic counts across same-seed runs: %s" % (
        "match" if digests_match else "DIFFER"))
    print("steady: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
