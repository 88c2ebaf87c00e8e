#!/usr/bin/env python3
"""Steadiness check: run one workload as two independent sets of runs.

    python3 p5bench/steady.py --workload W [--first-seed N]

Each set has ten runs of the benchmark command from BENCHMARK.json,
each run_seconds long and with its own seed (the sets never share a
seed), and the sets are interleaved run by run so drift on the host
reaches both alike. For every end-to-end metric the tool prints each
set's median, quartiles and spread (Q3 - Q1 as a share of the median),
then a verdict:

  steady   both spreads are within a third of the bound
  ok       both spreads are within the bound, not within a third of it
  UNSTEADY a spread exceeds the bound
  DRIFT    set 2's median is worse than set 1's by more than the bound

setup_s is judged on its drift only: its spread is printed but not
judged, because what its bound guards against is work moved into
set-up, which moves the median.

Run it from the root of a checkout. Exit code 0 unless a run fails or
the verdict is UNSTEADY or DRIFT.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10  # runs per set


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of one set's values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def verdict(first, second, spec):
    """(spread stats of both sets, drift of set 2, status) for one metric."""
    bound = spec["bound"]
    stats = [spread(first), spread(second)]
    status = "steady"
    if spec["name"] != "setup_s":
        worst = max(s[3] for s in stats)
        if worst > bound:
            status = "UNSTEADY"
        elif worst > bound / 3:
            status = "ok"
    drift = worse_by(stats[0][0], stats[1][0], spec["better"])
    if drift > bound:
        status = "DRIFT"
    return stats, drift, status


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (seed %d, exit %d):\n%s" %
                 (seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("run seed %d reported failures: %s" % (seed, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    sets = ([], [])  # sets[s][run] = metrics
    seed = args.first_seed
    for r in range(RUNS):
        for s, runs in enumerate(sets):
            m = run_once(bench["command"], args.workload, seed, seconds)
            runs.append(m)
            print("set %d run %d seed %d: %s" % (s + 1, r + 1, seed, " ".join(
                "%s=%.6g" % (k, v) for k, v in m.items())), flush=True)
            seed += 1

    failed = False
    print("\n%s: 2 sets x %d runs, %d s each" % (args.workload, RUNS, seconds))
    for spec in bench["end_to_end"]:
        first, second = ([m[spec["name"]] for m in runs] for runs in sets)
        stats, drift, status = verdict(first, second, spec)
        failed |= status in ("UNSTEADY", "DRIFT")
        for i, (med, q1, q3, sp) in enumerate(stats):
            print("  %-12s set %d  median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f" % (spec["name"], i + 1, med, q1, q3, sp))
        print("  %-12s bound %.2f  drift %+.4f  -> %s" %
              (spec["name"], spec["bound"], drift, status))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
