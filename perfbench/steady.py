#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

Run from the repository root:

    python3 perfbench/steady.py                      # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads serve-mix --seeds 5
    python3 perfbench/steady.py --sets 2             # two sets, compare medians

Each workload runs once per seed (untraced) with BENCHMARK.json's run_seconds.
For every end-to-end metric and set the script prints the median, the quartiles
(statistics.quantiles, n=4), min and max, and the spread (Q3 - Q1) / median
against the metric's bound: "steady" below a third of the bound, "ok" up to
the bound, "WIDE" beyond it. It also prints the first-run warm-up effect: how
far the first run of the sequence lies from the median of the others. With
--sets 2 the seeds are run twice and each metric's second median must lie
within the bound of the first, in either direction. The exit code is 1 if a
run fails, an output is wrong, a spread is WIDE or two sets disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        print("  seed %d: exit %d\n%s" % (seed, proc.returncode, "\n".join(lines[-5:])))
        return None
    res = json.loads(lines[-1])
    if not res["correct"]:
        print("  seed %d: incorrect output" % seed)
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse(metric, a, b):
    """Relative change from a to b, positive when b is worse."""
    rel = (b - a) / a if a else 0.0
    return rel if metric["better"] == "lower" else -rel


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in range(1, args.seeds + 1):
                r = run_once(workload, seed, args.seconds)
                if r is None:
                    ok = False
                    continue
                runs.append(r)
            sets.append(runs)
        if any(len(runs) < 3 for runs in sets):
            print("== %s: fewer than 3 good runs in a set" % workload)
            ok = False
            continue
        for k, runs in enumerate(sets):
            print("== %s, set %d: %d runs of %d s" % (workload, k + 1, len(runs), args.seconds))
            print("%-18s %14s %14s %14s %14s %14s %8s %6s %s" % (
                "metric", "median", "q1", "q3", "min", "max", "spread", "bound", "verdict"))
            for name, m in metrics.items():
                vals = [r[name] for r in runs]
                med, q1, q3, sp = spread(vals)
                verdict = "steady" if sp < m["bound"] / 3 else ("ok" if sp <= m["bound"] else "WIDE")
                if verdict == "WIDE":
                    ok = False
                print("%-18s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f %6.2f %s" % (
                    name, med, q1, q3, min(vals), max(vals), sp, m["bound"], verdict))
        first = sets[0][0]
        rest = sets[0][1:]
        print("first-run effect (run 1 against the median of the others):")
        for name, m in metrics.items():
            rel = worse(m, statistics.median(r[name] for r in rest), first[name])
            print("  %-18s %+7.2f%% %s" % (name, 100 * rel, "worse" if rel > 0 else "better"))
        for k in range(1, len(sets)):
            print("set %d against set 1 (median change, positive = worse):" % (k + 1))
            for name, m in metrics.items():
                a = statistics.median(r[name] for r in sets[0])
                b = statistics.median(r[name] for r in sets[k])
                rel = worse(m, a, b)
                flag = "ok" if abs(rel) <= m["bound"] else "OUTSIDE BOUND"
                if flag != "ok":
                    ok = False
                print("  %-18s %+7.2f%% (bound %.0f%%) %s" % (name, 100 * rel, 100 * m["bound"], flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
