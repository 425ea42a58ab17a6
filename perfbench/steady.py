#!/usr/bin/env python3
"""Steadiness check: repeats the benchmark and reports each metric's spread.

    python3 perfbench/steady.py --runs 10              # one set, seeds 1..10
    python3 perfbench/steady.py --runs 10 --sets 2     # two sets must agree
    python3 perfbench/steady.py --runs 10 --seed-base 1001  # fresh seeds

Run it from the root of a checkout.  Every run is one `run.py --trace 0`
invocation at BENCHMARK.json's run_seconds.  Run i of a set uses seed
seed-base + i for every workload, and the workload order rotates from run
to run, so slow drift on the machine lands on all workloads alike.  Each
result line goes to stderr as it arrives.  For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4), the range,
and the spread (q3 - q1) / median next to the metric's bound: a spread under
a third of the bound is steady.  With --sets 2 it also compares the second
set's median with the first's, in the metric's "worse" direction, against
the bound.  Claims of a gain are verified on a seed range that was not used
while the change was written (--seed-base).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"steady: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"steady: {workload} seed {seed}: correct=false",
              file=sys.stderr)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 for quartiles")

    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    # results[set][workload][metric] -> values in run order
    results = [{w: {m["name"]: [] for m in metrics} for w in workloads}
               for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.seed_base + i
            order = workloads[i % len(workloads):] + \
                workloads[:i % len(workloads)]
            for w in order:
                r = run_once(w, seed, bench["run_seconds"])
                for m in metrics:
                    results[s][w][m["name"]].append(
                        r["metrics"][m["name"]]["value"])
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"{json.dumps(r)}", file=sys.stderr, flush=True)

    steady = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        for m in metrics:
            name = m["name"]
            bound = m["bound"]
            for s in range(args.sets):
                values = results[s][w][name]
                med, q1, q3, sp = spread(values)
                ok = sp < bound / 3
                steady &= ok
                print(f"  {name + ('' if args.sets == 1 else f' [{s + 1}]'):<30}"
                      f" {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                      f" {min(values):>12.6g} {max(values):>12.6g}"
                      f" {sp:>7.1%} {bound:>6} {'ok' if ok else 'WIDE'}")
            if args.sets == 2:
                first = statistics.median(results[0][w][name])
                second = statistics.median(results[1][w][name])
                delta = worse_by(first, second, m["better"])
                ok = delta <= bound
                steady &= ok
                print(f"  {'  set 2 vs set 1':<30} worse by {delta:+.1%}"
                      f" (bound {bound}) {'ok' if ok else 'DISAGREE'}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
