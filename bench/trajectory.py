#!/usr/bin/env python3
"""Print the repository's measured perf trajectory, or check its schema.

bench/history.jsonl holds one JSON object per line: one measured perf PR on
one benchmark workload (BENCHMARK.json), as that PR reported it in
CHANGES.md.

    {"pr": 21, "parent": "13230aa", "nproc": 4, "workload": "churn_1m",
     "seeds": [5001, ..., 5012], "pairs": 12,
     "metrics": {"peak_rss_mb": {"parent": 203.74, "change": 203.81}, ...}}

  pr        the PR number (lines ascend by it)
  parent    the commit the PR was measured against (a hex hash prefix); the
            PR is the commit that follows it on main.  A line names its
            parent because a commit cannot contain its own hash.
  nproc     CPUs of the machine the pairs ran on
  workload  a workload of BENCHMARK.json
  seeds     the seeds the pairs ran on (a seed repeats when several pairs
            shared it)
  pairs     alternated parent/change pairs of perfbench/run.py --trace 0
  metrics   the parent and change medians of each gated end-to-end metric
            (BENCHMARK.json "end_to_end") the PR stated; a metric it did
            not state is left out

usage: trajectory.py [--history FILE] [--check]

Without --check it prints, per workload and metric, the series of
parent -> change medians in PR order, each line's change / parent ratio,
and the chained product of those ratios: the metric's cumulative move
over the measured PRs.  Absolute medians do not compare across lines,
because each PR measured on its own host (churn_1m's parent median in
the committed history ranges from 32k to 91k changes/s); ratios within a
PR do.  A ratio is undefined (n/a) when the parent median is 0, and the
product skips it.
--check validates every line and exits 1 on the first bad one (0 when
all are valid).
"""

import argparse
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEYS = {"pr", "parent", "nproc", "workload", "seeds", "pairs", "metrics"}
HEX = re.compile(r"^[0-9a-f]{7,40}$")


def benchmark_names():
    """(workloads, gated metrics, {metric: "higher"|"lower"}) declared by
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([w["name"] for w in bench["workloads"]],
            [m["name"] for m in bench["end_to_end"]],
            {m["name"]: m["better"] for m in bench["end_to_end"]})


def is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def is_number(x):
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and x == x and abs(x) != float("inf"))


def check_line(row, workloads, metrics):
    """Returns the first schema violation of one parsed line, or None."""
    if not isinstance(row, dict):
        return "not a JSON object"
    if set(row) != KEYS:
        return ("keys must be exactly " + ", ".join(sorted(KEYS)) +
                "; got " + ", ".join(sorted(row)))
    if not is_int(row["pr"]) or row["pr"] < 1:
        return "pr must be a positive integer"
    if not isinstance(row["parent"], str) or not HEX.match(row["parent"]):
        return "parent must be a lowercase hex commit hash (7-40 digits)"
    if not is_int(row["nproc"]) or row["nproc"] < 1:
        return "nproc must be a positive integer"
    if row["workload"] not in workloads:
        return "unknown workload %r (BENCHMARK.json has %s)" % (
            row["workload"], ", ".join(workloads))
    seeds = row["seeds"]
    if (not isinstance(seeds, list) or not seeds or
            not all(is_int(s) and s >= 0 for s in seeds)):
        return "seeds must be a non-empty list of non-negative integers"
    if not is_int(row["pairs"]) or row["pairs"] < 1:
        return "pairs must be a positive integer"
    if not isinstance(row["metrics"], dict) or not row["metrics"]:
        return "metrics must be a non-empty object"
    for name, pair in row["metrics"].items():
        if name not in metrics:
            return "unknown metric %r (not a gated end-to-end metric)" % name
        if (not isinstance(pair, dict) or set(pair) != {"parent", "change"}
                or not all(is_number(pair[k]) for k in pair)):
            return "metric %r must be {\"parent\": x, \"change\": y}" % name
    return None


def load(path, workloads, metrics):
    """Parsed lines; raises ValueError naming the first bad line."""
    rows = []
    with open(path) as f:
        for number, text in enumerate(f, 1):
            if not text.strip():
                raise ValueError("%s:%d: empty line" % (path, number))
            try:
                row = json.loads(text)
            except json.JSONDecodeError as e:
                raise ValueError("%s:%d: %s" % (path, number, e))
            bad = check_line(row, workloads, metrics)
            if bad is None and rows and row["pr"] < rows[-1]["pr"]:
                bad = "lines must ascend by pr"
            if bad is None and any(r["pr"] == row["pr"] and
                                   r["workload"] == row["workload"]
                                   for r in rows):
                bad = "a second line for PR %d on %s" % (row["pr"],
                                                         row["workload"])
            if bad is not None:
                raise ValueError("%s:%d: %s" % (path, number, bad))
            rows.append(row)
    if not rows:
        raise ValueError("%s: no lines" % path)
    return rows


def fmt(x):
    return "{:,.0f}".format(x) if abs(x) >= 1000 else "%.4g" % x


def ratio(pair):
    """change / parent, or None when the parent median is 0."""
    return pair["change"] / pair["parent"] if pair["parent"] else None


def chained(ratios):
    """The product of the defined ratios (1.0 when none is)."""
    product = 1.0
    for r in ratios:
        if r is not None:
            product *= r
    return product


def report(rows, workloads, metrics, better):
    for workload in workloads:
        mine = [r for r in rows if r["workload"] == workload]
        if not mine:
            continue
        print("== %s ==" % workload)
        for metric in metrics:
            series = [(r, r["metrics"][metric]) for r in mine
                      if metric in r["metrics"]]
            if not series:
                continue
            print("  %s (%s is better)" % (metric, better[metric]))
            for r, pair in series:
                seeds = len(set(r["seeds"]))
                q = ratio(pair)
                print("    PR %-3d %10s -> %-10s %9s  (%d pairs, %d seed%s, "
                      "nproc %d)" % (r["pr"], fmt(pair["parent"]),
                                     fmt(pair["change"]),
                                     "n/a" if q is None else "x%.3f" % q,
                                     r["pairs"], seeds,
                                     "" if seeds == 1 else "s", r["nproc"]))
            print("    chained over %d PR%s: x%.3f" %
                  (len(series), "" if len(series) == 1 else "s",
                   chained(ratio(pair) for _, pair in series)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--history", default=os.path.join(HERE, "history.jsonl"))
    ap.add_argument("--check", action="store_true",
                    help="validate the schema only")
    args = ap.parse_args()
    workloads, metrics, better = benchmark_names()
    try:
        rows = load(args.history, workloads, metrics)
    except (OSError, ValueError) as e:
        print("trajectory.py: %s" % e, file=sys.stderr)
        return 1
    if args.check:
        print("trajectory.py: %d lines valid (%d PRs)" %
              (len(rows), len({r["pr"] for r in rows})))
        return 0
    report(rows, workloads, metrics, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
