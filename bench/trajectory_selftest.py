#!/usr/bin/env python3
"""Locks trajectory.py's ratio report and its --check contract.

Runs the real script on a synthetic two-PR history and checks that every
line prints its change / parent ratio and that each workload and metric
ends with the chained product of those ratios; then checks that --check
accepts the valid history and rejects a malformed line with exit 1.
Registered as a CTest (see CMakeLists.txt), beside
check_regression_selftest.

usage: trajectory_selftest.py  (no arguments)
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "trajectory.py")


def line(pr, parent, metrics):
    return json.dumps({"pr": pr, "parent": parent, "nproc": 4,
                       "workload": "churn_1m", "seeds": [1, 2], "pairs": 2,
                       "metrics": metrics})


# Two PRs on one workload: changes_per_sec moves x1.100 then x0.500
# (chained x0.550); setup_s x0.800 then undefined (parent 0: n/a, the
# product keeps x0.800).
HISTORY = "\n".join([
    line(1, "aaaaaaa", {"changes_per_sec": {"parent": 1000, "change": 1100},
                        "setup_s": {"parent": 0.5, "change": 0.4}}),
    line(2, "bbbbbbb", {"changes_per_sec": {"parent": 3000, "change": 1500},
                        "setup_s": {"parent": 0, "change": 0.3}}),
]) + "\n"


def run(history, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "history.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(history)
        return subprocess.run(
            [sys.executable, SCRIPT, "--history", path, *flags],
            capture_output=True, text=True, check=False)


def section(out, metric):
    """The report lines of one metric (its header through its product)."""
    lines = out.splitlines()
    start = next(i for i, l in enumerate(lines)
                 if l.strip().startswith(metric + " "))
    end = next(i for i in range(start, len(lines))
               if lines[i].strip().startswith("chained"))
    return lines[start:end + 1]


def main():
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    proc = run(HISTORY)
    expect(proc.returncode == 0, "report exits 0")
    cps = section(proc.stdout, "changes_per_sec")
    expect("higher is better" in cps[0], "direction printed per metric")
    expect("x1.100" in cps[1] and "PR 1 " in cps[1], "PR 1 ratio x1.100")
    expect("x0.500" in cps[2] and "PR 2 " in cps[2], "PR 2 ratio x0.500")
    expect(cps[3].strip() == "chained over 2 PRs: x0.550",
           "chained product x0.550")
    setup = section(proc.stdout, "setup_s")
    expect("x0.800" in setup[1], "setup_s ratio x0.800")
    expect("n/a" in setup[2], "a zero parent prints n/a")
    expect(setup[3].strip() == "chained over 2 PRs: x0.800",
           "the product skips an undefined ratio")

    proc = run(HISTORY, "--check")
    expect(proc.returncode == 0, "--check accepts the valid history")
    bad = HISTORY + line(3, "NOTHEX", {"setup_s": {"parent": 1,
                                                   "change": 1}}) + "\n"
    proc = run(bad, "--check")
    expect(proc.returncode == 1, "--check rejects a malformed line (exit 1)")
    expect(":3:" in proc.stderr, "the rejection names the bad line")

    if failures:
        print("trajectory_selftest: %d failure(s)" % len(failures))
        return 1
    print("trajectory_selftest: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
