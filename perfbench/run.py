#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench from the checkout and runs one workload.

    python3 perfbench/run.py --workload churn_1m --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It configures and builds
perfbench/CMakeLists.txt (the dynsub library plus the perfbench program) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs repetitions of the workload -- one perfbench process each, all on
the same seed, so every repetition does identical work -- until the timed
windows add up to --seconds (at least three repetitions).  It checks every
output and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (medians over the repetitions).
--trace 1 cycles plain, traced and parallel-lane repetitions and reports
the per-layer metrics.  Every gated number comes from the sequential engine;
the lane repetitions only feed the ungated net.lanes.* record.

Exit status: 0 when every check passed, 1 when a check failed (the result
line still prints, with correct=false), 2 when the benchmark could not build
or run, or could not measure (too many invalid serve_100k repetitions);
nothing is printed on stdout then.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("churn_1m", "region_3hop", "serve_100k")

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("changes_per_sec", "1/s"),
    ("cpu_us_per_change", "us"),
    ("peak_rss_mb", "MB"),
    ("amortized_rounds", "rounds/change"),
    ("answer_p50_us", "us"),
    ("answer_p90_us", "us"),
    ("ok_fraction", "ratio"),
]

# (name, unit, field of a traced perfbench repetition).  Fields marked
# None are derived in per_layer().
PER_LAYER = [
    ("scenario.next_round_s", "s", "next_round_s"),
    ("net.construct_s", "s", "construct_s"),
    ("net.bootstrap_s", "s", "bootstrap_s"),
    ("net.bytes_per_node", "B", "bytes_per_node"),
    ("net.step_s", "s", "step_s"),
    ("net.step_us_p50", "us", "step_us_p50"),
    ("net.step_us_tail", "us", "step_us_tail"),
    ("net.rounds", "count", "rounds"),
    ("net.active_nodes", "count", "active_nodes"),
    ("net.stepped_nodes", "count", "stepped_nodes"),
    ("net.messages", "count", "messages"),
    ("net.payload_bits", "bit", "payload_bits"),
    ("net.ns_per_stepped_node", "ns", None),
    ("net.apply_s", "s", "apply_s"),
    ("net.react_s", "s", "react_s"),
    ("net.receive_s", "s", "receive_s"),
    ("net.route_s", "s", "route_s"),
    ("net.lanes.speedup", "x", None),
    ("net.lanes.cpu_us_per_change", "us", None),
    ("net.lanes.busy_max_over_mean", "ratio", None),
    ("net.lanes.barrier_wait_s", "s", None),
    ("oracle.edges", "count", "edges"),
    ("oracle.audit_s", "s", "audit_s"),
    ("detect.query_ns_p50", "ns", "query_ns_p50"),
    ("detect.list_ns_p50", "ns", "list_ns_p50"),
    ("detect.inconsistent_fraction", "ratio", "inconsistent_fraction"),
    ("serve.rounds_per_sec", "1/s", None),
    ("serve.submit_us_p99", "us", "submit_us_p99"),
    ("serve.rounds_waited_p99", "rounds", "rounds_waited_p99"),
    ("serve.backlog_peak", "count", "backlog_peak"),
    ("serve.gen_late_us_p99", "us", "gen_late_us_p99"),
    ("serve.answer_p99_us", "us", None),
    ("serve.answer_p999_us", "us", None),
    ("serve.invalid_reps", "count", None),
    ("telemetry.overhead_pct", "%", None),
]

# Per-layer metrics of layers a workload does not exercise: they read 0.
# Every other per-layer metric must come out of the repetitions.
SERVE_ONLY = {name for name, _, _ in PER_LAYER
              if name.startswith("serve.")} | {"detect.inconsistent_fraction"}
NOT_EXERCISED = {"churn_1m": SERVE_ONLY, "region_3hop": SERVE_ONLY,
                 "serve_100k": set()}

MIN_REPS = 3            # full repetitions per run, for a median
SETUP_SAMPLES = 7       # setup_s is the median of at least this many
# A serve_100k repetition whose client was, by its own doing, more than
# this late with its 99th-percentile query measured the generator, not the
# server: it is invalid, and is run again.  More than MAX_INVALID invalid
# repetitions and the run could not measure, which is a run failure.
MAX_GEN_LATE_US = 250.0
MAX_INVALID = 10
REP_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run (build failure, crash): exit 2."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.path.exists(binary):
        raise BenchError("build produced no perfbench binary")
    return binary


def rep(binary, workload, seed, mode="plain", audit=False, setup_only=False):
    """Runs one perfbench repetition and returns its JSON record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if audit:
        cmd.append("--audit")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("repetition timed out: " + " ".join(cmd)) from exc
    if proc.returncode != 0:
        log(proc.stderr[-2000:])
        raise BenchError("repetition failed: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("repetition printed nothing: " + " ".join(cmd))
    record = json.loads(lines[-1])
    record["mode"] = mode
    return record


class Checks:
    """Collects correctness failures; any failure makes the run incorrect."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
            log("CHECK FAILED: " + what)


def num(r, key):
    """Field `key` of a repetition as a finite number, else NaN: a field
    that is missing, or that perfbench printed as null (not finite)."""
    v = r.get(key)
    if isinstance(v, (int, float)) and math.isfinite(v):
        return float(v)
    return math.nan


def check_rep(r, checks):
    """Checks one full repetition's outputs.  A missing or non-finite field
    reads NaN, which fails every comparison."""
    w = r["workload"]
    if "audit" in r:
        checks.expect(r["audit"] == "pass", f"{w}: audit: {r['audit']}")
    if w == "serve_100k":
        checks.expect(num(r, "ok") + num(r, "shed") + num(r, "refused")
                      + num(r, "never_answered") == num(r, "due"),
                      f"{w}: queries due are not all accounted for")
        checks.expect(num(r, "never_answered") == 0
                      and num(r, "duplicates") == 0,
                      f"{w}: {num(r, 'never_answered'):.0f} queries never "
                      f"answered, {num(r, 'duplicates'):.0f} answered twice")
        checks.expect(num(r, "fingerprint_rounds") >= 1000,
                      f"{w}: engine ran fewer rounds than the fingerprint")
    else:
        checks.expect(num(r, "settled") == 1, f"{w}: network did not settle")
        checks.expect(num(r, "metrics_changes") == num(r, "changes_total"),
                      f"{w}: engine counted {num(r, 'metrics_changes'):.0f} "
                      f"changes, workload emitted "
                      f"{num(r, 'changes_total'):.0f}")
        checks.expect(num(r, "ok") == num(r, "due"),
                      f"{w}: changes not applied")


def fingerprint(r):
    keys = ("changes_total", "fingerprint", "query_fingerprint")
    return tuple(r.get(k) for k in keys) + (tuple(r.get("round_changes", ())),)


def serve_valid(r):
    return (r["workload"] != "serve_100k"
            or num(r, "gen_late_us_p99") <= MAX_GEN_LATE_US)


def ratio(a, b):
    return a / b if b else math.nan


def window_rate(r):
    """Changes applied per second of the timed window."""
    return ratio(num(r, "changes_window"), num(r, "window_s"))


def run_reps(binary, workload, seed, seconds, modes):
    """Runs full repetitions, cycling `modes`, until the timed windows add up
    to `seconds` and every mode ran (at least MIN_REPS in all).  The first
    sequential repetition also runs the end-of-run audit.  Returns the valid
    repetitions and the number of invalid ones."""
    reps = []
    measured = 0.0
    invalid = 0
    audited = False
    i = 0
    while measured < seconds or len(reps) < max(MIN_REPS, len(modes)):
        mode = modes[i % len(modes)]
        audit = not audited and mode != "lanes"
        r = rep(binary, workload, seed, mode=mode, audit=audit)
        if not serve_valid(r):
            invalid += 1
            log(f"{workload}: repetition invalid, the client itself ran "
                f"{num(r, 'gen_late_us_p99'):.0f} us late at p99 (CPU steal "
                f"{num(r, 'steal_pct'):.1f}%, "
                f"{num(r, 'involuntary_switches'):.0f} preemptions); "
                "running again")
            if invalid > MAX_INVALID:
                raise BenchError(f"{workload}: {invalid} repetitions invalid "
                                 "(query generator fell behind)")
            continue
        audited = audited or audit
        reps.append(r)
        measured += num(r, "window_s")
        i += 1
    return reps, invalid


def whole(x):
    return int(x) if math.isfinite(x) else 0


def median(values):
    """Median of finite values; NaN when there are none or one is not."""
    if not values or not all(math.isfinite(v) for v in values):
        return math.nan
    return statistics.median(values)


def weighted_quantile(pairs, q):
    """The value at which the cumulative weight first reaches q of the total."""
    pairs = sorted(pairs)
    want = q * sum(w for _, w in pairs)
    seen = 0.0
    for value, weight in pairs:
        seen += weight
        if seen >= want:
            return value
    return pairs[-1][0] if pairs else math.nan


def answer_quantile(reps, q):
    """Answer latency quantile q over the repetitions, in us.

    serve_100k repetitions report their own per-query quantiles; the run
    takes their median.  On the engine workloads each topology change is
    answered when its round returns, and every repetition runs the same
    rounds, so each round's latency is first taken as its median across the
    repetitions, and the quantile is then weighted by the round's changes.
    """
    if not reps:
        return math.nan
    if "round_latency_us" not in reps[0]:
        key = {0.5: "answer_p50_us", 0.9: "answer_p90_us",
               0.99: "answer_p99_us", 0.999: "answer_p999_us"}[q]
        return median([num(r, key) for r in reps])
    rounds = zip(*(r["round_latency_us"] for r in reps))
    return weighted_quantile(
        zip(map(statistics.median, rounds), reps[0]["round_changes"]), q)


def cpu_us_per_change(r):
    return ratio(num(r, "cpu_s") * 1e6, num(r, "changes_window"))


def end_to_end(reps, setup_samples):
    plain = [r for r in reps if r["mode"] == "plain"]
    return {
        "setup_s": median(setup_samples),
        "changes_per_sec": median([window_rate(r) for r in plain]),
        "cpu_us_per_change": median([cpu_us_per_change(r) for r in plain]),
        "peak_rss_mb": median([num(r, "peak_rss_mb") for r in plain]),
        "amortized_rounds": median([num(r, "amortized") for r in plain]),
        "answer_p50_us": answer_quantile(plain, 0.5),
        "answer_p90_us": answer_quantile(plain, 0.9),
        "ok_fraction": ratio(sum(num(r, "ok") for r in plain),
                             sum(num(r, "due") for r in plain)),
    }


def per_layer(workload, reps, invalid):
    """Every per-layer metric the workload exercises, from its repetitions;
    the ones it does not exercise read 0."""
    plain = [r for r in reps if r["mode"] == "plain"]
    traced = [r for r in reps if r["mode"] == "traced"]
    lanes = [r for r in reps if r["mode"] == "lanes"]
    values = {}
    for name, _, field in PER_LAYER:
        if field is not None:
            values[name] = median([num(r, field) for r in traced])
    values["net.ns_per_stepped_node"] = median(
        [ratio(num(r, "step_s") * 1e9, num(r, "stepped_nodes"))
         for r in traced])
    values["serve.rounds_per_sec"] = median(
        [ratio(num(r, "window_rounds"), num(r, "window_s")) for r in traced])
    values["serve.answer_p99_us"] = answer_quantile(traced, 0.99)
    values["serve.answer_p999_us"] = answer_quantile(traced, 0.999)
    values["serve.invalid_reps"] = invalid
    values["oracle.audit_s"] = median(
        [num(r, "audit_s") for r in reps if "audit" in r])
    seq_rate = median([window_rate(r) for r in plain])
    traced_rate = median([window_rate(r) for r in traced])
    values["net.lanes.speedup"] = ratio(
        median([window_rate(r) for r in lanes]), seq_rate)
    values["net.lanes.cpu_us_per_change"] = median(
        [cpu_us_per_change(r) for r in lanes])
    values["net.lanes.busy_max_over_mean"] = median(
        [num(r, "lanes_busy_max_over_mean") for r in lanes])
    values["net.lanes.barrier_wait_s"] = median(
        [num(r, "lanes_barrier_wait_s") for r in lanes])
    values["telemetry.overhead_pct"] = (ratio(seq_rate, traced_rate) - 1) * 100
    for name in NOT_EXERCISED[workload]:
        values[name] = 0.0
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")

    started = time.monotonic()
    binary = build()
    log(f"built in {time.monotonic() - started:.1f} s: {binary}")

    checks = Checks()
    modes = ["plain", "traced", "lanes"] if args.trace else ["plain"]
    # Setup-only repetitions first: they also absorb whatever disturbance
    # the machine shows right after the process starts.
    setup_samples = [
        rep(binary, args.workload, args.seed, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - MIN_REPS)]
    reps, invalid = run_reps(binary, args.workload, args.seed, args.seconds,
                             modes)
    for r in reps:
        check_rep(r, checks)
    checks.expect(any("audit" in r for r in reps),
                  f"{args.workload}: no repetition was audited")
    setup_samples += [r["setup_s"] for r in reps if r["mode"] == "plain"]

    prints = {fingerprint(r) for r in reps}
    checks.expect(len(prints) == 1,
                  f"{args.workload}: repetitions of one seed did different "
                  f"work: {sorted(map(str, prints))}")
    first = reps[0] if reps else {}
    print(f"fingerprint workload={args.workload} seed={args.seed} "
          f"changes={first.get('changes_total', 0):.0f} "
          f"batches={first.get('fingerprint')} "
          f"queries={first.get('query_fingerprint', '-')}")
    print(f"repetitions={len(reps)} modes={','.join(r['mode'] for r in reps)}"
          f" invalid={invalid} setup_samples={len(setup_samples)}")

    if args.trace:
        traced = [r for r in reps if r["mode"] == "traced"]
        print(f"net.step_us_tail is the p"
              f"{100 * median([num(r, 'step_tail_q') for r in traced]):.2f}"
              f" of {median([num(r, 'step_rounds') for r in traced]):.0f}"
              " rounds")
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = per_layer(args.workload, reps, invalid)
    else:
        units = dict(END_TO_END)
        values = end_to_end(reps, setup_samples)
    for name in units:
        if not math.isfinite(values[name]):
            checks.expect(False, f"metric {name} missing or not a number")
            values[name] = None
    # Missing counts already failed check_rep; they print as 0 here.
    plain = [r for r in reps if r["mode"] == "plain"]
    attempted = sum(num(r, "due") for r in plain)
    failed = attempted - sum(num(r, "ok") for r in plain)
    result = {
        "correct": not checks.failures,
        "attempted": max(whole(attempted), 1),
        "failed": whole(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    log(f"total {time.monotonic() - started:.1f} s")
    print(json.dumps(result), flush=True)
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        log(f"perfbench: {exc}")
        sys.exit(2)
