#!/usr/bin/env python3
"""Repository benchmark: serve a seeded PUSCH slot trace through puschd's
serving stacks and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the Go worker in this
directory (perfbench/), prepares the workload's inputs from the seed,
then starts one fresh worker process per measured serve until the time
budget is spent and reports medians over those serves. Each serve's
host times are scaled by the box's speed, timed with a fixed reference
task just before and after the serve. With --trace 1
it alternates untraced and traced serves and reports the per-layer
metrics instead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any correctness
violation makes the exit code non-zero. See README.md for the workloads
and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ("cold-mempool-mix", "cold-terapool-fleet", "fastpath-replay")

# Every run measures at least this many serves, even past the budget;
# beyond that, a serve starts only if it is expected to end in time.
MIN_REPS = 3
MIN_TRACED_PAIRS = 1
BUILD_TIMEOUT_S = 800
REP_TIMEOUT_S = 150

# The host-time metrics are scaled to a box on which the worker's speed
# reference task (speedref.go) takes this long; see README.md.
REF_NOMINAL_S = 0.1


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    """Keep every file the Go toolchain writes inside the checkout."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def build():
    for need in ("go.mod", os.path.join("internal", "sched"), os.path.join("testdata", "calibration.json")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("repository sources missing next to the benchmark (%s); run from a full checkout" % need)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=go_env(), check=True, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except (OSError, subprocess.SubprocessError) as err:
        die("building the worker failed: %s" % err)


def worker(*args):
    """Run the worker from the repository root; return its JSON line."""
    try:
        proc = subprocess.run(
            [BINARY] + [str(a) for a in args],
            cwd=ROOT, check=True, timeout=REP_TIMEOUT_S,
            stdout=subprocess.PIPE, text=True,
        )
    except (OSError, subprocess.SubprocessError) as err:
        die("worker %s failed: %s" % (args[0], err))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference():
    """Time the worker's fixed speed reference task, in seconds."""
    return worker("ref")["ref_s"]


def metric(value, unit):
    return {"value": value, "unit": unit}


class Gate:
    """Counts jobs attempted and failed, and correctness violations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.digest = None
        self.sim = None

    def add(self, rep):
        self.attempted += rep["jobs"]
        self.failed += rep["failed"] + rep["violations"]
        self.messages += rep.get("messages", [])
        sim = (rep["sim_latency_p50_cycles"], rep["sim_latency_p90_cycles"], rep["sim_served_gbps"])
        if self.digest is None:
            self.digest, self.sim = rep["digest"], sim
        elif rep["digest"] != self.digest or sim != self.sim:
            # The same trace must serve to the same bytes every time.
            self.failed += rep["jobs"]
            self.messages.append("output differs between serves of one trace")

    @property
    def correct(self):
        return self.failed == 0 and self.attempted > 0

    @property
    def failed_jobs(self):
        # Several violations can hit one job; never report more failures
        # than jobs attempted.
        return min(self.failed, self.attempted)


class Budget:
    """Decides whether another serve fits in the run's time budget."""

    def __init__(self, seconds, minimum):
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.minimum = minimum
        self.done = 0

    def more(self):
        now = time.monotonic()
        if self.done < self.minimum:
            return True
        return now + (now - self.start) / self.done <= self.deadline

    def tick(self):
        self.done += 1


def measure(args, run_dir):
    gate = Gate()
    reps = []
    budget = Budget(args.seconds, MIN_REPS)
    before = reference()
    while budget.more():
        rep = worker("serve", "-dir", run_dir)
        after = reference()
        # The box's speed during the serve, relative to nominal.
        rep["speed"] = REF_NOMINAL_S / ((before + after) / 2)
        before = after
        gate.add(rep)
        reps.append(rep)
        budget.tick()
    rates = sorted(r["slots_per_s"] for r in reps)
    speeds = sorted(r["speed"] for r in reps)
    print("perfbench: %d serves of %d jobs, slots/s min %.4g median %.4g max %.4g; box speed %.3g-%.3g of nominal"
          % (len(reps), reps[0]["jobs"], rates[0], statistics.median(rates), rates[-1], speeds[0], speeds[-1]),
          file=sys.stderr)
    med = lambda key: statistics.median(r[key] for r in reps)
    p50, p90, gbps = gate.sim
    metrics = {
        "slots_per_s": metric(statistics.median(r["slots_per_s"] / r["speed"] for r in reps), "slots/s"),
        "setup_s": metric(statistics.median(r["setup_s"] * r["speed"] for r in reps), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        "ok_frac": metric(1 - gate.failed_jobs / gate.attempted, "ratio"),
        "sim_latency_p50_cycles": metric(p50, "cycles"),
        "sim_latency_p90_cycles": metric(p90, "cycles"),
        "sim_served_gbps": metric(gbps, "Gb/s"),
    }
    return gate, metrics


def trace(args, run_dir):
    gate = Gate()
    untraced, traced = [], []
    ref_stream = os.path.join(run_dir, "reference.jsonl")
    budget = Budget(args.seconds, MIN_TRACED_PAIRS)
    while budget.more():
        rep = worker("serve", "-dir", run_dir)
        gate.add(rep)
        untraced.append(rep)
        if not os.path.exists(ref_stream):
            os.replace(os.path.join(run_dir, "out.jsonl"), ref_stream)
        rep = worker("traced", "-dir", run_dir)
        gate.attempted += rep["jobs"]
        gate.failed += rep["violations"]
        gate.messages += rep.get("messages", [])
        traced.append(rep)
        budget.tick()
    metrics = {}
    for name in traced[0]["layers"]:
        value = statistics.median(r["layers"][name]["value"] for r in traced)
        metrics[name] = metric(value, traced[0]["layers"][name]["unit"])
    last = untraced[-1]
    gets = last["pool_gets"]
    metrics["engine.pool_builds"] = metric(last["pool_builds"], "count")
    metrics["engine.pool_reuse_ratio"] = metric(last["pool_reuses"] / gets if gets else 0.0, "ratio")
    lookups = last["cache_hits"] + last["cache_misses"]
    metrics["timecache.hit_rate"] = metric(last["cache_hits"] / lookups if lookups else 0.0, "ratio")
    plain = statistics.median(r["slots_per_s"] for r in untraced)
    with_spans = statistics.median(r["traced_slots_per_s"] for r in traced)
    metrics["trace_overhead_frac"] = metric(1 - with_spans / plain, "ratio")
    metrics["host.raw_slots_per_s"] = metric(plain, "slots/s")
    metrics["host.ref_s"] = metric(reference(), "s")
    spans = os.path.join(run_dir, "spans.jsonl")
    if os.path.exists(spans):
        keep = os.path.join(BUILD, "spans", "%s-seed%d.jsonl" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(keep), exist_ok=True)
        os.replace(spans, keep)
        print("perfbench: spans written to %s" % os.path.relpath(keep, ROOT), file=sys.stderr)
    return gate, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    run_dir = os.path.join(BUILD, "runs", "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        worker("prep", "-workload", args.workload, "-seed", args.seed, "-dir", run_dir)
        gate, metrics = (trace if args.trace else measure)(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for msg in gate.messages[:20]:
        print("perfbench: violation: " + msg, file=sys.stderr)
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed_jobs,
        "metrics": metrics,
    }))
    sys.exit(0 if gate.correct else 1)


if __name__ == "__main__":
    main()
