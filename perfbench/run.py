#!/usr/bin/env python3
"""Repository benchmark: builds the trial binary and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload offline-zoo --seed 1 --seconds 32 --trace 0

Each run starts several trial processes of `perfbench` (the Rust package
next to this file), one after another. Every trial sets the workload up
cold, measures it for its share of `--seconds`, checks every output and
prints its raw results; this script aggregates them. Several processes per
run are needed because the autotuned (kernel, tile) plan is memoized per
process: only a fresh process pays calibration again, so only fresh
processes can measure set-up time, and each may pick another plan.

With `--trace 0` the last line of standard output holds every end-to-end
metric of BENCHMARK.json; with `--trace 1`, every per-layer metric, from
trials that record spans, plus the tracing overhead against trials of the
same run that do not. The exit code is non-zero if any check failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("offline-zoo", "serve-tiny")
# Measuring trial processes per run. serve-tiny gets more, shorter trials:
# how the scheduler places its threads differs per process and moves its
# goodput. Trace runs use one more trial and alternate traced and untraced
# ones.
TRIALS = {"serve-tiny": 5}
# An offline-zoo trial classifies the zoo's images in rounds of about
# 3.5 s on a 2-CPU host, as many as fit its share of the run; a run makes
# one trial per 4 s of its time budget. Many short processes rather than a
# few long ones: each process autotunes its own plan, and a plan other
# than the usual one can run a model twice as slowly, so a run needs many
# processes to hold their mix steady.
OFFLINE_TRIAL_S = 4
# Workloads whose end-to-end figures pool every trial's samples: one or two
# rounds per trial are too few for a median per trial.
POOLED = ("offline-zoo",)
# Extra processes per run that only set up, so set-up time is the median of
# several cold set-ups.
SETUP_ONLY_TRIALS = {"offline-zoo": 4, "serve-tiny": 20}
# Every trial must finish well inside the run's 180 s limit.
TRIAL_TIMEOUT_S = 100
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    binary = os.path.join(target_dir, "release", "acoustic-perfbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def run_trial(binary, args, index, traced, seconds, trace_dir, setup_only=False):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--trial", str(index),
           "--seconds", repr(seconds), "--traced", "1" if traced else "0",
           "--reference", "1" if index == 0 else "0",
           "--setup-only", "1" if setup_only else "0"]
    if traced:
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-trial{index}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"trial {index} timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"trial {index} exited with {done.returncode}")
    trial = json.loads(lines[-1])
    trial["traced"] = traced
    return trial


def percentile(sorted_values, pct):
    """Nearest-rank percentile, as the program's own load generator uses."""
    if not sorted_values:
        return 0.0
    rank = int(-(-pct * len(sorted_values) // 100))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def trial_metrics(t):
    lat = sorted(t["lat_us"])
    return {
        "setup_s": t["setup_s"],
        "images_per_s": t["images"] / t["images_wall_s"] if t["images_wall_s"] > 0 else 0.0,
        "lat_p50_ms": percentile(lat, 50) / 1e3,
        "lat_p90_ms": percentile(lat, 90) / 1e3,
        "rss_peak_mb": t["rss_peak_mb"],
    }


def end_to_end(trials, setups, pooled):
    """Median over trials of each trial's own value, so a trial that the
    host slowed down moves the result less than a mean would. A pooled
    workload instead takes its throughput over the summed wall time of all
    trials and its latency percentiles over all their samples. Set-up time
    is the median over every cold set-up of the run."""
    own = [trial_metrics(t) for t in trials]
    e2e = {name: statistics.median(m[name] for m in own) for name in own[0]}
    if pooled:
        e2e.update(trial_metrics({
            "setup_s": 0.0,
            "images": sum(t["images"] for t in trials),
            "images_wall_s": sum(t["images_wall_s"] for t in trials),
            "lat_us": [v for t in trials for v in t["lat_us"]],
            "rss_peak_mb": e2e["rss_peak_mb"],
        }))
    e2e["setup_s"] = statistics.median(setups)
    return e2e


def per_layer(trials, names):
    values = {}
    for name in names:
        got = [t["layers"][name] for t in trials if name in t["layers"]]
        values[name] = statistics.median(got) if got else 0.0
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive")

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in the working directory: {e}")
    for needed in ("crates", os.path.join("results", "zoo", "manifest.txt")):
        if not os.path.exists(needed):
            fail(f"{needed} is missing; run from the root of a repository checkout")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target_dir)
    trace_dir = os.path.join(target_dir, "perfbench", "trace")

    if args.workload == "offline-zoo":
        count = max(2, round(args.seconds / OFFLINE_TRIAL_S))
    else:
        count = TRIALS[args.workload]
    count += args.trace
    share = args.seconds / count
    started = time.monotonic()
    trials = [run_trial(binary, args, i, args.trace == 1 and i % 2 == 0, share, trace_dir)
              for i in range(count)]
    setups = [run_trial(binary, args, count + i, False, share, trace_dir, setup_only=True)
              for i in range(SETUP_ONLY_TRIALS[args.workload])]
    elapsed = time.monotonic() - started

    problems = [f"trial {i}: {p}" for i, t in enumerate(trials) for p in t["problems"]]
    problems += [f"trial {i}: reported incorrect" for i, t in enumerate(trials)
                 if not t["correct"] and not t["problems"]]
    if len({t["digest"] for t in trials}) > 1:
        problems.append("trials of one seed produced different outputs")
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)

    plain = [t for t in trials if not t["traced"]]
    cold = [t["setup_s"] for t in setups]
    pooled = args.workload in POOLED
    e2e = end_to_end(plain, cold + [t["setup_s"] for t in plain], pooled)
    print(f"workload {args.workload}  seed {args.seed}  trials {count}  "
          f"({elapsed:.1f} s, {share:.2f} s measured per trial)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<14} {e2e[m['name']]:>14.6g} {m['unit']}")
    if pooled:
        p99 = percentile(sorted(v for t in plain for v in t["lat_us"]), 99) / 1e3
    else:
        p99 = statistics.median(percentile(sorted(t["lat_us"]), 99) / 1e3 for t in plain)
    for name, value in (("lat_p90_ms", e2e["lat_p90_ms"]), ("lat_p99_ms", p99)):
        print(f"  {name:<14} {value:>14.6g} ms  (not gated: host interference dominates it)")
    tried = sum(t["attempted"] for t in plain)
    lost = sum(t["failed"] + t["refused"] for t in plain)
    print(f"  {'fail_frac':<14} {lost / tried if tried else 0.0:>14.6g} ratio  "
          f"(attempted {tried}, refused or failed {lost})")
    samples = [len(t["lat_us"]) for t in plain]
    print(f"  latency samples per trial {samples}, set-up samples {len(cold) + len(plain)}")
    for i, t in enumerate(trials):
        own = trial_metrics(t)
        print(f"  trial {i}{' traced' if t['traced'] else ''}: "
              + " ".join(f"{k}={v:.6g}" for k, v in own.items()))
        print("    " + json.dumps(t["provenance"], sort_keys=True))
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    if args.trace:
        traced = [t for t in trials if t["traced"]]
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(traced, names)
        with_spans = end_to_end(traced, [t["setup_s"] for t in traced], pooled)
        for name, base in e2e.items():
            key = f"trace.overhead_pct.{name}"
            if key in values:
                values[key] = (with_spans[name] - base) / base * 100 if base else 0.0
        for name in names:
            print(f"  {name:<36} {values[name]:>14.6g} {units[name]}")
    else:
        values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
