#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. The harness is built from source with
`cargo build --release --offline` into $CARGO_TARGET_DIR (default
perfbench/target). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.

A traced run also checks that the deterministic counts repeat: the first
traced run of a (workload, seed, harness binary) records them under the
target directory, and every later one must match them exactly, or the run
is reported as not correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["corpus-cold", "edit-serve", "join-chain", "warm-restart"]
# The counts that must repeat exactly; the harness checks the same list
# between the traced passes of one run (`Counts::deterministic`).
DETERMINISTIC = [
    "core.constraints",
    "core.bundles",
    "smt.queries",
    "absint.discharged",
    "smt.sat_rounds",
    "smt.theory_conflicts",
    "liquid.fixpoint_iters",
]


def build(target):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: building the benchmark harness failed")
    return os.path.join(target, "release", "rsc_perfbench")


def run_one(exe, target, workload, seed, seconds, trace):
    """Runs one workload; returns the result object (None if the harness failed)."""
    work_dir = os.path.join(target, "perfbench-work")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if trace:
        check_counts(exe, target, workload, seed, result)
    return result


def check_counts(exe, target, workload, seed, result):
    """Marks the result not correct if its counts drift from an earlier run."""
    with open(exe, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    counts = {k: result["metrics"][k]["value"] for k in DETERMINISTIC}
    record_dir = os.path.join(target, "perfbench-counts")
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir, f"{workload}-{seed}-{binary}.json")
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(counts, f)
        return
    with open(path) as f:
        recorded = json.load(f)
    drift = {k: (recorded.get(k), v) for k, v in counts.items() if recorded.get(k) != v}
    if drift:
        print(f"run.py: count drift against {path}: {drift}", file=sys.stderr)
        result["correct"] = False


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = build(target)
    if args.workload != "all":
        result = run_one(exe, target, args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            sys.exit(1)
        print(json.dumps(result))
        return

    # Every workload, one process each; one table row per metric.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(exe, target, workload, args.seed, args.seconds, args.trace)
        if result is None:
            sys.exit(1)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        print(f"{workload}: failed_share {result['failed'] / result['attempted']:.4f} "
              f"({result['failed']} of {result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"  {name:28} {m['value']:14.4f} {m['unit']}")
            merged["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
