#!/usr/bin/env python3
"""Gate cold-check solver performance against a committed baseline.

Usage:
    python3 scripts/check_solver_perf.py BASELINE.json CURRENT.json [--max-regress 0.20]

Both files are BENCH_cold.json shapes (see crates/bench/src/bin/bench_cold.rs).
The gate compares the `solve` phase time of every benchmark present in both
files and fails when the *geomean* ratio current/baseline exceeds
1 + max-regress (default: a 20% regression). Per-benchmark noise is expected
on shared CI runners; the geomean over the 7-program corpus is stable enough
to catch real solver-path regressions without flaking on one noisy sample.

It also gates the `smt_queries` count per benchmark: unlike wall time,
query counts are fully deterministic, so any single benchmark issuing more
than 1 + max-query-regress (default 10%) times its baseline queries fails —
that is the solver's theory-only path (or its query strategy) losing
ground, not runner noise. `smt_queries` counts the fixpoint's validity
questions that took the full VC-cache/DPLL(T) path; the ones answered by
one theory check are reported separately as `discharged`.
"""

import argparse
import json
import math
import sys


def solve_us(bench: dict) -> int | None:
    for p in bench.get("phases", []):
        if p.get("name") == "solve":
            return p.get("total_us")
    return None


def load(path: str) -> tuple[dict, dict]:
    with open(path) as f:
        data = json.load(f)
    times, queries = {}, {}
    for b in data.get("benchmarks", []):
        us = solve_us(b)
        if us:
            times[b["name"]] = us
        q = b.get("smt_queries")
        if q is not None:
            queries[b["name"]] = q
    return times, queries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--max-regress",
        type=float,
        default=0.20,
        help="maximum tolerated geomean slowdown (0.20 = 20%%)",
    )
    ap.add_argument(
        "--max-query-regress",
        type=float,
        default=0.10,
        help="maximum tolerated per-benchmark smt_queries growth (0.10 = 10%%)",
    )
    args = ap.parse_args()

    base, base_q = load(args.baseline)
    cur, cur_q = load(args.current)
    common = sorted(set(base) & set(cur))
    if not common:
        print("check_solver_perf: no common benchmarks between files", file=sys.stderr)
        return 2

    ratios = []
    for name in common:
        r = cur[name] / base[name]
        ratios.append(r)
        print(
            f"check_solver_perf: {name:14s} "
            f"base={base[name] / 1000:8.1f}ms cur={cur[name] / 1000:8.1f}ms "
            f"ratio={r:5.2f}"
        )
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    limit = 1.0 + args.max_regress
    time_ok = geomean <= limit
    print(
        f"check_solver_perf: geomean ratio {geomean:.3f} "
        f"(limit {limit:.2f}) over {len(common)} benchmarks: "
        f"{'PASS' if time_ok else 'FAIL'}"
    )

    # Query-count gate: deterministic, so per-benchmark with no geomean
    # smoothing. Old baselines without smt_queries skip the gate.
    queries_ok = True
    q_limit = 1.0 + args.max_query_regress
    for name in sorted(set(base_q) & set(cur_q)):
        if base_q[name] == 0:
            continue
        r = cur_q[name] / base_q[name]
        ok = r <= q_limit
        queries_ok = queries_ok and ok
        print(
            f"check_solver_perf: {name:14s} "
            f"queries base={base_q[name]:6d} cur={cur_q[name]:6d} "
            f"ratio={r:5.2f}{'' if ok else '  FAIL'}"
        )
    if not queries_ok:
        print(
            f"check_solver_perf: smt_queries grew past the {q_limit:.2f}x "
            f"per-benchmark limit"
        )
    return 0 if time_ok and queries_ok else 1


if __name__ == "__main__":
    sys.exit(main())
