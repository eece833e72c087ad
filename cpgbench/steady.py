#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics on one workload.

    python3 cpgbench/steady.py --workload build_mixed --runs 10 --first-seed 1

Runs `cpgbench/run.py` once per seed, on consecutive seeds, one run at a
time. For each end-to-end metric of BENCHMARK.json it prints the median,
the quartiles (`statistics.quantiles(values, n=4)`) and (Q3 - Q1) / median
beside the metric's bound. For each run it prints attempted/failed and the
host's steal seconds during the run (from /proc/stat), so that a noisy
host can be told apart from a noisy program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import steal_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {name: [] for name in bounds}
    print(f"{'seed':>5} {'attempted':>9} {'failed':>6} {'correct':>7} {'wall_s':>7} {'steal_s':>7}")
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        s0, t0 = steal_s(), time.perf_counter()
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall, steal = time.perf_counter() - t0, steal_s() - s0
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"{seed:>5} run failed (exit {p.returncode}):\n{p.stderr[-2000:]}")
            return 1
        r = json.loads(lines[-1])
        print(
            f"{seed:>5} {r['attempted']:>9} {r['failed']:>6} {str(r['correct']):>7}"
            f" {wall:>7.1f} {steal:>7.1f}",
            flush=True,
        )
        for name in bounds:
            values[name].append(r["metrics"][name]["value"])
        print("      " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    print(f"\n{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>7.3f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
