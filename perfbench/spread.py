#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

    python3 perfbench/spread.py --workload plant --seeds 1-10 --seconds 15

Spread is (Q3 - Q1) / median over the runs, with the quartiles that
statistics.quantiles(values, n=4) gives. Runs are sequential; a run that
fails or prints no result line stops the script.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="15")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0 or not result or not result["correct"]:
            print(proc.stdout)
            sys.exit(f"seed {seed}: run failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"{'metric':36} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
