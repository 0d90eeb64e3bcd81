#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/repeat.py --workload market_open --seeds 1-10 --out runs/base

Saves every run's standard output as OUT/<workload>-s<seed>-t<trace>.out
(the input of compare.py) and prints, per metric, the median, the quartiles
and the spread (quartile distance over median) against the metric's bound.
"""

import argparse
import json
import os
import subprocess
import sys

from compare import BENCH_DIR, REPO_ROOT, load_runs, load_spec, quartiles, spread


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for seed in args.seeds:
        result = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace],
            cwd=REPO_ROOT, capture_output=True, text=True, check=False)
        with open(os.path.join(args.out, f"{args.workload}-s{seed}-t{args.trace}.out"), "w") as f:
            f.write(result.stdout)
        if result.returncode != 0:
            sys.exit(f"seed {seed} failed (exit {result.returncode}):\n{result.stderr}")
        print(f"seed {seed}: {result.stdout.strip().splitlines()[-1]}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in load_spec()["end_to_end"]}
    runs = load_runs(args.out, trace=int(args.trace)).get(args.workload, {})
    for name, values in runs.items():
        q1, median, q3 = quartiles(values)
        bound = bounds.get(name)
        note = "" if bound is None else \
            f"  bound {bound:.0%}, spread/bound {spread(values) / bound:.2f}"
        print(f"{name:<30} median {median:<12.6g} [{q1:.6g}, {q3:.6g}] "
              f"spread {spread(values):.2%}{note}")


if __name__ == "__main__":
    main()
