#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the captured standard output of runs, one file per run
(*.out, as perfbench/repeat.py writes them). Only untraced runs are compared,
on the end-to-end metrics of BENCHMARK.json. For each side the row shows the
median and the quartiles (statistics.quantiles, n=4). A metric whose median
worsens by more than its bound is flagged REGRESSION. When either side's
spread (quartile distance over median) exceeds the bound the row reads
"unresolved", unless every new run is better than every base run.
Exits 1 when any row is a regression.
"""

import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(text):
    """Returns (run info, result) from one run's standard output, or None."""
    lines = text.strip().splitlines()
    info = next((json.loads(line[len("run: "):]) for line in lines if line.startswith("run: ")),
                None)
    if info is None or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return info, result


def load_runs(directory, trace=0):
    """{workload: {metric: [values]}} over the untraced (or traced) runs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(directory, name)) as f:
            parsed = parse_run(f.read())
        if parsed is None or parsed[0].get("trace") != trace:
            continue
        info, result = parsed
        per_metric = runs.setdefault(info["workload"], {})
        for metric, entry in result["metrics"].items():
            per_metric.setdefault(metric, []).append(entry["value"])
    return runs


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(base, new, better):
    """Relative worsening of `new` against `base` (negative = improvement)."""
    if base == 0:
        return 0.0
    change = (new - base) / base
    return -change if better == "higher" else change


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = load_spec()
    base, new = load_runs(argv[1]), load_runs(argv[2])
    regressions = 0
    header = f"{'workload':<14} {'metric':<20} {'base median [q1, q3]':>34} " \
             f"{'new median [q1, q3]':>34} {'change':>8}  verdict"
    print(header)
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            a, b = base[workload].get(name), new[workload].get(name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = worse_by(qa[1], qb[1], better)
            if better == "higher":
                all_better = min(b) > max(a)
            else:
                all_better = max(b) < min(a)
            if max(spread(a), spread(b)) > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif all_better:
                verdict = "better in every run"
            else:
                verdict = "within bound"
            print(f"{workload:<14} {name:<20} "
                  f"{qa[1]:>12.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(70) +
                  f"{qb[1]:>12.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(36) +
                  f"{-change * 100:>+7.1f}%  {verdict} (bound {bound:.0%})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
