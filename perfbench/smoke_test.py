#!/usr/bin/env python3
"""The benchmark's own test: a seconds-long smoke run of every workload.

    python3 perfbench/smoke_test.py

Checks, against BENCHMARK.json, that an untraced run prints exactly the
end-to-end metrics and a traced run exactly the per-layer metrics, each with
its declared unit; that every run passes the correctness gate; and that a run
whose reference verdicts were corrupted fails without printing a result.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, check=False)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            parsed = last_json(result.stdout)
            if result.returncode != 0 or parsed is None:
                errors.append(f"{label}: exit {result.returncode}\n{result.stderr}")
                continue
            if sorted(parsed) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{label}: result keys {sorted(parsed)}")
            if parsed.get("correct") is not True or parsed.get("attempted", 0) < 1:
                errors.append(f"{label}: not correct or nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: entry["unit"] for name, entry in parsed["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics/units differ from BENCHMARK.json "
                              f"(missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, "
                              f"units {[n for n in want if n in got and got[n] != want[n]]})")
            print(f"ok   {label}: {len(got)} metrics, attempted {parsed['attempted']}",
                  flush=True)

    gate = run("fresh_closed", 0, "--flip-reference")
    if gate.returncode == 0 or last_json(gate.stdout) is not None:
        errors.append("a corrupted reference verdict did not fail the run")
    else:
        print("ok   correctness gate rejects a wrong verdict")

    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
