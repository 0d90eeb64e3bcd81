#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload fresh_closed --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Everything the run leaves
behind (build tree, trained model, spans) goes under .bench_build/perfbench/.
The exit status is non-zero, with no result line, when the build fails or any
correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def source_hash():
    """SHA-1 over the library sources and the benchmark, path and content."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, REPO_ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "--short=12", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "none"


def build(build_dir):
    """Configures once, then builds the benchmark target (a no-op when fresh)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fresh_closed", "market_open", "upload_closed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="small pool and short warm-up; for tests, not for numbers")
    parser.add_argument("--flip-reference", action="store_true",
                        help="corrupt one reference verdict; the run must then fail")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing")
    os.chdir(REPO_ROOT)
    try:
        binary = build(os.path.join(OUT_DIR, "build"))
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    hash_ = source_hash()
    env = dict(os.environ, APICHECKER_LOG_LEVEL="error", APICHECKER_GIT_REV=git_rev(),
               PERFBENCH_SOURCE_HASH=hash_)
    # The model is an input, trained once per source tree and never reused
    # across a source change.
    model = os.path.join(OUT_DIR, f"model-{hash_}.bin")
    if not os.path.exists(model):
        subprocess.run([binary, "--train-model", model], env=env, stdout=sys.stderr,
                       check=True, timeout=RUN_TIMEOUT_S)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--model", model,
               "--work-dir", os.path.join(OUT_DIR, "work", args.workload)]
    if args.smoke:
        command.append("--smoke")
    if args.flip_reference:
        command.append("--flip-reference")
    try:
        result = subprocess.run(command, env=env, check=False, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
