#!/usr/bin/env python3
"""Builds eebench from source, then runs one workload.

Run from the repository root:

    python3 eebench/run.py --workload scan_q1 --seed 1 --seconds 20 --trace 0

The build (engine library + benchmark, Release) lands in .bench_build/eebench
at the repository root and is reused by later runs. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. With
--trace 1 the Chrome trace of the run is written to
.bench_build/eebench-trace-<workload>-<seed>.json.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "eebench")
BINARY = os.path.join(BUILD_DIR, "eebench")
# The benchmark itself must end within 180 s; leave room for teardown.
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "eebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
            stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"eebench: build failed: {err}", file=sys.stderr)
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace_out", os.path.join(
            BUILD_ROOT, f"eebench-trace-{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("eebench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
