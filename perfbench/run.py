#!/usr/bin/env python3
"""One run of the SpecHD end-to-end serving benchmark.

    python3 perfbench/run.py --workload wide|skewed --seed N --seconds S --trace 0|1

Builds the perfbench executable (the spechd library plus perfbench.cpp) into
.bench_build/ at the repository root -- reused by later runs -- then runs it
and prints its result object as the last line of standard output. Build
logs and progress go to standard error. Exits non-zero, printing no result,
when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BENCH = os.path.join(BUILD_DIR, "perfbench")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
RUN_TIMEOUT_S = 170


def build():
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["wide", "skewed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # Temporary files of the compiler and the benchmark stay in the checkout.
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", TMP_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
