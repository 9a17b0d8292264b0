#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the repository's libraries from src/ plus the
perfbench program) as a Release build under .bench_build/perfbench, then runs
the program once.  It prints per-metric lines and, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}; this script
checks that object and prints it again as the last line of its own output.
The exit code is non-zero when the build fails, an output check fails, or
the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))
WORKLOADS = ("serve_steady", "serve_faulted", "serve_persist", "paper_suite")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the program; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: src/CMakeLists.txt not found; run from the root of "
              "a full checkout", file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", JOBS],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    """Metric name -> unit the run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(result, expected):
    if not isinstance(result, dict):
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return False
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        return False
    return result["attempted"] >= 1 and all(
        metrics[name]["unit"] == unit for name, unit in expected.items())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not valid_result(result, expected_metrics(args.trace)):
        print("perfbench: the program printed no valid result (exit %d)"
              % done.returncode, file=sys.stderr)
        return 1
    print(json.dumps(result))
    if done.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
