#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py --workload serve_steady --runs 10
    python3 perfbench/sweep.py --runs 10 --trace 0 --json out.json

For each workload (all of them unless --workload is given) this runs
perfbench/run.py once per seed (first_seed, first_seed + 1, ...) and prints,
per metric, the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median.  --json writes the same summary, with the raw values,
the git commit (when available), the host's CPU count and the build type.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_steady", "serve_faulted", "serve_persist", "paper_suite")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    summary = {"git_sha": git_sha(), "nproc": os.cpu_count(),
               "build_type": "Release", "seconds": args.seconds,
               "trace": args.trace, "runs": args.runs, "workloads": {}}
    for workload in [args.workload] if args.workload else WORKLOADS:
        per_metric = {}
        units = {}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds,
                              args.trace)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print("%s (%d seeds from %d)" % (workload, args.runs, args.first_seed))
        rows = {}
        for name, values in per_metric.items():
            row = summarise(values)
            row["unit"] = units[name]
            rows[name] = row
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s"
                  % (name, row["median"], row["q1"], row["q3"], row["spread"],
                     row["unit"]))
        summary["workloads"][workload] = rows
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as out:
            json.dump(summary, out, indent=1, sort_keys=True)
            out.write("\n")


if __name__ == "__main__":
    main()
