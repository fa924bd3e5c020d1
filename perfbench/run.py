#!/usr/bin/env python3
"""Builds and runs the framework benchmark.

    python3 perfbench/run.py --workload fleet-quiet|serve-faults|decide-1k \
        --seed N --seconds S --trace 0|1

`--workload all` runs the three in turn and prints each one's report.

Run from the repository root. The first run configures and builds a
Release copy of the framework plus the benchmark under .bench_build/; later
runs only rebuild what changed. Build output goes to stderr, the
benchmark's report to stdout, ending in one JSON result line. The result is
checked against BENCHMARK.json (every metric of the mode, by name and unit)
before it is passed on; any failure exits non-zero without a result.
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
WORKLOADS = ("fleet-quiet", "serve-faults", "decide-1k")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """(name, unit) pairs the mode must report, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are not correct/attempted/failed/metrics")
    if result["attempted"] < 1 or result["failed"] < 0:
        fail("bad attempted/failed counts")
    expected = expected_metrics(trace)
    if expected is not None:
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        if sorted(got) != sorted(expected):
            fail("reported metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(expected) - set(got))}, "
                 f"extra {sorted(set(got) - set(expected))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run(workload, args)


def run(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
