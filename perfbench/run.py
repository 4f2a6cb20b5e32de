#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built under .bench_build/perfbench (CMake, Ninja when present)
on first use. Its human-readable tables pass through to stdout; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end set of
BENCHMARK.json, with --trace 1 the per_layer set. The exit code is nonzero
when the build fails, a correctness check fails, or a metric is missing.

An untraced run splits its time over several perfbench processes run one after
another and reports each metric's median over them. The same work runs up to
25% faster or slower from one process to the next (memory layout and
placement on a shared host), so a single process per run would measure the
process as much as the program.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RESULT_PREFIX = "PERFBENCH_RESULT "
# Wall-clock limit for all perfbench processes of one run, build excluded.
RUN_TIMEOUT_S = 170
# perfbench processes per untraced run; a traced run uses one.
PROCESSES = {"sim_churn_exact": 16, "service_open_loop": 5}
# Metrics that every process of a work-bounded workload must reproduce
# exactly; a difference means the solves depend on timing after all.
IDENTICAL = {"sim_churn_exact": ("slo_attainment_pct", "be_latency_s")}


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; build logs go to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", BUILD_DIR, "--parallel", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args, seconds, deadline):
    """Runs one perfbench process; echoes its tables and returns its result."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{seconds:.3f}", "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    result = None
    for line in run.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None:
        fail(f"perfbench exited with code {run.returncode} and no result")
    result["correct"] = result["correct"] and run.returncode == 0
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    processes = 1 if args.trace else PROCESSES[args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = [run_binary(args, args.seconds / processes, deadline)
               for _ in range(processes)]

    correct = all(result["correct"] for result in results)
    for name in () if args.trace else IDENTICAL.get(args.workload, ()):
        if len({result["metrics"][name]["value"] for result in results}) > 1:
            print(f"perfbench/run.py: {name} differs between processes of a "
                  "work-bounded workload", file=sys.stderr)
            correct = False
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        values = []
        for result in results:
            measured = result["metrics"].get(name)
            if measured is None:
                fail(f"perfbench did not report {name}")
            if measured["unit"] != metric["unit"]:
                fail(f"{name} measured in {measured['unit']}, "
                     f"BENCHMARK.json says {metric['unit']}")
            values.append(measured["value"])
        value = statistics.median(values)
        if not args.trace and not (math.isfinite(value) and value > 0):
            print(f"perfbench/run.py: end-to-end metric {name} = {value} is "
                  "not a positive number", file=sys.stderr)
            correct = False
        metrics[name] = {"value": value, "unit": metric["unit"]}

    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
