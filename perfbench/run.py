#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds perfbench/ (and the libraries under src/) from source into
.bench_build/ at the root of the checkout, runs the helper self-tests,
then runs the driver with every DWM_* environment knob cleared. The last
line of stdout is the driver's JSON result, after checking that it carries
exactly the metrics BENCHMARK.json lists for this mode. Build output and
progress go to stderr. Any failure exits non-zero without a result.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("DWM_")}


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=clean_env()).returncode != 0:
            fail("build failed: " + " ".join(step))


def check_result(line, spec, trace):
    """Returns the parsed result if it matches the contract, else fails."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last stdout line is not JSON: " + line[:200])
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result must have exactly correct, attempted, failed, metrics")
    if not isinstance(result["correct"], bool):
        fail("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            fail(key + " must be a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        fail("need attempted >= 1 and 0 <= failed <= attempted")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(wanted):
        got = set(metrics) if isinstance(metrics, dict) else set()
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(wanted) - got), sorted(got - set(wanted))))
    for name, unit in wanted.items():
        entry = metrics[name]
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"} or \
                entry["unit"] != unit or \
                not isinstance(entry["value"], (int, float)) or \
                isinstance(entry["value"], bool):
            fail("metric %s must be {value: number, unit: %s}" % (name, unit))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)

    build()
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              env=clean_env())
    if selftest.returncode != 0:
        fail("helper self-tests failed")

    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=clean_env(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    check_result(lines[-1], spec, args.trace == 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
