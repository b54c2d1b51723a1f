#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload tenants_2k --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-check

The build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
checkout. The last line of standard output is the run's JSON result;
build logs and diagnostics go to standard error. --self-check runs
every workload at reduced size, traced and untraced, and checks that
each printed metric name and unit matches BENCHMARK.json and that each
run reports its operations attempted and failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed")
            return None
    return os.path.join(bdir, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, small, timeout):
    """Runs one workload; returns the parsed result or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: result has keys {sorted(result)}")
        return None
    return result


def self_check(binary, started):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        log("BENCHMARK.json is missing")
        return 1
    with open(path) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            left = DEADLINE_S - (time.monotonic() - started)
            result = run_binary(binary, workload, 1, 1, trace, True, left)
            where = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{where}: no result")
                continue
            if result["correct"] is not True:
                problems.append(f"{where}: outputs incorrect")
            for key in ("attempted", "failed"):
                if not isinstance(result[key], int) or result[key] < 0:
                    problems.append(f"{where}: bad {key}")
            if result["attempted"] < 1:
                problems.append(f"{where}: attempted nothing")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got.keys() & expected[trace].keys()
                               if got[k] != expected[trace][k])
                problems.append(f"{where}: metrics missing {missing}, "
                                f"unexpected {extra}, wrong unit {wrong}")
            log(f"{where}: attempted {result['attempted']}, "
                f"failed {result['failed']}")
    for p in problems:
        log(p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    started = time.monotonic()

    binary = build()
    if binary is None:
        return 1
    if args.self_check:
        return self_check(binary, started)
    if not args.workload:
        parser.error("--workload is required")
    # The binary repeats whole rounds until --seconds have passed; one
    # round can run past that, so leave room under the deadline.
    left = DEADLINE_S - (time.monotonic() - started)
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace, False, left)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
