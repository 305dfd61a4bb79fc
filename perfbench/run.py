#!/usr/bin/env python3
"""Builds and runs the kgrec serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and compiles the library sources under src/ plus
the benchmark program into .bench_build/perfbench (or $CARGO_TARGET_DIR/
perfbench when that is set); later runs rebuild incrementally. The build
log goes to stderr. The program's stdout is passed through; its last line
is the JSON result. Exits non-zero, printing no result, when the build or
the run fails, BENCHMARK.json cannot be read, or the result does not
list exactly the metrics that BENCHMARK.json declares for the mode.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840
BUILD_JOBS = 4


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds serve_bench; returns its path or None."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "serve_bench",
                      "-j", str(BUILD_JOBS)])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                print(f"run.py: build step failed: {e}", file=sys.stderr)
                return None
            if done.returncode != 0:
                print(f"run.py: build step failed: {' '.join(step)}",
                      file=sys.stderr)
                return None
    binary = os.path.join(out_dir, "serve_bench")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """Metric names -> units BENCHMARK.json declares for this mode.

    Raises ValueError when BENCHMARK.json cannot be read or lacks the list.
    """
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
        key = "per_layer" if trace else "end_to_end"
        return {m["name"]: m["unit"] for m in spec[key]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ValueError(f"cannot read metric list from {path}: {e!r}")


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected result keys"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}"
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    try:
        expected = expected_metrics(args.trace == "1")
    except ValueError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", os.path.join(out_dir, "run")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print(f"run.py: benchmark exited with {done.returncode}", file=sys.stderr)
        return 1
    problem = check_result(lines[-1], expected)
    if problem is not None:
        sys.stderr.write(done.stdout)
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
