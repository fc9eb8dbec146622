#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The first run configures and builds
perfbench/ (the kR^X libraries plus the krx_perfbench binary) with CMake
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs only rebuild what changed. Build output goes to stderr.

The human-readable summary krx_perfbench prints is passed through; its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}, is checked
against BENCHMARK.json (every end_to_end metric with --trace 0, every
per_layer metric with --trace 1) and printed last. The exit code is 0 only
when the build succeeded, every correctness check passed and the metrics
are complete.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no kR^X sources next to perfbench/ (expected src/CMakeLists.txt)")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, target)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns (result, problems) for krx_perfbench's last stdout line."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("unexpected result keys %s" % sorted(result))
        return result, problems
    want = expected_metrics(trace)
    if want is not None:
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
            problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                            "unit mismatch %s" % (missing, extra, units))
    return result, problems


def run_workload(args):
    binary = build("krx_perfbench")
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if timed_out.is_set():
        log("perfbench: workload killed after %d s" % RUN_TIMEOUT_S)
        return 1
    if last is None:
        log("perfbench: krx_perfbench printed nothing (exit %d)" % proc.returncode)
        return 1
    result, problems = check_result(last, args.trace == 1)
    if result is None:
        print(last, flush=True)
        log("perfbench: " + problems[0])
        return 1
    for p in problems:
        log("perfbench: " + p)
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["exec-matrix", "build-churn", "rerand-live",
                                               "serve-open"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the self-test of the benchmark's helpers")
    args = parser.parse_args()
    if args.self_test:
        binary = build("perfbench_selftest")
        return 2 if binary is None else subprocess.run([binary], cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
