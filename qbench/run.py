#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 qbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 qbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark package (qbench/CMakeLists.txt, which compiles the system from
src/) into .bench_build/; later calls rebuild incrementally. The last line of
stdout is the run's JSON result. Traced runs also write their spans to
.bench_build/traces/<workload>-<seed>.json. The exit code is 0 only when the
build succeeded and every output check of the run passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "qbench")
BUILD = os.path.join(ROOT, ".bench_build", "qbench")
WORKLOADS = ("cold_query", "zipf_serve", "long_docs")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[qbench] {message}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step, forwarding its output to stderr only."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        log(f"failed: {' '.join(cmd)}")
    return result.returncode == 0


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no system sources (src/CMakeLists.txt) next to qbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", PACKAGE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_quiet(configure):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    for target in targets:
        cmd += ["--target", target]
    return run_quiet(cmd)


def self_test():
    if not build(["qbench_util_test"]):
        return 1
    return subprocess.run(["ctest", "--test-dir", BUILD, "--output-on-failure"],
                          cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helpers' unit tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if not build(["qkbfly_bench"]):
        return 1
    cmd = [os.path.join(BUILD, "qkbfly_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
