#!/usr/bin/env python3
"""Builds the perfbench executable from this checkout's sources and runs one
workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (with the library sources under src/) into .bench_build/perfbench,
or into $CARGO_TARGET_DIR/perfbench when that variable is set; later runs
only rebuild what changed. The last line of standard output is the result
JSON; build output and the trace report go to standard error. A traced run
also writes its spans to <build dir>/trace_<workload>_<seed>.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("static_serve", "fit_wide", "dynamic_mixed", "local_multiprobe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append([cmake, "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt-answer", action="store_true",
                        help="test hook: perturb one checked answer")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build(build_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_path = os.path.join(
            build_dir, "trace_%s_%d.json" % (args.workload, args.seed))
        command += ["--trace-out", trace_path]
    if args.corrupt_answer:
        command.append("--corrupt-answer")
    # The program gets only the generated inputs: no COHERE_* settings
    # (threads, SIMD level, faults, cache budget, metrics) from the caller,
    # and the C library's default allocator policy (no GLIBC_TUNABLES).
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("COHERE_") and k != "GLIBC_TUNABLES"}
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line (exit code %d)" % run.returncode)
    if set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1])
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
