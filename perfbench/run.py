#!/usr/bin/env python3
"""Build and run the curb benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles ../src) into the build
directory — $CARGO_TARGET_DIR when set, else .bench_build — then runs the
benchmark binary with the given arguments. Build output goes to stderr; the
binary's stdout, whose last line is the JSON result, is passed through.
The exit code is the binary's, or nonzero when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "curb_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(build_dir, "curb_perfbench")
    try:
        result = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
