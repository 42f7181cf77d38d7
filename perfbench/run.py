#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first run configures and builds perfbench/ (which compiles the
simulator library from src/) into .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Traced
runs also write their spans under .bench_out/.

Exits non-zero without a result when the build fails, for example in a
directory that holds the benchmark but not the simulator sources.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_OUT = os.path.join(ROOT, ".bench_out")
JOBS = "4"


def build(extra_cmake_args=(), target="perfbench"):
    """Configure (once) and build @target; returns the build directory."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release", *extra_cmake_args],
            check=True, stdout=sys.stderr)
    elif extra_cmake_args:
        subprocess.run(["cmake", BUILD, *extra_cmake_args],
                       check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", target, "-j", JOBS],
        check=True, stdout=sys.stderr)
    return BUILD


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    binary = os.path.join(BUILD, "perfbench")
    args = [binary, *argv]
    if "--trace" in argv and "--trace-out" not in argv:
        args += ["--trace-out", TRACE_OUT]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
