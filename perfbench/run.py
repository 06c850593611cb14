#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hot_serial --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (and the perfq library sources
under src/) into .bench_build/perfbench; later runs only re-check the build.
Build output goes to stderr, so the last line of stdout is the benchmark's
result object. Exits non-zero without a result if the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "engine_api.hpp")):
        sys.stderr.write("perfbench: no perfq sources under src/; cannot build\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        return 2
    # The benchmark reads and writes relative to the checkout root.
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
