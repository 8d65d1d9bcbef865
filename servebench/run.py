#!/usr/bin/env python3
"""Builds and runs the serving benchmark (servebench/main.cpp says what it
measures).

    python3 servebench/run.py --workload <hot-zipf|cold-rules|bgp-churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark is configured and built
with CMake under .bench_build/servebench (the library compiles from src/ in
the same build), then the binary runs with the given arguments from the
checkout root.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  Exits non-zero, printing no result, when the
sources or the build are missing or broken.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "servebench")
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "servebench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("servebench: no library sources under src/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "servebench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("servebench: build failed: " + " ".join(cmd))


def main():
    build()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
