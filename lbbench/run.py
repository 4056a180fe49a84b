#!/usr/bin/env python3
"""Builds and runs the lbbench benchmark.

    python3 lbbench/run.py --workload sim_saturated --seed 1 --seconds 30 \
        --trace 0

Run from the repository root.  Every run configures and builds the
simulator libraries and the lbbench binary into .bench_build/lbbench
(CMake, RelWithDebInfo like the top-level project); after the first run
that is an up-to-date check.  The binary's output passes through
unchanged: a detail line, then the result line {"correct", "attempted",
"failed", "metrics"}.  The exit code is the binary's (nonzero on any
correctness mismatch), or 1 when the build fails, in which case no result
line is printed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lbbench")
BINARY = os.path.join(BUILD, "lbbench")
PINS = os.path.join(HERE, "pinned_digests.txt")


def build():
    """Configures and builds the binary; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "lbbench"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def main(argv):
    if not build():
        print("lbbench: build failed", file=sys.stderr)
        return 1
    result = subprocess.run([BINARY, "--pins", PINS] + argv)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
