#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see README.md).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the benchmark program, with the
system's libraries from src/, under .bench_build/ at the repository root;
later calls rebuild only what changed. The program's output is passed
through: its last line is one JSON object with the result. The exit
code is non-zero, and no result is printed, when the build or the run
fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "perfbench"

# A run measures for --seconds plus a few seconds of set-ups; anything
# far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    try:
        done = subprocess.run([str(PROGRAM)] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
