#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload approx_cold --seed 1 --seconds 30 --trace 0

The first run configures and builds the library and the benchmark program
under .bench_build/perfbench (later runs rebuild only what changed). Build
output goes to stderr; stdout carries the program's lines, the last of which
is the result object. The exit code is the program's: nonzero when an answer
was wrong or a check failed, or when the build or the run could not
complete.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, check=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime",
                                       "query_scheduler.h")):
        sys.exit("perfbench: no library sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD, "-j", "4"], BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    out_dir = os.path.join(BUILD, "out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
