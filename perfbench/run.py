#!/usr/bin/env python3
"""Build and run the Nova-LSM benchmark harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 39 --trace 0

--workload all runs every workload in turn, one process each.

Builds perfbench/ (and the store sources it compiles from src/) into
.bench_build/perfbench with CMake, then runs nova_perfbench. The harness
prints a readable report and, as its last stdout line, one JSON object
with the keys correct, attempted, failed and metrics. Run records and
trace spans go to .bench_build/perfbench-out/.

Exit status: the harness's own, 0 only when every result checked out
(with --workload all, that of the first run that failed); 2 if the build
fails; 3 if a run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "nova_perfbench")
RUN_TIMEOUT_S = 175
WORKLOADS = ["ingest", "read-skew", "mixed-paper"]


def build():
    """Configure and build (a no-op when up to date); output to stderr."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run(w, args) for w in workloads]
    return next((c for c in codes if c != 0), 0)


def run(workload, args):
    """Run the harness once; its stdout is passed through."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
