#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, default .bench_build; later
runs only re-check the build.  The executable's stdout is passed through,
so its last line is the JSON result.  A failed build, a failed
correctness gate or a timeout exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim-clean-4096", "sweep-faulted-1024", "serve-openloop-1024")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the executable; returns its path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" %
                                 " ".join(cmd))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(build_dir, "perfbench"))
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           # Relative, so the daemon's socket path stays short.
           "--out-dir", os.path.relpath(os.path.join(build_dir,
                                                     "perfbench-out"))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        sys.stderr.write(out)
        sys.stderr.write("perfbench: executable exited %d without a result\n" %
                         proc.returncode)
        return proc.returncode or 1
    # A failed correctness gate prints "correct": false and exits 1.
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
