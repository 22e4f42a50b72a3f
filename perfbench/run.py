#!/usr/bin/env python3
"""Builds the host-speed benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload lu_serial --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds
the library and the perfbench binary into $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally.  Build output goes to
stderr; the binary's standard output passes through unchanged, so its
last line is the result object.  Traced runs (--trace 1) write their
Chrome trace and per-layer table under .bench_out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("lu_serial", "transpose_fullpath", "redist_threaded",
             "serve_openloop")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: {' '.join(cmd)}: {e}")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited {proc.returncode}")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", "3"], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--oracle", os.path.join(BENCH_DIR, "oracle.json"),
           "--out", os.path.join(ROOT, ".bench_out"),
           "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
