#!/usr/bin/env python3
"""Self-test of the host-speed benchmark: short runs of every workload.

    python3 perfbench/selftest.py [--seconds 2] [--seed 1] [WORKLOAD ...]

Run from the root of a checkout.  For each workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json, with
    its unit and a nonzero value, is correct, and has ok_frac == 1;
  * a traced run prints every per-layer metric with its unit;
  * two traced runs with one seed report the same per-layer counts and
    fractions, exactly (simulated results do not depend on host timing).
Exits 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Per-layer counts and fractions that come from simulated results or
# fixed request mixes, never from host timing.
EXACT_PREFIXES = ("numa.", "runtime.", "session.", "exec.threaded_epochs",
                  "exec.parallel_regions")
EXACT_UNITS = ("count", "frac")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if len(lines) < 2 or "run_record" not in json.loads(lines[-2]):
        raise AssertionError("no run record before the result")
    return result


def check_metrics(result, specs, what):
    metrics = result["metrics"]
    names = [m["name"] for m in specs]
    if sorted(metrics) != sorted(names):
        raise AssertionError(f"{what} metrics {sorted(metrics)} != "
                             f"{sorted(names)}")
    for m in specs:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            raise AssertionError(f"{m['name']}: {got} (unit {m['unit']})")
        if not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{m['name']}: value {got['value']!r}")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()

    failures = 0
    for w in args.workloads:
        try:
            plain = run(w, args.seed, args.seconds, 0)
            check_metrics(plain, spec["end_to_end"], "end-to-end")
            if not plain["correct"] or plain["failed"] != 0:
                raise AssertionError(f"incorrect run: {plain}")
            if plain["metrics"]["ok_frac"]["value"] != 1:
                raise AssertionError("ok_frac != 1")
            zero = [k for k, v in plain["metrics"].items() if v["value"] == 0]
            if zero:
                raise AssertionError(f"zero end-to-end metrics: {zero}")

            traced = [run(w, args.seed, args.seconds, 1) for _ in range(2)]
            for t in traced:
                check_metrics(t, spec["per_layer"], "per-layer")
                if not t["correct"]:
                    raise AssertionError(f"incorrect traced run: {t}")
            exact = [m["name"] for m in spec["per_layer"]
                     if m["name"].startswith(EXACT_PREFIXES)
                     and m["unit"] in EXACT_UNITS]
            differ = {k: [t["metrics"][k]["value"] for t in traced]
                      for k in exact
                      if traced[0]["metrics"][k] != traced[1]["metrics"][k]}
            if differ:
                raise AssertionError(f"counts differ across runs: {differ}")
            print(f"PASS {w}: {plain['attempted']} requests, "
                  f"{len(exact)} per-layer counts repeat exactly")
        except (AssertionError, ValueError, KeyError,
                subprocess.TimeoutExpired) as e:
            failures += 1
            print(f"FAIL {w}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
