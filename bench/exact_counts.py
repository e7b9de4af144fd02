#!/usr/bin/env python3
"""Exact-count gate: the end-to-end benchmark's deterministic counts.

Usage: python3 bench/exact_counts.py

Runs `perfbench/run.py --trace 1` once per workload named in the committed
bench/exact_counts.json (at its seed and length) and asserts that each
count listed there is equal to the committed value. These counts (WAL bytes and records, rule
evaluations, payload decodes and pre-filter skips per root) depend only on
the program and the seeded inputs, not on the machine, so a shared runner
can gate them exactly where a timing band could not. A change that is
meant to move one updates the committed file and says why.

Exit status: 0 when every count matches, 1 on a mismatch or a failed run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload(workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1",
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def main():
    with open(os.path.join(ROOT, "bench", "exact_counts.json")) as f:
        want = json.load(f)
    failures = 0
    for workload, counts in want["workloads"].items():
        status, result = run_workload(workload, want["seed"], want["seconds"])
        if status != 0 or result is None:
            print(f"{workload}: run failed (exit {status})")
            failures += 1
            continue
        metrics = result["metrics"]
        for name, value in counts.items():
            got = metrics.get(name, {}).get("value")
            ok = got == value
            print(f"{workload:8} {name:34} want {value!r:>12} got {got!r:>12}"
                  f"{'' if ok else '  MISMATCH'}")
            failures += 0 if ok else 1
    if failures:
        print(f"exact counts: {failures} mismatch(es)")
        return 1
    print("exact counts: all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
