#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload fanout|filter|restart --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The harness (perfbench/main.ml) is built
with dune into .bench_build/ and run as one process; this wrapper adds the
process's peak resident memory (rss_mb) to the end-to-end metrics, since
the kernel reports it only once the process has exited.

The last line of stdout is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit status: 0 on a correct run, 1 when an output check failed, 2 when the
harness could not be built or did not produce a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DUNE_DIR = os.path.join(BUILD, "dune")
EXE = os.path.join(DUNE_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("fanout", "filter", "restart")

# a run that has not finished by then is killed (the harness's own timed
# phase is --seconds plus a few seconds of set-up and checks)
RUN_TIMEOUT_S = 150


def build():
    os.makedirs(BUILD, exist_ok=True)
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", DUNE_DIR,
        "--profile", "release", "--cache=disabled", "perfbench/main.exe",
    ]
    # build chatter goes to stderr so the last stdout line stays the result
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(EXE)


def run_harness(args, work_dir):
    """Run the harness; return (exit status, stdout lines, peak RSS in MB)."""
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode("utf-8", "replace")
        proc.stdout.close()
        # wait4, not wait: it returns this child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    try:
        code, lines, rss_mb = run_harness(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        for line in lines:
            print(line)
        print("perfbench: harness exited %d without a result" % code,
              file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        result["metrics"]["rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print("  %-34s %16.4f  %-8s %8d" % ("rss_mb", rss_mb, "MB", 1))
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
