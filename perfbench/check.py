#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/check.py spread [--runs 10] [--first-seed 1]
        [--seconds S] [--workload W ...]
    python3 perfbench/check.py determinism [--seed 7] [--other-seed 8]
        [--seconds S] [--workload W ...]

spread: run each workload under --runs consecutive seeds and print, for
every end-to-end metric, the distance between the first and third quartile
of its values (statistics.quantiles, n=4) as a share of their median, next
to the metric's bound from BENCHMARK.json, and the same for the median
durations of the harness's two speed probes (raw, unscaled: how much the
machine's speed moved between runs). Exit 1 when a run fails.

determinism: for each workload, run the per-layer ledger (--trace 1) twice
with the same seed and require identical exact counts, then run the
end-to-end metrics under two seeds and require the second within the
bounds of the first. Exit 1 otherwise.

Run from the root of a checkout.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per-layer metrics that are exact counts over a fixed segment of work
EXACT = (
    "gc.alloc_kb_per_root",
    "store.wal_bytes_per_root",
    "store.wal_records_per_root",
    "xml.decodes_per_root",
    "xml.decoded_kb_per_root",
    "engine.rule_evals_per_root",
    "engine.prefilter_skips_per_root",
    "engine.admission_scans_per_root",
)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, done.returncode, done.stdout))
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    probes = dict(re.findall(r"(core|memory) median ([0-9.]+) us", done.stdout))
    return metrics, {"probe_%s_us" % k: float(v) for k, v in probes.items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def cmd_spread(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in args.workload:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics, probes = run_once(w, seed, args.seconds)
            for name, v in list(metrics.items()) + list(probes.items()):
                values.setdefault(name, []).append(v)
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % kv for kv in list(metrics.items()) + list(probes.items()))),
                flush=True)
        for name, vs in values.items():
            s, med = spread(vs)
            bound = "%.2f" % bounds[name] if name in bounds else "-"
            print("  %-8s %-18s median %12.5g  spread %6.3f  bound %s"
                  % (w, name, med, s, bound), flush=True)
    return True


def cmd_determinism(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    ok = True
    for w in args.workload:
        a, _ = run_once(w, args.seed, args.seconds, trace=1)
        b, _ = run_once(w, args.seed, args.seconds, trace=1)
        for name in EXACT:
            same = a[name] == b[name]
            ok = ok and same
            print("%-8s %-34s %14.6f %14.6f  %s"
                  % (w, name, a[name], b[name], "same" if same else "DIFFERS"))
        first, _ = run_once(w, args.seed, args.seconds)
        second, _ = run_once(w, args.other_seed, args.seconds)
        for name, v in first.items():
            change = (second[name] - v) / v
            worse = change if better[name] == "lower" else -change
            within = worse <= bounds[name]
            ok = ok and within
            print("%-8s %-34s %14.6g %14.6g  %+.3f of %.2f%s"
                  % (w, name, v, second[name], change, bounds[name],
                     "" if within else "  OUTSIDE"))
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--first-seed", type=int, default=1)
    dp = sub.add_parser("determinism")
    dp.add_argument("--seed", type=int, default=7)
    dp.add_argument("--other-seed", type=int, default=8)
    for p in (sp, dp):
        p.add_argument("--seconds", type=float, default=spec["run_seconds"])
        p.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    args.workload = args.workload or names
    run = cmd_spread if args.cmd == "spread" else cmd_determinism
    return 0 if run(args, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
