#!/usr/bin/env python3
"""Steadiness check: run one workload k times and report each metric's spread.

Run from the repository root:

    python3 perfbench/steady.py --workload serve-mixed --runs 10 --seconds 25

Each run uses another seed (first-seed, first-seed+1, ...). For every
metric of the last output line it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the relative
spread (q3 - q1) / median, next to the bound BENCHMARK.json gives the
metric, and flags a spread above a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STEAL = "host: cpu steal during the timed pass "


def bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in doc.get("end_to_end", [])}


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("steady.py: %s exited %d" % (" ".join(cmd), out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("steady.py: seed %d: correct=%s failed=%d" % (seed, result["correct"], result["failed"]))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # The CPU time the hypervisor gave to other tenants during the pass:
    # a diagnostic for runs that read slow.
    for line in lines:
        if line.startswith(STEAL):
            values["host.steal_s"] = float(line[len(STEAL):].split()[0])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("steady.py: need --runs >= 2")

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        for name, v in one_run(args.workload, seed, args.seconds).items():
            values.setdefault(name, []).append(v)
        print("run %d/%d (seed %d) done" % (i + 1, args.runs, seed), file=sys.stderr)

    limit = bounds()
    print("%-34s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in sorted(values):
        vs = values[name]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = limit.get(name)
        flag = ""
        if bound is not None and not spread <= bound / 3:
            flag = "  <-- above bound/3"
        print("%-34s %12.6g %12.6g %12.6g %7.2f%% %6s%s" % (
            name, med, q1, q3, 100 * spread, "-" if bound is None else bound, flag))


if __name__ == "__main__":
    main()
