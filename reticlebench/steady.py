#!/usr/bin/env python3
"""Steadiness check for the Reticle benchmark.

Runs each workload several times, each with its own seed, and prints every
end-to-end metric's median, quartiles and spread: the distance between the
quartiles as a share of the median, computed with statistics.quantiles(n=4).
The bounds in BENCHMARK.json rest on this output. Run from the repository
root:

    python3 reticlebench/steady.py --runs 10 --seconds 30
    python3 reticlebench/steady.py --workloads edit_loop --runs 5 --seed-base 100
"""

import argparse
import json
import statistics
from fractions import Fraction
import subprocess
import sys

WORKLOADS = ["cold_compile", "edit_loop", "explore_sweep"]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "reticlebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    noise = " ".join(l for l in lines if l.startswith(("noise", "cpu:")))
    return json.loads(lines[-1]), noise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for i in range(args.runs):
            seed = args.seed_base + i
            res, noise = run_once(workload, seed, args.seconds, args.trace)
            if not res["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect")
            shares.add(Fraction(res["failed"], res["attempted"]))
            print(f"{workload} seed={seed} attempted={res['attempted']} failed={res['failed']} {noise}",
                  flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs, failed shares seen: {sorted(map(str, shares))}")
        print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
        print(flush=True)


if __name__ == "__main__":
    main()
