#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, the way the acceptance driver takes it.

Runs BENCHMARK.json's command N times per workload, each time with another
--seed, and prints for every end-to-end metric the distance between the first
and third quartile of the N values as a share of their median, next to the
metric's bound. Run from the root of the repository:

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    worst = 0.0
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {args.first_seed + i}: {res['failed']} of {res['attempted']} failed")
            for k in values:
                values[k].append(res["metrics"][k]["value"])
            print(f"# {name} seed {args.first_seed + i}: {time.time() - t0:.1f} s", file=sys.stderr)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"{name:15s} {m['name']:20s} median {med:12.6g} {m['unit']:9s} "
                  f"iqr/median {100 * spread:6.2f}%  bound {100 * m['bound']:4.0f}%  "
                  f"({share:4.2f} of bound)  min {min(v):.6g} max {max(v):.6g}")
    print(f"worst spread is {worst:.2f} of its bound (target: below 0.33)")


if __name__ == "__main__":
    main()
