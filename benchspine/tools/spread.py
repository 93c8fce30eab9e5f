#!/usr/bin/env python3
"""Runs the suite binary N times per workload, each time with another seed,
and prints for every end-to-end metric the median and the interquartile
spread as a share of the median -- the steadiness check the benchmark
contract asks for. Usage:

    spread.py <suite-binary> [--seconds S] [--runs N] [--first-seed K]
              [--workloads a,b] [--out file.json]
"""
import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["serve.read", "serve.mixed", "fixpoint.fresh", "relational.pipeline", "persist.cycle"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out")
    args = ap.parse_args()

    medians = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [args.binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            info = next((json.loads(l[len("info: "):]) for l in lines if l.startswith("info: ")), {})
            for name, v in info.items():
                if isinstance(v, float) and name != "error_rate":
                    values.setdefault(f"({name})", []).append(v)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            if not name.startswith("("):
                medians[f"{workload}/{name}"] = med
            print(f"{workload:<20} {name:<16} median {med:>12.4f}  iqr/median {100 * (q3 - q1) / med:6.2f}%"
                  f"  min {min(vs):.4f} max {max(vs):.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(medians, f, indent=1)


if __name__ == "__main__":
    main()
