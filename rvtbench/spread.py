#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, from the root of a checkout.

    python3 rvtbench/spread.py --runs 10 --first-seed 100 [--workload NAME ...]

Runs rvtbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
for each workload of BENCHMARK.json with --trace 0 and run_seconds, then
prints, per workload and metric, the median and the inter-quartile range as
a share of the median (statistics.quantiles(values, n=4)) next to the
metric's bound. The last stdout line is the same table as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                sys.exit(f"spread: {w} seed {seed} failed (exit {done.returncode})")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(w, seed, {k: v[-1] for k, v in values.items()}, flush=True)
        table[w] = {}
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            table[w][name] = {"median": statistics.median(vs),
                              "iqr_share": (q3 - q1) / statistics.median(vs),
                              "bound": bounds[name], "values": vs}
            print(f"{w:12s} {name:16s} median {statistics.median(vs):.6g} "
                  f"iqr/median {table[w][name]['iqr_share']:.4f} bound {bounds[name]}")
    print(json.dumps(table))


if __name__ == "__main__":
    main()
