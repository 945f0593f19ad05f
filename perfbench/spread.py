#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload given, makes `--runs` runs, one seed each starting at
`--first-seed`, or all on the one seed `--fixed-seed`, and prints, per
metric, a markdown table row with the median, the first and third
quartiles as `statistics.quantiles(values, n=4)` gives them, and the
quartile distance as a share of the median next to the metric's bound in
BENCHMARK.json.

    python3 perfbench/spread.py --workloads pipeline query adhoc --runs 10
    python3 perfbench/spread.py --workloads query --runs 10 --fixed-seed 1

Run it from the repository root after building the benchmark once.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {out.returncode}")
    for line in out.stderr.splitlines():
        if line.startswith(f"{workload}:"):
            print(f"  {line}", file=sys.stderr)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--fixed-seed", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads:
        if args.fixed_seed is None:
            seeds = [args.first_seed + i for i in range(args.runs)]
            label = f"{seeds[0]}..{seeds[-1]}"
        else:
            seeds = [args.fixed_seed] * args.runs
            label = f"{args.fixed_seed} x{args.runs}"
        runs = []
        for seed in seeds:
            runs.append(run_once(bench["command"], workload, seed,
                                 bench["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr)
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{100 * (q3 - q1) / med:.2f} %" if med else "-"
            bound = bounds.get(name)
            verdict = "" if bound is None else \
                f" {bound} | {'ok' if (q3 - q1) < med * bound / 3 else 'WIDE'} |"
            print(f"| `{workload}` | {label} | `{name}` | {med:.5g} | {q1:.5g} | {q3:.5g}"
                  f" | {spread} |{verdict}", flush=True)


if __name__ == "__main__":
    main()
