#!/usr/bin/env bash
# Fixed-seed benchmark run: produces BENCH_<shortsha>.json, a schema-v3
# run manifest with per-benchmark model-quality quantiles, metric
# snapshots, span wall/cpu/alloc totals, and a process `resources`
# section for `udse-inspect diff` gating (including --tol-resource).
#
# The run is `repro --quick fig1 fig2 table2` with the baked-in seed
# (2007), so the quality section (error p50/p90/max, bias, RMSE, R² per
# benchmark and pooled) is bit-identical across runs on any machine —
# quality drift in a diff always means a code change, never noise. fig2
# runs the characterization sweep, which populates the sweep.designs
# counter and the sweep.designs_per_sec throughput gauge. fig1's
# held-out points and table2's per-benchmark optima go through the
# unified query engine, so the manifest also carries its query.*
# metrics. The CI gate (scripts/ci.sh) pins the work counters
# sweep.designs, sim.runs and query.executed exactly and holds the
# throughput gauges above absolute floors (--min-gauge); it never
# compares a gauge against the baseline. Wall times and gauges DO vary
# by machine, which is why the gate runs the diff with --warn-wall:
# quality regressions beyond the default tolerance (±0.02 absolute on
# error fractions, i.e. two percentage points) fail the gate hard,
# while wall-time drift beyond the default band (+25% and >0.05s
# absolute) only warns.
#
# Usage: scripts/bench.sh [out.json]
#   Default output: BENCH_<shortsha>.json at the repo root (the baseline
#   naming convention). To move the baseline, commit the new manifest AND
#   write its filename into the BASELINE pointer file — scripts/ci.sh
#   reads the pointer first and only falls back to newest-by-mtime, which
#   is unreliable on fresh clones.
set -euo pipefail
cd "$(dirname "$0")/.."

shortsha=$(git rev-parse --short HEAD 2>/dev/null || echo nogit)
out="${1:-BENCH_${shortsha}.json}"

echo "==> cargo build --release -p udse-bench"
cargo build --release -p udse-bench

echo "==> repro --quick --manifest ${out} fig1 fig2 table2"
./target/release/repro --quick --manifest "${out}" fig1 fig2 table2 >/dev/null

echo "==> udse-inspect show ${out}"
./target/release/udse-inspect show "${out}"
echo "bench: wrote ${out}"
