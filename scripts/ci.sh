#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 build/test gate.
#
# Everything here is offline-safe: all dependencies are workspace path
# crates (including the `compat/` stand-ins for rand/proptest/criterion),
# so no network access is required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --release --workspace (tier-1)"
# --workspace matters: a bare root build compiles only the `udse`
# facade crate, not the repro/udse-inspect binaries the smoke below
# runs.
cargo build --release --workspace

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Trace smoke: a quick figure run with --trace and --manifest must exit
# 0, and the Chrome trace it writes must hold span events (the
# `repro_cli` test checks every event's fields).
echo "==> trace smoke: repro --quick --trace --manifest fig1"
rm -rf target/trace-smoke
mkdir -p target/trace-smoke
./target/release/repro --quick --trace target/trace-smoke/trace.json \
    --manifest target/trace-smoke/manifest.json fig1 > target/trace-smoke/fig1.out
if ! grep -qF '"ph": "X"' target/trace-smoke/trace.json; then
    echo "==> the fig1 trace holds no span events" >&2
    exit 1
fi

# Worker-count smoke: the studies that simulate configs outside the
# design space (and the residual/ablation samples) each make one
# simulation-oracle batch, so `--jobs 2` runs them on the pool. Their
# stdout must not depend on the worker count.
echo "==> jobs smoke: repro --quick --jobs 1 vs --jobs 2 (stalls assoc inorder workloads residuals ablations)"
rm -rf target/jobs-smoke
mkdir -p target/jobs-smoke
for jobs in 1 2; do
    ./target/release/repro --quick --jobs "${jobs}" \
        stalls assoc inorder workloads residuals ablations > "target/jobs-smoke/jobs${jobs}.out"
done
diff target/jobs-smoke/jobs1.out target/jobs-smoke/jobs2.out

# Query smoke: the `repro query` subcommand must answer a constrained
# optimum and a what-if delta from the CLI with exit 0 and byte-stable
# stdout (two runs of the same query diff clean — the canonical wire
# format has no timestamps or machine-dependent fields). The manifest
# written alongside must carry the engine's counters, and
# `udse-inspect show` must render them as the query-engine section.
echo "==> query smoke: repro query (constrained optimum, stride-1 box scans, what-if delta)"
rm -rf target/query-smoke
mkdir -p target/query-smoke
opt_query='{"query_version":1,"type":"constrained_optimum","bench":null,"objective":"efficiency","constraints":[{"axis":"dl1_kb","min":null,"max":64.0},{"axis":"depth_fo4","min":18.0,"max":18.0}],"stride":500}'
./target/release/repro query --quick --manifest target/query-smoke/opt.manifest.json \
    "${opt_query}" > target/query-smoke/opt1.json
./target/release/repro query --quick "${opt_query}" > target/query-smoke/opt2.json
diff target/query-smoke/opt1.json target/query-smoke/opt2.json
# Stride-1 scans take the engine's box path: admitted level boxes are
# read straight out of the stride-1 sweep as runs along the innermost
# axis. An `exactly` bound on l2_kb (the innermost axis) makes every run
# one design long.
box_opt_query='{"query_version":1,"type":"constrained_optimum","bench":null,"objective":"efficiency","constraints":[{"axis":"l2_kb","min":1024.0,"max":1024.0},{"axis":"width","min":4.0,"max":null}],"stride":1}'
topk_query='{"query_version":1,"type":"top_k","bench":"gcc","constraints":[{"axis":"dl1_kb","min":null,"max":64.0}],"stride":1,"k":15}'
for name in box_opt topk; do
    if [ "${name}" = topk ]; then query="${topk_query}"; else query="${box_opt_query}"; fi
    ./target/release/repro query --quick "${query}" > "target/query-smoke/${name}1.json"
    ./target/release/repro query --quick "${query}" > "target/query-smoke/${name}2.json"
    diff "target/query-smoke/${name}1.json" "target/query-smoke/${name}2.json"
done
whatif_query='{"query_version":1,"type":"what_if","bench":"mcf","base":{"idx":[2,1,1,0,4,3,0],"fo4":18},"alternative":{"idx":[2,2,1,1,0,1,0],"fo4":18}}'
./target/release/repro query --quick "${whatif_query}" > target/query-smoke/whatif.json
grep -qF '"type": "delta"' target/query-smoke/whatif.json
for key in '"query.executed"' '"query.cache.misses"' '"query.designs_per_sec"'; do
    if ! grep -qF "${key}" target/query-smoke/opt.manifest.json; then
        echo "==> query manifest is missing ${key}" >&2
        exit 1
    fi
done
echo "==> udse-inspect show renders the query-engine section"
./target/release/udse-inspect show target/query-smoke/opt.manifest.json \
    | grep -qF 'query engine:'

# Regression gate: re-run the fixed-seed benchmark and diff against the
# committed baseline. Model quality gates hard (the fixed seed makes it
# machine-independent); wall time is demoted to a warning with
# --warn-wall since CI machines differ. See scripts/bench.sh for the
# tolerance bands.
#
# Baseline selection: the BASELINE pointer file names the canonical
# baseline manifest (mtime ordering breaks on fresh clones, where git
# gives every file the checkout time). Newest-by-mtime is the fallback
# for trees that predate the pointer.
baseline=""
if [ -f BASELINE ]; then
    baseline=$(tr -d '[:space:]' < BASELINE)
    if [ ! -f "${baseline}" ]; then
        echo "==> BASELINE points to missing file '${baseline}'" >&2
        exit 1
    fi
else
    baseline=$(ls -t BENCH_*.json 2>/dev/null | head -n1 || true)
fi
if [ -n "${baseline}" ]; then
    echo "==> scripts/bench.sh (regression gate vs ${baseline})"
    scripts/bench.sh target/bench-current.json
    # Resource gates (hard failures, unlike the warn-only wall times):
    # the fixed seed makes allocation counts deterministic, so a rise
    # beyond the band is a real code regression. alloc.bytes may
    # double before failing (model-layer churn is legitimate);
    # sweep.allocs_per_design guards the fused sweep's allocation-free
    # inner loop — the 0.05 floor absorbs per-chunk bookkeeping noise
    # while still catching a per-design allocation creeping in (which
    # would land at >= 1.0).
    #
    # The --min-gauge floors are absolute, not relative to the baseline:
    # quick-mode sweeps run ~13M designs/sec on the SoA walker, and a
    # collapse back to per-point spline evaluation lands near 2M. The
    # 5M floor sits far from both, so machine noise cannot trip it but
    # losing the compiled fast path always does.
    #
    # sim.instructions_per_sec watches the decomposed cycle oracle the
    # same way: the quick workload simulates ~40-50M insts/sec with
    # trace preflight + memoized sub-config streams on a 2-vCPU host,
    # while one-shot per-design simulation (preflight + resolve + run
    # for every design, no memo) lands near 30M there. The 15M floor
    # sits below both, so it no longer catches the loss of memoization
    # alone; it trips when the cycle engine itself collapses (the
    # retired per-instruction replay loop ran at 14-18M on that host).
    #
    # The memo itself is guarded by a deterministic counter instead:
    # sim.precompute.hits counts sub-config stream lookups served from
    # the memo. The fixed-seed quick workload reads 3,149 hits, and 0
    # when the stream memo is lost, so the 1,500 floor fails exactly
    # then, on any machine.
    #
    # Throughput gauges are not compared against the baseline: eight
    # quick runs of one tree on a 2-vCPU host read query.designs_per_sec
    # anywhere in 57.8-181.8M and sweep.designs_per_sec in 24.3-46.7M,
    # so a relative watch cannot tell a real 2x drop from host noise.
    # The floors above catch a collapse; the exact work counters below
    # catch doing the wrong amount of work.
    #
    # resources.peak_bytes is the run's heap high-water mark, a hard
    # gate. Five scripts/bench.sh runs on a 2-vCPU host read 9,321,908 /
    # 9,274,535 / 9,209,423 / 9,262,839 / 9,333,327 B (spread 1.3 %;
    # pool scheduling moves it, the fixed seed fixes the rest). The 10 %
    # band is seven times that spread and fails on any return of the
    # redundant copies, each measured on a scratch copy: byte-per-outcome
    # streams put the peak at 15.0 MB (+61 %), and the per-event hash
    # columns alone at 11.1 MB (+20 %).
    echo "==> udse-inspect diff ${baseline} target/bench-current.json --warn-wall --min-gauge sweep.designs_per_sec:5000000 --min-gauge sim.instructions_per_sec:15000000 --min-gauge sim.precompute.hits:1500 --tol-resource alloc.bytes:100 --tol-resource sweep.allocs_per_design:100:0.05 --tol-resource resources.peak_bytes:10"
    ./target/release/udse-inspect diff "${baseline}" target/bench-current.json --warn-wall \
        --min-gauge sweep.designs_per_sec:5000000 \
        --min-gauge sim.instructions_per_sec:15000000 \
        --min-gauge sim.precompute.hits:1500 \
        --tol-resource alloc.bytes:100 \
        --tol-resource sweep.allocs_per_design:100:0.05 \
        --tol-resource resources.peak_bytes:10

    # The work itself is pinned exactly; the fixed-seed fig1/fig2/table2
    # run's shapes fix each count, on any machine:
    # - query.executed counts every Engine::execute call: fig1's 25
    #   held-out designs x 9 benchmarks as point queries (225) plus
    #   table2's nine one-benchmark optima, 234 in all. A query that
    #   starts running a nested query behind the one it answers (as
    #   one-benchmark optima once did, nine extra per run) or a study
    #   that stops going through the engine moves it.
    # - sweep.designs counts the designs the fused sweep predicts: one
    #   strided pass over the exploration space (4,725). A second sweep
    #   of the same space (the 9,450 in BENCH_39a53fd.json) doubles it.
    # - sim.runs counts cycle simulations: fig1's 200 training + 25
    #   validation designs x 9 benchmarks plus table2's nine simulated
    #   optima, 2,034 (fig2 and table2 reuse the memoized training runs).
    #   A lost memo hit or a study simulating twice moves it.
    for pin in query.executed:234 sweep.designs:4725 sim.runs:2034; do
        name=${pin%%:*}
        expected=${pin##*:}
        actual=$(grep -oE "\"${name//./\\.}\": [0-9]+" target/bench-current.json \
            | grep -oE '[0-9]+$' || true)
        echo "==> ${name} in target/bench-current.json: ${actual:-missing} (expected ${expected})"
        if [ "${actual}" != "${expected}" ]; then
            echo "==> ${name} must read exactly ${expected}" >&2
            exit 1
        fi
    done
else
    echo "==> no BENCH_*.json baseline; skipping regression gate (run scripts/bench.sh and commit the output)"
fi

echo "ci: all checks passed"
