//! Criterion benches for the decomposed cycle oracle: cold (a one-shot
//! `run_with_warmup`: preflight, resolve and run, no memo), stream
//! resolution (the once-per-sub-config cost), warm (the cycle engine
//! against memoized streams), and warm four-lane (four designs stepped
//! through the trace together, as the oracle batches them) —
//! instructions/sec tracked the same way the predictor's designs/sec
//! is, so regressions in either half of the decomposition show up
//! independently. Every case counts 20k instructions per design
//! simulated, so `warm_lanes4` against `warm_streamed` is the per-design
//! speed-up of lane bundling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use udse_sim::{
    run_streamed_lanes, BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, MachineConfig,
    MachineConfigBuilder, Simulator, StreamScratch, TracePreflight,
};
use udse_trace::{Benchmark, Trace};

const BENCH_TRACE_LEN: usize = 20_000;

fn bench_sim_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_oracle_20k_insts");
    group.throughput(Throughput::Elements(BENCH_TRACE_LEN as u64));
    let trace = Trace::generate(Benchmark::Twolf, BENCH_TRACE_LEN, 1);
    let cfg = MachineConfig::power4_baseline();
    let sim = Simulator::new(cfg);
    let pre = TracePreflight::of(&trace);

    // Cold: what a simulation outside the memoizing oracle pays.
    group.bench_with_input(BenchmarkId::from_parameter("cold_oneshot"), &trace, |bch, t| {
        bch.iter(|| sim.run_with_warmup(t, BENCH_TRACE_LEN / 4))
    });

    // Resolve: the design-invariant work a sub-config pays exactly once.
    group.bench_with_input(BenchmarkId::from_parameter("resolve_streams"), &pre, |bch, p| {
        bch.iter(|| {
            let cache = CacheStreams::resolve(p, &CacheSubConfig::of(&cfg));
            let bht = BranchStream::resolve(p, &BhtSubConfig::of(&cfg));
            (cache.bytes(), bht.bytes())
        })
    });

    // Warm: the steady-state per-design cost once streams are memoized.
    let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&cfg));
    let bht = BranchStream::resolve(&pre, &BhtSubConfig::of(&cfg));
    let mut scratch = StreamScratch::new(sim.config());
    group.bench_with_input(BenchmarkId::from_parameter("warm_streamed"), &pre, |bch, p| {
        bch.iter(|| sim.run_streamed_with(p, &cache, &bht, BENCH_TRACE_LEN / 4, &mut scratch))
    });

    // Warm, four lanes: four designs (each with its own streams) per
    // iteration, so the throughput unit is four times one design's.
    let designs =
        [(12, 8, 2_048), (18, 4, 1_024), (24, 2, 512), (30, 8, 256)].map(|(fo4, width, l2_kb)| {
            let cfg = MachineConfigBuilder::power4_baseline()
                .depth_fo4(fo4)
                .width(width)
                .l2_kb(l2_kb)
                .build()
                .expect("Table 1 designs are valid");
            let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&cfg));
            let bht = BranchStream::resolve(&pre, &BhtSubConfig::of(&cfg));
            (Simulator::new(cfg), cache, bht)
        });
    let mut scratches: [StreamScratch; 4] = Default::default();
    group.throughput(Throughput::Elements(4 * BENCH_TRACE_LEN as u64));
    group.bench_with_input(BenchmarkId::from_parameter("warm_lanes4"), &pre, |bch, p| {
        bch.iter(|| {
            run_streamed_lanes(
                designs.each_ref().map(|(sim, cache, bht)| (sim, cache, bht)),
                p,
                BENCH_TRACE_LEN / 4,
                scratches.each_mut(),
            )
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_sim_oracle
}
criterion_main!(benches);
