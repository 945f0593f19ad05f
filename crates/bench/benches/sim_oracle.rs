//! Criterion benches for the decomposed cycle oracle: cold (a one-shot
//! `run_with_warmup`: preflight, resolve and run, no memo), stream
//! resolution (the once-per-sub-config cost), and warm (the cycle engine
//! against memoized streams) —
//! instructions/sec tracked the same way the predictor's designs/sec
//! is, so regressions in either half of the decomposition show up
//! independently.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use udse_sim::{
    BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, MachineConfig, Simulator,
    StreamScratch, TracePreflight,
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

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_sim_oracle
}
criterion_main!(benches);
