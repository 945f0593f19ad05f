//! Allocation-free guarantee on the streamed cycle loop.
//!
//! The oracle decomposition only pays off if the per-design work —
//! `Simulator::run_streamed_with` against preflighted columns and
//! memoized outcome streams — never touches the heap: at 2,025+ sims
//! per study over 200k-instruction traces, a single allocation per run
//! (let alone per instruction) would show up directly in
//! `sim.instructions_per_sec`. This pins it with the counting
//! allocator, alongside the predictor's `no_alloc_sweep` pin: the
//! scratch and streams allocate at construction, then whole simulations
//! run under `assert_no_alloc`, which panics on the first heap
//! allocation on the asserting thread.

use udse_sim::{
    run_streamed_lanes, BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, MachineConfig,
    MachineConfigBuilder, Simulator, StreamScratch, TracePreflight,
};
use udse_trace::{Benchmark, Trace};

// Integration tests are separate binaries: each one that measures
// allocations must install the counting allocator itself.
#[global_allocator]
static ALLOC: udse_obs::CountingAlloc = udse_obs::CountingAlloc::new();

#[test]
fn streamed_cycle_loop_is_allocation_free() {
    let trace = Trace::generate(Benchmark::Twolf, 20_000, 7);
    let cfg = MachineConfig::power4_baseline();
    let pre = TracePreflight::of(&trace);
    let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&cfg));
    let bht = BranchStream::resolve(&pre, &BhtSubConfig::of(&cfg));
    let sim = Simulator::new(cfg);
    let mut scratch = StreamScratch::new(sim.config());

    // Warm run: registers the sim.runs/sim.instructions counters (their
    // first lookup allocates registry entries) and sizes the scratch.
    let warm = sim.run_streamed_with(&pre, &cache, &bht, 5_000, &mut scratch);

    let pinned = udse_obs::alloc::assert_no_alloc("streamed cycle loop", || {
        sim.run_streamed_with(&pre, &cache, &bht, 5_000, &mut scratch)
    });
    assert_eq!(pinned, warm, "steady-state runs must be deterministic");

    // A second design against the same scratch: prefetch flags flip the
    // resolved streams, not the engine's allocation profile. Resolve is
    // allowed to allocate (it happens once per sub-config); the cycle
    // loop itself stays pinned, and its result must match a one-shot run
    // with fresh streams and scratch.
    let mut other = MachineConfig::power4_baseline();
    other.il1_next_line_prefetch = true;
    other.dl1_stride_prefetch = true;
    other.decode_width = 2;
    let cache_o = CacheStreams::resolve(&pre, &CacheSubConfig::of(&other));
    let bht_o = BranchStream::resolve(&pre, &BhtSubConfig::of(&other));
    let sim_o = Simulator::new(other);
    let one_shot = sim_o.run_with_warmup(&trace, 5_000);
    let reused = udse_obs::alloc::assert_no_alloc("streamed loop, second design", || {
        sim_o.run_streamed_with(&pre, &cache_o, &bht_o, 5_000, &mut scratch)
    });
    assert_eq!(reused, one_shot);
}

#[test]
fn four_lane_cycle_loop_is_allocation_free() {
    // The oracle's batched path: four designs with their own streams
    // stepped through one trace, each lane on its own scratch.
    let trace = Trace::generate(Benchmark::Mcf, 20_000, 7);
    let pre = TracePreflight::of(&trace);
    let runs = [(12, 8, 128, 4_096), (18, 4, 32, 1_024), (24, 2, 8, 256), (30, 8, 64, 512)].map(
        |(fo4, width, dl1_kb, l2_kb)| {
            let cfg = MachineConfigBuilder::power4_baseline()
                .depth_fo4(fo4)
                .width(width)
                .dl1_kb(dl1_kb)
                .l2_kb(l2_kb)
                .build()
                .expect("Table 1 designs are valid");
            let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&cfg));
            (Simulator::new(cfg), cache, BranchStream::resolve(&pre, &BhtSubConfig::of(&cfg)))
        },
    );
    let jobs = || runs.each_ref().map(|(sim, cache, bht)| (sim, cache, bht));
    let mut scratches: [StreamScratch; 4] = Default::default();

    // Warm call: registers the counters and sizes every scratch.
    let warm = run_streamed_lanes(jobs(), &pre, 5_000, scratches.each_mut());

    let pinned = udse_obs::alloc::assert_no_alloc("four-lane cycle loop", || {
        run_streamed_lanes(jobs(), &pre, 5_000, scratches.each_mut())
    });
    assert_eq!(pinned, warm, "steady-state bundles must be deterministic");
    for ((sim, _, _), lane) in runs.iter().zip(pinned) {
        assert_eq!(lane, sim.run_with_warmup(&trace, 5_000));
    }
}
