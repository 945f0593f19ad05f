//! Property tests for sharing resolved outcome streams across designs.
//!
//! The simulation oracle resolves cache and branch streams once per
//! sub-config and runs every design with that sub-config against them.
//! The contract is bitwise identity: the shared streams must produce
//! exactly the `SimResult` a one-shot `run_with_warmup` (which resolves
//! streams for that design alone) produces. These properties draw random
//! cache geometries, prefetch flags, BHT configurations, and core knobs
//! — far beyond the Table-1 cross-product. The one-shot results
//! themselves are pinned by the golden fixture (`golden_sim.rs`).
//!
//! The lane property pins the other half of the engine's contract:
//! designs stepped through one trace together share nothing but the
//! trace, so each lane's result equals that design run alone.

mod common;

use common::arbitrary_config;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udse_sim::{
    run_streamed_lanes, BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, MachineConfig,
    Simulator, StreamScratch, TracePreflight,
};
use udse_trace::{Benchmark, Trace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Memoization-safety property: streams resolved once serve every
    /// design sharing the sub-key. Two configs that differ only in
    /// core knobs (width, depth, queue sizes) must produce identical
    /// sub-keys, and the *shared* streams must reproduce both designs'
    /// one-shot results.
    #[test]
    fn shared_streams_serve_all_designs_with_the_same_sub_key(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = arbitrary_config(&mut rng);
        let mut other = arbitrary_config(&mut rng);
        // Align the sub-key fields; everything else stays random.
        other.il1_kb = base.il1_kb;
        other.il1_assoc = base.il1_assoc;
        other.dl1_kb = base.dl1_kb;
        other.dl1_assoc = base.dl1_assoc;
        other.l2_kb = base.l2_kb;
        other.l2_assoc = base.l2_assoc;
        other.il1_next_line_prefetch = base.il1_next_line_prefetch;
        other.dl1_stride_prefetch = base.dl1_stride_prefetch;
        other.bht_entries = base.bht_entries;
        other.bht_counter_bits = base.bht_counter_bits;
        prop_assert_eq!(CacheSubConfig::of(&base), CacheSubConfig::of(&other));
        prop_assert_eq!(BhtSubConfig::of(&base), BhtSubConfig::of(&other));

        let bench = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
        let len = rng.gen_range(500usize..2_500);
        let trace = Trace::generate(bench, len, rng.gen());
        let warmup = len / 4;

        let pre = TracePreflight::of(&trace);
        let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&base));
        let bht = BranchStream::resolve(&pre, &BhtSubConfig::of(&base));
        for cfg in [base, other] {
            let sim = Simulator::new(cfg);
            let one_shot = sim.run_with_warmup(&trace, warmup);
            let shared = sim.run_streamed(&pre, &cache, &bht, warmup);
            prop_assert_eq!(shared, one_shot);
        }
    }

    /// Lane-isolation property: four random designs, each with its own
    /// sub-configs and so its own streams, stepped through one trace
    /// together equal the same four designs run one at a time. Lane 0
    /// is in-order and lane 1 out-of-order; lanes 2 and 3 take the
    /// smallest and largest pools `validate` accepts (one of them
    /// in-order when the draw says so), so neighbours differ in every
    /// pool size.
    #[test]
    fn four_lanes_equal_four_single_runs(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfgs: [MachineConfig; 4] = std::array::from_fn(|_| arbitrary_config(&mut rng));
        cfgs[0].in_order = true;
        cfgs[1].in_order = false;
        cfgs[2] = MachineConfig {
            rob_entries: 8,
            gpr: 34,
            fpr: 34,
            spr: 10,
            resv_br: 1,
            resv_fx: 1,
            resv_fp: 1,
            lsq_entries: 1,
            store_queue_entries: 1,
            units_per_class: 1,
            ..cfgs[2]
        };
        cfgs[3] = MachineConfig {
            rob_entries: 2_048,
            gpr: 512,
            fpr: 512,
            spr: 512,
            resv_br: 256,
            resv_fx: 256,
            resv_fp: 256,
            lsq_entries: 256,
            store_queue_entries: 256,
            units_per_class: 8,
            ..cfgs[3]
        };

        let bench = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
        let len = rng.gen_range(500usize..2_500);
        let trace = Trace::generate(bench, len, rng.gen());
        let warmup = rng.gen_range(0..len);
        let pre = TracePreflight::of(&trace);
        let runs = cfgs.map(|cfg| {
            let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&cfg));
            (Simulator::new(cfg), cache, BranchStream::resolve(&pre, &BhtSubConfig::of(&cfg)))
        });
        let mut scratches: [StreamScratch; 4] = Default::default();
        let lanes = run_streamed_lanes(
            runs.each_ref().map(|(sim, cache, bht)| (sim, cache, bht)),
            &pre,
            warmup,
            scratches.each_mut(),
        );
        for ((sim, cache, bht), lane) in runs.iter().zip(lanes) {
            prop_assert_eq!(lane, sim.run_streamed(&pre, cache, bht, warmup));
        }
    }
}
