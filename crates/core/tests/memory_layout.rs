//! The resident layout of the two large structures of a paper-scale run,
//! pinned with the counting allocator.
//!
//! - The engine's stride-1 sweep (nine rows of 262,500 predicted
//!   designs) is allocated once, at its final size: its heap high-water
//!   rise stays within 10 % of the rows themselves, so no per-chunk
//!   buffers or concatenation copies coexist with them.
//! - `characterize_all` shares the sweep instead of copying rows: it
//!   allocates only the per-(depth, width) cluster summaries.
//! - Memoized outcome streams are bit-packed: two bits per cache event,
//!   one bit per branch, in whole `u64` words.
//!
//! The checks read process-wide counters, so each takes a lock that
//! keeps the others in this binary from allocating at the same time.

use std::sync::Mutex;

use udse_core::oracle::{Metrics, Oracle};
use udse_core::query::Engine;
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::pareto::{characterize_all, PredictedDesign};
use udse_core::studies::{StudyConfig, TrainedSuite};
use udse_obs::alloc::stats;
use udse_sim::{
    BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, MachineConfig, TracePreflight,
};
use udse_trace::{Benchmark, Trace};

#[global_allocator]
static ALLOC: udse_obs::CountingAlloc = udse_obs::CountingAlloc::new();

static SERIAL: Mutex<()> = Mutex::new(());

/// Smooth positive response surface so training is fast; the layout
/// does not depend on fit quality.
struct SmoothOracle;

impl Oracle for SmoothOracle {
    fn evaluate(&self, _b: Benchmark, p: &DesignPoint) -> Metrics {
        let v = p.predictors();
        Metrics {
            bips: (8.0 / v[0]) * (1.0 + 0.2 * v[1].ln()) * (1.0 + 0.002 * v[2]) + 0.05 * v[6],
            watts: 4.0 + 40.0 / v[0] + 1.2 * v[1] + 0.5 * v[6] + 0.01 * v[2] + 0.3 * v[4],
        }
    }
}

#[test]
fn stride_one_sweep_and_characterization_keep_one_copy_of_the_rows() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let config = StudyConfig { eval_stride: 1, ..StudyConfig::quick() };
    let suite = TrainedSuite::train(&SmoothOracle, &config).expect("smooth fit succeeds");
    let engine = Engine::new(suite, &config);

    let before = stats();
    let sweep = engine.full_sweep();
    let after = stats();
    let points = DesignSpace::exploration().len() as usize;
    assert_eq!(sweep.len(), 9);
    assert!(sweep.iter().all(|row| row.len() == points));
    let rows = (9 * points * std::mem::size_of::<PredictedDesign>()) as u64;
    assert!(
        after.peak_bytes > before.peak_bytes,
        "the sweep must set the heap high-water mark for the rise to be measured"
    );
    let rise = after.peak_bytes - before.current_bytes;
    assert!(rise >= rows, "the rise {rise} B cannot be below the rows' {rows} B");
    assert!(
        rise as f64 <= 1.1 * rows as f64,
        "a stride-1 sweep raised the heap high-water mark by {rise} B, over 1.1 x its {rows} B \
         of rows"
    );

    // The sweep is memoized, so characterizing every benchmark builds
    // the cluster summaries and nothing else.
    let before = stats();
    let characterized = characterize_all(&engine);
    let allocated = stats().bytes_allocated - before.bytes_allocated;
    assert_eq!(characterized.len(), 9);
    for (ch, row) in characterized.iter().zip(sweep.iter()) {
        assert!(std::ptr::eq(ch.designs(), row.as_slice()), "{:?} copied its row", ch.benchmark);
    }
    let bound = 9 * 8 * 1024;
    assert!(
        allocated <= bound,
        "characterize_all allocated {allocated} B, over {bound} B for nine cluster tables"
    );
}

#[test]
fn outcome_streams_pack_two_bits_per_cache_event_and_one_per_branch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let words = |events: usize, per_word: usize| 8 * events.div_ceil(per_word);
    let base = MachineConfig::power4_baseline();
    for (benchmark, cfg) in [
        (Benchmark::Gcc, base),
        (Benchmark::Mcf, MachineConfig { dl1_kb: 8, l2_kb: 4096, ..base }),
        (Benchmark::Jbb, MachineConfig { il1_next_line_prefetch: true, bht_entries: 256, ..base }),
    ] {
        let pre = TracePreflight::of(&Trace::generate(benchmark, 50_000, 3));

        let live = stats().current_bytes;
        let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&cfg));
        let retained = stats().current_bytes - live;
        let bound = words(pre.code_events(), 32) + words(pre.data_events(), 32);
        assert!(cache.bytes() <= bound, "{benchmark:?}: {} B over {bound} B", cache.bytes());
        assert!(retained as usize <= bound, "{benchmark:?}: cache streams hold {retained} B");

        let live = stats().current_bytes;
        let branches = BranchStream::resolve(&pre, &BhtSubConfig::of(&cfg));
        let retained = stats().current_bytes - live;
        let bound = words(pre.branch_events(), 64);
        assert!(branches.bytes() <= bound, "{benchmark:?}: {} B over {bound} B", branches.bytes());
        assert!(retained as usize <= bound, "{benchmark:?}: branch stream holds {retained} B");
    }
}
