//! Allocation-free guarantee on the fused sweep's inner loop.
//!
//! The study sweeps drive a [`udse_core::model::GridWalker`] over stacked
//! [`udse_core::model::SuiteLanes`]: per visited design the walker
//! refreshes incremental prefix sums and predicts every stacked pair. The
//! per-design work must never touch the heap — at 262,500 designs x 9
//! benchmarks, even one small allocation per design would dominate the
//! sweep. This test pins that with the counting allocator: walkers
//! allocate their scratch at construction, then the whole walk (and the
//! stacked per-point kernel) runs under `assert_no_alloc`, which panics
//! on the first heap allocation on the asserting thread.

use udse_core::model::{PaperModels, SuiteLanes};
use udse_core::oracle::{Metrics, Oracle};
use udse_core::query::{Engine, Query};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::{StudyConfig, TrainedSuite};
use udse_trace::Benchmark;

// Integration tests are separate binaries: each one that measures
// allocations must install the counting allocator itself.
#[global_allocator]
static ALLOC: udse_obs::CountingAlloc = udse_obs::CountingAlloc::new();

/// Smooth positive response surface so training is fast and both
/// transforms stay in-domain; the allocation property does not depend
/// on fit quality.
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

fn compiled_pair(space: &DesignSpace) -> SuiteLanes {
    let samples = DesignSpace::paper().sample_uar(300, 2007);
    let models =
        PaperModels::train(&SmoothOracle, Benchmark::Gzip, &samples).expect("smooth fit succeeds");
    SuiteLanes::compile(&[models], space)
}

#[test]
fn grid_walker_walk_is_allocation_free() {
    let lanes = compiled_pair(&DesignSpace::exploration());

    // Natural-order walk over a mid-space window. The walker owns its
    // prefix/metrics scratch, so everything past construction is pure
    // arithmetic — exactly what each `pool::map_chunks` chunk runs.
    let mut walker = lanes.walker(1);
    let sweep = |walker: &mut udse_core::model::GridWalker| {
        let mut acc = 0.0f64;
        walker.walk(100_000..104_096, |_, m| acc += m[0].bips + m[0].watts);
        acc
    };
    let expected = sweep(&mut walker);
    let again =
        udse_obs::alloc::assert_no_alloc("grid walker natural-order walk", || sweep(&mut walker));
    assert_eq!(again.to_bits(), expected.to_bits(), "repeat walk must be deterministic");
    assert!(expected.is_finite());

    // Strided walk (the quick-mode coprime subset) — same guarantee.
    let mut strided = lanes.walker(97);
    let strided_sweep = |walker: &mut udse_core::model::GridWalker| {
        let mut acc = 0.0f64;
        walker.walk(0..2_048, |_, m| acc += m[0].bips + m[0].watts);
        acc
    };
    let expected = strided_sweep(&mut strided);
    let again = udse_obs::alloc::assert_no_alloc("grid walker strided walk", || {
        strided_sweep(&mut strided)
    });
    assert_eq!(again.to_bits(), expected.to_bits(), "repeat strided walk must be deterministic");
}

#[test]
fn stacked_point_kernel_is_allocation_free() {
    let space = DesignSpace::exploration();
    let lanes = compiled_pair(&space);

    // Grid-index rows precomputed, so only the kernel runs under the
    // assertion.
    let idx_rows: Vec<[usize; 7]> =
        space.sample_uar(4_096, 99).iter().map(|p| space.indices(p).map(usize::from)).collect();
    let mut out = vec![Metrics { bips: 0.0, watts: 0.0 }; lanes.pairs()];
    let predict_all = |out: &mut [Metrics]| {
        let mut acc = 0.0f64;
        for idx in &idx_rows {
            lanes.predict_metrics_into(idx, out);
            acc += out[0].bips + out[0].watts;
        }
        acc
    };
    let expected = predict_all(&mut out);
    let again = udse_obs::alloc::assert_no_alloc("stacked per-point prediction kernel", || {
        predict_all(&mut out)
    });
    assert_eq!(again.to_bits(), expected.to_bits(), "repeat predictions must be deterministic");
    assert!(expected.is_finite());
}

#[test]
fn pareto_slice_allocates_four_bytes_per_admitted_design() {
    // A stride-1 engine: the unconstrained slice admits every design of
    // the exploration grid.
    let config = StudyConfig { eval_stride: 1, ..StudyConfig::quick() };
    let suite = TrainedSuite::train(&SmoothOracle, &config).expect("smooth fit succeeds");
    let engine = Engine::new(suite, &config);
    let admitted = engine.full_sweep()[0].len() as u64;
    assert_eq!(admitted, DesignSpace::exploration().len());
    // A first slice warms the span, metric and result-cache maps; the
    // measured one differs in `bins`, so it is a cache miss and scans.
    engine.execute(&Query::pareto(Benchmark::Gzip, vec![], 1, 39)).expect("warm-up slice");

    let bins = 40;
    let before = udse_obs::alloc::thread_stats();
    let result =
        engine.execute(&Query::pareto(Benchmark::Gzip, vec![], 1, bins)).expect("pareto slice");
    let bytes = udse_obs::alloc::thread_stats().bytes - before.bytes;
    let frontier = result.frontier().expect("frontier rows").len() as u64;
    // One `u32` position per admitted design, plus the per-bin
    // candidates, the frontier rows and a fixed allowance for the
    // query's cache key, span and result. An admitted-size buffer of
    // `(delay, power)` pairs alone would add 16 bytes per design.
    let bound = 4 * admitted + 64 * bins as u64 + 256 * frontier + 16 * 1024;
    assert!(
        bytes <= bound,
        "slice over {admitted} designs allocated {bytes} B, bound {bound} B \
         ({frontier} frontier designs)"
    );
}

#[test]
fn entering_a_seen_span_path_is_allocation_free() {
    // The simulation oracle opens one span per four-design bundle, on
    // pool workers that adopt the dispatching span's path. Once the
    // collector has seen a path, neither opening nor closing a span on
    // it, nor adopting a parent path, may touch the heap. The first pass
    // on each thread warms the collector's keys and the thread's path
    // buffer.
    let nested = || {
        let _outer = udse_obs::span::enter("no_alloc_outer");
        let _inner = udse_obs::span::enter("lanes");
    };
    nested();
    udse_obs::alloc::assert_no_alloc("re-entering a seen span path", nested);
    std::thread::scope(|s| {
        s.spawn(|| {
            let adopted = || {
                let _ctx = udse_obs::span::adopt("no_alloc_outer/dispatch");
                let _inner = udse_obs::span::enter("lanes");
            };
            adopted();
            udse_obs::alloc::assert_no_alloc("adopting a seen parent path", adopted);
        });
    });
    let stats = udse_obs::span::global().snapshot();
    for (path, count) in [("no_alloc_outer/lanes", 2), ("no_alloc_outer/dispatch/lanes", 2)] {
        let (_, s) = stats.iter().find(|(p, _)| p == path).expect("span recorded");
        assert_eq!(s.count, count, "{path}");
    }
}
