//! Exhaustive equivalence of the compiled prediction kernel over the
//! ENTIRE exploration grid: every one of the 262,500 designs, for the
//! sqrt-bips performance and log-watts power models of two stacked
//! benchmarks.
//!
//! Two references, two bounds:
//!
//! - the uncompiled spline models ([`PaperModels::predict_metrics`]) to
//!   ≤1e-12 relative error — the compiled lowering only *regroups* the
//!   same floating-point terms (per-variable partial sums instead of
//!   per-term accumulation), so the drift is a few ulps, orders of
//!   magnitude inside the bound;
//! - each model's own scalar compiled path
//!   ([`CompiledModel::predict_indices`]) bitwise — stacking and the
//!   walker's incremental prefix sums regroup nothing relative to it.

use udse_core::model::{PaperModels, SuiteLanes};
use udse_core::oracle::{Metrics, Oracle};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_regress::CompiledModel;
use udse_trace::Benchmark;

/// Smooth positive response surface so training is fast and both
/// transforms stay in-domain; the equivalence property does not depend
/// on fit quality.
struct SmoothOracle;

impl Oracle for SmoothOracle {
    fn evaluate(&self, b: Benchmark, p: &DesignPoint) -> Metrics {
        let v = p.predictors();
        let tilt = 1.0 + 0.1 * b.id() as f64;
        Metrics {
            bips: (8.0 / v[0]) * (1.0 + 0.2 * v[1].ln()) * (1.0 + 0.002 * v[2])
                + 0.05 * tilt * v[6],
            watts: 4.0 + 40.0 / v[0] + 1.2 * v[1] + 0.5 * v[6] + 0.01 * v[2] + 0.3 * v[4],
        }
    }
}

/// The grid's predictor levels, read off the design points themselves:
/// level `i` of axis `v` is `predictors()[v]` of the point at level `i`
/// on that axis and level 0 elsewhere.
fn grid_levels(space: &DesignSpace) -> Vec<Vec<f64>> {
    let dims = space.dimensions();
    (0..7)
        .map(|v| {
            (0..dims[v])
                .map(|i| {
                    let mut idx = [0u8; 7];
                    idx[v] = i;
                    space.point(idx).expect("level in range").predictors()[v]
                })
                .collect()
        })
        .collect()
}

/// Per-pair `(performance, power)` models compiled one at a time.
type ScalarPairs = Vec<(CompiledModel, CompiledModel)>;

/// Two benchmarks' trained pairs, their stacked lanes, and each model
/// compiled on its own as the scalar reference, in stack order.
fn setup(space: &DesignSpace) -> (Vec<PaperModels>, SuiteLanes, ScalarPairs) {
    let samples = DesignSpace::paper().sample_uar(500, 2007);
    let models: Vec<PaperModels> = [Benchmark::Gzip, Benchmark::Mcf]
        .iter()
        .map(|&b| PaperModels::train(&SmoothOracle, b, &samples).expect("smooth fit succeeds"))
        .collect();
    let lanes = SuiteLanes::compile(&models, space);
    let levels = grid_levels(space);
    let scalar = models
        .iter()
        .map(|m| {
            (
                m.performance_model().compile(&levels).expect("grid compiles"),
                m.power_model().compile(&levels).expect("grid compiles"),
            )
        })
        .collect();
    (models, lanes, scalar)
}

fn assert_bitwise(
    space: &DesignSpace,
    got: &[Metrics],
    scalar: &[(CompiledModel, CompiledModel)],
    p: &DesignPoint,
) {
    let idx = space.indices(p).map(usize::from);
    for (m, (perf, power)) in got.iter().zip(scalar) {
        assert_eq!(m.bips.to_bits(), perf.predict_indices(&idx).to_bits(), "bips at {p:?}");
        assert_eq!(m.watts.to_bits(), power.predict_indices(&idx).to_bits(), "watts at {p:?}");
    }
}

#[test]
fn grid_walker_matches_both_references_over_the_entire_exploration_grid() {
    let space = DesignSpace::exploration();
    let (models, lanes, scalar) = setup(&space);
    let mut walker = lanes.walker(1);

    let mut max_rel_bips = 0.0f64;
    let mut max_rel_watts = 0.0f64;
    let mut visited = 0u64;
    walker.walk(0..space.len(), |p, got| {
        assert_bitwise(&space, got, &scalar, &p);
        for (m, model) in got.iter().zip(&models) {
            let naive = model.predict_metrics(&p);
            max_rel_bips = max_rel_bips.max((m.bips - naive.bips).abs() / naive.bips.abs());
            max_rel_watts = max_rel_watts.max((m.watts - naive.watts).abs() / naive.watts.abs());
        }
        visited += 1;
    });
    assert_eq!(visited, space.len(), "must cover the whole grid");
    assert!(max_rel_bips <= 1e-12, "walker sqrt-bips max relative error {max_rel_bips:e} > 1e-12");
    assert!(
        max_rel_watts <= 1e-12,
        "walker log-watts max relative error {max_rel_watts:e} > 1e-12"
    );
}

#[test]
fn point_kernel_matches_scalar_compiled_models_bitwise() {
    // The strided walk (quick-mode sweeps) predicts each point through
    // `SuiteLanes::predict_metrics_into` rather than prefix sums; it must
    // hit the same bits as the scalar compiled path too.
    let space = DesignSpace::exploration();
    let (_, lanes, scalar) = setup(&space);
    let stride = 97;
    let mut walker = lanes.walker(stride);
    let mut visited = 0u64;
    walker.walk(0..udse_core::studies::strided_count(&space, stride), |p, got| {
        assert_bitwise(&space, got, &scalar, &p);
        visited += 1;
    });
    assert_eq!(visited, space.len().div_ceil(stride as u64));
}
