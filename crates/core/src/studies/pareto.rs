//! Pareto frontier analysis (paper §4, Figures 2–4, Table 2).

use std::collections::HashMap;

use udse_stats::ErrorSummary;
use udse_trace::Benchmark;

use crate::model::SuiteLanes;
use crate::oracle::{Metrics, Oracle};
use crate::plan::EvalPlan;
use crate::query::{Engine, Query};
use crate::space::DesignPoint;
use crate::studies::{strided_count, StudyConfig};

/// One design with its regression-predicted delay and power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedDesign {
    /// The design point.
    pub point: DesignPoint,
    /// Predicted metrics.
    pub predicted: Metrics,
}

/// The Figure 2 artifact: the exhaustively predicted design space for one
/// benchmark, with per-(depth, width) cluster summaries.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// The benchmark characterized.
    pub benchmark: Benchmark,
    /// Every evaluated design with predicted delay/power.
    pub designs: Vec<PredictedDesign>,
    /// Summary per (depth, width) cluster: FO4, width, delay range,
    /// power range, count.
    pub clusters: Vec<ClusterSummary>,
}

/// Delay/power envelope of one depth-width cluster of the space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSummary {
    /// Pipeline depth (FO4 per stage).
    pub fo4: u32,
    /// Decode width.
    pub width: u32,
    /// Minimum predicted delay in the cluster.
    pub delay_min: f64,
    /// Maximum predicted delay in the cluster.
    pub delay_max: f64,
    /// Minimum predicted power in the cluster.
    pub power_min: f64,
    /// Maximum predicted power in the cluster.
    pub power_max: f64,
    /// Designs in the cluster.
    pub count: usize,
}

/// Slices one benchmark out of the engine's memoized full-space
/// characterization — the paper's §4.1 "complete characterization".
///
/// The underlying fused walk runs once per engine (see
/// [`Engine::full_sweep`]) and fans out across the work pool in
/// contiguous chunks; chunk results concatenate in range order, so
/// `designs` is identical to a sequential walk regardless of worker
/// count.
pub fn characterize(engine: &Engine, benchmark: Benchmark) -> Characterization {
    let sweep = engine.full_sweep();
    let designs = sweep[benchmark.id() as usize].clone();
    let clusters = build_clusters(&designs);
    Characterization { benchmark, designs, clusters }
}

/// Characterizes the space for *all nine benchmarks* from the engine's
/// one fused grid walk. Per benchmark, `designs` is bitwise-identical to
/// a separate single-model sweep — only the walk overhead is amortized
/// (the `compiled_predict_sweep` criterion group measures the speedup).
pub fn characterize_all(engine: &Engine) -> Vec<Characterization> {
    Benchmark::ALL.iter().map(|&b| characterize(engine, b)).collect()
}

/// Grid points below which a sweep walks on the calling thread: spawning
/// the pool's workers costs more than the walk they would share (a
/// 525-point quick-mode sweep spent over half its wall in the spawn).
const MIN_PARALLEL_POINTS: u64 = 2048;

/// The shared fused-sweep inner loop: walks the strided space once and
/// materializes every visited point's predicted metrics for every stacked
/// pair, chunk-parallel through [`udse_obs::pool::map_chunks`]. Chunk
/// results concatenate in range order, so each pair's `Vec` is identical
/// to a sequential walk regardless of worker count.
pub(crate) fn sweep_designs(lanes: &SuiteLanes, stride: usize) -> Vec<Vec<PredictedDesign>> {
    let total = strided_count(lanes.space(), stride);
    let pairs = lanes.pairs();
    let walk_chunk = |range: std::ops::Range<u64>| {
        let _chunk = udse_obs::span::enter("chunk");
        let chunk_len = (range.end - range.start) as usize;
        let mut per_pair: Vec<Vec<PredictedDesign>> =
            (0..pairs).map(|_| Vec::with_capacity(chunk_len)).collect();
        let mut walker = lanes.walker(stride);
        walker.walk(range, |point, metrics| {
            for (out, m) in per_pair.iter_mut().zip(metrics) {
                out.push(PredictedDesign { point, predicted: *m });
            }
        });
        per_pair
    };
    let chunks = if total < MIN_PARALLEL_POINTS {
        vec![walk_chunk(0..total)]
    } else {
        udse_obs::pool::map_chunks(total, walk_chunk)
    };
    // Concatenate each pair's chunk slices in range order.
    let mut designs: Vec<Vec<PredictedDesign>> =
        (0..pairs).map(|_| Vec::with_capacity(total as usize)).collect();
    for chunk in chunks {
        for (out, part) in designs.iter_mut().zip(chunk) {
            out.extend(part);
        }
    }
    designs
}

/// Cluster summaries keyed by (depth, width): one hash lookup per design
/// instead of a linear scan over the cluster list, sorted at the end.
fn build_clusters(designs: &[PredictedDesign]) -> Vec<ClusterSummary> {
    let mut by_key: HashMap<(u32, u32), ClusterSummary> = HashMap::new();
    for d in designs {
        let fo4 = d.point.fo4();
        let width = d.point.decode_width();
        let delay = d.predicted.delay_seconds();
        let power = d.predicted.watts;
        by_key
            .entry((fo4, width))
            .and_modify(|c| {
                c.delay_min = c.delay_min.min(delay);
                c.delay_max = c.delay_max.max(delay);
                c.power_min = c.power_min.min(power);
                c.power_max = c.power_max.max(power);
                c.count += 1;
            })
            .or_insert(ClusterSummary {
                fo4,
                width,
                delay_min: delay,
                delay_max: delay,
                power_min: power,
                power_max: power,
                count: 1,
            });
    }
    let mut clusters: Vec<ClusterSummary> = by_key.into_values().collect();
    clusters.sort_by_key(|c| (c.fo4, c.width));
    clusters
}

/// The Figure 3 artifact: the regression-predicted pareto frontier, with
/// simulated ground truth for each frontier design.
#[derive(Debug, Clone)]
pub struct FrontierStudy {
    /// The benchmark analyzed.
    pub benchmark: Benchmark,
    /// Frontier designs ordered by increasing predicted delay.
    pub designs: Vec<DesignPoint>,
    /// Model-predicted metrics per frontier design.
    pub predicted: Vec<Metrics>,
    /// Simulated metrics per frontier design.
    pub simulated: Vec<Metrics>,
}

impl FrontierStudy {
    /// Asks the engine for the predicted Pareto slice and simulates every
    /// frontier design (the paper's Fig 3 overlay).
    pub fn run<O: Oracle + ?Sized>(
        oracle: &O,
        engine: &Engine,
        benchmark: Benchmark,
        config: &StudyConfig,
    ) -> Self {
        let _span = udse_obs::span::enter("frontier");
        let slice = engine
            .execute(&Query::pareto(benchmark, vec![], config.eval_stride, config.delay_bins))
            .expect("unconstrained pareto slice cannot fail");
        let rows = slice.frontier().expect("pareto query yields a frontier");
        let designs: Vec<DesignPoint> = rows.iter().map(|r| r.point).collect();
        let predicted: Vec<Metrics> = rows.iter().map(|r| r.predicted).collect();
        // Frontier sims are independent — run them as one parallel batch.
        let plan = EvalPlan::from_jobs(
            "pareto.frontier",
            designs.iter().map(|p| (benchmark, *p)).collect(),
        );
        let simulated = oracle.evaluate_plan(&plan);
        FrontierStudy { benchmark, designs, predicted, simulated }
    }

    /// The Figure 4 artifact: error distributions of the frontier
    /// predictions, `(performance, power)`.
    ///
    /// # Panics
    ///
    /// Panics if the frontier is empty (cannot happen for frontiers built
    /// by [`FrontierStudy::run`]).
    pub fn errors(&self) -> (ErrorSummary, ErrorSummary) {
        let obs_b: Vec<f64> = self.simulated.iter().map(|m| m.bips).collect();
        let pred_b: Vec<f64> = self.predicted.iter().map(|m| m.bips).collect();
        let obs_w: Vec<f64> = self.simulated.iter().map(|m| m.watts).collect();
        let pred_w: Vec<f64> = self.predicted.iter().map(|m| m.watts).collect();
        (ErrorSummary::from_pairs(&obs_b, &pred_b), ErrorSummary::from_pairs(&obs_w, &pred_w))
    }
}

/// The Table 2 artifact: the `bips^3/w`-maximizing design for one
/// benchmark, with prediction errors against simulation.
#[derive(Debug, Clone, Copy)]
pub struct EfficiencyOptimum {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The predicted-optimal design.
    pub point: DesignPoint,
    /// Model-predicted metrics at the optimum.
    pub predicted: Metrics,
    /// Simulated metrics at the optimum.
    pub simulated: Metrics,
}

impl EfficiencyOptimum {
    /// Signed relative delay error `(obs - pred) / pred` (Table 2 signs).
    pub fn delay_error(&self) -> f64 {
        let pred = self.predicted.delay_seconds();
        (self.simulated.delay_seconds() - pred) / pred
    }

    /// Signed relative power error.
    pub fn power_error(&self) -> f64 {
        (self.simulated.watts - self.predicted.watts) / self.predicted.watts
    }
}

/// Finds the predicted `bips^3/w` optimum over the exploration space and
/// validates it by simulation (one row of Table 2). The engine's argmax
/// sweep is compiled and chunk-parallel with a boundary-independent
/// tie-break, so the chosen design matches a sequential `max_by` exactly;
/// nine per-benchmark requests cost one fused walk plus eight cache hits.
pub fn efficiency_optimum<O: Oracle + ?Sized>(
    oracle: &O,
    engine: &Engine,
    benchmark: Benchmark,
    config: &StudyConfig,
) -> EfficiencyOptimum {
    let _span = udse_obs::span::enter("optimum");
    let result = engine
        .execute(&Query::optimum(Some(benchmark), vec![], config.eval_stride))
        .expect("unconstrained efficiency optimum cannot fail");
    let entry = result.optima().expect("optimum query yields optima")[0].clone();
    let predicted = entry.predicted.expect("efficiency optimum carries predicted metrics");
    let simulated = oracle.evaluate(benchmark, &entry.point);
    EfficiencyOptimum { benchmark, point: entry.point, predicted, simulated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;
    use crate::studies::tests::TinyOracle;
    use crate::studies::TrainedSuite;

    fn setup() -> (Engine, StudyConfig) {
        let config = StudyConfig::quick();
        let suite = TrainedSuite::train(&TinyOracle, &config).unwrap();
        (Engine::new(suite, &config), config)
    }

    #[test]
    fn characterization_covers_all_depth_width_clusters() {
        let (engine, _config) = setup();
        let ch = characterize(&engine, Benchmark::Ammp);
        // 7 depths x 3 widths = 21 clusters.
        assert_eq!(ch.clusters.len(), 21);
        let total: usize = ch.clusters.iter().map(|c| c.count).sum();
        assert_eq!(total, ch.designs.len());
        for c in &ch.clusters {
            assert!(c.delay_min <= c.delay_max);
            assert!(c.power_min <= c.power_max);
        }
    }

    #[test]
    fn engine_characterization_matches_separate_sweeps_bitwise() {
        let (engine, config) = setup();
        let space = DesignSpace::exploration();
        let fused = characterize_all(&engine);
        assert_eq!(fused.len(), 9);
        for (b, ch) in Benchmark::ALL.iter().zip(&fused) {
            assert_eq!(ch.benchmark, *b);
            // Reference: a fresh single-pair lane sweep of the same
            // strided space, outside the engine.
            let lanes =
                SuiteLanes::compile(std::slice::from_ref(engine.suite().models(*b)), &space);
            let mut per_pair = sweep_designs(&lanes, config.eval_stride);
            let separate = per_pair.pop().expect("one pair");
            assert_eq!(ch.designs.len(), separate.len());
            for (f, s) in ch.designs.iter().zip(&separate) {
                assert_eq!(f.point, s.point);
                assert_eq!(f.predicted.bips.to_bits(), s.predicted.bips.to_bits());
                assert_eq!(f.predicted.watts.to_bits(), s.predicted.watts.to_bits());
            }
            assert_eq!(ch.clusters, build_clusters(&separate));
        }
    }

    #[test]
    fn frontier_predictions_are_non_dominated() {
        let (engine, config) = setup();
        let fs = FrontierStudy::run(&TinyOracle, &engine, Benchmark::Mcf, &config);
        assert!(!fs.designs.is_empty());
        // Monotone skyline.
        for w in fs.predicted.windows(2) {
            assert!(w[0].delay_seconds() < w[1].delay_seconds());
            assert!(w[0].watts > w[1].watts);
        }
        let (perf_err, power_err) = fs.errors();
        // Smooth oracle: frontier errors should be small.
        assert!(perf_err.median() < 0.1);
        assert!(power_err.median() < 0.1);
    }

    #[test]
    fn efficiency_optimum_is_at_least_as_good_as_random_points() {
        let (engine, config) = setup();
        let space = DesignSpace::exploration();
        let models = engine.suite().models(Benchmark::Gzip);
        let opt = efficiency_optimum(&TinyOracle, &engine, Benchmark::Gzip, &config);
        // The optimum is the argmax over the strided evaluation set, so it
        // must beat every point of that same set.
        for p in crate::studies::strided_points(&space, config.eval_stride).take(200) {
            let eff = models.predict_efficiency(&p);
            assert!(opt.predicted.bips_cubed_per_watt() >= eff - 1e-12);
        }
        // Errors are finite and defined.
        assert!(opt.delay_error().is_finite());
        assert!(opt.power_error().is_finite());
    }
}
