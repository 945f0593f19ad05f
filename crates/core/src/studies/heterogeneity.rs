//! Multiprocessor heterogeneity analysis (paper §6, Table 4, Figures
//! 8–9).
//!
//! Clusters the nine per-benchmark `bips³/w`-optimal architectures with
//! K-means in the normalized design-parameter space; centroids (snapped
//! back onto the design grid) are the *compromise architectures* of a
//! K-core heterogeneous multiprocessor, and the efficiency of each
//! benchmark on its compromise core — relative to the POWER4-like
//! baseline — quantifies the benefit of K degrees of heterogeneity.

use std::collections::HashMap;

use udse_cluster::{KMeans, MinMaxScaler};
use udse_trace::Benchmark;

use crate::baseline::baseline_point;
use crate::oracle::{Metrics, Oracle};
use crate::query::{Engine, Query};
use crate::space::{DesignPoint, DesignSpace};
use crate::studies::TrainedSuite;

/// The nine per-benchmark predicted-optimal architectures (the paper's
/// "benchmark architectures", Table 2's design columns).
#[derive(Debug, Clone)]
pub struct BenchmarkArchitectures {
    /// `(benchmark, predicted bips³/w-optimal design)` pairs in
    /// [`Benchmark::ALL`] order.
    pub optima: Vec<(Benchmark, DesignPoint)>,
}

impl BenchmarkArchitectures {
    /// Finds each benchmark's predicted `bips³/w` optimum over the
    /// exploration space via one unconstrained-optimum query. All nine
    /// argmaxes come out of *one* fused, chunk-parallel grid walk over
    /// the stacked suite lanes with a boundary-independent per-benchmark
    /// tie-break, so the nine optima match sequential `max_by` scans
    /// exactly; repeat calls are LRU cache hits.
    pub fn find(engine: &Engine) -> Self {
        let _span = udse_obs::span::enter("optima");
        let result = engine
            .execute(&Query::optimum(None, vec![], engine.stride()))
            .expect("unconstrained suite optima cannot fail");
        let optima = result
            .optima()
            .expect("optimum query yields optima")
            .iter()
            .map(|e| (e.benchmark.expect("per-benchmark entry"), e.point))
            .collect();
        BenchmarkArchitectures { optima }
    }

    /// The design for one benchmark.
    pub fn for_benchmark(&self, b: Benchmark) -> DesignPoint {
        self.optima[b.id() as usize].1
    }
}

/// One compromise core: the snapped centroid architecture and the
/// benchmarks mapped to it.
#[derive(Debug, Clone)]
pub struct CompromiseCluster {
    /// The compromise architecture (centroid snapped to the design grid).
    pub architecture: DesignPoint,
    /// Benchmarks assigned to this core.
    pub members: Vec<Benchmark>,
    /// Mean predicted delay of members running on this core (seconds).
    pub avg_delay: f64,
    /// Mean predicted power of members running on this core (watts).
    pub avg_power: f64,
}

/// Clusters the benchmark architectures into `k` compromise cores
/// (paper §6.1; Table 4 is `k = 4`). Each architecture enters K-means as
/// its [`DesignPoint::predictors`] vector (caches on a log2 scale),
/// min-max normalized; each centroid is scaled back and snapped to the
/// nearest exploration-space design ([`DesignSpace::nearest`]).
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of benchmarks.
pub fn compromise_clusters(
    suite: &TrainedSuite,
    optima: &BenchmarkArchitectures,
    k: usize,
    seed: u64,
) -> Vec<CompromiseCluster> {
    assert!(k >= 1 && k <= optima.optima.len(), "k must be in 1..=9");
    let space = DesignSpace::exploration();
    let vectors: Vec<Vec<f64>> = optima.optima.iter().map(|(_, p)| p.predictors()).collect();
    let scaler = MinMaxScaler::fit(&vectors);
    let normalized = scaler.transform_all(&vectors);
    let clustering = KMeans::new(k).with_restarts(16).run(&normalized, seed);
    (0..k)
        .map(|c| {
            let raw_centroid = scaler.inverse(&clustering.centroids()[c]);
            let architecture = space.nearest(&raw_centroid);
            let members: Vec<Benchmark> =
                clustering.members(c).into_iter().map(|i| optima.optima[i].0).collect();
            let metrics: Vec<Metrics> =
                members.iter().map(|&b| suite.models(b).predict_metrics(&architecture)).collect();
            let n = metrics.len().max(1) as f64;
            CompromiseCluster {
                architecture,
                members,
                avg_delay: metrics.iter().map(Metrics::delay_seconds).sum::<f64>() / n,
                avg_power: metrics.iter().map(|m| m.watts).sum::<f64>() / n,
            }
        })
        .collect()
}

/// The Figure 9 artifact: per-benchmark efficiency gains over the
/// baseline as heterogeneity (cluster count) grows.
#[derive(Debug, Clone)]
pub struct HeterogeneityGains {
    /// Cluster counts: 0 (baseline), 1 (homogeneous compromise), ..., 9
    /// (one core per benchmark).
    pub k_values: Vec<usize>,
    /// `gains[k_index][bench_id]`: efficiency on the assigned core
    /// relative to efficiency on the baseline core.
    pub gains: Vec<Vec<f64>>,
}

impl HeterogeneityGains {
    /// Average gain across the suite at each K.
    pub fn averages(&self) -> Vec<f64> {
        self.gains.iter().map(|g| g.iter().sum::<f64>() / g.len() as f64).collect()
    }

    /// The theoretical upper bound: the average gain at K = 9 (every
    /// benchmark on its own optimal core).
    pub fn upper_bound(&self) -> f64 {
        *self.averages().last().expect("K list non-empty")
    }
}

/// Computes gains using a metric source: either model predictions
/// (Fig 9a) or simulation (Fig 9b).
fn gains_with<F>(
    optima: &BenchmarkArchitectures,
    suite: &TrainedSuite,
    seed: u64,
    mut efficiency: F,
) -> HeterogeneityGains
where
    F: FnMut(Benchmark, &DesignPoint) -> f64,
{
    let base = baseline_point();
    let base_eff: Vec<f64> = Benchmark::ALL.iter().map(|&b| efficiency(b, &base)).collect();
    let mut k_values = vec![0usize];
    let mut gains = vec![vec![1.0; 9]];
    for k in 1..=9 {
        let clusters = compromise_clusters(suite, optima, k, seed);
        let mut row = vec![0.0; 9];
        for cluster in &clusters {
            for &b in &cluster.members {
                row[b.id() as usize] =
                    efficiency(b, &cluster.architecture) / base_eff[b.id() as usize];
            }
        }
        k_values.push(k);
        gains.push(row);
    }
    HeterogeneityGains { k_values, gains }
}

/// Predicted gains (Fig 9a): every efficiency from the regression models.
pub fn predicted_gains(
    suite: &TrainedSuite,
    optima: &BenchmarkArchitectures,
    seed: u64,
) -> HeterogeneityGains {
    gains_with(optima, suite, seed, |b, p| suite.models(b).predict_efficiency(p))
}

/// Simulated gains (Fig 9b): every efficiency from the oracle.
///
/// The clusterings themselves are model-driven and cheap, so they run
/// first to enumerate every `(benchmark, architecture)` pair Fig 9b
/// needs; those simulate as one parallel [`Oracle::evaluate_many`] batch
/// and the gain table replays from the lookup.
pub fn simulated_gains<O: Oracle + ?Sized>(
    oracle: &O,
    suite: &TrainedSuite,
    optima: &BenchmarkArchitectures,
    seed: u64,
) -> HeterogeneityGains {
    let base = baseline_point();
    let mut jobs: Vec<(Benchmark, DesignPoint)> =
        Benchmark::ALL.iter().map(|&b| (b, base)).collect();
    for k in 1..=9 {
        for cluster in compromise_clusters(suite, optima, k, seed) {
            for &b in &cluster.members {
                let job = (b, cluster.architecture);
                if !jobs.contains(&job) {
                    jobs.push(job);
                }
            }
        }
    }
    let plan = crate::plan::EvalPlan::from_jobs("heterogeneity.gains", jobs);
    let simulated: HashMap<(Benchmark, DesignPoint), Metrics> =
        plan.jobs().iter().copied().zip(oracle.evaluate_plan(&plan)).collect();
    gains_with(optima, suite, seed, |b, p| simulated[&(b, *p)].bips_cubed_per_watt())
}

/// Simulates every member benchmark on its compromise core and records
/// the model-vs-simulation error (the paper's Table 4 compromise-error
/// discussion) as `heterogeneity.compromise.bips` / `.watts`
/// [`udse_obs::QualityRecord`]s — the same collector validation feeds.
/// Returns the suite-mean absolute relative `(bips, watts)` errors.
pub fn compromise_errors<O: Oracle + ?Sized>(
    oracle: &O,
    suite: &TrainedSuite,
    clusters: &[CompromiseCluster],
) -> (f64, f64) {
    let jobs: Vec<(Benchmark, DesignPoint)> =
        clusters.iter().flat_map(|c| c.members.iter().map(|&b| (b, c.architecture))).collect();
    let plan = crate::plan::EvalPlan::from_jobs("heterogeneity.compromise", jobs);
    let simulated = oracle.evaluate_plan(&plan);
    let mut bips_signed = Vec::with_capacity(plan.len());
    let mut watts_signed = Vec::with_capacity(plan.len());
    for ((b, arch), sim) in plan.jobs().iter().zip(&simulated) {
        let pred = suite.models(*b).predict_metrics(arch);
        bips_signed.push((sim.bips - pred.bips) / pred.bips);
        watts_signed.push((sim.watts - pred.watts) / pred.watts);
    }
    udse_obs::quality::record(udse_obs::QualityRecord::from_signed_errors(
        "heterogeneity.compromise.bips",
        &bips_signed,
    ));
    udse_obs::quality::record(udse_obs::QualityRecord::from_signed_errors(
        "heterogeneity.compromise.watts",
        &watts_signed,
    ));
    let mean_abs = |v: &[f64]| v.iter().map(|e| e.abs()).sum::<f64>() / v.len().max(1) as f64;
    (mean_abs(&bips_signed), mean_abs(&watts_signed))
}

/// The Figure 8 artifact: delay/power of each benchmark on its own
/// optimal core, plus each K=4 compromise core's per-member points.
#[derive(Debug, Clone)]
pub struct ScatterData {
    /// `(benchmark, predicted metrics on its own optimum)`.
    pub optima_points: Vec<(Benchmark, Metrics)>,
    /// Per compromise cluster: `(architecture, per-member (benchmark,
    /// predicted metrics))`.
    pub compromise_points: Vec<(DesignPoint, Vec<(Benchmark, Metrics)>)>,
}

/// Builds the Figure 8 scatter data for a given K.
pub fn scatter_data(
    suite: &TrainedSuite,
    optima: &BenchmarkArchitectures,
    k: usize,
    seed: u64,
) -> ScatterData {
    let optima_points =
        optima.optima.iter().map(|&(b, p)| (b, suite.models(b).predict_metrics(&p))).collect();
    let compromise_points = compromise_clusters(suite, optima, k, seed)
        .into_iter()
        .map(|c| {
            let pts = c
                .members
                .iter()
                .map(|&b| (b, suite.models(b).predict_metrics(&c.architecture)))
                .collect();
            (c.architecture, pts)
        })
        .collect();
    ScatterData { optima_points, compromise_points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::tests::TinyOracle;
    use crate::studies::StudyConfig;

    fn setup() -> (TrainedSuite, BenchmarkArchitectures, StudyConfig) {
        let config = StudyConfig::quick();
        let suite = TrainedSuite::train(&TinyOracle, &config).unwrap();
        let engine = Engine::new(suite.clone(), &config);
        let optima = BenchmarkArchitectures::find(&engine);
        (suite, optima, config)
    }

    #[test]
    fn nine_optima_found() {
        let (_suite, optima, _) = setup();
        assert_eq!(optima.optima.len(), 9);
        for (i, (b, _)) in optima.optima.iter().enumerate() {
            assert_eq!(b.id() as usize, i);
        }
        let _ = optima.for_benchmark(Benchmark::Mcf);
    }

    #[test]
    fn clusters_partition_the_suite() {
        let (suite, optima, _) = setup();
        for k in [1usize, 4, 9] {
            let clusters = compromise_clusters(&suite, &optima, k, 7);
            assert_eq!(clusters.len(), k);
            let mut all: Vec<Benchmark> = clusters.iter().flat_map(|c| c.members.clone()).collect();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), 9, "every benchmark appears exactly once");
        }
    }

    #[test]
    fn k9_assigns_each_benchmark_an_optimal_architecture() {
        // With K = 9 every cluster's centroid coincides with its members'
        // (possibly shared) optimum: benchmarks with identical optima may
        // legitimately land in one cluster, but each member's assigned
        // architecture must equal its own optimum.
        let (suite, optima, _) = setup();
        let clusters = compromise_clusters(&suite, &optima, 9, 7);
        for c in &clusters {
            for &b in &c.members {
                assert_eq!(c.architecture, optima.for_benchmark(b));
            }
        }
    }

    #[test]
    fn gains_baseline_is_one_and_k9_is_upper_bound() {
        let (suite, optima, _) = setup();
        let g = predicted_gains(&suite, &optima, 3);
        assert_eq!(g.k_values, (0..=9).collect::<Vec<_>>());
        assert!(g.gains[0].iter().all(|&x| (x - 1.0).abs() < 1e-12));
        let avgs = g.averages();
        // K=9 is the theoretical maximum of the *averages* among cluster
        // counts (each benchmark on its own optimum).
        let max_avg = avgs.iter().cloned().fold(f64::MIN, f64::max);
        assert!((g.upper_bound() - max_avg).abs() < 1e-9 || g.upper_bound() >= max_avg - 1e-6);
        // Every benchmark at K=9 does at least as well as at baseline.
        assert!(g.gains[9].iter().all(|&x| x >= 1.0 - 1e-9));
    }

    #[test]
    fn simulated_gains_close_to_predicted_for_smooth_oracle() {
        let (suite, optima, _) = setup();
        let gp = predicted_gains(&suite, &optima, 3);
        let gs = simulated_gains(&TinyOracle, &suite, &optima, 3);
        let (ap, as_) = (gp.averages(), gs.averages());
        for (p, s) in ap.iter().zip(&as_) {
            assert!((p - s).abs() / s < 0.25, "pred {p} vs sim {s}");
        }
    }

    #[test]
    fn compromise_errors_record_quality_telemetry() {
        let (suite, optima, _) = setup();
        let clusters = compromise_clusters(&suite, &optima, 4, 7);
        let (bips_err, watts_err) = compromise_errors(&TinyOracle, &suite, &clusters);
        // TinyOracle is smooth, so the compromise predictions are close.
        assert!(bips_err < 0.1, "bips compromise error {bips_err}");
        assert!(watts_err < 0.1, "watts compromise error {watts_err}");
        let quality = udse_obs::quality::global().snapshot();
        for key in ["heterogeneity.compromise.bips", "heterogeneity.compromise.watts"] {
            let rec = quality.iter().find(|r| r.key == key).expect("compromise quality record");
            assert_eq!(rec.n, 9, "one error per benchmark on its compromise core");
        }
    }

    #[test]
    fn scatter_data_shapes() {
        let (suite, optima, _) = setup();
        let sd = scatter_data(&suite, &optima, 4, 7);
        assert_eq!(sd.optima_points.len(), 9);
        assert_eq!(sd.compromise_points.len(), 4);
        let member_total: usize = sd.compromise_points.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(member_total, 9);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn k_zero_panics() {
        let (suite, optima, _) = setup();
        let _ = compromise_clusters(&suite, &optima, 0, 1);
    }
}
