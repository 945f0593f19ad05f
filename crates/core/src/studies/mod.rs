//! The paper's design space studies: model validation (Fig 1), pareto
//! frontier analysis (§4), pipeline depth analysis (§5), and
//! multiprocessor heterogeneity analysis (§6).

pub mod depth;
pub mod heterogeneity;
pub mod pareto;
pub mod validation;

use udse_regress::RegressError;
use udse_trace::Benchmark;

use crate::model::PaperModels;
use crate::oracle::Oracle;
use crate::plan::EvalPlan;
use crate::space::{DesignPoint, DesignSpace};

/// Shared knobs for the study drivers.
///
/// The paper's settings are `train_samples = 1000`,
/// `validation_samples = 100`, `eval_stride = 1` (exhaustive), and
/// `delay_bins = 100`; tests shrink all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyConfig {
    /// Number of UAR training samples drawn from the sampling space.
    pub train_samples: usize,
    /// Number of UAR validation samples.
    pub validation_samples: usize,
    /// Stride for "exhaustive" evaluation of the exploration space; 1
    /// evaluates all 262,500 points, k > 1 evaluates every k-th point.
    pub eval_stride: usize,
    /// Delay bins for pareto frontier discretization (§4.2).
    pub delay_bins: usize,
    /// RNG seed for sampling.
    pub seed: u64,
}

impl StudyConfig {
    /// The paper's full-scale settings.
    pub fn paper() -> Self {
        StudyConfig {
            train_samples: 1_000,
            validation_samples: 100,
            eval_stride: 1,
            delay_bins: 100,
            seed: 2007,
        }
    }

    /// Reduced settings for fast tests and examples.
    pub fn quick() -> Self {
        StudyConfig {
            train_samples: 200,
            validation_samples: 25,
            eval_stride: 500,
            delay_bins: 40,
            seed: 2007,
        }
    }
}

/// The nine per-benchmark model pairs trained on one shared UAR sample
/// of the full design space — the artifact every study consumes.
///
/// # Examples
///
/// ```no_run
/// use udse_core::oracle::SimOracle;
/// use udse_core::studies::{StudyConfig, TrainedSuite};
///
/// let oracle = SimOracle::new();
/// let suite = TrainedSuite::train(&oracle, &StudyConfig::paper()).unwrap();
/// println!("perf R^2 (ammp): {:.3}",
///     suite.models(udse_trace::Benchmark::Ammp).performance_model().r_squared());
/// ```
#[derive(Debug, Clone)]
pub struct TrainedSuite {
    models: Vec<PaperModels>,
    samples: Vec<DesignPoint>,
}

impl TrainedSuite {
    /// Samples the design space once and trains all nine benchmark model
    /// pairs against the oracle. The `9 × train_samples` simulations run
    /// as one [`Oracle::evaluate_plan`] batch (see
    /// [`TrainedSuite::training_plan`]) and the nine per-benchmark fits
    /// run through the work pool, so both phases parallelize; the
    /// trained coefficients are identical to a sequential run.
    ///
    /// # Errors
    ///
    /// Propagates the first fitting failure (in [`Benchmark::ALL`] order).
    pub fn train<O: Oracle + ?Sized>(
        oracle: &O,
        config: &StudyConfig,
    ) -> Result<Self, RegressError> {
        let _span = udse_obs::span::enter("train");
        let plan = Self::training_plan(config);
        let samples: Vec<DesignPoint> =
            plan.jobs()[..config.train_samples].iter().map(|&(_, p)| p).collect();
        let observations = {
            let _sim = udse_obs::span::enter("simulate");
            // Throughput over the whole simulate phase — preflight,
            // stream resolution, and the streamed runs together — so the
            // `--min-gauge sim.instructions_per_sec` CI floor watches
            // the decomposed oracle end to end, the way
            // `sweep.designs_per_sec` watches the compiled predictor.
            let insts_before = udse_obs::metrics::counter("sim.instructions").get();
            let started = std::time::Instant::now();
            let obs = oracle.evaluate_plan(&plan);
            let insts = udse_obs::metrics::counter("sim.instructions").get() - insts_before;
            let secs = started.elapsed().as_secs_f64();
            if insts > 0 && secs > 0.0 {
                udse_obs::metrics::gauge("sim.instructions_per_sec").set(insts as f64 / secs);
            }
            obs
        };
        let models = {
            let _fit = udse_obs::span::enter("fit");
            let per_benchmark: Vec<(Benchmark, &[crate::oracle::Metrics])> = Benchmark::ALL
                .iter()
                .zip(observations.chunks(samples.len()))
                .map(|(&b, obs)| (b, obs))
                .collect();
            udse_obs::pool::map(&per_benchmark, |&(b, obs)| {
                udse_obs::debug!("train", "fitting {b:?} on {} samples", samples.len());
                PaperModels::train_from_observations(b, &samples, obs)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
        };
        Ok(TrainedSuite { models, samples })
    }

    /// The training-phase evaluation plan for a configuration: the
    /// benchmarks-major cross product of [`Benchmark::ALL`] with the UAR
    /// training sample, labeled `train`. [`TrainedSuite::train`] runs
    /// exactly this plan, so callers can time or replay the training
    /// batch on its own.
    pub fn training_plan(config: &StudyConfig) -> EvalPlan {
        let samples = DesignSpace::paper().sample_uar(config.train_samples, config.seed);
        EvalPlan::cross_suite("train", &samples)
    }

    /// The models for one benchmark.
    pub fn models(&self, benchmark: Benchmark) -> &PaperModels {
        &self.models[benchmark.id() as usize]
    }

    /// All nine model pairs in [`Benchmark::ALL`] order.
    pub fn all_models(&self) -> &[PaperModels] {
        &self.models
    }

    /// The shared training sample.
    pub fn training_samples(&self) -> &[DesignPoint] {
        &self.samples
    }
}

/// Iterates ~`len / stride` points of the space, spread across *all*
/// parameter dimensions.
///
/// A naive `step_by(stride)` would alias the index radix: e.g. any stride
/// divisible by 5 visits only a single L2 size (L2 is the innermost index
/// digit). Instead the subset walks `index = k * G mod len` for a fixed
/// multiplier `G` coprime to every possible space size, which visits
/// distinct indices with low discrepancy in every dimension. `stride = 1`
/// degenerates to exhaustive iteration in natural order.
pub fn strided_points(
    space: &DesignSpace,
    stride: usize,
) -> impl Iterator<Item = DesignPoint> + '_ {
    (0..strided_count(space, stride)).map(move |k| strided_point(space, stride, k))
}

/// Number of points [`strided_points`] visits: `ceil(len / stride)`.
pub fn strided_count(space: &DesignSpace, stride: usize) -> u64 {
    space.len().div_ceil(stride.max(1) as u64)
}

/// The `k`-th point of the strided walk — random access into the same
/// sequence [`strided_points`] iterates, so chunked parallel sweeps over
/// `0..strided_count` concatenate to the exact sequential visit order.
pub fn strided_point(space: &DesignSpace, stride: usize, k: u64) -> DesignPoint {
    // Prime, larger than any space, and not a factor of 2, 3, 5, or 7 —
    // coprime to 375,000 = 2^3*3*5^6 and 262,500 = 2^2*3*5^5*7.
    const G: u64 = 1_000_003;
    let idx = if stride.max(1) == 1 { k } else { (k.wrapping_mul(G)) % space.len() };
    space.decode(idx).expect("index in range")
}

/// Process-wide allocation count before a sweep starts, or `None` when
/// no counting allocator is installed — pair with [`record_sweep`]'s
/// `allocs_before` argument.
pub(crate) fn sweep_allocs_snapshot() -> Option<u64> {
    udse_obs::alloc::counting().then(|| udse_obs::alloc::stats().allocs)
}

/// Records the sweep throughput metrics: bumps the `sweep.designs`
/// counter by `designs`, sets the `sweep.designs_per_sec` gauge, and —
/// given a [`sweep_allocs_snapshot`] taken before the sweep — sets the
/// `sweep.allocs_per_design` gauge so the CI diff gate
/// (`--tol-resource sweep.allocs_per_design:…`) can hold the compiled
/// sweep to (near) zero heap allocations per design. The allocation
/// delta is process-wide, so concurrent non-sweep work inflates it;
/// per-chunk pool bookkeeping amortizes to ~0 over a real grid walk.
/// Returns the rate (0 when `elapsed_seconds` is not positive).
pub(crate) fn record_sweep(designs: u64, elapsed_seconds: f64, allocs_before: Option<u64>) -> f64 {
    udse_obs::metrics::counter("sweep.designs").add(designs);
    if let Some(before) = allocs_before {
        if designs > 0 {
            let delta = udse_obs::alloc::stats().allocs.saturating_sub(before);
            udse_obs::metrics::gauge("sweep.allocs_per_design").set(delta as f64 / designs as f64);
        }
    }
    let rate = if elapsed_seconds > 0.0 { designs as f64 / elapsed_seconds } else { 0.0 };
    if rate > 0.0 {
        udse_obs::metrics::gauge("sweep.designs_per_sec").set(rate);
    }
    rate
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::oracle::Metrics;

    pub(crate) struct TinyOracle;

    impl Oracle for TinyOracle {
        fn evaluate(&self, b: Benchmark, p: &DesignPoint) -> Metrics {
            // Smooth, benchmark-dependent surface, cheap to evaluate.
            let v = p.predictors();
            let k = 1.0 + b.id() as f64 * 0.2;
            let bips = k * (6.0 / v[0]) * (1.0 + 0.15 * v[1].ln()) + 0.02 * v[6];
            let watts = 4.0 + k + 40.0 / v[0] + 1.2 * v[1] + 0.5 * v[6] + 0.01 * v[2];
            Metrics { bips, watts }
        }
    }

    #[test]
    fn suite_trains_all_nine() {
        let suite = TrainedSuite::train(&TinyOracle, &StudyConfig::quick()).unwrap();
        assert_eq!(suite.all_models().len(), 9);
        assert_eq!(suite.training_samples().len(), StudyConfig::quick().train_samples);
        for b in Benchmark::ALL {
            assert_eq!(suite.models(b).benchmark(), b);
        }
    }

    #[test]
    fn strided_iteration_counts() {
        let space = DesignSpace::exploration();
        let n = strided_points(&space, 500).count();
        assert_eq!(n, 525); // ceil(262500 / 500)
    }

    #[test]
    fn strided_subset_covers_every_dimension_level() {
        // Regression test: a naive step_by(stride) with stride divisible
        // by 5 would visit only one L2 size. The coprime walk must cover
        // every level of every group.
        let space = DesignSpace::exploration();
        for stride in [200usize, 500, 1000] {
            let pts: Vec<DesignPoint> = strided_points(&space, stride).collect();
            for extract in [
                |p: &DesignPoint| p.l2_idx,
                |p: &DesignPoint| p.dl1_idx,
                |p: &DesignPoint| p.il1_idx,
                |p: &DesignPoint| p.width_idx,
            ] {
                let mut levels: Vec<u8> = pts.iter().map(extract).collect();
                levels.sort_unstable();
                levels.dedup();
                assert!(levels.len() >= 3, "stride {stride} aliases a dimension");
            }
            let mut depths: Vec<u32> = pts.iter().map(|p| p.fo4()).collect();
            depths.sort_unstable();
            depths.dedup();
            assert_eq!(depths.len(), 7, "stride {stride} misses depths");
        }
    }

    #[test]
    fn strided_subset_has_distinct_indices() {
        let space = DesignSpace::exploration();
        let mut idx: Vec<u64> =
            strided_points(&space, 97).map(|p| space.encode(&p).unwrap()).collect();
        let n = idx.len();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), n, "coprime walk must not repeat indices");
    }

    #[test]
    fn config_presets() {
        assert_eq!(StudyConfig::paper().train_samples, 1_000);
        assert!(StudyConfig::quick().eval_stride > 1);
    }
}
