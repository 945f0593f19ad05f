//! Model validation on random designs (paper §3.4, Figure 1).
//!
//! Draws validation designs uniformly at random, simulates them, and
//! summarizes the `|obs - pred| / pred` error distributions per benchmark
//! for both the performance and the power model.

use udse_stats::{median, ErrorSummary};
use udse_trace::Benchmark;

use crate::oracle::Oracle;
use crate::plan::EvalPlan;
use crate::query::{Engine, Query};
use crate::space::DesignSpace;
use crate::studies::StudyConfig;

/// Per-benchmark validation errors for one model kind.
#[derive(Debug, Clone)]
pub struct BenchmarkValidation {
    /// The benchmark validated.
    pub benchmark: Benchmark,
    /// Performance-model error distribution.
    pub performance: ErrorSummary,
    /// Power-model error distribution.
    pub power: ErrorSummary,
}

/// The Figure 1 artifact: error distributions per benchmark plus overall
/// medians.
#[derive(Debug, Clone)]
pub struct ValidationStudy {
    /// One entry per benchmark in [`Benchmark::ALL`] order.
    pub per_benchmark: Vec<BenchmarkValidation>,
    /// Median of all performance errors pooled across benchmarks.
    pub overall_performance_median: f64,
    /// Median of all power errors pooled across benchmarks.
    pub overall_power_median: f64,
}

impl ValidationStudy {
    /// Runs the validation: `config.validation_samples` UAR designs from
    /// the *sampling* space, simulated for every benchmark and compared
    /// against the trained models.
    pub fn run<O: Oracle + ?Sized>(oracle: &O, engine: &Engine, config: &StudyConfig) -> Self {
        let _span = udse_obs::span::enter("validation");
        // Offset seed so validation never reuses training designs.
        let points =
            DesignSpace::paper().sample_uar(config.validation_samples, config.seed ^ 0xA11D);
        Self::run_on_points(oracle, engine, &points)
    }

    /// Runs the validation on an explicit point set. Predictions come
    /// from [`Query::Point`] executions, which use the uncompiled models
    /// — bitwise-identical to calling `PaperModels::predict_metrics`
    /// directly.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn run_on_points<O: Oracle + ?Sized>(
        oracle: &O,
        engine: &Engine,
        points: &[crate::space::DesignPoint],
    ) -> Self {
        assert!(!points.is_empty(), "validation needs at least one point");
        // One parallel batch for the full benchmarks x points cross
        // product; results index as [bi * points.len() + pi].
        let plan = EvalPlan::cross_suite("validation", points);
        let simulated = oracle.evaluate_plan(&plan);
        let mut per_benchmark = Vec::with_capacity(9);
        let mut all_perf_signed = Vec::new();
        let mut all_power_signed = Vec::new();
        for (bi, &b) in Benchmark::ALL.iter().enumerate() {
            let models = engine.suite().models(b);
            let mut obs_bips = Vec::with_capacity(points.len());
            let mut pred_bips = Vec::with_capacity(points.len());
            let mut obs_watts = Vec::with_capacity(points.len());
            let mut pred_watts = Vec::with_capacity(points.len());
            for (pi, p) in points.iter().enumerate() {
                let m = simulated[bi * points.len() + pi];
                let pred = engine
                    .execute(&Query::point(b, *p))
                    .expect("point queries cannot fail")
                    .point_metrics()
                    .expect("point query yields metrics");
                obs_bips.push(m.bips);
                pred_bips.push(pred.bips);
                obs_watts.push(m.watts);
                pred_watts.push(pred.watts);
            }
            let performance = ErrorSummary::from_pairs(&obs_bips, &pred_bips);
            let power = ErrorSummary::from_pairs(&obs_watts, &pred_watts);
            let perf_signed: Vec<f64> =
                obs_bips.iter().zip(&pred_bips).map(|(o, p)| (o - p) / p).collect();
            let power_signed: Vec<f64> =
                obs_watts.iter().zip(&pred_watts).map(|(o, p)| (o - p) / p).collect();
            // Per-benchmark model-quality telemetry, persisted in the
            // run manifest and gated by `udse-inspect diff`.
            udse_obs::quality::record(
                udse_obs::QualityRecord::from_signed_errors(
                    &format!("validation.{}.bips", b.name()),
                    &perf_signed,
                )
                .with_r_squared(models.performance_model().r_squared()),
            );
            udse_obs::quality::record(
                udse_obs::QualityRecord::from_signed_errors(
                    &format!("validation.{}.watts", b.name()),
                    &power_signed,
                )
                .with_r_squared(models.power_model().r_squared()),
            );
            all_perf_signed.extend(perf_signed);
            all_power_signed.extend(power_signed);
            per_benchmark.push(BenchmarkValidation { benchmark: b, performance, power });
        }
        udse_obs::quality::record(udse_obs::QualityRecord::from_signed_errors(
            "validation.pooled.bips",
            &all_perf_signed,
        ));
        udse_obs::quality::record(udse_obs::QualityRecord::from_signed_errors(
            "validation.pooled.watts",
            &all_power_signed,
        ));
        let all_perf: Vec<f64> = all_perf_signed.iter().map(|e| e.abs()).collect();
        let all_power: Vec<f64> = all_power_signed.iter().map(|e| e.abs()).collect();
        ValidationStudy {
            per_benchmark,
            overall_performance_median: median(&all_perf),
            overall_power_median: median(&all_power),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::tests::TinyOracle;
    use crate::studies::TrainedSuite;

    #[test]
    fn validation_on_smooth_oracle_is_accurate() {
        let config = StudyConfig::quick();
        let suite = TrainedSuite::train(&TinyOracle, &config).unwrap();
        let engine = Engine::new(suite, &config);
        let study = ValidationStudy::run(&TinyOracle, &engine, &config);
        assert_eq!(study.per_benchmark.len(), 9);
        // The fake surface is smooth, so spline models should nail it.
        assert!(
            study.overall_performance_median < 0.05,
            "median perf error {}",
            study.overall_performance_median
        );
        assert!(study.overall_power_median < 0.05);
        for bv in &study.per_benchmark {
            assert!(bv.performance.boxplot.n > 0);
            assert!(bv.power.median() >= 0.0);
        }
        // The run left quality telemetry behind for every benchmark plus
        // the pooled distributions, with R² attached to model records.
        let quality = udse_obs::quality::global().snapshot();
        for bv in &study.per_benchmark {
            for response in ["bips", "watts"] {
                let key = format!("validation.{}.{}", bv.benchmark.name(), response);
                let rec = quality.iter().find(|r| r.key == key).expect("per-benchmark record");
                assert_eq!(rec.n as usize, config.validation_samples);
                assert!(rec.r_squared.is_finite(), "model records carry R²");
            }
        }
        let pooled =
            quality.iter().find(|r| r.key == "validation.pooled.bips").expect("pooled record");
        assert!(
            (pooled.p50 - study.overall_performance_median).abs() < 1e-12,
            "pooled p50 {} vs study median {}",
            pooled.p50,
            study.overall_performance_median
        );
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_points_panics() {
        let config = StudyConfig::quick();
        let suite = TrainedSuite::train(&TinyOracle, &config).unwrap();
        let engine = Engine::new(suite, &config);
        let _ = ValidationStudy::run_on_points(&TinyOracle, &engine, &[]);
    }
}
