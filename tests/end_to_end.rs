//! End-to-end integration: sample -> simulate -> fit -> predict -> study,
//! across all crates through the facade.

use udse::core::model::PaperModels;
use udse::core::oracle::{Oracle, SimOracle};
use udse::core::space::DesignSpace;
use udse::core::studies::depth::DepthStudy;
use udse::core::studies::heterogeneity::{compromise_clusters, BenchmarkArchitectures};
use udse::core::studies::pareto::{characterize, FrontierStudy};
use udse::core::studies::validation::ValidationStudy;
use udse::core::studies::{StudyConfig, TrainedSuite};
use udse::core::Engine;
use udse::stats::median_abs_rel_error;
use udse::trace::Benchmark;

fn fast_config() -> StudyConfig {
    StudyConfig {
        train_samples: 150,
        validation_samples: 20,
        eval_stride: 1000,
        delay_bins: 30,
        seed: 99,
    }
}

fn fast_oracle() -> SimOracle {
    SimOracle::with_trace_len(10_000)
}

#[test]
fn train_predict_validate_single_benchmark() {
    let oracle = fast_oracle();
    let space = DesignSpace::paper();
    let samples = space.sample_uar(150, 3);
    let models = PaperModels::train(&oracle, Benchmark::Gzip, &samples).unwrap();

    // Validation against fresh designs: errors must be bounded. Short
    // traces are noisy, so the bar is loose; the paper-scale run (see
    // EXPERIMENTS.md) achieves single-digit medians.
    let validation = space.sample_uar(30, 1234);
    let (mut obs, mut pred) = (Vec::new(), Vec::new());
    for p in &validation {
        obs.push(oracle.evaluate(Benchmark::Gzip, &p.clone()).bips);
        pred.push(models.predict_metrics(p).bips);
    }
    let err = median_abs_rel_error(&obs, &pred);
    assert!(err < 0.25, "median validation error {err} unexpectedly large");
}

#[test]
fn full_suite_studies_run_consistently() {
    let oracle = fast_oracle();
    let config = fast_config();
    let suite = TrainedSuite::train(&oracle, &config).unwrap();
    let engine = Engine::new(suite.clone(), &config);

    // Validation study covers all nine benchmarks.
    let validation = ValidationStudy::run(&oracle, &engine, &config);
    assert_eq!(validation.per_benchmark.len(), 9);
    assert!(validation.overall_performance_median < 0.5);
    assert!(validation.overall_power_median < 0.3);

    // Pareto frontier for a memory-bound benchmark is non-trivial.
    let ch = characterize(&engine, Benchmark::Mcf);
    assert_eq!(ch.benchmark, Benchmark::Mcf);
    let fs = FrontierStudy::run(&oracle, &engine, Benchmark::Mcf, &config);
    assert!(fs.designs.len() >= 3, "frontier should have several designs");
    // Frontier endpoints: the fastest design costs more power than the
    // most frugal one.
    let first = fs.predicted.first().unwrap();
    let last = fs.predicted.last().unwrap();
    assert!(first.delay_seconds() < last.delay_seconds());
    assert!(first.watts > last.watts);

    // Depth study produces one boxplot per depth and sane fractions.
    let depth = DepthStudy::run(&engine);
    assert_eq!(depth.enhanced_boxplots.len(), 7);
    for bp in &depth.enhanced_boxplots {
        assert!(bp.q1 <= bp.median && bp.median <= bp.q3);
    }

    // Heterogeneity: clusters partition the suite for every K.
    let optima = BenchmarkArchitectures::find(&engine);
    for k in 1..=9 {
        let clusters = compromise_clusters(&suite, &optima, k, 5);
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 9, "K={k} must assign every benchmark");
    }
}

#[test]
fn mcf_and_gzip_optima_differ_in_the_expected_direction() {
    // The paper's central qualitative claim: optima are diverse, with the
    // memory-bound benchmark preferring bigger L2 than the compute-bound
    // one. Traces must be study-scale: mcf's working-set band reaches 32k
    // cache blocks, which shorter traces cannot express, capping the
    // simulator's own L2 appetite.
    let oracle = SimOracle::with_trace_len(200_000);
    let config = StudyConfig {
        train_samples: 400,
        validation_samples: 10,
        eval_stride: 200,
        delay_bins: 30,
        seed: 7,
    };
    let space = DesignSpace::paper();
    let samples = space.sample_uar(config.train_samples, config.seed);
    let mcf = PaperModels::train(&oracle, Benchmark::Mcf, &samples).unwrap();
    let gzip = PaperModels::train(&oracle, Benchmark::Gzip, &samples).unwrap();
    let exploration = DesignSpace::exploration();
    let best = |m: &PaperModels| {
        udse::core::studies::strided_points(&exploration, config.eval_stride)
            .max_by(|a, b| m.predict_efficiency(a).total_cmp(&m.predict_efficiency(b)))
            .expect("non-empty space")
    };
    let mcf_opt = best(&mcf);
    let gzip_opt = best(&gzip);
    assert!(
        mcf_opt.l2_kb() > gzip_opt.l2_kb(),
        "mcf should want more L2 ({} KB) than gzip ({} KB)",
        mcf_opt.l2_kb(),
        gzip_opt.l2_kb()
    );
}
