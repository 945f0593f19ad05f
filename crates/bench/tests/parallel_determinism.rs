//! Determinism under parallelism: the whole sim→fit→validate pipeline
//! must produce bitwise-identical results whether the work pool runs one
//! worker (`repro --jobs 1`, today's sequential behavior) or many
//! (`--jobs 4`). Every simulation is a pure function of its inputs and
//! the pool reassembles results in input order, so nothing downstream —
//! training samples, fitted coefficients, quality telemetry — may depend
//! on the worker count.

use udse_core::oracle::{CachedOracle, Metrics, Oracle, SimOracle};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::heterogeneity::BenchmarkArchitectures;
use udse_core::studies::validation::ValidationStudy;
use udse_core::studies::{pareto, StudyConfig, TrainedSuite};
use udse_core::Engine;
use udse_obs::QualityRecord;
use udse_sim::MachineConfig;
use udse_trace::Benchmark;

/// The worker cap is process-global, so tests that flip it must not
/// interleave; each takes this lock first.
static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Small-but-real pipeline configuration: actual cycle simulations, just
/// fewer and shorter than a `--quick` run.
fn test_config() -> StudyConfig {
    StudyConfig { train_samples: 120, validation_samples: 15, ..StudyConfig::quick() }
}

const TEST_TRACE_LEN: usize = 2_000;

/// Everything the manifest quality section would see from one pipeline
/// pass: fitted coefficients, study medians, quality records.
type PipelineOutput = (Vec<Vec<f64>>, Vec<(f64, f64)>, Vec<QualityRecord>);

/// One full pipeline pass at a given worker count: train the nine model
/// pairs on the simulator, validate them, and capture everything the
/// manifest quality section would see.
fn run_pipeline(jobs: usize) -> PipelineOutput {
    udse_obs::pool::set_max_workers(jobs);
    run_pipeline_on(SimOracle::with_trace_len(TEST_TRACE_LEN))
}

/// The same pipeline pass over a given simulation oracle, memoized the
/// way `repro` memoizes it.
fn run_pipeline_on(sim: SimOracle) -> PipelineOutput {
    let oracle = CachedOracle::new(sim);
    let config = test_config();
    let suite = TrainedSuite::train(&oracle, &config).expect("models fit");
    let engine = Engine::new(suite.clone(), &config);
    let study = ValidationStudy::run(&oracle, &engine, &config);
    let coefficients: Vec<Vec<f64>> = suite
        .all_models()
        .iter()
        .flat_map(|m| {
            [m.performance_model().coefficients().to_vec(), m.power_model().coefficients().to_vec()]
        })
        .collect();
    let medians = vec![(study.overall_performance_median, study.overall_power_median)];
    (coefficients, medians, udse_obs::quality::global().snapshot())
}

#[test]
fn jobs_1_and_jobs_4_produce_identical_results() {
    let _guard = serialized();
    let (coef_seq, med_seq, quality_seq) = run_pipeline(1);
    let (coef_par, med_par, quality_par) = run_pipeline(4);
    udse_obs::pool::set_max_workers(1);

    // Fitted coefficients: bitwise identical, every model, every term.
    assert_eq!(coef_seq.len(), coef_par.len());
    for (i, (s, p)) in coef_seq.iter().zip(&coef_par).enumerate() {
        assert_eq!(s, p, "model {i} coefficients diverge between --jobs 1 and --jobs 4");
    }

    // Study-level medians: bitwise identical.
    assert_eq!(med_seq, med_par);

    // The manifest quality section (per-benchmark + pooled records):
    // bitwise identical stats for every key.
    assert_eq!(quality_seq.len(), quality_par.len());
    for (s, p) in quality_seq.iter().zip(&quality_par) {
        assert_eq!(s.key, p.key);
        assert_eq!(s.n, p.n, "key {}", s.key);
        assert_eq!(s.p50.to_bits(), p.p50.to_bits(), "key {}", s.key);
        assert_eq!(s.p90.to_bits(), p.p90.to_bits(), "key {}", s.key);
        assert_eq!(s.max.to_bits(), p.max.to_bits(), "key {}", s.key);
        assert_eq!(s.bias.to_bits(), p.bias.to_bits(), "key {}", s.key);
        assert_eq!(s.rmse.to_bits(), p.rmse.to_bits(), "key {}", s.key);
    }
}

#[test]
fn training_samples_do_not_depend_on_worker_count() {
    let _guard = serialized();
    udse_obs::pool::set_max_workers(4);
    let oracle = SimOracle::with_trace_len(TEST_TRACE_LEN);
    let suite_par = TrainedSuite::train(&oracle, &test_config()).expect("fit");
    udse_obs::pool::set_max_workers(1);
    let suite_seq = TrainedSuite::train(&oracle, &test_config()).expect("fit");
    assert_eq!(suite_seq.training_samples(), suite_par.training_samples());
}

#[test]
fn evaluate_many_is_order_deterministic_through_the_cache() {
    // A CachedOracle batch that mixes repeats and fresh points must give
    // the exact metrics sequential evaluation gives, at any worker count.
    // The simulate_many batch beneath it must be worker-count independent
    // too, memo accounting included.
    let _guard = serialized();
    let space = DesignSpace::paper();
    let jobs: Vec<(Benchmark, _)> = (0..40)
        .map(|i| (Benchmark::ALL[i % 9], space.decode((i as u64 * 911) % 100).unwrap()))
        .collect();
    let reference = SimOracle::with_trace_len(TEST_TRACE_LEN);
    udse_obs::pool::set_max_workers(1);
    let sequential: Vec<Metrics> = jobs.iter().map(|(b, p)| reference.evaluate(*b, p)).collect();
    for workers in [1usize, 4] {
        udse_obs::pool::set_max_workers(workers);
        let oracle = CachedOracle::new(SimOracle::with_trace_len(TEST_TRACE_LEN));
        assert_eq!(oracle.evaluate_many(&jobs), sequential, "workers = {workers}");
        // Second pass is all hits and still identical.
        assert_eq!(oracle.evaluate_many(&jobs), sequential, "cached, workers = {workers}");
    }

    // The batch core under every study: out-of-space configs (D-L1
    // associativity, in-order issue) mixed with in-space designs give
    // identical results and identical stream-memo accounting at any
    // worker count.
    let base = MachineConfig::power4_baseline();
    let configs: Vec<(Benchmark, MachineConfig)> = jobs
        .iter()
        .enumerate()
        .map(|(i, (b, p))| match i % 3 {
            0 => (*b, MachineConfig { dl1_assoc: [1, 2, 4, 8][i % 4], ..base }),
            1 => (*b, MachineConfig { in_order: true, ..p.to_machine_config() }),
            _ => (*b, p.to_machine_config()),
        })
        .collect();
    let mut runs = Vec::new();
    for workers in [1usize, 4] {
        udse_obs::pool::set_max_workers(workers);
        let oracle = SimOracle::with_trace_len(TEST_TRACE_LEN);
        let results = oracle.simulate_many(&configs);
        runs.push((results, oracle.precompute_hits(), oracle.precompute_misses()));
    }
    udse_obs::pool::set_max_workers(1);
    let (seq, par) = (&runs[0], &runs[1]);
    assert_eq!(seq.0.len(), configs.len());
    // Debug prints every f64 as its shortest round-trip digits, so equal
    // strings mean equal bits.
    assert_eq!(format!("{:?}", seq.0), format!("{:?}", par.0), "simulate_many results diverge");
    assert_eq!((seq.1, seq.2), (par.1, par.2), "precompute hits/misses diverge");
    assert!(seq.1 > 0 && seq.2 > 0, "the batch both resolves and reuses streams");
}

#[test]
fn chunk_parallel_sweeps_match_sequential_bitwise() {
    // The compiled grid sweeps (characterization, per-benchmark optima)
    // fan out in contiguous chunks whose boundaries depend on the worker
    // count; results must still be bitwise identical because chunks
    // concatenate in range order and the argmax tie-break replicates a
    // sequential last-max-wins scan.
    struct Smooth;
    impl Oracle for Smooth {
        fn evaluate(&self, _b: udse_trace::Benchmark, p: &DesignPoint) -> Metrics {
            let v = p.predictors();
            Metrics {
                bips: (9.0 / v[0]) * (1.0 + 0.15 * v[1].ln()) + 0.03 * v[5],
                watts: 3.0 + 50.0 / v[0] + 1.1 * v[1] + 0.4 * v[6],
            }
        }
    }

    let _guard = serialized();
    // A stride coprime to neither chunk size forces uneven chunk
    // boundaries between worker counts.
    let config = StudyConfig { eval_stride: 7, ..StudyConfig::quick() };
    udse_obs::pool::set_max_workers(1);
    let suite = TrainedSuite::train(&Smooth, &config).expect("smooth fit");

    // Fresh engines per worker count so each memoized sweep actually
    // runs under that count.
    let engine_seq = Engine::new(suite.clone(), &config);
    let char_seq = pareto::characterize(&engine_seq, Benchmark::Gzip);
    let optima_seq = BenchmarkArchitectures::find(&engine_seq);
    udse_obs::pool::set_max_workers(4);
    let engine_par = Engine::new(suite, &config);
    let char_par = pareto::characterize(&engine_par, Benchmark::Gzip);
    let optima_par = BenchmarkArchitectures::find(&engine_par);
    udse_obs::pool::set_max_workers(1);

    assert_eq!(char_seq.designs().len(), char_par.designs().len());
    for (s, p) in char_seq.designs().iter().zip(char_par.designs()) {
        assert_eq!(s.point, p.point, "sweep order diverges between worker counts");
        assert_eq!(s.predicted.bips.to_bits(), p.predicted.bips.to_bits());
        assert_eq!(s.predicted.watts.to_bits(), p.predicted.watts.to_bits());
    }
    assert_eq!(char_seq.clusters, char_par.clusters);
    assert_eq!(optima_seq.optima, optima_par.optima, "per-benchmark optima diverge");
}

#[test]
fn pipeline_types_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimOracle>();
    assert_send_sync::<CachedOracle<SimOracle>>();
    assert_send_sync::<TrainedSuite>();
    assert_send_sync::<udse_trace::Trace>();
    assert_send_sync::<udse_sim::Simulator>();
    assert_send_sync::<udse_bench::Context>();
}
