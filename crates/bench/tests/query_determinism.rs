//! Determinism of the unified query engine: answers must be
//! bitwise-identical across worker counts (the memoized sweep fans out
//! in worker-count-dependent chunks), across cold and warm calls, and
//! against a sequential single-threaded reference computed without the
//! engine. The canonical-bytes form is what `repro query` prints and
//! what the CI smoke diff compares, so every equality here is on the
//! serialized document or on raw bit patterns, never on tolerances.
//!
//! (Study-level regression vs the committed baseline manifest is gated
//! separately: `scripts/ci.sh` diffs a fresh bench manifest against
//! `baselines/BENCH_*.json` with zero tolerance on the quality section.)

use udse_core::model::SuiteLanes;
use udse_core::oracle::{Metrics, Oracle};
use udse_core::query::{Axis, Constraint, Engine, Query};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::depth::DepthStudy;
use udse_core::studies::{strided_points, StudyConfig, TrainedSuite};
use udse_trace::Benchmark;

/// The worker cap is process-global, so tests that flip it must not
/// interleave; each takes this lock first.
static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A smooth analytic oracle: cheap enough to fit in-test, rich enough
/// that optima and frontiers are non-degenerate.
struct Smooth;
impl Oracle for Smooth {
    fn evaluate(&self, b: Benchmark, p: &DesignPoint) -> Metrics {
        let v = p.predictors();
        let tilt = 1.0 + 0.05 * b.id() as f64;
        Metrics {
            bips: (9.0 / v[0]) * (1.0 + 0.15 * v[1].ln()) + 0.03 * tilt * v[5],
            watts: 3.0 + 50.0 / v[0] + 1.1 * v[1] + 0.4 * v[6],
        }
    }
}

/// A stride that divides chunk boundaries unevenly between worker
/// counts, so chunk-merge order actually differs.
fn test_config() -> StudyConfig {
    StudyConfig { eval_stride: 7, ..StudyConfig::quick() }
}

fn trained_suite(config: &StudyConfig) -> TrainedSuite {
    TrainedSuite::train(&Smooth, config).expect("smooth fit")
}

/// Every query shape the engine answers, in one list.
fn query_menu(stride: usize) -> Vec<Query> {
    let space = DesignSpace::exploration();
    let a = space.decode(0).expect("index 0");
    let b = space.decode(space.len() / 2).expect("midpoint");
    vec![
        Query::point(Benchmark::Mcf, a),
        Query::optimum(None, vec![], stride),
        Query::optimum(
            Some(Benchmark::Jbb),
            vec![Constraint::at_most(Axis::Dl1Kb, 64.0), Constraint::at_least(Axis::Width, 4.0)],
            stride,
        ),
        Query::suite_optimum(
            vec![1.0, 0.9, 1.1, 0.8, 1.2, 1.0, 0.7, 1.3, 1.0],
            vec![Constraint::exactly(Axis::DepthFo4, 18.0)],
            stride,
        ),
        Query::pareto(Benchmark::Ammp, vec![Constraint::at_most(Axis::L2Kb, 2048.0)], stride, 40),
        Query::top_k(Benchmark::Gzip, vec![], stride, 12),
        Query::what_if(Benchmark::Twolf, a, b),
        Query::axis_sweep(Benchmark::Equake, a, Axis::L2Kb),
    ]
}

#[test]
fn query_answers_are_identical_across_worker_counts() {
    let _guard = serialized();
    let config = test_config();
    udse_obs::pool::set_max_workers(1);
    let suite = trained_suite(&config);

    // Fresh engines per worker count so every memoized sweep actually
    // runs under that count.
    let engine_seq = Engine::new(suite.clone(), &config);
    let answers_seq: Vec<String> = query_menu(config.eval_stride)
        .iter()
        .map(|q| engine_seq.execute(q).expect("query runs").to_json().to_string_pretty())
        .collect();
    udse_obs::pool::set_max_workers(4);
    let engine_par = Engine::new(suite, &config);
    let answers_par: Vec<String> = query_menu(config.eval_stride)
        .iter()
        .map(|q| engine_par.execute(q).expect("query runs").to_json().to_string_pretty())
        .collect();
    udse_obs::pool::set_max_workers(1);

    for ((q, s), p) in query_menu(config.eval_stride).iter().zip(&answers_seq).zip(&answers_par) {
        assert_eq!(s, p, "answer bytes diverge between --jobs 1 and --jobs 4 for {q:?}");
    }
}

#[test]
fn warm_cache_replays_the_cold_answer_bitwise() {
    let _guard = serialized();
    let config = test_config();
    udse_obs::pool::set_max_workers(1);
    let engine = Engine::new(trained_suite(&config), &config);
    let hits = udse_obs::metrics::counter("query.cache.hits");
    let misses = udse_obs::metrics::counter("query.cache.misses");

    for q in query_menu(config.eval_stride) {
        let point_shaped =
            matches!(q, Query::Point { .. } | Query::WhatIf { .. } | Query::AxisSweep { .. });
        let m0 = misses.get();
        // A cold run misses exactly once: no query runs another behind it.
        let cold = engine.execute(&q).expect("cold run");
        assert_eq!(misses.get(), m0 + 1, "cold run of {q:?} must miss once");
        let (h1, m1) = (hits.get(), misses.get());
        let warm = engine.execute(&q).expect("warm run");
        if point_shaped {
            // Point-shaped answers bypass the cache: every call is
            // computed afresh and counted as exactly one miss.
            assert_eq!(hits.get(), h1, "point-shaped {q:?} must never hit");
            assert_eq!(misses.get(), m1 + 1, "point-shaped {q:?} must miss on every call");
        } else {
            assert_eq!(hits.get(), h1 + 1, "warm run of {q:?} must hit exactly once");
            assert_eq!(misses.get(), m1, "warm run of {q:?} must not miss");
            // The cache returns the very same materialized result.
            assert!(std::sync::Arc::ptr_eq(&cold, &warm), "warm {q:?} rebuilt instead of reusing");
        }
        assert_eq!(
            cold.to_json().to_string_pretty(),
            warm.to_json().to_string_pretty(),
            "warm bytes diverge for {q:?}"
        );
    }
}

#[test]
fn every_execution_is_a_hit_or_a_miss() {
    let _guard = serialized();
    let config = test_config();
    udse_obs::pool::set_max_workers(1);
    let engine = Engine::new(trained_suite(&config), &config);
    let counter = |name| udse_obs::metrics::counter(name).get();
    let totals =
        || (counter("query.executed"), counter("query.cache.hits") + counter("query.cache.misses"));
    let (executed0, answered0) = totals();
    // Cold and warm passes, so the menu both misses and hits.
    for _ in 0..2 {
        for q in query_menu(config.eval_stride) {
            engine.execute(&q).expect("query runs");
        }
    }
    let (executed, answered) = totals();
    assert!(executed > executed0);
    assert_eq!(executed - executed0, answered - answered0, "query.executed != hits + misses");
}

#[test]
fn engine_optimum_matches_a_sequential_no_engine_reference() {
    // The constrained-optimum path must reproduce what a plain
    // sequential scan over the strided exploration space finds with a
    // fresh single-pair compile of each benchmark's models, point by
    // point through the lane kernel — same winner, same score bits.
    let _guard = serialized();
    let config = test_config();
    udse_obs::pool::set_max_workers(1);
    let suite = trained_suite(&config);
    let engine = Engine::new(suite.clone(), &config);
    let space = DesignSpace::exploration();

    let result = engine.execute(&Query::optimum(None, vec![], config.eval_stride)).expect("optima");
    let entries = result.optima().expect("optima entries");
    assert_eq!(entries.len(), 9);
    for (b, entry) in Benchmark::ALL.iter().zip(entries) {
        let lanes = SuiteLanes::compile(std::slice::from_ref(suite.models(*b)), &space);
        let efficiency = |p: &DesignPoint| {
            let mut out = [Metrics { bips: 0.0, watts: 0.0 }];
            lanes.predict_metrics_into(&space.indices(p).map(usize::from), &mut out);
            out[0].bips_cubed_per_watt()
        };
        let reference = strided_points(&space, config.eval_stride)
            .max_by(|x, y| efficiency(x).total_cmp(&efficiency(y)))
            .expect("non-empty space");
        assert_eq!(entry.point, reference, "winner diverges for {}", b.name());
        assert_eq!(
            entry.score.to_bits(),
            efficiency(&reference).to_bits(),
            "score diverges for {}",
            b.name()
        );
    }
}

#[test]
fn depth_study_is_identical_across_worker_counts() {
    // The depth study is the engine's heaviest client (full-sweep
    // bucketing plus seven constrained suite-relative bound queries);
    // every derived number must survive a worker-count change bitwise.
    let _guard = serialized();
    let config = test_config();
    udse_obs::pool::set_max_workers(1);
    let suite = trained_suite(&config);

    let study_seq = DepthStudy::run(&Engine::new(suite.clone(), &config));
    udse_obs::pool::set_max_workers(4);
    let study_par = DepthStudy::run(&Engine::new(suite, &config));
    udse_obs::pool::set_max_workers(1);

    assert_eq!(study_seq.depths, study_par.depths);
    assert_eq!(study_seq.original_points, study_par.original_points);
    assert_eq!(study_seq.bound_points, study_par.bound_points);
    assert_eq!(study_seq.enhanced_boxplots, study_par.enhanced_boxplots);
    assert_eq!(study_seq.dcache_top_percentile, study_par.dcache_top_percentile);
    for (s, p) in study_seq.original_relative.iter().zip(&study_par.original_relative) {
        assert_eq!(s.to_bits(), p.to_bits(), "original_relative diverges");
    }
    for (s, p) in study_seq.bound_relative.iter().zip(&study_par.bound_relative) {
        assert_eq!(s.to_bits(), p.to_bits(), "bound_relative diverges");
    }
    for (s, p) in study_seq.fraction_above_original.iter().zip(&study_par.fraction_above_original) {
        assert_eq!(s.to_bits(), p.to_bits(), "fraction_above_original diverges");
    }
}
