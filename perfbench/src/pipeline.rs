//! `pipeline`: cold start to a validated suite plus the paper's studies.
//!
//! The paper's expensive side, paid again on every run: a fresh memo
//! fills while 150 x 9 training designs and every study's validation
//! designs simulate at 200k instructions, the models fit, the engine
//! compiles and sweeps all 262,500 points, and the studies run at
//! stride 1. The only workload that fits models and measures accuracy.

use std::time::Instant;

use udse_core::oracle::{CachedOracle, Oracle, SimOracle};
use udse_core::query::Engine;
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::depth::{DepthStudy, DepthValidation};
use udse_core::studies::heterogeneity::{
    compromise_clusters, compromise_errors, simulated_gains, BenchmarkArchitectures,
};
use udse_core::studies::pareto::{characterize_all, FrontierStudy};
use udse_core::studies::validation::ValidationStudy;
use udse_core::studies::{StudyConfig, TrainedSuite};
use udse_sim::Simulator;
use udse_trace::Benchmark;

use crate::measure::{median, peak_rss_mb, record_errors, CpuMark, Rng};
use crate::query::Kind;
use crate::traced::{record_build, DecomposedSim, Timed, Tracer};
use crate::{Args, Report, SETUPS};

const TRACE_LEN: usize = 200_000;
const TRAIN_SAMPLES: usize = 150;
const VALIDATION_SAMPLES: usize = 100;
/// Oracle results re-simulated on the direct engine by the output check.
const DIRECT_CHECKS: usize = 18;
/// The K-means seed the `repro` heterogeneity figures use.
const CLUSTER_SEED: u64 = 64;

fn study_config(seed: u64) -> StudyConfig {
    StudyConfig {
        train_samples: TRAIN_SAMPLES,
        validation_samples: VALIDATION_SAMPLES,
        eval_stride: 1,
        delay_bins: 100,
        seed,
    }
}

/// What one pass leaves behind for the checks and metrics.
struct Pass {
    engine: Engine,
    train_s: f64,
    train_jobs: u64,
    /// Study outputs that failed a sanity check.
    failed: u64,
}

/// The timed phase: steps 2-5 of the workload on `oracle`.
fn pass(
    oracle: &dyn Oracle,
    simulated: &dyn Fn() -> u64,
    cfg: &StudyConfig,
    held_out: &[DesignPoint],
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let jobs_before = simulated();
    let started = Instant::now();
    let suite = tr
        .time("udse-core::studies train", || TrainedSuite::train(oracle, cfg))
        .map_err(|e| format!("training failed: {e}"))?;
    let train_s = started.elapsed().as_secs_f64();
    let train_jobs = simulated() - jobs_before;
    let engine = tr.time("udse-core::query compile", || Engine::new(suite, cfg));
    tr.time("udse-core::query sweep", || std::hint::black_box(engine.full_sweep()));

    let validation =
        tr.time("studies validation", || ValidationStudy::run_on_points(oracle, &engine, held_out));
    let characterized = tr.time("studies characterize", || characterize_all(&engine));
    let frontiers: Vec<FrontierStudy> = tr.time("studies frontier", || {
        Benchmark::ALL.iter().map(|&b| FrontierStudy::run(oracle, &engine, b, cfg)).collect()
    });
    let depth = tr.time("studies depth", || DepthStudy::run(&engine));
    let depth_validation =
        tr.time("studies depth_validation", || DepthValidation::run(oracle, &engine, &depth));
    let optima = tr.time("studies heterogeneity", || BenchmarkArchitectures::find(&engine));
    let clusters: Vec<_> = tr.time("udse-cluster kmeans", || {
        (1..=9).map(|k| compromise_clusters(engine.suite(), &optima, k, CLUSTER_SEED)).collect()
    });
    let gains = tr.time("studies heterogeneity", || {
        simulated_gains(oracle, engine.suite(), &optima, CLUSTER_SEED)
    });
    let (bips_err, watts_err) = tr
        .time("studies heterogeneity", || compromise_errors(oracle, engine.suite(), &clusters[3]));

    let finite = |x: f64| x.is_finite() && x >= 0.0;
    let sane = [
        finite(validation.overall_performance_median) && finite(validation.overall_power_median),
        characterized.len() == 9,
        frontiers.iter().all(|f| {
            !f.designs.is_empty() && f.simulated.iter().all(|m| finite(m.bips) && finite(m.watts))
        }),
        depth.bound_points.len() == depth.depths.len(),
        depth_validation.enhanced_simulated.iter().all(|&x| finite(x)),
        clusters.iter().enumerate().all(|(k, c)| c.len() == k + 1),
        gains.k_values.len() == 10 && gains.upper_bound().is_finite(),
        finite(bips_err) && finite(watts_err),
    ];
    let failed = sane.iter().filter(|ok| !**ok).count() as u64;
    Ok(Pass { engine, train_s, train_jobs, failed })
}

/// Re-simulates a seeded sample of the training jobs through
/// `Simulator::run_with_warmup` and counts results that differ from the
/// oracle's in any bit. Returns `(failures, direct seconds)`.
fn direct_check(cached: &CachedOracle<SimOracle>, cfg: &StudyConfig, seed: u64) -> (u64, f64) {
    let plan = TrainedSuite::training_plan(cfg);
    let mut rng = Rng::new(seed ^ 0xD1EC7);
    let sample: Vec<(Benchmark, DesignPoint)> =
        (0..DIRECT_CHECKS).map(|_| plan.jobs()[rng.below(plan.len() as u64) as usize]).collect();
    let memo = cached.evaluate_many(&sample);
    let sim = cached.inner();
    let started = Instant::now();
    let failures = sample
        .iter()
        .zip(&memo)
        .filter(|((b, p), m)| {
            let r = Simulator::new(p.to_machine_config())
                .run_with_warmup(&sim.trace(*b), sim.warmup_insts());
            r.bips.to_bits() != m.bips.to_bits() || r.watts.to_bits() != m.watts.to_bits()
        })
        .count() as u64;
    (failures, started.elapsed().as_secs_f64())
}

/// The one kind of query each engine client of a pass sends, by the layer
/// the pass times it under. The paper's studies are the repository's only
/// programmatic clients of `Engine::execute`.
const ENGINE_CLIENTS: [(&str, Kind); 5] = [
    ("studies validation", Kind::Point),
    ("studies frontier", Kind::Pareto),
    ("studies depth", Kind::Scan),
    ("studies depth_validation", Kind::Point),
    ("studies heterogeneity", Kind::Scan),
];

/// `Engine::execute` calls per query kind, from a traced pass's
/// per-layer counts.
///
/// # Panics
///
/// Panics if a layer outside [`ENGINE_CLIENTS`] executed a query.
fn client_mix(queries: &[(String, u64)]) -> Vec<(Kind, u64)> {
    let mut mix: Vec<(Kind, u64)> = Vec::new();
    for (layer, n) in queries.iter().filter(|q| q.1 > 0) {
        let kind = ENGINE_CLIENTS
            .iter()
            .find(|c| c.0 == layer)
            .unwrap_or_else(|| panic!("{layer} executed {n} queries but is not a listed client"))
            .1;
        match mix.iter_mut().find(|m| m.0 == kind) {
            Some(m) => m.1 += n,
            None => mix.push((kind, *n)),
        }
    }
    mix
}

fn fresh_oracle(seed: u64) -> SimOracle {
    SimOracle::with_trace_len(TRACE_LEN).with_seed(seed)
}

/// One set-up: a fresh oracle with the nine 200k-instruction traces, the
/// inputs every simulation reads, generated.
fn set_up(seed: u64) -> SimOracle {
    let oracle = fresh_oracle(seed);
    for b in Benchmark::ALL {
        std::hint::black_box(oracle.trace(b));
    }
    oracle
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cfg = study_config(args.seed);
    let held_out = DesignSpace::paper().sample_uar(VALIDATION_SAMPLES, args.seed ^ 0xA11D);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut sim = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        // One oracle alive at a time, so the repetitions leave no mark on
        // the peak resident set.
        drop(sim.take());
        let started = Instant::now();
        sim = Some(set_up(args.seed));
        setups.push(started.elapsed().as_secs_f64());
    }

    // Timed phase: cold passes, each on a fresh oracle (set up untimed
    // between passes), while one more pass brings the measured time
    // closer to `--seconds`. The last pass's oracle stays for the checks.
    let mut passes = Vec::new();
    let (mut simulations, mut failed) = (0, 0);
    let (cached, out) = loop {
        let cached = CachedOracle::new(sim.take().unwrap_or_else(|| set_up(args.seed)));
        let started = Instant::now();
        let out = pass(&cached, &|| cached.misses(), &cfg, &held_out, &mut Tracer::off())?;
        let wall = started.elapsed().as_secs_f64();
        passes.push(wall);
        simulations += cached.misses();
        failed += out.failed;
        if passes.iter().sum::<f64>() + wall / 2.0 >= args.seconds {
            break (cached, out);
        }
    };
    let run_s = median(&passes);
    let peak_rss = peak_rss_mb();

    let (direct_failed, direct_s) = direct_check(&cached, &cfg, args.seed);
    let mut report = Report::new(simulations, failed + direct_failed);
    report.set("setup_s", median(&setups));
    report.set("run_s", run_s);
    report.set("peak_rss_mb", peak_rss);
    eprintln!(
        "pipeline: {} passes of {} simulations, last train {:.3} s for {} jobs, pass median \
         {run_s:.3} s",
        passes.len(),
        cached.misses(),
        out.train_s,
        out.train_jobs
    );
    if !args.trace {
        return Ok(report);
    }

    report.set("sim_minst_per_s", (out.train_jobs * TRACE_LEN as u64) as f64 / out.train_s / 1e6);
    let sim = cached.inner();
    let lookups = sim.precompute_hits() + sim.precompute_misses();
    report.set("oracle.memo_hit_pct", 100.0 * sim.precompute_hits() as f64 / lookups as f64);
    let served = cached.hits() + cached.misses();
    report.set("oracle.cache_hit_pct", 100.0 * cached.hits() as f64 / served as f64);
    record_errors(&mut report, &cached, &out.engine, &held_out);
    report.set("sim.direct_ms_per_design", 1e3 * direct_s / DIRECT_CHECKS as f64);
    drop(out);

    // Traced run: the same workload on the decomposed oracle, with
    // timers around every layer call.
    let traced_started = Instant::now();
    let decomposed = DecomposedSim::new(fresh_oracle(args.seed));
    decomposed.generate_traces();
    let timed = Timed::new(CachedOracle::new(decomposed));
    let nested = || timed.wall_s();
    let mut tr = Tracer::on(&nested);
    let mark = CpuMark::now();
    drop(pass(&timed, &|| timed.inner().misses(), &cfg, &held_out, &mut tr)?);
    let (traced_run_s, traced_cpu) = mark.elapsed();
    let traced_wall = traced_started.elapsed().as_secs_f64();

    let mut layers = std::mem::take(&mut tr.layers);
    timed.inner().inner().tally().record(timed.wall_s(), &mut layers, &mut report);
    let coverage = layers.report("pipeline", traced_wall);
    for (layer, busy) in &tr.busy {
        eprintln!("  pool busy {busy:6.1}%  {layer}");
    }
    let mix = client_mix(&tr.queries);
    eprintln!(
        "  engine clients sent {}",
        mix.iter().map(|(k, n)| format!("{n} {}", k.name())).collect::<Vec<_>>().join(", ")
    );

    // The decomposed results must equal the untraced oracle's bit for
    // bit; every traced job is a memo hit on the untraced oracle.
    let results = timed.inner().inner().take_results();
    let jobs: Vec<_> = results.iter().map(|r| r.0).collect();
    let untraced = cached.evaluate_many(&jobs);
    let mismatched = results
        .iter()
        .zip(&untraced)
        .filter(|((_, t), u)| {
            t.bips.to_bits() != u.bips.to_bits() || t.watts.to_bits() != u.watts.to_bits()
        })
        .count() as u64;
    report.attempted += results.len() as u64;
    report.failed += mismatched;

    record_build(&layers, &mut report);
    for (metric, layer) in [
        ("studies.validation_s", "studies validation"),
        ("studies.frontier_s", "studies frontier"),
        ("studies.depth_s", "studies depth"),
        ("studies.depth_validation_s", "studies depth_validation"),
        ("studies.heterogeneity_s", "studies heterogeneity"),
        ("cluster.kmeans_s", "udse-cluster kmeans"),
    ] {
        report.set(metric, layers.self_s(layer));
    }
    let workers = udse_obs::pool::max_workers() as f64;
    report.set("pool.busy_pct", 100.0 * traced_cpu / (traced_run_s * workers));
    report.set("layers.coverage_pct", coverage);
    report.set("trace.wall_s", traced_wall);
    report.set("trace.overhead_pct", 100.0 * (traced_run_s - run_s) / run_s);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MIX;

    /// The `query` workload's block replays the engine traffic of one
    /// pass: its point, scan and Pareto counts are what the studies send.
    /// Query counts do not depend on the trace length, so a short one
    /// keeps the test quick.
    #[test]
    fn query_mix_replays_the_study_clients() {
        let oracle = CachedOracle::new(SimOracle::with_trace_len(2_000).with_seed(3));
        let cfg = study_config(3);
        let held_out = DesignSpace::paper().sample_uar(VALIDATION_SAMPLES, 3 ^ 0xA11D);
        let no_oracle_time = || 0.0;
        let mut tr = Tracer::on(&no_oracle_time);
        pass(&oracle, &|| oracle.misses(), &cfg, &held_out, &mut tr).expect("pass runs");
        let mut mix = client_mix(&tr.queries);
        mix.sort_by_key(|m| m.0 as usize);
        let want: Vec<(Kind, u64)> = MIX
            .iter()
            .filter(|m| [Kind::Point, Kind::Scan, Kind::Pareto].contains(&m.0))
            .map(|&(k, n)| (k, n as u64))
            .collect();
        assert_eq!(mix, want);
    }
}
