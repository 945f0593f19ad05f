//! `query`: one closed-loop client sending a seeded stream of query
//! documents in the wire format to one stride-1 engine.
//!
//! The predict side, and the future serving path. Simulation happens only
//! in set-up; in the timed phase the fused walk, constraint pushdown,
//! codec, result cache and pool do the work. Constraints are drawn from a
//! space large enough that almost every query misses the result cache.

use std::cmp::Ordering;
use std::time::Instant;

use udse_core::oracle::{Oracle, SimOracle};
use udse_core::query::{Axis, Constraint, Engine, Objective, Query, QueryResult};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::{StudyConfig, TrainedSuite};
use udse_trace::Benchmark;

use crate::measure::{median, peak_rss_mb, percentile, record_errors, CpuMark, Rng};
use crate::traced::{record_build, DecomposedSim, Timed, Tracer};
use crate::{Args, Report, SETUPS};

const TRACE_LEN: usize = 20_000;
const TRAIN_SAMPLES: usize = 200;
/// Every `SCAN_CHECK_EVERY`-th scan is re-answered by brute force.
const SCAN_CHECK_EVERY: usize = 4;
/// Smallest population a reported percentile may cover.
const MIN_SAMPLES: usize = 100;
/// Blocks every run serves at least, so each percentile population (two
/// top-k queries per block, the rarest) clears `MIN_SAMPLES` however slow
/// the machine.
const MIN_BLOCKS: usize = MIN_SAMPLES.div_ceil(2) + 5;
/// Largest result-cache hit share the stream may produce.
const MAX_HIT_PCT: f64 = 5.0;
/// Held-out designs per benchmark for the served suite's error.
const HELD_OUT: usize = 50;

/// The query kinds of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    WhatIf,
    Scan,
    TopK,
    Pareto,
    AxisSweep,
}

impl Kind {
    const ALL: [Kind; 6] =
        [Kind::Point, Kind::WhatIf, Kind::Scan, Kind::TopK, Kind::Pareto, Kind::AxisSweep];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::WhatIf => "whatif",
            Kind::Scan => "scan",
            Kind::TopK => "topk",
            Kind::Pareto => "pareto",
            Kind::AxisSweep => "axis",
        }
    }
}

/// Queries of each kind per block. A block replays, with fresh random
/// arguments, the engine traffic of one `pipeline` pass: the paper's
/// studies are the repository's only programmatic clients of
/// `Engine::execute`, and one pass sends 1,278 point queries (validation's
/// 9 x 100 held-out designs, depth validation's 378), 8 constrained optima
/// (the depth study's seven depth bounds, the heterogeneity study's one)
/// and 9 Pareto slices (the frontier study). The pipeline test
/// `query_mix_replays_the_study_clients` re-derives these three counts.
/// No repository client sends what-if, top-k or axis-sweep queries; only
/// `repro query` users do, so their counts are assumed: one each, and two
/// top-k so their percentile population clears `MIN_SAMPLES`.
pub const MIX: [(Kind, usize); 6] = [
    (Kind::Point, 1_278),
    (Kind::WhatIf, 1),
    (Kind::Scan, 8),
    (Kind::TopK, 2),
    (Kind::Pareto, 9),
    (Kind::AxisSweep, 1),
];
/// The kind schedule of one block: each kind spread evenly across it, so
/// every block has the same mix and cost profile.
pub fn block_kinds() -> Vec<Kind> {
    let mut slots: Vec<(f64, Kind)> = Vec::new();
    for (kind, n) in MIX {
        for i in 0..n {
            slots.push(((i as f64 + 0.5) / n as f64, kind));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0));
    slots.into_iter().map(|s| s.1).collect()
}

fn benchmark(rng: &mut Rng) -> Benchmark {
    Benchmark::ALL[rng.below(9) as usize]
}

/// A uniformly drawn point of the paper or the exploration space.
fn point(rng: &mut Rng) -> DesignPoint {
    let space = if rng.below(2) == 0 { DesignSpace::paper() } else { DesignSpace::exploration() };
    space.decode(rng.below(space.len())).expect("index in range")
}

/// `n` constraints on distinct random axes, each a bound at a random grid
/// level; every draw admits at least one design.
fn constraints(rng: &mut Rng, n: usize) -> Vec<Constraint> {
    let space = DesignSpace::exploration();
    let dims = space.dimensions();
    let mut axes = Axis::ALL.to_vec();
    (0..n)
        .map(|_| {
            let axis = axes.swap_remove(rng.below(axes.len() as u64) as usize);
            let level = rng.below(dims[axis.slot()] as u64) as u8;
            let value = axis.level_value(&space, level);
            match rng.below(3) {
                0 => Constraint::at_most(axis, value),
                1 => Constraint::at_least(axis, value),
                _ => Constraint::exactly(axis, value),
            }
        })
        .collect()
}

/// One query of `kind` drawn from `rng`; `ordinal` counts the queries of
/// that kind earlier in the block. Scans, top-k and Pareto queries take
/// their constraint count and scope from the ordinal, so every block has
/// the same cost profile and only the axes and levels are random.
pub fn generate(kind: Kind, ordinal: usize, rng: &mut Rng) -> Query {
    match kind {
        Kind::Point => Query::point(benchmark(rng), point(rng)),
        Kind::WhatIf => Query::what_if(benchmark(rng), point(rng), point(rng)),
        Kind::Scan => {
            // The first scan of a block asks for all nine optima from the
            // fused walk, as the heterogeneity study does; the rest ask for
            // one benchmark's. Scans take 3, 2, 1, 3, ... constraints, so
            // the all-nine scan, with the fewest distinct draws, takes
            // the most constraints and rarely repeats.
            let b = if ordinal == 0 { None } else { Some(benchmark(rng)) };
            Query::optimum(b, constraints(rng, 3 - ordinal % 3), 1)
        }
        Kind::TopK => {
            let b = benchmark(rng);
            Query::top_k(b, constraints(rng, 1 + ordinal % 2), 1, 1 + rng.below(20) as usize)
        }
        Kind::Pareto => {
            let b = benchmark(rng);
            Query::pareto(b, constraints(rng, 1 + ordinal % 2), 1, 20 + rng.below(81) as usize)
        }
        Kind::AxisSweep => {
            Query::axis_sweep(benchmark(rng), point(rng), Axis::ALL[rng.below(7) as usize])
        }
    }
}

/// Generates the next block of wire documents.
pub fn block(rng: &mut Rng) -> Vec<(Kind, String)> {
    let mut seen = [0; Kind::ALL.len()];
    block_kinds()
        .into_iter()
        .map(|k| {
            let ordinal = &mut seen[k as usize];
            *ordinal += 1;
            (k, generate(k, *ordinal - 1, rng).to_json().to_string_compact())
        })
        .collect()
}

fn study_config(seed: u64) -> StudyConfig {
    StudyConfig {
        train_samples: TRAIN_SAMPLES,
        validation_samples: 25,
        eval_stride: 1,
        delay_bins: 40,
        seed,
    }
}

/// Set-up: train the quick-scale suite, compile the stride-1 engine and
/// materialize its full sweep. Returns the engine and the training
/// simulation throughput in Minst/s.
fn setup(oracle: &dyn Oracle, seed: u64, tr: &mut Tracer) -> Result<(Engine, f64), String> {
    let cfg = study_config(seed);
    let started = Instant::now();
    let suite = tr
        .time("udse-core::studies train", || TrainedSuite::train(oracle, &cfg))
        .map_err(|e| format!("training failed: {e}"))?;
    let minst = (9 * TRAIN_SAMPLES * TRACE_LEN) as f64 / started.elapsed().as_secs_f64() / 1e6;
    let engine = tr.time("udse-core::query compile", || Engine::new(suite, &cfg));
    tr.time("udse-core::query sweep", || std::hint::black_box(engine.full_sweep()));
    Ok((engine, minst))
}

/// One answered query: what the timed phase keeps of it once its
/// output has been checked. Small, so the stream's length barely shows
/// in the peak resident set.
struct Answer {
    /// Client-side parse + execute + serialize seconds.
    client_s: f32,
    /// `Engine::execute` seconds, traced runs only (0 otherwise).
    exec_s: f32,
    /// `Query::parse` + serialize seconds, traced runs only (0 otherwise).
    codec_s: f32,
    kind: Kind,
    hit: bool,
}

/// Answers reserved up front, more than a 60 s run serves on the
/// reference machine. The reservation is virtual until written, so
/// resident memory grows with the answers kept, without the steps a
/// doubling vector would add.
const ANSWERS_RESERVED: usize = 1 << 21;

/// What the timed phase served.
struct Served {
    answers: Vec<Answer>,
    /// Wall seconds of each block.
    blocks: Vec<f64>,
    /// Answers that failed their output check.
    failed: u64,
    /// Seconds the output checks took, between the blocks.
    check_s: f64,
}

/// The timed phase: blocks of queries until the blocks have taken
/// `seconds` and at least `MIN_BLOCKS` ran. Each block's answers are
/// checked after its clock stops, so the documents never pile up.
fn serve(engine: &Engine, seed: u64, seconds: f64, traced: bool) -> Result<Served, String> {
    let hits = udse_obs::metrics::counter("query.cache.hits");
    let mut rng = Rng::new(seed);
    let mut served = Served {
        answers: Vec::with_capacity(ANSWERS_RESERVED),
        blocks: Vec::new(),
        failed: 0,
        check_s: 0.0,
    };
    let mut scans = 0;
    while served.blocks.len() < MIN_BLOCKS || served.blocks.iter().sum::<f64>() < seconds {
        let docs = block(&mut rng);
        let mut results = Vec::with_capacity(docs.len());
        let block_started = Instant::now();
        for (kind, doc) in &docs {
            let hits_before = hits.get();
            let t0 = Instant::now();
            let query = Query::parse(doc)?;
            let t1 = Instant::now();
            let result = engine.execute(&query)?;
            let t2 = Instant::now();
            let text = result.to_json().to_string_compact();
            let t3 = Instant::now();
            let (exec_s, codec_s) = if traced {
                ((t2 - t1).as_secs_f32(), (t1 - t0 + (t3 - t2)).as_secs_f32())
            } else {
                (0.0, 0.0)
            };
            served.answers.push(Answer {
                client_s: (t3 - t0).as_secs_f32(),
                exec_s,
                codec_s,
                kind: *kind,
                hit: hits.get() != hits_before,
            });
            results.push(text);
        }
        served.blocks.push(block_started.elapsed().as_secs_f64());
        let check_started = Instant::now();
        for ((kind, doc), result) in docs.iter().zip(&results) {
            let ordinal = (*kind == Kind::Scan).then(|| {
                scans += 1;
                scans - 1
            });
            if !check(engine, doc, result, ordinal) {
                served.failed += 1;
            }
        }
        served.check_s += check_started.elapsed().as_secs_f64();
    }
    Ok(served)
}

/// The brute-force answer to a constrained optimum: filter
/// `Engine::full_sweep` by the constraints' physical values and take the
/// last maximal `bips^3/w` in walk order, per requested benchmark.
fn brute_force_optimum(engine: &Engine, query: &Query) -> Vec<(DesignPoint, u64)> {
    let Query::ConstrainedOptimum {
        benchmark, objective: Objective::Efficiency, constraints, ..
    } = query
    else {
        return Vec::new();
    };
    let sweep = engine.full_sweep();
    let admits = |p: &DesignPoint| {
        constraints.iter().all(|c| {
            let v = c.axis.value(p);
            c.min.is_none_or(|m| v >= m) && c.max.is_none_or(|m| v <= m)
        })
    };
    let benches: Vec<Benchmark> = benchmark.map_or(Benchmark::ALL.to_vec(), |b| vec![b]);
    benches
        .iter()
        .filter_map(|b| {
            let mut best: Option<(DesignPoint, f64)> = None;
            for d in sweep[b.id() as usize].iter().filter(|d| admits(&d.point)) {
                let eff = d.predicted.bips_cubed_per_watt();
                if best.is_none_or(|(_, cur)| eff.total_cmp(&cur) != Ordering::Less) {
                    best = Some((d.point, eff));
                }
            }
            best.map(|(p, eff)| (p, eff.to_bits()))
        })
        .collect()
}

/// Output checks on the answer `text` to the query document `doc`;
/// `true` when it passes.
fn check(engine: &Engine, doc: &str, text: &str, scan_ordinal: Option<usize>) -> bool {
    let (Ok(query), Ok(result)) = (Query::parse(doc), QueryResult::parse(text)) else {
        return false;
    };
    // Every result document re-serializes to the same bytes.
    if result.to_json().to_string_compact() != text {
        return false;
    }
    let same = |b: Benchmark, p: &DesignPoint, got: udse_core::Metrics| {
        let want = engine.suite().models(b).predict_metrics(p);
        want.bips.to_bits() == got.bips.to_bits() && want.watts.to_bits() == got.watts.to_bits()
    };
    match (&query, &result) {
        (Query::Point { benchmark, point }, QueryResult::Point { row, .. }) => {
            row.point == *point && same(*benchmark, point, row.predicted)
        }
        (
            Query::WhatIf { benchmark, base, alternative },
            QueryResult::Delta { base: rb, alternative: ra, .. },
        ) => same(*benchmark, base, rb.predicted) && same(*benchmark, alternative, ra.predicted),
        (Query::ConstrainedOptimum { .. }, QueryResult::Optima { entries }) => {
            if scan_ordinal.is_none_or(|i| i % SCAN_CHECK_EVERY != 0) {
                return true;
            }
            let want = brute_force_optimum(engine, &query);
            want.len() == entries.len()
                && want
                    .iter()
                    .zip(entries)
                    .all(|((p, score), e)| *p == e.point && *score == e.score.to_bits())
        }
        (Query::TopK { .. }, QueryResult::Ranking { .. })
        | (Query::ParetoSlice { .. }, QueryResult::Frontier { .. })
        | (Query::AxisSweep { .. }, QueryResult::Sweep { .. }) => true,
        _ => false,
    }
}

/// Client seconds of one kind's cache misses.
fn latencies(answers: &[Answer], kind: Kind, pick: impl Fn(&Answer) -> f32) -> Vec<f64> {
    answers.iter().filter(|a| a.kind == kind && !a.hit).map(|a| f64::from(pick(a))).collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut served = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        // One suite and engine alive at a time, so the repetitions leave
        // no mark on the peak resident set.
        drop(served.take());
        let started = Instant::now();
        let sim = SimOracle::with_trace_len(TRACE_LEN).with_seed(args.seed);
        let (engine, minst) = setup(&sim, args.seed, &mut Tracer::off())?;
        setups.push(started.elapsed().as_secs_f64());
        rates.push(minst);
        served = Some((sim, engine));
    }
    let (sim, engine) = served.expect("at least one set-up");

    let counter = |name| udse_obs::metrics::counter(name).get();
    let (hits0, misses0) = (counter("query.cache.hits"), counter("query.cache.misses"));
    let Served { answers, blocks, failed, .. } = serve(&engine, args.seed, args.seconds, false)?;
    let (hits, misses) =
        (counter("query.cache.hits") - hits0, counter("query.cache.misses") - misses0);
    let hit_pct = 100.0 * hits as f64 / (hits + misses) as f64;
    let run_s = median(&blocks);
    let peak_rss = peak_rss_mb();

    let mut report = Report::new(answers.len() as u64, failed);
    if hit_pct > MAX_HIT_PCT {
        report.guards.push(format!("result-cache hit share {hit_pct:.2}% exceeds {MAX_HIT_PCT}%"));
    }
    for kind in [Kind::Point, Kind::Scan, Kind::TopK, Kind::Pareto] {
        let n = latencies(&answers, kind, |a| a.client_s).len();
        if n < MIN_SAMPLES {
            report
                .guards
                .push(format!("{} population has {n} samples, below {MIN_SAMPLES}", kind.name()));
        }
    }
    report.set("setup_s", median(&setups));
    report.set("run_s", run_s);
    report.set("peak_rss_mb", peak_rss);
    let point = latencies(&answers, Kind::Point, |a| a.client_s);
    let scan = latencies(&answers, Kind::Scan, |a| a.client_s);
    let queries_per_s = answers.len() as f64 / blocks.iter().sum::<f64>();
    eprintln!(
        "query: {} queries in {} blocks, {queries_per_s:.1} queries/s, result hits \
         {hit_pct:.2}%, point p50/p90/p99 {:.1}/{:.1}/{:.1} us, scan p50/p90/p99 {:.2}/{:.2}/{:.2} ms",
        answers.len(),
        blocks.len(),
        1e6 * percentile(&point, 50.0),
        1e6 * percentile(&point, 90.0),
        1e6 * percentile(&point, 99.0),
        1e3 * percentile(&scan, 50.0),
        1e3 * percentile(&scan, 90.0),
        1e3 * percentile(&scan, 99.0),
    );
    if !args.trace {
        return Ok(report);
    }

    report.set("sim_minst_per_s", median(&rates));
    report.set("queries_per_s", queries_per_s);
    report.set("point_p50_us", 1e6 * percentile(&point, 50.0));
    report.set("point_p90_us", 1e6 * percentile(&point, 90.0));
    report.set("scan_p50_ms", 1e3 * percentile(&scan, 50.0));
    report.set("scan_p90_ms", 1e3 * percentile(&scan, 90.0));
    report.set("query.result_hit_pct", hit_pct);
    let lookups = sim.precompute_hits() + sim.precompute_misses();
    report.set("oracle.memo_hit_pct", 100.0 * sim.precompute_hits() as f64 / lookups as f64);
    let held_out = DesignSpace::paper().sample_uar(HELD_OUT, args.seed ^ 0xA11D);
    record_errors(&mut report, &sim, &engine, &held_out);
    drop((answers, engine, sim));

    // Traced run: decomposed set-up, then the same stream with the codec
    // and the engine timed apart.
    let traced_started = Instant::now();
    let decomposed = DecomposedSim::new(SimOracle::with_trace_len(TRACE_LEN).with_seed(args.seed));
    decomposed.generate_traces();
    let timed = Timed::new(decomposed);
    let nested = || timed.wall_s();
    let mut tr = Tracer::on(&nested);
    let (engine, _) = setup(&timed, args.seed, &mut tr)?;
    let mark = CpuMark::now();
    let Served { answers, blocks, check_s, .. } = serve(&engine, args.seed, args.seconds, true)?;
    let (serve_wall, serve_cpu) = mark.elapsed();
    let traced_wall = traced_started.elapsed().as_secs_f64();

    let mut layers = std::mem::take(&mut tr.layers);
    timed.inner().tally().record(timed.wall_s(), &mut layers, &mut report);
    let exec = |a: &Answer| a.exec_s;
    let codec = |a: &Answer| a.codec_s;
    for kind in Kind::ALL {
        let total: f64 =
            answers.iter().filter(|a| a.kind == kind).map(|a| f64::from(a.exec_s)).sum();
        let n = answers.iter().filter(|a| a.kind == kind).count();
        let layer = format!("udse-core::query exec {}", kind.name());
        layers.add(&layer, total);
        layers.throughput(&layer, n as f64 / total, "queries/s");
    }
    let codec_s: f64 = answers.iter().map(|a| f64::from(a.codec_s)).sum();
    layers.add("udse-core::query codec", codec_s);
    layers.throughput("udse-core::query codec", answers.len() as f64 / codec_s, "docs/s");
    // What the client does besides the three calls and the output
    // checks: drawing the next block and bookkeeping.
    let calls: f64 = answers.iter().map(|a| f64::from(a.client_s)).sum();
    layers.checks(check_s);
    layers.client(serve_wall - calls - check_s);
    let coverage = layers.report("query", traced_wall);

    let exec_p50 = |kind: Kind| median(&latencies(&answers, kind, exec));
    report.set("query.point_exec_p50_us", 1e6 * exec_p50(Kind::Point));
    report.set("query.scan_exec_p50_ms", 1e3 * exec_p50(Kind::Scan));
    report.set("query.topk_exec_p50_ms", 1e3 * exec_p50(Kind::TopK));
    report.set("query.pareto_exec_p50_ms", 1e3 * exec_p50(Kind::Pareto));
    report.set("query.codec_p50_us", 1e6 * median(&latencies(&answers, Kind::Point, codec)));
    record_build(&layers, &mut report);
    report.set(
        "pool.busy_pct",
        100.0 * serve_cpu / (serve_wall * udse_obs::pool::max_workers() as f64),
    );
    report.set("layers.coverage_pct", coverage);
    report.set("trace.wall_s", traced_wall);
    report.set("trace.overhead_pct", 100.0 * (median(&blocks) - run_s) / run_s);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_per_seed() {
        let (mut a, mut b, mut c) = (Rng::new(11), Rng::new(11), Rng::new(12));
        for _ in 0..3 {
            let (x, y, z) = (block(&mut a), block(&mut b), block(&mut c));
            assert_eq!(x, y);
            assert_ne!(x, z);
        }
    }

    #[test]
    fn every_block_has_the_stated_mix() {
        let mut rng = Rng::new(5);
        let docs = block(&mut rng);
        assert_eq!(docs.len(), MIX.iter().map(|m| m.1).sum::<usize>());
        for (kind, n) in MIX {
            assert_eq!(docs.iter().filter(|d| d.0 == kind).count(), n, "{kind:?}");
        }
        let mut suite_scans = 0;
        for (kind, doc) in docs {
            let q = Query::parse(&doc).expect("generated documents parse");
            if let Query::ConstrainedOptimum { benchmark: None, .. } = q {
                suite_scans += 1;
            }
            let matches = matches!(
                (kind, q),
                (Kind::Point, Query::Point { .. })
                    | (Kind::WhatIf, Query::WhatIf { .. })
                    | (Kind::Scan, Query::ConstrainedOptimum { .. })
                    | (Kind::TopK, Query::TopK { .. })
                    | (Kind::Pareto, Query::ParetoSlice { .. })
                    | (Kind::AxisSweep, Query::AxisSweep { .. })
            );
            assert!(matches, "{kind:?} produced {doc}");
        }
        assert_eq!(suite_scans, 1, "one all-nine scan per block");
    }

    #[test]
    fn scan_documents_rarely_repeat() {
        let mut rng = Rng::new(3);
        let mut scans: Vec<String> = (0..60)
            .flat_map(|_| block(&mut rng))
            .filter(|d| d.0 == Kind::Scan)
            .map(|d| d.1)
            .collect();
        let n = scans.len();
        scans.sort();
        scans.dedup();
        assert!(100.0 * (n - scans.len()) as f64 / n as f64 <= MAX_HIT_PCT / 2.0);
    }
}
