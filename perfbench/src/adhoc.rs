//! `adhoc`: the direct one-off simulations the extensions and
//! `examples/custom_workload.rs` make, on one thread.
//!
//! Each round generates a freshly seeded 200k-instruction trace per
//! benchmark and simulates machine configs outside the Table 1 space
//! through `Simulator::run_with_warmup`. Nothing is memoized, and trace
//! generation is a large share of the work.

use std::time::Instant;

use udse_core::oracle::{Oracle, SimOracle};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_sim::{MachineConfig, Simulator};
use udse_trace::{Benchmark, Trace};

use crate::measure::{median, peak_rss_mb, CpuMark, Layers, Rng};
use crate::{Args, Report, SETUPS};

const TRACE_LEN: usize = 200_000;
/// The warmup the simulation oracle discards (a quarter of the trace).
const WARMUP: usize = TRACE_LEN / 4;
/// In-space designs per round re-evaluated through the simulation oracle.
const ORACLE_CHECKS: usize = 2;

/// The out-of-space variants simulated per benchmark and round: D-L1
/// associativity 1/2/4/8, in-order issue, both prefetchers on, and two
/// predictor sizes, all on the POWER4-like baseline.
pub fn variants() -> Vec<MachineConfig> {
    let base = MachineConfig::power4_baseline();
    let mut out: Vec<MachineConfig> =
        [1, 2, 4, 8].into_iter().map(|assoc| MachineConfig { dl1_assoc: assoc, ..base }).collect();
    out.push(MachineConfig { in_order: true, ..base });
    out.push(MachineConfig { il1_next_line_prefetch: true, dl1_stride_prefetch: true, ..base });
    out.push(MachineConfig { bht_entries: 1_024, bht_counter_bits: 2, ..base });
    out.push(MachineConfig { bht_entries: 65_536, ..base });
    out
}

/// The trace seed of round `round`.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(round as u64)
}

/// One simulation's inputs and outputs, kept for the checks.
struct Sim {
    round: usize,
    benchmark: Benchmark,
    /// The Table 1 point this config came from, if it is in the space.
    point: Option<DesignPoint>,
    decode_width: u32,
    ipc: f64,
    bips: f64,
    watts: f64,
}

/// Seconds spent in each timed call of a traced round.
#[derive(Default)]
struct Split {
    trace_s: f64,
    direct_s: f64,
}

/// One round: a fresh trace per benchmark, then every variant plus one
/// seeded in-space design on each. The round holds all nine traces, as a
/// caller sweeping configs over the suite does, so the traces rather
/// than allocator placement dominate its memory peak.
fn round(seed: u64, r: usize, rng: &mut Rng, sims: &mut Vec<Sim>, split: Option<&mut Split>) {
    let space = DesignSpace::paper();
    let points: Vec<DesignPoint> = Benchmark::ALL
        .iter()
        .map(|_| space.decode(rng.below(space.len())).expect("index in range"))
        .collect();
    let started = split.is_some().then(Instant::now);
    let traces: Vec<Trace> = Benchmark::ALL
        .iter()
        .map(|&b| Trace::generate(b, TRACE_LEN, round_seed(seed, r)))
        .collect();
    let generated = split.is_some().then(Instant::now);
    for (trace, point) in traces.iter().zip(points) {
        let configs = variants()
            .into_iter()
            .map(|c| (c, None))
            .chain([(point.to_machine_config(), Some(point))]);
        for (cfg, point) in configs {
            let result = Simulator::new(cfg).run_with_warmup(trace, WARMUP);
            sims.push(Sim {
                round: r,
                benchmark: trace.benchmark(),
                point,
                decode_width: cfg.decode_width,
                ipc: result.ipc,
                bips: result.bips,
                watts: result.watts,
            });
        }
    }
    if let (Some(s), Some(t0), Some(t1)) = (split, started, generated) {
        s.trace_s += (t1 - t0).as_secs_f64();
        s.direct_s += t1.elapsed().as_secs_f64();
    }
}

/// Rounds until `seconds` have passed; returns each round's wall seconds.
fn serve(seed: u64, seconds: f64, sims: &mut Vec<Sim>, mut split: Option<&mut Split>) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        round(seed, walls.len(), &mut rng, sims, split.as_deref_mut());
        walls.push(t.elapsed().as_secs_f64());
    }
    walls
}

/// Output checks: IPC never exceeds the decode width, and the in-space
/// designs of `ORACLE_CHECKS` benchmarks per round (rotating through the
/// suite) match `SimOracle::with_seed(..).evaluate` bit for bit.
fn failed_checks(seed: u64, sims: &[Sim]) -> u64 {
    // Simulations arrive round by round, so one oracle (one trace seed)
    // is alive at a time.
    let mut oracle: Option<(usize, SimOracle)> = None;
    sims.iter()
        .filter(|s| {
            let mut ok = s.ipc <= s.decode_width as f64;
            let sampled = (s.benchmark.id() as usize + ORACLE_CHECKS * s.round) % 9 < ORACLE_CHECKS;
            if let (Some(p), true) = (s.point, sampled) {
                if oracle.as_ref().is_none_or(|o| o.0 != s.round) {
                    let fresh =
                        SimOracle::with_trace_len(TRACE_LEN).with_seed(round_seed(seed, s.round));
                    oracle = Some((s.round, fresh));
                }
                let m = oracle.as_ref().expect("oracle for this round").1.evaluate(s.benchmark, &p);
                ok &=
                    m.bips.to_bits() == s.bips.to_bits() && m.watts.to_bits() == s.watts.to_bits();
            }
            !ok
        })
        .count() as u64
}

fn memo_lookups() -> u64 {
    ["sim.precompute.hits", "sim.precompute.misses", "oracle.cache.hits", "oracle.cache.misses"]
        .into_iter()
        .map(|n| udse_obs::metrics::counter(n).get())
        .sum()
}

pub fn run(args: &Args) -> Result<Report, String> {
    // Set-up: a warm-up round on one benchmark (its trace and every
    // variant), from a seed the timed rounds never use.
    let setups: Vec<f64> = (0..if args.trace { 1 } else { SETUPS })
        .map(|_| {
            let started = Instant::now();
            let trace = Trace::generate(Benchmark::ALL[0], TRACE_LEN, !args.seed);
            for cfg in variants() {
                std::hint::black_box(Simulator::new(cfg).run_with_warmup(&trace, WARMUP));
            }
            started.elapsed().as_secs_f64()
        })
        .collect();

    let lookups_before = memo_lookups();
    let mut sims = Vec::new();
    let started = Instant::now();
    let walls = serve(args.seed, args.seconds, &mut sims, None);
    let timed_s = started.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    let lookups = memo_lookups() - lookups_before;

    let mut report = Report::new(sims.len() as u64, failed_checks(args.seed, &sims));
    if lookups > 0 {
        report.guards.push(format!("{lookups} simulation-oracle memo lookups in the timed phase"));
    }
    report.set("setup_s", median(&setups));
    report.set("run_s", median(&walls));
    report.set("peak_rss_mb", peak_rss);
    let minst = (sims.len() * TRACE_LEN) as f64 / timed_s / 1e6;
    eprintln!(
        "adhoc: {} simulations in {} rounds, {timed_s:.3} s, {minst:.3} Minst/s",
        sims.len(),
        walls.len()
    );
    if !args.trace {
        return Ok(report);
    }
    report.set("sim_minst_per_s", minst);

    // Traced run: the same rounds with the trace generator and the direct
    // core timed apart.
    let mut traced_sims = Vec::new();
    let mut split = Split::default();
    let mark = CpuMark::now();
    let traced_walls = serve(args.seed, args.seconds, &mut traced_sims, Some(&mut split));
    let (traced_wall, traced_cpu) = mark.elapsed();
    let mismatched = sims
        .iter()
        .zip(&traced_sims)
        .filter(|(a, b)| {
            a.bips.to_bits() != b.bips.to_bits() || a.watts.to_bits() != b.watts.to_bits()
        })
        .count() as u64;
    report.failed += mismatched;

    let mut layers = Layers::default();
    layers.add("udse-trace generate", split.trace_s);
    let generated = (traced_walls.len() * 9 * TRACE_LEN) as f64;
    layers.throughput("udse-trace generate", generated / split.trace_s / 1e6, "Minst/s");
    layers.add("udse-sim direct core", split.direct_s);
    let simulated = (traced_sims.len() * TRACE_LEN) as f64;
    layers.throughput("udse-sim direct core", simulated / split.direct_s / 1e6, "Minst/s");
    layers.client(traced_wall - split.trace_s - split.direct_s);
    let coverage = layers.report("adhoc", traced_wall);

    report.set("trace.generate_s", split.trace_s);
    report.set("sim.direct_ms_per_design", 1e3 * split.direct_s / traced_sims.len() as f64);
    report.set("pool.busy_pct", 100.0 * traced_cpu / traced_wall);
    report.set("layers.coverage_pct", coverage);
    report.set("trace.wall_s", traced_wall);
    let run_s = median(&walls);
    report.set("trace.overhead_pct", 100.0 * (median(&traced_walls) - run_s) / run_s);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_valid_and_distinct() {
        let all = variants();
        assert_eq!(all.len(), 8);
        for (i, cfg) in all.iter().enumerate() {
            cfg.validate().expect("variant validates");
            assert!(all[..i].iter().all(|c| c != cfg), "variant {i} repeats");
        }
    }

    #[test]
    fn rounds_are_deterministic_per_seed() {
        let draw = |seed: u64| {
            let mut rng = Rng::new(seed);
            let space = DesignSpace::paper();
            let points: Vec<_> = (0..9).map(|_| space.decode(rng.below(space.len()))).collect();
            (points, round_seed(seed, 0), round_seed(seed, 1))
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
    }
}
