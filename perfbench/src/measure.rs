//! Measurement helpers: percentiles, process probes, a deterministic RNG,
//! and the per-layer table the traced runs fill.

use std::time::Instant;

use udse_core::oracle::Oracle;
use udse_core::query::Engine;
use udse_core::space::DesignPoint;
use udse_core::EvalPlan;

use crate::Report;

/// Percentile `p` (0..=100) of `xs` by linear interpolation between
/// closest ranks.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty population");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Process peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    udse_obs::cputime::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// Records the pooled `|sim - pred| / pred` percentiles, in percent, of
/// the engine's suite on `held_out` across the nine benchmarks. The
/// simulator is the reference; the repository holds no hardware data.
pub fn record_errors(
    report: &mut Report,
    oracle: &dyn Oracle,
    engine: &Engine,
    held_out: &[DesignPoint],
) {
    let plan = EvalPlan::cross_suite("perfbench.errors", held_out);
    let simulated = oracle.evaluate_plan(&plan);
    let (mut bips, mut watts) = (Vec::new(), Vec::new());
    for ((b, p), sim) in plan.jobs().iter().zip(&simulated) {
        let pred = engine.suite().models(*b).predict_metrics(p);
        bips.push(100.0 * (sim.bips - pred.bips).abs() / pred.bips);
        watts.push(100.0 * (sim.watts - pred.watts).abs() / pred.watts);
    }
    report.set("bips_err_p50_pct", percentile(&bips, 50.0));
    report.set("bips_err_p90_pct", percentile(&bips, 90.0));
    report.set("watts_err_p50_pct", percentile(&watts, 50.0));
    report.set("watts_err_p90_pct", percentile(&watts, 90.0));
}

/// Wall clock plus process CPU time at one instant, for pool-busy ratios.
pub struct CpuMark {
    wall: Instant,
    cpu_us: u64,
}

impl CpuMark {
    pub fn now() -> Self {
        CpuMark { wall: Instant::now(), cpu_us: udse_obs::cputime::process_cpu_us().unwrap_or(0) }
    }

    /// `(wall seconds, process CPU seconds)` elapsed since this mark.
    pub fn elapsed(&self) -> (f64, f64) {
        let cpu = udse_obs::cputime::process_cpu_us().unwrap_or(0).saturating_sub(self.cpu_us);
        (self.wall.elapsed().as_secs_f64(), cpu as f64 / 1e6)
    }
}

/// SplitMix64: the benchmark's only randomness, so every generated input
/// is a pure function of the `--seed` argument.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One row of a traced run's layer table.
struct Row {
    layer: String,
    self_s: f64,
    throughput: Option<(f64, &'static str)>,
}

/// Self time per layer of one traced run. Rows with the same layer name
/// accumulate.
#[derive(Default)]
pub struct Layers {
    rows: Vec<Row>,
    /// Time the benchmark's own client spent between layer calls; shown
    /// in the table but never counted as covered.
    client_s: f64,
    /// Time the benchmark's output checks took inside the traced wall;
    /// outside every timed window, so not part of the wall coverage
    /// is measured against.
    checks_s: f64,
}

impl Layers {
    /// Adds `self_s` seconds to `layer`.
    pub fn add(&mut self, layer: &str, self_s: f64) {
        match self.rows.iter_mut().find(|r| r.layer == layer) {
            Some(r) => r.self_s += self_s,
            None => self.rows.push(Row { layer: layer.to_string(), self_s, throughput: None }),
        }
    }

    /// Records the layer's throughput in its own unit.
    pub fn throughput(&mut self, layer: &str, value: f64, unit: &'static str) {
        self.add(layer, 0.0);
        let row = self.rows.iter_mut().find(|r| r.layer == layer).expect("row just added");
        row.throughput = Some((value, unit));
    }

    /// Adds `s` seconds of the benchmark client's own work.
    pub fn client(&mut self, s: f64) {
        self.client_s += s;
    }

    /// Adds `s` seconds of output checks made inside the traced wall.
    pub fn checks(&mut self, s: f64) {
        self.checks_s += s;
    }

    /// Self time recorded for `layer` (0 when absent).
    pub fn self_s(&self, layer: &str) -> f64 {
        self.rows.iter().find(|r| r.layer == layer).map_or(0.0, |r| r.self_s)
    }

    /// Prints the table against the traced wall time to stderr, naming the
    /// largest layer, and returns the coverage: the share of the wall less
    /// the output checks, in percent, the named layers account for. The
    /// rest is the client's own work and time between the timed calls that
    /// no layer claims.
    ///
    /// Most rows are residuals (a call's wall less the nested calls timed
    /// on their own), so library time inside a timed call always lands in
    /// some row: coverage measures how much of the wall the benchmark's
    /// own code, outside every timed call, takes.
    pub fn report(&self, workload: &str, wall_s: f64) -> f64 {
        let covered: f64 = self.rows.iter().map(|r| r.self_s).sum();
        let coverage = 100.0 * covered / (wall_s - self.checks_s);
        let largest = self
            .rows
            .iter()
            .max_by(|a, b| a.self_s.total_cmp(&b.self_s))
            .map_or_else(String::new, |r| r.layer.clone());
        eprintln!("layer table ({workload}, traced wall {wall_s:.3} s):");
        eprintln!("  {:<28} {:>10} {:>7}  throughput", "layer", "self s", "share");
        for r in &self.rows {
            let tp = r.throughput.map_or_else(String::new, |(v, u)| format!("{v:.4} {u}"));
            eprintln!(
                "  {:<28} {:>10.4} {:>6.1}%  {tp}",
                r.layer,
                r.self_s,
                100.0 * r.self_s / wall_s
            );
        }
        eprintln!(
            "  {:<28} {:>10.4} {:>6.1}%  (not a layer)",
            "perfbench client",
            self.client_s,
            100.0 * self.client_s / wall_s
        );
        if self.checks_s > 0.0 {
            eprintln!(
                "  {:<28} {:>10.4} {:>6.1}%  (outside the timed window)",
                "perfbench output checks",
                self.checks_s,
                100.0 * self.checks_s / wall_s
            );
        }
        eprintln!(
            "  coverage {coverage:.1}% of the traced wall less the checks; largest layer: {largest}"
        );
        coverage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..5).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..5).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..5).scan(Rng::new(8), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
