//! Manifest inspection: summaries, cross-run regression diffs, and
//! Chrome-trace export — the analysis layer over `udse-obs` manifests.
//!
//! [`show`] renders one manifest for humans; [`diff`] compares two runs
//! (wall time, metrics, model quality) against configurable tolerances
//! and reports regressions — the CI gate behind `scripts/bench.sh`;
//! [`trace_from_manifest`] turns a manifest's span totals into a
//! Perfetto-loadable Chrome `trace_event` document, and
//! [`folded_from_manifest`] into flamegraph folded stacks.

use udse_obs::manifest::ParsedManifest;
use udse_obs::{trace, Json};

/// Thresholds for [`diff`]. Wall time and model quality gate hard;
/// counter drift only warns (legitimate code changes move instruction
/// counts, and the warning is the point).
#[derive(Debug, Clone)]
pub struct DiffTolerances {
    /// Allowed relative wall-time growth per artifact and in total, in
    /// percent.
    pub wall_pct: f64,
    /// Absolute wall-time slack in seconds, so microsecond-scale
    /// artifacts don't trip the relative gate on scheduler noise.
    pub wall_floor_seconds: f64,
    /// Allowed absolute increase in a per-benchmark quality error
    /// statistic (p50/p90/|bias| are fractions, so 0.02 = two error
    /// points). This is the default budget; pooled and max statistics
    /// have their own budgets below.
    pub quality_abs: f64,
    /// Budget for *pooled* records (key contains `.pooled.`): pooled
    /// medians average over 9 x N errors and are far less noisy than any
    /// single benchmark, so they get a tighter budget.
    pub quality_pooled_abs: f64,
    /// Budget for the `max` statistic of any record: the worst single
    /// error is the noisiest order statistic, so it gets a looser budget.
    pub quality_max_abs: f64,
    /// Counter drift (percent) beyond which a warning is emitted.
    pub counter_warn_pct: f64,
    /// Gauge watchlist: `(metric name, percent)` pairs. A watched gauge
    /// that *falls* more than `percent` below the baseline emits a
    /// warning (never a gate — gauges are timing-dependent). Used for
    /// throughput gauges like `sweep.designs_per_sec`, where only a drop
    /// is suspicious.
    pub gauge_warn: Vec<(String, f64)>,
    /// Gauge floors: `(metric name, minimum value)` pairs. Unlike the
    /// relative `gauge_warn` watchlist, a floored gauge **gates**: if the
    /// NEW run's gauge falls below the absolute floor (or is missing
    /// entirely), the diff fails. This is how a step-change throughput
    /// win is locked in — e.g. `sweep.designs_per_sec:<floor>` keeps the
    /// structure-of-arrays sweep from silently regressing toward the
    /// pre-SoA rate, where a percentage watch against a fresh baseline
    /// would drift along with it.
    pub min_gauge: Vec<(String, f64)>,
    /// Resource gates: `(metric name, percent, absolute floor)`
    /// triples. The mirror image of `gauge_warn` — a watched resource
    /// metric that *rises* above the baseline **gates** (allocation
    /// counts are deterministic, so a rise is a real regression, and
    /// "the compiled sweep allocates nothing per design" is exactly the
    /// kind of claim this enforces). The rise must exceed both the
    /// relative `percent` and the `floor` (in the metric's own units)
    /// to gate, so per-chunk setup noise on a near-zero baseline never
    /// trips it. Names resolve against the metrics section, or against
    /// the v3 `resources` section with a `resources.` prefix (e.g.
    /// `resources.alloc_bytes`).
    pub resource_gate: Vec<(String, f64, f64)>,
    /// Demote wall-time regressions to warnings (CI runs on shared,
    /// differently-sized machines; quality stays gated).
    pub warn_wall: bool,
}

impl Default for DiffTolerances {
    fn default() -> Self {
        DiffTolerances {
            wall_pct: 25.0,
            wall_floor_seconds: 0.05,
            quality_abs: 0.02,
            quality_pooled_abs: 0.01,
            quality_max_abs: 0.05,
            counter_warn_pct: 10.0,
            gauge_warn: Vec::new(),
            min_gauge: Vec::new(),
            resource_gate: Vec::new(),
            warn_wall: false,
        }
    }
}

impl DiffTolerances {
    /// The budget for one `(record key, statistic)` pair: `max` always
    /// uses the loose per-record budget, pooled records use the tight
    /// pooled budget for their center statistics, everything else uses
    /// the per-benchmark default.
    pub fn quality_budget(&self, key: &str, stat: &str) -> f64 {
        if stat == "max" {
            self.quality_max_abs
        } else if key.contains(".pooled.") {
            self.quality_pooled_abs
        } else {
            self.quality_abs
        }
    }
}

/// Outcome of a [`diff`]: informational lines, warnings, and gating
/// regressions.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Per-comparison detail lines, for display.
    pub lines: Vec<String>,
    /// Suspicious but non-gating observations.
    pub warnings: Vec<String>,
    /// Tolerance violations; any entry means the gate fails.
    pub regressions: Vec<String>,
}

impl DiffReport {
    /// Whether the diff found a gating regression.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// The full human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        for r in &self.regressions {
            out.push_str(&format!("REGRESSION: {r}\n"));
        }
        if self.regressions.is_empty() {
            out.push_str("diff: within tolerances\n");
        } else {
            out.push_str(&format!("diff: {} regression(s)\n", self.regressions.len()));
        }
        out
    }
}

/// Compares run `new` against baseline `old`.
pub fn diff(old: &ParsedManifest, new: &ParsedManifest, tol: &DiffTolerances) -> DiffReport {
    let mut report = DiffReport::default();
    diff_wall(old, new, tol, &mut report);
    diff_quality(old, new, tol, &mut report);
    diff_counters(old, new, tol, &mut report);
    diff_gauges(old, new, tol, &mut report);
    diff_min_gauges(new, tol, &mut report);
    diff_resources(old, new, tol, &mut report);
    report
}

fn gate_wall(tol: &DiffTolerances, report: &mut DiffReport, message: String) {
    if tol.warn_wall {
        report.warnings.push(message);
    } else {
        report.regressions.push(message);
    }
}

fn diff_wall(
    old: &ParsedManifest,
    new: &ParsedManifest,
    tol: &DiffTolerances,
    report: &mut DiffReport,
) {
    let factor = 1.0 + tol.wall_pct / 100.0;
    for a in &old.artifacts {
        let Some(b) = new.artifact_wall_seconds(&a.name) else {
            report.warnings.push(format!("artifact `{}` missing from new run", a.name));
            continue;
        };
        report.lines.push(format!(
            "wall {:<12} {:>9.3}s -> {:>9.3}s ({:+.1}%)",
            a.name,
            a.wall_seconds,
            b,
            pct_change(a.wall_seconds, b)
        ));
        if b > a.wall_seconds * factor && b - a.wall_seconds > tol.wall_floor_seconds {
            gate_wall(
                tol,
                report,
                format!(
                    "artifact `{}` wall time {:.3}s -> {:.3}s exceeds +{}% tolerance",
                    a.name, a.wall_seconds, b, tol.wall_pct
                ),
            );
        }
    }
    for b in &new.artifacts {
        if old.artifact_wall_seconds(&b.name).is_none() {
            report.warnings.push(format!("artifact `{}` only in new run", b.name));
        }
    }
    let (old_total, new_total) = (old.total_wall_seconds(), new.total_wall_seconds());
    report.lines.push(format!(
        "wall {:<12} {:>9.3}s -> {:>9.3}s ({:+.1}%)",
        "TOTAL",
        old_total,
        new_total,
        pct_change(old_total, new_total)
    ));
    if new_total > old_total * factor && new_total - old_total > tol.wall_floor_seconds {
        gate_wall(
            tol,
            report,
            format!(
                "total wall time {old_total:.3}s -> {new_total:.3}s exceeds +{}% tolerance",
                tol.wall_pct
            ),
        );
    }
}

fn diff_quality(
    old: &ParsedManifest,
    new: &ParsedManifest,
    tol: &DiffTolerances,
    report: &mut DiffReport,
) {
    for o in &old.quality {
        let Some(n) = new.quality_record(&o.key) else {
            report.regressions.push(format!(
                "quality record `{}` disappeared (telemetry lost or stage skipped)",
                o.key
            ));
            continue;
        };
        report.lines.push(format!(
            "quality {:<28} p50 {:>6.2}% -> {:>6.2}%  p90 {:>6.2}% -> {:>6.2}%",
            o.key,
            o.p50 * 100.0,
            n.p50 * 100.0,
            o.p90 * 100.0,
            n.p90 * 100.0
        ));
        for (stat, old_v, new_v) in [
            ("p50", o.p50, n.p50),
            ("p90", o.p90, n.p90),
            ("bias", o.bias.abs(), n.bias.abs()),
            ("max", o.max, n.max),
        ] {
            let budget = tol.quality_budget(&o.key, stat);
            if new_v - old_v > budget {
                report.regressions.push(format!(
                    "quality `{}` {stat} worsened {:.4} -> {:.4} (tolerance +{:.4})",
                    o.key, old_v, new_v, budget
                ));
            }
        }
        if o.r_squared.is_finite() && n.r_squared.is_finite() && o.r_squared - n.r_squared > 0.05 {
            report.warnings.push(format!(
                "quality `{}` R² fell {:.4} -> {:.4}",
                o.key, o.r_squared, n.r_squared
            ));
        }
    }
    for n in &new.quality {
        if old.quality_record(&n.key).is_none() {
            report.lines.push(format!("quality {:<28} new record (no baseline)", n.key));
        }
    }
}

fn diff_counters(
    old: &ParsedManifest,
    new: &ParsedManifest,
    tol: &DiffTolerances,
    report: &mut DiffReport,
) {
    for (name, old_v) in &old.metrics {
        let (Some(o), Some(n)) = (old_v.as_i64(), new.metric(name).and_then(Json::as_i64)) else {
            continue; // gauges: timing-dependent, not diffed
        };
        if o == n {
            continue;
        }
        let change = pct_change(o as f64, n as f64);
        report.lines.push(format!("counter {name} {o} -> {n} ({change:+.1}%)"));
        if change.abs() > tol.counter_warn_pct {
            report.warnings.push(format!(
                "counter `{name}` moved {change:+.1}% (> {}%): workload shape changed",
                tol.counter_warn_pct
            ));
        }
    }
}

fn diff_gauges(
    old: &ParsedManifest,
    new: &ParsedManifest,
    tol: &DiffTolerances,
    report: &mut DiffReport,
) {
    for (name, pct) in &tol.gauge_warn {
        let (Some(o), Some(n)) =
            (old.metric(name).and_then(Json::as_f64), new.metric(name).and_then(Json::as_f64))
        else {
            report
                .warnings
                .push(format!("gauge `{name}` on the watchlist but missing from a manifest"));
            continue;
        };
        report.lines.push(format!("gauge {name} {o:.1} -> {n:.1} ({:+.1}%)", pct_change(o, n)));
        if n < o * (1.0 - pct / 100.0) {
            report.warnings.push(format!(
                "gauge `{name}` fell {o:.1} -> {n:.1} (more than {pct}% below baseline)"
            ));
        }
    }
}

/// Hard absolute floors on the NEW run's gauges. Only the new manifest is
/// consulted: the floor is a fixed contract, not a comparison, so a
/// refreshed baseline can never relax it by accident. A floored gauge
/// missing from the new run also gates — losing the telemetry would
/// otherwise disable the gate silently.
fn diff_min_gauges(new: &ParsedManifest, tol: &DiffTolerances, report: &mut DiffReport) {
    for (name, floor) in &tol.min_gauge {
        let Some(n) = new.metric(name).and_then(Json::as_f64) else {
            report
                .regressions
                .push(format!("gauge `{name}` has floor {floor} but is missing from the new run"));
            continue;
        };
        report.lines.push(format!("gauge {name} {n:.1} (floor {floor:.1})"));
        if n < *floor {
            report
                .regressions
                .push(format!("gauge `{name}` {n:.1} fell below the hard floor {floor:.1}"));
        }
    }
}

/// Resolves a resource-gate name: `resources.<field>` reads the v3
/// `resources` section, anything else reads the metrics section
/// (counters and gauges both answer `as_f64`). A field the producing
/// run did not measure (allocation fields without the counting
/// allocator, `null` probes) resolves to `None`, never to zero.
fn resource_value(m: &ParsedManifest, name: &str) -> Option<f64> {
    if let Some(field) = name.strip_prefix("resources.") {
        let r = &m.resources;
        let counted = |v: u64| r.alloc_counting.then_some(v as f64);
        return match field {
            "allocs" => counted(r.allocs),
            "deallocs" => counted(r.deallocs),
            "alloc_bytes" => counted(r.alloc_bytes),
            "peak_bytes" => counted(r.peak_bytes),
            "peak_rss_kb" => r.peak_rss_kb.map(|v| v as f64),
            "cpu_seconds" => r.cpu_seconds,
            _ => None,
        };
    }
    m.metric(name).and_then(Json::as_f64)
}

fn diff_resources(
    old: &ParsedManifest,
    new: &ParsedManifest,
    tol: &DiffTolerances,
    report: &mut DiffReport,
) {
    for (name, pct, floor) in &tol.resource_gate {
        let (Some(o), Some(n)) = (resource_value(old, name), resource_value(new, name)) else {
            report
                .warnings
                .push(format!("resource `{name}` on the watchlist but missing from a manifest"));
            continue;
        };
        report.lines.push(format!("resource {name} {o:.3} -> {n:.3} ({:+.1}%)", pct_change(o, n)));
        if n > o * (1.0 + pct / 100.0) && n - o > *floor {
            report.regressions.push(format!(
                "resource `{name}` rose {o:.3} -> {n:.3} (more than +{pct}% over baseline, \
                 floor {floor})"
            ));
        }
    }
}

fn pct_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - old) / old * 100.0
    }
}

/// Renders one manifest as a human-readable summary.
pub fn show(m: &ParsedManifest) -> String {
    let mut out = format!(
        "tool: {}  (manifest schema v{}, created unix ms {})\n",
        m.tool, m.schema_version, m.created_unix_ms
    );
    if !m.config.is_empty() {
        out.push_str("config:\n");
        for (k, v) in &m.config {
            out.push_str(&format!("  {k} = {}\n", v.to_string_compact()));
        }
    }
    if !m.artifacts.is_empty() {
        out.push_str("\nartifacts:\n");
        for a in &m.artifacts {
            out.push_str(&format!("  {:<14} {:>10.3}s\n", a.name, a.wall_seconds));
        }
        out.push_str(&format!("  {:<14} {:>10.3}s\n", "TOTAL", m.total_wall_seconds()));
    }
    if !m.quality.is_empty() {
        out.push_str(&format!(
            "\nmodel quality (relative error):\n  {:<28} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "key", "n", "p50%", "p90%", "max%", "bias%", "R2"
        ));
        for q in &m.quality {
            out.push_str(&format!(
                "  {:<28} {:>5} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8}\n",
                q.key,
                q.n,
                q.p50 * 100.0,
                q.p90 * 100.0,
                q.max * 100.0,
                q.bias * 100.0,
                if q.r_squared.is_finite() { format!("{:.4}", q.r_squared) } else { "-".into() },
            ));
        }
    }
    if !m.spans.is_empty() {
        // Resource columns render only when some span measured something:
        // an all-zero column would read as "allocation-free" when the
        // producing binary simply had no counting allocator installed.
        let with_resources =
            m.spans.iter().any(|(_, s)| s.cpu_seconds > 0.0 || s.allocs > 0 || s.alloc_bytes > 0);
        out.push_str("\nspans (total seconds):\n");
        for (path, s) in &m.spans {
            out.push_str(&format!(
                "  {:<36} {:>6} calls {:>10.3}s",
                path, s.count, s.total_seconds
            ));
            if with_resources {
                out.push_str(&format!(
                    " {:>9.3}s cpu {:>10} allocs {:>10}",
                    s.cpu_seconds,
                    s.allocs,
                    udse_obs::span::fmt_bytes(s.alloc_bytes)
                ));
            }
            out.push('\n');
        }
    }
    let r = &m.resources;
    out.push_str("\nresources:\n");
    if let Some(cpu) = r.cpu_seconds {
        out.push_str(&format!("  cpu time: {cpu:.3}s\n"));
    }
    if let Some(rss) = r.peak_rss_kb {
        out.push_str(&format!("  peak rss: {:.1} MB\n", rss as f64 / 1024.0));
    }
    if r.alloc_counting {
        out.push_str(&format!(
            "  heap: {} allocs / {} frees, {} allocated, peak live {}\n",
            r.allocs,
            r.deallocs,
            udse_obs::span::fmt_bytes(r.alloc_bytes),
            udse_obs::span::fmt_bytes(r.peak_bytes)
        ));
    } else {
        out.push_str("  heap: not measured (producing binary had no counting allocator)\n");
    }
    // Query-engine counters get their own digest, but only when the run
    // actually executed queries — most manifests carry none, and an
    // all-zero section would suggest a broken cache rather than an
    // unused one.
    let qmetric = |name: &str| m.metric(name).and_then(Json::as_f64);
    if let Some(executed) = qmetric("query.executed") {
        out.push_str(&format!("\nquery engine:\n  executed: {executed:.0}\n"));
        let hits = qmetric("query.cache.hits").unwrap_or(0.0);
        let misses = qmetric("query.cache.misses").unwrap_or(0.0);
        let lookups = (hits + misses).max(1.0);
        out.push_str(&format!(
            "  result cache: {hits:.0} hits / {misses:.0} misses ({:.0}% hit rate), {} held",
            100.0 * hits / lookups,
            udse_obs::span::fmt_bytes(qmetric("query.cache.bytes").unwrap_or(0.0) as u64),
        ));
        if let Some(evicted) = qmetric("query.cache.evictions") {
            out.push_str(&format!(", {evicted:.0} evicted"));
        }
        out.push('\n');
        if let Some(rate) = qmetric("query.designs_per_sec") {
            out.push_str(&format!("  scan throughput: {rate:.0} designs/sec\n"));
        }
    }
    if !m.metrics.is_empty() {
        out.push_str("\nmetrics:\n");
        for (name, v) in &m.metrics {
            out.push_str(&format!("  {name} = {}\n", v.to_string_compact()));
        }
    }
    out
}

/// Synthesizes a Chrome `trace_event` document from a manifest's span
/// totals (see [`trace::synthesize_from_spans`] for the layout rules).
pub fn trace_from_manifest(m: &ParsedManifest) -> Json {
    let totals: Vec<(String, f64)> =
        m.spans.iter().map(|(path, s)| (path.clone(), s.total_seconds)).collect();
    trace::chrome_trace_json(&trace::synthesize_from_spans(&totals))
}

/// Renders a manifest's span totals as folded stacks (`a;b;c self_us`
/// per line), the input format of Brendan Gregg's `flamegraph.pl` and
/// the inferno toolchain. Delegates to [`udse_obs::span::folded`] after
/// converting the manifest's second-resolution totals to microseconds.
pub fn folded_from_manifest(m: &ParsedManifest) -> String {
    let stats: Vec<(String, udse_obs::span::SpanStat)> = m
        .spans
        .iter()
        .map(|(path, s)| {
            let total = std::time::Duration::from_secs_f64(s.total_seconds.max(0.0));
            let max = std::time::Duration::from_secs_f64(s.max_seconds.max(0.0));
            let cpu = std::time::Duration::from_secs_f64(s.cpu_seconds.max(0.0));
            let stat = udse_obs::span::SpanStat {
                count: s.count,
                total,
                max,
                cpu,
                allocs: s.allocs,
                alloc_bytes: s.alloc_bytes,
            };
            (path.clone(), stat)
        })
        .collect();
    udse_obs::span::folded(&stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udse_obs::manifest::{ArtifactRecord, ResourceTotals, SpanTotal};
    use udse_obs::QualityRecord;

    fn manifest(
        artifacts: &[(&str, f64)],
        quality: &[(&str, f64, f64)], // (key, p50, p90)
        counters: &[(&str, i64)],
    ) -> ParsedManifest {
        ParsedManifest {
            schema_version: 3,
            tool: "repro".into(),
            created_unix_ms: 1,
            config: vec![],
            artifacts: artifacts
                .iter()
                .map(|&(n, w)| ArtifactRecord { name: n.into(), wall_seconds: w })
                .collect(),
            metrics: counters.iter().map(|&(n, v)| (n.to_string(), Json::Int(v))).collect(),
            spans: vec![(
                "all".into(),
                SpanTotal {
                    count: 1,
                    total_seconds: 1.0,
                    max_seconds: 1.0,
                    ..SpanTotal::default()
                },
            )],
            quality: quality
                .iter()
                .map(|&(key, p50, p90)| QualityRecord {
                    key: key.into(),
                    n: 25,
                    p50,
                    p90,
                    max: p90 * 2.0,
                    bias: -0.001,
                    rmse: p90,
                    r_squared: 0.99,
                })
                .collect(),
            resources: ResourceTotals::default(),
        }
    }

    #[test]
    fn identical_runs_pass() {
        let m = manifest(&[("fig1", 3.0)], &[("validation.pooled.bips", 0.02, 0.06)], &[("c", 5)]);
        let report = diff(&m, &m, &DiffTolerances::default());
        assert!(!report.is_regression(), "report: {}", report.render());
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn quality_regression_beyond_tolerance_gates() {
        let old = manifest(&[("fig1", 3.0)], &[("validation.pooled.bips", 0.02, 0.06)], &[]);
        let new = manifest(&[("fig1", 3.0)], &[("validation.pooled.bips", 0.08, 0.06)], &[]);
        let report = diff(&old, &new, &DiffTolerances::default());
        assert!(report.is_regression());
        assert!(report.regressions[0].contains("p50"), "{:?}", report.regressions);
        // Within tolerance: fine.
        let ok = manifest(&[("fig1", 3.0)], &[("validation.pooled.bips", 0.03, 0.06)], &[]);
        assert!(!diff(&old, &ok, &DiffTolerances::default()).is_regression());
        // Improvement is never a regression.
        let better = manifest(&[("fig1", 3.0)], &[("validation.pooled.bips", 0.01, 0.02)], &[]);
        assert!(!diff(&old, &better, &DiffTolerances::default()).is_regression());
    }

    #[test]
    fn pooled_records_use_the_tighter_budget() {
        // A +0.015 p50 drift passes the default 0.02 per-benchmark budget
        // but violates the 0.01 pooled budget.
        let old = manifest(&[("fig1", 3.0)], &[("validation.pooled.bips", 0.020, 0.06)], &[]);
        let new = manifest(&[("fig1", 3.0)], &[("validation.pooled.bips", 0.035, 0.06)], &[]);
        let report = diff(&old, &new, &DiffTolerances::default());
        assert!(report.is_regression(), "pooled p50 must gate at the tight budget");
        assert!(report.regressions[0].contains("0.0100"), "{:?}", report.regressions);
    }

    #[test]
    fn per_benchmark_records_use_the_default_budget() {
        // The same +0.015 p50 drift on a per-benchmark record stays
        // inside the looser 0.02 default budget.
        let old = manifest(&[("fig1", 3.0)], &[("validation.ammp.bips", 0.020, 0.06)], &[]);
        let new = manifest(&[("fig1", 3.0)], &[("validation.ammp.bips", 0.035, 0.06)], &[]);
        assert!(!diff(&old, &new, &DiffTolerances::default()).is_regression());
        // ... but a +0.025 drift gates.
        let worse = manifest(&[("fig1", 3.0)], &[("validation.ammp.bips", 0.046, 0.06)], &[]);
        assert!(diff(&old, &worse, &DiffTolerances::default()).is_regression());
    }

    #[test]
    fn max_statistic_uses_the_loosest_budget() {
        // The helper derives max = 2 * p90, so moving p90 moves max.
        // A p90 drift of +0.018: within the default 0.02 for p90 itself,
        // max moves +0.036 — within the 0.05 max budget. No gate.
        let old = manifest(&[("fig1", 3.0)], &[("validation.ammp.bips", 0.01, 0.060)], &[]);
        let new = manifest(&[("fig1", 3.0)], &[("validation.ammp.bips", 0.01, 0.078)], &[]);
        assert!(!diff(&old, &new, &DiffTolerances::default()).is_regression());
        // A p90 drift of +0.03 pushes max up +0.06 > 0.05: both gate, and
        // the max violation reports the loose budget.
        let worse = manifest(&[("fig1", 3.0)], &[("validation.ammp.bips", 0.01, 0.090)], &[]);
        let report = diff(&old, &worse, &DiffTolerances::default());
        assert!(report.is_regression());
        assert!(
            report.regressions.iter().any(|r| r.contains("max") && r.contains("0.0500")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn quality_budget_selection() {
        let tol = DiffTolerances::default();
        assert_eq!(tol.quality_budget("validation.pooled.bips", "p50"), 0.01);
        assert_eq!(tol.quality_budget("validation.pooled.bips", "max"), 0.05);
        assert_eq!(tol.quality_budget("validation.ammp.bips", "p50"), 0.02);
        assert_eq!(tol.quality_budget("depth.original.eff", "bias"), 0.02);
        assert_eq!(tol.quality_budget("heterogeneity.compromise.watts", "max"), 0.05);
    }

    #[test]
    fn folded_export_from_manifest() {
        let mut m = manifest(&[("fig1", 1.0)], &[], &[]);
        m.spans = vec![
            (
                "all".into(),
                SpanTotal {
                    count: 1,
                    total_seconds: 1.0,
                    max_seconds: 1.0,
                    ..SpanTotal::default()
                },
            ),
            (
                "all/fit".into(),
                SpanTotal {
                    count: 9,
                    total_seconds: 0.4,
                    max_seconds: 0.1,
                    ..SpanTotal::default()
                },
            ),
        ];
        let folded = folded_from_manifest(&m);
        assert_eq!(folded, "all 600000\nall;fit 400000\n");
    }

    #[test]
    fn lost_quality_record_gates() {
        let old = manifest(&[("fig1", 3.0)], &[("validation.pooled.bips", 0.02, 0.06)], &[]);
        let new = manifest(&[("fig1", 3.0)], &[], &[]);
        let report = diff(&old, &new, &DiffTolerances::default());
        assert!(report.is_regression());
        assert!(report.regressions[0].contains("disappeared"));
    }

    #[test]
    fn wall_regression_gates_unless_warn_only() {
        let old = manifest(&[("fig1", 2.0)], &[], &[]);
        let new = manifest(&[("fig1", 3.0)], &[], &[]);
        assert!(diff(&old, &new, &DiffTolerances::default()).is_regression());
        let tol = DiffTolerances { warn_wall: true, ..DiffTolerances::default() };
        let report = diff(&old, &new, &tol);
        assert!(!report.is_regression());
        assert!(!report.warnings.is_empty(), "demoted to warning");
        // Sub-floor jitter on a tiny artifact never gates.
        let old = manifest(&[("space", 0.001)], &[], &[]);
        let new = manifest(&[("space", 0.010)], &[], &[]);
        assert!(!diff(&old, &new, &DiffTolerances::default()).is_regression());
    }

    #[test]
    fn watched_gauge_drop_warns_but_does_not_gate() {
        let gauge = |v: f64| {
            let mut m = manifest(&[("fig1", 1.0)], &[], &[]);
            m.metrics.push(("sweep.designs_per_sec".into(), Json::Float(v)));
            m
        };
        let tol = DiffTolerances {
            gauge_warn: vec![("sweep.designs_per_sec".into(), 50.0)],
            ..DiffTolerances::default()
        };
        let (old, slow, ok) = (gauge(100_000.0), gauge(40_000.0), gauge(60_000.0));
        let report = diff(&old, &slow, &tol);
        assert!(!report.is_regression(), "gauges never gate");
        assert!(report.warnings.iter().any(|w| w.contains("sweep.designs_per_sec")));
        // A drop within the allowance stays quiet.
        assert!(diff(&old, &ok, &tol).warnings.is_empty());
        // Unwatched gauges are ignored entirely.
        assert!(diff(&old, &slow, &DiffTolerances::default()).warnings.is_empty());
        // A watched gauge missing from a manifest warns.
        let bare = manifest(&[("fig1", 1.0)], &[], &[]);
        assert!(diff(&old, &bare, &tol).warnings.iter().any(|w| w.contains("missing")));
    }

    #[test]
    fn gauge_floor_gates_hard_on_the_new_run() {
        let gauge = |v: f64| {
            let mut m = manifest(&[("fig1", 1.0)], &[], &[]);
            m.metrics.push(("sweep.designs_per_sec".into(), Json::Float(v)));
            m
        };
        let tol = DiffTolerances {
            min_gauge: vec![("sweep.designs_per_sec".into(), 50_000.0)],
            ..DiffTolerances::default()
        };
        let old = gauge(100_000.0);
        // Below the floor: gates regardless of how the baseline moved.
        let report = diff(&old, &gauge(40_000.0), &tol);
        assert!(report.is_regression());
        assert!(report.regressions[0].contains("hard floor"), "{:?}", report.regressions);
        // At or above the floor: passes, even if below the baseline.
        assert!(!diff(&old, &gauge(50_000.0), &tol).is_regression());
        assert!(!diff(&old, &gauge(80_000.0), &tol).is_regression());
        // The floor reads only the NEW run: a baseline without the gauge
        // still gates a floored new run correctly.
        let bare = manifest(&[("fig1", 1.0)], &[], &[]);
        assert!(!diff(&bare, &gauge(80_000.0), &tol).is_regression());
        // A floored gauge missing from the new run gates — losing the
        // telemetry must not silently disable the gate.
        let report = diff(&old, &bare, &tol);
        assert!(report.is_regression());
        assert!(report.regressions[0].contains("missing"), "{:?}", report.regressions);
        // Unfloored runs are unaffected.
        assert!(!diff(&old, &gauge(40_000.0), &DiffTolerances::default()).is_regression());
    }

    #[test]
    fn resource_rise_gates_a_deliberately_allocating_regression() {
        let alloc = |bytes: i64| {
            let mut m = manifest(&[("fig1", 1.0)], &[], &[]);
            m.metrics.push(("alloc.bytes".into(), Json::Int(bytes)));
            m
        };
        let tol = DiffTolerances {
            resource_gate: vec![("alloc.bytes".into(), 10.0, 1024.0)],
            ..DiffTolerances::default()
        };
        let old = alloc(100_000);
        // A 4x allocation rise gates hard — unlike gauge_warn, which
        // only watches falls and never gates.
        let report = diff(&old, &alloc(400_000), &tol);
        assert!(report.is_regression());
        assert!(report.regressions[0].contains("alloc.bytes"), "{:?}", report.regressions);
        // Identical usage and improvement pass.
        assert!(!diff(&old, &alloc(100_000), &tol).is_regression());
        assert!(!diff(&old, &alloc(50_000), &tol).is_regression());
        // A big relative rise on a tiny baseline stays under the
        // absolute floor: +90% but only 900 bytes.
        assert!(!diff(&alloc(1_000), &alloc(1_900), &tol).is_regression());
        // Unwatched resource metrics never gate.
        assert!(!diff(&old, &alloc(400_000), &DiffTolerances::default()).is_regression());
        // A watched resource missing from a manifest warns.
        let bare = manifest(&[("fig1", 1.0)], &[], &[]);
        assert!(diff(&old, &bare, &tol).warnings.iter().any(|w| w.contains("missing")));
    }

    #[test]
    fn zero_baseline_resource_gate_enforces_allocation_free_claims() {
        let gauge = |v: f64| {
            let mut m = manifest(&[("fig1", 1.0)], &[], &[]);
            m.metrics.push(("sweep.allocs_per_design".into(), Json::Float(v)));
            m
        };
        let tol = DiffTolerances {
            resource_gate: vec![("sweep.allocs_per_design".into(), 100.0, 0.05)],
            ..DiffTolerances::default()
        };
        // Baseline zero: any rise past the floor gates, keeping "the
        // compiled sweep allocates nothing per design" enforced.
        assert!(diff(&gauge(0.0), &gauge(0.2), &tol).is_regression());
        // Sub-floor noise (per-chunk bookkeeping amortized over the
        // grid) and a clean zero both pass.
        assert!(!diff(&gauge(0.0), &gauge(0.01), &tol).is_regression());
        assert!(!diff(&gauge(0.0), &gauge(0.0), &tol).is_regression());
    }

    #[test]
    fn resource_gate_reads_the_resources_section_with_prefix() {
        let with = |alloc_bytes: u64| {
            let mut m = manifest(&[("fig1", 1.0)], &[], &[]);
            m.resources = ResourceTotals {
                alloc_counting: true,
                allocs: 10,
                deallocs: 10,
                alloc_bytes,
                peak_bytes: alloc_bytes,
                peak_rss_kb: Some(10_000),
                cpu_seconds: Some(1.0),
            };
            m
        };
        let tol = DiffTolerances {
            resource_gate: vec![("resources.alloc_bytes".into(), 10.0, 0.0)],
            ..DiffTolerances::default()
        };
        assert!(diff(&with(1_000), &with(2_000), &tol).is_regression());
        assert!(!diff(&with(1_000), &with(1_000), &tol).is_regression());
        // A run without the counting allocator measured nothing: its
        // zero allocation fields warn as missing instead of gating.
        let pre = manifest(&[("fig1", 1.0)], &[], &[]);
        let report = diff(&pre, &with(1_000), &tol);
        assert!(!report.is_regression());
        assert!(report.warnings.iter().any(|w| w.contains("missing")));
    }

    #[test]
    fn counter_drift_warns_but_does_not_gate() {
        let old = manifest(&[("fig1", 1.0)], &[], &[("sim.instructions", 1_000)]);
        let new = manifest(&[("fig1", 1.0)], &[], &[("sim.instructions", 2_000)]);
        let report = diff(&old, &new, &DiffTolerances::default());
        assert!(!report.is_regression());
        assert!(report.warnings.iter().any(|w| w.contains("sim.instructions")));
    }

    #[test]
    fn show_renders_every_section() {
        let m = manifest(
            &[("fig1", 3.0)],
            &[("validation.ammp.bips", 0.03, 0.07)],
            &[("oracle.cache.hits", 12)],
        );
        let text = show(&m);
        for needle in
            ["tool: repro", "fig1", "TOTAL", "validation.ammp.bips", "oracle.cache.hits", "all"]
        {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn show_renders_query_section_only_when_queries_ran() {
        let without = manifest(&[("fig1", 1.0)], &[], &[("oracle.cache.hits", 12)]);
        assert!(!show(&without).contains("query engine:"), "{}", show(&without));
        let mut m = manifest(
            &[("query", 0.5)],
            &[],
            &[
                ("query.executed", 10),
                ("query.cache.hits", 6),
                ("query.cache.misses", 4),
                ("query.cache.evictions", 1),
            ],
        );
        m.metrics.push(("query.cache.bytes".into(), Json::Float(2048.0)));
        m.metrics.push(("query.designs_per_sec".into(), Json::Float(1.5e6)));
        let text = show(&m);
        for needle in [
            "query engine:",
            "executed: 10",
            "6 hits / 4 misses (60% hit rate)",
            "1 evicted",
            "scan throughput: 1500000 designs/sec",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn show_renders_resources_and_span_resource_columns() {
        let mut m = manifest(&[("fig1", 1.0)], &[], &[]);
        // Nothing measured: no span resource columns (an all-zero allocs
        // column would read as an allocation-free claim) and a heap line
        // that says so instead of claiming zero heap usage.
        let text = show(&m);
        assert!(!text.contains("cpu"), "{text}");
        assert!(text.contains("not measured"), "{text}");
        m.resources = ResourceTotals {
            alloc_counting: true,
            allocs: 1_000,
            deallocs: 990,
            alloc_bytes: 3 << 20,
            peak_bytes: 1 << 20,
            peak_rss_kb: Some(51_200),
            cpu_seconds: Some(2.5),
        };
        m.spans[0].1.cpu_seconds = 0.75;
        m.spans[0].1.allocs = 42;
        m.spans[0].1.alloc_bytes = 2048;
        let text = show(&m);
        assert!(text.contains("cpu time: 2.500s"), "{text}");
        assert!(text.contains("peak rss: 50.0 MB"), "{text}");
        assert!(text.contains("1000 allocs / 990 frees"), "{text}");
        assert!(text.contains("42 allocs"), "missing span alloc column:\n{text}");
        assert!(text.contains("2.0 KiB"), "span alloc bytes not humanized:\n{text}");
        assert!(!text.contains("not measured"), "{text}");
    }

    #[test]
    fn manifest_trace_is_valid_chrome_json() {
        let m = manifest(&[("fig1", 1.0)], &[], &[]);
        let doc = trace_from_manifest(&m);
        let arr = doc.as_arr().expect("array");
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("name").and_then(Json::as_str), Some("all"));
        assert_eq!(arr[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(arr[0].get("dur").and_then(Json::as_i64), Some(1_000_000));
    }
}
