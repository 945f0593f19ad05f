//! Figures 1–4 and Table 2: validation and pareto frontier analysis.

use udse_core::report::{fmt, fmt_pct, format_table};
use udse_core::studies::pareto::{efficiency_optimum, Characterization, FrontierStudy};
use udse_core::studies::validation::ValidationStudy;
use udse_trace::Benchmark;

use crate::context::Context;

/// Picks one benchmark's characterization out of the fused sweep.
fn characterization(chs: &[Characterization], b: Benchmark) -> &Characterization {
    chs.iter().find(|c| c.benchmark == b).expect("fused sweep covers every benchmark")
}

/// Figure 1: error distributions (boxplot statistics) of performance and
/// power predictions for random validation designs.
pub fn fig1(ctx: &Context) -> String {
    let engine = ctx.engine();
    let study = ValidationStudy::run(ctx.oracle(), &engine, ctx.config());
    let mut rows = Vec::new();
    for bv in &study.per_benchmark {
        rows.push(vec![
            bv.benchmark.name().to_string(),
            fmt(bv.performance.median() * 100.0, 1),
            fmt(bv.performance.boxplot.q1 * 100.0, 1),
            fmt(bv.performance.boxplot.q3 * 100.0, 1),
            fmt(bv.power.median() * 100.0, 1),
            fmt(bv.power.boxplot.q1 * 100.0, 1),
            fmt(bv.power.boxplot.q3 * 100.0, 1),
        ]);
    }
    format!(
        "Figure 1: prediction error distributions over {} random validation designs\n\
         (percent |obs-pred|/pred; paper reports overall medians of 7.2% perf, 5.4% power)\n\n{}\n\
         overall median error: performance {:.1}%  power {:.1}%\n",
        ctx.config().validation_samples,
        format_table(
            &["bench", "perf_med%", "perf_q1%", "perf_q3%", "pow_med%", "pow_q1%", "pow_q3%"],
            &rows
        ),
        study.overall_performance_median * 100.0,
        study.overall_power_median * 100.0,
    )
}

/// Figure 2: design space characterization — per depth-width cluster
/// delay/power envelopes for every benchmark.
pub fn fig2(ctx: &Context) -> String {
    let chs = ctx.characterizations();
    let mut out = String::from(
        "Figure 2: regression-predicted delay/power envelopes per (depth, width) cluster\n\n",
    );
    for &b in &[Benchmark::Ammp, Benchmark::Mcf, Benchmark::Mesa, Benchmark::Jbb] {
        let ch = characterization(&chs, b);
        let rows: Vec<Vec<String>> = ch
            .clusters
            .iter()
            .map(|c| {
                vec![
                    c.fo4.to_string(),
                    c.width.to_string(),
                    fmt(c.delay_min, 2),
                    fmt(c.delay_max, 2),
                    fmt(c.power_min, 1),
                    fmt(c.power_max, 1),
                    c.count.to_string(),
                ]
            })
            .collect();
        out.push_str(&format!(
            "== {} ==\n{}\n",
            b.name(),
            format_table(
                &["fo4", "width", "delay_min", "delay_max", "pow_min", "pow_max", "designs"],
                &rows
            )
        ));
    }
    out
}

/// Figure 3: modeled vs simulated pareto frontiers for representative
/// benchmarks.
pub fn fig3(ctx: &Context) -> String {
    let mut out =
        String::from("Figure 3: pareto frontier — predicted vs simulated (delay s, power W)\n\n");
    let engine = ctx.engine();
    for &b in &[Benchmark::Ammp, Benchmark::Mcf, Benchmark::Mesa, Benchmark::Jbb] {
        let fs = FrontierStudy::run(ctx.oracle(), &engine, b, ctx.config());
        let rows: Vec<Vec<String>> = fs
            .designs
            .iter()
            .zip(fs.predicted.iter().zip(&fs.simulated))
            .map(|(d, (p, s))| {
                vec![
                    format!("{}/{}", d.fo4(), d.decode_width()),
                    fmt(p.delay_seconds(), 3),
                    fmt(s.delay_seconds(), 3),
                    fmt(p.watts, 1),
                    fmt(s.watts, 1),
                ]
            })
            .collect();
        out.push_str(&format!(
            "== {} ({} frontier designs) ==\n{}\n",
            b.name(),
            fs.designs.len(),
            format_table(&["depth/width", "delay_pred", "delay_sim", "pow_pred", "pow_sim"], &rows)
        ));
    }
    out
}

/// Figure 4: error distributions of frontier-point predictions.
pub fn fig4(ctx: &Context) -> String {
    let mut rows = Vec::new();
    let mut all_perf = Vec::new();
    let mut all_power = Vec::new();
    let engine = ctx.engine();
    for b in Benchmark::ALL {
        let fs = FrontierStudy::run(ctx.oracle(), &engine, b, ctx.config());
        let (perf, power) = fs.errors();
        all_perf.push(perf.median());
        all_power.push(power.median());
        rows.push(vec![
            b.name().to_string(),
            fmt(perf.median() * 100.0, 1),
            fmt(perf.p90 * 100.0, 1),
            fmt(power.median() * 100.0, 1),
            fmt(power.p90 * 100.0, 1),
        ]);
    }
    let med = |v: &[f64]| udse_stats::median(v) * 100.0;
    format!(
        "Figure 4: prediction error on pareto frontier designs\n\
         (paper: overall medians 8.7% perf / 5.5% power — consistent with Fig 1)\n\n{}\n\
         across-benchmark median of medians: performance {:.1}%  power {:.1}%\n",
        format_table(&["bench", "perf_med%", "perf_p90%", "pow_med%", "pow_p90%"], &rows),
        med(&all_perf),
        med(&all_power),
    )
}

/// Table 2: per-benchmark `bips³/w`-maximizing architectures with
/// prediction errors.
pub fn table2(ctx: &Context) -> String {
    let engine = ctx.engine();
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let opt = efficiency_optimum(ctx.oracle(), &engine, b, ctx.config());
        let p = opt.point;
        rows.push(vec![
            b.name().to_string(),
            p.fo4().to_string(),
            p.decode_width().to_string(),
            p.gpr().to_string(),
            p.to_machine_config().resv_fp.to_string(),
            p.il1_kb().to_string(),
            p.dl1_kb().to_string(),
            fmt(p.l2_kb() as f64 / 1024.0, 2),
            fmt(opt.predicted.delay_seconds(), 2),
            fmt_pct(opt.delay_error()),
            fmt(opt.predicted.watts, 1),
            fmt_pct(opt.power_error()),
        ]);
    }
    format!(
        "Table 2: bips^3/w-maximizing per-benchmark architectures\n\
         (delay in seconds per 10^9 instructions; errors are (sim-pred)/pred)\n\n{}",
        format_table(
            &[
                "bench", "depth", "width", "reg", "resv", "I$KB", "D$KB", "L2MB", "delay", "d_err",
                "power", "p_err"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig1_mentions_all_benchmarks() {
        let ctx = Context::new(true);
        let s = fig1(&ctx);
        for b in Benchmark::ALL {
            assert!(s.contains(b.name()), "missing {b}");
        }
        assert!(s.contains("overall median"));
    }

    #[test]
    fn quick_table2_has_nine_rows() {
        let ctx = Context::new(true);
        let s = table2(&ctx);
        assert_eq!(s.lines().filter(|l| l.contains('%')).count(), 9);
    }
}
