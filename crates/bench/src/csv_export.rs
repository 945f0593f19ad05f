//! CSV export of the experiment series, for external plotting.
//!
//! `repro --csv <dir> <artifact>...` writes one CSV per requested
//! data-bearing artifact alongside the text output. Columns carry raw
//! (unrounded where meaningful) values so plots can be regenerated
//! without re-running the studies.

use std::io;
use std::path::{Path, PathBuf};

use udse_core::report::write_csv;
use udse_core::space::{Axis, DesignSpace};
use udse_core::studies::heterogeneity::{predicted_gains, simulated_gains, BenchmarkArchitectures};
use udse_core::studies::pareto::{efficiency_optimum, FrontierStudy};
use udse_core::studies::validation::ValidationStudy;
use udse_trace::Benchmark;

use crate::context::Context;

fn f(v: f64) -> String {
    format!("{v:.6}")
}

/// Writes the CSV for one artifact into `dir`; returns the path, or
/// `None` when the artifact has no tabular series (e.g. `baseline`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export(ctx: &Context, artifact: &str, dir: &Path) -> io::Result<Option<PathBuf>> {
    let path = dir.join(format!("{artifact}.csv"));
    match artifact {
        "fig1" => {
            let engine = ctx.engine();
            let study = ValidationStudy::run(ctx.oracle(), &engine, ctx.config());
            let rows: Vec<Vec<String>> = study
                .per_benchmark
                .iter()
                .map(|bv| {
                    vec![
                        bv.benchmark.name().to_string(),
                        f(bv.performance.median()),
                        f(bv.performance.boxplot.q1),
                        f(bv.performance.boxplot.q3),
                        f(bv.power.median()),
                        f(bv.power.boxplot.q1),
                        f(bv.power.boxplot.q3),
                    ]
                })
                .collect();
            write_csv(
                &path,
                &["bench", "perf_median", "perf_q1", "perf_q3", "pow_median", "pow_q1", "pow_q3"],
                &rows,
            )?;
        }
        "fig3" => {
            let engine = ctx.engine();
            let mut rows = Vec::new();
            for b in [Benchmark::Ammp, Benchmark::Mcf, Benchmark::Mesa, Benchmark::Jbb] {
                let fs = FrontierStudy::run(ctx.oracle(), &engine, b, ctx.config());
                for (p, s) in fs.predicted.iter().zip(&fs.simulated) {
                    rows.push(vec![
                        b.name().to_string(),
                        f(p.delay_seconds()),
                        f(p.watts),
                        f(s.delay_seconds()),
                        f(s.watts),
                    ]);
                }
            }
            write_csv(
                &path,
                &["bench", "delay_pred", "power_pred", "delay_sim", "power_sim"],
                &rows,
            )?;
        }
        "table2" => {
            let engine = ctx.engine();
            let mut rows = Vec::new();
            for b in Benchmark::ALL {
                let opt = efficiency_optimum(ctx.oracle(), &engine, b, ctx.config());
                rows.push(vec![
                    b.name().to_string(),
                    opt.point.fo4().to_string(),
                    opt.point.decode_width().to_string(),
                    opt.point.gpr().to_string(),
                    opt.point.il1_kb().to_string(),
                    opt.point.dl1_kb().to_string(),
                    opt.point.l2_kb().to_string(),
                    f(opt.predicted.delay_seconds()),
                    f(opt.delay_error()),
                    f(opt.predicted.watts),
                    f(opt.power_error()),
                ]);
            }
            write_csv(
                &path,
                &[
                    "bench",
                    "fo4",
                    "width",
                    "gpr",
                    "il1_kb",
                    "dl1_kb",
                    "l2_kb",
                    "delay_pred",
                    "delay_err",
                    "power_pred",
                    "power_err",
                ],
                &rows,
            )?;
        }
        "fig5a" => {
            let study = ctx.depth_study();
            let rows: Vec<Vec<String>> = study
                .depths
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let bp = &study.enhanced_boxplots[i];
                    vec![
                        d.to_string(),
                        f(study.original_relative[i]),
                        f(bp.lower_whisker),
                        f(bp.q1),
                        f(bp.median),
                        f(bp.q3),
                        f(bp.upper_whisker),
                        f(bp.max),
                        f(study.bound_relative[i]),
                        f(study.fraction_above_original[i]),
                    ]
                })
                .collect();
            write_csv(
                &path,
                &[
                    "fo4",
                    "orig_line",
                    "whisk_lo",
                    "q1",
                    "median",
                    "q3",
                    "whisk_hi",
                    "bound",
                    "bound_rel",
                    "frac_above_orig",
                ],
                &rows,
            )?;
        }
        "fig5b" => {
            let study = ctx.depth_study();
            let mut rows = Vec::new();
            for (i, &d) in study.depths.iter().enumerate() {
                let h = &study.dcache_top_percentile[i];
                for &kb in DesignSpace::exploration().levels(Axis::Dl1Kb) {
                    rows.push(vec![d.to_string(), kb.to_string(), f(h.fraction(kb.into()))]);
                }
            }
            write_csv(&path, &["fo4", "dl1_kb", "fraction"], &rows)?;
        }
        "fig9" => {
            let suite = ctx.suite();
            let optima = BenchmarkArchitectures::find(&ctx.engine());
            let gp = predicted_gains(&suite, &optima, 64);
            let gs = simulated_gains(ctx.oracle(), &suite, &optima, 64);
            let mut rows = Vec::new();
            for (i, &k) in gp.k_values.iter().enumerate() {
                for b in Benchmark::ALL {
                    rows.push(vec![
                        k.to_string(),
                        b.name().to_string(),
                        f(gp.gains[i][b.id() as usize]),
                        f(gs.gains[i][b.id() as usize]),
                    ]);
                }
            }
            write_csv(&path, &["k", "bench", "gain_pred", "gain_sim"], &rows)?;
        }
        _ => return Ok(None),
    }
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_depth_csv() {
        let ctx = Context::new(true);
        let dir = std::env::temp_dir().join("udse_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = export(&ctx, "fig5a", &dir).unwrap().expect("fig5a has a series");
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with("fo4,"));
        assert_eq!(text.lines().count(), 8); // header + 7 depths
        let none = export(&ctx, "baseline", &dir).unwrap();
        assert!(none.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
