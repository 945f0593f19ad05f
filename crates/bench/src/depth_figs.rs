//! Figures 5–7: pipeline depth analysis.

use udse_core::report::{fmt, format_table};
use udse_core::space::{Axis, DesignSpace};
use udse_core::studies::depth::DepthValidation;

use crate::context::Context;

/// Figure 5(a): original-analysis line plot and enhanced-analysis
/// efficiency boxplots per depth, relative to the original optimum.
pub fn fig5a(ctx: &Context) -> String {
    let study = ctx.depth_study();
    let mut rows = Vec::new();
    for (i, &d) in study.depths.iter().enumerate() {
        let bp = &study.enhanced_boxplots[i];
        rows.push(vec![
            d.to_string(),
            fmt(study.original_relative[i], 3),
            fmt(bp.q1, 3),
            fmt(bp.median, 3),
            fmt(bp.q3, 3),
            fmt(bp.max, 3),
            fmt(study.bound_relative[i], 3),
            fmt(study.fraction_above_original[i] * 100.0, 1),
        ]);
    }
    format!(
        "Figure 5a: efficiency vs pipeline depth, original (line) and enhanced (boxplots)\n\
         (relative to the original bips^3/w optimum; paper: optimum 18 FO4, up to 2.1x bound)\n\n{}\n\
         original-analysis optimal depth: {} FO4; bound-architecture optimal depth: {} FO4\n",
        format_table(
            &["fo4", "orig_line", "q1", "median", "q3", "bound", "bound_rel", "%>orig_opt"],
            &rows
        ),
        study.optimal_original_depth(),
        study.optimal_bound_depth(),
    )
}

/// Figure 5(b): distribution of D-L1 cache sizes among the designs in
/// the 95th percentile of each depth's efficiency distribution.
pub fn fig5b(ctx: &Context) -> String {
    let study = ctx.depth_study();
    let sizes = DesignSpace::exploration().levels(Axis::Dl1Kb);
    let mut rows = Vec::new();
    for (i, &d) in study.depths.iter().enumerate() {
        let h = &study.dcache_top_percentile[i];
        let mut row = vec![d.to_string()];
        for &kb in sizes {
            row.push(fmt(h.fraction(kb.into()) * 100.0, 1));
        }
        row.push(h.total().to_string());
        rows.push(row);
    }
    format!(
        "Figure 5b: D-L1 size distribution among 95th-percentile designs at each depth\n\
         (percent of top designs; paper: small caches viable at shallow depths,\n\
          large caches favoured as pipelines deepen)\n\n{}",
        format_table(&["fo4", "8KB%", "16KB%", "32KB%", "64KB%", "128KB%", "n_top"], &rows)
    )
}

/// Figure 6: predicted vs simulated relative efficiency for both
/// analyses.
pub fn fig6(ctx: &Context) -> String {
    let engine = ctx.engine();
    let study = ctx.depth_study();
    let val = DepthValidation::run(ctx.oracle(), &engine, &study);
    let mut rows = Vec::new();
    for (i, &d) in val.depths.iter().enumerate() {
        rows.push(vec![
            d.to_string(),
            fmt(val.original_predicted[i], 3),
            fmt(val.original_simulated[i], 3),
            fmt(val.enhanced_predicted[i], 3),
            fmt(val.enhanced_simulated[i], 3),
        ]);
    }
    format!(
        "Figure 6: predicted vs simulated efficiency, original and enhanced analyses\n\
         (relative to each source's original optimum; paper: models pick the optimal\n\
          depth to within 3 FO4, penalties sharper in simulation)\n\n{}\n\
         model optimal depth {} FO4 vs simulated optimal depth {} FO4\n",
        format_table(&["fo4", "orig_pred", "orig_sim", "enh_pred", "enh_sim"], &rows),
        study.optimal_original_depth(),
        val.simulated_optimal_depth(),
    )
}

/// Figure 7: the decomposition behind Figure 6 — suite-average
/// performance and power, predicted vs simulated, for both analyses.
pub fn fig7(ctx: &Context) -> String {
    let engine = ctx.engine();
    let study = ctx.depth_study();
    let val = DepthValidation::run(ctx.oracle(), &engine, &study);
    let mut rows = Vec::new();
    for (i, &d) in val.depths.iter().enumerate() {
        rows.push(vec![
            d.to_string(),
            fmt(val.original_predicted_bips[i], 3),
            fmt(val.original_simulated_bips[i], 3),
            fmt(val.enhanced_predicted_bips[i], 3),
            fmt(val.enhanced_simulated_bips[i], 3),
            fmt(val.original_predicted_watts[i], 1),
            fmt(val.original_simulated_watts[i], 1),
            fmt(val.enhanced_predicted_watts[i], 1),
            fmt(val.enhanced_simulated_watts[i], 1),
        ]);
    }
    format!(
        "Figure 7: suite-average (a) performance and (b) power, predicted vs simulated\n\
         (bips and watts; 'orig' = baseline sweep, 'enh' = bound architectures)\n\n{}",
        format_table(
            &["fo4", "bips_op", "bips_os", "bips_ep", "bips_es", "w_op", "w_os", "w_ep", "w_es"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig5a_has_seven_depths() {
        let ctx = Context::new(true);
        let s = fig5a(&ctx);
        for d in [12, 15, 18, 21, 24, 27, 30] {
            assert!(s.lines().any(|l| l.trim_start().starts_with(&d.to_string())), "{d}");
        }
    }

    #[test]
    fn quick_fig5b_fractions_sum_to_100() {
        let ctx = Context::new(true);
        let s = fig5b(&ctx);
        // Parse one data row and check the percentages sum to ~100.
        let row = s.lines().find(|l| l.trim_start().starts_with("12")).unwrap();
        let cells: Vec<f64> =
            row.split_whitespace().skip(1).take(5).map(|c| c.parse().unwrap()).collect();
        let sum: f64 = cells.iter().sum();
        assert!((sum - 100.0).abs() < 1.0, "sum {sum}");
    }
}
