//! Table 4 and Figures 8–9: multiprocessor heterogeneity analysis.

use udse_core::report::{fmt, format_table};
use udse_core::studies::heterogeneity::{
    compromise_clusters, compromise_errors, predicted_gains, scatter_data, simulated_gains,
    BenchmarkArchitectures,
};

use crate::context::Context;

/// RNG seed for the clustering restarts (fixed for reproducibility).
const CLUSTER_SEED: u64 = 64;

/// Table 4: the K = 4 compromise architectures with their member
/// benchmarks and average predicted delay/power.
pub fn table4(ctx: &Context) -> String {
    let suite = ctx.suite();
    let optima = BenchmarkArchitectures::find(&ctx.engine());
    let clusters = compromise_clusters(&suite, &optima, 4, CLUSTER_SEED);
    let mut rows = Vec::new();
    for (i, c) in clusters.iter().enumerate() {
        let p = &c.architecture;
        let members: Vec<&str> = c.members.iter().map(|b| b.name()).collect();
        rows.push(vec![
            (i + 1).to_string(),
            p.fo4().to_string(),
            p.decode_width().to_string(),
            p.gpr().to_string(),
            p.to_machine_config().resv_fp.to_string(),
            p.il1_kb().to_string(),
            p.dl1_kb().to_string(),
            fmt(p.l2_kb() as f64 / 1024.0, 2),
            fmt(c.avg_delay, 2),
            fmt(c.avg_power, 1),
            members.join("+"),
        ]);
    }
    // Validate the compromises by simulation (and feed the
    // `heterogeneity.compromise.*` quality records the manifest gates).
    let (bips_err, watts_err) = compromise_errors(ctx.oracle(), &suite, &clusters);
    format!(
        "Table 4: K=4 compromise architectures\n\
         (paper: four clusters capturing all depth-width combinations)\n\n{}\n\
         simulated compromise error (mean |rel|): bips {:.1}%, watts {:.1}%\n",
        format_table(
            &[
                "cluster",
                "depth",
                "width",
                "reg",
                "resv",
                "I$KB",
                "D$KB",
                "L2MB",
                "avg_delay",
                "avg_power",
                "benchmarks"
            ],
            &rows
        ),
        bips_err * 100.0,
        watts_err * 100.0,
    )
}

/// Figure 8: delay/power of per-benchmark optima (radial points) and the
/// K=4 compromises (circles).
pub fn fig8(ctx: &Context) -> String {
    let suite = ctx.suite();
    let optima = BenchmarkArchitectures::find(&ctx.engine());
    let sd = scatter_data(&suite, &optima, 4, CLUSTER_SEED);
    let mut rows = Vec::new();
    for (b, m) in &sd.optima_points {
        rows.push(vec![
            b.name().to_string(),
            "optimum".to_string(),
            fmt(m.delay_seconds(), 3),
            fmt(m.watts, 1),
        ]);
    }
    for (i, (arch, members)) in sd.compromise_points.iter().enumerate() {
        for (b, m) in members {
            rows.push(vec![
                b.name().to_string(),
                format!("compromise{} ({}fo4/w{})", i + 1, arch.fo4(), arch.decode_width()),
                fmt(m.delay_seconds(), 3),
                fmt(m.watts, 1),
            ]);
        }
    }
    format!(
        "Figure 8: delay and power of benchmark optima vs K=4 compromises\n\
         (paper: spatial locality of centroid and members implies modest compromise penalties)\n\n{}",
        format_table(&["bench", "running_on", "delay_s", "power_w"], &rows)
    )
}

/// Figure 9: predicted (a) and simulated (b) efficiency gains versus
/// cluster count.
pub fn fig9(ctx: &Context) -> String {
    let suite = ctx.suite();
    let optima = BenchmarkArchitectures::find(&ctx.engine());
    let gp = predicted_gains(&suite, &optima, CLUSTER_SEED);
    let gs = simulated_gains(ctx.oracle(), &suite, &optima, CLUSTER_SEED);
    let (ap, asim) = (gp.averages(), gs.averages());
    let mut rows = Vec::new();
    for (i, &k) in gp.k_values.iter().enumerate() {
        let mut row = vec![k.to_string(), fmt(ap[i], 2), fmt(asim[i], 2)];
        // Representative per-benchmark columns (mesa gains most, mcf is the
        // early sacrifice in the paper).
        row.push(fmt(gp.gains[i][udse_trace::Benchmark::Mesa.id() as usize], 2));
        row.push(fmt(gp.gains[i][udse_trace::Benchmark::Mcf.id() as usize], 2));
        rows.push(row);
    }
    format!(
        "Figure 9: bips^3/w gains vs degree of heterogeneity (cluster count)\n\
         (cluster 0 = POWER4-like baseline, 1 = homogeneous K-means core,\n\
          9 = per-benchmark optimal cores = theoretical upper bound;\n\
          paper: 4 cores reach ~92%% of the bound in regression, ~88%% in simulation)\n\n{}\n\
         predicted upper bound {:.2}x (K=4 reaches {:.0}%); simulated upper bound {:.2}x (K=4 reaches {:.0}%)\n",
        format_table(&["K", "avg_pred", "avg_sim", "mesa_pred", "mcf_pred"], &rows),
        gp.upper_bound(),
        100.0 * ap[4] / gp.upper_bound(),
        gs.upper_bound(),
        100.0 * asim[4] / gs.upper_bound(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table4_has_four_clusters() {
        let ctx = Context::new(true);
        let s = table4(&ctx);
        for c in 1..=4 {
            assert!(s.lines().any(|l| l.trim_start().starts_with(&c.to_string())));
        }
        assert!(s.contains("simulated compromise error"), "table4 reports compromise error");
        let quality = udse_obs::quality::global().snapshot();
        assert!(
            quality.iter().any(|r| r.key == "heterogeneity.compromise.bips"),
            "table4 records compromise quality telemetry"
        );
    }

    #[test]
    fn quick_fig9_has_ten_k_rows() {
        let ctx = Context::new(true);
        let s = fig9(&ctx);
        let data_rows = s
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                t.starts_with(|c: char| c.is_ascii_digit()) && t.contains('.')
            })
            .count();
        assert!(data_rows >= 10, "expected >= 10 K rows, got {data_rows}");
    }
}
