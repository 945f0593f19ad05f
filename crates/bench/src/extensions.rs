//! The paper's §8 future-work directions, implemented as additional
//! artifacts: heuristic search with the models, cache-associativity
//! modeling with significance testing, and the simulator's bottleneck
//! (stall) attribution used to sanity-check the workload substitution.
//!
//! A study that simulates makes one oracle batch per sample set: design
//! points through the memoizing `evaluate_many`, machine configs outside
//! the space through [`udse_core::SimOracle::simulate_many`] beneath it.

use udse_core::model::paper_terms;
use udse_core::report::{fmt, format_table};
use udse_core::search::{genetic_search, random_restart_hill_climb, simulated_annealing};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::strided_count;
use udse_core::{Oracle as _, Query};
use udse_regress::{residual_report, Dataset, ModelSpec, ResponseTransform, TermSpec};
use udse_sim::{MachineConfig, SimResult};
use udse_trace::Benchmark;

use crate::context::Context;

/// Every benchmark on the Table 3 baseline machine, in
/// [`Benchmark::ALL`] order: one batch through the simulation oracle.
fn baseline_runs(ctx: &Context) -> Vec<SimResult> {
    let base = MachineConfig::power4_baseline();
    let jobs: Vec<(Benchmark, MachineConfig)> = Benchmark::ALL.map(|b| (b, base)).to_vec();
    ctx.sim_oracle().simulate_many(&jobs)
}

/// §8: "for larger design spaces, we may apply the models in heuristic
/// search instead of exhaustive prediction." Compares exhaustive
/// prediction against hill climbing (20 restarts), simulated annealing
/// (30,000 steps) and genetic search (40 individuals for 30 generations)
/// on the trained models' bips³/w surface.
///
/// Each heuristic gets two columns per benchmark: the best objective it
/// found as a percentage of the exhaustive optimum (`hillclimb%`,
/// `anneal%`, `genetic%`) and the objective evaluations it spent
/// (`hc_evals`, `sa_evals`, `ga_evals`); `exhaustive_evals` is the
/// (strided) space size the exhaustive reference scanned.
pub fn search(ctx: &Context) -> String {
    let suite = ctx.suite();
    let engine = ctx.engine();
    let space = DesignSpace::exploration();
    let mut rows = Vec::new();
    // Exhaustive (strided in quick mode) reference: one unconstrained
    // optimum query answers all nine benchmarks from one scan of the
    // memoized sweep (each entry's score is that benchmark's maximal
    // predicted bips^3/w over the strided space).
    let stride = ctx.config().eval_stride;
    let exhaustive_evals = strided_count(&space, stride);
    let optima = engine
        .execute(&Query::optimum(None, vec![], stride))
        .expect("unconstrained optima cannot fail");
    let entries = optima.optima().expect("optimum query yields optima").to_vec();
    for b in Benchmark::ALL {
        let models = suite.models(b);
        let objective = |p: &DesignPoint| models.predict_efficiency(p);
        let best_exhaustive = entries[b.id() as usize].score;
        let hc = random_restart_hill_climb(&space, 20, 7, objective);
        let sa = simulated_annealing(&space, 30_000, best_exhaustive.abs() * 0.2, 7, objective);
        let ga = genetic_search(&space, 7, objective);
        rows.push(vec![
            b.name().to_string(),
            fmt(100.0 * hc.best_value / best_exhaustive, 1),
            hc.evaluations.to_string(),
            fmt(100.0 * sa.best_value / best_exhaustive, 1),
            sa.evaluations.to_string(),
            fmt(100.0 * ga.best_value / best_exhaustive, 1),
            ga.evaluations.to_string(),
            exhaustive_evals.to_string(),
        ]);
    }
    format!(
        "Extension (paper <<8): heuristic search vs exhaustive prediction\n\
         (percent of the exhaustive optimum found, and objective evaluations spent)\n\n{}",
        format_table(
            &[
                "bench",
                "hillclimb%",
                "hc_evals",
                "anneal%",
                "sa_evals",
                "genetic%",
                "ga_evals",
                "exhaustive_evals"
            ],
            &rows
        )
    )
}

/// Bottleneck attribution: what limits each benchmark on the baseline
/// machine. Validates the workload substitution qualitatively (mcf
/// should be memory/LSQ-bound, gcc redirect-bound, ...).
pub fn stalls(ctx: &Context) -> String {
    let mut rows = Vec::new();
    for (b, r) in Benchmark::ALL.into_iter().zip(baseline_runs(ctx)) {
        let s = r.stalls;
        let per_kinst = |v: u64| fmt(v as f64 / (r.instructions as f64 / 1000.0), 1);
        rows.push(vec![
            b.name().to_string(),
            per_kinst(s.redirect),
            per_kinst(s.icache),
            per_kinst(s.rob),
            per_kinst(s.registers),
            per_kinst(s.reservations),
            per_kinst(s.lsq),
            per_kinst(s.store_queue),
            s.dominant().to_string(),
        ]);
    }
    format!(
        "Diagnostics: delay attribution on the Table 3 baseline\n\
         (cycle-sums per 1,000 instructions; causes may overlap)\n\n{}",
        format_table(
            &["bench", "redirect", "icache", "rob", "registers", "resv", "lsq", "stq", "dominant"],
            &rows
        )
    )
}

/// §8: "we intend to expand our models to support other parameters such
/// as cache associativity." Samples designs with randomized D-L1
/// associativity, fits a model with associativity as an eighth
/// predictor, and reports the coefficient's significance alongside a
/// direct simulation sweep.
pub fn associativity(ctx: &Context) -> String {
    const ASSOC: [u32; 4] = [1, 2, 4, 8];
    const SWEPT: [Benchmark; 3] = [Benchmark::Twolf, Benchmark::Gcc, Benchmark::Mcf];
    // One batch: the direct sweep at the baseline, then the extended
    // model's twolf sample, each design with a round-robin D-L1
    // associativity (the seven Table 1 predictors plus log2(assoc)).
    let base = MachineConfig::power4_baseline();
    let mut jobs: Vec<(Benchmark, MachineConfig)> = SWEPT
        .iter()
        .flat_map(|&b| ASSOC.map(|dl1_assoc| (b, MachineConfig { dl1_assoc, ..base })))
        .collect();
    let n = ctx.config().train_samples.min(400);
    let mut rows = Vec::with_capacity(n);
    let samples = DesignSpace::paper().sample_uar(n, ctx.config().seed ^ 0xA550C);
    for (i, p) in samples.iter().enumerate() {
        let dl1_assoc = ASSOC[i % ASSOC.len()];
        jobs.push((Benchmark::Twolf, MachineConfig { dl1_assoc, ..p.to_machine_config() }));
        let mut row = p.predictors();
        row.push((dl1_assoc as f64).log2());
        rows.push(row);
    }
    let results = ctx.sim_oracle().simulate_many(&jobs);
    let (swept, sampled) = results.split_at(SWEPT.len() * ASSOC.len());
    let sweep_rows: Vec<Vec<String>> = SWEPT
        .iter()
        .zip(swept.chunks(ASSOC.len()))
        .map(|(b, rs)| {
            let rates = rs.iter().map(|r| fmt(r.dl1_miss_rate * 100.0, 2));
            std::iter::once(b.name().to_string()).chain(rates).collect()
        })
        .collect();
    let bips: Vec<f64> = sampled.iter().map(|r| r.bips).collect();
    let mut names = DesignPoint::predictor_names();
    names.push("log2_dl1_assoc".to_string());
    let data = Dataset::new(names, rows).expect("non-empty extended dataset");
    let mut terms = paper_terms();
    terms.push(TermSpec::Linear(7));
    let model = ModelSpec::new(ResponseTransform::Sqrt)
        .with_terms(terms)
        .fit(&data, &bips)
        .expect("extended model fits");
    let assoc_stat = model
        .coefficient_table()
        .into_iter()
        .find(|c| c.name == "log2_dl1_assoc")
        .expect("assoc coefficient present");

    format!(
        "Extension (paper <<8): cache associativity\n\n\
         D-L1 miss rate (%) vs associativity at the baseline:\n{}\n\
         Extended twolf performance model (+log2 D-L1 associativity, n={}):\n\
         R^2 = {:.3}; assoc coefficient = {:+.4} (t = {:+.2}, p = {:.3})\n\
         -> {}\n",
        format_table(&["bench", "1-way", "2-way", "4-way", "8-way"], &sweep_rows),
        n,
        model.r_squared(),
        assoc_stat.estimate,
        assoc_stat.t_value,
        assoc_stat.p_value,
        if assoc_stat.significant_at(0.05) {
            "associativity is a significant performance predictor at the 5% level"
        } else {
            "associativity is not significant at the 5% level (capacity dominates \
             conflict misses in this space)"
        }
    )
}

/// §8: "we intend to expand our models to support ... in-order
/// execution." Simulates every benchmark on the baseline with
/// out-of-order vs in-order issue.
pub fn inorder(ctx: &Context) -> String {
    let base = MachineConfig::power4_baseline();
    let in_order = MachineConfig { in_order: true, ..base };
    let jobs: Vec<(Benchmark, MachineConfig)> =
        Benchmark::ALL.iter().flat_map(|&b| [(b, base), (b, in_order)]).collect();
    let results = ctx.sim_oracle().simulate_many(&jobs);
    let mut rows = Vec::new();
    for (b, pair) in Benchmark::ALL.iter().zip(results.chunks(2)) {
        let (ooo, ino) = (pair[0], pair[1]);
        rows.push(vec![
            b.name().to_string(),
            fmt(ooo.bips, 2),
            fmt(ino.bips, 2),
            fmt(ooo.bips / ino.bips, 2),
            fmt(ooo.bips_cubed_per_watt() / ino.bips_cubed_per_watt(), 2),
        ]);
    }
    format!(
        "Extension (paper <<8): in-order execution on the Table 3 baseline
         (out-of-order speedup and bips^3/w ratio per benchmark)

{}",
        format_table(&["bench", "ooo_bips", "ino_bips", "speedup", "eff_ratio"], &rows)
    )
}

/// Residual analysis (paper §3): shows that the sqrt/log response
/// transforms are what make the OLS assumptions hold — identity-response
/// fits leave skewed, heteroscedastic residuals.
pub fn residuals(ctx: &Context) -> String {
    const BENCHES: [Benchmark; 3] = [Benchmark::Ammp, Benchmark::Mcf, Benchmark::Gzip];
    let n = ctx.config().train_samples.min(400);
    let samples = DesignSpace::paper().sample_uar(n, ctx.config().seed ^ 0x4E5);
    let jobs: Vec<(Benchmark, DesignPoint)> =
        BENCHES.iter().flat_map(|&b| samples.iter().map(move |p| (b, *p))).collect();
    let metrics = ctx.oracle().evaluate_many(&jobs);
    let data = udse_core::model::design_dataset(&samples).expect("non-empty");
    let mut rows = Vec::new();
    for (b, metrics) in BENCHES.iter().zip(metrics.chunks(n)) {
        let watts: Vec<f64> = metrics.iter().map(|m| m.watts).collect();
        for (name, transform) in
            [("identity", ResponseTransform::Identity), ("log(paper)", ResponseTransform::Log)]
        {
            let model = ModelSpec::new(transform)
                .with_terms(paper_terms())
                .fit(&data, &watts)
                .expect("power variant fits");
            let r = residual_report(&model, &data, &watts).expect("report");
            rows.push(vec![
                b.name().to_string(),
                name.to_string(),
                fmt(r.skewness, 2),
                fmt(r.excess_kurtosis, 2),
                fmt(r.jarque_bera_pvalue, 3),
                fmt(r.spread_trend, 2),
            ]);
        }
    }
    format!(
        "Diagnostics: power-model residual analysis (paper <<3)
         (JB p > 0.05 = residuals look normal; spread_trend ~ 0 = homoscedastic)

{}",
        format_table(&["bench", "response", "skew", "ex_kurt", "jb_p", "spread_trend"], &rows)
    )
}

/// Workload substitution diagnostics: measured trace statistics vs the
/// profile intent (cf. the paper's trace validation \[11]), plus the
/// simulated character of each benchmark on the baseline.
pub fn workloads(ctx: &Context) -> String {
    let mut rows = Vec::new();
    for (b, r) in Benchmark::ALL.into_iter().zip(baseline_runs(ctx)) {
        let report = udse_trace::characterize(b, ctx.sim_oracle().trace_len(), 3);
        let deviations = report.check(0.12);
        rows.push(vec![
            b.name().to_string(),
            fmt(report.stats.load_frac + report.stats.store_frac, 2),
            fmt(report.stats.branch_frac, 2),
            fmt(report.stats.mean_dep_dist, 1),
            fmt(report.data_coverage() * 100.0, 1),
            fmt(r.bips, 2),
            fmt(r.dl1_miss_rate * 100.0, 1),
            fmt(r.l2_miss_rate * 100.0, 1),
            fmt(r.mispredict_rate * 100.0, 1),
            deviations.len().to_string(),
        ]);
    }
    format!(
        "Diagnostics: synthetic workload characterization (baseline machine)
         (mem = load+store fraction; cover = % of data footprint touched;
          deviations = profile quantities off by >12%)

{}",
        format_table(
            &[
                "bench",
                "mem",
                "branch",
                "dep",
                "cover%",
                "bips",
                "dl1%",
                "l2%",
                "misp%",
                "deviations"
            ],
            &rows
        )
    )
}

/// Separate artifact: a fitted model's coefficient significance table
/// (the paper's §3 significance-testing step) for one benchmark.
pub fn significance(ctx: &Context) -> String {
    let suite = ctx.suite();
    let model = suite.models(Benchmark::Mcf).performance_model();
    let rows: Vec<Vec<String>> = model
        .coefficient_table()
        .into_iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:+.4}", c.estimate),
                fmt(c.std_error, 4),
                format!("{:+.2}", c.t_value),
                fmt(c.p_value, 4),
                if c.significant_at(0.01) {
                    "**"
                } else if c.significant_at(0.05) {
                    "*"
                } else {
                    ""
                }
                .to_string(),
            ]
        })
        .collect();
    format!(
        "Diagnostics: mcf performance model coefficient inference (sqrt scale)\n\
         (the paper's significance-testing step; * p<0.05, ** p<0.01)\n\n{}",
        format_table(&["term", "estimate", "std_err", "t", "p", "sig"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_artifact_runs_quick() {
        let ctx = Context::new(true);
        let s = search(&ctx);
        assert!(s.contains("hillclimb%"));
        for b in Benchmark::ALL {
            assert!(s.contains(b.name()));
        }
    }

    #[test]
    fn stalls_artifact_names_dominants() {
        let ctx = Context::new(true);
        let s = stalls(&ctx);
        assert!(s.contains("dominant"));
        assert!(!s.contains("panicked"));
    }

    #[test]
    fn inorder_artifact_shows_speedups() {
        let ctx = Context::new(true);
        let s = inorder(&ctx);
        assert!(s.contains("speedup"));
        assert!(s.contains("mcf"));
    }

    #[test]
    fn residuals_artifact_contrasts_transforms() {
        let ctx = Context::new(true);
        let s = residuals(&ctx);
        assert!(s.contains("identity"));
        assert!(s.contains("log(paper)"));
    }

    #[test]
    fn workloads_artifact_reports_no_deviations() {
        let ctx = Context::new(true);
        let s = workloads(&ctx);
        // Every row's deviation count (last column) should be zero.
        for line in s
            .lines()
            .filter(|l| Benchmark::ALL.iter().any(|b| l.trim_start().starts_with(b.name())))
        {
            let last = line.split_whitespace().last().unwrap();
            assert_eq!(last, "0", "unexpected deviations in: {line}");
        }
    }

    #[test]
    fn significance_artifact_lists_terms() {
        let ctx = Context::new(true);
        let s = significance(&ctx);
        assert!(s.contains("depth_fo4"));
        assert!(s.contains("intercept"));
    }
}
