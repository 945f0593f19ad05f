//! Ablation studies for the modeling choices the paper motivates in §3:
//! spline knot counts, interaction terms, response transforms, and
//! training sample size.
//!
//! Each ablation trains model variants on a shared simulated sample and
//! reports the median validation error, quantifying how much each §3
//! design decision contributes to accuracy. The sample (training and
//! validation designs on the three ablation benchmarks) is simulated as
//! one `evaluate_many` batch through the context's memoizing oracle, so
//! every ablation after the first reads it back from the memo.

use udse_core::model::design_dataset;
use udse_core::oracle::{Metrics, Oracle};
use udse_core::report::{fmt, format_table};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_regress::{ModelSpec, ResponseTransform, TermSpec};
use udse_stats::median_abs_rel_error;
use udse_trace::Benchmark;

use crate::context::Context;

/// Benchmarks used for ablations: one ILP-bound, one memory-bound, one
/// branchy integer — the three behavioural extremes.
const ABLATION_BENCHES: [Benchmark; 3] = [Benchmark::Ammp, Benchmark::Mcf, Benchmark::Gzip];

/// Predictor indices (see `DesignPoint::predictors`).
const DEPTH: usize = 0;
const WIDTH: usize = 1;
const GPR: usize = 2;
const RESV: usize = 3;
const IL1: usize = 4;
const DL1: usize = 5;
const L2: usize = 6;

fn spline_terms(strong_knots: usize, weak_knots: usize) -> Vec<TermSpec> {
    vec![
        TermSpec::Spline { var: DEPTH, knots: strong_knots },
        TermSpec::Spline { var: WIDTH, knots: weak_knots },
        TermSpec::Spline { var: GPR, knots: strong_knots },
        TermSpec::Spline { var: RESV, knots: weak_knots },
        TermSpec::Spline { var: IL1, knots: weak_knots },
        TermSpec::Spline { var: DL1, knots: weak_knots },
        TermSpec::Spline { var: L2, knots: weak_knots },
    ]
}

fn linear_terms() -> Vec<TermSpec> {
    (0..7).map(TermSpec::Linear).collect()
}

fn interaction_terms() -> Vec<TermSpec> {
    vec![
        TermSpec::Interaction(DEPTH, L2),
        TermSpec::Interaction(DEPTH, DL1),
        TermSpec::Interaction(WIDTH, GPR),
        TermSpec::Interaction(WIDTH, RESV),
        TermSpec::Interaction(IL1, L2),
        TermSpec::Interaction(DL1, L2),
    ]
}

/// Observations shared by all model variants of one ablation run.
struct SharedData {
    train: Vec<DesignPoint>,
    train_metrics: Vec<Vec<Metrics>>, // [bench][sample]
    valid: Vec<DesignPoint>,
    valid_metrics: Vec<Vec<Metrics>>,
}

fn gather(ctx: &Context, train_n: usize, valid_n: usize) -> SharedData {
    let space = DesignSpace::paper();
    let train = space.sample_uar(train_n, ctx.config().seed);
    let valid = space.sample_uar(valid_n, ctx.config().seed ^ 0xAB1A);
    // One batch, benchmark-major, each benchmark's training sample
    // followed by its validation sample.
    let jobs: Vec<(Benchmark, DesignPoint)> = ABLATION_BENCHES
        .iter()
        .flat_map(|&b| train.iter().chain(&valid).map(move |p| (b, *p)))
        .collect();
    let metrics = ctx.oracle().evaluate_many(&jobs);
    let per_bench = metrics.chunks(train_n + valid_n);
    let train_metrics = per_bench.clone().map(|m| m[..train_n].to_vec()).collect();
    let valid_metrics = per_bench.map(|m| m[train_n..].to_vec()).collect();
    SharedData { train, train_metrics, valid, valid_metrics }
}

/// Median validation errors (perf, power) of a spec pair on one
/// benchmark's shared data.
fn variant_error(
    data: &SharedData,
    bench_idx: usize,
    perf_spec: &ModelSpec,
    power_spec: &ModelSpec,
) -> (f64, f64) {
    let train_ds = design_dataset(&data.train).expect("non-empty training sample");
    let bips: Vec<f64> = data.train_metrics[bench_idx].iter().map(|m| m.bips).collect();
    let watts: Vec<f64> = data.train_metrics[bench_idx].iter().map(|m| m.watts).collect();
    let perf = perf_spec.fit(&train_ds, &bips).expect("perf variant fits");
    let power = power_spec.fit(&train_ds, &watts).expect("power variant fits");
    let rows: Vec<Vec<f64>> = data.valid.iter().map(DesignPoint::predictors).collect();
    let pred_b: Vec<f64> = rows.iter().map(|r| perf.predict_row(r).expect("valid row")).collect();
    let pred_w: Vec<f64> = rows.iter().map(|r| power.predict_row(r).expect("valid row")).collect();
    let obs_b: Vec<f64> = data.valid_metrics[bench_idx].iter().map(|m| m.bips).collect();
    let obs_w: Vec<f64> = data.valid_metrics[bench_idx].iter().map(|m| m.watts).collect();
    (median_abs_rel_error(&obs_b, &pred_b), median_abs_rel_error(&obs_w, &pred_w))
}

fn run_variants(ctx: &Context, variants: &[(&str, ModelSpec, ModelSpec)]) -> String {
    let cfg = ctx.config();
    let data = gather(ctx, cfg.train_samples, cfg.validation_samples);
    let mut rows = Vec::new();
    for (name, perf_spec, power_spec) in variants {
        for (bi, b) in ABLATION_BENCHES.iter().enumerate() {
            let (pe, we) = variant_error(&data, bi, perf_spec, power_spec);
            rows.push(vec![
                name.to_string(),
                b.name().to_string(),
                fmt(pe * 100.0, 1),
                fmt(we * 100.0, 1),
            ]);
        }
    }
    format_table(&["variant", "bench", "perf_med_err%", "pow_med_err%"], &rows)
}

/// Ablation: spline knot count (linear-only / 3 / paper's 3-4 mix / 5).
pub fn knots(ctx: &Context) -> String {
    let with_inter = |terms: Vec<TermSpec>| {
        let mut t = terms;
        t.extend(interaction_terms());
        t
    };
    let variants = vec![
        (
            "linear",
            ModelSpec::new(ResponseTransform::Sqrt).with_terms(with_inter(linear_terms())),
            ModelSpec::new(ResponseTransform::Log).with_terms(with_inter(linear_terms())),
        ),
        (
            "rcs3",
            ModelSpec::new(ResponseTransform::Sqrt).with_terms(with_inter(spline_terms(3, 3))),
            ModelSpec::new(ResponseTransform::Log).with_terms(with_inter(spline_terms(3, 3))),
        ),
        (
            "rcs4/3(paper)",
            ModelSpec::new(ResponseTransform::Sqrt).with_terms(with_inter(spline_terms(4, 3))),
            ModelSpec::new(ResponseTransform::Log).with_terms(with_inter(spline_terms(4, 3))),
        ),
        (
            "rcs5",
            ModelSpec::new(ResponseTransform::Sqrt).with_terms(with_inter(spline_terms(5, 5))),
            ModelSpec::new(ResponseTransform::Log).with_terms(with_inter(spline_terms(5, 5))),
        ),
    ];
    format!(
        "Ablation: spline knot count (median validation error)\n\n{}",
        run_variants(ctx, &variants)
    )
}

/// Ablation: with vs without the §3.2 interaction terms.
pub fn interactions(ctx: &Context) -> String {
    let base = spline_terms(4, 3);
    let mut with = base.clone();
    with.extend(interaction_terms());
    let variants = vec![
        (
            "no-interactions",
            ModelSpec::new(ResponseTransform::Sqrt).with_terms(base.clone()),
            ModelSpec::new(ResponseTransform::Log).with_terms(base.clone()),
        ),
        (
            "paper",
            ModelSpec::new(ResponseTransform::Sqrt).with_terms(with.clone()),
            ModelSpec::new(ResponseTransform::Log).with_terms(with.clone()),
        ),
    ];
    format!(
        "Ablation: predictor interactions (median validation error)\n\n{}",
        run_variants(ctx, &variants)
    )
}

/// Ablation: response transforms (identity vs the paper's sqrt/log).
pub fn transforms(ctx: &Context) -> String {
    let mut terms = spline_terms(4, 3);
    terms.extend(interaction_terms());
    let variants = vec![
        (
            "identity",
            ModelSpec::new(ResponseTransform::Identity).with_terms(terms.clone()),
            ModelSpec::new(ResponseTransform::Identity).with_terms(terms.clone()),
        ),
        (
            "sqrt/log(paper)",
            ModelSpec::new(ResponseTransform::Sqrt).with_terms(terms.clone()),
            ModelSpec::new(ResponseTransform::Log).with_terms(terms.clone()),
        ),
    ];
    format!(
        "Ablation: response transforms (median validation error)\n\n{}",
        run_variants(ctx, &variants)
    )
}

/// Ablation: training sample size (the paper's "1,000 samples suffice").
pub fn sample_size(ctx: &Context) -> String {
    let cfg = ctx.config();
    let sizes: Vec<usize> =
        [50usize, 100, 200, 500, 1_000].into_iter().filter(|&n| n <= cfg.train_samples).collect();
    let data = gather(ctx, cfg.train_samples, cfg.validation_samples);
    let mut terms = spline_terms(4, 3);
    terms.extend(interaction_terms());
    let perf_spec = ModelSpec::new(ResponseTransform::Sqrt).with_terms(terms.clone());
    let power_spec = ModelSpec::new(ResponseTransform::Log).with_terms(terms);
    let mut rows = Vec::new();
    for &n in &sizes {
        let sub = SharedData {
            train: data.train[..n].to_vec(),
            train_metrics: data.train_metrics.iter().map(|v| v[..n].to_vec()).collect(),
            valid: data.valid.clone(),
            valid_metrics: data.valid_metrics.clone(),
        };
        for (bi, b) in ABLATION_BENCHES.iter().enumerate() {
            let (pe, we) = variant_error(&sub, bi, &perf_spec, &power_spec);
            rows.push(vec![
                n.to_string(),
                b.name().to_string(),
                fmt(pe * 100.0, 1),
                fmt(we * 100.0, 1),
            ]);
        }
    }
    format!(
        "Ablation: training sample size (median validation error)\n\n{}",
        format_table(&["n_train", "bench", "perf_med_err%", "pow_med_err%"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interaction_ablation_runs_quick() {
        let ctx = Context::new(true);
        let s = interactions(&ctx);
        assert!(s.contains("no-interactions"));
        assert!(s.contains("paper"));
    }

    #[test]
    fn sample_size_ablation_monotone_header() {
        let ctx = Context::new(true);
        let s = sample_size(&ctx);
        assert!(s.contains("n_train"));
        assert!(s.contains("50"));
    }
}
