//! Property tests for the compiled grid predictor ([`FittedModel::compile`]):
//! whatever model shape the fit produces — spline or degraded-to-linear
//! terms, any response transform, any strictly-increasing level grid —
//! the compiled per-level partial-sum tables, read by level index through
//! [`CompiledModel::predict_indices`], must predict equivalently to
//! per-row spline-basis evaluation ([`FittedModel::predict_row`]) at
//! every grid point.
//!
//! Fit *quality* is irrelevant here: responses are random, and the
//! property is purely about the lowering being faithful to the fitted
//! coefficients.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udse_regress::{CompiledModel, Dataset, FittedModel, ModelSpec, ResponseTransform, TermSpec};

/// Draws 3–8 strictly increasing levels for one predictor, starting at
/// an arbitrary (possibly negative) offset.
fn arbitrary_levels(rng: &mut StdRng) -> Vec<f64> {
    let n = rng.gen_range(3usize..=8);
    let mut x = rng.gen_range(-5.0f64..5.0);
    (0..n)
        .map(|_| {
            x += rng.gen_range(0.25f64..3.0);
            x
        })
        .collect()
}

/// Fits a random two-variable model (spline/linear terms, optional
/// interaction, random transform) on the full cross product of a random
/// grid with random responses. `None` when the random design happens to
/// be rank deficient — those cases say nothing about compilation. Each
/// grid row comes with its per-variable level indices.
type GridCase = (FittedModel, CompiledModel, Vec<(Vec<f64>, [usize; 2])>);

fn random_grid_model(rng: &mut StdRng) -> Option<GridCase> {
    let levels = vec![arbitrary_levels(rng), arbitrary_levels(rng)];
    let mut grid = Vec::new();
    for (ia, &a) in levels[0].iter().enumerate() {
        for (ib, &b) in levels[1].iter().enumerate() {
            grid.push((vec![a, b], [ia, ib]));
        }
    }
    let rows: Vec<Vec<f64>> = grid.iter().map(|(row, _)| row.clone()).collect();
    let transform = match rng.gen_range(0u32..3) {
        0 => ResponseTransform::Identity,
        1 => ResponseTransform::Sqrt,
        _ => ResponseTransform::Log,
    };
    // Strictly positive responses are valid under every transform.
    let y: Vec<f64> = rows.iter().map(|_| rng.gen_range(0.5f64..10.0)).collect();
    let mut spec = ModelSpec::new(transform);
    for var in 0..2 {
        spec = spec.with_term(if rng.gen::<bool>() {
            TermSpec::Spline { var, knots: rng.gen_range(3usize..=4) }
        } else {
            TermSpec::Linear(var)
        });
    }
    if rng.gen::<bool>() {
        spec = spec.with_term(TermSpec::Interaction(0, 1));
    }
    let data = Dataset::new(vec!["a".into(), "b".into()], rows).ok()?;
    let model = spec.fit(&data, &y).ok()?;
    let compiled = model.compile(&levels).expect("levels are strictly increasing");
    Some((model, compiled, grid))
}

fn close(a: f64, b: f64) -> bool {
    // Random grids can be ill-conditioned, which amplifies the
    // regrouping error well beyond the paper model's 1e-12; 1e-9
    // relative still catches any real lowering bug (wrong term, wrong
    // level, wrong coefficient slice) by tens of orders of magnitude.
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_models_compile_to_equivalent_predictors(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let case = random_grid_model(&mut rng);
        prop_assume!(case.is_some());
        let (model, compiled, grid) = case.unwrap();
        for (row, idx) in &grid {
            let naive = model.predict_row(row).expect("width matches");
            let fast = compiled.predict_indices(idx);
            prop_assert!(
                close(naive, fast),
                "row {:?} at {:?}: naive {naive} vs compiled {fast}", row, idx
            );
        }
    }
}
