//! K-fold cross-validation of model specifications.
//!
//! The paper validates on 100 held-out random designs (Fig 1); k-fold CV
//! generalizes that check using the training sample alone, which is how
//! the derivation work (\[14]) compared candidate specifications without
//! spending extra simulations.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::spec::ModelSpec;
use crate::RegressError;

/// Cross-validation summary over all folds.
#[derive(Debug, Clone, PartialEq)]
pub struct CvResult {
    /// Median absolute relative error per fold (`|obs - pred| / pred`).
    pub fold_median_ape: Vec<f64>,
    /// Root-mean-square error over all held-out predictions.
    pub rmse: f64,
    /// Mean absolute error over all held-out predictions.
    pub mae: f64,
    /// Median absolute relative error over all held-out predictions.
    pub median_ape: f64,
    /// Signed relative error `(obs - pred) / pred` of every held-out
    /// prediction, in fold order (rows with a zero prediction are
    /// skipped), ready for [`udse_obs::QualityRecord::from_signed_errors`].
    pub signed_errors: Vec<f64>,
    /// Number of folds actually evaluated.
    pub folds: usize,
}

/// Runs `k`-fold cross-validation of `spec` on `(data, y)`.
///
/// Rows are shuffled deterministically by `seed`, split into `k`
/// near-equal folds; each fold is predicted by a model trained on the
/// remaining rows.
///
/// # Errors
///
/// Propagates fitting errors (e.g. a fold leaving too few observations).
///
/// # Panics
///
/// Panics if `k < 2` or `k` exceeds the number of observations.
pub fn k_fold_cv(
    spec: &ModelSpec,
    data: &Dataset,
    y: &[f64],
    k: usize,
    seed: u64,
) -> Result<CvResult, RegressError> {
    let n = data.len();
    assert!(k >= 2, "cross-validation needs at least two folds");
    assert!(k <= n, "more folds than observations");
    if y.len() != n {
        return Err(RegressError::MalformedDataset);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));

    let mut fold_median_ape = Vec::with_capacity(k);
    let mut sq_sum = 0.0;
    let mut abs_sum = 0.0;
    let mut apes: Vec<f64> = Vec::with_capacity(n);
    let mut signed_errors: Vec<f64> = Vec::with_capacity(n);
    let mut held_out_total = 0usize;

    for fold in 0..k {
        let test_idx: Vec<usize> = order.iter().copied().skip(fold).step_by(k).collect();
        let test_set: std::collections::HashSet<usize> = test_idx.iter().copied().collect();
        let mut train_rows = Vec::with_capacity(n - test_idx.len());
        let mut train_y = Vec::with_capacity(n - test_idx.len());
        for (i, &yi) in y.iter().enumerate() {
            if !test_set.contains(&i) {
                train_rows.push(data.row(i).to_vec());
                train_y.push(yi);
            }
        }
        let train = Dataset::new(data.names().to_vec(), train_rows)?;
        let model = spec.fit(&train, &train_y)?;
        let mut fold_apes = Vec::with_capacity(test_idx.len());
        for &i in &test_idx {
            let pred = model.predict_row(data.row(i))?;
            let err = y[i] - pred;
            sq_sum += err * err;
            abs_sum += err.abs();
            if pred != 0.0 {
                let signed = err / pred;
                signed_errors.push(signed);
                fold_apes.push(signed.abs());
                apes.push(signed.abs());
            }
            held_out_total += 1;
        }
        if !fold_apes.is_empty() {
            fold_median_ape.push(udse_stats::median(&fold_apes));
        }
    }
    let denom = held_out_total.max(1) as f64;
    Ok(CvResult {
        fold_median_ape,
        rmse: (sq_sum / denom).sqrt(),
        mae: abs_sum / denom,
        median_ape: if apes.is_empty() { 0.0 } else { udse_stats::median(&apes) },
        signed_errors,
        folds: k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TermSpec;
    use crate::transform::ResponseTransform;

    fn linear_world(n: usize, noise: f64) -> (Dataset, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut state = 7u64;
        let mut rnd = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        for i in 0..n {
            let x = i as f64 / 3.0;
            rows.push(vec![x]);
            y.push(5.0 + 1.5 * x + noise * rnd());
        }
        (Dataset::new(vec!["x".into()], rows).unwrap(), y)
    }

    #[test]
    fn cv_of_correct_spec_has_low_error() {
        let (data, y) = linear_world(60, 0.05);
        let spec = ModelSpec::new(ResponseTransform::Identity).with_term(TermSpec::Linear(0));
        let cv = k_fold_cv(&spec, &data, &y, 5, 1).unwrap();
        assert_eq!(cv.folds, 5);
        assert_eq!(cv.fold_median_ape.len(), 5);
        assert!(cv.median_ape < 0.01, "median APE {}", cv.median_ape);
        assert!(cv.rmse < 0.2);
        assert!(cv.mae <= cv.rmse + 1e-12);
    }

    #[test]
    fn cv_detects_underfitting() {
        // Quadratic world fit with a line vs a spline.
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 6.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 1.0 + r[0] * r[0]).collect();
        let data = Dataset::new(vec!["x".into()], rows).unwrap();
        let line = ModelSpec::new(ResponseTransform::Identity).with_term(TermSpec::Linear(0));
        let spline = ModelSpec::new(ResponseTransform::Identity)
            .with_term(TermSpec::Spline { var: 0, knots: 5 });
        let cv_line = k_fold_cv(&line, &data, &y, 5, 2).unwrap();
        let cv_spline = k_fold_cv(&spline, &data, &y, 5, 2).unwrap();
        assert!(
            cv_spline.rmse < 0.3 * cv_line.rmse,
            "spline {} vs line {}",
            cv_spline.rmse,
            cv_line.rmse
        );
    }

    #[test]
    fn cv_quality_record_matches_summary() {
        let (data, y) = linear_world(40, 0.2);
        let spec = ModelSpec::new(ResponseTransform::Identity).with_term(TermSpec::Linear(0));
        let cv = k_fold_cv(&spec, &data, &y, 4, 3).unwrap();
        assert_eq!(cv.signed_errors.len(), 40, "every held-out row kept");
        let q =
            udse_obs::QualityRecord::from_signed_errors("crossval.test.linear", &cv.signed_errors);
        assert_eq!(q.key, "crossval.test.linear");
        assert_eq!(q.n, 40);
        // Both use R type-7 quantiles over the same sample.
        assert!((q.p50 - cv.median_ape).abs() < 1e-12);
        assert!(q.p50 <= q.p90 && q.p90 <= q.max);
        assert!(q.bias.abs() <= q.max);
    }

    #[test]
    fn deterministic_per_seed() {
        let (data, y) = linear_world(40, 0.2);
        let spec = ModelSpec::new(ResponseTransform::Identity).with_term(TermSpec::Linear(0));
        let a = k_fold_cv(&spec, &data, &y, 4, 9).unwrap();
        let b = k_fold_cv(&spec, &data, &y, 4, 9).unwrap();
        assert_eq!(a, b);
        let c = k_fold_cv(&spec, &data, &y, 4, 10).unwrap();
        assert_ne!(a.fold_median_ape, c.fold_median_ape);
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn one_fold_panics() {
        let (data, y) = linear_world(10, 0.1);
        let spec = ModelSpec::new(ResponseTransform::Identity).with_term(TermSpec::Linear(0));
        let _ = k_fold_cv(&spec, &data, &y, 1, 0);
    }

    #[test]
    fn mismatched_response_rejected() {
        let (data, _) = linear_world(10, 0.1);
        let spec = ModelSpec::new(ResponseTransform::Identity).with_term(TermSpec::Linear(0));
        assert!(matches!(
            k_fold_cv(&spec, &data, &[1.0], 2, 0),
            Err(RegressError::MalformedDataset)
        ));
    }
}
