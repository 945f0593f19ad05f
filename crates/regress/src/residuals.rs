//! Residual analysis (paper §3: the derivation applied "residual
//! analysis" alongside significance testing).
//!
//! Checks the OLS assumptions on the transformed scale: roughly symmetric,
//! light-tailed residuals (skewness/kurtosis, Jarque–Bera) with no trend
//! against the fitted values (heteroscedasticity). The paper's sqrt/log
//! response transforms exist precisely to make these checks pass; the
//! ablation harness shows what happens without them.

use crate::dataset::Dataset;
use crate::fit::FittedModel;
use crate::RegressError;

/// Summary of a fitted model's residual behaviour on the transformed
/// scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualReport {
    /// Number of residuals.
    pub n: usize,
    /// Mean residual (should be ~0 by construction).
    pub mean: f64,
    /// Sample skewness (0 for symmetric residuals).
    pub skewness: f64,
    /// Excess kurtosis (0 for normal tails).
    pub excess_kurtosis: f64,
    /// Jarque–Bera statistic `n/6 (S^2 + K^2/4)`.
    pub jarque_bera: f64,
    /// p-value of the JB statistic under its chi-squared(2) null.
    pub jarque_bera_pvalue: f64,
    /// Pearson correlation between |residual| and fitted value; large
    /// magnitudes indicate heteroscedasticity (error variance drifting
    /// with the response level).
    pub spread_trend: f64,
}

/// Computes the residual report for a fitted model over a dataset.
///
/// Residuals are taken on the *transformed* scale (`f(y) - f_hat`), where
/// the OLS assumptions are supposed to hold.
///
/// # Errors
///
/// Returns [`RegressError::MalformedDataset`] when `y` and `data`
/// disagree in length, and propagates prediction errors.
pub fn residual_report(
    model: &FittedModel,
    data: &Dataset,
    y: &[f64],
) -> Result<ResidualReport, RegressError> {
    if y.len() != data.len() {
        return Err(RegressError::MalformedDataset);
    }
    let transform = model.spec().transform();
    let mut resid = Vec::with_capacity(y.len());
    let mut fitted = Vec::with_capacity(y.len());
    for (i, &yi) in y.iter().enumerate() {
        let z = transform.apply(yi).ok_or(RegressError::InvalidResponse { index: i, value: yi })?;
        let zhat = model.predict_transformed(data.row(i))?;
        resid.push(z - zhat);
        fitted.push(zhat);
    }
    let n = resid.len() as f64;
    let mean = resid.iter().sum::<f64>() / n;
    let m2 = resid.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n;
    let m3 = resid.iter().map(|r| (r - mean).powi(3)).sum::<f64>() / n;
    let m4 = resid.iter().map(|r| (r - mean).powi(4)).sum::<f64>() / n;
    let sd = m2.sqrt();
    let (skewness, excess_kurtosis) =
        if sd > 0.0 { (m3 / sd.powi(3), m4 / (m2 * m2) - 3.0) } else { (0.0, 0.0) };
    let jb = n / 6.0 * (skewness * skewness + excess_kurtosis * excess_kurtosis / 4.0);
    // Chi-squared(2) survival function has the closed form exp(-x/2).
    let jb_p = (-jb / 2.0).exp();
    let abs_resid: Vec<f64> = resid.iter().map(|r| (r - mean).abs()).collect();
    let spread_trend = if abs_resid.len() >= 2 && sd > 0.0 {
        udse_stats::pearson(&abs_resid, &fitted)
    } else {
        0.0
    };
    Ok(ResidualReport {
        n: resid.len(),
        mean,
        skewness,
        excess_kurtosis,
        jarque_bera: jb,
        jarque_bera_pvalue: jb_p,
        spread_trend,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ModelSpec, TermSpec};
    use crate::transform::ResponseTransform;

    fn gaussianish(state: &mut u64) -> f64 {
        // Sum of uniforms: near-normal via CLT (splitmix64 draws).
        let mut acc = 0.0;
        for _ in 0..12 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            acc += (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        }
        acc / 2.0
    }

    fn fit_world(noise_kind: &str) -> (FittedModel, Dataset, Vec<f64>) {
        let mut state = 42u64;
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let x = i as f64 / 30.0;
            let noise = match noise_kind {
                "normal" => 0.3 * gaussianish(&mut state),
                // Variance growing with the response level.
                "hetero" => 0.05 * (1.0 + 3.0 * x) * gaussianish(&mut state),
                // Heavy one-sided tail.
                "skewed" => {
                    let g = gaussianish(&mut state);
                    if g > 0.0 {
                        2.5 * g * g
                    } else {
                        0.1 * g
                    }
                }
                _ => unreachable!(),
            };
            rows.push(vec![x]);
            y.push(5.0 + 2.0 * x + noise);
        }
        let data = Dataset::new(vec!["x".into()], rows).unwrap();
        let model = ModelSpec::new(ResponseTransform::Identity)
            .with_term(TermSpec::Linear(0))
            .fit(&data, &y)
            .unwrap();
        (model, data, y)
    }

    #[test]
    fn normal_residuals_pass_jarque_bera() {
        let (model, data, y) = fit_world("normal");
        let r = residual_report(&model, &data, &y).unwrap();
        assert!(r.mean.abs() < 1e-8, "OLS residuals have zero mean");
        assert!(r.skewness.abs() < 0.4, "skewness {}", r.skewness);
        assert!(r.jarque_bera_pvalue > 0.01, "JB p-value {}", r.jarque_bera_pvalue);
        assert!(r.spread_trend.abs() < 0.25);
    }

    #[test]
    fn skewed_residuals_fail_jarque_bera() {
        let (model, data, y) = fit_world("skewed");
        let r = residual_report(&model, &data, &y).unwrap();
        assert!(r.skewness > 0.5, "skewness {}", r.skewness);
        assert!(r.jarque_bera_pvalue <= 0.01, "JB p-value {}", r.jarque_bera_pvalue);
    }

    #[test]
    fn heteroscedastic_residuals_show_spread_trend() {
        let (model, data, y) = fit_world("hetero");
        let r = residual_report(&model, &data, &y).unwrap();
        assert!(r.spread_trend > 0.3, "spread trend {}", r.spread_trend);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let (model, data, _) = fit_world("normal");
        assert!(matches!(
            residual_report(&model, &data, &[1.0]),
            Err(RegressError::MalformedDataset)
        ));
    }
}
