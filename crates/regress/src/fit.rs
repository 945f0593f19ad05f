use udse_linalg::{Cholesky, Matrix, Qr};

use crate::inference::{coefficient_stats, CoefficientStat};

use crate::dataset::Dataset;
use crate::diagnostics::FitDiagnostics;
use crate::spec::{ModelSpec, ResolvedTerm};
use crate::RegressError;

/// A fitted regression model: the specification with resolved knots, the
/// least-squares coefficients, and fit diagnostics.
///
/// Obtained from [`ModelSpec::fit`]; thereafter predictions are pure
/// arithmetic (basis expansion plus a dot product), which is what makes
/// exhaustive evaluation of a 262,500-point design space take seconds —
/// the computational-efficiency claim at the heart of the paper.
///
/// # Examples
///
/// ```
/// use udse_regress::{Dataset, ModelSpec, ResponseTransform, TermSpec};
///
/// let data = Dataset::new(
///     vec!["x".into()],
///     (0..10).map(|i| vec![i as f64]).collect(),
/// ).unwrap();
/// let y: Vec<f64> = (0..10).map(|i| 3.0 + 2.0 * i as f64).collect();
/// let model = ModelSpec::new(ResponseTransform::Identity)
///     .with_term(TermSpec::Linear(0))
///     .fit(&data, &y)
///     .unwrap();
/// assert!((model.predict_row(&[20.0]).unwrap() - 43.0).abs() < 1e-8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FittedModel {
    spec: ModelSpec,
    resolved: Vec<ResolvedTerm>,
    beta: Vec<f64>,
    width: usize,
    diagnostics: FitDiagnostics,
    /// Upper-triangular factor of the design matrix's QR, kept for
    /// coefficient inference (`sigma^2 (R'R)^-1`).
    r_factor: Matrix,
    column_names: Vec<String>,
}

impl FittedModel {
    pub(crate) fn fit(
        spec: ModelSpec,
        data: &Dataset,
        y: &[f64],
    ) -> Result<FittedModel, RegressError> {
        if y.len() != data.len() {
            return Err(RegressError::MalformedDataset);
        }
        let resolved = spec.resolve(data)?;
        // Transform the response, validating its domain.
        let transform = spec.transform();
        let mut z = Vec::with_capacity(y.len());
        for (i, &yi) in y.iter().enumerate() {
            match transform.apply(yi) {
                Some(v) if v.is_finite() => z.push(v),
                _ => return Err(RegressError::InvalidResponse { index: i, value: yi }),
            }
        }
        // Expand the design matrix with an intercept column.
        let p: usize = 1 + resolved.iter().map(ResolvedTerm::columns).sum::<usize>();
        if data.len() < p {
            return Err(RegressError::TooFewObservations {
                observations: data.len(),
                coefficients: p,
            });
        }
        let mut flat = Vec::with_capacity(data.len() * p);
        for row in data.rows() {
            flat.push(1.0);
            for term in &resolved {
                term.expand_into(row, &mut flat);
            }
        }
        let x = Matrix::from_vec(data.len(), p, flat);
        let (beta, r_factor) = solve_least_squares(&x, &z)?;
        // Diagnostics on the transformed scale.
        let zhat = x.matvec(&beta).expect("matching dimensions");
        let diagnostics = FitDiagnostics::compute(&z, &zhat, p);
        let column_names = column_names(&resolved, data.names());
        Ok(FittedModel {
            spec,
            resolved,
            beta,
            width: data.width(),
            diagnostics,
            r_factor,
            column_names,
        })
    }

    /// Predicts the (untransformed) response for one predictor row.
    ///
    /// # Errors
    ///
    /// Returns [`RegressError::RowLength`] when `row` does not match the
    /// training dataset's variable count.
    pub fn predict_row(&self, row: &[f64]) -> Result<f64, RegressError> {
        Ok(self.spec.transform().invert(self.predict_transformed(row)?))
    }

    /// Predicts on the *transformed* scale (no inverse applied); useful
    /// for residual analysis.
    ///
    /// # Errors
    ///
    /// Returns [`RegressError::RowLength`] when `row` has the wrong
    /// number of variables.
    pub fn predict_transformed(&self, row: &[f64]) -> Result<f64, RegressError> {
        if row.len() != self.width {
            return Err(RegressError::RowLength { expected: self.width, got: row.len() });
        }
        let mut scratch = Vec::with_capacity(8);
        let mut acc = self.beta[0];
        let mut next = 1;
        for term in &self.resolved {
            scratch.clear();
            term.expand_into(row, &mut scratch);
            for &c in &scratch {
                acc += self.beta[next] * c;
                next += 1;
            }
        }
        Ok(acc)
    }

    /// The model specification this model was fit from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The resolved terms (with concrete knot locations).
    pub fn resolved_terms(&self) -> &[ResolvedTerm] {
        &self.resolved
    }

    /// Regression coefficients, intercept first.
    pub fn coefficients(&self) -> &[f64] {
        &self.beta
    }

    /// Number of predictor variables the model was trained on.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Coefficient of determination on the transformed scale.
    pub fn r_squared(&self) -> f64 {
        self.diagnostics.r_squared
    }

    /// Full fit diagnostics.
    pub fn diagnostics(&self) -> &FitDiagnostics {
        &self.diagnostics
    }

    /// Design-matrix column labels (intercept first), aligned with
    /// [`FittedModel::coefficients`].
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// Classical OLS inference per coefficient: standard errors, t
    /// statistics, and two-sided p-values — the paper's significance
    /// testing step (§3, \[14]).
    ///
    /// # Panics
    ///
    /// Panics if the fit consumed all degrees of freedom (`n == p`).
    pub fn coefficient_table(&self) -> Vec<CoefficientStat> {
        let d = &self.diagnostics;
        let dof = d.n - d.p;
        assert!(dof > 0, "no residual degrees of freedom for inference");
        let sigma2 = d.residual_std_error * d.residual_std_error;
        coefficient_stats(&self.column_names, &self.beta, &self.r_factor, sigma2, dof)
    }
}

/// Solves `min ||X b - z||_2`, preferring the normal-equations Cholesky
/// fast path (one `p x p` Gram product instead of a full Householder
/// factorization of the `n x p` design matrix) and falling back to QR
/// when `X'X` is not safely positive definite. Either way the returned
/// factor `R` is upper triangular with `R'R = X'X`, which is all that
/// coefficient inference needs.
fn solve_least_squares(x: &Matrix, z: &[f64]) -> Result<(Vec<f64>, Matrix), RegressError> {
    let xtx = x.gram();
    if let Some(chol) = well_conditioned_cholesky(&xtx) {
        let xtz = x.tr_matvec(z).expect("matching dimensions");
        let beta = chol.solve(&xtz)?;
        udse_obs::metrics::counter("regress.cholesky_fits").inc();
        return Ok((beta, chol.l().transpose()));
    }
    udse_obs::metrics::counter("regress.cholesky_fallbacks").inc();
    udse_obs::debug!("fit", "normal equations ill-conditioned; falling back to Householder QR");
    let qr = Qr::new(x)?;
    let beta = qr.solve(z)?;
    Ok((beta, qr.r()))
}

/// Factorizes `X'X` if it is positive definite *and* comfortably
/// conditioned. Squaring the design matrix squares its condition number,
/// so the fast path is only trusted while `diag(L)` stays within a
/// `sqrt(1e10)` dynamic range; collinear spline bases beyond that go to
/// the numerically safer QR route.
fn well_conditioned_cholesky(xtx: &Matrix) -> Option<Cholesky> {
    const MAX_DIAG_CONDITION: f64 = 1e10;
    let chol = Cholesky::new(xtx).ok()?;
    let l = chol.l();
    let mut dmin = f64::INFINITY;
    let mut dmax = 0.0f64;
    for i in 0..l.rows() {
        let d = l[(i, i)];
        dmin = dmin.min(d);
        dmax = dmax.max(d);
    }
    if dmax * dmax <= MAX_DIAG_CONDITION * dmin * dmin {
        Some(chol)
    } else {
        None
    }
}

/// Human-readable labels for the expanded design-matrix columns.
fn column_names(resolved: &[ResolvedTerm], var_names: &[String]) -> Vec<String> {
    let mut names = vec!["intercept".to_string()];
    for term in resolved {
        match term {
            ResolvedTerm::Linear(v) => names.push(var_names[*v].clone()),
            ResolvedTerm::Interaction(a, b) => {
                names.push(format!("{}*{}", var_names[*a], var_names[*b]));
            }
            ResolvedTerm::Spline { var, knots } => {
                names.push(var_names[*var].clone());
                for j in 1..knots.len() - 1 {
                    names.push(format!("{}[rcs{}]", var_names[*var], j));
                }
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TermSpec;
    use crate::transform::ResponseTransform;

    fn grid_dataset() -> (Dataset, Vec<f64>) {
        // y = (2 + 0.5 a + 0.25 b + 0.1 a*b)^2, a in 0..10, b in {1, 2, 4}.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for a in 0..10 {
            for b in [1.0, 2.0, 4.0] {
                let a = a as f64;
                let base: f64 = 2.0 + 0.5 * a + 0.25 * b + 0.1 * a * b;
                rows.push(vec![a, b]);
                y.push(base * base);
            }
        }
        (Dataset::new(vec!["a".into(), "b".into()], rows).unwrap(), y)
    }

    #[test]
    fn sqrt_transform_recovers_quadratic_relation() {
        let (data, y) = grid_dataset();
        let model = ModelSpec::new(ResponseTransform::Sqrt)
            .with_term(TermSpec::Linear(0))
            .with_term(TermSpec::Linear(1))
            .with_term(TermSpec::Interaction(0, 1))
            .fit(&data, &y)
            .unwrap();
        assert!(model.r_squared() > 0.9999);
        // Exact on the sqrt scale: beta = [2, 0.5, 0.25, 0.1].
        let b = model.coefficients();
        assert!((b[0] - 2.0).abs() < 1e-8);
        assert!((b[1] - 0.5).abs() < 1e-8);
        assert!((b[2] - 0.25).abs() < 1e-8);
        assert!((b[3] - 0.1).abs() < 1e-8);
        // And prediction inverts the transform.
        let pred = model.predict_row(&[3.0, 2.0]).unwrap();
        let expect = (2.0 + 1.5 + 0.5 + 0.6f64).powi(2);
        assert!((pred - expect).abs() < 1e-8);
    }

    #[test]
    fn log_transform_recovers_exponential_relation() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (1.0 + 0.8 * r[0]).exp()).collect();
        let data = Dataset::new(vec!["x".into()], rows).unwrap();
        let model = ModelSpec::new(ResponseTransform::Log)
            .with_term(TermSpec::Linear(0))
            .fit(&data, &y)
            .unwrap();
        let b = model.coefficients();
        assert!((b[0] - 1.0).abs() < 1e-8);
        assert!((b[1] - 0.8).abs() < 1e-8);
    }

    #[test]
    fn spline_fits_nonlinear_curve_better_than_line() {
        // y = sin(x) over [0, 3]: a line cannot follow it, a 5-knot spline can.
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.05]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin()).collect();
        let data = Dataset::new(vec!["x".into()], rows).unwrap();
        let linear = ModelSpec::new(ResponseTransform::Identity)
            .with_term(TermSpec::Linear(0))
            .fit(&data, &y)
            .unwrap();
        let spline = ModelSpec::new(ResponseTransform::Identity)
            .with_term(TermSpec::Spline { var: 0, knots: 5 })
            .fit(&data, &y)
            .unwrap();
        assert!(spline.r_squared() > linear.r_squared());
        assert!(spline.r_squared() > 0.999);
    }

    #[test]
    fn prediction_row_length_checked() {
        let (data, y) = grid_dataset();
        let model = ModelSpec::new(ResponseTransform::Identity)
            .with_term(TermSpec::Linear(0))
            .fit(&data, &y)
            .unwrap();
        assert!(matches!(
            model.predict_row(&[1.0]),
            Err(RegressError::RowLength { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn invalid_response_under_log_reported() {
        let data = Dataset::new(vec!["x".into()], vec![vec![1.0], vec![2.0]]).unwrap();
        let err = ModelSpec::new(ResponseTransform::Log)
            .with_term(TermSpec::Linear(0))
            .fit(&data, &[1.0, 0.0])
            .unwrap_err();
        assert!(matches!(err, RegressError::InvalidResponse { index: 1, .. }));
    }

    #[test]
    fn too_few_observations_reported() {
        // Intercept + 2 linear + interaction = 4 coefficients from 3 rows.
        let data = Dataset::new(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0], vec![2.0, 5.0], vec![3.0, 1.0]],
        )
        .unwrap();
        let err = ModelSpec::new(ResponseTransform::Identity)
            .with_term(TermSpec::Linear(0))
            .with_term(TermSpec::Linear(1))
            .with_term(TermSpec::Interaction(0, 1))
            .fit(&data, &[1.0, 2.0, 3.0])
            .unwrap_err();
        assert!(matches!(
            err,
            RegressError::TooFewObservations { observations: 3, coefficients: 4 }
        ));
    }

    #[test]
    fn mismatched_response_length_rejected() {
        let (data, _) = grid_dataset();
        let err = ModelSpec::new(ResponseTransform::Identity)
            .with_term(TermSpec::Linear(0))
            .fit(&data, &[1.0, 2.0])
            .unwrap_err();
        assert_eq!(err, RegressError::MalformedDataset);
    }

    #[test]
    fn cholesky_and_qr_paths_agree() {
        let (data, y) = grid_dataset();
        let spec = ModelSpec::new(ResponseTransform::Sqrt)
            .with_term(TermSpec::Linear(0))
            .with_term(TermSpec::Linear(1))
            .with_term(TermSpec::Interaction(0, 1));
        let resolved = spec.resolve(&data).unwrap();
        let p: usize = 1 + resolved.iter().map(ResolvedTerm::columns).sum::<usize>();
        let mut flat = Vec::new();
        for row in data.rows() {
            flat.push(1.0);
            for term in &resolved {
                term.expand_into(row, &mut flat);
            }
        }
        let x = Matrix::from_vec(data.len(), p, flat);
        let z: Vec<f64> = y.iter().map(|v| v.sqrt()).collect();

        let (beta_fast, r_fast) = solve_least_squares(&x, &z).unwrap();
        let qr = Qr::new(&x).unwrap();
        let beta_qr = qr.solve(&z).unwrap();
        for (a, b) in beta_fast.iter().zip(&beta_qr) {
            assert!((a - b).abs() < 1e-9, "cholesky {a} vs qr {b}");
        }
        // Both factors must reproduce the Gram matrix: R'R = X'X.
        let gram = x.gram();
        for r in [&r_fast, &qr.r()] {
            let rtr = r.transpose().matmul(r).unwrap();
            for i in 0..p {
                for j in 0..p {
                    assert!(
                        (rtr[(i, j)] - gram[(i, j)]).abs() < 1e-6 * (1.0 + gram[(i, j)].abs()),
                        "R'R mismatch at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn ill_conditioned_design_falls_back_to_qr() {
        // Two nearly identical predictors make X'X catastrophically
        // conditioned; the fit must still succeed (via QR) and count the
        // fallback.
        let fallbacks = || udse_obs::metrics::counter("regress.cholesky_fallbacks").get();
        let before = fallbacks();
        let rows: Vec<Vec<f64>> =
            (0..40).map(|i| vec![i as f64, i as f64 + 1e-9 * (i % 3) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 1.0 + r[0] + r[1]).collect();
        let data = Dataset::new(vec!["a".into(), "b".into()], rows).unwrap();
        let model = ModelSpec::new(ResponseTransform::Identity)
            .with_term(TermSpec::Linear(0))
            .with_term(TermSpec::Linear(1))
            .fit(&data, &y)
            .unwrap();
        assert!(model.r_squared() > 0.9999);
        assert!(fallbacks() > before, "collinear design should take the QR path");
    }
}
