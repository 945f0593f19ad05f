use crate::triangular::{solve_lower, solve_upper};
use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L L^T` of a symmetric positive-definite
/// matrix.
///
/// Used as an independent cross-check of the QR least-squares path (via the
/// normal equations `X^T X beta = X^T y`) and for solving the small
/// symmetric systems that arise in model diagnostics.
///
/// # Examples
///
/// ```
/// use udse_linalg::{Matrix, Cholesky};
///
/// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let ch = Cholesky::new(&a).unwrap();
/// let x = ch.solve(&[8.0, 7.0]).unwrap();
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry is assumed, not
    /// checked.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `a` is not square, or
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "cholesky",
                left: a.shape(),
                right: a.shape(),
            });
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { index: i });
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Returns the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward then backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = solve_lower(&self.l, b)?;
        solve_upper(&self.l.transpose(), &y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs() {
        let a = Matrix::from_rows(&[
            vec![25.0, 15.0, -5.0],
            vec![15.0, 18.0, 0.0],
            vec![-5.0, 0.0, 11.0],
        ]);
        let ch = Cholesky::new(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(recon.sub(&a).unwrap().max_abs() < 1e-12);
        // Known factor: L = [[5,0,0],[3,3,0],[-1,1,3]].
        assert!((ch.l()[(0, 0)] - 5.0).abs() < 1e-12);
        assert!((ch.l()[(1, 0)] - 3.0).abs() < 1e-12);
        assert!((ch.l()[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_matches_known_solution() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        // A [1.25, 1.5]^T = [8, 7]^T.
        let x = ch.solve(&[8.0, 7.0]).unwrap();
        assert!((x[0] - 1.25).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn not_positive_definite_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(Cholesky::new(&a), Err(LinalgError::NotPositiveDefinite { index: 1 })));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::new(&a), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn normal_equations_agree_with_qr() {
        use crate::qr::lstsq;
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![1.0, 2.0, 4.0],
            vec![1.0, 3.0, 9.0],
            vec![1.0, 4.0, 16.0],
        ]);
        let y = [1.0, 2.7, 5.8, 11.1, 17.9];
        let beta_qr = lstsq(&x, &y).unwrap();
        let g = x.gram();
        let xty = x.tr_matvec(&y).unwrap();
        let beta_ch = Cholesky::new(&g).unwrap().solve(&xty).unwrap();
        for (a, b) in beta_qr.iter().zip(&beta_ch) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }
}
