//! Restricted cubic spline basis functions (Harrell).
//!
//! A restricted cubic spline with knots `t_1 < ... < t_k` is a piecewise
//! cubic polynomial that is continuous in value, first and second
//! derivative at every knot and constrained to be *linear* beyond the
//! boundary knots `t_1` and `t_k` — the property that makes it safe for
//! mild extrapolation at the edges of the design space (paper §3.3, §3.5).
//! The basis has `k - 1` columns: the identity `x` plus `k - 2` truncated
//! cubic terms.

use udse_stats::quantiles;

/// Harrell's recommended knot placement quantiles for `k` knots.
///
/// # Panics
///
/// Panics unless `3 <= k <= 5` (the range used in the paper).
pub fn knot_placement_quantiles(k: usize) -> &'static [f64] {
    match k {
        3 => &[0.10, 0.50, 0.90],
        4 => &[0.05, 0.35, 0.65, 0.95],
        5 => &[0.05, 0.275, 0.50, 0.725, 0.95],
        _ => panic!("restricted cubic splines support 3 to 5 knots, got {k}"),
    }
}

/// Computes knot locations for a predictor sample: `k` knots at fixed
/// quantiles of the observed distribution (paper §3.3: "knots at fixed
/// quantiles of a predictor's distribution ensure a sufficient number of
/// points in each interval").
///
/// Duplicate quantiles (common for discrete predictors with few levels)
/// are removed; callers should fall back to a linear term when fewer than
/// three distinct knots remain.
///
/// # Panics
///
/// Panics if `xs` is empty or `k` is outside `3..=5`.
pub fn knot_quantiles(xs: &[f64], k: usize) -> Vec<f64> {
    // A spline needs at least as many distinct data levels as knots:
    // interpolated quantiles on a coarse discrete variable would invent
    // knot locations with no data nearby and a rank-deficient basis.
    let mut levels: Vec<f64> = xs.to_vec();
    levels.sort_by(|a, b| a.partial_cmp(b).expect("NaN in knot input"));
    levels.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    if levels.len() < k {
        return levels; // caller degrades to linear when < 3 remain
    }
    let qs = knot_placement_quantiles(k);
    let mut knots = quantiles(xs, qs);
    knots.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    knots
}

/// Evaluates the restricted cubic spline basis at `x` for the given
/// knots: returns `[x, s_1(x), ..., s_{k-2}(x)]`.
///
/// The nonlinear terms follow Harrell's normalized form: with
/// `tau = (t_k - t_1)^2`,
///
/// ```text
/// s_j(x) = [ (x - t_j)+^3
///            - (x - t_{k-1})+^3 * (t_k - t_j)/(t_k - t_{k-1})
///            + (x - t_k)+^3   * (t_{k-1} - t_j)/(t_k - t_{k-1}) ] / tau
/// ```
///
/// which is linear for `x <= t_1` (all terms zero) and for `x >= t_k`
/// (the cubic and quadratic coefficients cancel).
///
/// # Panics
///
/// Panics if fewer than three knots are supplied or knots are not
/// strictly increasing.
pub fn spline_basis(x: f64, knots: &[f64]) -> Vec<f64> {
    let mut basis = Vec::with_capacity(knots.len() - 1);
    spline_basis_into(x, knots, &mut basis);
    basis
}

/// Appends the restricted cubic spline basis at `x` to `out` — the
/// allocation-free form of [`spline_basis`], used by design-matrix
/// construction and row prediction to reuse one scratch buffer across
/// terms.
///
/// # Panics
///
/// Panics under the same conditions as [`spline_basis`].
#[allow(clippy::needless_range_loop)] // index form mirrors Harrell's j-indexed formula
pub fn spline_basis_into(x: f64, knots: &[f64], out: &mut Vec<f64>) {
    let k = knots.len();
    assert!(k >= 3, "restricted cubic splines need at least 3 knots");
    assert!(knots.windows(2).all(|w| w[0] < w[1]), "knots must be strictly increasing");
    let t_last = knots[k - 1];
    let t_penult = knots[k - 2];
    let tau = (t_last - knots[0]) * (t_last - knots[0]);
    let cube_plus = |v: f64| {
        let c = v.max(0.0);
        c * c * c
    };
    out.push(x);
    for j in 0..k - 2 {
        let tj = knots[j];
        let num = cube_plus(x - tj) - cube_plus(x - t_penult) * (t_last - tj) / (t_last - t_penult)
            + cube_plus(x - t_last) * (t_penult - tj) / (t_last - t_penult);
        out.push(num / tau);
    }
}

/// Number of basis columns produced by [`spline_basis`] for `k` knots.
pub fn spline_columns(k: usize) -> usize {
    k - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOTS: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

    fn basis_at(x: f64) -> Vec<f64> {
        spline_basis(x, &KNOTS)
    }

    /// Numerical derivative of basis column `c`.
    fn deriv(c: usize, x: f64, h: f64) -> f64 {
        (basis_at(x + h)[c] - basis_at(x - h)[c]) / (2.0 * h)
    }

    fn second_deriv(c: usize, x: f64, h: f64) -> f64 {
        (basis_at(x + h)[c] - 2.0 * basis_at(x)[c] + basis_at(x - h)[c]) / (h * h)
    }

    #[test]
    fn first_column_is_identity() {
        for x in [-1.0, 0.0, 2.5, 7.0] {
            assert_eq!(basis_at(x)[0], x);
        }
    }

    #[test]
    fn column_count_matches() {
        assert_eq!(basis_at(0.0).len(), spline_columns(4));
        assert_eq!(spline_basis(0.0, &[1.0, 2.0, 3.0]).len(), spline_columns(3));
    }

    #[test]
    fn zero_below_first_knot() {
        // Nonlinear terms vanish left of the first knot.
        for x in [-5.0, 0.0, 0.99] {
            let b = basis_at(x);
            for v in &b[1..] {
                assert_eq!(*v, 0.0);
            }
        }
    }

    #[test]
    fn continuous_at_knots() {
        for &t in &KNOTS {
            let below = basis_at(t - 1e-9);
            let above = basis_at(t + 1e-9);
            for (a, b) in below.iter().zip(&above) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn smooth_first_and_second_derivatives_at_knots() {
        for &t in &KNOTS {
            for c in 1..3 {
                let d_lo = deriv(c, t - 1e-4, 1e-5);
                let d_hi = deriv(c, t + 1e-4, 1e-5);
                assert!((d_lo - d_hi).abs() < 1e-2, "C1 broken at {t} col {c}");
                let s_lo = second_deriv(c, t - 1e-3, 1e-4);
                let s_hi = second_deriv(c, t + 1e-3, 1e-4);
                assert!((s_lo - s_hi).abs() < 0.1, "C2 broken at {t} col {c}");
            }
        }
    }

    #[test]
    fn linear_beyond_boundary_knots() {
        // Second derivative ~0 outside [t_1, t_k].
        for x in [-3.0, 0.5, 4.5, 8.0, 20.0] {
            for c in 1..3 {
                let s = second_deriv(c, x, 1e-4);
                assert!(s.abs() < 1e-3, "not linear at {x}: d2={s}");
            }
        }
    }

    #[test]
    fn knot_quantiles_for_uniform_sample() {
        let xs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let knots = knot_quantiles(&xs, 3);
        assert_eq!(knots, vec![10.0, 50.0, 90.0]);
        let knots4 = knot_quantiles(&xs, 4);
        assert_eq!(knots4, vec![5.0, 35.0, 65.0, 95.0]);
    }

    #[test]
    fn duplicate_knots_are_deduped() {
        // A predictor with only two levels cannot support 3 distinct knots.
        let xs = vec![2.0, 2.0, 2.0, 8.0, 8.0, 8.0];
        let knots = knot_quantiles(&xs, 3);
        assert!(knots.len() < 3);
    }

    #[test]
    #[should_panic(expected = "at least 3 knots")]
    fn too_few_knots_panics() {
        let _ = spline_basis(0.0, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_knots_panic() {
        let _ = spline_basis(0.0, &[1.0, 3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "3 to 5 knots")]
    fn placement_out_of_range_panics() {
        let _ = knot_placement_quantiles(6);
    }
}
