//! Compiled grid prediction: [`FittedModel`] lowered onto a discrete
//! predictor grid, structure-of-arrays layout.
//!
//! The paper's design space (Table 1) is fully discrete — every predictor
//! takes only 3–10 distinct levels — while [`FittedModel::predict_row`]
//! re-derives each restricted-cubic-spline basis from scratch on every
//! call. [`FittedModel::compile`] exploits the discreteness: for every
//! predictor it precomputes the *per-level partial sum* of that
//! predictor's single-variable terms,
//!
//! ```text
//! partial[v][i] = Σ_j β_j · g_j(level_v[i])
//! ```
//!
//! folding the spline basis evaluation and its coefficient products into
//! one table entry per level. A prediction then reduces to one table read
//! per variable, one multiply-add per interaction term, and the response
//! back-transform — no allocation, no knot branching:
//!
//! ```text
//! f⁻¹( β₀ + Σ_v partial[v][idx_v] + Σ_(a,b) β_ab · x_a · x_b )
//! ```
//!
//! The tables live in a structure-of-arrays plan: *one* flat `levels`
//! buffer and *one* flat `partial` buffer, with per-variable offsets
//! slicing out each axis's contiguous lane. That keeps the whole plan in
//! a few cache lines (the paper grid is 47 levels × 2 `f64` buffers).
//! [`CompiledModel::predict_indices`] is the scalar reference over those
//! lanes; the sweep kernel (`udse-core`'s `SuiteLanes`) restacks the
//! lanes of many models so one grid read feeds all of them.
//!
//! The lowering is exact up to floating-point summation order (the terms
//! are accumulated in the same model order, only grouped per variable),
//! so compiled predictions agree with [`FittedModel::predict_row`] to
//! ~1e-15 relative — well inside the 1e-12 equivalence bound the
//! exhaustive grid tests assert.

use crate::fit::FittedModel;
use crate::spec::ResolvedTerm;
use crate::spline::spline_basis;
use crate::transform::ResponseTransform;
use crate::RegressError;

/// One interaction term surviving compilation: `beta * x_a * x_b`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CompiledInteraction {
    a: usize,
    b: usize,
    beta: f64,
}

/// A [`FittedModel`] specialized to a discrete predictor grid; see the
/// module docs for the lowering scheme and the structure-of-arrays
/// layout.
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
/// let grid = vec![vec![0.0, 2.0, 4.0, 6.0]];
/// let compiled = model.compile(&grid).unwrap();
/// // Level index 2 is the grid value 4.0.
/// assert!((compiled.predict_indices(&[2]) - 11.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    transform: ResponseTransform,
    width: usize,
    intercept: f64,
    /// Every predictor's grid levels, flattened; variable `v` owns
    /// `levels[offsets[v]..offsets[v + 1]]` (strictly increasing).
    levels: Vec<f64>,
    /// Per-level single-variable partial sums, same layout as `levels`.
    partial: Vec<f64>,
    /// Per-variable lane offsets into `levels`/`partial`; `width + 1`
    /// entries, `offsets[0] == 0`, `offsets[width] == levels.len()`.
    offsets: Vec<usize>,
    interactions: Vec<CompiledInteraction>,
}

impl FittedModel {
    /// Lowers this model onto a discrete grid: `levels[v]` lists the
    /// values predictor `v` may take (strictly increasing). All
    /// single-variable terms collapse into per-level partial-sum lanes;
    /// interaction terms keep their coefficient and multiply at predict
    /// time. The plan owns one flattened levels buffer (no per-variable
    /// clones) sliced by per-axis offsets.
    ///
    /// # Errors
    ///
    /// Returns [`RegressError::RowLength`] when `levels` does not have
    /// one list per predictor, and [`RegressError::BadLevels`] when any
    /// list is empty or not strictly increasing.
    pub fn compile(&self, levels: &[Vec<f64>]) -> Result<CompiledModel, RegressError> {
        let width = self.width();
        if levels.len() != width {
            return Err(RegressError::RowLength { expected: width, got: levels.len() });
        }
        for (var, ls) in levels.iter().enumerate() {
            if ls.is_empty() || ls.windows(2).any(|w| w[0] >= w[1]) {
                return Err(RegressError::BadLevels { var });
            }
        }
        let total: usize = levels.iter().map(Vec::len).sum();
        let mut flat = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(width + 1);
        offsets.push(0);
        for ls in levels {
            flat.extend_from_slice(ls);
            offsets.push(flat.len());
        }
        let mut partial = vec![0.0; total];
        let beta = self.coefficients();
        let mut interactions = Vec::new();
        let mut next = 1; // beta[0] is the intercept
        for term in self.resolved_terms() {
            match term {
                ResolvedTerm::Linear(v) => {
                    let b = beta[next];
                    next += 1;
                    let lane = &mut partial[offsets[*v]..offsets[*v + 1]];
                    for (p, &x) in lane.iter_mut().zip(&levels[*v]) {
                        *p += b * x;
                    }
                }
                ResolvedTerm::Spline { var, knots } => {
                    let n = term.columns();
                    let bs = &beta[next..next + n];
                    next += n;
                    let lane = &mut partial[offsets[*var]..offsets[*var + 1]];
                    for (p, &x) in lane.iter_mut().zip(&levels[*var]) {
                        let basis = spline_basis(x, knots);
                        let mut acc = 0.0;
                        for (b, c) in bs.iter().zip(&basis) {
                            acc += b * c;
                        }
                        *p += acc;
                    }
                }
                ResolvedTerm::Interaction(a, b) => {
                    interactions.push(CompiledInteraction { a: *a, b: *b, beta: beta[next] });
                    next += 1;
                }
            }
        }
        Ok(CompiledModel {
            transform: self.spec().transform(),
            width,
            intercept: beta[0],
            levels: flat,
            partial,
            offsets,
            interactions,
        })
    }
}

impl CompiledModel {
    /// Number of predictor variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The response transform inherited from the fitted model.
    pub fn transform(&self) -> ResponseTransform {
        self.transform
    }

    /// The model intercept `β₀` (transformed scale). Exposed so callers
    /// stacking several compiled models into wider lane groups can seed
    /// their accumulators identically to [`CompiledModel::predict_indices`].
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The grid levels of one predictor.
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range.
    pub fn levels(&self, var: usize) -> &[f64] {
        &self.levels[self.offsets[var]..self.offsets[var + 1]]
    }

    /// The per-level single-variable partial-sum lane of one predictor
    /// (`partial[v][i]` in the module docs), parallel to
    /// [`CompiledModel::levels`]`(var)`.
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range.
    pub fn partial_sums(&self, var: usize) -> &[f64] {
        &self.partial[self.offsets[var]..self.offsets[var + 1]]
    }

    /// The compiled interaction terms `(a, b, beta)` in model order.
    pub fn interactions(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.interactions.iter().map(|it| (it.a, it.b, it.beta))
    }

    /// Predicts the (untransformed) response from per-variable *level
    /// indices*: `idx[v]` indexes into [`CompiledModel::levels`]`(v)`.
    /// Accumulates intercept, per-axis partial sums in predictor order,
    /// then interaction products in model order — the lane order every
    /// stacked kernel reproduces bitwise.
    ///
    /// # Panics
    ///
    /// Panics when `idx` has the wrong length or an index is out of its
    /// variable's level range.
    pub fn predict_indices(&self, idx: &[usize]) -> f64 {
        assert_eq!(idx.len(), self.width, "one level index per predictor");
        let mut acc = self.intercept;
        for (v, &i) in idx.iter().enumerate() {
            acc += self.partial_sums(v)[i];
        }
        for it in &self.interactions {
            acc += it.beta * self.levels(it.a)[idx[it.a]] * self.levels(it.b)[idx[it.b]];
        }
        self.transform.invert(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::spec::{ModelSpec, TermSpec};

    /// Grid, spline+interaction model, and its compiled form.
    fn fitted_on_grid() -> (FittedModel, Vec<Vec<f64>>) {
        let a_levels: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b_levels: Vec<f64> = vec![10.0, 20.0, 40.0];
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for &a in &a_levels {
            for &b in &b_levels {
                rows.push(vec![a, b]);
                y.push((2.0 + 0.8 * a + 0.01 * b + 0.3 * (a - 3.0).max(0.0) + 0.002 * a * b).exp());
            }
        }
        let data = Dataset::new(vec!["a".into(), "b".into()], rows).unwrap();
        let model = ModelSpec::new(ResponseTransform::Log)
            .with_term(TermSpec::Spline { var: 0, knots: 4 })
            .with_term(TermSpec::Linear(1))
            .with_term(TermSpec::Interaction(0, 1))
            .fit(&data, &y)
            .unwrap();
        (model, vec![a_levels, b_levels])
    }

    #[test]
    fn compiled_matches_naive_on_every_grid_point() {
        let (model, levels) = fitted_on_grid();
        let compiled = model.compile(&levels).unwrap();
        for (ia, &a) in levels[0].iter().enumerate() {
            for (ib, &b) in levels[1].iter().enumerate() {
                let naive = model.predict_row(&[a, b]).unwrap();
                let by_idx = compiled.predict_indices(&[ia, ib]);
                assert!(
                    (by_idx - naive).abs() <= 1e-12 * naive.abs(),
                    "index path diverges at ({a}, {b}): {by_idx} vs {naive}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one level index per predictor")]
    fn index_path_rejects_wrong_width() {
        let (model, levels) = fitted_on_grid();
        let compiled = model.compile(&levels).unwrap();
        compiled.predict_indices(&[0]);
    }

    #[test]
    fn compile_validates_levels() {
        let (model, levels) = fitted_on_grid();
        assert!(matches!(
            model.compile(&levels[..1]).unwrap_err(),
            RegressError::RowLength { expected: 2, got: 1 }
        ));
        let unsorted = vec![vec![1.0, 3.0, 2.0], levels[1].clone()];
        assert!(matches!(
            model.compile(&unsorted).unwrap_err(),
            RegressError::BadLevels { var: 0 }
        ));
        let empty = vec![levels[0].clone(), Vec::new()];
        assert!(matches!(model.compile(&empty).unwrap_err(), RegressError::BadLevels { var: 1 }));
    }

    #[test]
    fn accessors_expose_grid_shape() {
        let (model, levels) = fitted_on_grid();
        let compiled = model.compile(&levels).unwrap();
        assert_eq!(compiled.width(), 2);
        assert_eq!(compiled.transform(), ResponseTransform::Log);
        assert_eq!(compiled.levels(0), &levels[0][..]);
        assert_eq!(compiled.levels(1), &levels[1][..]);
        // The SoA plan exposes its lanes for model stacking.
        assert_eq!(compiled.partial_sums(0).len(), levels[0].len());
        assert_eq!(compiled.partial_sums(1).len(), levels[1].len());
        let inter: Vec<(usize, usize, f64)> = compiled.interactions().collect();
        assert_eq!(inter.len(), 1);
        assert_eq!((inter[0].0, inter[0].1), (0, 1));
    }
}
