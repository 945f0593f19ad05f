//! Pareto-frontier construction in the power-delay space (paper §4).

/// A pareto frontier over `(delay, power)` points: the set of designs
/// that minimize delay for a given power budget (equivalently, minimize
/// power for a given delay target).
///
/// Construction follows the paper §4.2: the delay range is discretized
/// and the power-minimizing design identified per delay bin, then
/// strictly dominated survivors are removed so the result is a true
/// frontier (monotone decreasing power as delay grows).
///
/// # Examples
///
/// ```
/// use udse_core::pareto::ParetoFrontier;
///
/// let pts = vec![
///     (1.0, 50.0), // fast, hot
///     (2.0, 20.0), // balanced
///     (2.5, 30.0), // dominated by the balanced point? no: slower AND hotter than (2.0, 20.0) -> dominated
///     (4.0, 10.0), // slow, cool
/// ];
/// let f = ParetoFrontier::from_points(&pts, 100);
/// let ids: Vec<usize> = f.indices().to_vec();
/// assert!(ids.contains(&0) && ids.contains(&1) && ids.contains(&3));
/// assert!(!ids.contains(&2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFrontier {
    indices: Vec<usize>,
    points: Vec<(f64, f64)>,
}

impl ParetoFrontier {
    /// Builds the frontier from `(delay, power)` pairs using `bins` delay
    /// bins. Returns points ordered by increasing delay.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, `bins` is zero, or any value is
    /// non-finite.
    pub fn from_points(points: &[(f64, f64)], bins: usize) -> Self {
        Self::from_fn(points.len(), |i| points[i], bins)
    }

    /// Builds the frontier over `len` designs whose `(delay, power)` is
    /// `point(i)`, without materializing them: `point` is called twice
    /// per design plus once per frontier design, so it should be a cheap
    /// lookup. Indices in the result refer to `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero, `bins` is zero, or any value is
    /// non-finite.
    pub fn from_fn(len: usize, point: impl Fn(usize) -> (f64, f64), bins: usize) -> Self {
        assert!(len > 0, "pareto frontier of empty set");
        assert!(bins > 0, "need at least one delay bin");
        let (mut dmin, mut dmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..len {
            let (d, p) = point(i);
            assert!(d.is_finite() && p.is_finite(), "non-finite delay/power");
            dmin = dmin.min(d);
            dmax = dmax.max(d);
        }
        let span = (dmax - dmin).max(f64::MIN_POSITIVE);
        // Power-minimizing candidate per delay bin, with its power.
        let mut best: Vec<Option<(usize, f64)>> = vec![None; bins];
        for i in 0..len {
            let (d, p) = point(i);
            let b = (((d - dmin) / span) * bins as f64) as usize;
            let b = b.min(bins - 1);
            match best[b] {
                Some((_, q)) if q <= p => {}
                _ => best[b] = Some((i, p)),
            }
        }
        // Sweep bins by increasing delay, keeping only candidates that
        // strictly improve (lower) power: the non-dominated skyline.
        let mut indices = Vec::new();
        let mut min_power = f64::INFINITY;
        for (candidate, p) in best.into_iter().flatten() {
            if p < min_power {
                min_power = p;
                indices.push(candidate);
            }
        }
        let frontier_points = indices.iter().map(|&i| point(i)).collect();
        ParetoFrontier { indices, points: frontier_points }
    }

    /// Indices (into the input slice) of the frontier designs, ordered by
    /// increasing delay.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The `(delay, power)` values of the frontier designs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of frontier designs.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the frontier is empty (never, after construction).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Verifies that no frontier point is dominated by any input point
    /// (within a tolerance); used by property tests.
    pub fn is_non_dominated(&self, all: &[(f64, f64)]) -> bool {
        self.points
            .iter()
            .all(|&(d, p)| !all.iter().any(|&(d2, p2)| d2 < d - 1e-12 && p2 < p - 1e-12))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_is_its_own_frontier() {
        let f = ParetoFrontier::from_points(&[(1.0, 1.0)], 10);
        assert_eq!(f.indices(), &[0]);
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
    }

    #[test]
    fn dominated_points_removed() {
        let pts = vec![(1.0, 10.0), (2.0, 5.0), (1.5, 20.0), (3.0, 6.0), (4.0, 2.0)];
        let f = ParetoFrontier::from_points(&pts, 50);
        assert_eq!(f.indices(), &[0, 1, 4]);
        assert!(f.is_non_dominated(&pts));
    }

    #[test]
    fn frontier_power_is_monotone_decreasing() {
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let d = 1.0 + (i % 10) as f64;
                let p = 100.0 / d + ((i * 7) % 13) as f64;
                (d, p)
            })
            .collect();
        let f = ParetoFrontier::from_points(&pts, 64);
        for w in f.points().windows(2) {
            assert!(w[0].0 < w[1].0, "delay must increase");
            assert!(w[0].1 > w[1].1, "power must decrease");
        }
    }

    #[test]
    fn equal_points_keep_one() {
        let pts = vec![(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)];
        let f = ParetoFrontier::from_points(&pts, 4);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn more_bins_refine_the_frontier() {
        let pts: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let d = 1.0 + i as f64 / 100.0;
                (d, 20.0 / d)
            })
            .collect();
        let coarse = ParetoFrontier::from_points(&pts, 5);
        let fine = ParetoFrontier::from_points(&pts, 100);
        assert!(fine.len() > coarse.len());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        let _ = ParetoFrontier::from_points(&[], 10);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_input_panics() {
        let _ = ParetoFrontier::from_points(&[(f64::NAN, 1.0)], 10);
    }
}
