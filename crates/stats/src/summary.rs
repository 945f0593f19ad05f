/// One-pass summary of a sample: count, mean, variance, extremes.
///
/// Uses Welford's algorithm so it is stable for long accumulations and can
/// be built incrementally from an iterator.
///
/// # Examples
///
/// ```
/// use udse_stats::Summary;
///
/// let s: Summary = [1.0, 2.0, 3.0, 4.0].iter().copied().collect();
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (n-1 denominator); 0 when fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Minimum observation.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn min(&self) -> f64 {
        assert!(self.n > 0, "min of empty summary");
        self.min
    }

    /// Maximum observation.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn max(&self) -> f64 {
        assert!(self.n > 0, "max of empty summary");
        self.max
    }

    /// Builds a summary from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        xs.iter().copied().collect()
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_mean_and_variance() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance = 32/7.
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_min_panics() {
        let _ = Summary::new().min();
    }

    #[test]
    fn extend_matches_collect() {
        let mut a = Summary::new();
        a.extend([1.0, 2.0, 3.0]);
        let b: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        assert!((a.mean() - b.mean()).abs() < 1e-15);
        assert!((a.sample_variance() - b.sample_variance()).abs() < 1e-15);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_slice(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn welford_is_stable_for_shifted_data() {
        // Large offset: naive sum-of-squares would lose precision.
        let base = 1e9;
        let s = Summary::from_slice(&[base + 1.0, base + 2.0, base + 3.0]);
        assert!((s.sample_variance() - 1.0).abs() < 1e-6);
    }
}
