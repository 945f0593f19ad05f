use crate::quantiles::quantile_sorted;

/// Boxplot statistics as defined in the paper (§3.4):
///
/// 1. horizontal lines at the median and the upper/lower quartiles,
/// 2. whiskers drawn to the most extreme data points within 1.5 IQR of the
///    upper/lower quartile,
/// 3. points beyond the whiskers are outliers.
///
/// # Examples
///
/// ```
/// use udse_stats::Boxplot;
///
/// let bp = Boxplot::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0, 50.0]);
/// assert_eq!(bp.q1, 2.25);
/// assert_eq!(bp.q3, 4.75);
/// assert_eq!(bp.outliers, vec![50.0]);
/// assert_eq!(bp.upper_whisker, 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Boxplot {
    /// Lower quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Upper quartile (75th percentile).
    pub q3: f64,
    /// Most extreme sample within `q1 - 1.5 * IQR`.
    pub lower_whisker: f64,
    /// Most extreme sample within `q3 + 1.5 * IQR`.
    pub upper_whisker: f64,
    /// Samples beyond the whiskers, in ascending order.
    pub outliers: Vec<f64>,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Boxplot {
    /// Computes boxplot statistics for a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains NaN.
    pub fn from_samples(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "boxplot of empty sample");
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in boxplot input"));
        let q1 = quantile_sorted(&sorted, 0.25);
        let med = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let lower_whisker = sorted.iter().copied().find(|&x| x >= lo_fence).unwrap_or(sorted[0]);
        let upper_whisker = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(*sorted.last().expect("non-empty"));
        let outliers: Vec<f64> =
            sorted.iter().copied().filter(|&x| x < lo_fence || x > hi_fence).collect();
        Boxplot {
            q1,
            median: med,
            q3,
            lower_whisker,
            upper_whisker,
            outliers,
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            n: sorted.len(),
        }
    }

    /// Interquartile range `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_outliers_whiskers_are_extremes() {
        let bp = Boxplot::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(bp.median, 3.0);
        assert_eq!(bp.q1, 2.0);
        assert_eq!(bp.q3, 4.0);
        assert_eq!(bp.lower_whisker, 1.0);
        assert_eq!(bp.upper_whisker, 5.0);
        assert!(bp.outliers.is_empty());
    }

    #[test]
    fn outliers_detected_both_sides() {
        let bp = Boxplot::from_samples(&[-100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0]);
        assert_eq!(bp.outliers, vec![-100.0, 100.0]);
        assert_eq!(bp.lower_whisker, 1.0);
        assert_eq!(bp.upper_whisker, 5.0);
    }

    #[test]
    fn whiskers_inside_fences() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 20.0];
        let bp = Boxplot::from_samples(&xs);
        let hi_fence = bp.q3 + 1.5 * bp.iqr();
        assert!(bp.upper_whisker <= hi_fence);
        assert!(bp.outliers.iter().all(|&x| x > hi_fence));
    }

    #[test]
    fn constant_sample_degenerates_gracefully() {
        let bp = Boxplot::from_samples(&[2.0; 10]);
        assert_eq!(bp.median, 2.0);
        assert_eq!(bp.iqr(), 0.0);
        assert_eq!(bp.lower_whisker, 2.0);
        assert_eq!(bp.upper_whisker, 2.0);
        assert!(bp.outliers.is_empty());
    }

    #[test]
    fn single_sample() {
        let bp = Boxplot::from_samples(&[3.5]);
        assert_eq!(bp.median, 3.5);
        assert_eq!(bp.n, 1);
        assert!(bp.outliers.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        let _ = Boxplot::from_samples(&[]);
    }
}
