//! K-means clustering for compromise-architecture identification.
//!
//! The paper's §6 heterogeneity study clusters the nine per-benchmark
//! `bips³/w`-optimal architectures in the p-dimensional (normalized)
//! design-parameter space; each centroid is a *compromise
//! architecture* and the cluster count K measures the degree of
//! heterogeneity. This crate implements the heuristic exactly as the
//! paper describes it —
//!
//! 1. place K centroids at randomly chosen objects, per the paper,
//! 2. assign each object to the closest centroid,
//! 3. recompute centroids as cluster means,
//! 4. repeat 2–3 until assignments are stable —
//!
//! with multiple restarts keeping the lowest-inertia solution, plus the
//! min-max normalization the distance metric calls for.
//!
//! # Examples
//!
//! ```
//! use udse_cluster::{KMeans, MinMaxScaler};
//!
//! let points = vec![
//!     vec![0.0, 0.1], vec![0.1, 0.0],   // cluster A
//!     vec![5.0, 5.1], vec![5.1, 4.9],   // cluster B
//! ];
//! let scaler = MinMaxScaler::fit(&points);
//! let normalized = scaler.transform_all(&points);
//! let result = KMeans::new(2).with_restarts(4).run(&normalized, 42);
//! assert_eq!(result.assignments()[0], result.assignments()[1]);
//! assert_ne!(result.assignments()[0], result.assignments()[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kmeans;
mod scaler;

pub use kmeans::{Clustering, KMeans};
pub use scaler::MinMaxScaler;

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if lengths differ.
fn sq_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "point dimensionality mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        assert_eq!(sq_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn mismatched_dims_panic() {
        let _ = sq_distance(&[1.0], &[1.0, 2.0]);
    }
}
