use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::sq_distance;

/// Assignment/update rounds per restart before giving up on
/// convergence.
const MAX_ITER: usize = 100;

/// K-means configuration builder.
///
/// # Examples
///
/// ```
/// use udse_cluster::KMeans;
///
/// let pts = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
/// let r = KMeans::new(2).with_restarts(3).run(&pts, 7);
/// assert_eq!(r.centroids().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    k: usize,
    restarts: usize,
}

impl KMeans {
    /// Creates a K-means runner for `k` clusters with defaults of 100
    /// iterations and 8 restarts. Each restart places its centroids at K
    /// distinct points chosen uniformly at random, the placement the
    /// paper's §6.1 heuristic describes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "cluster count must be positive");
        KMeans { k, restarts: 8 }
    }

    /// Sets the number of restarts (best inertia wins).
    ///
    /// # Panics
    ///
    /// Panics if `restarts == 0`.
    #[must_use]
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        assert!(restarts > 0, "need at least one restart");
        self.restarts = restarts;
        self
    }

    /// Clusters `points`, returning the best result over all restarts.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, ragged, or has fewer points than
    /// clusters.
    pub fn run(&self, points: &[Vec<f64>], seed: u64) -> Clustering {
        assert!(!points.is_empty(), "cannot cluster an empty point set");
        let dim = points[0].len();
        assert!(points.iter().all(|p| p.len() == dim), "ragged point set");
        assert!(points.len() >= self.k, "fewer points than clusters");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best: Option<Clustering> = None;
        for _ in 0..self.restarts {
            let c = self.run_once(points, &mut rng);
            if best.as_ref().is_none_or(|b| c.inertia < b.inertia) {
                best = Some(c);
            }
        }
        best.expect("at least one restart")
    }

    fn run_once(&self, points: &[Vec<f64>], rng: &mut StdRng) -> Clustering {
        let mut centroids = self.init_centroids(points, rng);
        let mut assignments = vec![usize::MAX; points.len()];
        let mut iterations = 0;
        for iter in 0..MAX_ITER {
            iterations = iter + 1;
            // Assignment step.
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let nearest = nearest_centroid(p, &centroids);
                if assignments[i] != nearest {
                    assignments[i] = nearest;
                    changed = true;
                }
            }
            if !changed && iter > 0 {
                break;
            }
            // Update step: mean of members; empty clusters are reseeded at
            // the point farthest from its centroid.
            let dim = points[0].len();
            let mut sums = vec![vec![0.0; dim]; self.k];
            let mut counts = vec![0usize; self.k];
            for (p, &a) in points.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, &v) in sums[a].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for c in 0..self.k {
                if counts[c] == 0 {
                    let (far_idx, _) = points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i, sq_distance(p, &centroids[assignments[i]])))
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                        .expect("non-empty points");
                    centroids[c] = points[far_idx].clone();
                } else {
                    for (d, s) in sums[c].iter().enumerate() {
                        centroids[c][d] = s / counts[c] as f64;
                    }
                }
            }
        }
        let inertia =
            points.iter().zip(&assignments).map(|(p, &a)| sq_distance(p, &centroids[a])).sum();
        Clustering { assignments, centroids, inertia, iterations }
    }

    fn init_centroids(&self, points: &[Vec<f64>], rng: &mut StdRng) -> Vec<Vec<f64>> {
        let mut idx: Vec<usize> = (0..points.len()).collect();
        idx.shuffle(rng);
        idx[..self.k].iter().map(|&i| points[i].clone()).collect()
    }
}

/// The result of a K-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    assignments: Vec<usize>,
    centroids: Vec<Vec<f64>>,
    inertia: f64,
    iterations: usize,
}

impl Clustering {
    /// Cluster index of each input point.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Final centroid positions.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Sum of squared distances of points to their centroids.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Iterations until convergence in the winning restart.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Indices of the points in cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments.iter().enumerate().filter_map(|(i, &a)| (a == c).then_some(i)).collect()
    }
}

fn nearest_centroid(p: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_distance(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 1.0]);
            pts.push(vec![5.0 + 0.01 * i as f64, -1.0]);
        }
        pts
    }

    #[test]
    fn separates_obvious_blobs() {
        let r = KMeans::new(2).run(&two_blobs(), 11);
        let a0 = r.assignments()[0];
        for i in 0..10 {
            assert_eq!(r.assignments()[2 * i], a0);
            assert_ne!(r.assignments()[2 * i + 1], a0);
        }
    }

    #[test]
    fn centroids_are_cluster_means() {
        let r = KMeans::new(2).run(&two_blobs(), 3);
        for c in 0..2 {
            let members = r.members(c);
            let pts = two_blobs();
            let mean_x: f64 =
                members.iter().map(|&i| pts[i][0]).sum::<f64>() / members.len() as f64;
            assert!((r.centroids()[c][0] - mean_x).abs() < 1e-9);
        }
    }

    #[test]
    fn assignment_optimality_at_convergence() {
        let pts = two_blobs();
        let r = KMeans::new(2).run(&pts, 5);
        for (i, p) in pts.iter().enumerate() {
            let assigned = r.assignments()[i];
            for (c, centroid) in r.centroids().iter().enumerate() {
                let d_assigned = sq_distance(p, &r.centroids()[assigned]);
                let d_other = sq_distance(p, centroid);
                assert!(d_assigned <= d_other + 1e-9, "point {i} misassigned vs {c}");
            }
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![1.0], vec![2.0], vec![3.0]];
        let r = KMeans::new(3).run(&pts, 1);
        assert!(r.inertia() < 1e-12);
        let mut assigned: Vec<usize> = r.assignments().to_vec();
        assigned.sort_unstable();
        assigned.dedup();
        assert_eq!(assigned.len(), 3);
    }

    #[test]
    fn k_one_centroid_is_global_mean() {
        let pts = vec![vec![0.0], vec![2.0], vec![10.0]];
        let r = KMeans::new(1).run(&pts, 1);
        assert!((r.centroids()[0][0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn more_clusters_never_increase_inertia() {
        let pts = two_blobs();
        let mut last = f64::INFINITY;
        for k in 1..=5 {
            let r = KMeans::new(k).with_restarts(16).run(&pts, 77);
            assert!(r.inertia() <= last + 1e-9, "k={k}");
            last = r.inertia();
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let pts = two_blobs();
        let a = KMeans::new(3).run(&pts, 42);
        let b = KMeans::new(3).run(&pts, 42);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "fewer points than clusters")]
    fn k_above_n_panics() {
        let _ = KMeans::new(5).run(&[vec![1.0]], 0);
    }
}
