//! Heuristic optimization over the design space (paper §8: "for larger
//! design spaces, we may apply the models in heuristic search instead of
//! exhaustive prediction").
//!
//! Because the regression models evaluate in microseconds, exhaustive
//! prediction is tractable for the paper's 262,500-point space; these
//! heuristics matter when the space grows combinatorially (more
//! parameters, finer resolutions) or when the objective is the simulator
//! itself (as in Eyerman et al. \[6], which the paper contrasts against).
//! Four searchers are provided:
//!
//! - [`hill_climb`]: steepest-ascent over the 7-dimensional index grid;
//! - [`random_restart_hill_climb`]: the standard multistart wrapper;
//! - [`simulated_annealing`]: escapes local optima via temperature-decayed
//!   uphill moves;
//! - [`genetic_search`]: the population-based heuristic the paper
//!   contrasts against (Eyerman et al. \[6] found genetic search among the
//!   most effective simulator-driven heuristics). Its population,
//!   generation count, tournament size, mutation rate and elitism are
//!   fixed; the §8 study and its tests run one configuration.
//!
//! All of them report the number of objective evaluations so the cost can
//! be compared against exhaustive prediction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::space::{DesignPoint, DesignSpace};

/// Records a finished search in the global registry and debug log so
/// heuristic cost is visible next to exhaustive-sweep cost in manifests.
fn record_search(kind: &str, result: &SearchResult) {
    udse_obs::metrics::counter("search.evaluations").add(result.evaluations);
    udse_obs::debug!(
        "search",
        "{kind}: best {:.4} after {} evaluations",
        result.best_value,
        result.evaluations
    );
}

/// Outcome of a heuristic search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The best design found.
    pub best: DesignPoint,
    /// Objective value at the best design.
    pub best_value: f64,
    /// Total objective evaluations spent.
    pub evaluations: u64,
}

/// All axis-neighbours of a point: each of the seven group indices moved
/// by ±1 (clipped at the group bounds).
pub fn neighbors(space: &DesignSpace, p: &DesignPoint) -> Vec<DesignPoint> {
    let idx = space.indices(p);
    let dims = space.dimensions();
    let mut out = Vec::with_capacity(14);
    for d in 0..7 {
        if idx[d] > 0 {
            let mut n = idx;
            n[d] -= 1;
            out.push(space.point(n).expect("in-range neighbour"));
        }
        if idx[d] + 1 < dims[d] {
            let mut n = idx;
            n[d] += 1;
            out.push(space.point(n).expect("in-range neighbour"));
        }
    }
    out
}

/// Steepest-ascent hill climbing from `start`: repeatedly moves to the
/// best neighbour until no neighbour improves the objective.
pub fn hill_climb<F>(space: &DesignSpace, start: DesignPoint, mut objective: F) -> SearchResult
where
    F: FnMut(&DesignPoint) -> f64,
{
    let mut current = start;
    let mut current_value = objective(&current);
    let mut evaluations = 1u64;
    loop {
        let mut best_step: Option<(DesignPoint, f64)> = None;
        for n in neighbors(space, &current) {
            let v = objective(&n);
            evaluations += 1;
            if v > current_value && best_step.as_ref().is_none_or(|(_, bv)| v > *bv) {
                best_step = Some((n, v));
            }
        }
        match best_step {
            Some((p, v)) => {
                current = p;
                current_value = v;
            }
            None => {
                let result = SearchResult { best: current, best_value: current_value, evaluations };
                record_search("hill_climb", &result);
                return result;
            }
        }
    }
}

/// Hill climbing from `restarts` uniform-random starting points, keeping
/// the best local optimum.
///
/// # Panics
///
/// Panics if `restarts` is zero.
pub fn random_restart_hill_climb<F>(
    space: &DesignSpace,
    restarts: usize,
    seed: u64,
    mut objective: F,
) -> SearchResult
where
    F: FnMut(&DesignPoint) -> f64,
{
    assert!(restarts > 0, "need at least one restart");
    let starts = space.sample_uar(restarts, seed);
    let mut best: Option<SearchResult> = None;
    let mut total_evals = 0u64;
    for start in starts {
        let r = hill_climb(space, start, &mut objective);
        total_evals += r.evaluations;
        if best.as_ref().is_none_or(|b| r.best_value > b.best_value) {
            best = Some(r);
        }
    }
    let mut result = best.expect("at least one restart ran");
    result.evaluations = total_evals;
    result
}

/// Simulated annealing: random single-axis moves, always accepting
/// improvements and accepting regressions with probability
/// `exp(delta / T)` under a geometrically cooling temperature.
///
/// `initial_temp` should be on the scale of typical objective
/// differences; `iterations` bounds the evaluation budget.
///
/// # Panics
///
/// Panics if `iterations` is zero or `initial_temp` is not positive.
pub fn simulated_annealing<F>(
    space: &DesignSpace,
    iterations: u64,
    initial_temp: f64,
    seed: u64,
    mut objective: F,
) -> SearchResult
where
    F: FnMut(&DesignPoint) -> f64,
{
    assert!(iterations > 0, "need a positive iteration budget");
    assert!(initial_temp > 0.0, "initial temperature must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = space.sample_uar(1, seed ^ 0x5A)[0];
    let mut current_value = objective(&current);
    let mut best = current;
    let mut best_value = current_value;
    let mut evaluations = 1u64;
    let dims = space.dimensions();
    let cooling = (1e-3f64).powf(1.0 / iterations as f64);
    let mut temp = initial_temp;
    for _ in 0..iterations {
        // Propose a random single-axis move.
        let d = rng.gen_range(0..7usize);
        let mut idx = space.indices(&current);
        let up = rng.gen_bool(0.5);
        if up && idx[d] + 1 < dims[d] {
            idx[d] += 1;
        } else if !up && idx[d] > 0 {
            idx[d] -= 1;
        } else {
            temp *= cooling;
            continue;
        }
        let candidate = space.point(idx).expect("in-range proposal");
        let v = objective(&candidate);
        evaluations += 1;
        let delta = v - current_value;
        if delta >= 0.0 || rng.gen::<f64>() < (delta / temp).exp() {
            current = candidate;
            current_value = v;
            if v > best_value {
                best = candidate;
                best_value = v;
            }
        }
        temp *= cooling;
    }
    let result = SearchResult { best, best_value, evaluations };
    record_search("simulated_annealing", &result);
    result
}

/// Individuals per generation of [`genetic_search`].
const GA_POPULATION: usize = 40;
/// Generations [`genetic_search`] evolves.
const GA_GENERATIONS: usize = 30;
/// Tournament size for parent selection.
const GA_TOURNAMENT: usize = 3;
/// Per-dimension mutation probability.
const GA_MUTATION_RATE: f64 = 0.15;
/// Individuals copied unchanged into the next generation.
const GA_ELITISM: usize = 2;

/// Genetic search over the design grid: tournament selection, uniform
/// per-dimension crossover, and ±1-step mutation. A population of 40
/// evolves for 30 generations (1,180 evaluations in all) with
/// tournaments of 3, a 15 % per-dimension mutation rate and the best 2
/// carried over unchanged.
pub fn genetic_search<F>(space: &DesignSpace, seed: u64, mut objective: F) -> SearchResult
where
    F: FnMut(&DesignPoint) -> f64,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = space.dimensions();
    let mut evaluations = 0u64;
    let mut score = |p: &DesignPoint, evals: &mut u64| {
        *evals += 1;
        objective(p)
    };
    // Initial population.
    let mut pop: Vec<(DesignPoint, f64)> = space
        .sample_uar(GA_POPULATION, seed ^ 0x6E6E)
        .into_iter()
        .map(|p| {
            let v = score(&p, &mut evaluations);
            (p, v)
        })
        .collect();
    let mut best =
        pop.iter().cloned().max_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty population");

    for _ in 0..GA_GENERATIONS {
        pop.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut next: Vec<(DesignPoint, f64)> = pop[..GA_ELITISM].to_vec();
        while next.len() < GA_POPULATION {
            // Tournament selection of two parents.
            let pick = |rng: &mut StdRng, pop: &[(DesignPoint, f64)]| {
                (0..GA_TOURNAMENT)
                    .map(|_| &pop[rng.gen_range(0..pop.len())])
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("tournament non-empty")
                    .0
            };
            let pa = space.indices(&pick(&mut rng, &pop));
            let pb = space.indices(&pick(&mut rng, &pop));
            // Uniform crossover + mutation.
            let mut child = [0u8; 7];
            for d in 0..7 {
                child[d] = if rng.gen_bool(0.5) { pa[d] } else { pb[d] };
                if rng.gen::<f64>() < GA_MUTATION_RATE {
                    let up = rng.gen_bool(0.5);
                    if up && child[d] + 1 < dims[d] {
                        child[d] += 1;
                    } else if !up && child[d] > 0 {
                        child[d] -= 1;
                    }
                }
            }
            let p = space.point(child).expect("crossover stays in range");
            let v = score(&p, &mut evaluations);
            if v > best.1 {
                best = (p, v);
            }
            next.push((p, v));
        }
        pop = next;
    }
    let result = SearchResult { best: best.0, best_value: best.1, evaluations };
    record_search("genetic_search", &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smooth unimodal objective peaking at a known interior point.
    fn objective(p: &DesignPoint) -> f64 {
        let v = p.predictors();
        let peak = [21.0, 4.0, 90.0, 20.0, 6.0, 5.0, 11.0];
        let scale = [9.0, 3.0, 45.0, 9.0, 2.0, 2.0, 2.0];
        -v.iter()
            .zip(peak.iter().zip(&scale))
            .map(|(x, (c, s))| ((x - c) / s) * ((x - c) / s))
            .sum::<f64>()
    }

    fn exhaustive_max(space: &DesignSpace) -> f64 {
        space.iter().map(|p| objective(&p)).fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn neighbors_are_valid_and_adjacent() {
        let space = DesignSpace::exploration();
        let p = space.decode(123_456).unwrap();
        let ns = neighbors(&space, &p);
        assert!(!ns.is_empty() && ns.len() <= 14);
        for n in &ns {
            let a = space.indices(&p);
            let b = space.indices(n);
            let diff: u32 =
                a.iter().zip(&b).map(|(x, y)| (*x as i32 - *y as i32).unsigned_abs()).sum();
            assert_eq!(diff, 1, "neighbour differs in exactly one step");
            assert!(space.encode(n).is_some());
        }
    }

    #[test]
    fn corner_point_has_only_seven_neighbors() {
        let space = DesignSpace::exploration();
        let corner = space.point([0, 0, 0, 0, 0, 0, 0]).unwrap();
        assert_eq!(neighbors(&space, &corner).len(), 7);
    }

    #[test]
    fn hill_climb_finds_unimodal_peak() {
        let space = DesignSpace::exploration();
        let start = space.decode(0).unwrap();
        let r = hill_climb(&space, start, objective);
        let truth = exhaustive_max(&space);
        assert!((r.best_value - truth).abs() < 1e-9, "{} vs {truth}", r.best_value);
        // Orders of magnitude cheaper than 262,500 evaluations.
        assert!(r.evaluations < 2_000, "spent {} evaluations", r.evaluations);
    }

    #[test]
    fn restarts_never_hurt() {
        let space = DesignSpace::exploration();
        let one = random_restart_hill_climb(&space, 1, 3, objective);
        let many = random_restart_hill_climb(&space, 8, 3, objective);
        assert!(many.best_value >= one.best_value - 1e-12);
        assert!(many.evaluations > one.evaluations);
    }

    #[test]
    fn annealing_approaches_the_peak() {
        let space = DesignSpace::exploration();
        let r = simulated_annealing(&space, 20_000, 2.0, 7, objective);
        let truth = exhaustive_max(&space);
        assert!(r.best_value > truth - 0.5, "annealing {} vs truth {truth}", r.best_value);
    }

    #[test]
    fn genetic_search_approaches_the_peak() {
        let space = DesignSpace::exploration();
        let r = genetic_search(&space, 5, objective);
        let truth = exhaustive_max(&space);
        assert!(r.best_value > truth - 0.5, "genetic {} vs truth {truth}", r.best_value);
        assert!(r.evaluations < 5_000);
    }

    #[test]
    fn genetic_search_deterministic_per_seed() {
        let space = DesignSpace::exploration();
        let a = genetic_search(&space, 9, objective);
        let b = genetic_search(&space, 9, objective);
        assert_eq!(a, b);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let space = DesignSpace::exploration();
        let a = random_restart_hill_climb(&space, 4, 11, objective);
        let b = random_restart_hill_climb(&space, 4, 11, objective);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one restart")]
    fn zero_restarts_panics() {
        let space = DesignSpace::exploration();
        let _ = random_restart_hill_climb(&space, 0, 1, objective);
    }
}
