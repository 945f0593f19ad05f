//! Heuristic-search integration: the searchers against real trained
//! models (not just synthetic unimodal objectives).

use udse::core::model::PaperModels;
use udse::core::oracle::SimOracle;
use udse::core::search::{genetic_search, random_restart_hill_climb, simulated_annealing};
use udse::core::space::DesignSpace;
use udse::core::studies::strided_points;
use udse::trace::Benchmark;

fn trained_models(b: Benchmark) -> PaperModels {
    let oracle = SimOracle::with_trace_len(8_000);
    let samples = DesignSpace::paper().sample_uar(200, 31);
    PaperModels::train(&oracle, b, &samples).unwrap()
}

#[test]
fn all_searchers_approach_the_strided_reference() {
    let models = trained_models(Benchmark::Twolf);
    let space = DesignSpace::exploration();
    let objective = |p: &udse::core::space::DesignPoint| models.predict_efficiency(p);
    // Reference: a dense strided scan (1/20th of the space, all dims
    // covered by the coprime walk).
    let reference =
        strided_points(&space, 20).map(|p| objective(&p)).fold(f64::NEG_INFINITY, f64::max);

    let hc = random_restart_hill_climb(&space, 16, 5, objective);
    let sa = simulated_annealing(&space, 25_000, reference.abs() * 0.2, 5, objective);
    let ga = genetic_search(&space, 5, objective);

    for (name, r) in [("hillclimb", hc), ("anneal", sa), ("genetic", ga)] {
        assert!(
            r.best_value >= reference * 0.97,
            "{name} reached {:.5} vs reference {reference:.5}",
            r.best_value
        );
        assert!(r.evaluations < 40_000, "{name} overspent: {} evaluations", r.evaluations);
    }
}

#[test]
fn hill_climb_on_real_surface_beats_its_starts() {
    let models = trained_models(Benchmark::Jbb);
    let space = DesignSpace::exploration();
    let objective = |p: &udse::core::space::DesignPoint| models.predict_efficiency(p);
    for seed in [1u64, 2, 3] {
        let start = space.sample_uar(1, seed)[0];
        let start_value = objective(&start);
        let r = udse::core::search::hill_climb(&space, start, objective);
        assert!(r.best_value >= start_value, "climbing must not lose ground");
    }
}

#[test]
fn searchers_find_known_structure() {
    // On mcf's surface the found optimum should carry mcf's signature:
    // narrow-to-mid width and a large L2. The traces must be long enough
    // for mcf's multi-megabyte working set to register (short traces
    // flatten the L2 response; see end_to_end.rs).
    let oracle = SimOracle::with_trace_len(150_000);
    let samples = DesignSpace::paper().sample_uar(250, 31);
    let models = PaperModels::train(&oracle, Benchmark::Mcf, &samples).unwrap();
    let space = DesignSpace::exploration();
    let r = random_restart_hill_climb(&space, 24, 7, |p| models.predict_efficiency(p));
    assert!(r.best.l2_kb() >= 1024, "mcf optimum should want L2 >= 1 MB, got {}", r.best.l2_kb());
    assert!(r.best.decode_width() <= 4, "mcf optimum should be narrow-to-mid width");
}
