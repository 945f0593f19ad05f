//! The stride-1 box scan. At stride 1 the engine enumerates a query's
//! admitted level box straight out of the memoized sweep, as contiguous
//! runs along the innermost axis, instead of filtering every row. Over
//! the full exploration grid and seeded random constraint sets, every
//! scanning kind must equal a brute-force filter of `Engine::full_sweep`
//! by the constraints' physical values, bit for bit.

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udse_core::oracle::{Metrics, Oracle};
use udse_core::pareto::ParetoFrontier;
use udse_core::query::{Axis, Constraint, Engine, PredictedPoint, Query};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::pareto::PredictedDesign;
use udse_core::studies::{StudyConfig, TrainedSuite};
use udse_trace::Benchmark;

/// A smooth analytic oracle, so fits are fast and optima non-degenerate.
struct Smooth;

impl Oracle for Smooth {
    fn evaluate(&self, b: Benchmark, p: &DesignPoint) -> Metrics {
        let v = p.predictors();
        let tilt = 1.0 + 0.05 * b.id() as f64;
        Metrics {
            bips: (9.0 / v[0]) * (1.0 + 0.15 * v[1].ln()) + 0.03 * tilt * v[5] + 0.01 * v[6],
            watts: 3.0 + 50.0 / v[0] + 1.1 * v[1] + 0.4 * v[6] + 0.02 * v[4],
        }
    }
}

fn admits(constraints: &[Constraint], p: &DesignPoint) -> bool {
    constraints.iter().all(|c| {
        let v = c.axis.value(p);
        c.min.is_none_or(|m| v >= m) && c.max.is_none_or(|m| v <= m)
    })
}

fn level_value(axis: Axis, level: u8) -> f64 {
    axis.level_value(&DesignSpace::exploration(), level)
}

/// A constraint on `axis` at a random grid level: at most, at least,
/// exactly, or a two-sided range.
fn random_constraint(rng: &mut StdRng, axis: Axis) -> Constraint {
    let levels = DesignSpace::exploration().dimensions()[axis.slot()];
    let a = rng.gen_range(0..levels);
    let b = rng.gen_range(0..levels);
    match rng.gen_range(0u8..4) {
        0 => Constraint::at_most(axis, level_value(axis, a)),
        1 => Constraint::at_least(axis, level_value(axis, a)),
        2 => Constraint::exactly(axis, level_value(axis, a)),
        _ => Constraint {
            axis,
            min: Some(level_value(axis, a.min(b))),
            max: Some(level_value(axis, a.max(b))),
        },
    }
}

/// The constraint sets under test: unconstrained, `exactly` on the
/// innermost axis (runs of length one), `exactly` on the outermost axis,
/// one admitting a single design, and seeded random sets.
fn constraint_sets(rng: &mut StdRng) -> Vec<Vec<Constraint>> {
    let dims = DesignSpace::exploration().dimensions();
    let mut sets = vec![
        vec![],
        vec![Constraint::exactly(Axis::L2Kb, 1024.0)],
        vec![Constraint::exactly(Axis::DepthFo4, 24.0)],
        vec![
            Constraint::exactly(Axis::L2Kb, 512.0),
            Constraint::at_least(Axis::Width, 4.0),
            Constraint::at_most(Axis::Dl1Kb, 32.0),
        ],
        Axis::ALL
            .iter()
            .map(|&axis| {
                let level = rng.gen_range(0..dims[axis.slot()]);
                Constraint::exactly(axis, level_value(axis, level))
            })
            .collect(),
    ];
    for _ in 0..10 {
        let mut axes = Axis::ALL.to_vec();
        let n = rng.gen_range(1usize..=4);
        sets.push(
            (0..n)
                .map(|_| {
                    let axis = axes.swap_remove(rng.gen_range(0..axes.len()));
                    random_constraint(rng, axis)
                })
                .collect(),
        );
    }
    sets
}

/// The last maximal `bips^3/w` among the admitted rows, in walk order.
fn brute_optimum<'a>(
    rows: impl Iterator<Item = &'a PredictedDesign>,
) -> Option<(&'a PredictedDesign, f64)> {
    let mut best: Option<(&PredictedDesign, f64)> = None;
    for d in rows {
        let eff = d.predicted.bips_cubed_per_watt();
        if best.is_none_or(|(_, cur)| eff.total_cmp(&cur) != Ordering::Less) {
            best = Some((d, eff));
        }
    }
    best
}

fn assert_rows_eq(got: &[PredictedPoint], want: &[&PredictedDesign], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.point, w.point, "{what}: point");
        assert_eq!(g.predicted.bips.to_bits(), w.predicted.bips.to_bits(), "{what}: bips");
        assert_eq!(g.predicted.watts.to_bits(), w.predicted.watts.to_bits(), "{what}: watts");
    }
}

#[test]
fn every_scanning_kind_matches_a_brute_force_filter_of_the_full_sweep() {
    let config = StudyConfig { eval_stride: 1, ..StudyConfig::quick() };
    let suite = TrainedSuite::train(&Smooth, &config).expect("smooth fit");
    let engine = Engine::new(suite, &config);
    let sweep = engine.full_sweep();
    assert_eq!(sweep[0].len() as u64, DesignSpace::exploration().len(), "stride-1 grid");

    let mut rng = StdRng::seed_from_u64(2007);
    for constraints in constraint_sets(&mut rng) {
        let admitted: Vec<usize> =
            (0..sweep[0].len()).filter(|&i| admits(&constraints, &sweep[0][i].point)).collect();
        assert!(!admitted.is_empty(), "every set admits a design: {constraints:?}");
        if constraints.len() == Axis::ALL.len() {
            assert_eq!(admitted.len(), 1, "an exact level on every axis admits one design");
        }
        let rows = |b: Benchmark| {
            let row = &sweep[b.id() as usize];
            admitted.iter().map(move |&i| &row[i])
        };

        // All-nine efficiency optimum.
        let all = engine.execute(&Query::optimum(None, constraints.clone(), 1)).expect("optima");
        let entries = all.optima().expect("optima entries");
        assert_eq!(entries.len(), 9);
        for (b, entry) in Benchmark::ALL.iter().zip(entries) {
            let (want, eff) = brute_optimum(rows(*b)).expect("admitted rows");
            assert_eq!(entry.point, want.point, "{} optimum under {constraints:?}", b.name());
            assert_eq!(entry.score.to_bits(), eff.to_bits());
            let got = entry.predicted.expect("per-benchmark optima carry metrics");
            assert_eq!(got.bips.to_bits(), want.predicted.bips.to_bits());
            assert_eq!(got.watts.to_bits(), want.predicted.watts.to_bits());
        }

        // One benchmark's efficiency optimum.
        let b = Benchmark::ALL[rng.gen_range(0usize..9)];
        let one =
            engine.execute(&Query::optimum(Some(b), constraints.clone(), 1)).expect("optimum");
        let entry = &one.optima().expect("optima entries")[0];
        let (want, eff) = brute_optimum(rows(b)).expect("admitted rows");
        assert_eq!(entry.benchmark, Some(b));
        assert_eq!(entry.point, want.point);
        assert_eq!(entry.score.to_bits(), eff.to_bits());

        // Suite-relative optimum.
        let refs: Vec<f64> = (0..9).map(|_| rng.gen_range(0.5..2.0)).collect();
        let suite_opt = engine
            .execute(&Query::suite_optimum(refs.clone(), constraints.clone(), 1))
            .expect("suite optimum");
        let entry = &suite_opt.optima().expect("optima entries")[0];
        let mut best: Option<(DesignPoint, f64)> = None;
        for &i in &admitted {
            let score = sweep
                .iter()
                .zip(&refs)
                .map(|(row, &r)| row[i].predicted.bips_cubed_per_watt() / r)
                .sum::<f64>()
                / 9.0;
            if best.is_none_or(|(_, cur)| score.total_cmp(&cur) != Ordering::Less) {
                best = Some((sweep[0][i].point, score));
            }
        }
        let (point, score) = best.expect("admitted rows");
        assert_eq!(entry.point, point, "suite-relative optimum under {constraints:?}");
        assert_eq!(entry.score.to_bits(), score.to_bits());

        // Pareto slice: the same `from_points` order over the admitted rows.
        let b = Benchmark::ALL[rng.gen_range(0usize..9)];
        let bins = rng.gen_range(1usize..80);
        let frontier =
            engine.execute(&Query::pareto(b, constraints.clone(), 1, bins)).expect("pareto slice");
        let candidates: Vec<&PredictedDesign> = rows(b).collect();
        let pts: Vec<(f64, f64)> =
            candidates.iter().map(|d| (d.predicted.delay_seconds(), d.predicted.watts)).collect();
        let want: Vec<&PredictedDesign> = ParetoFrontier::from_points(&pts, bins)
            .indices()
            .iter()
            .map(|&j| candidates[j])
            .collect();
        assert_rows_eq(frontier.frontier().expect("frontier rows"), &want, "pareto");

        // Top-k against a stable descending sort; k sometimes exceeds
        // the admitted count.
        let b = Benchmark::ALL[rng.gen_range(0usize..9)];
        let k = rng.gen_range(1usize..40);
        let ranking =
            engine.execute(&Query::top_k(b, constraints.clone(), 1, k)).expect("top-k ranking");
        let mut want: Vec<&PredictedDesign> = rows(b).collect();
        want.sort_by(|x, y| {
            y.predicted.bips_cubed_per_watt().total_cmp(&x.predicted.bips_cubed_per_watt())
        });
        want.truncate(k);
        assert_rows_eq(ranking.ranking().expect("ranking rows"), &want, "top-k");
    }
}
