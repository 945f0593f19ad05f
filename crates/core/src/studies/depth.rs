//! Pipeline depth analysis (paper §5, Figures 5–7).
//!
//! Contrasts two methodologies:
//!
//! - **Original analysis**: sweep depth on the Table 3 baseline with all
//!   other parameters fixed (how prior depth studies were run).
//! - **Enhanced analysis**: let all other parameters vary — the boxplots
//!   of efficiency over all 37,500 designs at each depth that only a
//!   regression model makes affordable.
//!
//! All efficiencies are reported relative to the *original `bips³/w`
//! optimum*: for each benchmark the best baseline-sweep efficiency, with
//! suite results averaged over the per-benchmark ratios.

use std::collections::HashMap;

use udse_stats::{quantile, Boxplot, Histogram};
use udse_trace::Benchmark;

use crate::baseline::baseline_at_depth;
use crate::oracle::{Metrics, Oracle};
use crate::query::{Axis, Constraint, Engine, Query};
use crate::space::{DesignPoint, DesignSpace};

/// The Figure 5 artifact.
#[derive(Debug, Clone)]
pub struct DepthStudy {
    /// The depths analyzed (12–30 FO4).
    pub depths: Vec<u32>,
    /// Baseline design at each depth (the original analysis points).
    pub original_points: Vec<DesignPoint>,
    /// Suite-average relative efficiency of the original analysis at each
    /// depth (the line plot of Fig 5a).
    pub original_relative: Vec<f64>,
    /// Distribution of suite-average relative efficiency over all designs
    /// at each depth (the boxplots of Fig 5a).
    pub enhanced_boxplots: Vec<Boxplot>,
    /// The most efficient ("bound") design found at each depth.
    pub bound_points: Vec<DesignPoint>,
    /// Bound efficiency at each depth relative to the best bound across
    /// depths (the numbers above Fig 5a's boxplots).
    pub bound_relative: Vec<f64>,
    /// Fraction of designs at each depth predicted more efficient than
    /// the original optimum (the boxplot-line intersections of §5.1).
    pub fraction_above_original: Vec<f64>,
    /// D-L1 size distribution among the designs in the 95th percentile of
    /// each depth's efficiency distribution (Fig 5b).
    pub dcache_top_percentile: Vec<Histogram>,
}

impl DepthStudy {
    /// Runs the §5.1 analysis against the query engine: the efficiency
    /// distributions come from the engine's memoized full-space sweep and
    /// the per-depth bound architectures from depth-constrained
    /// suite-relative optimum queries.
    pub fn run(engine: &Engine) -> Self {
        let _span = udse_obs::span::enter("depth_study");
        let space = DesignSpace::exploration();
        let depths: Vec<u32> = space.depths().to_vec();
        let original_points: Vec<DesignPoint> =
            depths.iter().map(|&d| baseline_at_depth(d)).collect();

        // Per-benchmark reference: best predicted baseline efficiency,
        // from the compiled lanes (the flavor the fused sweep uses).
        let lanes = engine.lanes();
        let original_metrics: Vec<Vec<Metrics>> = original_points
            .iter()
            .map(|p| {
                let mut out = vec![Metrics { bips: 0.0, watts: 0.0 }; lanes.pairs()];
                lanes.predict_metrics_into(&space.indices(p).map(usize::from), &mut out);
                out
            })
            .collect();
        let refs: Vec<f64> = (0..Benchmark::ALL.len())
            .map(|b| {
                original_metrics
                    .iter()
                    .map(|m| m[b].bips_cubed_per_watt())
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let rel = |m: &Vec<Metrics>| -> f64 {
            m.iter().zip(&refs).map(|(m, &r)| m.bips_cubed_per_watt() / r).sum::<f64>() / 9.0
        };

        let original_relative: Vec<f64> = original_metrics.iter().map(rel).collect();

        let mut enhanced_boxplots = Vec::with_capacity(depths.len());
        let mut bound_points = Vec::with_capacity(depths.len());
        let mut bound_raw = Vec::with_capacity(depths.len());
        let mut fraction_above_original = Vec::with_capacity(depths.len());
        let mut dcache_top_percentile = Vec::with_capacity(depths.len());
        let original_optimum = original_relative.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));

        // Bucket the engine's memoized sweep by depth. The sweep
        // materializes in walk order, so every bucket's contents match
        // the old single-pass chunk-merged walk exactly; the suite ratio
        // per design is the same stacked-lane expression the engine's
        // suite-relative argmax evaluates.
        let sweep = engine.full_sweep();
        let visited = sweep[0].len();
        let mut effs_by_depth: Vec<Vec<f64>> = vec![Vec::new(); depths.len()];
        let mut pts_by_depth: Vec<Vec<DesignPoint>> = vec![Vec::new(); depths.len()];
        for i in 0..visited {
            let p = sweep[0][i].point;
            let rel_i = sweep
                .iter()
                .zip(&refs)
                .map(|(d, &r)| d[i].predicted.bips_cubed_per_watt() / r)
                .sum::<f64>()
                / 9.0;
            let di = p.depth_idx as usize;
            effs_by_depth[di].push(rel_i);
            pts_by_depth[di].push(p);
        }

        for (di, &depth) in depths.iter().enumerate() {
            let effs = &effs_by_depth[di];
            let pts = &pts_by_depth[di];
            assert!(!effs.is_empty(), "stride too large: no designs at depth index {di}");
            enhanced_boxplots.push(Boxplot::from_samples(effs));
            // The bound architecture at this depth: a depth-constrained
            // suite-relative optimum query. The engine's walk applies the
            // same last-maximal-wins tie-break over the same walk order,
            // so point and score match the in-bucket argmax bitwise.
            let bound = engine
                .execute(&Query::suite_optimum(
                    refs.clone(),
                    vec![Constraint::exactly(Axis::DepthFo4, depth as f64)],
                    engine.stride(),
                ))
                .expect("per-depth bound query cannot fail");
            let entry = bound.optima().expect("optimum query yields optima")[0].clone();
            bound_points.push(entry.point);
            bound_raw.push(entry.score);
            let above = effs.iter().filter(|&&e| e > original_optimum).count();
            fraction_above_original.push(above as f64 / effs.len() as f64);
            // Fig 5b: D-L1 sizes among the 95th-percentile designs.
            let p95 = quantile(effs, 0.95);
            let hist: Histogram = pts
                .iter()
                .zip(effs)
                .filter(|(_, &e)| e >= p95)
                .map(|(p, _)| p.dl1_kb() as u64)
                .collect();
            dcache_top_percentile.push(hist);
        }

        let best_bound = bound_raw.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let bound_relative = bound_raw.iter().map(|&v| v / best_bound).collect();

        DepthStudy {
            depths,
            original_points,
            original_relative,
            enhanced_boxplots,
            bound_points,
            bound_relative,
            fraction_above_original,
            dcache_top_percentile,
        }
    }

    /// The depth (FO4) with the best original-analysis efficiency.
    pub fn optimal_original_depth(&self) -> u32 {
        let (i, _) = self
            .original_relative
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty depth list");
        self.depths[i]
    }

    /// The depth (FO4) whose bound architecture is most efficient.
    pub fn optimal_bound_depth(&self) -> u32 {
        let (i, _) = self
            .bound_relative
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty depth list");
        self.depths[i]
    }
}

/// The Figures 6 and 7 artifact: predicted vs simulated curves for both
/// analyses, suite-averaged, relative to each source's own original
/// optimum.
#[derive(Debug, Clone)]
pub struct DepthValidation {
    /// Depths analyzed.
    pub depths: Vec<u32>,
    /// Predicted relative efficiency, original analysis (from the study).
    pub original_predicted: Vec<f64>,
    /// Simulated relative efficiency, original analysis.
    pub original_simulated: Vec<f64>,
    /// Predicted relative efficiency of the bound architectures.
    pub enhanced_predicted: Vec<f64>,
    /// Simulated relative efficiency of the bound architectures.
    pub enhanced_simulated: Vec<f64>,
    /// Suite-average predicted bips, original points (Fig 7a).
    pub original_predicted_bips: Vec<f64>,
    /// Suite-average simulated bips, original points.
    pub original_simulated_bips: Vec<f64>,
    /// Suite-average predicted bips, bound points.
    pub enhanced_predicted_bips: Vec<f64>,
    /// Suite-average simulated bips, bound points.
    pub enhanced_simulated_bips: Vec<f64>,
    /// Suite-average predicted watts, original points (Fig 7b).
    pub original_predicted_watts: Vec<f64>,
    /// Suite-average simulated watts, original points.
    pub original_simulated_watts: Vec<f64>,
    /// Suite-average predicted watts, bound points.
    pub enhanced_predicted_watts: Vec<f64>,
    /// Suite-average simulated watts, bound points.
    pub enhanced_simulated_watts: Vec<f64>,
}

impl DepthValidation {
    /// Simulates the original and bound designs at every depth and
    /// assembles the comparison curves. All simulations run as one
    /// parallel [`Oracle::evaluate_many`] batch up front; the curves are
    /// assembled from the resulting lookup table, with every model
    /// prediction served by a [`Query::Point`] execution.
    pub fn run<O: Oracle + ?Sized>(oracle: &O, engine: &Engine, study: &DepthStudy) -> Self {
        let _span = udse_obs::span::enter("depth_validation");
        // Distinct designs this validation needs: the baseline sweep plus
        // the per-depth bound architectures.
        let mut wanted: Vec<DesignPoint> = study.original_points.clone();
        for p in &study.bound_points {
            if !wanted.contains(p) {
                wanted.push(*p);
            }
        }
        let plan = crate::plan::EvalPlan::cross_suite("depth.validation", &wanted);
        let simulated: HashMap<(Benchmark, DesignPoint), crate::oracle::Metrics> =
            plan.jobs().iter().copied().zip(oracle.evaluate_plan(&plan)).collect();
        let sim = |b: Benchmark, p: &DesignPoint| simulated[&(b, *p)];
        // Point queries use the uncompiled models — bitwise-identical to
        // `suite.models(b).predict_metrics(p)`.
        let predict = |b: Benchmark, p: &DesignPoint| {
            engine
                .execute(&Query::point(b, *p))
                .expect("point queries cannot fail")
                .point_metrics()
                .expect("point query yields metrics")
        };

        let suite_metrics = |points: &[DesignPoint], simulate: bool| {
            // Returns per-depth (eff_rel, bips_avg, watts_avg) using either
            // the oracle or the models.
            let per_bench: Vec<Vec<crate::oracle::Metrics>> = Benchmark::ALL
                .iter()
                .map(|&b| {
                    points
                        .iter()
                        .map(|p| if simulate { sim(b, p) } else { predict(b, p) })
                        .collect()
                })
                .collect();
            (0..points.len())
                .map(|i| {
                    let bips = per_bench.iter().map(|v| v[i].bips).sum::<f64>() / 9.0;
                    let watts = per_bench.iter().map(|v| v[i].watts).sum::<f64>() / 9.0;
                    (bips, watts)
                })
                .collect::<Vec<(f64, f64)>>()
        };
        // Relative efficiency per source: per-benchmark refs from that
        // source's own baseline sweep maxima.
        let rel_curve = |points: &[DesignPoint], originals: &[DesignPoint], simulate: bool| {
            let per_bench_eff = |p: &DesignPoint, b: Benchmark| {
                if simulate {
                    sim(b, p).bips_cubed_per_watt()
                } else {
                    predict(b, p).bips_cubed_per_watt()
                }
            };
            let refs: Vec<f64> = Benchmark::ALL
                .iter()
                .map(|&b| {
                    originals.iter().map(|p| per_bench_eff(p, b)).fold(f64::NEG_INFINITY, f64::max)
                })
                .collect();
            points
                .iter()
                .map(|p| {
                    Benchmark::ALL
                        .iter()
                        .zip(&refs)
                        .map(|(&b, &r)| per_bench_eff(p, b) / r)
                        .sum::<f64>()
                        / 9.0
                })
                .collect::<Vec<f64>>()
        };

        let orig = &study.original_points;
        let bound = &study.bound_points;
        let (orig_pred_bw, orig_sim_bw) = (suite_metrics(orig, false), suite_metrics(orig, true));
        let (bnd_pred_bw, bnd_sim_bw) = (suite_metrics(bound, false), suite_metrics(bound, true));

        let val = DepthValidation {
            depths: study.depths.clone(),
            original_predicted: rel_curve(orig, orig, false),
            original_simulated: rel_curve(orig, orig, true),
            enhanced_predicted: rel_curve(bound, orig, false),
            enhanced_simulated: rel_curve(bound, orig, true),
            original_predicted_bips: orig_pred_bw.iter().map(|x| x.0).collect(),
            original_simulated_bips: orig_sim_bw.iter().map(|x| x.0).collect(),
            enhanced_predicted_bips: bnd_pred_bw.iter().map(|x| x.0).collect(),
            enhanced_simulated_bips: bnd_sim_bw.iter().map(|x| x.0).collect(),
            original_predicted_watts: orig_pred_bw.iter().map(|x| x.1).collect(),
            original_simulated_watts: orig_sim_bw.iter().map(|x| x.1).collect(),
            enhanced_predicted_watts: bnd_pred_bw.iter().map(|x| x.1).collect(),
            enhanced_simulated_watts: bnd_sim_bw.iter().map(|x| x.1).collect(),
        };
        val.record_quality();
        val
    }

    /// Records the prediction-vs-simulation error of every Fig 6/Fig 7
    /// curve pair as `depth.*` [`udse_obs::QualityRecord`]s — the same
    /// collector validation feeds, so `udse-inspect diff` gates depth
    /// methodology drift too.
    fn record_quality(&self) {
        let curves: [(&str, &[f64], &[f64]); 6] = [
            ("depth.original.eff", &self.original_predicted, &self.original_simulated),
            ("depth.enhanced.eff", &self.enhanced_predicted, &self.enhanced_simulated),
            ("depth.original.bips", &self.original_predicted_bips, &self.original_simulated_bips),
            ("depth.enhanced.bips", &self.enhanced_predicted_bips, &self.enhanced_simulated_bips),
            (
                "depth.original.watts",
                &self.original_predicted_watts,
                &self.original_simulated_watts,
            ),
            (
                "depth.enhanced.watts",
                &self.enhanced_predicted_watts,
                &self.enhanced_simulated_watts,
            ),
        ];
        for (key, predicted, simulated) in curves {
            let signed: Vec<f64> =
                simulated.iter().zip(predicted).map(|(s, p)| (s - p) / p).collect();
            udse_obs::quality::record(udse_obs::QualityRecord::from_signed_errors(key, &signed));
        }
    }

    /// Depth with the best simulated original-analysis efficiency.
    pub fn simulated_optimal_depth(&self) -> u32 {
        let (i, _) = self
            .original_simulated
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        self.depths[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::tests::TinyOracle;
    use crate::studies::{StudyConfig, TrainedSuite};

    fn setup() -> Engine {
        let config = StudyConfig::quick();
        let suite = TrainedSuite::train(&TinyOracle, &config).unwrap();
        Engine::new(suite, &config)
    }

    #[test]
    fn study_produces_one_entry_per_depth() {
        let engine = setup();
        let study = DepthStudy::run(&engine);
        assert_eq!(study.depths, vec![12, 15, 18, 21, 24, 27, 30]);
        assert_eq!(study.enhanced_boxplots.len(), 7);
        assert_eq!(study.bound_points.len(), 7);
        assert_eq!(study.dcache_top_percentile.len(), 7);
        for (d, p) in study.depths.iter().zip(&study.original_points) {
            assert_eq!(p.fo4(), *d);
        }
    }

    #[test]
    fn bounds_dominate_originals() {
        let engine = setup();
        let study = DepthStudy::run(&engine);
        // The best design at a depth is at least as good as the baseline
        // at that depth.
        for i in 0..study.depths.len() {
            assert!(study.enhanced_boxplots[i].max >= study.original_relative[i] - 0.05);
        }
        // Relative bounds peak at exactly 1.
        let max_bound = study.bound_relative.iter().cloned().fold(f64::MIN, f64::max);
        assert!((max_bound - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_are_probabilities() {
        let engine = setup();
        let study = DepthStudy::run(&engine);
        for f in &study.fraction_above_original {
            assert!((0.0..=1.0).contains(f));
        }
    }

    #[test]
    fn validation_curves_align_with_study() {
        let engine = setup();
        let study = DepthStudy::run(&engine);
        let val = DepthValidation::run(&TinyOracle, &engine, &study);
        assert_eq!(val.depths, study.depths);
        // Predicted curves in the validation must match the study's own
        // predictions (same models, same points).
        for (a, b) in val.original_predicted.iter().zip(&study.original_relative) {
            assert!((a - b).abs() < 1e-9);
        }
        // TinyOracle is smooth, so simulated and predicted agree closely.
        for (p, s) in val.original_predicted.iter().zip(&val.original_simulated) {
            assert!((p - s).abs() < 0.1, "pred {p} vs sim {s}");
        }
        let _ = val.simulated_optimal_depth();
    }

    #[test]
    fn depth_validation_records_quality_telemetry() {
        let engine = setup();
        let study = DepthStudy::run(&engine);
        let _val = DepthValidation::run(&TinyOracle, &engine, &study);
        let quality = udse_obs::quality::global().snapshot();
        for key in [
            "depth.original.eff",
            "depth.enhanced.eff",
            "depth.original.bips",
            "depth.enhanced.bips",
            "depth.original.watts",
            "depth.enhanced.watts",
        ] {
            let rec = quality.iter().find(|r| r.key == key).expect("depth quality record");
            assert_eq!(rec.n as usize, study.depths.len());
            assert!(rec.p50 >= 0.0);
        }
    }

    #[test]
    fn optimal_depths_are_in_range() {
        let engine = setup();
        let study = DepthStudy::run(&engine);
        assert!(study.depths.contains(&study.optimal_original_depth()));
        assert!(study.depths.contains(&study.optimal_bound_depth()));
    }
}
