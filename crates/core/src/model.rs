//! The paper-standard performance and power regression models (§3).

use std::ops::Range;

use udse_regress::{
    CompiledModel, Dataset, FittedModel, ModelSpec, RegressError, ResponseTransform, TermSpec,
};
use udse_trace::Benchmark;

use crate::oracle::{Metrics, Oracle};
use crate::space::{Axis, DesignPoint, DesignSpace};

/// Builds the paper's §3.3 term set: restricted cubic splines with 4
/// knots on the predictors most correlated with the response (pipeline
/// depth, register file size) and 3 knots on the weaker ones (width,
/// reservation stations, cache sizes), plus the §3.2 domain-knowledge
/// interactions (depth x cache levels, width x registers, width x
/// reservations, adjacent cache levels). Predictor column `v` is
/// [`Axis::ALL`]`[v]` ([`DesignPoint::predictors`]).
pub fn paper_terms() -> Vec<TermSpec> {
    use Axis::{DepthFo4, Dl1Kb, Gpr, Il1Kb, L2Kb, ResvFx, Width};
    let spline = |axis: Axis, knots| TermSpec::Spline { var: axis.slot(), knots };
    let interaction = |a: Axis, b: Axis| TermSpec::Interaction(a.slot(), b.slot());
    vec![
        spline(DepthFo4, 4),
        spline(Width, 3),
        spline(Gpr, 4),
        spline(ResvFx, 3),
        spline(Il1Kb, 3),
        spline(Dl1Kb, 3),
        spline(L2Kb, 3),
        interaction(DepthFo4, L2Kb),
        interaction(DepthFo4, Dl1Kb),
        interaction(Width, Gpr),
        interaction(Width, ResvFx),
        interaction(Il1Kb, L2Kb),
        interaction(Dl1Kb, L2Kb),
    ]
}

/// The paper's performance model specification: `sqrt(bips)` response
/// over the spline + interaction terms.
pub fn performance_spec() -> ModelSpec {
    ModelSpec::new(ResponseTransform::Sqrt).with_terms(paper_terms())
}

/// The paper's power model specification: `log(watts)` response over the
/// same terms.
pub fn power_spec() -> ModelSpec {
    ModelSpec::new(ResponseTransform::Log).with_terms(paper_terms())
}

/// A per-benchmark pair of fitted models predicting performance (bips)
/// and power (watts) for any design point.
///
/// # Examples
///
/// ```no_run
/// use udse_core::model::PaperModels;
/// use udse_core::oracle::SimOracle;
/// use udse_core::space::DesignSpace;
/// use udse_trace::Benchmark;
///
/// let oracle = SimOracle::with_trace_len(20_000);
/// let samples = DesignSpace::paper().sample_uar(300, 1);
/// let models = PaperModels::train(&oracle, Benchmark::Ammp, &samples).unwrap();
/// let p = DesignSpace::exploration().decode(0).unwrap();
/// let eff = models.predict_efficiency(&p);
/// assert!(eff > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PaperModels {
    benchmark: Benchmark,
    performance: FittedModel,
    power: FittedModel,
}

impl PaperModels {
    /// Trains the performance and power models for one benchmark from a
    /// set of sampled designs, simulating each via the oracle (batched
    /// through [`Oracle::evaluate_many`], so simulations parallelize).
    ///
    /// # Errors
    ///
    /// Propagates fitting errors (rank deficiency, too few samples).
    pub fn train<O: Oracle + ?Sized>(
        oracle: &O,
        benchmark: Benchmark,
        samples: &[DesignPoint],
    ) -> Result<Self, RegressError> {
        let jobs: Vec<(Benchmark, DesignPoint)> = samples.iter().map(|p| (benchmark, *p)).collect();
        let responses = oracle.evaluate_many(&jobs);
        Self::train_from_observations(benchmark, samples, &responses)
    }

    /// Trains from pre-simulated observations (used when the same sample
    /// set feeds many model variants, e.g. the ablation benches).
    ///
    /// # Errors
    ///
    /// Propagates fitting errors.
    pub fn train_from_observations(
        benchmark: Benchmark,
        samples: &[DesignPoint],
        observations: &[Metrics],
    ) -> Result<Self, RegressError> {
        let data = design_dataset(samples)?;
        let bips: Vec<f64> = observations.iter().map(|m| m.bips).collect();
        let watts: Vec<f64> = observations.iter().map(|m| m.watts).collect();
        let performance = performance_spec().fit(&data, &bips)?;
        let power = power_spec().fit(&data, &watts)?;
        Ok(PaperModels { benchmark, performance, power })
    }

    /// The benchmark these models describe.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Predicted `(bips, watts)` pair, evaluating both spline models at
    /// the point's predictor row. Works for any point, on or off the
    /// exploration grid.
    pub fn predict_metrics(&self, point: &DesignPoint) -> Metrics {
        let row = point.predictors();
        Metrics {
            bips: self
                .performance
                .predict_row(&row)
                .expect("predictor vector matches training width"),
            watts: self.power.predict_row(&row).expect("predictor vector matches training width"),
        }
    }

    /// Predicted `bips^3 / w` efficiency.
    pub fn predict_efficiency(&self, point: &DesignPoint) -> f64 {
        self.predict_metrics(point).bips_cubed_per_watt()
    }

    /// The underlying performance model.
    pub fn performance_model(&self) -> &FittedModel {
        &self.performance
    }

    /// The underlying power model.
    pub fn power_model(&self) -> &FittedModel {
        &self.power
    }
}

/// Accumulator capacity of the stacked kernels: room for the full
/// nine-benchmark suite (18 lanes) with headroom, small enough that the
/// per-point accumulators stay a couple of cache lines on the stack.
const MAX_LANES: usize = 32;

/// One or more [`PaperModels`] lowered onto one design space's predictor
/// grid ([`FittedModel::compile`]) and re-laid out *model-major*: for
/// every grid level there is one contiguous group of `2 × pairs` partial
/// sums — performance lanes first, then power lanes — so a single grid
/// index read feeds every stacked model at once. Per-level spline partial
/// sums replace knot evaluation, so a prediction is seven lane-group
/// reads, six interaction products, and a back-transform — no
/// allocation. This is the one compiled prediction kernel: the fused
/// nine-benchmark walk reads one level group per axis (18 adjacent
/// `f64`s) instead of paging through nine separate model tables.
///
/// Per lane, the accumulation order is identical to
/// [`CompiledModel::predict_indices`] — intercept, per-axis partial sums
/// in predictor order, interaction products in model order, response
/// back-transform — so stacked predictions are *bitwise-identical* to a
/// single compiled model's, whatever else shares the stack; fused sweeps
/// are interchangeable with separate ones and `--jobs` runs stay
/// deterministic. Against the uncompiled [`PaperModels`] path they
/// agree to ≤1e-12 relative error (proven exhaustively in the
/// equivalence tests), not bitwise: the lowering regroups the
/// floating-point accumulation.
#[derive(Debug, Clone)]
pub struct SuiteLanes {
    /// Stacked (performance, power) model pairs.
    pairs: usize,
    /// Output lanes: `2 * pairs`.
    lanes: usize,
    /// The space whose grid the lanes were compiled on.
    space: DesignSpace,
    /// Per-axis level-group offsets into `levels` (and, scaled by
    /// `lanes`, into `partial`).
    offsets: [usize; 8],
    /// The shared grid levels, flattened axis-major.
    levels: Vec<f64>,
    /// Per-lane intercepts.
    intercepts: Vec<f64>,
    /// Per-level lane groups: `partial[(offsets[v] + i) * lanes + m]` is
    /// lane `m`'s single-variable partial sum at axis `v`, level `i`.
    partial: Vec<f64>,
    /// Shared interaction variable pairs, in model order.
    inter_vars: Vec<(usize, usize)>,
    /// Interaction coefficients, lane groups in `inter_vars` order.
    inter_betas: Vec<f64>,
    /// Per-lane response transforms.
    transforms: Vec<ResponseTransform>,
}

impl SuiteLanes {
    /// Compiles model pairs (1–16, e.g. a whole suite in
    /// [`Benchmark::ALL`] order) onto `space`'s predictor grid and stacks
    /// them into one model-major lane plan. Every model lowers against
    /// the same level lists, so the stacked lanes share one grid by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics when `models` is empty or exceeds the lane capacity.
    pub fn compile(models: &[PaperModels], space: &DesignSpace) -> SuiteLanes {
        assert!(!models.is_empty(), "stack at least one model pair");
        let pairs = models.len();
        let lanes = 2 * pairs;
        assert!(lanes <= MAX_LANES, "at most {} model pairs per stack", MAX_LANES / 2);
        let grid = space.predictor_levels();
        let mut offsets = [0usize; 8];
        for v in 0..7 {
            offsets[v + 1] = offsets[v] + grid[v].len();
        }
        // Lane order: performance models 0..pairs, then power models.
        let columns: Vec<CompiledModel> = models
            .iter()
            .map(PaperModels::performance_model)
            .chain(models.iter().map(PaperModels::power_model))
            .map(|m| m.compile(&grid).expect("paper model compiles on its own predictor grid"))
            .collect();
        let inter_vars: Vec<(usize, usize)> =
            columns[0].interactions().map(|(a, b, _)| (a, b)).collect();
        let mut partial = vec![0.0; offsets[7] * lanes];
        let mut inter_betas = vec![0.0; inter_vars.len() * lanes];
        for (lane, cm) in columns.iter().enumerate() {
            let ab: Vec<(usize, usize)> = cm.interactions().map(|(a, b, _)| (a, b)).collect();
            assert_eq!(ab, inter_vars, "stacked models must share the interaction structure");
            for v in 0..7 {
                for (i, &p) in cm.partial_sums(v).iter().enumerate() {
                    partial[(offsets[v] + i) * lanes + lane] = p;
                }
            }
            for (t, (_, _, beta)) in cm.interactions().enumerate() {
                inter_betas[t * lanes + lane] = beta;
            }
        }
        SuiteLanes {
            pairs,
            lanes,
            space: space.clone(),
            offsets,
            levels: grid.concat(),
            intercepts: columns.iter().map(CompiledModel::intercept).collect(),
            partial,
            inter_vars,
            inter_betas,
            transforms: columns.iter().map(CompiledModel::transform).collect(),
        }
    }

    /// The space whose grid the lanes were compiled on.
    pub(crate) fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// Number of stacked (performance, power) model pairs.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Predicts every stacked pair at one set of grid level indices
    /// ([`DesignSpace::indices`] order): `out[m]` receives pair `m`'s
    /// metrics, bitwise-identical to [`CompiledModel::predict_indices`] on
    /// that pair's compiled models. Accumulators seed with the
    /// intercepts, each axis adds its contiguous level group, each
    /// interaction adds its coefficient-lane product, and the lanes are
    /// back-transformed. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != pairs` or an index is out of range.
    pub fn predict_metrics_into(&self, idx: &[usize; 7], out: &mut [Metrics]) {
        assert_eq!(out.len(), self.pairs, "one Metrics slot per stacked pair");
        let lanes = self.lanes;
        let mut acc = [0.0f64; MAX_LANES];
        acc[..lanes].copy_from_slice(&self.intercepts);
        for (v, &i) in idx.iter().enumerate() {
            assert!(
                i < self.offsets[v + 1] - self.offsets[v],
                "level index {i} out of range on axis {v}"
            );
            let grp = &self.partial[(self.offsets[v] + i) * lanes..][..lanes];
            for (a, &p) in acc[..lanes].iter_mut().zip(grp) {
                *a += p;
            }
        }
        for (betas, &(av, bv)) in self.inter_betas.chunks_exact(lanes).zip(&self.inter_vars) {
            let xa = self.levels[self.offsets[av] + idx[av]];
            let xb = self.levels[self.offsets[bv] + idx[bv]];
            for (a, &b) in acc[..lanes].iter_mut().zip(betas) {
                *a += b * xa * xb;
            }
        }
        for (m, o) in out.iter_mut().enumerate() {
            o.bips = self.transforms[m].invert(acc[m]);
            o.watts = self.transforms[self.pairs + m].invert(acc[self.pairs + m]);
        }
    }

    /// A reusable walker over the compiled space at `stride`: all scratch
    /// buffers are allocated here, so [`GridWalker::walk`] itself is
    /// allocation-free.
    pub fn walker(&self, stride: usize) -> GridWalker<'_> {
        GridWalker {
            lanes: self,
            stride: stride.max(1),
            dims: self.space.dimensions(),
            prefix: vec![0.0; 7 * self.lanes],
            metrics: vec![Metrics { bips: 0.0, watts: 0.0 }; self.pairs],
        }
    }
}

/// The shared inner loop of every exhaustive study sweep: enumerates a
/// contiguous range of the (possibly strided) design walk and hands each
/// visited [`DesignPoint`] plus its per-pair [`Metrics`] to a visitor.
///
/// For `stride == 1` the walk is a lexicographic odometer over the grid
/// axes carrying *incremental prefix sums*: `prefix[v]` holds the lane
/// accumulators through axis `v` (`intercept + partial₀ + … + partialᵥ`),
/// and an increment on axis `v` recomputes only `prefix[v..7]`. Since the
/// innermost axis moves on 4 of 5 steps, a point costs ~one lane add plus
/// the interaction products instead of seven scattered table reads and a
/// full index decode. Each prefix is a pure function of the point's own
/// indices and the accumulation order matches
/// [`CompiledModel::predict_indices`] exactly (left-to-right, one sum per
/// axis), so every visited value is bitwise-identical to a per-point
/// call — chunk boundaries cannot change results, which preserves the
/// `--jobs` determinism contract.
///
/// For `stride > 1` the walk visits [`crate::studies::strided_point`]
/// positions and runs the stacked per-point kernel; same bitwise
/// guarantee, no prefix reuse (consecutive strided points share no index
/// prefix).
///
/// After construction ([`SuiteLanes::walker`]), walking is
/// allocation-free.
#[derive(Debug)]
pub struct GridWalker<'a> {
    lanes: &'a SuiteLanes,
    stride: usize,
    dims: [u8; 7],
    /// `prefix[v * lanes..][..lanes]`: accumulators through axis `v`.
    prefix: Vec<f64>,
    /// Per-pair metrics scratch handed to the visitor.
    metrics: Vec<Metrics>,
}

impl GridWalker<'_> {
    /// Visits positions `range` of the walk in order, calling
    /// `visit(point, metrics)` per design; `metrics[m]` is stacked pair
    /// `m`'s prediction. Ranges partition: walking `a..b` then `b..c`
    /// visits exactly the points of `a..c`, with identical values.
    ///
    /// # Panics
    ///
    /// Panics when `range.end` exceeds the strided walk length
    /// ([`crate::studies::strided_count`]).
    pub fn walk(&mut self, range: Range<u64>, mut visit: impl FnMut(DesignPoint, &[Metrics])) {
        assert!(
            range.end <= crate::studies::strided_count(&self.lanes.space, self.stride),
            "walk range exceeds the strided space"
        );
        if range.start >= range.end {
            return;
        }
        if self.stride == 1 {
            self.walk_natural(range, &mut visit);
        } else {
            self.walk_strided(range, &mut visit);
        }
    }

    /// Recomputes the prefix lanes for axes `from..7` at the current
    /// odometer indices.
    fn reprime(&mut self, from: usize, idx: &[usize; 7]) {
        let lanes = self.lanes.lanes;
        for v in from..7 {
            let grp = &self.lanes.partial[(self.lanes.offsets[v] + idx[v]) * lanes..][..lanes];
            if v == 0 {
                for ((d, &ic), &p) in
                    self.prefix[..lanes].iter_mut().zip(&self.lanes.intercepts).zip(grp)
                {
                    *d = ic + p;
                }
            } else {
                let (prev, cur) = self.prefix.split_at_mut(v * lanes);
                let prev = &prev[(v - 1) * lanes..];
                for ((d, &pr), &p) in cur[..lanes].iter_mut().zip(prev).zip(grp) {
                    *d = pr + p;
                }
            }
        }
    }

    fn walk_natural(&mut self, range: Range<u64>, visit: &mut impl FnMut(DesignPoint, &[Metrics])) {
        let lanes = self.lanes.lanes;
        let pairs = self.lanes.pairs;
        // Decode the first flat index into the odometer once; after that
        // every step is an increment.
        let mut idx = [0usize; 7];
        let mut rem = range.start;
        for v in (0..7).rev() {
            let d = self.dims[v] as u64;
            idx[v] = (rem % d) as usize;
            rem /= d;
        }
        self.reprime(0, &idx);
        let mut acc = [0.0f64; MAX_LANES];
        for _ in range {
            acc[..lanes].copy_from_slice(&self.prefix[6 * lanes..]);
            for (betas, &(av, bv)) in
                self.lanes.inter_betas.chunks_exact(lanes).zip(&self.lanes.inter_vars)
            {
                let xa = self.lanes.levels[self.lanes.offsets[av] + idx[av]];
                let xb = self.lanes.levels[self.lanes.offsets[bv] + idx[bv]];
                for (a, &b) in acc[..lanes].iter_mut().zip(betas) {
                    *a += b * xa * xb;
                }
            }
            for (m, o) in self.metrics.iter_mut().enumerate() {
                o.bips = self.lanes.transforms[m].invert(acc[m]);
                o.watts = self.lanes.transforms[pairs + m].invert(acc[pairs + m]);
            }
            let point = self
                .lanes
                .space
                .point([
                    idx[0] as u8,
                    idx[1] as u8,
                    idx[2] as u8,
                    idx[3] as u8,
                    idx[4] as u8,
                    idx[5] as u8,
                    idx[6] as u8,
                ])
                .expect("walker odometer stays in range");
            visit(point, &self.metrics);
            // Lexicographic increment; reprime from the lowest changed
            // axis. A full wrap only happens past the last grid point,
            // where the range is necessarily exhausted.
            for v in (0..7).rev() {
                idx[v] += 1;
                if idx[v] < self.dims[v] as usize {
                    self.reprime(v, &idx);
                    break;
                }
                idx[v] = 0;
            }
        }
    }

    fn walk_strided(&mut self, range: Range<u64>, visit: &mut impl FnMut(DesignPoint, &[Metrics])) {
        let lanes = self.lanes;
        for k in range {
            let point = crate::studies::strided_point(&lanes.space, self.stride, k);
            lanes.predict_metrics_into(
                &lanes.space.indices(&point).map(usize::from),
                &mut self.metrics,
            );
            visit(point, &self.metrics);
        }
    }
}

/// Expands design points into the regression dataset.
///
/// # Errors
///
/// Returns [`RegressError::MalformedDataset`] when `samples` is empty.
pub fn design_dataset(samples: &[DesignPoint]) -> Result<Dataset, RegressError> {
    Dataset::new(
        DesignPoint::predictor_names(),
        samples.iter().map(DesignPoint::predictors).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use crate::space::DesignSpace;
    use udse_stats::median_abs_rel_error;

    /// A fast fake oracle with a known smooth response surface.
    struct FakeOracle;

    impl Oracle for FakeOracle {
        fn evaluate(&self, _b: Benchmark, p: &DesignPoint) -> Metrics {
            let v = p.predictors();
            let bips = (8.0 / v[0]) * (1.0 + 0.2 * v[1].ln()) * (1.0 + 0.002 * v[2]) + 0.05 * v[6];
            let watts = (1.5 + 30.0 / v[0] + 0.8 * v[1] + 0.4 * v[6]).exp().ln() * 6.0 + 4.0;
            Metrics { bips, watts }
        }
    }

    #[test]
    fn models_fit_smooth_surface_accurately() {
        let space = DesignSpace::paper();
        let samples = space.sample_uar(400, 5);
        let models = PaperModels::train(&FakeOracle, Benchmark::Gzip, &samples).unwrap();
        let validation = space.sample_uar(50, 99);
        let (mut obs_b, mut pred_b) = (Vec::new(), Vec::new());
        for p in &validation {
            obs_b.push(FakeOracle.evaluate(Benchmark::Gzip, p).bips);
            pred_b.push(models.predict_metrics(p).bips);
        }
        let err = median_abs_rel_error(&obs_b, &pred_b);
        assert!(err < 0.05, "median error {err} too high for smooth surface");
    }

    #[test]
    fn train_on_simulator_produces_reasonable_models() {
        let space = DesignSpace::paper();
        let oracle = SimOracle::with_trace_len(4_000);
        let samples = space.sample_uar(120, 11);
        let models = PaperModels::train(&oracle, Benchmark::Gzip, &samples).unwrap();
        assert!(models.performance_model().r_squared() > 0.7);
        assert!(models.power_model().r_squared() > 0.8);
        let p = space.decode(1000).unwrap();
        let m = models.predict_metrics(&p);
        assert!(m.bips > 0.0);
        assert!(m.watts > 0.0);
        assert_eq!(models.benchmark(), Benchmark::Gzip);
    }

    /// Lane-kernel predictions for every stacked pair at one point.
    fn lane_metrics(lanes: &SuiteLanes, p: &DesignPoint) -> Vec<Metrics> {
        let mut out = vec![Metrics { bips: 0.0, watts: 0.0 }; lanes.pairs()];
        lanes.predict_metrics_into(&lanes.space().indices(p).map(usize::from), &mut out);
        out
    }

    #[test]
    fn compiled_lanes_match_naive_predictions() {
        let space = DesignSpace::exploration();
        let samples = DesignSpace::paper().sample_uar(300, 7);
        let models = PaperModels::train(&FakeOracle, Benchmark::Gzip, &samples).unwrap();
        let lanes = SuiteLanes::compile(std::slice::from_ref(&models), &space);
        assert_eq!(lanes.space(), &space);
        for k in [0u64, 1, 999, 123_456, 262_499] {
            let p = space.decode(k).unwrap();
            let naive = models.predict_metrics(&p);
            let fast = lane_metrics(&lanes, &p)[0];
            assert!((fast.bips - naive.bips).abs() <= 1e-12 * naive.bips.abs());
            assert!((fast.watts - naive.watts).abs() <= 1e-12 * naive.watts.abs());
        }
    }

    /// Two distinct model pairs on the exploration grid, stacked.
    fn two_pairs() -> (Vec<PaperModels>, SuiteLanes) {
        let models: Vec<PaperModels> = [7u64, 21]
            .iter()
            .map(|&seed| {
                let samples = DesignSpace::paper().sample_uar(300, seed);
                PaperModels::train(&FakeOracle, Benchmark::Gzip, &samples).unwrap()
            })
            .collect();
        let lanes = SuiteLanes::compile(&models, &DesignSpace::exploration());
        (models, lanes)
    }

    #[test]
    fn stacked_lanes_match_single_pair_lanes_bitwise() {
        let (models, lanes) = two_pairs();
        assert_eq!(lanes.pairs(), 2);
        let space = lanes.space().clone();
        let singles: Vec<SuiteLanes> =
            models.iter().map(|m| SuiteLanes::compile(std::slice::from_ref(m), &space)).collect();
        for k in [0u64, 1, 999, 123_456, 262_499] {
            let p = space.decode(k).unwrap();
            for (got, single) in lane_metrics(&lanes, &p).iter().zip(&singles) {
                let want = lane_metrics(single, &p)[0];
                assert_eq!(got.bips.to_bits(), want.bips.to_bits());
                assert_eq!(got.watts.to_bits(), want.watts.to_bits());
            }
        }
    }

    #[test]
    fn grid_walker_matches_per_point_predictions_bitwise() {
        let (_, lanes) = two_pairs();
        let space = lanes.space().clone();
        let mut walker = lanes.walker(1);
        // Ranges crossing several axis rollovers, including the very end
        // of the space (full odometer wrap).
        for range in [0u64..150, 12_340..12_640, 262_400..262_500] {
            let mut k = range.start;
            walker.walk(range.clone(), |point, metrics| {
                assert_eq!(point, space.decode(k).unwrap(), "walk order must be natural order");
                for (got, want) in metrics.iter().zip(lane_metrics(&lanes, &point)) {
                    assert_eq!(got.bips.to_bits(), want.bips.to_bits());
                    assert_eq!(got.watts.to_bits(), want.watts.to_bits());
                }
                k += 1;
            });
            assert_eq!(k, range.end, "walk must visit every range position");
        }
    }

    #[test]
    fn grid_walker_ranges_partition() {
        // Chunked walks concatenate to the whole walk — the property the
        // pool-parallel sweeps rely on.
        let (_, lanes) = two_pairs();
        let whole: Vec<(DesignPoint, f64)> = {
            let mut walker = lanes.walker(1);
            let mut v = Vec::new();
            walker.walk(1000..1400, |p, m| v.push((p, m[1].bips)));
            v
        };
        let mut pieces = Vec::new();
        let mut walker = lanes.walker(1);
        for r in [1000u64..1111, 1111..1112, 1112..1400] {
            walker.walk(r, |p, m| pieces.push((p, m[1].bips)));
        }
        assert_eq!(whole.len(), pieces.len());
        for (a, b) in whole.iter().zip(&pieces) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn strided_walker_matches_strided_points() {
        let (models, _) = two_pairs();
        let space = DesignSpace::exploration();
        let lanes = SuiteLanes::compile(&models[1..], &space);
        assert_eq!(lanes.pairs(), 1);
        let stride = 500;
        let total = crate::studies::strided_count(&space, stride);
        let mut walker = lanes.walker(stride);
        let mut k = 0u64;
        walker.walk(0..total, |point, metrics| {
            let want_p = crate::studies::strided_point(&space, stride, k);
            assert_eq!(point, want_p);
            let want = lane_metrics(&lanes, &point)[0];
            assert_eq!(metrics[0].bips.to_bits(), want.bips.to_bits());
            assert_eq!(metrics[0].watts.to_bits(), want.watts.to_bits());
            k += 1;
        });
        assert_eq!(k, total);
    }

    #[test]
    fn spec_shapes() {
        assert_eq!(paper_terms().len(), 13);
        assert_eq!(performance_spec().transform(), ResponseTransform::Sqrt);
        assert_eq!(power_spec().transform(), ResponseTransform::Log);
    }

    #[test]
    fn empty_samples_rejected() {
        assert!(design_dataset(&[]).is_err());
    }
}
