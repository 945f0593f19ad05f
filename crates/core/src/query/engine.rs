//! The query engine: one owner for the compiled suite, the memoized
//! full-space characterization, the constrained scans sliced from it,
//! and a byte-budgeted LRU of materialized results.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use udse_trace::Benchmark;

use crate::model::SuiteLanes;
use crate::pareto::ParetoFrontier;
use crate::space::{DesignPoint, DesignSpace};
use crate::studies::pareto::{sweep_designs, PredictedDesign};
use crate::studies::{record_sweep, sweep_allocs_snapshot, StudyConfig, TrainedSuite};

use super::{Axis, Constraint, Objective, OptimumEntry, PredictedPoint, Query, QueryResult};

/// Default result-cache budget: generous for optimum/frontier/ranking
/// results (tens of bytes to a few KB each) while bounding a long-lived
/// serving process.
const DEFAULT_RESULT_BUDGET: usize = 64 * 1024 * 1024;

/// Per-axis inclusive level bounds — the pushed-down form of a
/// constraint list. Every axis's physical values increase strictly with
/// the level index, so a value interval maps to one level interval and
/// the admitted designs form a box of grid levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mask {
    lo: [u8; 7],
    hi: [u8; 7],
}

impl Mask {
    /// Folds value constraints into level bounds for `space`.
    ///
    /// # Errors
    ///
    /// Fails when any axis's admissible level interval is empty (the
    /// constraints exclude every design).
    fn pushdown(space: &DesignSpace, constraints: &[Constraint]) -> Result<Mask, String> {
        let dims = space.dimensions();
        let mut lo = [0u8; 7];
        let mut hi = [0u8; 7];
        for (h, &d) in hi.iter_mut().zip(&dims) {
            *h = d - 1;
        }
        for c in constraints {
            let s = c.axis.slot();
            if let Some(min) = c.min {
                let tight = (0..dims[s]).find(|&l| c.axis.level_value(space, l) >= min);
                match tight {
                    Some(l) => lo[s] = lo[s].max(l),
                    None => {
                        return Err(format!(
                            "no {} level is >= {min} (largest is {})",
                            c.axis.name(),
                            c.axis.level_value(space, dims[s] - 1),
                        ))
                    }
                }
            }
            if let Some(max) = c.max {
                let tight = (0..dims[s]).rev().find(|&l| c.axis.level_value(space, l) <= max);
                match tight {
                    Some(l) => hi[s] = hi[s].min(l),
                    None => {
                        return Err(format!(
                            "no {} level is <= {max} (smallest is {})",
                            c.axis.name(),
                            c.axis.level_value(space, 0),
                        ))
                    }
                }
            }
            if lo[s] > hi[s] {
                return Err(format!("constraints on {} exclude every level", c.axis.name()));
            }
        }
        Ok(Mask { lo, hi })
    }

    /// Number of grid designs in the level box.
    fn volume(&self) -> usize {
        self.lo.iter().zip(&self.hi).map(|(&lo, &hi)| (hi - lo) as usize + 1).product()
    }

    fn allows(&self, p: &DesignPoint) -> bool {
        p.indices()
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(i, (lo, hi))| (lo..=hi).contains(&i))
    }
}

struct CacheEntry {
    result: Arc<QueryResult>,
    bytes: usize,
    tick: u64,
}

/// Byte-budgeted LRU keyed by the query's canonical compact JSON.
/// Eviction scans for the least-recently-used entry — entry counts stay
/// small (the budget divided by at-least-row-sized results), so the
/// linear scan is cheaper than an intrusive list and keeps the map flat.
struct ResultCache {
    entries: HashMap<String, CacheEntry>,
    used: usize,
    budget: usize,
    clock: u64,
}

impl ResultCache {
    fn new(budget: usize) -> Self {
        ResultCache { entries: HashMap::new(), used: 0, budget, clock: 0 }
    }

    fn get(&mut self, key: &str) -> Option<Arc<QueryResult>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|e| {
            e.tick = clock;
            Arc::clone(&e.result)
        })
    }

    fn insert(&mut self, key: String, result: Arc<QueryResult>) {
        let bytes = key.len() + result.approx_bytes();
        if bytes > self.budget {
            // Larger than the whole budget: serving it uncached beats
            // flushing everything else.
            return;
        }
        while self.used + bytes > self.budget {
            let Some(victim) =
                self.entries.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k.clone())
            else {
                break;
            };
            let evicted = self.entries.remove(&victim).expect("victim key present");
            self.used -= evicted.bytes;
            udse_obs::metrics::counter("query.cache.evictions").add(1);
        }
        self.clock += 1;
        self.used += bytes;
        self.entries.insert(key, CacheEntry { result, bytes, tick: self.clock });
        udse_obs::metrics::gauge("query.cache.bytes").set(self.used as f64);
    }
}

/// Executes [`Query`] values against one trained suite.
///
/// The engine owns the trained suite, its models compiled onto the
/// exploration grid as the stacked [`SuiteLanes`] the fused walk runs
/// on, the memoized full-space characterization every scanning query
/// slices, and a byte-budgeted LRU of materialized scan results keyed by
/// the query's canonical serialization. Execution records `query.executed`,
/// `query.cache.{hits,misses}`, and `query.designs_per_sec` into the
/// ambient metrics registry; materializing the characterization records
/// the `sweep.*` metrics.
///
/// Scanning queries (constrained optimum, Pareto slice, top-K) read the
/// *compiled* models' predictions from the characterization, visiting
/// only the designs their constraints admit, sequentially in walk order
/// with the last-maximal-element-wins tie-break, so answers are
/// independent of worker count. Point-shaped queries (point, what-if,
/// axis sweep) evaluate the *uncompiled* spline models — the flavor the
/// validation studies always used (compiled and uncompiled predictions
/// agree only to ~1e-12, so the distinction is load-bearing for bitwise
/// reproducibility) — and bypass the result cache.
pub struct Engine {
    suite: TrainedSuite,
    lanes: SuiteLanes,
    stride: usize,
    sweep: Mutex<Option<Arc<Vec<Vec<PredictedDesign>>>>>,
    cache: Mutex<ResultCache>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("stride", &self.stride).finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds an engine over the exploration space, compiling the suite
    /// once. `config.eval_stride` becomes the stride the memoized
    /// characterization is materialized at.
    pub fn new(suite: TrainedSuite, config: &StudyConfig) -> Self {
        let lanes = SuiteLanes::compile(suite.all_models(), &DesignSpace::exploration());
        Engine {
            suite,
            lanes,
            stride: config.eval_stride,
            sweep: Mutex::new(None),
            cache: Mutex::new(ResultCache::new(DEFAULT_RESULT_BUDGET)),
        }
    }

    /// Replaces the result-cache byte budget (0 disables caching).
    pub fn with_result_budget(self, bytes: usize) -> Self {
        Engine { cache: Mutex::new(ResultCache::new(bytes)), ..self }
    }

    /// The trained (uncompiled) suite.
    pub fn suite(&self) -> &TrainedSuite {
        &self.suite
    }

    /// The suite compiled onto the exploration grid, stacked in
    /// [`Benchmark::ALL`] order.
    pub(crate) fn lanes(&self) -> &SuiteLanes {
        &self.lanes
    }

    /// The exploration space the engine scans.
    pub fn space(&self) -> &DesignSpace {
        self.lanes.space()
    }

    /// The stride of the memoized characterization.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The memoized full-space characterization: every strided design's
    /// predicted metrics for all nine benchmarks, materialized from one
    /// fused grid walk on first use and shared thereafter. Identical to
    /// a sequential walk regardless of worker count.
    pub fn full_sweep(&self) -> Arc<Vec<Vec<PredictedDesign>>> {
        let mut slot = self.sweep.lock().expect("sweep memo lock");
        if let Some(designs) = slot.as_ref() {
            return Arc::clone(designs);
        }
        let designs = Arc::new(self.sweep_at(self.stride));
        *slot = Some(Arc::clone(&designs));
        designs
    }

    /// Runs the fused characterization walk at an explicit stride,
    /// recording the `sweep.*` metrics (throughput, allocations).
    fn sweep_at(&self, stride: usize) -> Vec<Vec<PredictedDesign>> {
        let _span = udse_obs::span::enter("sweep");
        let allocs0 = sweep_allocs_snapshot();
        let started = Instant::now();
        let designs = sweep_designs(&self.lanes, stride);
        let swept: u64 = designs.iter().map(|d| d.len() as u64).sum();
        let rate = record_sweep(swept, started.elapsed().as_secs_f64(), allocs0);
        udse_obs::info!(
            "sweep",
            "characterized {} designs across {} benchmarks in one fused walk at {:.0} designs/sec",
            swept,
            designs.len(),
            rate
        );
        designs
    }

    /// The characterization at `stride`: the memo when it matches the
    /// engine stride, a fresh unmemoized walk otherwise.
    fn designs_at(&self, stride: usize) -> Arc<Vec<Vec<PredictedDesign>>> {
        if stride == self.stride {
            self.full_sweep()
        } else {
            Arc::new(self.sweep_at(stride))
        }
    }

    /// Executes a query, serving repeated scans from the result LRU. The
    /// cache key is the query's canonical serialization, so structurally
    /// equal queries always share an entry; cached results come back as
    /// the same `Arc`, bitwise-equal by construction. Point-shaped
    /// queries are computed on every call and counted as misses, so
    /// `query.executed == query.cache.hits + query.cache.misses` holds.
    ///
    /// # Errors
    ///
    /// Fails on unsatisfiable constraints, a [`Objective::SuiteRelative`]
    /// reference vector of the wrong length or paired with a single
    /// benchmark, `k == 0` / `bins == 0`, or a point whose space the
    /// engine does not scan (never for points, which predict uncompiled).
    pub fn execute(&self, query: &Query) -> Result<Arc<QueryResult>, String> {
        let _span = udse_obs::span::enter("query");
        udse_obs::metrics::counter("query.executed").add(1);
        if matches!(query, Query::Point { .. } | Query::WhatIf { .. } | Query::AxisSweep { .. }) {
            // A few model evaluations cost about what the cache key does,
            // and a stream of distinct points would only fill the LRU.
            udse_obs::metrics::counter("query.cache.misses").add(1);
            return self.compute(query).map(Arc::new);
        }
        let key = query.to_json().to_string_compact();
        if let Some(hit) = self.cache.lock().expect("result cache lock").get(&key) {
            udse_obs::metrics::counter("query.cache.hits").add(1);
            return Ok(hit);
        }
        udse_obs::metrics::counter("query.cache.misses").add(1);
        let result = Arc::new(self.compute(query)?);
        self.cache.lock().expect("result cache lock").insert(key, Arc::clone(&result));
        Ok(result)
    }

    fn compute(&self, query: &Query) -> Result<QueryResult, String> {
        match query {
            Query::Point { benchmark, point } => Ok(QueryResult::Point {
                benchmark: *benchmark,
                row: self.predict_row(*benchmark, *point),
            }),
            Query::WhatIf { benchmark, base, alternative } => Ok(QueryResult::Delta {
                benchmark: *benchmark,
                base: self.predict_row(*benchmark, *base),
                alternative: self.predict_row(*benchmark, *alternative),
            }),
            Query::AxisSweep { benchmark, base, axis } => self.axis_sweep(*benchmark, *base, *axis),
            Query::ConstrainedOptimum { benchmark, objective, constraints, stride } => {
                self.constrained_optimum(*benchmark, objective, constraints, *stride)
            }
            Query::ParetoSlice { benchmark, constraints, stride, bins } => {
                self.pareto_slice(*benchmark, constraints, *stride, *bins)
            }
            Query::TopK { benchmark, constraints, stride, k } => {
                self.top_k(*benchmark, constraints, *stride, *k)
            }
        }
    }

    /// One uncompiled model evaluation — the exact arithmetic
    /// [`crate::model::PaperModels::predict_metrics`] performs.
    fn predict_row(&self, benchmark: Benchmark, point: DesignPoint) -> PredictedPoint {
        PredictedPoint { point, predicted: self.suite.models(benchmark).predict_metrics(&point) }
    }

    fn axis_sweep(
        &self,
        benchmark: Benchmark,
        base: DesignPoint,
        axis: Axis,
    ) -> Result<QueryResult, String> {
        // Sweep within the space the base point belongs to; the depth
        // value picks it (paper and exploration depth lists never agree
        // at the same index).
        let space = [DesignSpace::paper(), DesignSpace::exploration()]
            .into_iter()
            .find(|s| s.point(s.indices(&base)).is_some_and(|p| p.fo4() == base.fo4()))
            .ok_or("axis_sweep: base point fits no space")?;
        let mut idx = space.indices(&base);
        let levels = space.dimensions()[axis.slot()];
        let rows = (0..levels)
            .map(|level| {
                idx[axis.slot()] = level;
                let p = space.point(idx).expect("level within the axis dimension");
                self.predict_row(benchmark, p)
            })
            .collect();
        Ok(QueryResult::Sweep { benchmark, axis, rows })
    }

    fn constrained_optimum(
        &self,
        benchmark: Option<Benchmark>,
        objective: &Objective,
        constraints: &[Constraint],
        stride: usize,
    ) -> Result<QueryResult, String> {
        match (benchmark, objective) {
            (Some(b), Objective::Efficiency) => {
                let mask = Mask::pushdown(self.space(), constraints)?;
                self.efficiency_optima(&[b], &mask, stride)
            }
            (None, Objective::Efficiency) => {
                let mask = Mask::pushdown(self.space(), constraints)?;
                self.efficiency_optima(&Benchmark::ALL, &mask, stride)
            }
            (None, Objective::SuiteRelative(refs)) => {
                if refs.len() != self.lanes.pairs() {
                    return Err(format!(
                        "suite_relative needs {} references, got {}",
                        self.lanes.pairs(),
                        refs.len()
                    ));
                }
                let mask = Mask::pushdown(self.space(), constraints)?;
                self.suite_relative_optimum(&mask, refs, stride)
            }
            (Some(_), Objective::SuiteRelative(_)) => {
                Err("suite_relative aggregates the whole suite; bench must be null".to_string())
            }
        }
    }

    /// Visits, in walk order, the sweep position of every design `mask`
    /// admits in the characterization at `stride`, handing `visit` the
    /// per-benchmark rows with each position, and returns those rows.
    ///
    /// At stride 1 the sweep is the whole grid in [`DesignSpace::decode`]
    /// order: a row's position is the mixed-radix value of its level
    /// indices. The mask's level box is then enumerated directly as
    /// contiguous runs along the innermost axis, touching only admitted
    /// rows. Other strides scatter the grid, so their rows are filtered
    /// with [`Mask::allows`].
    fn admitted(
        &self,
        mask: &Mask,
        stride: usize,
        mut visit: impl FnMut(&[Vec<PredictedDesign>], usize),
    ) -> Arc<Vec<Vec<PredictedDesign>>> {
        let sweep = self.designs_at(stride);
        if stride.max(1) != 1 {
            for (i, d) in sweep[0].iter().enumerate() {
                if mask.allows(&d.point) {
                    visit(&sweep, i);
                }
            }
            return sweep;
        }
        let dims = self.space().dimensions();
        let mut weight = [1usize; 7];
        for a in (0..6).rev() {
            weight[a] = weight[a + 1] * dims[a + 1] as usize;
        }
        let run = (mask.hi[6] - mask.lo[6]) as usize + 1;
        let mut idx = mask.lo;
        loop {
            let start: usize = idx.iter().zip(&weight).map(|(&i, &w)| i as usize * w).sum();
            for i in start..start + run {
                visit(&sweep, i);
            }
            // Odometer step over the six outer axes, last axis fastest.
            let mut a = 6;
            loop {
                if a == 0 {
                    return sweep;
                }
                a -= 1;
                if idx[a] < mask.hi[a] {
                    idx[a] += 1;
                    break;
                }
                idx[a] = mask.lo[a];
            }
        }
    }

    /// The argmax over the admitted designs for each of `benchmarks`,
    /// reading only those benchmarks' rows. Ties break toward the design
    /// visited *last* in walk order — the element `Iterator::max_by`
    /// would return — so one benchmark's winner is the same whether it
    /// is asked for alone or with the rest of the suite.
    fn efficiency_optima(
        &self,
        benchmarks: &[Benchmark],
        mask: &Mask,
        stride: usize,
    ) -> Result<QueryResult, String> {
        let started = Instant::now();
        let ids: Vec<usize> = benchmarks.iter().map(|b| b.id() as usize).collect();
        let mut best: Vec<Option<(usize, f64)>> = vec![None; ids.len()];
        let mut admitted = 0;
        let sweep = self.admitted(mask, stride, |rows, i| {
            admitted += ids.len();
            for (win, &b) in best.iter_mut().zip(&ids) {
                let eff = rows[b][i].predicted.bips_cubed_per_watt();
                // `>=` replaces: the last maximal element wins.
                if win.is_none_or(|(_, cur)| eff.total_cmp(&cur) != Ordering::Less) {
                    *win = Some((i, eff));
                }
            }
        });
        record_scan(admitted, started);
        let entries = benchmarks
            .iter()
            .zip(&ids)
            .zip(best)
            .map(|((&b, &id), win)| {
                let row = &sweep[id];
                win.map(|(i, eff)| OptimumEntry {
                    benchmark: Some(b),
                    point: row[i].point,
                    predicted: Some(row[i].predicted),
                    score: eff,
                })
                .ok_or("constraints exclude every design in the strided walk".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(QueryResult::Optima { entries })
    }

    /// The suite-aggregate argmax: one winner maximizing the mean over
    /// benchmarks of `bips^3/w / reference` — the depth study's bound
    /// objective, arithmetic-for-arithmetic.
    fn suite_relative_optimum(
        &self,
        mask: &Mask,
        refs: &[f64],
        stride: usize,
    ) -> Result<QueryResult, String> {
        let n = refs.len() as f64;
        let started = Instant::now();
        let mut best: Option<(usize, f64)> = None;
        let mut admitted = 0;
        let sweep = self.admitted(mask, stride, |rows, i| {
            admitted += rows.len();
            let score = rows
                .iter()
                .zip(refs)
                .map(|(row, &r)| row[i].predicted.bips_cubed_per_watt() / r)
                .sum::<f64>()
                / n;
            if best.is_none_or(|(_, cur)| score.total_cmp(&cur) != Ordering::Less) {
                best = Some((i, score));
            }
        });
        record_scan(admitted, started);
        let (i, score) = best.ok_or("constraints exclude every design in the strided walk")?;
        Ok(QueryResult::Optima {
            entries: vec![OptimumEntry {
                benchmark: None,
                point: sweep[0][i].point,
                predicted: None,
                score,
            }],
        })
    }

    fn pareto_slice(
        &self,
        benchmark: Benchmark,
        constraints: &[Constraint],
        stride: usize,
        bins: usize,
    ) -> Result<QueryResult, String> {
        if bins == 0 {
            return Err("pareto_slice needs at least one delay bin".to_string());
        }
        let mask = Mask::pushdown(self.space(), constraints)?;
        let started = Instant::now();
        // Only the admitted sweep positions are kept (4 bytes each; the
        // stride-1 grid has 262,500); the binning reads each design's
        // delay and power straight out of the memoized sweep.
        let mut admitted: Vec<u32> = Vec::new();
        if stride.max(1) == 1 {
            admitted.reserve_exact(mask.volume());
        }
        let sweep = self.admitted(&mask, stride, |_, i| admitted.push(i as u32));
        if admitted.is_empty() {
            return Err("constraints exclude every design in the strided walk".to_string());
        }
        record_scan(admitted.len(), started);
        let row = &sweep[benchmark.id() as usize];
        let design = |j: usize| &row[admitted[j] as usize];
        let frontier = ParetoFrontier::from_fn(
            admitted.len(),
            |j| {
                let m = &design(j).predicted;
                (m.delay_seconds(), m.watts)
            },
            bins,
        );
        let rows = frontier
            .indices()
            .iter()
            .map(|&j| PredictedPoint { point: design(j).point, predicted: design(j).predicted })
            .collect();
        Ok(QueryResult::Frontier { benchmark, designs: rows })
    }

    fn top_k(
        &self,
        benchmark: Benchmark,
        constraints: &[Constraint],
        stride: usize,
        k: usize,
    ) -> Result<QueryResult, String> {
        if k == 0 {
            return Err("top_k needs k >= 1".to_string());
        }
        let mask = Mask::pushdown(self.space(), constraints)?;
        let b = benchmark.id() as usize;
        let started = Instant::now();
        let mut ranked: Vec<(f64, usize)> = Vec::new();
        let sweep = self.admitted(&mask, stride, |rows, i| {
            ranked.push((rows[b][i].predicted.bips_cubed_per_watt(), i));
        });
        if ranked.is_empty() {
            return Err("constraints exclude every design in the strided walk".to_string());
        }
        record_scan(ranked.len(), started);
        // Efficiency descending, then walk position ascending: the order
        // a stable descending sort leaves, as a total order.
        let order = |x: &(f64, usize), y: &(f64, usize)| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1));
        if k < ranked.len() {
            ranked.select_nth_unstable_by(k - 1, order);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(order);
        let entries = ranked
            .into_iter()
            .map(|(_, i)| PredictedPoint {
                point: sweep[b][i].point,
                predicted: sweep[b][i].predicted,
            })
            .collect();
        Ok(QueryResult::Ranking { benchmark, entries })
    }
}

/// Sets the `query.designs_per_sec` gauge: admitted designs times
/// benchmarks scanned, per second since `started`.
fn record_scan(designs: usize, started: Instant) {
    let seconds = started.elapsed().as_secs_f64();
    if designs > 0 && seconds > 0.0 {
        udse_obs::metrics::gauge("query.designs_per_sec").set(designs as f64 / seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::tests::TinyOracle;

    fn engine() -> Engine {
        let config = StudyConfig::quick();
        let suite = TrainedSuite::train(&TinyOracle, &config).unwrap();
        Engine::new(suite, &config)
    }

    #[test]
    fn point_query_matches_uncompiled_models_bitwise() {
        let e = engine();
        let p = DesignSpace::paper().decode(123_456).unwrap();
        let r = e.execute(&Query::point(Benchmark::Mcf, p)).unwrap();
        let m = r.point_metrics().unwrap();
        let direct = e.suite().models(Benchmark::Mcf).predict_metrics(&p);
        assert_eq!(m.bips.to_bits(), direct.bips.to_bits());
        assert_eq!(m.watts.to_bits(), direct.watts.to_bits());
    }

    #[test]
    fn unconstrained_optima_match_sequential_max_by() {
        let e = engine();
        let r = e.execute(&Query::optimum(None, vec![], e.stride())).unwrap();
        let entries = r.optima().unwrap();
        assert_eq!(entries.len(), 9);
        let sweep = e.full_sweep();
        for (b, entry) in Benchmark::ALL.iter().zip(entries) {
            assert_eq!(entry.benchmark, Some(*b));
            let reference = sweep[b.id() as usize]
                .iter()
                .max_by(|a, b| {
                    a.predicted.bips_cubed_per_watt().total_cmp(&b.predicted.bips_cubed_per_watt())
                })
                .unwrap();
            assert_eq!(entry.point, reference.point, "argmax for {b:?}");
            assert_eq!(entry.score.to_bits(), reference.predicted.bips_cubed_per_watt().to_bits());
        }
    }

    #[test]
    fn constrained_optimum_respects_pushdown_and_matches_filtered_scan() {
        let e = engine();
        let constraints =
            vec![Constraint::at_most(Axis::Dl1Kb, 64.0), Constraint::exactly(Axis::DepthFo4, 18.0)];
        let r = e.execute(&Query::optimum(Some(Benchmark::Jbb), constraints.clone(), e.stride()));
        let r = r.unwrap();
        let entry = &r.optima().unwrap()[0];
        assert!(entry.point.dl1_kb() <= 64);
        assert_eq!(entry.point.fo4(), 18);
        let sweep = e.full_sweep();
        let reference = sweep[Benchmark::Jbb.id() as usize]
            .iter()
            .filter(|d| d.point.dl1_kb() <= 64 && d.point.fo4() == 18)
            .max_by(|a, b| {
                a.predicted.bips_cubed_per_watt().total_cmp(&b.predicted.bips_cubed_per_watt())
            })
            .unwrap();
        assert_eq!(entry.point, reference.point);
        assert_eq!(entry.predicted.unwrap().bips.to_bits(), reference.predicted.bips.to_bits());
    }

    #[test]
    fn suite_relative_optimum_matches_bucketed_max() {
        let e = engine();
        let refs: Vec<f64> = (1..=9).map(|i| i as f64 * 0.5).collect();
        let r = e
            .execute(&Query::suite_optimum(
                refs.clone(),
                vec![Constraint::exactly(Axis::DepthFo4, 21.0)],
                e.stride(),
            ))
            .unwrap();
        let entry = &r.optima().unwrap()[0];
        assert_eq!(entry.benchmark, None);
        assert!(entry.predicted.is_none());
        assert_eq!(entry.point.fo4(), 21);
        // Reference: walk-order scan over the materialized sweep with the
        // same last-maximal-wins rule.
        let sweep = e.full_sweep();
        let len = sweep[0].len();
        let mut best: Option<(DesignPoint, f64)> = None;
        for i in 0..len {
            let p = sweep[0][i].point;
            if p.fo4() != 21 {
                continue;
            }
            let score = sweep
                .iter()
                .zip(&refs)
                .map(|(d, &r)| d[i].predicted.bips_cubed_per_watt() / r)
                .sum::<f64>()
                / 9.0;
            if best.as_ref().is_none_or(|cur| score.total_cmp(&cur.1) != Ordering::Less) {
                best = Some((p, score));
            }
        }
        let (point, score) = best.unwrap();
        assert_eq!(entry.point, point);
        assert_eq!(entry.score.to_bits(), score.to_bits());
    }

    #[test]
    fn pareto_slice_matches_direct_frontier() {
        let e = engine();
        let r = e.execute(&Query::pareto(Benchmark::Ammp, vec![], e.stride(), 40)).unwrap();
        let rows = r.frontier().unwrap();
        assert!(!rows.is_empty());
        // Monotone skyline by construction.
        for w in rows.windows(2) {
            assert!(w[0].predicted.delay_seconds() < w[1].predicted.delay_seconds());
            assert!(w[0].predicted.watts > w[1].predicted.watts);
        }
        let sweep = e.full_sweep();
        let designs = &sweep[Benchmark::Ammp.id() as usize];
        let pts: Vec<(f64, f64)> =
            designs.iter().map(|d| (d.predicted.delay_seconds(), d.predicted.watts)).collect();
        let frontier = ParetoFrontier::from_points(&pts, 40);
        assert_eq!(rows.len(), frontier.indices().len());
        for (row, &i) in rows.iter().zip(frontier.indices()) {
            assert_eq!(row.point, designs[i].point);
        }
    }

    #[test]
    fn top_k_is_sorted_and_bounded() {
        let e = engine();
        let r = e
            .execute(&Query::top_k(
                Benchmark::Mesa,
                vec![Constraint::at_least(Axis::Width, 4.0)],
                e.stride(),
                10,
            ))
            .unwrap();
        let rows = r.ranking().unwrap();
        assert_eq!(rows.len(), 10);
        for w in rows.windows(2) {
            assert!(w[0].predicted.bips_cubed_per_watt() >= w[1].predicted.bips_cubed_per_watt());
        }
        for row in rows {
            assert!(row.point.decode_width() >= 4);
        }
    }

    #[test]
    fn what_if_and_axis_sweep_use_uncompiled_models() {
        let e = engine();
        let space = DesignSpace::exploration();
        let a = space.decode(0).unwrap();
        let b = space.decode(77_777).unwrap();
        let delta = e.execute(&Query::what_if(Benchmark::Gcc, a, b)).unwrap();
        let (base, alt) = delta.delta().unwrap();
        let models = e.suite().models(Benchmark::Gcc);
        assert_eq!(base.predicted.bips.to_bits(), models.predict_metrics(&a).bips.to_bits());
        assert_eq!(alt.predicted.watts.to_bits(), models.predict_metrics(&b).watts.to_bits());

        let sweep = e.execute(&Query::axis_sweep(Benchmark::Gcc, a, Axis::L2Kb)).unwrap();
        let rows = sweep.sweep_rows().unwrap();
        assert_eq!(rows.len(), 5, "five L2 sizes");
        let l2s: Vec<u32> = rows.iter().map(|r| r.point.l2_kb()).collect();
        assert_eq!(l2s, vec![256, 512, 1024, 2048, 4096]);
        for r in rows {
            // Only the swept axis varies.
            assert_eq!(r.point.fo4(), a.fo4());
            assert_eq!(r.point.dl1_kb(), a.dl1_kb());
        }
    }

    #[test]
    fn cache_serves_repeats_as_the_same_arc() {
        let e = engine();
        let q = Query::optimum(None, vec![], e.stride());
        let hits0 = udse_obs::metrics::counter("query.cache.hits").get();
        let first = e.execute(&q).unwrap();
        let second = e.execute(&q).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "warm result is the cached Arc");
        assert!(udse_obs::metrics::counter("query.cache.hits").get() > hits0);
        // A one-benchmark optimum scans that benchmark alone and finds
        // the all-nine answer's entry for it.
        let one = e.execute(&Query::optimum(Some(Benchmark::Twolf), vec![], e.stride())).unwrap();
        assert_eq!(one.optima().unwrap()[0].point, first.optima().unwrap()[8].point);
    }

    #[test]
    fn point_queries_leave_the_result_cache_untouched() {
        let e = engine();
        e.execute(&Query::optimum(None, vec![], e.stride())).unwrap();
        let held = |e: &Engine| {
            let cache = e.cache.lock().unwrap();
            (cache.entries.len(), cache.used)
        };
        let before = held(&e);
        assert_eq!(before.0, 1, "the scan is cached");
        let space = DesignSpace::exploration();
        for i in 0..10_000u64 {
            let p = space.decode(i * 26 % space.len()).unwrap();
            e.execute(&Query::point(Benchmark::ALL[(i % 9) as usize], p)).unwrap();
        }
        assert_eq!(held(&e), before, "10,000 point queries stored nothing");
    }

    #[test]
    fn zero_budget_disables_caching_without_changing_answers() {
        let config = StudyConfig::quick();
        let suite = TrainedSuite::train(&TinyOracle, &config).unwrap();
        let cold = Engine::new(suite.clone(), &config).with_result_budget(0);
        let warm = Engine::new(suite, &config);
        let q = Query::optimum(None, vec![], config.eval_stride);
        let a = cold.execute(&q).unwrap();
        let b = cold.execute(&q).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "budget 0 never caches");
        let c = warm.execute(&q).unwrap();
        assert_eq!(
            a.to_json().to_string_pretty(),
            c.to_json().to_string_pretty(),
            "cold and warm engines agree byte-for-byte"
        );
        assert_eq!(a.to_json().to_string_pretty(), b.to_json().to_string_pretty());
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut cache = ResultCache::new(400);
        let r = Arc::new(QueryResult::Optima { entries: vec![] });
        // Each entry costs key.len() + 64 overhead.
        cache.insert("a".repeat(100), Arc::clone(&r));
        cache.insert("b".repeat(100), Arc::clone(&r));
        assert!(cache.get(&"a".repeat(100)).is_some(), "touch `a` so `b` is LRU");
        cache.insert("c".repeat(100), Arc::clone(&r));
        assert!(cache.get(&"b".repeat(100)).is_none(), "`b` evicted");
        assert!(cache.get(&"a".repeat(100)).is_some());
        assert!(cache.get(&"c".repeat(100)).is_some());
        // An entry larger than the budget is passed through, not stored.
        cache.insert("d".repeat(1000), r);
        assert!(cache.get(&"d".repeat(1000)).is_none());
    }

    #[test]
    fn unsatisfiable_constraints_and_bad_shapes_error() {
        let e = engine();
        let err = e
            .execute(&Query::optimum(None, vec![Constraint::at_most(Axis::Dl1Kb, 1.0)], 1))
            .unwrap_err();
        assert!(err.contains("no dl1_kb level"), "{err}");
        let err = e
            .execute(&Query::optimum(
                None,
                vec![
                    Constraint::at_least(Axis::L2Kb, 2048.0),
                    Constraint::at_most(Axis::L2Kb, 512.0),
                ],
                1,
            ))
            .unwrap_err();
        assert!(err.contains("exclude every level"), "{err}");
        let err = e.execute(&Query::suite_optimum(vec![1.0; 3], vec![], 1)).unwrap_err();
        assert!(err.contains("9 references"), "{err}");
        let err = e
            .execute(&Query::ConstrainedOptimum {
                benchmark: Some(Benchmark::Ammp),
                objective: Objective::SuiteRelative(vec![1.0; 9]),
                constraints: vec![],
                stride: 1,
            })
            .unwrap_err();
        assert!(err.contains("bench must be null"), "{err}");
        assert!(e.execute(&Query::top_k(Benchmark::Ammp, vec![], 500, 0)).is_err());
        assert!(e.execute(&Query::pareto(Benchmark::Ammp, vec![], 500, 0)).is_err());
    }

    #[test]
    fn pushdown_maps_values_to_level_bounds() {
        let space = DesignSpace::exploration();
        let mask = Mask::pushdown(
            &space,
            &[
                Constraint::at_most(Axis::Dl1Kb, 64.0),
                Constraint::at_least(Axis::Il1Kb, 32.0),
                Constraint::exactly(Axis::DepthFo4, 18.0),
            ],
        )
        .unwrap();
        assert_eq!(mask.lo[0], 2, "depth 18 is level 2 of 12..30");
        assert_eq!(mask.hi[0], 2);
        assert_eq!(mask.hi[5], 3, "DL1 64KB is level 3 of 8..128");
        assert_eq!(mask.lo[4], 1, "IL1 32KB is level 1 of 16..256");
        // Inclusive bounds: a point exactly at the cut passes.
        let mut idx = [2u8, 0, 0, 0, 1, 3, 0];
        assert!(mask.allows(&space.point(idx).unwrap()));
        idx[5] = 4;
        assert!(!mask.allows(&space.point(idx).unwrap()));
    }
}
