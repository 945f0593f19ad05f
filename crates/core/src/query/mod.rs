//! The unified query layer beneath the study stack.
//!
//! Every study and figure driver used to re-implement its own walk over
//! the same compiled model suite. This module factors that seam into a
//! first-class boundary:
//!
//! - [`Query`] — a closed vocabulary of design-space questions (point
//!   prediction, constrained optimum, Pareto slice, top-K ranking,
//!   what-if delta, 1-D axis sweep) with a canonical, versioned JSON
//!   serialization ([`Query::to_json`], [`Query::parse`]) that doubles as
//!   the wire format for the planned `udse-serve` daemon.
//! - [`Engine`] — owns the suite compiled into one
//!   [`crate::model::SuiteLanes`] kernel, the memoized full-space
//!   characterization, constrained scans that visit only the designs a
//!   query's constraints admit, and a byte-budgeted LRU of materialized
//!   scan results.
//!
//! The engine's answers are bitwise-identical to the per-study sweeps it
//! replaced: scanning queries read the same predictions the fused grid
//! walk produced, in walk order, with the same last-maximal-element-wins
//! tie-break, and point queries evaluate the exact (uncompiled) spline
//! models the validation studies always used.
//!
//! # Examples
//!
//! ```no_run
//! use udse_core::oracle::SimOracle;
//! use udse_core::query::{Axis, Constraint, Engine, Query};
//! use udse_core::studies::{StudyConfig, TrainedSuite};
//!
//! let config = StudyConfig::quick();
//! let suite = TrainedSuite::train(&SimOracle::new(), &config).unwrap();
//! let engine = Engine::new(suite, &config);
//! // "best bips^3/w with <= 64KB DL1 at depth 18"
//! let q = Query::optimum(
//!     Some(udse_trace::Benchmark::Mcf),
//!     vec![Constraint::at_most(Axis::Dl1Kb, 64.0), Constraint::exactly(Axis::DepthFo4, 18.0)],
//!     config.eval_stride,
//! );
//! let result = engine.execute(&q).unwrap();
//! println!("{}", result.to_json().to_string_pretty());
//! ```

mod engine;
mod json;

pub use engine::Engine;
pub use json::QUERY_SCHEMA_VERSION;

use udse_trace::Benchmark;

use crate::oracle::Metrics;
use crate::space::{DesignPoint, DesignSpace, DL1_VALUES, IL1_VALUES, L2_VALUES, WIDTH_VALUES};

/// One axis of the Table 1 design space, named by the physical quantity
/// constraints are written against (cache sizes in KB, depth in FO4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Pipeline depth in FO4 per stage.
    DepthFo4,
    /// Decode width in instructions per cycle.
    Width,
    /// General-purpose physical registers.
    Gpr,
    /// Fixed-point reservation stations.
    ResvFx,
    /// I-L1 cache size in KB.
    Il1Kb,
    /// D-L1 cache size in KB.
    Dl1Kb,
    /// L2 cache size in KB.
    L2Kb,
}

impl Axis {
    /// All seven axes in design-point index order
    /// (`depth, width, regs, resv, il1, dl1, l2`).
    pub const ALL: [Axis; 7] = [
        Axis::DepthFo4,
        Axis::Width,
        Axis::Gpr,
        Axis::ResvFx,
        Axis::Il1Kb,
        Axis::Dl1Kb,
        Axis::L2Kb,
    ];

    /// The wire-format name of the axis.
    pub fn name(self) -> &'static str {
        match self {
            Axis::DepthFo4 => "depth_fo4",
            Axis::Width => "width",
            Axis::Gpr => "gpr",
            Axis::ResvFx => "resv_fx",
            Axis::Il1Kb => "il1_kb",
            Axis::Dl1Kb => "dl1_kb",
            Axis::L2Kb => "l2_kb",
        }
    }

    /// Looks an axis up by its wire-format name.
    pub fn by_name(name: &str) -> Option<Axis> {
        Axis::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The axis position in the seven-element design-point index tuple.
    pub fn slot(self) -> usize {
        match self {
            Axis::DepthFo4 => 0,
            Axis::Width => 1,
            Axis::Gpr => 2,
            Axis::ResvFx => 3,
            Axis::Il1Kb => 4,
            Axis::Dl1Kb => 5,
            Axis::L2Kb => 6,
        }
    }

    /// The axis's physical value at one design point.
    pub fn value(self, p: &DesignPoint) -> f64 {
        match self {
            Axis::DepthFo4 => p.fo4() as f64,
            Axis::Width => p.decode_width() as f64,
            Axis::Gpr => p.gpr() as f64,
            Axis::ResvFx => p.resv_fx() as f64,
            Axis::Il1Kb => p.il1_kb() as f64,
            Axis::Dl1Kb => p.dl1_kb() as f64,
            Axis::L2Kb => p.l2_kb() as f64,
        }
    }

    /// The axis's physical value at grid level `level` of `space`. Every
    /// axis's values are strictly increasing in the level index, which is
    /// what lets value constraints push down to index bounds.
    pub fn level_value(self, space: &DesignSpace, level: u8) -> f64 {
        match self {
            Axis::DepthFo4 => space.depths()[level as usize] as f64,
            Axis::Width => WIDTH_VALUES[level as usize].0 as f64,
            Axis::Gpr => (40 + 10 * level as u32) as f64,
            Axis::ResvFx => (10 + 2 * level as u32) as f64,
            Axis::Il1Kb => IL1_VALUES[level as usize] as f64,
            Axis::Dl1Kb => DL1_VALUES[level as usize] as f64,
            Axis::L2Kb => L2_VALUES[level as usize] as f64,
        }
    }
}

/// An inclusive bound on one axis's physical value. A missing bound is
/// unconstrained on that side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// The constrained axis.
    pub axis: Axis,
    /// Inclusive lower bound on the physical value.
    pub min: Option<f64>,
    /// Inclusive upper bound on the physical value.
    pub max: Option<f64>,
}

impl Constraint {
    /// `axis <= value`.
    pub fn at_most(axis: Axis, value: f64) -> Self {
        Constraint { axis, min: None, max: Some(value) }
    }

    /// `axis >= value`.
    pub fn at_least(axis: Axis, value: f64) -> Self {
        Constraint { axis, min: Some(value), max: None }
    }

    /// `axis == value`.
    pub fn exactly(axis: Axis, value: f64) -> Self {
        Constraint { axis, min: Some(value), max: Some(value) }
    }
}

/// What a constrained-optimum query maximizes.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Per-benchmark `bips^3/w` efficiency — one optimum per requested
    /// benchmark.
    Efficiency,
    /// Suite-average relative efficiency: the mean over benchmarks of
    /// `bips^3/w` divided by the supplied per-benchmark reference (in
    /// [`Benchmark::ALL`] order). This is the depth study's bound
    /// objective; it aggregates the suite, so it yields one optimum.
    SuiteRelative(Vec<f64>),
}

/// A design-space question the [`Engine`] can answer. Serializes to the
/// canonical versioned JSON wire format (see [`Query::to_json`] and
/// [`Query::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Predicted `(bips, watts)` at one design point.
    Point {
        /// The benchmark whose models answer.
        benchmark: Benchmark,
        /// The design point (paper or exploration space).
        point: DesignPoint,
    },
    /// The design maximizing the objective over the strided exploration
    /// walk, subject to axis constraints.
    ConstrainedOptimum {
        /// `Some(b)`: that benchmark's optimum. `None` with
        /// [`Objective::Efficiency`]: all nine per-benchmark optima from
        /// one scan. [`Objective::SuiteRelative`] requires `None`.
        benchmark: Option<Benchmark>,
        /// The maximized objective.
        objective: Objective,
        /// Axis constraints, pushed down to index bounds before the scan.
        constraints: Vec<Constraint>,
        /// Evaluation stride (1 = exhaustive; see
        /// [`crate::studies::strided_points`]).
        stride: usize,
    },
    /// The binned Pareto frontier in `(delay, power)` over the
    /// constrained design set.
    ParetoSlice {
        /// The benchmark characterized.
        benchmark: Benchmark,
        /// Axis constraints limiting the candidate set.
        constraints: Vec<Constraint>,
        /// Evaluation stride.
        stride: usize,
        /// Delay discretization bins (paper §4.2).
        bins: usize,
    },
    /// The `k` most efficient designs in the constrained set, best first.
    TopK {
        /// The benchmark ranked.
        benchmark: Benchmark,
        /// Axis constraints limiting the candidate set.
        constraints: Vec<Constraint>,
        /// Evaluation stride.
        stride: usize,
        /// Number of designs to return.
        k: usize,
    },
    /// Predicted metrics of two designs side by side, with their delta.
    WhatIf {
        /// The benchmark evaluated.
        benchmark: Benchmark,
        /// The reference design.
        base: DesignPoint,
        /// The contemplated alternative.
        alternative: DesignPoint,
    },
    /// Predictions along every level of one axis, the other six axes held
    /// at the base point.
    AxisSweep {
        /// The benchmark evaluated.
        benchmark: Benchmark,
        /// The design point supplying the fixed axes.
        base: DesignPoint,
        /// The swept axis.
        axis: Axis,
    },
}

impl Query {
    /// Point-prediction query.
    pub fn point(benchmark: Benchmark, point: DesignPoint) -> Self {
        Query::Point { benchmark, point }
    }

    /// Constrained `bips^3/w` optimum (`benchmark = None` answers all
    /// nine from one scan).
    pub fn optimum(
        benchmark: Option<Benchmark>,
        constraints: Vec<Constraint>,
        stride: usize,
    ) -> Self {
        Query::ConstrainedOptimum {
            benchmark,
            objective: Objective::Efficiency,
            constraints,
            stride,
        }
    }

    /// Constrained suite-average relative-efficiency optimum (the depth
    /// study's bound objective; `refs` in [`Benchmark::ALL`] order).
    pub fn suite_optimum(refs: Vec<f64>, constraints: Vec<Constraint>, stride: usize) -> Self {
        Query::ConstrainedOptimum {
            benchmark: None,
            objective: Objective::SuiteRelative(refs),
            constraints,
            stride,
        }
    }

    /// Pareto-slice query.
    pub fn pareto(
        benchmark: Benchmark,
        constraints: Vec<Constraint>,
        stride: usize,
        bins: usize,
    ) -> Self {
        Query::ParetoSlice { benchmark, constraints, stride, bins }
    }

    /// Top-K ranking query.
    pub fn top_k(
        benchmark: Benchmark,
        constraints: Vec<Constraint>,
        stride: usize,
        k: usize,
    ) -> Self {
        Query::TopK { benchmark, constraints, stride, k }
    }

    /// What-if delta query.
    pub fn what_if(benchmark: Benchmark, base: DesignPoint, alternative: DesignPoint) -> Self {
        Query::WhatIf { benchmark, base, alternative }
    }

    /// Axis-sweep query.
    pub fn axis_sweep(benchmark: Benchmark, base: DesignPoint, axis: Axis) -> Self {
        Query::AxisSweep { benchmark, base, axis }
    }
}

/// One design with its predicted metrics — the row type query results
/// are built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedPoint {
    /// The design point.
    pub point: DesignPoint,
    /// Predicted `(bips, watts)`.
    pub predicted: Metrics,
}

/// One constrained-optimum winner.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimumEntry {
    /// The benchmark this optimum belongs to, or `None` for the
    /// suite-aggregate objective.
    pub benchmark: Option<Benchmark>,
    /// The winning design.
    pub point: DesignPoint,
    /// Predicted metrics at the winner (absent for aggregate objectives,
    /// which score across benchmarks).
    pub predicted: Option<Metrics>,
    /// The objective value at the winner.
    pub score: f64,
}

/// The materialized answer to a [`Query`], with the same canonical
/// versioned JSON serialization discipline as the query itself.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Answer to [`Query::Point`].
    Point {
        /// The benchmark evaluated.
        benchmark: Benchmark,
        /// The point and its prediction.
        row: PredictedPoint,
    },
    /// Answer to [`Query::ConstrainedOptimum`].
    Optima {
        /// One winner per requested benchmark (or one aggregate winner).
        entries: Vec<OptimumEntry>,
    },
    /// Answer to [`Query::ParetoSlice`]: frontier designs by increasing
    /// predicted delay.
    Frontier {
        /// The benchmark characterized.
        benchmark: Benchmark,
        /// The non-dominated designs.
        designs: Vec<PredictedPoint>,
    },
    /// Answer to [`Query::TopK`]: best first, walk order among ties.
    Ranking {
        /// The benchmark ranked.
        benchmark: Benchmark,
        /// The top designs.
        entries: Vec<PredictedPoint>,
    },
    /// Answer to [`Query::WhatIf`].
    Delta {
        /// The benchmark evaluated.
        benchmark: Benchmark,
        /// The reference design's prediction.
        base: PredictedPoint,
        /// The alternative design's prediction.
        alternative: PredictedPoint,
    },
    /// Answer to [`Query::AxisSweep`]: one row per axis level, in level
    /// order.
    Sweep {
        /// The benchmark evaluated.
        benchmark: Benchmark,
        /// The swept axis.
        axis: Axis,
        /// Predictions per level.
        rows: Vec<PredictedPoint>,
    },
}

impl QueryResult {
    /// The predicted metrics of a [`QueryResult::Point`] answer.
    pub fn point_metrics(&self) -> Option<Metrics> {
        match self {
            QueryResult::Point { row, .. } => Some(row.predicted),
            _ => None,
        }
    }

    /// The winners of a [`QueryResult::Optima`] answer.
    pub fn optima(&self) -> Option<&[OptimumEntry]> {
        match self {
            QueryResult::Optima { entries } => Some(entries),
            _ => None,
        }
    }

    /// The rows of a [`QueryResult::Frontier`] answer.
    pub fn frontier(&self) -> Option<&[PredictedPoint]> {
        match self {
            QueryResult::Frontier { designs, .. } => Some(designs),
            _ => None,
        }
    }

    /// The rows of a [`QueryResult::Ranking`] answer.
    pub fn ranking(&self) -> Option<&[PredictedPoint]> {
        match self {
            QueryResult::Ranking { entries, .. } => Some(entries),
            _ => None,
        }
    }

    /// The `(base, alternative)` rows of a [`QueryResult::Delta`] answer.
    pub fn delta(&self) -> Option<(PredictedPoint, PredictedPoint)> {
        match self {
            QueryResult::Delta { base, alternative, .. } => Some((*base, *alternative)),
            _ => None,
        }
    }

    /// The rows of a [`QueryResult::Sweep`] answer.
    pub fn sweep_rows(&self) -> Option<&[PredictedPoint]> {
        match self {
            QueryResult::Sweep { rows, .. } => Some(rows),
            _ => None,
        }
    }

    /// Approximate in-memory footprint, used by the engine's
    /// byte-budgeted result cache.
    pub fn approx_bytes(&self) -> usize {
        const OVERHEAD: usize = 64;
        let rows = |v: &[PredictedPoint]| std::mem::size_of_val(v);
        OVERHEAD
            + match self {
                QueryResult::Point { .. } => std::mem::size_of::<PredictedPoint>(),
                QueryResult::Optima { entries } => {
                    entries.len() * std::mem::size_of::<OptimumEntry>()
                }
                QueryResult::Frontier { designs, .. } => rows(designs),
                QueryResult::Ranking { entries, .. } => rows(entries),
                QueryResult::Delta { .. } => 2 * std::mem::size_of::<PredictedPoint>(),
                QueryResult::Sweep { rows: r, .. } => rows(r),
            }
    }
}
