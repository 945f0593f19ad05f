//! Design space definition and the paper's three design-space studies.
//!
//! This crate is the application layer of the reproduction: it ties the
//! substrates together exactly the way the paper does.
//!
//! - [`space`] — the Table 1 design space: seven jointly-varied parameter
//!   groups whose Cartesian product has 375,000 points (sampling space)
//!   or 262,500 points (exploration space, depth restricted to
//!   12–30 FO4), with index bijections and uniform-at-random sampling.
//! - [`baseline`] — the POWER4-like Table 3 baseline.
//! - [`oracle`] — the ground-truth interface: simulate a design point for
//!   a benchmark and obtain `(bips, watts)`; [`oracle::SimOracle`] wraps
//!   the `udse-sim` simulator with per-benchmark trace caching.
//! - [`plan`] — evaluation plans: the batches the studies hand to the
//!   oracle as first-class values with stable job IDs.
//! - [`model`] — the paper-standard performance and power regression
//!   models (§3): `sqrt`/`log` response transforms, restricted cubic
//!   splines with 4 knots on strong predictors and 3 on weak ones, and
//!   the §3.2 interaction terms. Two prediction paths:
//!   [`model::PaperModels`] predicts any point from the spline models;
//!   [`model::SuiteLanes`] compiles a suite onto one space's grid for
//!   allocation-free grid walks.
//! - [`pareto`] — pareto-frontier construction in the power-delay space.
//! - [`query`] — the unified query layer: a serializable [`query::Query`]
//!   vocabulary (point prediction, constrained optimum, Pareto slice,
//!   top-K, what-if delta, axis sweep) executed by [`query::Engine`],
//!   which owns the compiled suite lanes, the memoized full-space
//!   characterization, constraint pushdown over the fused grid walk, and
//!   a byte-budgeted LRU of materialized results.
//! - [`studies`] — the three case studies (validation / pareto / pipeline
//!   depth / multiprocessor heterogeneity), each producing the data
//!   behind the corresponding figures and tables; all of them are thin
//!   clients of the query engine.
//!
//! # Examples
//!
//! ```no_run
//! use udse_core::model::PaperModels;
//! use udse_core::oracle::SimOracle;
//! use udse_core::space::DesignSpace;
//! use udse_trace::Benchmark;
//!
//! let space = DesignSpace::paper();
//! let oracle = SimOracle::with_trace_len(50_000);
//! let samples = space.sample_uar(300, 42);
//! let models = PaperModels::train(&oracle, Benchmark::Mcf, &samples).unwrap();
//! let best = DesignSpace::exploration()
//!     .iter()
//!     .max_by(|a, b| {
//!         models.predict_efficiency(a).total_cmp(&models.predict_efficiency(b))
//!     })
//!     .unwrap();
//! println!("predicted bips^3/w optimum: {best:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod model;
pub mod oracle;
pub mod pareto;
pub mod plan;
pub mod query;
pub mod report;
pub mod search;
pub mod space;
pub mod studies;

pub use model::PaperModels;
pub use oracle::{CachedOracle, Metrics, Oracle, SimOracle};
pub use pareto::ParetoFrontier;
pub use plan::EvalPlan;
pub use query::{Engine, Query, QueryResult};
pub use space::{DesignPoint, DesignSpace};
