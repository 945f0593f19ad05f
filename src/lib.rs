//! # udse — microarchitectural design space exploration via regression
//!
//! A reproduction of Lee & Brooks, *"Illustrative Design Space Studies with
//! Microarchitectural Regression Models"* (HPCA 2007), as a Rust workspace.
//!
//! This facade crate re-exports every sub-crate so examples and integration
//! tests can use a single dependency:
//!
//! - [`linalg`] — dense matrices, QR/Cholesky, least squares
//! - [`stats`] — quantiles, boxplots, error metrics, correlation
//! - [`trace`] — synthetic benchmark workload profiles and trace generation
//! - [`sim`] — cycle-based out-of-order superscalar simulator + power model
//! - [`regress`] — restricted cubic spline regression models
//! - [`cluster`] — K-means clustering
//! - [`core`] — Table 1 design space, baseline, and the three paper studies
//! - [`obs`] — observability: spans, metrics, `UDSE_LOG` logging, run manifests
//!
//! # Quickstart
//!
//! ```no_run
//! use udse::core::space::DesignSpace;
//! use udse::core::oracle::SimOracle;
//! use udse::core::model::PaperModels;
//! use udse::trace::Benchmark;
//!
//! // Sample the design space, simulate, and fit performance/power models.
//! let space = DesignSpace::paper();
//! let oracle = SimOracle::with_trace_len(20_000);
//! let samples = space.sample_uar(200, 42);
//! let models = PaperModels::train(&oracle, Benchmark::Gzip, &samples).unwrap();
//! let point = space.decode(12345).unwrap();
//! let predicted = models.predict_metrics(&point);
//! println!("predicted {:.3} bips at {:.1} W", predicted.bips, predicted.watts);
//! ```

pub use udse_cluster as cluster;
pub use udse_core as core;
pub use udse_linalg as linalg;
pub use udse_obs as obs;
pub use udse_regress as regress;
pub use udse_sim as sim;
pub use udse_stats as stats;
pub use udse_trace as trace;
