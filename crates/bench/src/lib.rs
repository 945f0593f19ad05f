//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `fig_*` / `table_*` function renders one artifact of the paper's
//! evaluation as plain text (and optionally CSV next to it), driven by a
//! shared [`Context`] that trains the regression models once. The
//! `repro` binary is a thin CLI over these functions; the criterion
//! benches in `benches/` measure the speed claims (model formulation and
//! prediction cost, simulation cost). The `udse-inspect` binary (over
//! [`inspect`]) summarizes, diffs, and trace-exports the run manifests
//! `repro --manifest` writes.
//!
//! # Examples
//!
//! ```no_run
//! use udse_bench::Context;
//!
//! let ctx = Context::new(true); // quick mode
//! println!("{}", udse_bench::figures::fig1(&ctx));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod context;
pub mod csv_export;
pub mod depth_figs;
pub mod extensions;
pub mod figures;
pub mod hetero_figs;
pub mod inspect;
pub mod plot_export;

pub use context::Context;
