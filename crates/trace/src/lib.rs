//! Synthetic benchmark workloads for the design space studies.
//!
//! The paper drives its Turandot simulations with sampled PowerPC traces of
//! SPECjbb and eight SPEC2000 benchmarks. Those traces are proprietary, so
//! this crate substitutes *statistical synthetic traces* — the same
//! technique the paper itself cites for workload reduction (Eeckhout \[4],
//! Nussbaum \[17]): each benchmark is described by a [`WorkloadProfile`]
//! capturing
//!
//! - instruction mix (fixed-point / floating-point / load / store / branch),
//! - dependency-distance distributions (instruction-level parallelism),
//! - a static branch pool with per-branch taken bias (predictability),
//! - data reuse-distance distribution and footprint (cache locality),
//! - code reuse-distance distribution and footprint (I-cache locality),
//!
//! and a deterministic [`Trace`] of concrete instructions is generated from
//! the profile. The profiles are calibrated so the paper's qualitative
//! contrasts hold (e.g. `mcf` memory-bound with a large L2 appetite, `gzip`
//! compute-bound with a small footprint, `ammp` ILP-rich).
//!
//! # Examples
//!
//! ```
//! use udse_trace::{Benchmark, Trace};
//!
//! let trace = Trace::generate(Benchmark::Mcf, 1_000, 7);
//! assert_eq!(trace.len(), 1_000);
//! // Generation is deterministic for a given (benchmark, length, seed).
//! let again = Trace::generate(Benchmark::Mcf, 1_000, 7);
//! assert_eq!(trace.instructions()[0], again.instructions()[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benchmark;
mod branches;
mod characterize;
mod generator;
mod locality;
mod profile;
mod trace_data;

pub use benchmark::Benchmark;
pub use branches::BranchPool;
pub use characterize::{characterize, CharacterReport, Deviation};
pub use generator::TraceGenerator;
pub use locality::ReuseStream;
pub use profile::{InstructionMix, WorkloadProfile};
pub use trace_data::{OpClass, Trace, TraceInst, TraceStats};
