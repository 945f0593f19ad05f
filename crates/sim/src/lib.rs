//! Cycle-approximate out-of-order superscalar processor simulator with an
//! integrated power model.
//!
//! This crate is the reproduction's stand-in for the paper's
//! Turandot/PowerTimer infrastructure (§2.1): a trace-driven,
//! POWER4-flavoured machine model parameterized by every knob in the
//! paper's Table 1 design space —
//!
//! - pipeline depth in FO4 delays per stage (frequency, misprediction
//!   penalty, and fixed-wall-clock latencies all derive from it),
//! - pipeline width (decode bandwidth, load/store + store queues,
//!   functional-unit counts),
//! - physical register files (GPR/FPR/SPR),
//! - per-class reservation stations (branch, fixed-point, floating-point),
//! - I-L1 / D-L1 / L2 cache geometry with CACTI-style latency and energy
//!   scaling.
//!
//! The timing model is a dependence-driven scheduler in the style of
//! trace-driven research timers: every instruction's fetch, dispatch,
//! issue, completion, and commit cycles are computed subject to bandwidth,
//! resource-occupancy, dependence, and control-flow constraints. The power
//! model follows PowerTimer's structure: per-access energies (superlinear
//! in width for multi-ported arrays, near-linear for clustered functional
//! units), CACTI-like `sqrt(size)` cache access energy, latch/clock power
//! that grows with pipeline depth, and capacity-proportional leakage.
//!
//! # Examples
//!
//! ```
//! use udse_sim::{MachineConfig, Simulator};
//! use udse_trace::{Benchmark, Trace};
//!
//! let config = MachineConfig::power4_baseline();
//! let trace = Trace::generate(Benchmark::Gzip, 5_000, 1);
//! let result = Simulator::new(config).run(&trace);
//! assert!(result.bips > 0.0);
//! assert!(result.watts > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cache;
mod config;
mod engine;
mod power;
mod predictor;
mod preflight;
mod result;
mod stream;

pub use builder::MachineConfigBuilder;
pub use cache::{AccessOutcome, CacheHierarchy, SetAssocCache};
pub use config::{ConfigError, DerivedTiming, MachineConfig};
pub use engine::Simulator;
pub use power::{PowerBreakdown, PowerModel};
pub use predictor::BhtPredictor;
pub use preflight::{
    BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, TracePreflight, OUTCOME_L1,
    OUTCOME_L2, OUTCOME_MEMORY,
};
pub use result::{SimResult, StallBreakdown};
pub use stream::{run_streamed_lanes, LaneJob, StreamScratch};
