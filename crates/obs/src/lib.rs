//! # udse-obs — observability substrate for the sim→fit→sweep pipeline
//!
//! The paper's argument is that regression models replace opaque,
//! hours-long simulation with fast prediction; this crate makes the
//! pipeline itself transparent so that claim is measurable. It has zero
//! external dependencies (the build must work offline) and provides these
//! facilities:
//!
//! - [`span`] — hierarchical RAII wall-clock timers feeding a
//!   thread-safe global collector ([`span::enter`], [`span::Collector`]);
//!   per-thread stacks merge into one global path table, worker threads
//!   inherit their spawner's path via [`span::adopt`], and
//!   [`span::folded`] exports inferno-compatible folded stacks; every
//!   span also carries per-thread resource deltas (allocations, bytes,
//!   thread CPU time) sampled from [`alloc`] and [`cputime`];
//! - [`alloc`] — a counting `#[global_allocator]` wrapper
//!   ([`alloc::CountingAlloc`], opt-in per binary) whose process-wide
//!   and per-thread counters feed the manifest `resources` section,
//!   span attribution, and the [`alloc::assert_no_alloc`] test guard;
//! - [`cputime`] — best-effort probes: thread/process CPU time from the
//!   CPU clocks, current and peak RSS from `/proc`;
//! - [`pool`] — a scoped-thread work pool ([`pool::map`]) with
//!   deterministic, input-ordered results; the oracle layer fans
//!   simulation batches through it and the fused sweep its
//!   [`pool::chunk_ranges`], sized by [`pool::set_max_workers`]
//!   (`repro --jobs N`);
//! - [`metrics`] — a registry of atomic [`metrics::Counter`]s and
//!   [`metrics::Gauge`]s (simulated instructions, oracle cache
//!   hits/misses, Cholesky→QR fallbacks, sweep throughput, …);
//! - [`log`] — leveled structured logging to stderr, gated by the
//!   `UDSE_LOG` environment variable (`off`, `error`, `warn`, `info`,
//!   `debug`, `trace`);
//! - [`manifest`] — a [`manifest::RunManifest`] capturing per-artifact
//!   wall time, metric snapshots, span totals, model quality, seeds, and
//!   configuration, serialized with the hand-rolled JSON writer/parser in
//!   [`json`] (and read back by [`manifest::ParsedManifest`]);
//! - [`quality`] — model-quality telemetry: per-benchmark and pooled
//!   prediction-error quantiles, signed bias, and R² accumulated in a
//!   global [`quality::Collector`] and persisted in the manifest;
//! - [`trace`](mod@trace) — an opt-in ([`trace::enable`], `repro --trace`)
//!   buffer of discrete span events, written as Chrome `trace_event` JSON
//!   (Perfetto-loadable).
//!
//! # Conventions
//!
//! Metric names are dotted lowercase paths, namespaced by subsystem:
//! `sim.instructions`, `oracle.cache.hits`, `regress.cholesky_fallbacks`,
//! `sweep.designs_per_sec`. Span names are short path segments; nesting
//! produces `repro/fig3/sweep`-style paths in the collector.
//!
//! # Examples
//!
//! ```
//! use udse_obs::{metrics, span};
//!
//! let registry = metrics::Registry::new();
//! registry.counter("sim.instructions").add(20_000);
//! {
//!     let _outer = span::enter("study");
//!     let _inner = span::enter("sweep");
//!     // timed work ...
//! }
//! assert_eq!(registry.counter("sim.instructions").get(), 20_000);
//! ```

pub mod alloc;
pub mod cputime;
pub mod json;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod pool;
pub mod quality;
pub mod span;
pub mod trace;

pub use alloc::CountingAlloc;
pub use json::Json;

// The crate's own unit-test binary runs under the counting allocator so
// the `alloc`/`span` tests exercise real counting, exactly as the
// `repro` and `udse-inspect` binaries do in production.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: CountingAlloc = CountingAlloc::new();
pub use log::Level;
pub use manifest::{ParsedManifest, RunManifest};
pub use metrics::Registry;
pub use quality::QualityRecord;
pub use span::SpanGuard;
pub use trace::TraceEvent;
