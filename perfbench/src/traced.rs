//! Instrumentation for the traced runs: benchmark-owned timers around the
//! public calls into each layer. The untraced runs use the same code with
//! the timers switched off.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use udse_core::oracle::{Metrics, Oracle, SimOracle};
use udse_core::space::DesignPoint;
use udse_sim::{
    BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, Simulator, StreamScratch,
    TracePreflight,
};
use udse_trace::Benchmark;

use crate::measure::{CpuMark, Layers};
use crate::Report;

thread_local! {
    static SCRATCH: RefCell<StreamScratch> = RefCell::new(StreamScratch::default());
}

/// Seconds and counts the decomposed oracle accumulated.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTally {
    /// Trace generation, all of it in set-up (`generate_traces`).
    pub trace_s: f64,
    pub preflight_s: f64,
    pub resolve_s: f64,
    pub resolves: u64,
    pub stream_s: f64,
    pub stream_insts: u64,
}

/// The simulation oracle taken apart into its public `udse-sim` calls —
/// `SimOracle::trace` / `SimOracle::preflight`, `CacheStreams::resolve` +
/// `BranchStream::resolve` once per distinct sub-config, and
/// `Simulator::run_streamed_with` per job — each timed on its own. It
/// keeps every resolved stream (no byte budget) and records every result,
/// so the run can check them against the untraced oracle bit for bit.
pub struct DecomposedSim {
    base: SimOracle,
    cache: RwLock<HashMap<(Benchmark, CacheSubConfig), Arc<CacheStreams>>>,
    branch: RwLock<HashMap<(Benchmark, BhtSubConfig), Arc<BranchStream>>>,
    tally: Mutex<SimTally>,
    results: Mutex<Vec<((Benchmark, DesignPoint), Metrics)>>,
}

impl DecomposedSim {
    pub fn new(base: SimOracle) -> Self {
        DecomposedSim {
            base,
            cache: RwLock::new(HashMap::new()),
            branch: RwLock::new(HashMap::new()),
            tally: Mutex::new(SimTally::default()),
            results: Mutex::new(Vec::new()),
        }
    }

    /// Generates every benchmark's trace through `SimOracle::trace`,
    /// timing it as the trace layer. Set-up calls this, so evaluations
    /// find their traces ready.
    pub fn generate_traces(&self) {
        let started = Instant::now();
        for b in Benchmark::ALL {
            std::hint::black_box(self.base.trace(b));
        }
        self.tally.lock().expect("tally lock").trace_s += started.elapsed().as_secs_f64();
    }

    pub fn tally(&self) -> SimTally {
        *self.tally.lock().expect("tally lock")
    }

    /// Every `(job, result)` this oracle simulated, in evaluation order.
    pub fn take_results(&self) -> Vec<((Benchmark, DesignPoint), Metrics)> {
        std::mem::take(&mut *self.results.lock().expect("results lock"))
    }
}

impl Oracle for DecomposedSim {
    fn evaluate(&self, benchmark: Benchmark, point: &DesignPoint) -> Metrics {
        self.evaluate_many(&[(benchmark, *point)])[0]
    }

    fn evaluate_many(&self, jobs: &[(Benchmark, DesignPoint)]) -> Vec<Metrics> {
        let mut t = SimTally::default();

        let mut benches: Vec<Benchmark> = jobs.iter().map(|j| j.0).collect();
        benches.sort_by_key(|b| b.id());
        benches.dedup();
        let started = Instant::now();
        let pre: HashMap<Benchmark, Arc<TracePreflight>> =
            benches.iter().map(|&b| (b, self.base.preflight(b))).collect();
        t.preflight_s = started.elapsed().as_secs_f64();

        let keys: Vec<((Benchmark, CacheSubConfig), (Benchmark, BhtSubConfig))> = jobs
            .iter()
            .map(|(b, p)| {
                let cfg = p.to_machine_config();
                ((*b, CacheSubConfig::of(&cfg)), (*b, BhtSubConfig::of(&cfg)))
            })
            .collect();
        let started = Instant::now();
        let cache_pending: Vec<(Benchmark, CacheSubConfig)> = {
            let have = self.cache.read().expect("stream map lock");
            let mut seen = HashSet::new();
            keys.iter().map(|k| k.0).filter(|k| !have.contains_key(k) && seen.insert(*k)).collect()
        };
        let branch_pending: Vec<(Benchmark, BhtSubConfig)> = {
            let have = self.branch.read().expect("stream map lock");
            let mut seen = HashSet::new();
            keys.iter().map(|k| k.1).filter(|k| !have.contains_key(k) && seen.insert(*k)).collect()
        };
        let cache_new = udse_obs::pool::map(&cache_pending, |(b, sub)| {
            Arc::new(CacheStreams::resolve(&pre[b], sub))
        });
        let branch_new = udse_obs::pool::map(&branch_pending, |(b, sub)| {
            Arc::new(BranchStream::resolve(&pre[b], sub))
        });
        t.resolves = (cache_pending.len() + branch_pending.len()) as u64;
        self.cache
            .write()
            .expect("stream map lock")
            .extend(cache_pending.into_iter().zip(cache_new));
        self.branch
            .write()
            .expect("stream map lock")
            .extend(branch_pending.into_iter().zip(branch_new));
        t.resolve_s = started.elapsed().as_secs_f64();

        let warmup = self.base.warmup_insts();
        let started = Instant::now();
        let cache = self.cache.read().expect("stream map lock");
        let branch = self.branch.read().expect("stream map lock");
        let out = udse_obs::pool::map(jobs, |(b, p)| {
            let cfg = p.to_machine_config();
            let (ck, bk) = ((*b, CacheSubConfig::of(&cfg)), (*b, BhtSubConfig::of(&cfg)));
            let sim = Simulator::new(cfg);
            let r = SCRATCH.with(|s| {
                sim.run_streamed_with(
                    &pre[b],
                    &cache[&ck],
                    &branch[&bk],
                    warmup,
                    &mut s.borrow_mut(),
                )
            });
            Metrics { bips: r.bips, watts: r.watts }
        });
        t.stream_s = started.elapsed().as_secs_f64();
        t.stream_insts = (jobs.len() * self.base.trace_len()) as u64;
        drop((cache, branch));

        self.results.lock().expect("results lock").extend(jobs.iter().copied().zip(out.clone()));
        let mut tally = self.tally.lock().expect("tally lock");
        tally.preflight_s += t.preflight_s;
        tally.resolve_s += t.resolve_s;
        tally.resolves += t.resolves;
        tally.stream_s += t.stream_s;
        tally.stream_insts += t.stream_insts;
        out
    }
}

impl SimTally {
    /// Adds the simulation layers, and the oracle's own share of
    /// `oracle_wall_s`, to the layer table, and records their metrics.
    pub fn record(&self, oracle_wall_s: f64, layers: &mut Layers, report: &mut Report) {
        let stream_minst = self.stream_insts as f64 / self.stream_s / 1e6;
        layers.add("udse-trace generate", self.trace_s);
        layers.add("udse-sim preflight", self.preflight_s);
        layers.add("udse-sim resolve", self.resolve_s);
        layers.throughput("udse-sim resolve", self.resolves as f64 / self.resolve_s, "resolves/s");
        layers.add("udse-sim streamed core", self.stream_s);
        layers.throughput("udse-sim streamed core", stream_minst, "Minst/s");
        layers.add(
            "udse-core oracle",
            oracle_wall_s - (self.preflight_s + self.resolve_s + self.stream_s),
        );
        report.set("trace.generate_s", self.trace_s);
        report.set("sim.preflight_s", self.preflight_s);
        report.set("sim.resolve_s", self.resolve_s);
        report.set("sim.resolves", self.resolves as f64);
        report.set("sim.stream_minst_per_s", stream_minst);
    }
}

/// Records the model-build layers both engine-owning workloads time:
/// training minus its simulations, compilation and the full sweep.
pub fn record_build(layers: &Layers, report: &mut Report) {
    report.set("regress.fit_s", layers.self_s("udse-regress fit"));
    report.set("query.compile_s", layers.self_s("udse-core::query compile"));
    let sweep_s = layers.self_s("udse-core::query sweep");
    report.set("query.sweep_s", sweep_s);
    let designs = 9.0 * udse_core::space::DesignSpace::exploration().len() as f64;
    report.set("query.sweep_mdesigns_per_s", designs / sweep_s / 1e6);
}

/// Times every call into an oracle (the `udse-core::oracle` boundary),
/// so callers can subtract the oracle's share from the calls that nest it.
pub struct Timed<O> {
    inner: O,
    wall_s: Mutex<f64>,
}

impl<O: Oracle> Timed<O> {
    pub fn new(inner: O) -> Self {
        Timed { inner, wall_s: Mutex::new(0.0) }
    }

    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Wall seconds spent inside the oracle so far.
    pub fn wall_s(&self) -> f64 {
        *self.wall_s.lock().expect("oracle timer lock")
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        *self.wall_s.lock().expect("oracle timer lock") += started.elapsed().as_secs_f64();
        r
    }
}

impl<O: Oracle> Oracle for Timed<O> {
    fn evaluate(&self, benchmark: Benchmark, point: &DesignPoint) -> Metrics {
        self.timed(|| self.inner.evaluate(benchmark, point))
    }

    fn evaluate_many(&self, jobs: &[(Benchmark, DesignPoint)]) -> Vec<Metrics> {
        self.timed(|| self.inner.evaluate_many(jobs))
    }
}

/// Wall seconds the library's own spans named `suffix` (the end of their
/// path) have recorded so far in this process, read through the public
/// `udse_obs::span::global()` collector.
fn span_s(suffix: &str) -> f64 {
    udse_obs::span::global()
        .snapshot()
        .iter()
        .filter(|(path, _)| path == suffix || path.ends_with(&format!("/{suffix}")))
        .map(|(_, stat)| stat.total.as_secs_f64())
        .sum()
}

/// Library calls nested inside the top-level calls a [`Tracer`] times,
/// each timed by the span the library opens around it, with the layer row
/// their time goes to. A top-level call's self time excludes them.
const NESTED_SPANS: [(&str, &str); 2] = [
    // `Engine::execute`: the studies are clients of the query engine.
    ("query", "udse-core::query exec"),
    // `PaperModels::train_from_observations` x 9 inside `TrainedSuite::train`.
    ("train/fit", "udse-regress fit"),
];

/// Wraps benchmark timers around top-level layer calls when on; calls
/// straight through when off. A call's self time excludes the oracle time
/// nested inside it, read from `nested`, and the nested library calls of
/// [`NESTED_SPANS`], which get rows of their own.
pub struct Tracer<'a> {
    nested: Option<&'a dyn Fn() -> f64>,
    pub layers: Layers,
    /// `(layer, pool busy %)` per timed call.
    pub busy: Vec<(String, f64)>,
    /// `(layer, Engine::execute calls)` per timed call, from the
    /// `query.executed` counter.
    pub queries: Vec<(String, u64)>,
    workers: usize,
}

impl<'a> Tracer<'a> {
    pub fn off() -> Self {
        Tracer {
            nested: None,
            layers: Layers::default(),
            busy: Vec::new(),
            queries: Vec::new(),
            workers: 1,
        }
    }

    pub fn on(nested: &'a dyn Fn() -> f64) -> Self {
        let workers = udse_obs::pool::max_workers();
        Tracer {
            nested: Some(nested),
            layers: Layers::default(),
            busy: Vec::new(),
            queries: Vec::new(),
            workers,
        }
    }

    pub fn time<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        let Some(nested) = self.nested else { return f() };
        let executed = udse_obs::metrics::counter("query.executed");
        let (oracle_before, queries_before) = (nested(), executed.get());
        let spans_before = NESTED_SPANS.map(|(suffix, _)| span_s(suffix));
        let mark = CpuMark::now();
        let r = f();
        let (wall, cpu) = mark.elapsed();
        let mut self_s = wall - (nested() - oracle_before);
        for ((suffix, row), before) in NESTED_SPANS.iter().zip(spans_before) {
            let spent = span_s(suffix) - before;
            if spent > 0.0 {
                self.layers.add(row, spent);
                self_s -= spent;
            }
        }
        self.layers.add(layer, self_s);
        self.busy.push((layer.to_string(), 100.0 * cpu / (wall * self.workers as f64)));
        self.queries.push((layer.to_string(), executed.get() - queries_before));
        r
    }
}
