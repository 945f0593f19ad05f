//! Ground-truth evaluation of design points ("simulation" in the paper).
//!
//! Every oracle is `Send + Sync` (the trait requires it), and the batch
//! entry point [`Oracle::evaluate_many`] fans independent simulations out
//! across cores through the [`udse_obs::pool`] work pool. The pool
//! preserves input order and each simulation is a pure function of its
//! `(benchmark, point)` pair, so a parallel batch is bitwise-identical to
//! a sequential one — `repro --jobs 1` and `--jobs N` produce the same
//! numbers.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use udse_sim::{
    run_streamed_lanes, BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, Simulator,
    StreamScratch, TracePreflight,
};
use udse_trace::{Benchmark, Trace};

use crate::plan::EvalPlan;
use crate::space::DesignPoint;

/// The two responses the paper models for every design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Performance in billions of instructions per second.
    pub bips: f64,
    /// Chip power in watts.
    pub watts: f64,
}

impl Metrics {
    /// Execution delay in seconds for the reference one-billion
    /// instruction workload (the paper's delay axis).
    pub fn delay_seconds(&self) -> f64 {
        1.0 / self.bips
    }

    /// The paper's `bips^3 / w` efficiency metric.
    pub fn bips_cubed_per_watt(&self) -> f64 {
        self.bips.powi(3) / self.watts
    }
}

/// Anything that can produce ground-truth `(bips, watts)` for a design
/// point running a benchmark: the detailed simulator in this
/// reproduction, a cluster of Turandot instances in the paper.
///
/// Implementations must be `Send + Sync`: the study drivers batch
/// independent evaluations through [`Oracle::evaluate_many`], which runs
/// them on the [`udse_obs::pool`] worker threads.
pub trait Oracle: Send + Sync {
    /// Evaluates one design for one benchmark.
    fn evaluate(&self, benchmark: Benchmark, point: &DesignPoint) -> Metrics;

    /// Evaluates a batch of `(benchmark, point)` jobs, returning metrics
    /// in job order. The default implementation fans the jobs out across
    /// the work pool; order and values are identical to evaluating the
    /// jobs sequentially because each evaluation is independent.
    fn evaluate_many(&self, jobs: &[(Benchmark, DesignPoint)]) -> Vec<Metrics> {
        udse_obs::pool::map(jobs, |(b, p)| self.evaluate(*b, p))
    }

    /// Evaluates every job of an [`EvalPlan`], returning metrics in job-ID
    /// order. Equivalent to [`Oracle::evaluate_many`] on the plan's job
    /// list (oracles override the batch path, not this), plus the
    /// `plan.jobs` counter.
    fn evaluate_plan(&self, plan: &EvalPlan) -> Vec<Metrics> {
        udse_obs::metrics::counter("plan.jobs").add(plan.len() as u64);
        self.evaluate_many(plan.jobs())
    }

    /// Evaluates one design for every benchmark in the suite, in
    /// [`Benchmark::ALL`] order.
    fn evaluate_suite(&self, point: &DesignPoint) -> Vec<Metrics> {
        let jobs: Vec<(Benchmark, DesignPoint)> =
            Benchmark::ALL.iter().map(|&b| (b, *point)).collect();
        self.evaluate_many(&jobs)
    }
}

/// The detailed-simulation oracle: generates (and caches) one synthetic
/// trace per benchmark and runs the cycle simulator with a warmup
/// fraction discarded from statistics.
///
/// Evaluation is deterministic: the same `(benchmark, point)` always
/// yields the same metrics.
///
/// # Examples
///
/// ```
/// use udse_core::oracle::{Oracle, SimOracle};
/// use udse_core::space::DesignSpace;
/// use udse_trace::Benchmark;
///
/// let oracle = SimOracle::with_trace_len(5_000);
/// let p = DesignSpace::paper().decode(1234).unwrap();
/// let m = oracle.evaluate(Benchmark::Gzip, &p);
/// assert!(m.bips > 0.0 && m.watts > 0.0);
/// ```
#[derive(Debug)]
pub struct SimOracle {
    trace_len: usize,
    warmup_frac: f64,
    seed: u64,
    traces: RwLock<HashMap<Benchmark, Arc<Trace>>>,
    preflights: RwLock<HashMap<Benchmark, Arc<TracePreflight>>>,
    streams: RwLock<StreamStore>,
    precompute_hits: AtomicU64,
    precompute_misses: AtomicU64,
}

/// Default trace length for study-quality runs; long enough that L2-scale
/// reuse distances and predictor training are exercised past warmup.
pub const DEFAULT_TRACE_LEN: usize = 200_000;

/// Default byte budget for memoized outcome streams. The paper-scale
/// workload (9 traces x 125 cache sub-configs x ~0.1 bytes/instruction
/// of bit-packed outcomes over 200k instructions) fits comfortably; the
/// bound exists so enlarged spaces degrade to recomputation instead of
/// unbounded memory.
pub const DEFAULT_STREAM_BUDGET: usize = 256 << 20;

/// Key of one memoized entry, for FIFO eviction bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StreamKey {
    Cache(Benchmark, CacheSubConfig),
    Branch(Benchmark, BhtSubConfig),
}

/// Bounded store of resolved outcome streams, shared across every run
/// of the owning oracle. Entries evict FIFO once the byte budget is
/// exceeded (the newest entry always survives, so the evaluation that
/// just resolved it can proceed).
#[derive(Debug)]
struct StreamStore {
    budget: usize,
    bytes: usize,
    cache: HashMap<(Benchmark, CacheSubConfig), Arc<CacheStreams>>,
    branch: HashMap<(Benchmark, BhtSubConfig), Arc<BranchStream>>,
    fifo: VecDeque<StreamKey>,
}

impl StreamStore {
    fn new(budget: usize) -> Self {
        StreamStore {
            budget,
            bytes: 0,
            cache: HashMap::new(),
            branch: HashMap::new(),
            fifo: VecDeque::new(),
        }
    }

    fn clear(&mut self) {
        self.bytes = 0;
        self.cache.clear();
        self.branch.clear();
        self.fifo.clear();
    }

    fn insert_cache(&mut self, key: (Benchmark, CacheSubConfig), streams: Arc<CacheStreams>) {
        if self.cache.contains_key(&key) {
            return; // another thread resolved it first; keep theirs
        }
        self.bytes += streams.bytes();
        self.cache.insert(key, streams);
        self.fifo.push_back(StreamKey::Cache(key.0, key.1));
        self.evict();
    }

    fn insert_branch(&mut self, key: (Benchmark, BhtSubConfig), stream: Arc<BranchStream>) {
        if self.branch.contains_key(&key) {
            return;
        }
        self.bytes += stream.bytes();
        self.branch.insert(key, stream);
        self.fifo.push_back(StreamKey::Branch(key.0, key.1));
        self.evict();
    }

    fn evict(&mut self) {
        while self.bytes > self.budget && self.fifo.len() > 1 {
            match self.fifo.pop_front().expect("fifo non-empty") {
                StreamKey::Cache(b, sub) => {
                    if let Some(s) = self.cache.remove(&(b, sub)) {
                        self.bytes -= s.bytes();
                    }
                }
                StreamKey::Branch(b, sub) => {
                    if let Some(s) = self.branch.remove(&(b, sub)) {
                        self.bytes -= s.bytes();
                    }
                }
            }
        }
    }
}

/// Designs a batch steps through one trace together (see
/// [`udse_sim::run_streamed_lanes`]). Four lanes hide the cycle loop's
/// dependency chains; eight measured no faster.
const LANES: usize = 4;

/// One simulation ready to run: the design's simulator and the outcome
/// streams resolved for its sub-configs.
type Run<'a> = (Simulator, &'a CacheStreams, &'a BranchStream);

thread_local! {
    /// Per-thread engine scratch, one per lane: work-pool threads reuse
    /// the same pools and completion rings across every simulation they
    /// run, keeping the steady-state cycle loop allocation-free.
    static SCRATCH: RefCell<[StreamScratch; LANES]> = RefCell::new(Default::default());
}

impl SimOracle {
    /// Creates an oracle with the default study-quality trace length.
    pub fn new() -> Self {
        Self::with_trace_len(DEFAULT_TRACE_LEN)
    }

    /// Creates an oracle with a custom trace length (tests use short
    /// traces for speed).
    ///
    /// # Panics
    ///
    /// Panics if `trace_len < 100`.
    pub fn with_trace_len(trace_len: usize) -> Self {
        assert!(trace_len >= 100, "trace length too short to be meaningful");
        SimOracle {
            trace_len,
            warmup_frac: 0.25,
            seed: 0x5EED,
            traces: RwLock::new(HashMap::new()),
            preflights: RwLock::new(HashMap::new()),
            streams: RwLock::new(StreamStore::new(DEFAULT_STREAM_BUDGET)),
            precompute_hits: AtomicU64::new(0),
            precompute_misses: AtomicU64::new(0),
        }
    }

    /// Overrides the trace seed (for sensitivity experiments).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.traces = RwLock::new(HashMap::new());
        self.preflights = RwLock::new(HashMap::new());
        self.streams.write().expect("stream store poisoned").clear();
        self
    }

    /// Overrides the memoized-stream byte budget (tests exercise
    /// eviction with tiny budgets; `0` disables memoization except for
    /// the entry currently being used).
    #[must_use]
    pub fn with_stream_budget(self, bytes: usize) -> Self {
        self.streams.write().expect("stream store poisoned").budget = bytes;
        self
    }

    /// The configured trace length.
    pub fn trace_len(&self) -> usize {
        self.trace_len
    }

    /// The configured trace seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns the cached trace for a benchmark, generating it on first
    /// use. Thread-safe: concurrent first uses serialize on the write
    /// lock and generate the (deterministic) trace exactly once.
    pub fn trace(&self, benchmark: Benchmark) -> Arc<Trace> {
        if let Some(t) = self.traces.read().expect("trace cache poisoned").get(&benchmark) {
            return Arc::clone(t);
        }
        let mut traces = self.traces.write().expect("trace cache poisoned");
        Arc::clone(
            traces
                .entry(benchmark)
                .or_insert_with(|| Arc::new(Trace::generate(benchmark, self.trace_len, self.seed))),
        )
    }

    /// Number of instructions discarded as warmup.
    pub fn warmup_insts(&self) -> usize {
        (self.trace_len as f64 * self.warmup_frac) as usize
    }

    /// Stream-store lookups served from the memo (cache + BHT keys each
    /// count one lookup per evaluation).
    pub fn precompute_hits(&self) -> u64 {
        self.precompute_hits.load(Ordering::Relaxed)
    }

    /// Stream-store lookups that had to resolve a fresh stream.
    pub fn precompute_misses(&self) -> u64 {
        self.precompute_misses.load(Ordering::Relaxed)
    }

    /// The design-invariant preflight of a benchmark's trace, computed
    /// once per `(benchmark, seed, trace_len)` and shared via `Arc`.
    pub fn preflight(&self, benchmark: Benchmark) -> Arc<TracePreflight> {
        if let Some(p) = self.preflights.read().expect("preflight cache poisoned").get(&benchmark) {
            return Arc::clone(p);
        }
        let trace = self.trace(benchmark);
        let mut preflights = self.preflights.write().expect("preflight cache poisoned");
        Arc::clone(
            preflights.entry(benchmark).or_insert_with(|| Arc::new(TracePreflight::of(&trace))),
        )
    }

    fn record(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.precompute_hits.fetch_add(hits, Ordering::Relaxed);
            udse_obs::metrics::counter("sim.precompute.hits").add(hits);
        }
        if misses > 0 {
            self.precompute_misses.fetch_add(misses, Ordering::Relaxed);
            udse_obs::metrics::counter("sim.precompute.misses").add(misses);
        }
    }

    /// Steps `K <= LANES` simulations of one trace through the cycle
    /// core together, with the calling thread's reusable scratch.
    fn run_lanes<const K: usize>(&self, pre: &TracePreflight, runs: [Run<'_>; K]) -> [Metrics; K] {
        let jobs = runs.each_ref().map(|(sim, cache, bht)| (sim, *cache, *bht));
        let results = SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let mut lanes = s.iter_mut();
            let scratches = std::array::from_fn(|_| lanes.next().expect("K <= LANES"));
            run_streamed_lanes(jobs, pre, self.warmup_insts(), scratches)
        });
        results.map(|r| Metrics { bips: r.bips, watts: r.watts })
    }
}

impl Default for SimOracle {
    fn default() -> Self {
        SimOracle::new()
    }
}

impl Oracle for SimOracle {
    fn evaluate(&self, benchmark: Benchmark, point: &DesignPoint) -> Metrics {
        self.evaluate_many(&[(benchmark, *point)])[0]
    }

    /// Batched evaluation with deterministic memo accounting: a
    /// sequential pre-pass walks the jobs in order and performs both
    /// stream lookups per job (cache sub-key, then BHT sub-key) — the
    /// first unresolved occurrence of a key counts the miss, every
    /// later occurrence a hit — so `sim.precompute.hits/misses` come
    /// out identical whatever `--jobs` width runs the batch. The
    /// distinct pending streams then resolve in one parallel wave, are
    /// inserted into the shared store in first-occurrence order (so
    /// eviction is deterministic too), and the simulations fan out over
    /// batch-local `Arc`s that keep every stream alive even if the
    /// bounded store evicts it mid-batch. Each benchmark's jobs run in
    /// bundles of `LANES` stepped through its trace together (a group's
    /// ragged tail one job at a time); every result is a pure function
    /// of its job, so the bundling changes no number.
    fn evaluate_many(&self, jobs: &[(Benchmark, DesignPoint)]) -> Vec<Metrics> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let mut preflights: HashMap<Benchmark, Arc<TracePreflight>> = HashMap::new();
        for (b, _) in jobs {
            if !preflights.contains_key(b) {
                preflights.insert(*b, self.preflight(*b));
            }
        }

        let mut cache_ready: HashMap<(Benchmark, CacheSubConfig), Arc<CacheStreams>> =
            HashMap::new();
        let mut branch_ready: HashMap<(Benchmark, BhtSubConfig), Arc<BranchStream>> =
            HashMap::new();
        let mut cache_pending: Vec<(Benchmark, CacheSubConfig)> = Vec::new();
        let mut branch_pending: Vec<(Benchmark, BhtSubConfig)> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        {
            let store = self.streams.read().expect("stream store poisoned");
            let mut seen_cache: std::collections::HashSet<(Benchmark, CacheSubConfig)> =
                std::collections::HashSet::new();
            let mut seen_branch: std::collections::HashSet<(Benchmark, BhtSubConfig)> =
                std::collections::HashSet::new();
            for (b, p) in jobs {
                let cfg = p.to_machine_config();
                let ck = (*b, CacheSubConfig::of(&cfg));
                if !seen_cache.insert(ck) {
                    hits += 1;
                } else if let Some(s) = store.cache.get(&ck) {
                    hits += 1;
                    cache_ready.insert(ck, Arc::clone(s));
                } else {
                    misses += 1;
                    cache_pending.push(ck);
                }
                let bk = (*b, BhtSubConfig::of(&cfg));
                if !seen_branch.insert(bk) {
                    hits += 1;
                } else if let Some(s) = store.branch.get(&bk) {
                    hits += 1;
                    branch_ready.insert(bk, Arc::clone(s));
                } else {
                    misses += 1;
                    branch_pending.push(bk);
                }
            }
        }
        self.record(hits, misses);

        if !cache_pending.is_empty() || !branch_pending.is_empty() {
            let resolved_cache: Vec<Arc<CacheStreams>> =
                udse_obs::pool::map(&cache_pending, |(b, sub)| {
                    Arc::new(CacheStreams::resolve(&preflights[b], sub))
                });
            let resolved_branch: Vec<Arc<BranchStream>> =
                udse_obs::pool::map(&branch_pending, |(b, sub)| {
                    Arc::new(BranchStream::resolve(&preflights[b], sub))
                });
            let mut store = self.streams.write().expect("stream store poisoned");
            for (key, s) in cache_pending.iter().zip(&resolved_cache) {
                cache_ready.insert(*key, Arc::clone(s));
                store.insert_cache(*key, Arc::clone(s));
            }
            for (key, s) in branch_pending.iter().zip(&resolved_branch) {
                branch_ready.insert(*key, Arc::clone(s));
                store.insert_branch(*key, Arc::clone(s));
            }
        }

        // Job indices grouped by benchmark (the sort is stable, so each
        // group keeps job order), cut into bundles.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| jobs[i].0);
        let bundles: Vec<&[usize]> = order
            .chunk_by(|&a, &b| jobs[a].0 == jobs[b].0)
            .flat_map(|g| {
                let full = g.len() - g.len() % LANES;
                g[..full].chunks(LANES).chain(g[full..].chunks(1))
            })
            .collect();
        let run = |i: usize| -> Run<'_> {
            let (b, p) = &jobs[i];
            let cfg = p.to_machine_config();
            let cache = &cache_ready[&(*b, CacheSubConfig::of(&cfg))];
            let bht = &branch_ready[&(*b, BhtSubConfig::of(&cfg))];
            (Simulator::new(cfg), cache, bht)
        };
        let bundled = udse_obs::pool::map(&bundles, |bundle| {
            let pre = &preflights[&jobs[bundle[0]].0];
            match <[usize; LANES]>::try_from(*bundle) {
                Ok(lanes) => self.run_lanes(pre, lanes.map(run)).to_vec(),
                Err(_) => bundle.iter().flat_map(|&i| self.run_lanes(pre, [run(i)])).collect(),
            }
        });

        let mut out = vec![Metrics { bips: 0.0, watts: 0.0 }; jobs.len()];
        for (bundle, metrics) in bundles.iter().zip(bundled) {
            for (&i, m) in bundle.iter().zip(metrics) {
                out[i] = m;
            }
        }
        out
    }
}

/// A memoizing wrapper around any oracle: repeated evaluations of the
/// same `(benchmark, point)` pair are served from a cache. Useful when
/// several studies re-visit the same designs (frontier validation, depth
/// validation, heterogeneity gains all simulate overlapping sets).
///
/// # Examples
///
/// ```
/// use udse_core::oracle::{CachedOracle, Oracle, SimOracle};
/// use udse_core::space::DesignSpace;
/// use udse_trace::Benchmark;
///
/// let oracle = CachedOracle::new(SimOracle::with_trace_len(2_000));
/// let p = DesignSpace::paper().decode(7).unwrap();
/// let a = oracle.evaluate(Benchmark::Gcc, &p); // simulated
/// let b = oracle.evaluate(Benchmark::Gcc, &p); // cached
/// assert_eq!(a, b);
/// assert_eq!(oracle.hits(), 1);
/// ```
#[derive(Debug)]
pub struct CachedOracle<O> {
    inner: O,
    cache: RwLock<HashMap<(Benchmark, DesignPoint), Metrics>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<O: Oracle> CachedOracle<O> {
    /// Wraps an oracle with an unbounded memoization cache.
    pub fn new(inner: O) -> Self {
        CachedOracle {
            inner,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Number of evaluations served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of evaluations delegated to the inner oracle.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl<O: Oracle> Oracle for CachedOracle<O> {
    fn evaluate(&self, benchmark: Benchmark, point: &DesignPoint) -> Metrics {
        self.evaluate_many(&[(benchmark, *point)])[0]
    }

    /// Batched lookup: cached pairs are served immediately, the distinct
    /// uncached pairs are simulated in one parallel batch through the
    /// inner oracle, and results come back in job order. Duplicate jobs
    /// within the batch simulate once and count one miss (subsequent
    /// occurrences are hits), matching the sequential accounting.
    fn evaluate_many(&self, jobs: &[(Benchmark, DesignPoint)]) -> Vec<Metrics> {
        let mut pending: Vec<(Benchmark, DesignPoint)> = Vec::new();
        let mut pending_index: HashMap<(Benchmark, DesignPoint), usize> = HashMap::new();
        let mut hits = 0u64;
        {
            let cache = self.cache.read().expect("oracle cache poisoned");
            for key in jobs {
                if cache.contains_key(key) {
                    hits += 1;
                } else if !pending_index.contains_key(key) {
                    pending_index.insert(*key, pending.len());
                    pending.push(*key);
                } else {
                    hits += 1; // duplicate within the batch
                }
            }
        }
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
            udse_obs::metrics::counter("oracle.cache.hits").add(hits);
        }
        if !pending.is_empty() {
            let fresh = self.inner.evaluate_many(&pending);
            self.misses.fetch_add(pending.len() as u64, Ordering::Relaxed);
            udse_obs::metrics::counter("oracle.cache.misses").add(pending.len() as u64);
            let mut cache = self.cache.write().expect("oracle cache poisoned");
            for (key, m) in pending.iter().zip(&fresh) {
                cache.insert(*key, *m);
            }
        }
        let cache = self.cache.read().expect("oracle cache poisoned");
        jobs.iter().map(|key| *cache.get(key).expect("all jobs resolved")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;

    #[test]
    fn cached_oracle_memoizes() {
        let oracle = CachedOracle::new(SimOracle::with_trace_len(1_000));
        let p = DesignSpace::paper().decode(99).unwrap();
        let a = oracle.evaluate(Benchmark::Mesa, &p);
        assert_eq!(oracle.misses(), 1);
        let b = oracle.evaluate(Benchmark::Mesa, &p);
        assert_eq!(oracle.hits(), 1);
        assert_eq!(a, b);
        // A different benchmark is a different key.
        let _ = oracle.evaluate(Benchmark::Gzip, &p);
        assert_eq!(oracle.misses(), 2);
    }

    #[test]
    fn deterministic_evaluation() {
        let oracle = SimOracle::with_trace_len(2_000);
        let p = DesignSpace::paper().decode(42).unwrap();
        let a = oracle.evaluate(Benchmark::Twolf, &p);
        let b = oracle.evaluate(Benchmark::Twolf, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn traces_are_cached() {
        let oracle = SimOracle::with_trace_len(2_000);
        let t1 = oracle.trace(Benchmark::Gcc);
        let t2 = oracle.trace(Benchmark::Gcc);
        assert!(Arc::ptr_eq(&t1, &t2));
    }

    #[test]
    fn suite_order_matches_benchmark_all() {
        let oracle = SimOracle::with_trace_len(1_000);
        let p = DesignSpace::paper().decode(7).unwrap();
        let suite = oracle.evaluate_suite(&p);
        assert_eq!(suite.len(), 9);
        let direct = oracle.evaluate(Benchmark::Ammp, &p);
        assert_eq!(suite[0], direct);
    }

    #[test]
    fn metrics_derived_quantities() {
        let m = Metrics { bips: 2.0, watts: 16.0 };
        assert_eq!(m.delay_seconds(), 0.5);
        assert_eq!(m.bips_cubed_per_watt(), 0.5);
    }

    #[test]
    fn different_seeds_change_results() {
        let p = DesignSpace::paper().decode(42).unwrap();
        let a = SimOracle::with_trace_len(2_000).evaluate(Benchmark::Jbb, &p);
        let b = SimOracle::with_trace_len(2_000).with_seed(99).evaluate(Benchmark::Jbb, &p);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn tiny_trace_panics() {
        let _ = SimOracle::with_trace_len(10);
    }

    #[test]
    fn oracles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimOracle>();
        assert_send_sync::<CachedOracle<SimOracle>>();
        assert_send_sync::<Metrics>();
        assert_send_sync::<&dyn Oracle>();
    }

    #[test]
    fn evaluate_many_matches_sequential_evaluation() {
        let space = DesignSpace::paper();
        let oracle = SimOracle::with_trace_len(1_000);
        // 31 jobs interleaved over nine benchmarks: four jobs (one
        // four-lane bundle) for four of them, a ragged tail of three for
        // the rest.
        let jobs: Vec<(Benchmark, DesignPoint)> = (0..31)
            .map(|i| (Benchmark::ALL[i % 9], space.decode(i as u64 * 1_000).unwrap()))
            .collect();
        let batched = oracle.evaluate_many(&jobs);
        // `evaluate` is a one-job batch: N of them must equal one N-job
        // batch, lane bundling and all.
        let sequential: Vec<Metrics> = jobs.iter().map(|(b, p)| oracle.evaluate(*b, p)).collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn cached_evaluate_many_counts_hits_and_dedups() {
        let space = DesignSpace::paper();
        let oracle = CachedOracle::new(SimOracle::with_trace_len(1_000));
        let p0 = space.decode(11).unwrap();
        let p1 = space.decode(2_222).unwrap();
        // Warm one key, then batch with a duplicate and two new keys.
        let warm = oracle.evaluate(Benchmark::Gcc, &p0);
        let jobs = vec![
            (Benchmark::Gcc, p0),  // cache hit
            (Benchmark::Gcc, p1),  // miss
            (Benchmark::Gcc, p1),  // duplicate of the miss: hit
            (Benchmark::Gzip, p0), // miss
        ];
        let out = oracle.evaluate_many(&jobs);
        assert_eq!(out[0], warm);
        assert_eq!(out[1], out[2]);
        assert_eq!(oracle.hits(), 2);
        assert_eq!(oracle.misses(), 3); // 1 warmup + 2 batch misses
                                        // The whole batch is now cached.
        let again = oracle.evaluate_many(&jobs);
        assert_eq!(again, out);
        assert_eq!(oracle.misses(), 3);
    }

    #[test]
    fn memoized_oracle_matches_one_shot_simulation() {
        let oracle = SimOracle::with_trace_len(2_000);
        let space = DesignSpace::paper();
        for idx in [0u64, 42, 9_999, 123_456] {
            let p = space.decode(idx).unwrap();
            let m = oracle.evaluate(Benchmark::Twolf, &p);
            let one_shot = Simulator::new(p.to_machine_config())
                .run_with_warmup(&oracle.trace(Benchmark::Twolf), oracle.warmup_insts());
            assert_eq!(m, Metrics { bips: one_shot.bips, watts: one_shot.watts }, "index {idx}");
        }
    }

    #[test]
    fn precompute_accounting_is_deterministic_and_batch_independent() {
        let space = DesignSpace::paper();
        // Two designs sharing cache geometry + identical BHT (the paper
        // space has a single BHT config), plus one distinct geometry.
        let jobs: Vec<(Benchmark, DesignPoint)> = (0..12)
            .map(|i| (Benchmark::ALL[i % 3], space.decode(i as u64 * 500).unwrap()))
            .collect();
        let a = SimOracle::with_trace_len(1_000);
        let first = a.evaluate_many(&jobs);
        let (h1, m1) = (a.precompute_hits(), a.precompute_misses());
        assert_eq!(h1 + m1, 2 * jobs.len() as u64, "two lookups per job");
        assert!(m1 > 0, "first batch must resolve streams");
        // Same batch again: everything hits.
        let again = a.evaluate_many(&jobs);
        assert_eq!(again, first);
        assert_eq!(a.precompute_misses(), m1, "no re-resolution on a warm store");
        assert_eq!(a.precompute_hits(), h1 + 2 * jobs.len() as u64);
        // A fresh oracle fed the same jobs one at a time produces the
        // same accounting as the batched pre-pass.
        let b = SimOracle::with_trace_len(1_000);
        let sequential: Vec<Metrics> = jobs.iter().map(|(bm, p)| b.evaluate(*bm, p)).collect();
        assert_eq!(sequential, first);
        assert_eq!((b.precompute_hits(), b.precompute_misses()), (h1, m1));
    }

    #[test]
    fn stream_store_eviction_is_bounded_and_lossless() {
        let space = DesignSpace::paper();
        // A budget of zero keeps at most the newest entry: every new
        // sub-config evicts the previous one, so nearly every lookup
        // misses — but results stay bitwise-identical to a warm store.
        let cold = SimOracle::with_trace_len(1_000).with_stream_budget(0);
        let warm = SimOracle::with_trace_len(1_000);
        let jobs: Vec<(Benchmark, DesignPoint)> =
            (0..8).map(|i| (Benchmark::Gzip, space.decode(i as u64 * 7_777).unwrap())).collect();
        let from_cold = cold.evaluate_many(&jobs);
        let from_warm = warm.evaluate_many(&jobs);
        assert_eq!(from_cold, from_warm);
        let store = cold.streams.read().unwrap();
        assert!(store.fifo.len() <= 2, "zero budget keeps at most the newest entries per kind");
        drop(store);
        // Evicted entries re-resolve on the next batch instead of
        // serving stale data.
        assert_eq!(cold.evaluate_many(&jobs), from_warm);
    }

    #[test]
    fn parallel_trace_generation_is_consistent() {
        // Hammer the trace cache from several threads; every thread must
        // see the same Arc'd trace.
        let oracle = SimOracle::with_trace_len(1_000);
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| Arc::as_ptr(&oracle.trace(Benchmark::Mcf)) as usize))
                .collect();
            handles.into_iter().map(|h| h.join().expect("trace thread panicked")).collect()
        });
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]), "trace generated more than once");
    }
}
