//! The cycle engine: `Simulator::run_streamed` consumes a preflighted
//! trace and resolved outcome streams instead of replaying caches and
//! the branch predictor per design.
//!
//! Beyond swapping state machines for table lookups, the hot loop
//! replaces the usual min-heap occupancy pools two ways:
//!
//! - **Monotone release queues.** Six of the engine's occupancy pools
//!   (ROB, the three register files, LSQ, store queue) release entries
//!   at commit-derived cycles, and commit is nondecreasing in program
//!   order. Their release multisets are therefore always pushed in
//!   sorted order, so a binary min-heap degenerates to a FIFO ring:
//!   [`MonoRing`] replaces `O(log n)` sift operations with one read and
//!   one write per instruction, bitwise-identically (the front of the
//!   ring *is* the heap minimum, and the ring is kept brim-full of
//!   release-0 placeholders so the not-full fast path and the index
//!   wraparound both compile to conditional moves, not branches).
//! - **Slot-scan pools.** The reservation stations and functional units
//!   release at `issue + 1`, which is not monotone under out-of-order
//!   issue, but their capacities are tiny (Table 1 tops out at 28
//!   entries). [`SlotPool`] models each entry's release cycle in a flat
//!   array and finds the minimum by a branchless fixed-trip scan over
//!   `release << 8 | slot` keys — no data-dependent branches to
//!   mispredict, and equivalent to the heap because a pool with
//!   balanced acquire/release pairs is exactly "take the entry with the
//!   earliest release" (unused entries sit at release 0, reproducing
//!   the heap's not-full fast path).
//!
//! All per-run state lives in a reusable [`StreamScratch`], so
//! steady-state runs are allocation-free (pinned by
//! `tests/no_alloc_stream.rs`).

use crate::config::MachineConfig;
use crate::engine::Simulator;
use crate::power::PowerModel;
use crate::preflight::{BranchStream, CacheStreams, TracePreflight, OUTCOME_L1};
use crate::result::{ActivityCounts, SimResult, StallBreakdown};

/// Dependency window: matches the trace generator's maximum dependency
/// distance.
const DEP_WINDOW: usize = 1024;

/// A FIFO ring standing in for a min-heap whose pushes are known to be
/// nondecreasing: the front entry is always the minimum release cycle.
///
/// The ring is kept permanently full: `reset` seeds `capacity` entries
/// at release 0 ("free since forever"), so `acquire` always pops
/// (`max(0, cycle) = cycle` reproduces the heap's not-full behaviour).
/// The engine strictly alternates acquire/release on each pool within
/// one instruction, so the slot a pop vacates is exactly where the
/// matching push belongs — `release_at` rewrites that slot in place and
/// no separate tail index exists. With occupancy pinned at capacity
/// there is no emptiness branch, and the head wraparound is a select
/// the compiler lowers to a conditional move — the data-dependent
/// mispredicts of a sifting heap (or of a sometimes-wrapping ring)
/// never happen.
#[derive(Debug, Default)]
struct MonoRing {
    buf: Vec<u64>,
    head: usize,
    /// Slot vacated by the last `acquire`, refilled by `release_at`.
    pending: usize,
    #[cfg(debug_assertions)]
    last_push: u64,
}

impl MonoRing {
    fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "resource pool capacity must be positive");
        self.buf.clear();
        self.buf.resize(capacity, 0);
        self.head = 0;
        self.pending = 0;
        #[cfg(debug_assertions)]
        {
            self.last_push = 0;
        }
    }

    #[inline]
    fn acquire(&mut self, cycle: u64) -> u64 {
        let r = self.buf[self.head];
        self.pending = self.head;
        let h = self.head + 1;
        self.head = if h == self.buf.len() { 0 } else { h };
        r.max(cycle)
    }

    #[inline]
    fn release_at(&mut self, cycle: u64) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(cycle >= self.last_push, "MonoRing requires nondecreasing releases");
            self.last_push = cycle;
        }
        self.buf[self.pending] = cycle;
    }
}

/// A small occupancy pool tracked as one release cycle per entry.
/// Entries start at release 0 ("free since forever"), which reproduces
/// a standard min-heap's behaviour before the pool first fills.
///
/// Each slot stores `release << 8 | slot_index`, so a plain `min` scan
/// yields both the earliest release and which slot holds it in one
/// fixed-trip, branchless pass (ties break toward the lowest index,
/// which is immaterial: only the multiset of release times feeds the
/// model). The engine always pairs one `acquire` (find the minimum)
/// with one `release_at` (overwrite that slot), so the multiset of
/// release times — hence every acquired cycle — is identical to the
/// heap's pop + push. A sifting heap's data-dependent compare branches
/// mispredict constantly on these tiny pools; the scan has none.
#[derive(Debug, Default)]
struct SlotPool {
    slots: Vec<u64>,
    /// Slot found by the last `acquire`, overwritten by `release_at`.
    pending: usize,
}

impl SlotPool {
    fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "resource pool capacity must be positive");
        assert!(capacity <= 256, "SlotPool packs the slot index into 8 bits");
        self.slots.clear();
        self.slots.extend(0..capacity as u64);
        self.pending = 0;
    }

    #[inline]
    fn acquire(&mut self, cycle: u64) -> u64 {
        let mut best = self.slots[0];
        for &s in &self.slots[1..] {
            best = best.min(s);
        }
        self.pending = (best & 0xFF) as usize;
        (best >> 8).max(cycle)
    }

    #[inline]
    fn release_at(&mut self, cycle: u64) {
        debug_assert!(cycle < 1 << 56, "release cycle overflows the packed slot key");
        self.slots[self.pending] = cycle << 8 | self.pending as u64;
    }
}

/// Reusable per-run state for the streamed engine: every occupancy pool
/// plus the completion ring. Construct once (allocates), then any number
/// of [`Simulator::run_streamed_with`] calls against configurations of
/// the same or smaller capacities run without touching the heap.
#[derive(Debug)]
pub struct StreamScratch {
    rob: MonoRing,
    gpr: MonoRing,
    fpr: MonoRing,
    spr: MonoRing,
    lsq: MonoRing,
    sq: MonoRing,
    resv_fx: SlotPool,
    resv_fp: SlotPool,
    resv_br: SlotPool,
    fu_fx: SlotPool,
    fu_fp: SlotPool,
    fu_ls: SlotPool,
    fu_br: SlotPool,
    /// Fixed-size so ring indexing is a constant mask the compiler can
    /// prove in-bounds.
    complete_ring: Box<[u64; DEP_WINDOW]>,
}

impl Default for StreamScratch {
    fn default() -> Self {
        StreamScratch {
            rob: MonoRing::default(),
            gpr: MonoRing::default(),
            fpr: MonoRing::default(),
            spr: MonoRing::default(),
            lsq: MonoRing::default(),
            sq: MonoRing::default(),
            resv_fx: SlotPool::default(),
            resv_fp: SlotPool::default(),
            resv_br: SlotPool::default(),
            fu_fx: SlotPool::default(),
            fu_fp: SlotPool::default(),
            fu_ls: SlotPool::default(),
            fu_br: SlotPool::default(),
            complete_ring: Box::new([0u64; DEP_WINDOW]),
        }
    }
}

impl StreamScratch {
    /// Scratch sized for `config` (validated by the caller).
    pub fn new(config: &MachineConfig) -> Self {
        let mut s = StreamScratch::default();
        s.reset(config);
        s
    }

    /// Resizes and zeroes all pools for `config`. Only grows
    /// allocations; re-resetting for the same configuration is
    /// allocation-free.
    pub fn reset(&mut self, config: &MachineConfig) {
        self.rob.reset(config.rob_entries as usize);
        self.gpr.reset((config.gpr - 32) as usize);
        self.fpr.reset((config.fpr - 32) as usize);
        self.spr.reset((config.spr - 8) as usize);
        self.lsq.reset(config.lsq_entries as usize);
        self.sq.reset(config.store_queue_entries as usize);
        self.resv_fx.reset(config.resv_fx as usize);
        self.resv_fp.reset(config.resv_fp as usize);
        self.resv_br.reset(config.resv_br as usize);
        let units = config.units_per_class as usize;
        self.fu_fx.reset(units);
        self.fu_fp.reset(units);
        self.fu_ls.reset(units);
        self.fu_br.reset(units);
        self.complete_ring.fill(0);
    }
}

/// Running cache/BHT counters, derived from outcome events.
#[derive(Debug, Clone, Copy, Default)]
struct StreamCounts {
    il1_accesses: u64,
    il1_misses: u64,
    dl1_accesses: u64,
    dl1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    bht_lookups: u64,
    mispredicts: u64,
}

impl Simulator {
    /// Simulates a preflighted trace against resolved cache and branch
    /// outcome streams, discarding statistics for the first
    /// `warmup_insts` instructions. The streams must have been resolved
    /// for this configuration's [`crate::CacheSubConfig`] /
    /// [`crate::BhtSubConfig`]; they may be shared by every design with
    /// the same sub-configs, which is what lets the simulation oracle
    /// resolve each once. [`Simulator::run_with_warmup`] is the one-shot
    /// form that resolves them itself.
    ///
    /// # Panics
    ///
    /// Panics if `warmup_insts >= pre.len()` or if the stream event
    /// counts do not match the preflight (streams resolved from a
    /// different trace).
    ///
    /// # Examples
    ///
    /// ```
    /// use udse_sim::{
    ///     BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, MachineConfig, Simulator,
    ///     TracePreflight,
    /// };
    /// use udse_trace::{Benchmark, Trace};
    ///
    /// let trace = Trace::generate(Benchmark::Gzip, 2_000, 1);
    /// let cfg = MachineConfig::power4_baseline();
    /// let pre = TracePreflight::of(&trace);
    /// let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&cfg));
    /// let bht = BranchStream::resolve(&pre, &BhtSubConfig::of(&cfg));
    ///
    /// // A second design differing only in core knobs shares the streams.
    /// let wide = MachineConfig { decode_width: 8, ..cfg };
    /// assert_eq!(CacheSubConfig::of(&wide), CacheSubConfig::of(&cfg));
    /// for design in [cfg, wide] {
    ///     let sim = Simulator::new(design);
    ///     let streamed = sim.run_streamed(&pre, &cache, &bht, 500);
    ///     assert_eq!(streamed, sim.run_with_warmup(&trace, 500));
    /// }
    /// ```
    pub fn run_streamed(
        &self,
        pre: &TracePreflight,
        cache: &CacheStreams,
        branches: &BranchStream,
        warmup_insts: usize,
    ) -> SimResult {
        let mut scratch = StreamScratch::new(self.config());
        self.run_streamed_with(pre, cache, branches, warmup_insts, &mut scratch)
    }

    /// [`Simulator::run_streamed`] against caller-owned scratch, for
    /// allocation-free steady state across many runs.
    pub fn run_streamed_with(
        &self,
        pre: &TracePreflight,
        cache: &CacheStreams,
        branches: &BranchStream,
        warmup_insts: usize,
        scratch: &mut StreamScratch,
    ) -> SimResult {
        assert!(warmup_insts < pre.len(), "warmup must leave at least one measured instruction");
        assert_eq!(cache.code().len(), pre.code_events(), "cache stream mismatches preflight");
        assert_eq!(cache.data().len(), pre.data_events(), "cache stream mismatches preflight");
        assert_eq!(
            branches.correct().len(),
            pre.branch_events(),
            "branch stream mismatches preflight"
        );
        let cfg = self.config();
        let t = cfg.timing();
        scratch.reset(cfg);

        // Outcome-indexed latency tables replacing the per-access match
        // on `AccessOutcome`.
        let code_penalty = [0u64, t.l2_latency, t.l2_latency + t.memory_latency];
        let load_latency = [
            t.dl1_latency,
            t.dl1_latency + t.l2_latency,
            t.dl1_latency + t.l2_latency + t.memory_latency,
        ];
        let dispatch_width = cfg.dispatch_width();
        let commit_width = cfg.commit_width();

        let packed = pre.packed();
        let code_events = cache.code();
        let data_events = cache.data();
        let branch_events = branches.correct();
        let (mut cc, mut dc, mut bc) = (0usize, 0usize, 0usize);

        let mut fetch_cycle: u64 = 0;
        let mut fetched_this_cycle: u32 = 0;
        let mut redirect_ready: u64 = 0;
        let mut last_dispatch: u64 = 0;
        let mut dispatched_this_cycle: u32 = 0;
        let mut last_issue: u64 = 0;
        let mut last_commit: u64 = 0;
        let mut committed_this_cycle: u32 = 0;

        let mut acts = ActivityCounts::default();
        let mut stalls = StallBreakdown::default();
        let mut counts = StreamCounts::default();
        let mut final_commit: u64 = 0;
        let mut warmup_commit: u64 = 0;
        let mut warmup_snapshot = WarmupSnapshot::default();

        let in_order = cfg.in_order;
        let decode_width = cfg.decode_width;
        const MASK: usize = DEP_WINDOW - 1;

        // Shared pipeline steps, expanded inside each opcode arm so the
        // loop body takes exactly one data-dependent branch per
        // instruction (the opcode dispatch) instead of one per stage.
        // The arithmetic and its order are pinned bit for bit by the
        // golden fixture (`tests/golden_sim.rs`).
        macro_rules! pool_acquire {
            ($pool:ident, $stall:ident, $d:ident) => {{
                let before = $d;
                $d = scratch.$pool.acquire($d);
                stalls.$stall += $d - before;
            }};
        }
        macro_rules! dispatch_done {
            ($d:ident) => {{
                // `$d >= last_dispatch` always holds; a select compiles
                // to a conditional move instead of a branch.
                dispatched_this_cycle =
                    if $d > last_dispatch { 1 } else { dispatched_this_cycle + 1 };
                last_dispatch = $d;
            }};
        }
        macro_rules! readiness {
            ($i:ident, $d:ident, $m:ident) => {{
                // Branchless: an out-of-window distance contributes 0 to
                // the max instead of skipping the lookup, so the two
                // data-dependent "has a dependency" branches disappear.
                // The masked index is always in bounds; the stale slot it
                // reads when the distance is invalid is masked away.
                let horizon = $i.min(DEP_WINDOW);
                let s1 = ($m >> 16 & 0xFFFF) as usize;
                let v1 = ((s1 > 0 && s1 <= horizon) as u64).wrapping_neg();
                let p1 = scratch.complete_ring[$i.wrapping_sub(s1) & MASK];
                let s2 = ($m >> 32 & 0xFFFF) as usize;
                let v2 = ((s2 > 0 && s2 <= horizon) as u64).wrapping_neg();
                let p2 = scratch.complete_ring[$i.wrapping_sub(s2) & MASK];
                ($d + 1).max(p1 & v1).max(p2 & v2)
            }};
        }
        macro_rules! issue {
            ($fu:ident, $ready:expr) => {{
                let mut iss = scratch.$fu.acquire($ready);
                if in_order {
                    iss = iss.max(last_issue);
                }
                scratch.$fu.release_at(iss + 1);
                last_issue = iss;
                iss
            }};
        }
        macro_rules! data_access {
            () => {{
                let ev = data_events[dc] as usize;
                dc += 1;
                counts.dl1_accesses += 1;
                // Branchless event accounting: a hit adds zero to the
                // miss counters rather than branching around them.
                let missed = (ev != OUTCOME_L1 as usize) as u64;
                counts.dl1_misses += missed;
                counts.l2_accesses += missed;
                counts.l2_misses += (ev == 2) as u64;
                ev
            }};
        }
        macro_rules! commit {
            ($complete:expr) => {{
                let mut cm = ($complete + 1).max(last_commit);
                cm += (cm == last_commit && committed_this_cycle >= commit_width) as u64;
                committed_this_cycle = if cm > last_commit { 1 } else { committed_this_cycle + 1 };
                last_commit = cm;
                final_commit = cm;
                cm
            }};
        }

        for (i, &meta) in packed.iter().enumerate() {
            if i == warmup_insts && i > 0 {
                warmup_commit = last_commit;
                warmup_snapshot = snapshot(&acts, &counts);
            }
            // ---------------- fetch ----------------
            // Branchless redirect: `fc >= fetch_cycle` always holds, so
            // the stall delta is 0 exactly when no redirect applies and
            // the reset of the fetch group is a select.
            let fc0 = fetch_cycle.max(redirect_ready);
            let redirect_delta = fc0 - fetch_cycle;
            stalls.redirect += redirect_delta;
            fetched_this_cycle = if redirect_delta > 0 { 0 } else { fetched_this_cycle };
            let mut fc = fc0;
            if meta & 8 != 0 {
                let ev = code_events[cc] as usize;
                cc += 1;
                counts.il1_accesses += 1;
                // Branchless: a hit has penalty 0 and adds nothing.
                let missed = (ev != OUTCOME_L1 as usize) as u64;
                counts.il1_misses += missed;
                counts.l2_accesses += missed;
                counts.l2_misses += (ev == 2) as u64;
                let miss_penalty = code_penalty[ev];
                stalls.icache += miss_penalty;
                fc += miss_penalty;
                fetched_this_cycle *= (ev == OUTCOME_L1 as usize) as u32;
            }
            fc += (fetched_this_cycle >= decode_width) as u64;
            fetched_this_cycle =
                if fetched_this_cycle >= decode_width { 1 } else { fetched_this_cycle + 1 };
            fetch_cycle = fc;

            // ---------------- dispatch (shared prefix) ----------------
            let mut d = (fc + t.front_stages).max(last_dispatch);
            d += (d == last_dispatch && dispatched_this_cycle >= dispatch_width) as u64;
            pool_acquire!(rob, rob, d);

            // ---------------- per-opcode pipeline ----------------
            let complete = match meta & 7 {
                0 => {
                    pool_acquire!(gpr, registers, d);
                    pool_acquire!(resv_fx, reservations, d);
                    dispatch_done!(d);
                    let ready = readiness!(i, d, meta);
                    let iss = issue!(fu_fx, ready);
                    let complete = iss + t.fx_latency;
                    let cm = commit!(complete);
                    scratch.rob.release_at(cm);
                    scratch.gpr.release_at(cm);
                    scratch.resv_fx.release_at(iss + 1);
                    acts.fx_ops += 1;
                    complete
                }
                1 => {
                    pool_acquire!(fpr, registers, d);
                    pool_acquire!(resv_fp, reservations, d);
                    dispatch_done!(d);
                    let ready = readiness!(i, d, meta);
                    let iss = issue!(fu_fp, ready);
                    let complete = iss + t.fp_latency;
                    let cm = commit!(complete);
                    scratch.rob.release_at(cm);
                    scratch.fpr.release_at(cm);
                    scratch.resv_fp.release_at(iss + 1);
                    acts.fp_ops += 1;
                    complete
                }
                2 => {
                    pool_acquire!(gpr, registers, d);
                    pool_acquire!(lsq, lsq, d);
                    dispatch_done!(d);
                    let ready = readiness!(i, d, meta);
                    let iss = issue!(fu_ls, ready);
                    acts.loads += 1;
                    let ev = data_access!();
                    let complete = iss + 1 + load_latency[ev];
                    let cm = commit!(complete);
                    scratch.rob.release_at(cm);
                    scratch.gpr.release_at(cm);
                    scratch.lsq.release_at(cm);
                    complete
                }
                3 => {
                    pool_acquire!(lsq, lsq, d);
                    pool_acquire!(sq, store_queue, d);
                    dispatch_done!(d);
                    let ready = readiness!(i, d, meta);
                    let iss = issue!(fu_ls, ready);
                    acts.stores += 1;
                    let _ev = data_access!();
                    // Stores complete once the address is generated; the
                    // data drains from the store queue after commit.
                    let complete = iss + 1;
                    let cm = commit!(complete);
                    scratch.rob.release_at(cm);
                    scratch.lsq.release_at(cm);
                    scratch.sq.release_at(cm + 2);
                    complete
                }
                _ => {
                    pool_acquire!(spr, registers, d);
                    pool_acquire!(resv_br, reservations, d);
                    dispatch_done!(d);
                    let ready = readiness!(i, d, meta);
                    let iss = issue!(fu_br, ready);
                    let complete = iss + t.fx_latency;
                    let cm = commit!(complete);
                    scratch.rob.release_at(cm);
                    scratch.spr.release_at(cm);
                    scratch.resv_br.release_at(iss + 1);
                    acts.branches += 1;
                    counts.bht_lookups += 1;
                    let correct = branch_events[bc];
                    bc += 1;
                    if !correct {
                        counts.mispredicts += 1;
                        // Redirect: fetch resumes after the branch resolves.
                        redirect_ready = redirect_ready.max(complete + 1);
                    } else if meta & 16 != 0 {
                        // Correctly predicted taken branch still ends the
                        // fetch group (one-cycle fetch bubble).
                        fetched_this_cycle = decode_width;
                    }
                    complete
                }
            };

            scratch.complete_ring[i & MASK] = complete;
        }

        acts.instructions = (pre.len() - warmup_insts) as u64;
        // One registry update per run (never per instruction) keeps the
        // accounting overhead invisible next to the simulation itself.
        udse_obs::metrics::counter("sim.runs").inc();
        udse_obs::metrics::counter("sim.instructions").add(pre.len() as u64);
        acts.cycles = final_commit.saturating_sub(warmup_commit).max(1);
        acts.il1_accesses = counts.il1_accesses;
        acts.il1_misses = counts.il1_misses;
        acts.dl1_accesses = counts.dl1_accesses;
        acts.dl1_misses = counts.dl1_misses;
        acts.l2_accesses = counts.l2_accesses;
        acts.l2_misses = counts.l2_misses;
        acts.bht_lookups = counts.bht_lookups;
        acts.mispredicts = counts.mispredicts;
        warmup_snapshot.subtract_from(&mut acts);

        let power = PowerModel::new(cfg).evaluate(&acts);
        SimResult::new(cfg, &acts, power, stalls)
    }
}

/// Counter values at the warmup boundary, subtracted from the final
/// counts so results describe only the measured region.
#[derive(Debug, Clone, Copy, Default)]
struct WarmupSnapshot {
    fx_ops: u64,
    fp_ops: u64,
    loads: u64,
    stores: u64,
    branches: u64,
    il1_accesses: u64,
    il1_misses: u64,
    dl1_accesses: u64,
    dl1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    bht_lookups: u64,
    mispredicts: u64,
}

impl WarmupSnapshot {
    fn subtract_from(&self, acts: &mut ActivityCounts) {
        acts.fx_ops -= self.fx_ops;
        acts.fp_ops -= self.fp_ops;
        acts.loads -= self.loads;
        acts.stores -= self.stores;
        acts.branches -= self.branches;
        acts.il1_accesses -= self.il1_accesses;
        acts.il1_misses -= self.il1_misses;
        acts.dl1_accesses -= self.dl1_accesses;
        acts.dl1_misses -= self.dl1_misses;
        acts.l2_accesses -= self.l2_accesses;
        acts.l2_misses -= self.l2_misses;
        acts.bht_lookups -= self.bht_lookups;
        acts.mispredicts -= self.mispredicts;
    }
}

fn snapshot(acts: &ActivityCounts, counts: &StreamCounts) -> WarmupSnapshot {
    WarmupSnapshot {
        fx_ops: acts.fx_ops,
        fp_ops: acts.fp_ops,
        loads: acts.loads,
        stores: acts.stores,
        branches: acts.branches,
        il1_accesses: counts.il1_accesses,
        il1_misses: counts.il1_misses,
        dl1_accesses: counts.dl1_accesses,
        dl1_misses: counts.dl1_misses,
        l2_accesses: counts.l2_accesses,
        l2_misses: counts.l2_misses,
        bht_lookups: counts.bht_lookups,
        mispredicts: counts.mispredicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preflight::{BhtSubConfig, CacheSubConfig};
    use udse_trace::{Benchmark, Trace};

    fn artifacts(
        cfg: &MachineConfig,
        trace: &Trace,
    ) -> (TracePreflight, CacheStreams, BranchStream) {
        let pre = TracePreflight::of(trace);
        let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(cfg));
        let bht = BranchStream::resolve(&pre, &BhtSubConfig::of(cfg));
        (pre, cache, bht)
    }

    #[test]
    fn shared_streams_serve_every_warmup() {
        // Outcome streams are resolved with no knowledge of the warmup:
        // one resolve must serve every warmup a one-shot run would use.
        let trace = Trace::generate(Benchmark::Twolf, 8_000, 3);
        let cfg = MachineConfig::power4_baseline();
        let (pre, cache, bht) = artifacts(&cfg, &trace);
        let sim = Simulator::new(cfg);
        for warmup in [0usize, 1, 2_000, 7_999] {
            let one_shot = sim.run_with_warmup(&trace, warmup);
            let shared = sim.run_streamed(&pre, &cache, &bht, warmup);
            assert_eq!(shared, one_shot, "warmup {warmup}");
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let trace = Trace::generate(Benchmark::Gzip, 4_000, 5);
        let cfg = MachineConfig::power4_baseline();
        let (pre, cache, bht) = artifacts(&cfg, &trace);
        let sim = Simulator::new(cfg);
        let mut scratch = StreamScratch::new(sim.config());
        let a = sim.run_streamed_with(&pre, &cache, &bht, 1_000, &mut scratch);
        let b = sim.run_streamed_with(&pre, &cache, &bht, 1_000, &mut scratch);
        assert_eq!(a, b);
        // The same scratch serves a different (larger-pool) config.
        let mut wide = MachineConfig::power4_baseline();
        wide.decode_width = 8;
        wide.gpr = 130;
        let cache_w = CacheStreams::resolve(&pre, &CacheSubConfig::of(&wide));
        let bht_w = BranchStream::resolve(&pre, &BhtSubConfig::of(&wide));
        let sim_w = Simulator::new(wide);
        let one_shot = sim_w.run_with_warmup(&trace, 1_000);
        let reused = sim_w.run_streamed_with(&pre, &cache_w, &bht_w, 1_000, &mut scratch);
        assert_eq!(reused, one_shot);
    }

    #[test]
    #[should_panic(expected = "mismatches preflight")]
    fn mismatched_streams_panic() {
        let trace = Trace::generate(Benchmark::Gzip, 2_000, 5);
        let other = Trace::generate(Benchmark::Mcf, 3_000, 5);
        let cfg = MachineConfig::power4_baseline();
        let pre = TracePreflight::of(&trace);
        let pre_other = TracePreflight::of(&other);
        let cache = CacheStreams::resolve(&pre_other, &CacheSubConfig::of(&cfg));
        let bht = BranchStream::resolve(&pre, &BhtSubConfig::of(&cfg));
        let _ = Simulator::new(cfg).run_streamed(&pre, &cache, &bht, 100);
    }

    #[test]
    #[should_panic(expected = "warmup must leave")]
    fn streamed_warmup_longer_than_trace_panics() {
        let trace = Trace::generate(Benchmark::Gzip, 200, 5);
        let cfg = MachineConfig::power4_baseline();
        let (pre, cache, bht) = artifacts(&cfg, &trace);
        let _ = Simulator::new(cfg).run_streamed(&pre, &cache, &bht, 200);
    }
}
