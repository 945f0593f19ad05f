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
//! One loop, [`run_streamed_lanes`], steps `K` designs ("lanes") through
//! the trace together. Every design on a trace reads the same packed
//! words, takes the same opcode branch and advances the same event
//! cursors; only the pipeline state differs. A [`Lane`] holds that
//! state, and the loop runs each instruction's opcode arm on every lane
//! in turn, so the lanes share the per-instruction overhead and their
//! independent dependency chains overlap in the CPU.
//! [`Simulator::run_streamed_with`] is the same loop at `K = 1`.
//!
//! All per-run state lives in a reusable [`StreamScratch`], so
//! steady-state runs are allocation-free (pinned by
//! `tests/no_alloc_stream.rs`).
//!
//! In debug builds every run ends by checking its lanes against
//! analytical throughput bounds (no resource beats its bandwidth; see
//! `MeasuredOps::check`), so every simulation any dev-profile test
//! makes is checked; release builds compile the check out.

use crate::config::MachineConfig;
use crate::engine::Simulator;
use crate::power::PowerModel;
use crate::preflight::{unpack, BranchStream, CacheStreams, TracePreflight, OUTCOME_L1};
use crate::result::{ActivityCounts, SimResult, StallBreakdown};

/// Dependency window: matches the trace generator's maximum dependency
/// distance.
const DEP_WINDOW: usize = 1024;
/// Index mask of the completion ring.
const MASK: usize = DEP_WINDOW - 1;

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

/// Waits at dispatch for a free entry of `$pool`, charging the delay to
/// the `$stall` counter.
macro_rules! hold {
    ($pool:expr, $stall:expr, $d:ident) => {{
        let before = $d;
        $d = $pool.acquire($d);
        $stall += $d - before;
    }};
}

/// One design in a lane bundle: its simulator and the outcome streams
/// resolved for its cache and branch sub-configs.
pub type LaneJob<'a> = (&'a Simulator, &'a CacheStreams, &'a BranchStream);

/// One design's state in the cycle loop: its configuration-derived
/// constants, scratch and outcome streams, its fetch/dispatch/issue/
/// commit bookkeeping and its counters. Lanes stepping the same trace
/// share nothing else.
struct Lane<'a> {
    cfg: &'a MachineConfig,
    scratch: &'a mut StreamScratch,
    /// The cache streams' packed 2-bit code and data outcomes and the
    /// branch stream's packed correctness bits.
    code_events: &'a [u64],
    data_events: &'a [u64],
    branch_events: &'a [u64],
    /// Outcome-indexed latency tables replacing a per-access match on
    /// `AccessOutcome`. The fourth entry is never read; it lets a 2-bit
    /// outcome index the table without a bounds check.
    code_penalty: [u64; 4],
    load_latency: [u64; 4],
    front_stages: u64,
    fx_latency: u64,
    fp_latency: u64,
    decode_width: u32,
    dispatch_width: u32,
    commit_width: u32,
    in_order: bool,
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    redirect_ready: u64,
    last_dispatch: u64,
    dispatched_this_cycle: u32,
    /// The current instruction's dispatch cycle so far, from `front`.
    dispatch: u64,
    last_issue: u64,
    last_commit: u64,
    committed_this_cycle: u32,
    acts: ActivityCounts,
    stalls: StallBreakdown,
    /// Commit cycle, counters and stalls at the warmup boundary,
    /// subtracted at the end so results describe only the measured
    /// region.
    warmup_commit: u64,
    warmup_acts: ActivityCounts,
    warmup_stalls: StallBreakdown,
}

impl<'a> Lane<'a> {
    fn new(
        (sim, cache, branches): LaneJob<'a>,
        pre: &TracePreflight,
        scratch: &'a mut StreamScratch,
    ) -> Self {
        assert_eq!(cache.code_events(), pre.code_events(), "cache stream mismatches preflight");
        assert_eq!(cache.data_events(), pre.data_events(), "cache stream mismatches preflight");
        assert_eq!(branches.len(), pre.branch_events(), "branch stream mismatches preflight");
        let cfg = sim.config();
        let t = cfg.timing();
        scratch.reset(cfg);
        let (code_events, data_events) = cache.words();
        let memory = t.l2_latency + t.memory_latency;
        Lane {
            cfg,
            scratch,
            code_events,
            data_events,
            branch_events: branches.words(),
            code_penalty: [0, t.l2_latency, memory, memory],
            load_latency: [
                t.dl1_latency,
                t.dl1_latency + t.l2_latency,
                t.dl1_latency + memory,
                t.dl1_latency + memory,
            ],
            front_stages: t.front_stages,
            fx_latency: t.fx_latency,
            fp_latency: t.fp_latency,
            decode_width: cfg.decode_width,
            dispatch_width: cfg.dispatch_width(),
            commit_width: cfg.commit_width(),
            in_order: cfg.in_order,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            redirect_ready: 0,
            last_dispatch: 0,
            dispatched_this_cycle: 0,
            dispatch: 0,
            last_issue: 0,
            last_commit: 0,
            committed_this_cycle: 0,
            acts: ActivityCounts::default(),
            stalls: StallBreakdown::default(),
            warmup_commit: 0,
            warmup_acts: ActivityCounts::default(),
            warmup_stalls: StallBreakdown::default(),
        }
    }

    fn mark_warmup(&mut self) {
        self.warmup_commit = self.last_commit;
        self.warmup_acts = self.acts;
        self.warmup_stalls = self.stalls;
    }

    /// Fetches one instruction (code event `cc` if it starts a code
    /// block) and runs the dispatch steps every opcode shares: dispatch
    /// bandwidth and a ROB entry.
    #[inline(always)]
    fn front(&mut self, meta: u64, cc: usize) {
        // Branchless redirect: `fc >= fetch_cycle` always holds, so the
        // stall delta is 0 exactly when no redirect applies and the reset
        // of the fetch group is a select.
        let fc0 = self.fetch_cycle.max(self.redirect_ready);
        let redirect_delta = fc0 - self.fetch_cycle;
        self.stalls.redirect += redirect_delta;
        let mut fetched = if redirect_delta > 0 { 0 } else { self.fetched_this_cycle };
        let mut fc = fc0;
        if meta & 8 != 0 {
            let ev = unpack::<2>(self.code_events, cc);
            self.acts.il1_accesses += 1;
            // Branchless: a hit has penalty 0 and adds nothing.
            let missed = (ev != OUTCOME_L1 as usize) as u64;
            self.acts.il1_misses += missed;
            self.acts.l2_accesses += missed;
            self.acts.l2_misses += (ev == 2) as u64;
            let miss_penalty = self.code_penalty[ev];
            self.stalls.icache += miss_penalty;
            fc += miss_penalty;
            fetched *= (ev == OUTCOME_L1 as usize) as u32;
        }
        fc += (fetched >= self.decode_width) as u64;
        self.fetched_this_cycle = if fetched >= self.decode_width { 1 } else { fetched + 1 };
        self.fetch_cycle = fc;

        let mut d = (fc + self.front_stages).max(self.last_dispatch);
        d += (d == self.last_dispatch && self.dispatched_this_cycle >= self.dispatch_width) as u64;
        hold!(self.scratch.rob, self.stalls.rob, d);
        self.dispatch = d;
    }

    /// Steps instruction `i` of opcode class `OP` (the low three bits of
    /// its packed word `meta`) through this lane's pipeline, from the
    /// dispatch cycle `front` left. `dc` and `bc` index its data and
    /// branch events. The arithmetic and its order are pinned bit for
    /// bit by the golden fixture (`tests/golden_sim.rs`).
    #[inline(always)]
    fn step<const OP: u64>(&mut self, i: usize, meta: u64, dc: usize, bc: usize) {
        let mut d = self.dispatch;
        let s = &mut *self.scratch;
        match OP {
            0 => {
                hold!(s.gpr, self.stalls.registers, d);
                hold!(s.resv_fx, self.stalls.reservations, d);
            }
            1 => {
                hold!(s.fpr, self.stalls.registers, d);
                hold!(s.resv_fp, self.stalls.reservations, d);
            }
            2 => {
                hold!(s.gpr, self.stalls.registers, d);
                hold!(s.lsq, self.stalls.lsq, d);
            }
            3 => {
                hold!(s.lsq, self.stalls.lsq, d);
                hold!(s.sq, self.stalls.store_queue, d);
            }
            _ => {
                hold!(s.spr, self.stalls.registers, d);
                hold!(s.resv_br, self.stalls.reservations, d);
            }
        }
        // `d >= last_dispatch` always holds; a select compiles to a
        // conditional move instead of a branch.
        self.dispatched_this_cycle =
            if d > self.last_dispatch { 1 } else { self.dispatched_this_cycle + 1 };
        self.last_dispatch = d;

        let ready = self.readiness(i, d, meta);
        let s = &mut *self.scratch;
        let fu = match OP {
            0 => &mut s.fu_fx,
            1 => &mut s.fu_fp,
            2 | 3 => &mut s.fu_ls,
            _ => &mut s.fu_br,
        };
        let mut iss = fu.acquire(ready);
        if self.in_order {
            iss = iss.max(self.last_issue);
        }
        fu.release_at(iss + 1);
        self.last_issue = iss;

        let complete = match OP {
            1 => iss + self.fp_latency,
            2 => {
                let ev = self.data_access(dc);
                iss + 1 + self.load_latency[ev]
            }
            // Stores complete once the address is generated; the data
            // drains from the store queue after commit.
            3 => {
                self.data_access(dc);
                iss + 1
            }
            _ => iss + self.fx_latency,
        };
        let cm = self.commit(complete);
        let s = &mut *self.scratch;
        s.rob.release_at(cm);
        match OP {
            0 => {
                s.gpr.release_at(cm);
                s.resv_fx.release_at(iss + 1);
                self.acts.fx_ops += 1;
            }
            1 => {
                s.fpr.release_at(cm);
                s.resv_fp.release_at(iss + 1);
                self.acts.fp_ops += 1;
            }
            2 => {
                s.gpr.release_at(cm);
                s.lsq.release_at(cm);
                self.acts.loads += 1;
            }
            3 => {
                s.lsq.release_at(cm);
                s.sq.release_at(cm + 2);
                self.acts.stores += 1;
            }
            _ => {
                s.spr.release_at(cm);
                s.resv_br.release_at(iss + 1);
                self.acts.branches += 1;
                self.resolve_branch(meta, bc, complete);
            }
        }
        self.scratch.complete_ring[i & MASK] = complete;
    }

    /// The cycle instruction `i`'s operands are ready, dispatched at `d`.
    #[inline(always)]
    fn readiness(&self, i: usize, d: u64, meta: u64) -> u64 {
        // Branchless: an out-of-window distance contributes 0 to the max
        // instead of skipping the lookup, so the two data-dependent "has a
        // dependency" branches disappear. The masked index is always in
        // bounds; the stale slot it reads when the distance is invalid is
        // masked away.
        let ring = &self.scratch.complete_ring;
        let horizon = i.min(DEP_WINDOW);
        let s1 = (meta >> 16 & 0xFFFF) as usize;
        let v1 = ((s1 > 0 && s1 <= horizon) as u64).wrapping_neg();
        let p1 = ring[i.wrapping_sub(s1) & MASK];
        let s2 = (meta >> 32 & 0xFFFF) as usize;
        let v2 = ((s2 > 0 && s2 <= horizon) as u64).wrapping_neg();
        let p2 = ring[i.wrapping_sub(s2) & MASK];
        (d + 1).max(p1 & v1).max(p2 & v2)
    }

    /// Counts data event `dc` and returns its outcome.
    #[inline(always)]
    fn data_access(&mut self, dc: usize) -> usize {
        let ev = unpack::<2>(self.data_events, dc);
        self.acts.dl1_accesses += 1;
        // Branchless event accounting: a hit adds zero to the miss
        // counters rather than branching around them.
        let missed = (ev != OUTCOME_L1 as usize) as u64;
        self.acts.dl1_misses += missed;
        self.acts.l2_accesses += missed;
        self.acts.l2_misses += (ev == 2) as u64;
        ev
    }

    #[inline(always)]
    fn commit(&mut self, complete: u64) -> u64 {
        let mut cm = (complete + 1).max(self.last_commit);
        cm += (cm == self.last_commit && self.committed_this_cycle >= self.commit_width) as u64;
        self.committed_this_cycle =
            if cm > self.last_commit { 1 } else { self.committed_this_cycle + 1 };
        self.last_commit = cm;
        cm
    }

    /// Applies branch event `bc` to a branch completing at `complete`.
    #[inline(always)]
    fn resolve_branch(&mut self, meta: u64, bc: usize, complete: u64) {
        self.acts.bht_lookups += 1;
        if unpack::<1>(self.branch_events, bc) == 0 {
            self.acts.mispredicts += 1;
            // Redirect: fetch resumes after the branch resolves.
            self.redirect_ready = self.redirect_ready.max(complete + 1);
        } else if meta & 16 != 0 {
            // A correctly predicted taken branch still ends the fetch
            // group (one-cycle fetch bubble).
            self.fetched_this_cycle = self.decode_width;
        }
    }

    /// The activity of the `measured` instructions after the warmup.
    fn measured_acts(&self, measured: u64) -> ActivityCounts {
        let mut acts = self.acts.since(&self.warmup_acts);
        acts.instructions = measured;
        acts.cycles = self.last_commit.saturating_sub(self.warmup_commit).max(1);
        acts
    }

    fn finish(self, acts: &ActivityCounts) -> SimResult {
        let power = PowerModel::new(self.cfg).evaluate(acts);
        SimResult::new(self.cfg, acts, power, self.stalls.since(&self.warmup_stalls))
    }
}

/// The work a measured region asks of each bounded resource, counted
/// from the preflight's packed words rather than from any lane's own
/// counters.
#[cfg(debug_assertions)]
struct MeasuredOps {
    insts: u64,
    /// Loads plus stores: both issue to the load/store units.
    memory: u64,
    fp: u64,
    branches: u64,
}

#[cfg(debug_assertions)]
impl MeasuredOps {
    fn of(packed: &[u64]) -> Self {
        use udse_trace::OpClass;
        let mut by_class = [0u64; 8];
        for &meta in packed {
            by_class[(meta & 7) as usize] += 1;
        }
        MeasuredOps {
            insts: packed.len() as u64,
            memory: by_class[OpClass::Load as usize] + by_class[OpClass::Store as usize],
            fp: by_class[OpClass::FloatingPoint as usize],
            branches: by_class[OpClass::Branch as usize],
        }
    }

    /// Asserts that a lane's cycles beat no single resource's bandwidth:
    /// decode width, units per class, ROB entries (Little's law with a
    /// one-cycle minimum latency), and `front_stages` of redirect per
    /// mispredict; and that it mispredicted no more branches than it
    /// looked up. Stall fields are not bounded: causes overlap, so a
    /// stall field may exceed the cycles it cost (DESIGN.md §16).
    fn check(&self, lane: &Lane<'_>, acts: &ActivityCounts) {
        let cfg = lane.cfg;
        let c = acts.cycles;
        let units = u64::from(cfg.units_per_class);
        assert!(c * u64::from(cfg.decode_width) >= self.insts, "decode bound: {cfg:?}");
        assert!(c * units >= self.memory, "load/store unit bound: {cfg:?}");
        assert!(c * units >= self.fp, "floating-point unit bound: {cfg:?}");
        assert!(c * units >= self.branches, "branch unit bound: {cfg:?}");
        assert!(c * u64::from(cfg.rob_entries) >= self.insts, "ROB bound: {cfg:?}");
        assert!(c >= acts.mispredicts * lane.front_stages, "redirect bound: {cfg:?}");
        assert!(acts.mispredicts <= self.branches, "more mispredicts than lookups: {cfg:?}");
    }
}

/// Steps `K` designs ("lanes") through one preflighted trace in a single
/// loop, discarding statistics for the first `warmup_insts`
/// instructions. Each job's streams must have been resolved from `pre`
/// for that design's sub-configs, and each lane gets its own scratch;
/// result `k` is bit-identical to job `k` run alone through
/// [`Simulator::run_streamed_with`], which is this loop at `K = 1`.
///
/// The lanes share the per-instruction work that depends only on the
/// trace: reading the packed word, the one opcode dispatch, and the
/// code/data/branch event cursors (how many events precede an
/// instruction is fixed by the preflight). Everything that depends on
/// the design is per lane.
///
/// # Panics
///
/// Panics if `K == 0`, if `warmup_insts >= pre.len()`, or if a job's
/// stream event counts do not match the preflight.
///
/// # Examples
///
/// ```
/// use udse_sim::{
///     run_streamed_lanes, BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig,
///     MachineConfig, Simulator, StreamScratch, TracePreflight,
/// };
/// use udse_trace::{Benchmark, Trace};
///
/// let trace = Trace::generate(Benchmark::Mcf, 2_000, 1);
/// let pre = TracePreflight::of(&trace);
/// let base = MachineConfig::power4_baseline();
/// let sims = [Simulator::new(base), Simulator::new(MachineConfig { dl1_kb: 8, ..base })];
/// let streams: Vec<_> = sims
///     .iter()
///     .map(|s| {
///         let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(s.config()));
///         (cache, BranchStream::resolve(&pre, &BhtSubConfig::of(s.config())))
///     })
///     .collect();
/// let (mut a, mut b) = (StreamScratch::default(), StreamScratch::default());
/// let both = run_streamed_lanes(
///     [(&sims[0], &streams[0].0, &streams[0].1), (&sims[1], &streams[1].0, &streams[1].1)],
///     &pre,
///     500,
///     [&mut a, &mut b],
/// );
/// for (sim, result) in sims.iter().zip(both) {
///     assert_eq!(result, sim.run_with_warmup(&trace, 500));
/// }
/// ```
pub fn run_streamed_lanes<const K: usize>(
    jobs: [LaneJob<'_>; K],
    pre: &TracePreflight,
    warmup_insts: usize,
    scratches: [&mut StreamScratch; K],
) -> [SimResult; K] {
    assert!(K > 0, "a lane bundle needs at least one design");
    assert!(warmup_insts < pre.len(), "warmup must leave at least one measured instruction");
    let mut scratches = scratches.into_iter();
    let mut lanes =
        jobs.map(|job| Lane::new(job, pre, scratches.next().expect("one scratch per job")));

    let (mut cc, mut dc, mut bc) = (0usize, 0usize, 0usize);
    for (i, &meta) in pre.packed().iter().enumerate() {
        if i == warmup_insts {
            lanes.iter_mut().for_each(Lane::mark_warmup);
        }
        lanes.iter_mut().for_each(|l| l.front(meta, cc));
        // One opcode dispatch per instruction, not per design: every
        // lane takes the same arm.
        match meta & 7 {
            0 => lanes.iter_mut().for_each(|l| l.step::<0>(i, meta, dc, bc)),
            1 => lanes.iter_mut().for_each(|l| l.step::<1>(i, meta, dc, bc)),
            2 => {
                lanes.iter_mut().for_each(|l| l.step::<2>(i, meta, dc, bc));
                dc += 1;
            }
            3 => {
                lanes.iter_mut().for_each(|l| l.step::<3>(i, meta, dc, bc));
                dc += 1;
            }
            _ => {
                lanes.iter_mut().for_each(|l| l.step::<4>(i, meta, dc, bc));
                bc += 1;
            }
        }
        cc += (meta & 8 != 0) as usize;
    }

    // One registry update per bundle (never per instruction) keeps the
    // accounting overhead invisible next to the simulation itself.
    udse_obs::metrics::counter("sim.runs").add(K as u64);
    udse_obs::metrics::counter("sim.instructions").add((K * pre.len()) as u64);
    let measured = (pre.len() - warmup_insts) as u64;
    #[cfg(debug_assertions)]
    let ops = MeasuredOps::of(&pre.packed()[warmup_insts..]);
    lanes.map(|lane| {
        let acts = lane.measured_acts(measured);
        #[cfg(debug_assertions)]
        ops.check(&lane, &acts);
        lane.finish(&acts)
    })
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
    /// allocation-free steady state across many runs: the one-lane
    /// call of [`run_streamed_lanes`].
    pub fn run_streamed_with(
        &self,
        pre: &TracePreflight,
        cache: &CacheStreams,
        branches: &BranchStream,
        warmup_insts: usize,
        scratch: &mut StreamScratch,
    ) -> SimResult {
        let [result] = run_streamed_lanes([(self, cache, branches)], pre, warmup_insts, [scratch]);
        result
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
    fn stalls_exclude_the_warmup_prefix() {
        // Stall cycles accumulate per instruction, so discarding a longer
        // warmup can only remove stall cycles, and discarding half a
        // stall-heavy trace must remove some.
        let trace = Trace::generate(Benchmark::Mcf, 8_000, 3);
        let cfg = MachineConfig::power4_baseline();
        let (pre, cache, bht) = artifacts(&cfg, &trace);
        let sim = Simulator::new(cfg);
        let fields = |s: &StallBreakdown| {
            [s.redirect, s.icache, s.rob, s.registers, s.reservations, s.lsq, s.store_queue]
        };
        let by_warmup: Vec<[u64; 7]> = [0usize, 1, 2_000, 4_000, 7_999]
            .iter()
            .map(|&w| fields(&sim.run_streamed(&pre, &cache, &bht, w).stalls))
            .collect();
        for pair in by_warmup.windows(2) {
            assert!(pair[0].iter().zip(&pair[1]).all(|(a, b)| a >= b), "{pair:?}");
        }
        let total = |s: &[u64; 7]| s.iter().sum::<u64>();
        assert!(total(&by_warmup[3]) < total(&by_warmup[0]), "{by_warmup:?}");
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
