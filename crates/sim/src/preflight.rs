//! Design-invariant trace preflight and sub-config outcome streams.
//!
//! The cycle engine recomputes two kinds of work for every design point
//! it simulates: it walks the trace's AoS instruction records, and it
//! replays the cache hierarchy and branch predictor from cold. Neither
//! depends on the full design point. The trace's structure (op classes,
//! dependency distances, block ids, branch outcomes) is invariant across
//! *all* designs, and the microarchitectural state machines are pure
//! functions of a small sub-configuration:
//!
//! - cache hit/miss/level outcomes depend only on the trace order and the
//!   IL1/DL1/L2 geometry (plus the prefetch flags, which mutate cache
//!   state) — the engine's timing never feeds back into *which* blocks
//!   are accessed or in what order;
//! - branch predict-correct/mispredict outcomes depend only on the trace
//!   order and the BHT geometry.
//!
//! This module decomposes the simulator accordingly: [`TracePreflight`]
//! decodes a trace once into the columns the engine and the resolvers
//! read, shared via `Arc` across every run of that trace, and
//! [`CacheStreams`] / [`BranchStream`] resolve the outcomes once per
//! [`CacheSubConfig`] / [`BhtSubConfig`] by replaying the
//! `CacheHierarchy` / `BhtPredictor` state machines.
//! `Simulator::run_streamed` then consumes the resolved outcomes with
//! table lookups instead of state-machine replays. A one-shot
//! `Simulator::run` performs all three steps for a single design; the
//! simulation oracle memoizes the first two across designs.
//!
//! Outcome streams are *event-indexed*, not instruction-indexed, and
//! bit-packed into `u64` words: two bits per code-block boundary and per
//! memory op (L1 / L2 / memory), one bit per branch (predicted
//! correctly or not). The preflight's packed words tell the engine when
//! to advance each cursor, and the lane loop unpacks an outcome with a
//! shift and a mask. At 200k instructions a cache stream pair takes
//! 18–25 KB (74–99 KB at a byte per outcome) and a branch stream
//! 1–6 KB, so the ~1,100 streams a paper-scale `repro all` resolves
//! take roughly 23 MB instead of 95 MB.

use std::sync::Arc;

use udse_trace::{OpClass, Trace};

use crate::cache::{AccessOutcome, CacheHierarchy, StridePrefetcher};
use crate::config::MachineConfig;
use crate::predictor::BhtPredictor;

/// Outcome code for a cache access event: hit in the queried L1.
pub const OUTCOME_L1: u8 = 0;
/// Outcome code for a cache access event: missed L1, hit the L2.
pub const OUTCOME_L2: u8 = 1;
/// Outcome code for a cache access event: served from main memory.
pub const OUTCOME_MEMORY: u8 = 2;

fn encode(outcome: AccessOutcome) -> u8 {
    match outcome {
        AccessOutcome::L1 => OUTCOME_L1,
        AccessOutcome::L2 => OUTCOME_L2,
        AccessOutcome::Memory => OUTCOME_MEMORY,
    }
}

/// A column of `BITS`-wide codes packed into `u64` words, lowest bits
/// first: code `k` sits in word `k / (64 / BITS)` at bit
/// `k % (64 / BITS) * BITS`. The words are allocated zeroed at the
/// column's final length, so the resident size is
/// `8 * ceil(len * BITS / 64)` bytes and a push is one OR into place.
#[derive(Debug, Clone)]
struct Packed<const BITS: usize> {
    words: Vec<u64>,
    len: usize,
}

impl<const BITS: usize> Packed<BITS> {
    const PER_WORD: usize = 64 / BITS;

    /// An empty column with room for exactly `capacity` codes.
    fn with_capacity(capacity: usize) -> Self {
        Packed { words: vec![0; capacity.div_ceil(Self::PER_WORD)], len: 0 }
    }

    /// Appends `code`.
    ///
    /// # Panics
    ///
    /// Panics when the column already holds its capacity (rounded up to
    /// whole words).
    fn push(&mut self, code: u8) {
        self.words[self.len / Self::PER_WORD] |=
            (code as u64) << (self.len % Self::PER_WORD * BITS);
        self.len += 1;
    }

    fn get(&self, k: usize) -> usize {
        unpack::<BITS>(&self.words, k)
    }

    fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

/// Code `k` of a `BITS`-wide packed column (see [`Packed`]): the lane
/// loop's one shift and mask per event.
#[inline(always)]
pub(crate) fn unpack<const BITS: usize>(words: &[u64], k: usize) -> usize {
    let per_word = 64 / BITS;
    (words[k / per_word] >> (k % per_word * BITS)) as usize & ((1 << BITS) - 1)
}

/// A trace decoded once into design-invariant columns.
///
/// Built once per `(benchmark, trace)` and shared via [`Arc`] across
/// every simulation and stream resolution of that trace. One packed word
/// per instruction is what `Simulator::run_streamed` walks; the
/// event-indexed cache and branch columns are what the stream resolvers
/// replay. Nothing else of the trace is kept.
///
/// # Examples
///
/// ```
/// use udse_sim::TracePreflight;
/// use udse_trace::{Benchmark, Trace};
///
/// let trace = Trace::generate(Benchmark::Gzip, 2_000, 1);
/// let pre = TracePreflight::of(&trace);
/// assert_eq!(pre.len(), 2_000);
/// assert!(pre.branch_events() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct TracePreflight {
    /// Per-instruction hot-loop word: everything the engine reads per
    /// instruction in one load — `op` (bits 0-2, the [`OpClass`]
    /// discriminant), `new_code` (bit 3: the instruction begins a
    /// different code block than its predecessor, so its fetch touches
    /// the I-cache), `taken` (bit 4), `src1_dist` (bits 16-31),
    /// `src2_dist` (bits 32-47).
    packed: Vec<u64>,
    /// `(branch_site, taken)` of every branch, in trace order: all the
    /// branch predictor replay reads.
    branches: Vec<(u32, bool)>,
    /// Interleaved cache access events in trace order, packed as
    /// `block << 1 | is_data`. Stream resolution replays the hierarchy
    /// over exactly these (the interleaving matters: the unified L2
    /// sees both streams), skipping the non-event instructions. The
    /// set-index hashes are recomputed per replay rather than stored:
    /// two hash columns would add 16 bytes per event to save about
    /// 0.1 ms of mixing per 200k-instruction resolve.
    cache_events: Vec<u64>,
    code_events: usize,
    data_events: usize,
}

impl TracePreflight {
    /// Decodes `trace` into its columns.
    pub fn of(trace: &Trace) -> Self {
        let insts = trace.instructions();
        let mut pre = TracePreflight {
            packed: Vec::with_capacity(insts.len()),
            branches: Vec::new(),
            cache_events: Vec::new(),
            code_events: 0,
            data_events: 0,
        };
        let mut prev_code_block: Option<u32> = None;
        for inst in insts {
            let new_code = prev_code_block != Some(inst.code_block);
            prev_code_block = Some(inst.code_block);
            pre.packed.push(
                inst.op as u64
                    | (new_code as u64) << 3
                    | (inst.taken as u64) << 4
                    | (inst.src1_dist as u64) << 16
                    | (inst.src2_dist as u64) << 32,
            );
            pre.code_events += new_code as usize;
            if new_code {
                pre.cache_events.push((inst.code_block as u64) << 1);
            }
            match inst.op {
                OpClass::Load | OpClass::Store => {
                    pre.data_events += 1;
                    pre.cache_events.push((inst.data_block as u64) << 1 | 1);
                }
                OpClass::Branch => pre.branches.push((inst.branch_site, inst.taken)),
                _ => {}
            }
        }
        pre
    }

    /// Convenience: decode and wrap in an [`Arc`] for sharing.
    pub fn shared(trace: &Trace) -> Arc<Self> {
        Arc::new(Self::of(trace))
    }

    /// Instructions in the trace.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Number of I-cache access events (code-block boundaries).
    pub fn code_events(&self) -> usize {
        self.code_events
    }

    /// Number of D-cache access events (loads plus stores).
    pub fn data_events(&self) -> usize {
        self.data_events
    }

    /// Number of branch-predictor events (branch instructions).
    pub fn branch_events(&self) -> usize {
        self.branches.len()
    }

    /// Packed hot-loop words (see the field docs for the layout).
    pub(crate) fn packed(&self) -> &[u64] {
        &self.packed
    }
}

/// The slice of a [`MachineConfig`] that cache outcome streams depend
/// on: the three cache geometries plus the prefetch flags (prefetches
/// mutate cache state, so they are part of the key). Everything else in
/// the design point — width, depth, registers, queues — cannot change a
/// cache outcome, which is what lets thousands of design points share a
/// few dozen streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheSubConfig {
    /// I-L1 size in KB.
    pub il1_kb: u32,
    /// I-L1 associativity.
    pub il1_assoc: u32,
    /// D-L1 size in KB.
    pub dl1_kb: u32,
    /// D-L1 associativity.
    pub dl1_assoc: u32,
    /// Unified L2 size in KB.
    pub l2_kb: u32,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// Next-line instruction prefetch enabled.
    pub il1_next_line_prefetch: bool,
    /// Stride data prefetch enabled.
    pub dl1_stride_prefetch: bool,
}

impl CacheSubConfig {
    /// Extracts the cache sub-configuration of a full machine config.
    pub fn of(cfg: &MachineConfig) -> Self {
        CacheSubConfig {
            il1_kb: cfg.il1_kb,
            il1_assoc: cfg.il1_assoc,
            dl1_kb: cfg.dl1_kb,
            dl1_assoc: cfg.dl1_assoc,
            l2_kb: cfg.l2_kb,
            l2_assoc: cfg.l2_assoc,
            il1_next_line_prefetch: cfg.il1_next_line_prefetch,
            dl1_stride_prefetch: cfg.dl1_stride_prefetch,
        }
    }
}

/// The slice of a [`MachineConfig`] that the branch outcome stream
/// depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BhtSubConfig {
    /// Branch history table entries (power of two).
    pub entries: u32,
    /// Saturating-counter width in bits (1 or 2).
    pub counter_bits: u8,
}

impl BhtSubConfig {
    /// Extracts the BHT sub-configuration of a full machine config.
    pub fn of(cfg: &MachineConfig) -> Self {
        BhtSubConfig { entries: cfg.bht_entries, counter_bits: cfg.bht_counter_bits }
    }
}

/// Cache access outcomes for one `(trace, cache sub-config)` pair,
/// resolved once and replayed by every design point sharing the
/// sub-config.
///
/// Event-indexed: code outcome `k` is that of the k-th code-block
/// boundary in trace order, data outcome `k` that of the k-th load or
/// store. Each is one of [`OUTCOME_L1`] / [`OUTCOME_L2`] /
/// [`OUTCOME_MEMORY`], stored in two bits.
#[derive(Debug, Clone)]
pub struct CacheStreams {
    code: Packed<2>,
    data: Packed<2>,
}

impl CacheStreams {
    /// Replays the cache hierarchy over the preflighted trace, recording
    /// every demand outcome. Prefetches are issued in the order a fetch
    /// and execute pipeline would issue them: the next-line prefetch
    /// after its code fetch, the stride prefetch before its demand
    /// access.
    pub fn resolve(pre: &TracePreflight, sub: &CacheSubConfig) -> Self {
        let mut caches = CacheHierarchy::with_geometry(
            (sub.il1_kb, sub.il1_assoc),
            (sub.dl1_kb, sub.dl1_assoc),
            (sub.l2_kb, sub.l2_assoc),
        );
        let mut prefetcher = StridePrefetcher::new();
        let mut code = Packed::with_capacity(pre.code_events());
        let mut data = Packed::with_capacity(pre.data_events());
        // Walk the merged event column instead of every instruction: the
        // interleaving (which the unified L2 observes) is preserved, the
        // ~35% of instructions that touch no cache are skipped.
        for &e in &pre.cache_events {
            let block = e >> 1;
            if e & 1 == 0 {
                code.push(encode(caches.access_code(block)));
                if sub.il1_next_line_prefetch {
                    caches.prefetch_code(block + 1);
                }
            } else {
                if sub.dl1_stride_prefetch {
                    prefetcher.observe(&mut caches, block as i64);
                }
                data.push(encode(caches.access_data(block)));
            }
        }
        CacheStreams { code, data }
    }

    /// Number of code-boundary outcomes (the preflight's code events).
    pub fn code_events(&self) -> usize {
        self.code.len
    }

    /// Number of load/store outcomes (the preflight's data events).
    pub fn data_events(&self) -> usize {
        self.data.len
    }

    /// Outcome code of the k-th code-block boundary.
    ///
    /// # Panics
    ///
    /// Panics if `k` is past the last packed word.
    pub fn code_outcome(&self, k: usize) -> u8 {
        self.code.get(k) as u8
    }

    /// Outcome code of the k-th load or store.
    ///
    /// # Panics
    ///
    /// Panics if `k` is past the last packed word.
    pub fn data_outcome(&self, k: usize) -> u8 {
        self.data.get(k) as u8
    }

    /// The packed code and data words, for the lane loop.
    pub(crate) fn words(&self) -> (&[u64], &[u64]) {
        (&self.code.words, &self.data.words)
    }

    /// Resident size of the packed outcomes, for bounded-store
    /// accounting.
    pub fn bytes(&self) -> usize {
        self.code.bytes() + self.data.bytes()
    }
}

/// Branch predictor outcomes for one `(trace, BHT sub-config)` pair, one
/// bit per branch in trace order: set when the branch was predicted
/// correctly.
#[derive(Debug, Clone)]
pub struct BranchStream {
    correct: Packed<1>,
}

impl BranchStream {
    /// Replays the branch predictor over the preflighted trace.
    ///
    /// # Panics
    ///
    /// Panics if the sub-config is degenerate (entries not a power of
    /// two, unsupported counter width) — the same contract as
    /// [`BhtPredictor::with_counter_bits`].
    pub fn resolve(pre: &TracePreflight, sub: &BhtSubConfig) -> Self {
        let mut bht = BhtPredictor::with_counter_bits(sub.entries, sub.counter_bits);
        let mut correct = Packed::with_capacity(pre.branch_events());
        for &(site, taken) in &pre.branches {
            correct.push(bht.predict_and_update(site as u64, taken) as u8);
        }
        BranchStream { correct }
    }

    /// Number of branch outcomes (the preflight's branch events).
    pub fn len(&self) -> usize {
        self.correct.len
    }

    /// True when the trace has no branches.
    pub fn is_empty(&self) -> bool {
        self.correct.len == 0
    }

    /// Whether the k-th branch was predicted correctly.
    ///
    /// # Panics
    ///
    /// Panics if `k` is past the last packed word.
    pub fn correct(&self, k: usize) -> bool {
        self.correct.get(k) != 0
    }

    /// The packed correctness words, for the lane loop.
    pub(crate) fn words(&self) -> &[u64] {
        &self.correct.words
    }

    /// Resident size of the packed outcomes, for bounded-store
    /// accounting.
    pub fn bytes(&self) -> usize {
        self.correct.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udse_trace::Benchmark;

    fn trace() -> Trace {
        Trace::generate(Benchmark::Gcc, 5_000, 7)
    }

    /// Decodes the code-block boundary bit of a packed word.
    fn new_code(word: u64) -> bool {
        word & 8 != 0
    }

    #[test]
    fn packed_columns_round_trip_across_word_boundaries() {
        let codes: Vec<u8> = (0..131).map(|k| (k * 7 % 5 % 3) as u8).collect();
        let mut two = Packed::<2>::with_capacity(codes.len());
        let mut one = Packed::<1>::with_capacity(codes.len());
        for &c in &codes {
            two.push(c);
            one.push(c & 1);
        }
        for (k, &c) in codes.iter().enumerate() {
            assert_eq!(two.get(k), c as usize, "2-bit code {k}");
            assert_eq!(one.get(k), (c & 1) as usize, "1-bit code {k}");
        }
        assert_eq!(two.bytes(), 8 * 131usize.div_ceil(32));
        assert_eq!(one.bytes(), 8 * 131usize.div_ceil(64));
    }

    #[test]
    fn preflight_columns_match_trace() {
        let t = trace();
        let pre = TracePreflight::of(&t);
        assert_eq!(pre.len(), t.len());
        let insts = t.instructions();
        for (i, (inst, &word)) in insts.iter().zip(pre.packed()).enumerate() {
            assert_eq!(word & 7, inst.op as u64, "op at {i}");
            assert_eq!(word >> 16 & 0xFFFF, inst.src1_dist as u64, "src1 at {i}");
            assert_eq!(word >> 32 & 0xFFFF, inst.src2_dist as u64, "src2 at {i}");
            assert_eq!(word & 16 != 0, inst.taken, "taken at {i}");
            let expected_boundary = i == 0 || insts[i - 1].code_block != inst.code_block;
            assert_eq!(new_code(word), expected_boundary, "boundary at {i}");
        }
        let branches: Vec<(u32, bool)> = insts
            .iter()
            .filter(|i| i.op == OpClass::Branch)
            .map(|i| (i.branch_site, i.taken))
            .collect();
        assert_eq!(pre.branches, branches);
    }

    #[test]
    fn event_counts_partition_the_trace() {
        let t = trace();
        let pre = TracePreflight::of(&t);
        let mem = t
            .instructions()
            .iter()
            .filter(|i| matches!(i.op, OpClass::Load | OpClass::Store))
            .count();
        let br = t.instructions().iter().filter(|i| i.op == OpClass::Branch).count();
        assert_eq!(pre.data_events(), mem);
        assert_eq!(pre.branch_events(), br);
        assert!(pre.code_events() >= 1 && pre.code_events() <= pre.len());
    }

    #[test]
    fn cache_streams_replay_the_hierarchy() {
        let t = trace();
        let pre = TracePreflight::of(&t);
        let cfg = MachineConfig::power4_baseline();
        let sub = CacheSubConfig::of(&cfg);
        let streams = CacheStreams::resolve(&pre, &sub);
        assert_eq!(streams.code_events(), pre.code_events());
        assert_eq!(streams.data_events(), pre.data_events());

        // Replay by hand against a fresh hierarchy: outcomes must agree
        // event by event.
        let mut caches = CacheHierarchy::new(&cfg);
        let (mut cc, mut dc) = (0usize, 0usize);
        for (i, inst) in t.instructions().iter().enumerate() {
            if new_code(pre.packed()[i]) {
                let out = encode(caches.access_code(inst.code_block as u64));
                assert_eq!(streams.code_outcome(cc), out, "code event {cc}");
                cc += 1;
            }
            if matches!(inst.op, OpClass::Load | OpClass::Store) {
                let out = encode(caches.access_data(inst.data_block as u64));
                assert_eq!(streams.data_outcome(dc), out, "data event {dc}");
                dc += 1;
            }
        }
    }

    #[test]
    fn branch_stream_replays_the_predictor() {
        let t = trace();
        let pre = TracePreflight::of(&t);
        let sub = BhtSubConfig { entries: 1024, counter_bits: 2 };
        let stream = BranchStream::resolve(&pre, &sub);
        assert_eq!(stream.len(), pre.branch_events());
        let mut bht = BhtPredictor::with_counter_bits(sub.entries, sub.counter_bits);
        let mut k = 0usize;
        for inst in t.instructions() {
            if inst.op == OpClass::Branch {
                let correct = bht.predict_and_update(inst.branch_site as u64, inst.taken);
                assert_eq!(stream.correct(k), correct, "branch event {k}");
                k += 1;
            }
        }
        let mispredicts = (0..stream.len()).filter(|&k| !stream.correct(k)).count();
        assert_eq!(bht.mispredicts(), mispredicts as u64);
    }

    #[test]
    fn sub_configs_key_on_the_relevant_fields_only() {
        // Two designs differing only in non-cache knobs share a cache
        // key; changing any cache knob splits it.
        let a = MachineConfig::power4_baseline();
        let mut b = a;
        b.decode_width = 8;
        b.gpr = 130;
        b.fo4_per_stage = 12;
        b.resv_fx = 28;
        assert_eq!(CacheSubConfig::of(&a), CacheSubConfig::of(&b));
        assert_eq!(BhtSubConfig::of(&a), BhtSubConfig::of(&b));
        let mut c = a;
        c.dl1_kb = 128;
        assert_ne!(CacheSubConfig::of(&a), CacheSubConfig::of(&c));
        let mut d = a;
        d.il1_next_line_prefetch = true;
        assert_ne!(CacheSubConfig::of(&a), CacheSubConfig::of(&d));
        let mut e = a;
        e.bht_counter_bits = 2;
        assert_ne!(BhtSubConfig::of(&a), BhtSubConfig::of(&e));
    }
}
