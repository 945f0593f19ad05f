use crate::config::{MachineConfig, BLOCK_BYTES};

/// Which level of the hierarchy satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the queried L1 (instruction or data).
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed everything; served from main memory.
    Memory,
}

/// A set-associative cache with true-LRU replacement over block
/// addresses.
///
/// The simulator operates at block granularity (the trace generator emits
/// 128-byte block addresses), so the cache stores tags only.
///
/// # Examples
///
/// ```
/// use udse_sim::SetAssocCache;
///
/// let mut c = SetAssocCache::new(8, 2); // 8 KB, 2-way, 128 B blocks
/// assert!(!c.access(42)); // cold miss
/// assert!(c.access(42));  // hit
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    assoc: usize,
    /// `sets - 1` when the set count is a power of two (every geometry
    /// in the paper's design space), letting the set index be a mask
    /// instead of an integer division; 0 otherwise, selecting the
    /// modulo fallback. Identical indices either way.
    set_mask: usize,
    /// `tags[set * assoc + way]`: block address or `u64::MAX` when
    /// invalid, ordered most-recently-used first within each set.
    tags: Vec<u64>,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `size_kb` kilobytes with `assoc` ways and
    /// 128-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes or associativity
    /// larger than the block count).
    pub fn new(size_kb: u32, assoc: u32) -> Self {
        assert!(size_kb > 0 && assoc > 0, "degenerate cache geometry");
        let blocks = (size_kb as usize * 1024) / BLOCK_BYTES as usize;
        assert!(blocks >= assoc as usize, "associativity exceeds block count");
        let sets = (blocks / assoc as usize).max(1);
        SetAssocCache {
            sets,
            assoc: assoc as usize,
            set_mask: if sets.is_power_of_two() { sets - 1 } else { 0 },
            tags: vec![u64::MAX; sets * assoc as usize],
            accesses: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Accesses `block`, updating LRU state; returns `true` on hit.
    /// Misses allocate the block (write-allocate at every level).
    pub fn access(&mut self, block: u64) -> bool {
        self.access_hashed(block, mix(block))
    }

    /// [`SetAssocCache::access`] with the caller supplying `mix(block)`
    /// — the stream resolver precomputes the design-invariant hashes
    /// once per trace instead of once per replay.
    pub(crate) fn access_hashed(&mut self, block: u64, hash: u64) -> bool {
        self.accesses += 1;
        let hit = self.install(block, hash);
        if !hit {
            self.misses += 1;
        }
        hit
    }

    /// Inserts `block` (moving it to MRU) without counting the touch in
    /// the demand access/miss statistics — the prefetch path.
    pub fn prefetch(&mut self, block: u64) {
        let _ = self.install(block, mix(block));
    }

    /// Moves `block` to MRU, inserting (and evicting LRU) on miss;
    /// returns `true` when the block was already resident. `hash` must
    /// be `mix(block)`.
    fn install(&mut self, block: u64, hash: u64) -> bool {
        let h = hash as usize;
        let set = if self.set_mask != 0 { h & self.set_mask } else { h % self.sets };
        let base = set * self.assoc;
        let ways = &mut self.tags[base..base + self.assoc];
        if ways[0] == block {
            // MRU hit: the LRU order is already correct, no writes.
            return true;
        }
        if let Some(pos) = ways.iter().position(|&t| t == block) {
            ways[..=pos].rotate_right(1);
            true
        } else {
            ways.rotate_right(1);
            ways[0] = block;
            false
        }
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Cheap 64-bit mixer decorrelating block addresses from set indices, so a
/// strided footprint does not alias pathologically.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The modeled two-level hierarchy: split L1 (instruction + data) backed
/// by a unified L2. Data and instruction streams use disjoint address
/// spaces (the generator's block ids), which the hierarchy separates with
/// a tag bit.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    il1: SetAssocCache,
    dl1: SetAssocCache,
    l2: SetAssocCache,
}

/// High bit distinguishing instruction blocks from data blocks within the
/// unified L2.
pub(crate) const CODE_SPACE: u64 = 1 << 48;

impl CacheHierarchy {
    /// Builds the hierarchy described by `config`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry; call [`MachineConfig::validate`]
    /// first for a friendly error.
    pub fn new(config: &MachineConfig) -> Self {
        Self::with_geometry(
            (config.il1_kb, config.il1_assoc),
            (config.dl1_kb, config.dl1_assoc),
            (config.l2_kb, config.l2_assoc),
        )
    }

    /// Builds a hierarchy directly from `(size_kb, assoc)` geometry
    /// triples — the cache sub-configuration that stream preflighting
    /// keys on, without needing a full [`MachineConfig`].
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry.
    pub fn with_geometry(il1: (u32, u32), dl1: (u32, u32), l2: (u32, u32)) -> Self {
        CacheHierarchy {
            il1: SetAssocCache::new(il1.0, il1.1),
            dl1: SetAssocCache::new(dl1.0, dl1.1),
            l2: SetAssocCache::new(l2.0, l2.1),
        }
    }

    /// Looks up a data block, touching D-L1 and (on miss) L2.
    pub fn access_data(&mut self, block: u64) -> AccessOutcome {
        self.access_data_hashed(block, mix(block))
    }

    /// [`CacheHierarchy::access_data`] with a precomputed `mix(block)`
    /// (data blocks use the same key at both levels).
    pub(crate) fn access_data_hashed(&mut self, block: u64, hash: u64) -> AccessOutcome {
        if self.dl1.access_hashed(block, hash) {
            AccessOutcome::L1
        } else if self.l2.access_hashed(block, hash) {
            AccessOutcome::L2
        } else {
            AccessOutcome::Memory
        }
    }

    /// Looks up an instruction block, touching I-L1 and (on miss) L2.
    pub fn access_code(&mut self, block: u64) -> AccessOutcome {
        self.access_code_hashed(block, mix(block), mix(block | CODE_SPACE))
    }

    /// [`CacheHierarchy::access_code`] with precomputed hashes of the
    /// I-L1 key (`block`) and the unified-L2 key (`block | CODE_SPACE`).
    pub(crate) fn access_code_hashed(
        &mut self,
        block: u64,
        l1_hash: u64,
        l2_hash: u64,
    ) -> AccessOutcome {
        if self.il1.access_hashed(block, l1_hash) {
            AccessOutcome::L1
        } else if self.l2.access_hashed(block | CODE_SPACE, l2_hash) {
            AccessOutcome::L2
        } else {
            AccessOutcome::Memory
        }
    }

    /// Prefetches an instruction block into I-L1 and L2 without touching
    /// demand statistics.
    pub fn prefetch_code(&mut self, block: u64) {
        self.il1.prefetch(block);
        self.l2.prefetch(block | CODE_SPACE);
    }

    /// Prefetches a data block into D-L1 and L2 without touching demand
    /// statistics.
    pub fn prefetch_data(&mut self, block: u64) {
        self.dl1.prefetch(block);
        self.l2.prefetch(block);
    }

    /// The instruction L1.
    pub fn il1(&self) -> &SetAssocCache {
        &self.il1
    }

    /// The data L1.
    pub fn dl1(&self) -> &SetAssocCache {
        &self.dl1
    }

    /// The unified L2.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }
}

/// Reference-prediction stride prefetcher: when two consecutive
/// demand-block deltas agree, pull the next block on the stride into the
/// hierarchy ahead of the demand access.
#[derive(Debug, Clone)]
pub(crate) struct StridePrefetcher {
    last_block: i64,
    last_delta: i64,
}

impl StridePrefetcher {
    pub(crate) fn new() -> Self {
        StridePrefetcher { last_block: -1, last_delta: 0 }
    }

    /// Observes one demand access to `block`, issuing a prefetch into
    /// `caches` when the stride is confirmed. Call before the demand
    /// access itself.
    pub(crate) fn observe(&mut self, caches: &mut CacheHierarchy, block: i64) {
        if self.last_block >= 0 {
            let delta = block - self.last_block;
            if delta != 0 && delta == self.last_delta {
                let next = block + delta;
                if next >= 0 {
                    caches.prefetch_data(next as u64);
                }
            }
            self.last_delta = delta;
        }
        self.last_block = block;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        // Direct-mapped 1-set scenario: 2 blocks, 2-way -> one set.
        let mut c = SetAssocCache::new(1, 2);
        assert_eq!(c.sets(), 4); // 1 KB / 128 B = 8 blocks / 2-way = 4 sets
                                 // Find three blocks mapping to the same set.
        let mut same_set = Vec::new();
        let target = (mix(0) as usize) % c.sets();
        let mut b = 0u64;
        while same_set.len() < 3 {
            if (mix(b) as usize) % c.sets() == target {
                same_set.push(b);
            }
            b += 1;
        }
        let (a, bb, cc) = (same_set[0], same_set[1], same_set[2]);
        assert!(!c.access(a));
        assert!(!c.access(bb));
        assert!(c.access(a)); // a is MRU now
        assert!(!c.access(cc)); // evicts bb (LRU)
        assert!(c.access(a));
        assert!(!c.access(bb)); // bb was evicted
    }

    #[test]
    fn working_set_within_capacity_mostly_hits() {
        // 16-block working set in a 64-block cache. Hashed set indexing
        // makes a few conflict misses possible (and cyclic sweeps thrash
        // any set holding more blocks than its ways), but at quarter
        // capacity steady state must be dominated by hits.
        let mut c = SetAssocCache::new(8, 2); // 64 blocks
        for _ in 0..10 {
            for b in 0..16u64 {
                c.access(b);
            }
        }
        assert!(c.miss_rate() < 0.15, "miss rate {}", c.miss_rate());
        // Higher associativity absorbs the same working set with fewer
        // conflicts at equal capacity.
        let mut c8 = SetAssocCache::new(8, 8);
        for _ in 0..10 {
            for b in 0..32u64 {
                c8.access(b);
            }
        }
        let mut c1 = SetAssocCache::new(8, 1);
        for _ in 0..10 {
            for b in 0..32u64 {
                c1.access(b);
            }
        }
        assert!(c8.miss_rate() <= c1.miss_rate());
    }

    #[test]
    fn streaming_past_capacity_misses() {
        let mut c = SetAssocCache::new(8, 2); // 64 blocks
        let mut misses = 0;
        for b in 0..10_000u64 {
            if !c.access(b % 1_000) {
                misses += 1;
            }
        }
        // 1,000-block working set in a 64-block cache: nearly all misses.
        assert!(misses > 9_000);
    }

    #[test]
    fn larger_cache_lower_miss_rate() {
        let run = |kb: u32| {
            let mut c = SetAssocCache::new(kb, 2);
            let mut misses = 0;
            // Cyclic working set of 256 blocks (32 KB).
            for i in 0..20_000u64 {
                if !c.access(i % 256) {
                    misses += 1;
                }
            }
            misses
        };
        assert!(run(64) < run(8));
    }

    #[test]
    fn hierarchy_l2_catches_l1_misses() {
        let cfg = MachineConfig::power4_baseline();
        let mut h = CacheHierarchy::new(&cfg);
        // Touch a block: cold -> Memory. Touch again: D-L1 hit.
        assert_eq!(h.access_data(7), AccessOutcome::Memory);
        assert_eq!(h.access_data(7), AccessOutcome::L1);
        // Evict from tiny view: stream enough blocks to evict 7 from L1
        // (32 KB = 256 blocks) but not from the 2 MB L2.
        for b in 100..1_000u64 {
            h.access_data(b);
        }
        assert_eq!(h.access_data(7), AccessOutcome::L2);
    }

    #[test]
    fn code_and_data_spaces_do_not_collide_in_l2() {
        let cfg = MachineConfig::power4_baseline();
        let mut h = CacheHierarchy::new(&cfg);
        h.access_data(1);
        // Same numeric block id on the code side must still cold-miss.
        assert_eq!(h.access_code(1), AccessOutcome::Memory);
        assert_eq!(h.access_code(1), AccessOutcome::L1);
    }

    #[test]
    fn prefetch_installs_without_counting() {
        let mut c = SetAssocCache::new(8, 2);
        c.prefetch(5);
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.misses(), 0);
        assert!(c.access(5), "prefetched block must hit");
    }

    #[test]
    fn hierarchy_prefetch_feeds_both_levels() {
        let cfg = MachineConfig::power4_baseline();
        let mut h = CacheHierarchy::new(&cfg);
        h.prefetch_code(9);
        assert_eq!(h.access_code(9), AccessOutcome::L1);
        h.prefetch_data(11);
        assert_eq!(h.access_data(11), AccessOutcome::L1);
    }

    #[test]
    fn miss_counters_track() {
        let mut c = SetAssocCache::new(8, 2);
        c.access(1);
        c.access(1);
        c.access(2);
        assert_eq!(c.accesses(), 3);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_size_panics() {
        let _ = SetAssocCache::new(0, 1);
    }
}
