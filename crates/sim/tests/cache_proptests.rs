//! Property tests for the set-associative cache.

use proptest::prelude::*;
use udse_sim::SetAssocCache;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// LRU inclusion: with the set count fixed, doubling the ways never
    /// turns a hit into a miss. Each set is true LRU indexed by the same
    /// hash bits, so an `a`-way set always holds the `a` most recent
    /// distinct blocks mapped to it, a subset of what `2a` ways hold.
    #[test]
    fn doubling_the_ways_never_loses_a_hit(
        kb in 1u32..17,
        assoc_log in 0u32..3,
        span in 8u64..512,
        blocks in prop::collection::vec(0u64..1 << 20, 1..2_000),
    ) {
        let assoc = 1 << assoc_log;
        let mut small = SetAssocCache::new(kb, assoc);
        let mut big = SetAssocCache::new(2 * kb, 2 * assoc);
        prop_assert_eq!(small.sets(), big.sets());
        for (i, block) in blocks.iter().map(|b| b % span).enumerate() {
            let small_hit = small.access(block);
            let big_hit = big.access(block);
            prop_assert!(!small_hit || big_hit, "access {} to block {}: small hit, big missed", i, block);
        }
        prop_assert!(big.misses() <= small.misses());
    }
}
