//! Property tests for the serializable evaluation-plan layer.
//!
//! `repro --shards` hands these documents to worker processes, so two
//! properties carry the whole determinism story: the JSON round trip
//! must be the identity (same jobs, same sim spec, same bytes), and the
//! shard slices must partition the plan's job IDs exactly — every job in
//! exactly one shard, in order, for any shard count. A worker handed a
//! corrupt plan must fail with an error, never panic.

mod common;

use common::{arbitrary_text, hostile_variants};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udse_core::plan::{EvalPlan, SimSpec};
use udse_core::space::DesignSpace;
use udse_trace::Benchmark;

/// A random plan mixing points from both design spaces (their depth
/// lists overlap, which is exactly what the fo4 disambiguation must
/// survive) under a label drawn from the characters labels really use.
fn arbitrary_plan(rng: &mut StdRng) -> EvalPlan {
    const LABEL_POOL: &[char] = &['a', 'z', 'A', '0', '.', '_', '-', ' ', '/', 'µ'];
    let label: String = (0..rng.gen_range(1usize..12))
        .map(|_| LABEL_POOL[rng.gen_range(0..LABEL_POOL.len())])
        .collect();
    let n = rng.gen_range(0usize..40);
    let jobs = (0..n)
        .map(|_| {
            let b = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
            let space =
                if rng.gen::<bool>() { DesignSpace::paper() } else { DesignSpace::exploration() };
            let p = space.decode(rng.gen_range(0..space.len())).expect("index in range");
            (b, p)
        })
        .collect();
    EvalPlan::from_jobs(&label, jobs)
}

fn arbitrary_spec(rng: &mut StdRng) -> SimSpec {
    SimSpec { trace_len: rng.gen_range(100usize..1_000_000), seed: rng.gen::<u64>() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn serialize_parse_serialize_is_identity(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = arbitrary_plan(&mut rng);
        let spec = arbitrary_spec(&mut rng);
        let text = plan.to_json(&spec).to_string_pretty();
        let (back, back_spec) = EvalPlan::parse(&text).expect("canonical plan parses");
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back_spec, spec);
        // Byte identity: canonical serialization is a fixed point.
        prop_assert_eq!(back.to_json(&back_spec).to_string_pretty(), text);
    }

    #[test]
    fn shard_slices_partition_the_plan_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = arbitrary_plan(&mut rng);
        let count = rng.gen_range(1usize..12);
        // Concatenating the slices in shard order reproduces the job
        // list: no job missing, duplicated, or reordered.
        let mut rebuilt = Vec::with_capacity(plan.len());
        let mut next_id = 0usize;
        for index in 0..count {
            let range = plan.shard_range(index, count);
            prop_assert_eq!(range.start, next_id);
            next_id = range.end;
            rebuilt.extend_from_slice(plan.shard_jobs(index, count));
        }
        prop_assert_eq!(next_id, plan.len());
        prop_assert_eq!(rebuilt.as_slice(), plan.jobs());
        // Balance: slice sizes differ by at most one.
        let sizes: Vec<usize> =
            (0..count).map(|i| plan.shard_range(i, count).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced shards: {:?}", sizes);
    }

    #[test]
    fn sharded_round_trip_reassembles_the_job_list(seed in 0u64..1_000_000) {
        // The full worker protocol in miniature: serialize the plan, let
        // each "worker" parse it and slice its shard, and check the
        // slices reassemble (by their stable IDs) into the original.
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = arbitrary_plan(&mut rng);
        let spec = arbitrary_spec(&mut rng);
        let text = plan.to_json(&spec).to_string_pretty();
        let count = rng.gen_range(1usize..6);
        let mut slots = vec![None; plan.len()];
        for index in 0..count {
            let (worker_view, _) = EvalPlan::parse(&text).expect("worker parses the plan");
            let range = worker_view.shard_range(index, count);
            for (id, job) in range.clone().zip(worker_view.shard_jobs(index, count)) {
                prop_assert!(slots[id].is_none(), "job {} claimed twice", id);
                slots[id] = Some(*job);
            }
        }
        for (id, slot) in slots.iter().enumerate() {
            prop_assert_eq!(slot.as_ref(), Some(&plan.jobs()[id]));
        }
    }

    #[test]
    fn hostile_plans_are_rejected_without_panicking(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = EvalPlan::parse(&arbitrary_text(&mut rng));
        // Keep the canonical document short: every truncation is tried.
        let plan = arbitrary_plan(&mut rng);
        let jobs: Vec<_> = plan.jobs().iter().take(3).copied().collect();
        let plan = EvalPlan::from_jobs(plan.label(), jobs);
        let text = plan.to_json(&arbitrary_spec(&mut rng)).to_string_pretty();
        for doc in hostile_variants(&text, &mut rng, 32) {
            let _ = EvalPlan::parse(&doc);
        }
    }
}
