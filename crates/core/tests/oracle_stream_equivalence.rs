//! Exhaustive bitwise equivalence of the memoizing oracle on the fig1
//! quick workload.
//!
//! The oracle shares one trace preflight per benchmark and one set of
//! resolved outcome streams per sub-config across every design it
//! simulates, and promises that every result is bitwise-identical to a
//! one-shot `run_with_warmup`, which resolves streams for that design
//! alone. This test proves it exhaustively over exactly the job
//! population the quick fig1 run simulates: the 200-sample training plan
//! crossed with all nine benchmarks plus the 25-sample validation set —
//! every design the study touches, evaluated through the memoizing
//! `SimOracle` batch path and re-simulated one-shot, bit for bit. (Trace
//! length is shortened from the study's 200k so the re-simulation stays
//! fast in debug builds; the full-scale identity is held by the BENCH
//! quality baseline, which is bit-exact against the pre-decomposition
//! seed.)
//!
//! The second case holds the same promise for the configs outside the
//! design space that the extension studies and the `adhoc` benchmark
//! simulate, batched through `SimOracle::simulate_many`: every
//! `SimResult` field, stalls and miss rates included.

use udse_core::oracle::{Metrics, Oracle, SimOracle};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::{StudyConfig, TrainedSuite};
use udse_sim::{MachineConfig, Simulator};
use udse_trace::Benchmark;

#[test]
fn fig1_quick_jobs_are_bitwise_identical_to_one_shot_simulation() {
    let config = StudyConfig::quick();
    let oracle = SimOracle::with_trace_len(2_000);

    // The exact job list fig1 runs: training plan (benchmarks-major
    // cross product), then the validation sample across the suite.
    let plan = TrainedSuite::training_plan(&config);
    let mut jobs: Vec<(Benchmark, DesignPoint)> = plan.jobs().to_vec();
    let validation =
        DesignSpace::paper().sample_uar(config.validation_samples, config.seed ^ 0xA11D);
    for p in &validation {
        for &b in Benchmark::ALL.iter() {
            jobs.push((b, *p));
        }
    }
    assert_eq!(jobs.len(), 9 * (config.train_samples + config.validation_samples));

    let streamed = oracle.evaluate_many(&jobs);

    // Sub-config collapse is the whole point: thousands of jobs must
    // fold onto a small set of resolved streams.
    let lookups = oracle.precompute_hits() + oracle.precompute_misses();
    assert_eq!(lookups, 2 * jobs.len() as u64);
    // At most 125 cache triples + 1 BHT config exist per benchmark, so
    // the distinct-key population is bounded by 9 * 126 = 1134 however
    // many jobs run; everything else must hit the memo.
    assert!(
        oracle.precompute_misses() <= 9 * 126,
        "more misses than distinct sub-keys exist: {}",
        oracle.precompute_misses()
    );
    assert!(
        oracle.precompute_hits() > 3 * oracle.precompute_misses(),
        "expected heavy sub-config reuse, got {} hits / {} misses",
        oracle.precompute_hits(),
        oracle.precompute_misses()
    );

    for ((b, p), got) in jobs.iter().zip(&streamed) {
        let one_shot = Simulator::new(p.to_machine_config())
            .run_with_warmup(&oracle.trace(*b), oracle.warmup_insts());
        assert_eq!(
            *got,
            Metrics { bips: one_shot.bips, watts: one_shot.watts },
            "divergence for {b:?} at {p:?}"
        );
    }
}

/// The `adhoc` benchmark workload's eight out-of-space variants: D-L1
/// associativity 1/2/4/8, in-order issue, both prefetchers, and two
/// predictor geometries on the baseline.
fn adhoc_variants() -> [MachineConfig; 8] {
    let base = MachineConfig::power4_baseline();
    [
        MachineConfig { dl1_assoc: 1, ..base },
        MachineConfig { dl1_assoc: 2, ..base },
        MachineConfig { dl1_assoc: 4, ..base },
        MachineConfig { dl1_assoc: 8, ..base },
        MachineConfig { in_order: true, ..base },
        MachineConfig { il1_next_line_prefetch: true, dl1_stride_prefetch: true, ..base },
        MachineConfig { bht_entries: 1_024, bht_counter_bits: 2, ..base },
        MachineConfig { bht_entries: 65_536, ..base },
    ]
}

#[test]
fn out_of_space_batch_is_bitwise_identical_to_one_shot_simulation() {
    let oracle = SimOracle::with_trace_len(2_000);
    let space = DesignSpace::paper();
    let in_space = |idx: u64| space.decode(idx).unwrap().to_machine_config();
    // Per-benchmark group sizes: gcc 11 (two four-lane bundles and a
    // ragged tail of three), mcf 8 (two bundles, no tail), twolf 5 (one
    // bundle and a tail of one), gzip 2 (a tail only). Jobs interleave
    // across benchmarks, so the batch regroups and reassembles them.
    let v = adhoc_variants();
    let groups = [
        (Benchmark::Gcc, [v.to_vec(), [1, 77_777, 150_000].map(in_space).to_vec()].concat()),
        (Benchmark::Mcf, v.to_vec()),
        (Benchmark::Twolf, vec![in_space(42), v[4], in_space(9_999), v[5], in_space(123_456)]),
        (Benchmark::Gzip, vec![v[6], in_space(2_024)]),
    ];
    let jobs: Vec<(Benchmark, MachineConfig)> = (0..11)
        .flat_map(|k| groups.iter().filter_map(move |(b, cfgs)| cfgs.get(k).map(|c| (*b, *c))))
        .collect();
    assert_eq!(jobs.len(), 26);

    let batched = oracle.simulate_many(&jobs);
    assert_eq!(batched.len(), jobs.len());
    for ((b, cfg), got) in jobs.iter().zip(&batched) {
        let one_shot =
            Simulator::new(*cfg).run_with_warmup(&oracle.trace(*b), oracle.warmup_insts());
        assert_eq!(*got, one_shot, "divergence for {b:?} at {cfg:?}");
    }
}
