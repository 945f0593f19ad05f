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

use udse_core::oracle::{Metrics, Oracle, SimOracle};
use udse_core::space::{DesignPoint, DesignSpace};
use udse_core::studies::{StudyConfig, TrainedSuite};
use udse_sim::Simulator;
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
