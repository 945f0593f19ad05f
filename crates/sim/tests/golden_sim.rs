//! Golden fixture for the cycle simulator: every `SimResult` field, bit
//! for bit, over a fixed corpus of traces, designs and warmups.
//!
//! `golden_sim.txt` beside this file was generated from the
//! staged-pipeline reference engine (a direct replay of caches, branch
//! predictor and heap-backed occupancy pools per instruction) and is the
//! reference every simulator change is checked against: a refactor or
//! optimisation of the cycle engine must leave every line unchanged. A
//! deliberate change to the machine model regenerates it with
//!
//! ```text
//! cargo test -p udse-sim --test golden_sim -- --ignored --nocapture print_golden_fixture
//! ```
//!
//! keeping only the lines that start with a benchmark name (the
//! harness adds its own lines around them).
//!
//! One line per case:
//! `bench len trace_seed warmup config_id` followed by the 26 fields
//! `SimResult`'s `PartialEq` compares, in [`FIELDS`] order — floats as
//! the hex of their IEEE-754 bits, counts in decimal. The corpus covers
//! all nine benchmarks; the baseline; the adhoc benchmark's eight
//! out-of-space variants; twelve Table 1 designs; pool-size extremes;
//! warmups 0, 1, len/4 and len-1; and the first 64 draws of
//! `common::arbitrary_config`, each with the benchmark, length, trace
//! seed and warmup the same draw picks.
//!
//! The corpus runs twice against the fixture: one design per call, and
//! through `run_streamed_lanes` in four-lane bundles of the cases that
//! share a trace and warmup.

mod common;

use std::collections::HashMap;

use common::arbitrary_config;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udse_sim::{
    run_streamed_lanes, BhtSubConfig, BranchStream, CacheStreams, CacheSubConfig, MachineConfig,
    MachineConfigBuilder, SimResult, Simulator, StreamScratch, TracePreflight,
};
use udse_trace::{Benchmark, Trace};

const FIXTURE: &str = include_str!("golden_sim.txt");

/// Trace length and seed of the grid cases.
const GRID_LEN: usize = 3_000;
const GRID_SEED: u64 = 1;
/// A longer trace per benchmark, so caches and the dependence window
/// reach steady state.
const LONG_LEN: usize = 20_000;
/// Draws of `arbitrary_config` in the corpus (seeds `0..ARBITRARY`).
const ARBITRARY: u64 = 64;

/// Field names of one fixture line's values, in order.
const FIELDS: [&str; 26] = [
    "bips",
    "watts",
    "ipc",
    "frequency_ghz",
    "cycles",
    "instructions",
    "il1_miss_rate",
    "dl1_miss_rate",
    "l2_miss_rate",
    "mispredict_rate",
    "power.front_w",
    "power.rename_w",
    "power.regfile_w",
    "power.issue_w",
    "power.fu_w",
    "power.cache_w",
    "power.bpred_w",
    "power.clock_w",
    "power.leakage_w",
    "stalls.redirect",
    "stalls.icache",
    "stalls.rob",
    "stalls.registers",
    "stalls.reservations",
    "stalls.lsq",
    "stalls.store_queue",
];

/// Twelve Table 1 designs spanning every axis:
/// `(fo4, width, gpr, resv_fx, il1_kb, dl1_kb, l2_kb)`.
const TABLE1: [(u32, u32, u32, u32, u32, u32, u32); 12] = [
    (9, 2, 40, 10, 16, 8, 256),
    (9, 8, 130, 28, 256, 128, 4096),
    (12, 4, 70, 16, 64, 32, 1024),
    (15, 8, 40, 28, 16, 128, 256),
    (18, 2, 130, 10, 256, 8, 4096),
    (21, 4, 100, 22, 32, 64, 512),
    (24, 8, 80, 12, 128, 16, 2048),
    (27, 2, 60, 18, 64, 128, 1024),
    (30, 4, 120, 26, 16, 16, 4096),
    (33, 8, 50, 14, 256, 32, 256),
    (36, 2, 90, 24, 128, 64, 512),
    (36, 8, 130, 28, 256, 128, 4096),
];

/// The adhoc benchmark workload's eight out-of-space variants: D-L1
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

/// Every occupancy pool at the smallest size `validate` accepts.
fn pool_min() -> MachineConfig {
    MachineConfig {
        rob_entries: 8,
        gpr: 34,
        fpr: 34,
        spr: 10,
        resv_br: 1,
        resv_fx: 1,
        resv_fp: 1,
        lsq_entries: 1,
        store_queue_entries: 1,
        units_per_class: 1,
        ..MachineConfig::power4_baseline()
    }
}

/// Pools far beyond Table 1: 256-entry reservation stations, eight units
/// per class, 512-entry register files.
fn pool_max() -> MachineConfig {
    MachineConfig {
        decode_width: 8,
        rob_entries: 2_048,
        gpr: 512,
        fpr: 512,
        spr: 512,
        resv_br: 256,
        resv_fx: 256,
        resv_fp: 256,
        lsq_entries: 256,
        store_queue_entries: 256,
        units_per_class: 8,
        ..MachineConfig::power4_baseline()
    }
}

fn table1(i: usize) -> MachineConfig {
    let (fo4, width, gpr, fx, il1, dl1, l2) = TABLE1[i];
    MachineConfigBuilder::power4_baseline()
        .depth_fo4(fo4)
        .width(width)
        .registers(gpr)
        .reservations(fx)
        .il1_kb(il1)
        .dl1_kb(dl1)
        .l2_kb(l2)
        .build()
        .expect("Table 1 designs are valid")
}

/// One `arbitrary_config` draw and the trace case it picks, drawn in the
/// same order as `stream_proptests.rs`.
struct Draw {
    config: MachineConfig,
    bench: Benchmark,
    len: usize,
    seed: u64,
    warmup: usize,
}

fn draw(seed: u64) -> Draw {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = arbitrary_config(&mut rng);
    let bench = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
    let len = rng.gen_range(500usize..3_000);
    let seed = rng.gen();
    let warmup = rng.gen_range(0..len);
    Draw { config, bench, len, seed, warmup }
}

/// The configuration a fixture `config_id` names.
fn config(id: &str) -> MachineConfig {
    let index = |prefix: &str| id.strip_prefix(prefix).and_then(|n| n.parse::<usize>().ok());
    match id {
        "base" => MachineConfig::power4_baseline(),
        "pool_min" => pool_min(),
        "pool_max" => pool_max(),
        _ => {
            if let Some(i) = index("adhoc") {
                adhoc_variants()[i]
            } else if let Some(i) = index("t1_") {
                table1(i)
            } else if let Some(i) = index("arb") {
                draw(i as u64).config
            } else {
                panic!("unknown config id {id}")
            }
        }
    }
}

/// One corpus case: `(bench, len, trace_seed, warmup, config_id)`.
type Case = (Benchmark, usize, u64, usize, String);

fn corpus() -> Vec<Case> {
    let mut named: Vec<String> = vec!["base".into()];
    named.extend((0..adhoc_variants().len()).map(|i| format!("adhoc{i}")));
    named.extend((0..TABLE1.len()).map(|i| format!("t1_{i:02}")));
    named.extend(["pool_min".into(), "pool_max".into()]);
    let mut cases = Vec::new();
    for &b in Benchmark::ALL.iter() {
        for id in &named {
            cases.push((b, GRID_LEN, GRID_SEED, GRID_LEN / 4, id.clone()));
        }
        for id in ["base", "pool_min", "pool_max"] {
            for warmup in [0, 1, GRID_LEN - 1] {
                cases.push((b, GRID_LEN, GRID_SEED, warmup, id.into()));
            }
        }
        cases.push((b, LONG_LEN, GRID_SEED, LONG_LEN / 4, "base".into()));
    }
    for seed in 0..ARBITRARY {
        let d = draw(seed);
        cases.push((d.bench, d.len, d.seed, d.warmup, format!("arb{seed:02}")));
    }
    cases
}

/// `SimResult`'s compared fields, in [`FIELDS`] order, as fixture tokens.
fn tokens(r: &SimResult) -> Vec<String> {
    let f = |x: f64| format!("{:016x}", x.to_bits());
    let p = &r.power;
    let s = &r.stalls;
    let mut out: Vec<String> = [r.bips, r.watts, r.ipc, r.frequency_ghz].map(f).into();
    out.extend([r.cycles, r.instructions].map(|n| n.to_string()));
    out.extend([r.il1_miss_rate, r.dl1_miss_rate, r.l2_miss_rate, r.mispredict_rate].map(f));
    out.extend(
        [
            p.front_w,
            p.rename_w,
            p.regfile_w,
            p.issue_w,
            p.fu_w,
            p.cache_w,
            p.bpred_w,
            p.clock_w,
            p.leakage_w,
        ]
        .map(f),
    );
    out.extend(
        [s.redirect, s.icache, s.rob, s.registers, s.reservations, s.lsq, s.store_queue]
            .map(|n| n.to_string()),
    );
    debug_assert_eq!(out.len(), FIELDS.len());
    out
}

/// Simulates every case, generating each distinct trace once.
fn simulate(cases: &[Case]) -> Vec<SimResult> {
    let mut traces: HashMap<(Benchmark, usize, u64), Trace> = HashMap::new();
    cases
        .iter()
        .map(|(b, len, seed, warmup, id)| {
            let trace =
                traces.entry((*b, *len, *seed)).or_insert_with(|| Trace::generate(*b, *len, *seed));
            Simulator::new(config(id)).run_with_warmup(trace, *warmup)
        })
        .collect()
}

/// Simulates every case through four-lane bundles of the cases sharing
/// a trace and warmup (a group's leftovers one lane at a time), with
/// one set of scratch reused across every bundle.
fn simulate_lanes(cases: &[Case]) -> Vec<SimResult> {
    // (bench, len, trace_seed, warmup) and the indices of its cases.
    type Group = ((Benchmark, usize, u64, usize), Vec<usize>);
    let mut groups: Vec<Group> = Vec::new();
    for (i, (b, len, seed, warmup, _)) in cases.iter().enumerate() {
        let key = (*b, *len, *seed, *warmup);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut scratches: [StreamScratch; 4] = Default::default();
    let mut results: Vec<Option<SimResult>> = vec![None; cases.len()];
    for ((b, len, seed, warmup), members) in groups {
        let pre = TracePreflight::of(&Trace::generate(b, len, seed));
        let runs: Vec<(Simulator, CacheStreams, BranchStream)> = members
            .iter()
            .map(|&i| {
                let cfg = config(&cases[i].4);
                let cache = CacheStreams::resolve(&pre, &CacheSubConfig::of(&cfg));
                (Simulator::new(cfg), cache, BranchStream::resolve(&pre, &BhtSubConfig::of(&cfg)))
            })
            .collect();
        let full = runs.len() - runs.len() % 4;
        for (k, four) in runs[..full].chunks_exact(4).enumerate() {
            let jobs = std::array::from_fn(|l| (&four[l].0, &four[l].1, &four[l].2));
            let out = run_streamed_lanes(jobs, &pre, warmup, scratches.each_mut());
            for (l, r) in out.into_iter().enumerate() {
                results[members[4 * k + l]] = Some(r);
            }
        }
        for (&i, (sim, cache, bht)) in members[full..].iter().zip(&runs[full..]) {
            let [r] = run_streamed_lanes([(sim, cache, bht)], &pre, warmup, [&mut scratches[0]]);
            results[i] = Some(r);
        }
    }
    results.into_iter().map(|r| r.expect("every case simulated")).collect()
}

fn parse_case(head: &[&str]) -> Case {
    (
        head[0].parse().expect("benchmark name"),
        head[1].parse().expect("trace length"),
        head[2].parse().expect("trace seed"),
        head[3].parse().expect("warmup"),
        head[4].to_string(),
    )
}

/// Checks `simulate`'s results for the corpus against every fixture
/// field.
fn assert_reproduces_fixture(simulate: fn(&[Case]) -> Vec<SimResult>) {
    let lines: Vec<Vec<&str>> =
        FIXTURE.lines().filter(|l| !l.is_empty()).map(|l| l.split(' ').collect()).collect();
    // The fixture is exactly the corpus, in order: a line dropped or
    // added by hand fails here rather than going unchecked.
    let cases: Vec<Case> = lines.iter().map(|l| parse_case(&l[..5])).collect();
    assert_eq!(cases, corpus(), "fixture cases differ from the corpus");
    let mut mismatches = Vec::new();
    for ((case, line), result) in cases.iter().zip(&lines).zip(simulate(&cases)) {
        let got = tokens(&result);
        assert_eq!(line.len(), 5 + FIELDS.len(), "malformed fixture line for {case:?}");
        for ((name, want), got) in FIELDS.iter().zip(&line[5..]).zip(&got) {
            if want != got {
                mismatches.push(format!("{case:?} {name}: fixture {want}, simulated {got}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} field(s) differ from the golden fixture:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn simulator_reproduces_the_golden_fixture_bit_for_bit() {
    assert_reproduces_fixture(simulate);
}

#[test]
fn four_lane_bundles_reproduce_the_golden_fixture_bit_for_bit() {
    assert_reproduces_fixture(simulate_lanes);
}

#[test]
fn corpus_covers_every_class() {
    let cases = corpus();
    for &b in Benchmark::ALL.iter() {
        assert!(cases.iter().any(|c| c.0 == b), "{b} missing");
    }
    for warmup in [0, 1, GRID_LEN / 4, GRID_LEN - 1] {
        assert!(cases.iter().any(|c| c.1 == GRID_LEN && c.3 == warmup), "warmup {warmup} missing");
    }
    let ids: Vec<&str> = cases.iter().map(|c| c.4.as_str()).collect();
    for prefix in ["base", "adhoc7", "t1_11", "pool_min", "pool_max", "arb63"] {
        assert!(ids.contains(&prefix), "{prefix} missing");
    }
    let max = config("pool_max");
    assert_eq!((max.resv_fx, max.units_per_class, max.gpr), (256, 8, 512));
}

/// Prints the fixture for the current simulator; see the module docs.
#[test]
#[ignore]
fn print_golden_fixture() {
    let cases = corpus();
    println!();
    for (case, result) in cases.iter().zip(simulate(&cases)) {
        let (b, len, seed, warmup, id) = case;
        println!("{} {len} {seed} {warmup} {id} {}", b.name(), tokens(&result).join(" "));
    }
}
