//! Analytical throughput bounds as simulator invariants: whatever the
//! design, the cycle count of a run can never beat the bandwidth of any
//! single pipeline resource. Each bound divides the work the measured
//! region asks of a resource by the resource's per-cycle capacity:
//!
//! - decode: `cycles >= instructions / decode width`;
//! - the load/store, floating-point and branch units:
//!   `cycles >= ops of the class / units per class`;
//! - the reorder buffer, by Little's law with a minimum latency of one
//!   cycle: `cycles >= instructions / ROB entries`;
//! - the front end: every mispredict costs at least `front_stages`
//!   cycles of redirect, so `cycles >= mispredicts * front_stages`;
//! - and a predictor cannot mispredict more branches than it looked up.
//!
//! Op counts come from the measured part of the trace. The per-cause
//! stall fields are deliberately not bounded by lost cycles: causes
//! overlap, so a stall field can exceed the cycles it cost (DESIGN.md).
//!
//! Debug builds also check these bounds at the end of every
//! `run_streamed_lanes` call; this test keeps them in force in release
//! test runs and pins the designs they are checked on.

use udse::core::space::DesignSpace;
use udse::sim::Simulator;
use udse::trace::{Benchmark, OpClass, Trace};

const LEN: usize = 20_000;
const DESIGNS_PER_SPACE: usize = 12;

#[test]
fn cycles_respect_every_resource_bandwidth_bound() {
    let traces: Vec<Trace> = Benchmark::ALL.iter().map(|&b| Trace::generate(b, LEN, 11)).collect();
    for (name, space) in
        [("paper", DesignSpace::paper()), ("exploration", DesignSpace::exploration())]
    {
        for point in space.sample_uar(DESIGNS_PER_SPACE, 0xB0D) {
            let cfg = point.to_machine_config();
            let sim = Simulator::new(cfg);
            let front_stages = cfg.timing().front_stages;
            let units = u64::from(cfg.units_per_class);
            for trace in &traces {
                for warmup in [0, LEN / 4] {
                    let r = sim.run_with_warmup(trace, warmup);
                    let measured = &trace.instructions()[warmup..];
                    let count = |class: OpClass| measured.iter().filter(|i| i.op == class).count();
                    let insts = measured.len() as u64;
                    let memory = (count(OpClass::Load) + count(OpClass::Store)) as u64;
                    let fp = count(OpClass::FloatingPoint) as u64;
                    let branches = count(OpClass::Branch) as u64;
                    let mispredicts = (r.mispredict_rate * branches as f64).round() as u64;
                    let case =
                        format!("{name} space, {} warmup {warmup}, {cfg:?}", trace.benchmark());
                    let c = r.cycles;

                    assert_eq!(r.instructions, insts, "{case}");
                    assert!(c * u64::from(cfg.decode_width) >= insts, "decode bound: {case}");
                    assert!(c * units >= memory, "load/store unit bound: {case}");
                    assert!(c * units >= fp, "floating-point unit bound: {case}");
                    assert!(c * units >= branches, "branch unit bound: {case}");
                    assert!(c * u64::from(cfg.rob_entries) >= insts, "ROB bound: {case}");
                    assert!(c >= mispredicts * front_stages, "redirect bound: {case}");
                    assert!(mispredicts <= branches, "more mispredicts than lookups: {case}");
                }
            }
        }
    }
}
