//! Power-model behaviour across the suite: the orderings and scaling
//! laws the paper's §2.1/§5.1 substrate description promises.

use udse::core::oracle::{Oracle, SimOracle};
use udse::core::space::{DesignPoint, DesignSpace};
use udse::sim::{MachineConfigBuilder, Simulator};
use udse::trace::{Benchmark, Trace};

const N: usize = 40_000;
const WARMUP: usize = 10_000;

fn watts(b: Benchmark, cfg: udse::sim::MachineConfig) -> f64 {
    let trace = Trace::generate(b, N, 5);
    Simulator::new(cfg).run_with_warmup(&trace, WARMUP).watts
}

#[test]
fn power_ordering_deep_wide_over_baseline_over_narrow_shallow() {
    let aggressive = MachineConfigBuilder::power4_baseline()
        .depth_fo4(12)
        .width(8)
        .registers(130)
        .build()
        .unwrap();
    let baseline = MachineConfigBuilder::power4_baseline().build().unwrap();
    let frugal = MachineConfigBuilder::power4_baseline()
        .depth_fo4(30)
        .width(2)
        .registers(40)
        .il1_kb(16)
        .dl1_kb(8)
        .l2_kb(256)
        .build()
        .unwrap();
    for b in Benchmark::ALL {
        let (wa, wb, wf) = (watts(b, aggressive), watts(b, baseline), watts(b, frugal));
        assert!(wa > wb && wb > wf, "{b}: power ordering broken ({wa:.1} / {wb:.1} / {wf:.1})");
        // The aggressive corner must be several times the frugal corner.
        assert!(wa > 2.5 * wf, "{b}: dynamic range too small ({wa:.1} vs {wf:.1})");
    }
}

#[test]
fn width_power_scaling_is_superlinear_in_the_multiported_structures() {
    // Doubling width twice (2 -> 8) should grow rename+regfile power by
    // more than 4x (the paper's superlinear multi-ported scaling), while
    // per-op functional-unit energy stays flat (clustering).
    let trace = Trace::generate(Benchmark::Ammp, N, 5);
    let narrow = MachineConfigBuilder::power4_baseline().width(2).build().unwrap();
    let wide = MachineConfigBuilder::power4_baseline().width(8).build().unwrap();
    let rn = Simulator::new(narrow).run_with_warmup(&trace, WARMUP);
    let rw = Simulator::new(wide).run_with_warmup(&trace, WARMUP);
    let multiported_n = rn.power.rename_w + rn.power.regfile_w;
    let multiported_w = rw.power.rename_w + rw.power.regfile_w;
    // Normalize by throughput: energy per instruction.
    let epi_n = multiported_n / rn.bips;
    let epi_w = multiported_w / rw.bips;
    assert!(
        epi_w > 3.0 * epi_n,
        "multi-ported energy/inst should grow superlinearly: {epi_w:.3} vs {epi_n:.3}"
    );
    let fu_epi_n = rn.power.fu_w / rn.bips;
    let fu_epi_w = rw.power.fu_w / rw.bips;
    assert!(
        fu_epi_w < 1.3 * fu_epi_n,
        "clustered FU energy/inst should stay near-flat: {fu_epi_w:.3} vs {fu_epi_n:.3}"
    );
}

#[test]
fn clock_power_grows_superlinearly_with_depth() {
    let trace = Trace::generate(Benchmark::Gzip, N, 5);
    let shallow = MachineConfigBuilder::power4_baseline().depth_fo4(30).build().unwrap();
    let deep = MachineConfigBuilder::power4_baseline().depth_fo4(12).build().unwrap();
    let rs = Simulator::new(shallow).run_with_warmup(&trace, WARMUP);
    let rd = Simulator::new(deep).run_with_warmup(&trace, WARMUP);
    let freq_ratio = rd.frequency_ghz / rs.frequency_ghz; // 2.5x
    let clock_ratio = rd.power.clock_w / rs.power.clock_w;
    assert!(
        clock_ratio > 1.5 * freq_ratio,
        "clock power must outgrow frequency (latch count compounds): {clock_ratio:.2} vs freq {freq_ratio:.2}"
    );
}

#[test]
fn cache_capacity_costs_leakage_linearly() {
    let small = MachineConfigBuilder::power4_baseline().l2_kb(256).build().unwrap();
    let large = MachineConfigBuilder::power4_baseline().l2_kb(4096).build().unwrap();
    let trace = Trace::generate(Benchmark::Applu, N, 5);
    let rs = Simulator::new(small).run_with_warmup(&trace, WARMUP);
    let rl = Simulator::new(large).run_with_warmup(&trace, WARMUP);
    let delta = rl.power.leakage_w - rs.power.leakage_w;
    // 3840 KB of extra L2 at the configured per-KB leakage.
    assert!(delta > 2.0 && delta < 10.0, "L2 leakage delta {delta:.2} W out of band");
}

#[test]
fn power_breakdown_sums_to_total_in_real_runs() {
    for b in [Benchmark::Mcf, Benchmark::Mesa] {
        let trace = Trace::generate(b, 10_000, 1);
        let r =
            Simulator::new(MachineConfigBuilder::power4_baseline().build().unwrap()).run(&trace);
        let p = r.power;
        let sum = p.front_w
            + p.rename_w
            + p.regfile_w
            + p.issue_w
            + p.fu_w
            + p.cache_w
            + p.bpred_w
            + p.clock_w
            + p.leakage_w;
        assert!((r.watts - sum).abs() < 1e-9);
        assert!(p.clock_w > 0.0 && p.leakage_w > 0.0);
    }
}

#[test]
fn power_is_monotone_in_width() {
    // Metamorphic invariant: widening the machine with every other axis
    // fixed adds decode/rename bandwidth, ports and units, so simulated
    // power may never fall, at any point of either design space.
    const DESIGNS_PER_SPACE: usize = 20;
    const WIDTH_AXIS: usize = 1; // `DesignSpace::point` index order
                                 // Both spaces share one width list.
    let ladder_len = DesignSpace::paper().dimensions()[WIDTH_AXIS] as usize;
    let mut jobs: Vec<(Benchmark, DesignPoint)> = Vec::new();
    for (space, seed) in [(DesignSpace::paper(), 31), (DesignSpace::exploration(), 32)] {
        for p in space.sample_uar(DESIGNS_PER_SPACE, seed) {
            let mut idx = space.indices(&p);
            for b in Benchmark::ALL {
                for w in 0..ladder_len {
                    idx[WIDTH_AXIS] = w as u8;
                    jobs.push((b, space.point(idx).expect("width level in range")));
                }
            }
        }
    }
    let metrics = SimOracle::with_trace_len(20_000).evaluate_many(&jobs);
    for (ladder, m) in jobs.chunks(ladder_len).zip(metrics.chunks(ladder_len)) {
        for w in 1..ladder_len {
            assert!(
                m[w].watts >= m[w - 1].watts,
                "{}: watts fell from {:.3} to {:.3} widening {:?} to {:?}",
                ladder[w].0,
                m[w - 1].watts,
                m[w].watts,
                ladder[w - 1].1,
                ladder[w].1
            );
        }
    }
}
