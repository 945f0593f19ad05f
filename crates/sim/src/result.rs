use crate::config::MachineConfig;
use crate::power::PowerBreakdown;

/// Raw event counts accumulated by the timing simulation; the interface
/// between the scheduling engine and the power model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivityCounts {
    /// Instructions committed.
    pub instructions: u64,
    /// Total cycles to commit the last instruction.
    pub cycles: u64,
    /// Fixed-point operations.
    pub fx_ops: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Branches executed.
    pub branches: u64,
    /// I-L1 lookups.
    pub il1_accesses: u64,
    /// I-L1 misses.
    pub il1_misses: u64,
    /// D-L1 lookups.
    pub dl1_accesses: u64,
    /// D-L1 misses.
    pub dl1_misses: u64,
    /// L2 lookups.
    pub l2_accesses: u64,
    /// L2 misses (memory accesses).
    pub l2_misses: u64,
    /// Branch predictor lookups.
    pub bht_lookups: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
}

impl ActivityCounts {
    /// The events counted after `earlier`, an earlier snapshot of the
    /// same run.
    pub(crate) fn since(&self, earlier: &ActivityCounts) -> ActivityCounts {
        ActivityCounts {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles - earlier.cycles,
            fx_ops: self.fx_ops - earlier.fx_ops,
            fp_ops: self.fp_ops - earlier.fp_ops,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            branches: self.branches - earlier.branches,
            il1_accesses: self.il1_accesses - earlier.il1_accesses,
            il1_misses: self.il1_misses - earlier.il1_misses,
            dl1_accesses: self.dl1_accesses - earlier.dl1_accesses,
            dl1_misses: self.dl1_misses - earlier.dl1_misses,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            bht_lookups: self.bht_lookups - earlier.bht_lookups,
            mispredicts: self.mispredicts - earlier.mispredicts,
        }
    }
}

/// Attribution of scheduling delay to machine bottlenecks, in cycle-sums
/// (the total cycles instructions were pushed back by each cause; causes
/// can overlap, so the fields do not sum to total cycles — they rank
/// bottlenecks, as a performance-counter profile would). Like every
/// other count in a [`SimResult`], they cover only the instructions
/// measured after the warmup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    /// Fetch delayed by branch-misprediction redirects.
    pub redirect: u64,
    /// Fetch delayed by I-cache misses.
    pub icache: u64,
    /// Dispatch delayed by a full reorder buffer.
    pub rob: u64,
    /// Dispatch delayed by physical register exhaustion.
    pub registers: u64,
    /// Dispatch delayed by full reservation stations.
    pub reservations: u64,
    /// Dispatch delayed by a full load/store queue.
    pub lsq: u64,
    /// Dispatch delayed by a full store queue.
    pub store_queue: u64,
}

impl StallBreakdown {
    /// The stall cycles counted after `earlier`, an earlier snapshot of
    /// the same run.
    pub(crate) fn since(&self, earlier: &StallBreakdown) -> StallBreakdown {
        StallBreakdown {
            redirect: self.redirect - earlier.redirect,
            icache: self.icache - earlier.icache,
            rob: self.rob - earlier.rob,
            registers: self.registers - earlier.registers,
            reservations: self.reservations - earlier.reservations,
            lsq: self.lsq - earlier.lsq,
            store_queue: self.store_queue - earlier.store_queue,
        }
    }

    /// The dominant bottleneck's name (ties broken by field order), or
    /// `"none"` when no delay was recorded.
    pub fn dominant(&self) -> &'static str {
        let entries = [
            ("redirect", self.redirect),
            ("icache", self.icache),
            ("rob", self.rob),
            ("registers", self.registers),
            ("reservations", self.reservations),
            ("lsq", self.lsq),
            ("store_queue", self.store_queue),
        ];
        let (name, v) = entries.iter().max_by_key(|(_, v)| *v).expect("non-empty");
        if *v == 0 {
            "none"
        } else {
            name
        }
    }
}

/// Results of one simulation: the two responses the paper's regression
/// models predict (performance in `bips`, power in watts) plus the
/// underlying rates for analysis and calibration.
///
/// # Examples
///
/// ```
/// use udse_sim::{MachineConfig, Simulator};
/// use udse_trace::{Benchmark, Trace};
///
/// let r = Simulator::new(MachineConfig::power4_baseline())
///     .run(&Trace::generate(Benchmark::Mesa, 2_000, 1));
/// assert!(r.delay_seconds() > 0.0);
/// assert!(r.bips_cubed_per_watt() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Performance in billions of instructions per second.
    pub bips: f64,
    /// Total chip power in watts.
    pub watts: f64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions simulated.
    pub instructions: u64,
    /// I-L1 miss rate.
    pub il1_miss_rate: f64,
    /// D-L1 miss rate.
    pub dl1_miss_rate: f64,
    /// L2 (local) miss rate.
    pub l2_miss_rate: f64,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
    /// Per-structure power decomposition.
    pub power: PowerBreakdown,
    /// Delay attribution by bottleneck.
    pub stalls: StallBreakdown,
}

/// Reference instruction count for converting throughput to the paper's
/// delay axis (seconds per one billion instructions).
const REF_INSTRUCTIONS: f64 = 1e9;

impl SimResult {
    pub(crate) fn new(
        cfg: &MachineConfig,
        acts: &ActivityCounts,
        power: PowerBreakdown,
        stalls: StallBreakdown,
    ) -> Self {
        let t = cfg.timing();
        let cycles = acts.cycles.max(1);
        let ipc = acts.instructions as f64 / cycles as f64;
        let bips = ipc * t.frequency_ghz;
        let rate = |m: u64, a: u64| if a == 0 { 0.0 } else { m as f64 / a as f64 };
        SimResult {
            bips,
            watts: power.total(),
            ipc,
            frequency_ghz: t.frequency_ghz,
            cycles,
            instructions: acts.instructions,
            il1_miss_rate: rate(acts.il1_misses, acts.il1_accesses),
            dl1_miss_rate: rate(acts.dl1_misses, acts.dl1_accesses),
            l2_miss_rate: rate(acts.l2_misses, acts.l2_accesses),
            mispredict_rate: rate(acts.mispredicts, acts.bht_lookups),
            power,
            stalls,
        }
    }

    /// Execution delay in seconds for a reference one-billion-instruction
    /// workload — the paper's delay axis (inverse throughput).
    pub fn delay_seconds(&self) -> f64 {
        REF_INSTRUCTIONS / (self.bips * 1e9)
    }

    /// The paper's power-performance efficiency metric `bips^3 / watt`
    /// (inverse energy-delay-squared, voltage invariant).
    pub fn bips_cubed_per_watt(&self) -> f64 {
        self.bips.powi(3) / self.watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_stall_named() {
        let mut s = StallBreakdown::default();
        assert_eq!(s.dominant(), "none");
        s.registers = 10;
        s.lsq = 4;
        assert_eq!(s.dominant(), "registers");
    }

    fn mk_result(ipc_num: u64, cycles: u64) -> SimResult {
        let cfg = MachineConfig::power4_baseline();
        let acts = ActivityCounts { instructions: ipc_num, cycles, ..ActivityCounts::default() };
        let power = crate::power::PowerModel::new(&cfg).evaluate(&acts);
        SimResult::new(&cfg, &acts, power, StallBreakdown::default())
    }

    #[test]
    fn bips_is_ipc_times_frequency() {
        let r = mk_result(10_000, 10_000);
        assert!((r.ipc - 1.0).abs() < 1e-12);
        assert!((r.bips - r.frequency_ghz).abs() < 1e-9);
    }

    #[test]
    fn delay_is_inverse_throughput() {
        let r = mk_result(10_000, 10_000);
        assert!((r.delay_seconds() - 1.0 / r.bips).abs() < 1e-9);
    }

    #[test]
    fn efficiency_metric_cubes_performance() {
        let r = mk_result(10_000, 10_000);
        let expected = r.bips.powi(3) / r.watts;
        assert!((r.bips_cubed_per_watt() - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_guarded() {
        let r = mk_result(0, 0);
        assert!(r.bips.is_finite());
        assert_eq!(r.ipc, 0.0);
    }
}
