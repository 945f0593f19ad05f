use std::error::Error;
use std::fmt;

/// Technology constants tying the abstract design space to wall-clock
/// time. One FO4 inverter delay in picoseconds (130 nm-era, matching the
/// POWER4 generation the paper models).
pub(crate) const FO4_PS: f64 = 40.0;

/// Latch plus clock-skew overhead per pipeline stage, in FO4 delays.
pub(crate) const LATCH_FO4: f64 = 3.0;

/// Total front-end logic depth (fetch through execute) in FO4 delays;
/// divided by the per-stage useful logic to obtain the pipeline's stage
/// count and hence the branch misprediction penalty.
pub(crate) const FRONT_LOGIC_FO4: f64 = 120.0;

/// Fixed-point ALU critical path in FO4 delays (result-bypass loop).
pub(crate) const FX_LOGIC_FO4: f64 = 11.0;

/// Floating-point operation latency in nanoseconds (pipelined).
pub(crate) const FP_NS: f64 = 3.0;

/// Main memory access latency in nanoseconds.
pub(crate) const MEM_NS: f64 = 55.0;

/// Cache block size in bytes (Table 3: 128 B at every level).
pub(crate) const BLOCK_BYTES: u32 = 128;

/// Full machine configuration: one point of the paper's design space plus
/// the fixed structural constants of the POWER4-like baseline (Table 3).
///
/// Use [`MachineConfig::power4_baseline`] for the paper's Table 3 machine
/// and the setters to derive variants. All fields are public data in the
/// C-struct spirit: the type's invariants are enforced by
/// [`MachineConfig::validate`], which the simulator calls on entry.
///
/// # Examples
///
/// ```
/// use udse_sim::MachineConfig;
///
/// let mut cfg = MachineConfig::power4_baseline();
/// cfg.fo4_per_stage = 12; // deeper pipeline
/// cfg.validate().unwrap();
/// let t = cfg.timing();
/// assert!(t.frequency_ghz > 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Pipeline depth expressed as FO4 delays per stage (9–36 in the
    /// paper's sample space). Fewer FO4 per stage = deeper pipeline =
    /// higher frequency.
    pub fo4_per_stage: u32,
    /// Decode bandwidth in non-branch instructions per cycle (2, 4, 8).
    pub decode_width: u32,
    /// Load/store queue entries (varies jointly with width in Table 1).
    pub lsq_entries: u32,
    /// Store queue entries (varies jointly with width).
    pub store_queue_entries: u32,
    /// Functional units of each class (FXU, FPU, LSU, BR all share this
    /// count in Table 1's width set: 1, 2, or 4 of each).
    pub units_per_class: u32,
    /// General-purpose physical registers (40–130).
    pub gpr: u32,
    /// Floating-point physical registers (40–112).
    pub fpr: u32,
    /// Special-purpose physical registers (42–96).
    pub spr: u32,
    /// Branch reservation station entries (6–15).
    pub resv_br: u32,
    /// Fixed-point reservation station entries (10–28); the load/store
    /// pipeline shares this scheduler in the modeled machine.
    pub resv_fx: u32,
    /// Floating-point reservation station entries (5–14).
    pub resv_fp: u32,
    /// Instruction L1 cache size in KB (16–256).
    pub il1_kb: u32,
    /// Data L1 cache size in KB (8–128).
    pub dl1_kb: u32,
    /// Unified L2 cache size in KB (256–4096).
    pub l2_kb: u32,
    /// I-L1 associativity (Table 3: direct-mapped).
    pub il1_assoc: u32,
    /// D-L1 associativity (Table 3: 2-way).
    pub dl1_assoc: u32,
    /// L2 associativity (Table 3: 4-way).
    pub l2_assoc: u32,
    /// Branch history table entries (Table 3: 16 k 1-bit).
    pub bht_entries: u32,
    /// BHT counter width in bits: 1 (Table 3) or 2 (extension with
    /// hysteresis).
    pub bht_counter_bits: u8,
    /// Next-line instruction prefetch: on every I-L1 access, the
    /// sequential successor block is pulled into the hierarchy
    /// (extension; off in the paper's machine).
    pub il1_next_line_prefetch: bool,
    /// Stride data prefetch: a reference predictor watches the load/store
    /// block stream and prefetches the next block when two consecutive
    /// deltas agree (extension; off in the paper's machine).
    pub dl1_stride_prefetch: bool,
    /// Reorder buffer entries (fixed structural constant).
    pub rob_entries: u32,
    /// In-order issue mode (§8 future-work extension; the paper's space is
    /// all out-of-order).
    pub in_order: bool,
}

impl MachineConfig {
    /// The POWER4-like baseline of the paper's Table 3: 19 FO4, 4-wide
    /// decode, 2 units per class, 80 GPR / 72 FPR, 64 KB I-L1, 32 KB D-L1,
    /// 2 MB L2.
    pub fn power4_baseline() -> Self {
        MachineConfig {
            fo4_per_stage: 19,
            decode_width: 4,
            lsq_entries: 30,
            store_queue_entries: 28,
            units_per_class: 2,
            gpr: 80,
            fpr: 72,
            spr: 60,
            resv_br: 12,
            resv_fx: 20,
            resv_fp: 10,
            il1_kb: 64,
            dl1_kb: 32,
            l2_kb: 2048,
            il1_assoc: 1,
            dl1_assoc: 2,
            l2_assoc: 4,
            bht_entries: 16_384,
            bht_counter_bits: 1,
            il1_next_line_prefetch: false,
            dl1_stride_prefetch: false,
            rob_entries: 256,
            in_order: false,
        }
    }

    /// Dispatch bandwidth in instructions per cycle. Table 3 pairs 4-wide
    /// decode with 9-wide dispatch; the model generalizes this as
    /// `2 * decode + 1`.
    pub fn dispatch_width(&self) -> u32 {
        2 * self.decode_width + 1
    }

    /// Commit bandwidth (same as dispatch).
    pub fn commit_width(&self) -> u32 {
        self.dispatch_width()
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field when a value
    /// is zero, out of the supported range, or inconsistent.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn check(cond: bool, field: &'static str, why: &'static str) -> Result<(), ConfigError> {
            if cond {
                Ok(())
            } else {
                Err(ConfigError { field, why })
            }
        }
        check((6..=48).contains(&self.fo4_per_stage), "fo4_per_stage", "must be in 6..=48")?;
        check(
            self.fo4_per_stage as f64 > LATCH_FO4,
            "fo4_per_stage",
            "must exceed latch overhead",
        )?;
        check(
            self.decode_width >= 1 && self.decode_width <= 16,
            "decode_width",
            "must be in 1..=16",
        )?;
        check(self.lsq_entries >= 1, "lsq_entries", "must be positive")?;
        check(self.store_queue_entries >= 1, "store_queue_entries", "must be positive")?;
        // Reservation stations and functional units are slot-scanned
        // pools that pack the slot index into 8 bits.
        let slots = 1..=256;
        check(slots.contains(&self.units_per_class), "units_per_class", "must be in 1..=256")?;
        check(
            self.gpr >= 34,
            "gpr",
            "must cover the 32 architected registers plus renaming slack",
        )?;
        check(
            self.fpr >= 34,
            "fpr",
            "must cover the 32 architected registers plus renaming slack",
        )?;
        check(self.spr >= 10, "spr", "must cover the architected special registers")?;
        check(slots.contains(&self.resv_br), "resv_br", "must be in 1..=256")?;
        check(slots.contains(&self.resv_fx), "resv_fx", "must be in 1..=256")?;
        check(slots.contains(&self.resv_fp), "resv_fp", "must be in 1..=256")?;
        for (kb, field) in [(self.il1_kb, "il1_kb"), (self.dl1_kb, "dl1_kb"), (self.l2_kb, "l2_kb")]
        {
            check(kb >= 1, field, "must be positive")?;
            check((kb * 1024) % BLOCK_BYTES == 0, field, "must hold whole blocks")?;
        }
        for (assoc, field) in [
            (self.il1_assoc, "il1_assoc"),
            (self.dl1_assoc, "dl1_assoc"),
            (self.l2_assoc, "l2_assoc"),
        ] {
            check(assoc >= 1, field, "must be positive")?;
        }
        check(
            self.il1_kb * 1024 / BLOCK_BYTES >= self.il1_assoc,
            "il1_assoc",
            "exceeds block count",
        )?;
        check(
            self.dl1_kb * 1024 / BLOCK_BYTES >= self.dl1_assoc,
            "dl1_assoc",
            "exceeds block count",
        )?;
        check(self.l2_kb * 1024 / BLOCK_BYTES >= self.l2_assoc, "l2_assoc", "exceeds block count")?;
        check(self.bht_entries.is_power_of_two(), "bht_entries", "must be a power of two")?;
        check(
            self.bht_counter_bits == 1 || self.bht_counter_bits == 2,
            "bht_counter_bits",
            "must be 1 or 2",
        )?;
        check(self.rob_entries >= 8, "rob_entries", "must be at least 8")?;
        Ok(())
    }

    /// Derives the wall-clock timing parameters of this configuration.
    pub fn timing(&self) -> DerivedTiming {
        let cycle_ps = self.fo4_per_stage as f64 * FO4_PS;
        let frequency_ghz = 1000.0 / cycle_ps;
        let useful_fo4 = self.fo4_per_stage as f64 - LATCH_FO4;
        let front_stages = (FRONT_LOGIC_FO4 / useful_fo4).ceil() as u64;
        let fx_latency = (FX_LOGIC_FO4 / self.fo4_per_stage as f64).ceil().max(1.0) as u64;
        let fp_latency = ns_to_cycles(FP_NS, cycle_ps).max(2);
        // L1 hits are single-cycle at every depth and size, as in the
        // paper's Table 3 machine (banked, pipelined arrays); capacity
        // costs appear as energy and leakage, not hit latency.
        let il1_latency = 1;
        let dl1_latency = 1;
        let l2_latency = ns_to_cycles(l2_ns(self.l2_kb), cycle_ps);
        let memory_latency = ns_to_cycles(MEM_NS, cycle_ps);
        DerivedTiming {
            cycle_ps,
            frequency_ghz,
            front_stages,
            fx_latency,
            fp_latency,
            il1_latency,
            dl1_latency,
            l2_latency,
            memory_latency,
        }
    }
}

/// CACTI-flavoured L2 access time (256 KB -> ~4.5 ns, 4 MB -> ~7.7 ns,
/// matching Table 3's 9-cycle 2 MB L2 at 19 FO4).
fn l2_ns(kb: u32) -> f64 {
    4.5 + 0.8 * ((kb as f64 / 256.0).log2().max(0.0))
}

fn ns_to_cycles(ns: f64, cycle_ps: f64) -> u64 {
    ((ns * 1000.0) / cycle_ps).ceil().max(1.0) as u64
}

/// Wall-clock quantities derived from a [`MachineConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedTiming {
    /// Cycle time in picoseconds.
    pub cycle_ps: f64,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Front-end pipeline stages (fetch to execute); the branch
    /// misprediction redirect penalty in cycles.
    pub front_stages: u64,
    /// Fixed-point operation latency in cycles.
    pub fx_latency: u64,
    /// Floating-point operation latency in cycles (pipelined).
    pub fp_latency: u64,
    /// I-L1 hit latency in cycles.
    pub il1_latency: u64,
    /// D-L1 hit latency in cycles.
    pub dl1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Main memory latency in cycles.
    pub memory_latency: u64,
}

/// Error describing an invalid [`MachineConfig`] field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    field: &'static str,
    why: &'static str,
}

impl ConfigError {
    /// Name of the offending configuration field.
    pub fn field(&self) -> &'static str {
        self.field
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid machine configuration: {} {}", self.field, self.why)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        MachineConfig::power4_baseline().validate().unwrap();
    }

    #[test]
    fn baseline_timing_matches_power4_era() {
        let t = MachineConfig::power4_baseline().timing();
        // 19 FO4 * 40 ps = 760 ps -> ~1.3 GHz.
        assert!((t.frequency_ghz - 1.3158).abs() < 0.01);
        // Memory: 55 ns / 0.76 ns = ~73 cycles (Table 3 says 77).
        assert!((70..=80).contains(&t.memory_latency));
        // L2: ~6.9 ns -> 9-10 cycles (Table 3 says 9).
        assert!((8..=10).contains(&t.l2_latency));
        // L1D 32 KB: 1 cycle.
        assert_eq!(t.dl1_latency, 1);
    }

    #[test]
    fn deeper_pipeline_raises_frequency_and_stages() {
        let mut deep = MachineConfig::power4_baseline();
        deep.fo4_per_stage = 12;
        let mut shallow = MachineConfig::power4_baseline();
        shallow.fo4_per_stage = 30;
        let td = deep.timing();
        let ts = shallow.timing();
        assert!(td.frequency_ghz > 2.0 * ts.frequency_ghz * 0.9);
        assert!(td.front_stages > ts.front_stages);
        assert!(td.memory_latency > ts.memory_latency);
        assert!(td.fp_latency > ts.fp_latency);
    }

    #[test]
    fn shallow_pipeline_single_cycle_alu() {
        let mut cfg = MachineConfig::power4_baseline();
        cfg.fo4_per_stage = 15;
        assert_eq!(cfg.timing().fx_latency, 1);
        cfg.fo4_per_stage = 12;
        assert_eq!(cfg.timing().fx_latency, 1);
        cfg.fo4_per_stage = 9;
        assert_eq!(cfg.timing().fx_latency, 2);
    }

    #[test]
    fn bigger_l2_is_slower_but_l1_stays_single_cycle() {
        let mut small = MachineConfig::power4_baseline();
        small.dl1_kb = 8;
        small.l2_kb = 256;
        let mut big = MachineConfig::power4_baseline();
        big.dl1_kb = 128;
        big.l2_kb = 4096;
        assert!(big.timing().l2_latency > small.timing().l2_latency);
        // L1 hit latency is pinned at one cycle at every size and depth.
        for fo4 in [9, 19, 36] {
            let mut cfg = big;
            cfg.fo4_per_stage = fo4;
            assert_eq!(cfg.timing().dl1_latency, 1);
            assert_eq!(cfg.timing().il1_latency, 1);
        }
    }

    #[test]
    fn dispatch_width_tracks_table3() {
        let cfg = MachineConfig::power4_baseline();
        assert_eq!(cfg.decode_width, 4);
        assert_eq!(cfg.dispatch_width(), 9);
        assert_eq!(cfg.commit_width(), 9);
    }

    #[test]
    fn invalid_fields_are_named() {
        let mut cfg = MachineConfig::power4_baseline();
        cfg.gpr = 10;
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.field(), "gpr");
        assert!(err.to_string().contains("gpr"));

        let mut cfg = MachineConfig::power4_baseline();
        cfg.bht_entries = 1000;
        assert_eq!(cfg.validate().unwrap_err().field(), "bht_entries");

        let mut cfg = MachineConfig::power4_baseline();
        cfg.fo4_per_stage = 2;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn slot_scanned_pools_are_capped_at_256() {
        type Setter = fn(&mut MachineConfig, u32);
        let setters: [(&str, Setter); 4] = [
            ("resv_br", |c, n| c.resv_br = n),
            ("resv_fx", |c, n| c.resv_fx = n),
            ("resv_fp", |c, n| c.resv_fp = n),
            ("units_per_class", |c, n| c.units_per_class = n),
        ];
        for (field, set) in setters {
            let mut cfg = MachineConfig::power4_baseline();
            set(&mut cfg, 256);
            assert_eq!(cfg.validate(), Ok(()), "{field} = 256");
            set(&mut cfg, 300);
            assert_eq!(cfg.validate().unwrap_err().field(), field, "{field} = 300");
        }
    }

    #[test]
    fn assoc_cannot_exceed_blocks() {
        let mut cfg = MachineConfig::power4_baseline();
        cfg.dl1_kb = 1;
        cfg.dl1_assoc = 16;
        assert_eq!(cfg.validate().unwrap_err().field(), "dl1_assoc");
    }
}
