//! Fluent builder for [`MachineConfig`].
//!
//! The config struct is plain data (14 design knobs plus structural
//! constants); the builder adds chained configuration starting from the
//! Table 3 baseline with validation at the end, which is the ergonomic
//! path for sweeps and examples:
//!
//! ```
//! use udse_sim::MachineConfigBuilder;
//!
//! let cfg = MachineConfigBuilder::power4_baseline()
//!     .depth_fo4(12)
//!     .width(8)
//!     .l2_kb(4096)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.decode_width, 8);
//! assert_eq!(cfg.lsq_entries, 45); // width implies the Table 1 queue sizes
//! ```

use crate::config::{ConfigError, MachineConfig};

/// Builder for [`MachineConfig`], starting from the POWER4-like baseline.
///
/// Width-coupled resources (LSQ, store queue, functional units) follow
/// the Table 1 grouping when set through [`MachineConfigBuilder::width`],
/// and can still be overridden individually afterwards.
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Starts from the Table 3 baseline.
    pub fn power4_baseline() -> Self {
        MachineConfigBuilder { cfg: MachineConfig::power4_baseline() }
    }

    /// Pipeline depth in FO4 delays per stage.
    #[must_use]
    pub fn depth_fo4(mut self, fo4: u32) -> Self {
        self.cfg.fo4_per_stage = fo4;
        self
    }

    /// Decode width, also applying the Table 1 width group: LSQ, store
    /// queue, and functional-unit counts for widths 2, 4, and 8. Other
    /// widths set only the decode bandwidth.
    #[must_use]
    pub fn width(mut self, decode: u32) -> Self {
        self.cfg.decode_width = decode;
        let coupled = match decode {
            2 => Some((15, 14, 1)),
            4 => Some((30, 28, 2)),
            8 => Some((45, 42, 4)),
            _ => None,
        };
        if let Some((lsq, sq, units)) = coupled {
            self.cfg.lsq_entries = lsq;
            self.cfg.store_queue_entries = sq;
            self.cfg.units_per_class = units;
        }
        self
    }

    /// Physical register files, applying the Table 1 joint scaling from
    /// the GPR count (FPR and SPR move proportionally along the S3 line).
    ///
    /// # Panics
    ///
    /// Panics if `gpr` is outside the 40–130 S3 range.
    #[must_use]
    pub fn registers(mut self, gpr: u32) -> Self {
        assert!((40..=130).contains(&gpr), "GPR must lie on the S3 range 40..=130");
        let i = (gpr - 40 + 5) / 10; // nearest S3 level
        self.cfg.gpr = 40 + 10 * i;
        self.cfg.fpr = 40 + 8 * i;
        self.cfg.spr = 42 + 6 * i;
        self
    }

    /// Reservation stations, applying the Table 1 joint scaling from the
    /// FX entry count (BR and FP move along the S4 line).
    ///
    /// # Panics
    ///
    /// Panics if `fx` is outside the 10–28 S4 range.
    #[must_use]
    pub fn reservations(mut self, fx: u32) -> Self {
        assert!((10..=28).contains(&fx), "FX reservations must lie on the S4 range 10..=28");
        let i = (fx - 10).div_ceil(2);
        self.cfg.resv_fx = 10 + 2 * i;
        self.cfg.resv_br = 6 + i;
        self.cfg.resv_fp = 5 + i;
        self
    }

    /// I-L1 size in KB.
    #[must_use]
    pub fn il1_kb(mut self, kb: u32) -> Self {
        self.cfg.il1_kb = kb;
        self
    }

    /// D-L1 size in KB.
    #[must_use]
    pub fn dl1_kb(mut self, kb: u32) -> Self {
        self.cfg.dl1_kb = kb;
        self
    }

    /// L2 size in KB.
    #[must_use]
    pub fn l2_kb(mut self, kb: u32) -> Self {
        self.cfg.l2_kb = kb;
        self
    }

    /// Cache associativities `(il1, dl1, l2)`.
    #[must_use]
    pub fn associativity(mut self, il1: u32, dl1: u32, l2: u32) -> Self {
        self.cfg.il1_assoc = il1;
        self.cfg.dl1_assoc = dl1;
        self.cfg.l2_assoc = l2;
        self
    }

    /// Branch predictor geometry.
    #[must_use]
    pub fn predictor(mut self, entries: u32, counter_bits: u8) -> Self {
        self.cfg.bht_entries = entries;
        self.cfg.bht_counter_bits = counter_bits;
        self
    }

    /// Enables or disables the next-line instruction prefetcher.
    #[must_use]
    pub fn il1_next_line_prefetch(mut self, on: bool) -> Self {
        self.cfg.il1_next_line_prefetch = on;
        self
    }

    /// Enables or disables the stride data prefetcher.
    #[must_use]
    pub fn dl1_stride_prefetch(mut self, on: bool) -> Self {
        self.cfg.dl1_stride_prefetch = on;
        self
    }

    /// Switches between out-of-order (default) and in-order issue.
    #[must_use]
    pub fn in_order(mut self, on: bool) -> Self {
        self.cfg.in_order = on;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by
    /// [`MachineConfig::validate`].
    pub fn build(self) -> Result<MachineConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_applies_coupled_resources() {
        let cfg = MachineConfigBuilder::power4_baseline().width(2).build().unwrap();
        assert_eq!((cfg.lsq_entries, cfg.store_queue_entries, cfg.units_per_class), (15, 14, 1));
        let cfg = MachineConfigBuilder::power4_baseline().width(8).build().unwrap();
        assert_eq!((cfg.lsq_entries, cfg.store_queue_entries, cfg.units_per_class), (45, 42, 4));
    }

    #[test]
    fn uncoupled_width_keeps_existing_resources() {
        let cfg = MachineConfigBuilder::power4_baseline().width(6).build().unwrap();
        assert_eq!(cfg.decode_width, 6);
        assert_eq!(cfg.lsq_entries, 30); // baseline value untouched
    }

    #[test]
    fn registers_move_all_three_files() {
        let cfg = MachineConfigBuilder::power4_baseline().registers(130).build().unwrap();
        assert_eq!((cfg.gpr, cfg.fpr, cfg.spr), (130, 112, 96));
        let cfg = MachineConfigBuilder::power4_baseline().registers(40).build().unwrap();
        assert_eq!((cfg.gpr, cfg.fpr, cfg.spr), (40, 40, 42));
        // Off-grid value snaps to the nearest level.
        let cfg = MachineConfigBuilder::power4_baseline().registers(84).build().unwrap();
        assert_eq!(cfg.gpr, 80);
    }

    #[test]
    fn reservations_move_all_three_queues() {
        let cfg = MachineConfigBuilder::power4_baseline().reservations(28).build().unwrap();
        assert_eq!((cfg.resv_fx, cfg.resv_br, cfg.resv_fp), (28, 15, 14));
    }

    #[test]
    fn invalid_build_reports_field() {
        let err = MachineConfigBuilder::power4_baseline()
            .predictor(1000, 1) // not a power of two
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "bht_entries");
    }

    #[test]
    fn extension_toggles() {
        let cfg = MachineConfigBuilder::power4_baseline()
            .il1_next_line_prefetch(true)
            .dl1_stride_prefetch(true)
            .in_order(true)
            .predictor(8192, 2)
            .associativity(2, 4, 8)
            .build()
            .unwrap();
        assert!(cfg.il1_next_line_prefetch && cfg.dl1_stride_prefetch && cfg.in_order);
        assert_eq!(cfg.bht_counter_bits, 2);
        assert_eq!(cfg.dl1_assoc, 4);
    }

    #[test]
    #[should_panic(expected = "S3 range")]
    fn out_of_range_registers_panic() {
        let _ = MachineConfigBuilder::power4_baseline().registers(200);
    }
}
