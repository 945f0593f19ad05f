//! The POWER4-like baseline architecture of the paper's Table 3 and its
//! projection onto the design space grid.

use udse_sim::MachineConfig;

use crate::space::{DesignPoint, DesignSpace};

/// The grid point of the exploration space closest to the Table 3
/// baseline ([`MachineConfig::power4_baseline`]) — the anchor for the
/// depth study's "original analysis" (depth itself is swept; the other
/// parameters hold these values).
///
/// # Examples
///
/// ```
/// use udse_core::baseline::baseline_point;
///
/// let p = baseline_point();
/// assert_eq!(p.decode_width(), 4);
/// assert_eq!(p.dl1_kb(), 32);
/// assert_eq!(p.l2_kb(), 2048);
/// ```
pub fn baseline_point() -> DesignPoint {
    let cfg = MachineConfig::power4_baseline();
    DesignSpace::exploration().nearest(&[
        cfg.fo4_per_stage as f64,
        cfg.decode_width as f64,
        cfg.gpr as f64,
        cfg.resv_fx as f64,
        (cfg.il1_kb as f64).log2(),
        (cfg.dl1_kb as f64).log2(),
        (cfg.l2_kb as f64).log2(),
    ])
}

/// Returns the baseline point with its depth replaced by the given FO4
/// value (must be a depth of the exploration space).
///
/// # Panics
///
/// Panics if `fo4` is not one of the exploration-space depths.
pub fn baseline_at_depth(fo4: u32) -> DesignPoint {
    let space = DesignSpace::exploration();
    assert!(space.depths().contains(&fo4), "depth {fo4} not in exploration space");
    let mut v = baseline_point().predictors();
    v[0] = fo4 as f64;
    space.nearest(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_point_matches_table3_closely() {
        let p = baseline_point();
        // 19 FO4 snaps to 18 (nearest grid depth).
        assert_eq!(p.fo4(), 18);
        assert_eq!(p.decode_width(), 4);
        assert_eq!(p.gpr(), 80);
        assert_eq!(p.il1_kb(), 64);
        assert_eq!(p.dl1_kb(), 32);
        assert_eq!(p.l2_kb(), 2048);
    }

    #[test]
    fn baseline_at_depth_sweeps_only_depth() {
        let base = baseline_point();
        for &fo4 in DesignSpace::exploration().depths() {
            let p = baseline_at_depth(fo4);
            assert_eq!(p.fo4(), fo4);
            assert_eq!(p.width_idx, base.width_idx);
            assert_eq!(p.regs_idx, base.regs_idx);
            assert_eq!(p.l2_idx, base.l2_idx);
        }
    }

    #[test]
    #[should_panic(expected = "not in exploration space")]
    fn foreign_depth_panics() {
        let _ = baseline_at_depth(19);
    }
}
