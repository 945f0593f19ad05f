//! The paper's Table 1 design space.
//!
//! Seven parameter *groups* vary jointly: depth, width (decode bandwidth
//! with load/store queue, store queue, and functional-unit counts),
//! physical registers (GPR/FPR/SPR together), reservation stations
//! (BR/FX/FP together), and the three cache sizes. The Cartesian product
//! of the group cardinalities (10 x 3 x 10 x 10 x 5 x 5 x 5) gives the
//! 375,000-point sampling space; restricting depth to 12–30 FO4 gives
//! the 262,500-point exploration space of §3.5.
//!
//! Each group is one [`Axis`], named by its representative quantity
//! (decode width, GPR count, FX reservations, ...). [`Axis`]'s level
//! table is the one place that knows each axis's values: index
//! arithmetic, regression predictors, compiled grids and query bounds
//! all read it. The sizes coupled to a representative (LSQ, SQ and
//! units to width, FPR and SPR to GPR, BR and FP to FX) come from
//! [`MachineConfigBuilder`] in [`DesignPoint::to_machine_config`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udse_sim::{MachineConfig, MachineConfigBuilder};

/// Depth values (FO4 per stage) in the full sampling space: 9::3::36.
pub const DEPTH_VALUES: [u32; 10] = [9, 12, 15, 18, 21, 24, 27, 30, 33, 36];
/// Depth values in the exploration space: 12::3::30 (§3.5 restricts the
/// studied space so predictions never extrapolate in depth).
pub const EXPLORATION_DEPTH_VALUES: [u32; 7] = [12, 15, 18, 21, 24, 27, 30];

/// One axis of the Table 1 design space, named by the physical quantity
/// constraints are written against (cache sizes in KB, depth in FO4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Pipeline depth in FO4 per stage.
    DepthFo4,
    /// Decode width in instructions per cycle.
    Width,
    /// General-purpose physical registers.
    Gpr,
    /// Fixed-point reservation stations.
    ResvFx,
    /// I-L1 cache size in KB.
    Il1Kb,
    /// D-L1 cache size in KB.
    Dl1Kb,
    /// L2 cache size in KB.
    L2Kb,
}

/// One row of Table 1 as the code reads it.
struct AxisRow {
    /// Wire-format name of the axis.
    name: &'static str,
    /// Regression predictor column name.
    predictor: &'static str,
    /// Level values, strictly increasing. Empty for depth, whose levels
    /// each [`DesignSpace`] carries ([`DesignSpace::depths`]).
    levels: &'static [u32],
    /// Whether the predictor is the value's log2 (the cache sizes) rather
    /// than the value itself.
    log2: bool,
}

/// Table 1, one row per axis in [`Axis::ALL`] order.
const TABLE: [AxisRow; 7] = [
    AxisRow { name: "depth_fo4", predictor: "depth_fo4", levels: &[], log2: false },
    AxisRow { name: "width", predictor: "width", levels: &[2, 4, 8], log2: false },
    AxisRow {
        name: "gpr",
        predictor: "gpr",
        levels: &[40, 50, 60, 70, 80, 90, 100, 110, 120, 130],
        log2: false,
    },
    AxisRow {
        name: "resv_fx",
        predictor: "resv_fx",
        levels: &[10, 12, 14, 16, 18, 20, 22, 24, 26, 28],
        log2: false,
    },
    AxisRow { name: "il1_kb", predictor: "log2_il1", levels: &[16, 32, 64, 128, 256], log2: true },
    AxisRow { name: "dl1_kb", predictor: "log2_dl1", levels: &[8, 16, 32, 64, 128], log2: true },
    AxisRow {
        name: "l2_kb",
        predictor: "log2_l2",
        levels: &[256, 512, 1024, 2048, 4096],
        log2: true,
    },
];

impl Axis {
    /// All seven axes in design-point index order
    /// (`depth, width, regs, resv, il1, dl1, l2`).
    pub const ALL: [Axis; 7] = [
        Axis::DepthFo4,
        Axis::Width,
        Axis::Gpr,
        Axis::ResvFx,
        Axis::Il1Kb,
        Axis::Dl1Kb,
        Axis::L2Kb,
    ];

    fn row(self) -> &'static AxisRow {
        &TABLE[self.slot()]
    }

    /// The wire-format name of the axis.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Looks an axis up by its wire-format name.
    pub fn by_name(name: &str) -> Option<Axis> {
        Axis::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The axis position in the seven-element design-point index tuple.
    pub fn slot(self) -> usize {
        self as usize
    }

    /// The axis's physical value at one design point.
    pub fn value(self, p: &DesignPoint) -> f64 {
        p.level(self) as f64
    }

    /// The axis's physical value at grid level `level` of `space`. Every
    /// axis's values are strictly increasing in the level index, which is
    /// what lets value constraints push down to index bounds.
    pub fn level_value(self, space: &DesignSpace, level: u8) -> f64 {
        space.levels(self)[level as usize] as f64
    }

    /// The regression predictor of a physical value on this axis.
    fn predictor(self, value: u32) -> f64 {
        if self.row().log2 {
            (value as f64).log2()
        } else {
            value as f64
        }
    }
}

/// One point of the design space, stored as indices into the seven
/// jointly-varied groups of Table 1.
///
/// # Examples
///
/// ```
/// use udse_core::space::{DesignPoint, DesignSpace};
///
/// let space = DesignSpace::paper();
/// let p = space.decode(0).unwrap();
/// assert_eq!(p.fo4(), 9);
/// assert_eq!(p.decode_width(), 2);
/// assert_eq!(p.gpr(), 40);
/// let cfg = p.to_machine_config();
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DesignPoint {
    /// Index into the space's depth value list.
    pub depth_idx: u8,
    /// Index into the [`Axis::Width`] levels.
    pub width_idx: u8,
    /// Index 0..10 into the register group.
    pub regs_idx: u8,
    /// Index 0..10 into the reservation-station group.
    pub resv_idx: u8,
    /// Index into the [`Axis::Il1Kb`] levels.
    pub il1_idx: u8,
    /// Index into the [`Axis::Dl1Kb`] levels.
    pub dl1_idx: u8,
    /// Index into the [`Axis::L2Kb`] levels.
    pub l2_idx: u8,
    /// Depth list this point's `depth_idx` refers to (paper vs
    /// exploration); stored as the FO4 value directly to keep the point
    /// self-describing.
    fo4: u32,
}

impl DesignPoint {
    /// The seven group indices, in [`Axis::ALL`] order.
    pub(crate) fn indices(&self) -> [u8; 7] {
        [
            self.depth_idx,
            self.width_idx,
            self.regs_idx,
            self.resv_idx,
            self.il1_idx,
            self.dl1_idx,
            self.l2_idx,
        ]
    }

    /// The physical value of one axis at this point.
    fn level(&self, axis: Axis) -> u32 {
        match axis {
            Axis::DepthFo4 => self.fo4,
            _ => axis.row().levels[self.indices()[axis.slot()] as usize],
        }
    }

    /// Pipeline depth in FO4 delays per stage.
    pub fn fo4(&self) -> u32 {
        self.fo4
    }

    /// Decode bandwidth in instructions per cycle.
    pub fn decode_width(&self) -> u32 {
        self.level(Axis::Width)
    }

    /// General-purpose physical registers: 40::10::130.
    pub fn gpr(&self) -> u32 {
        self.level(Axis::Gpr)
    }

    /// Fixed-point reservation stations: 10::2::28.
    pub fn resv_fx(&self) -> u32 {
        self.level(Axis::ResvFx)
    }

    /// I-L1 cache size in KB.
    pub fn il1_kb(&self) -> u32 {
        self.level(Axis::Il1Kb)
    }

    /// D-L1 cache size in KB.
    pub fn dl1_kb(&self) -> u32 {
        self.level(Axis::Dl1Kb)
    }

    /// L2 cache size in KB.
    pub fn l2_kb(&self) -> u32 {
        self.level(Axis::L2Kb)
    }

    /// Materializes the full simulator configuration for this point:
    /// the builder applies Table 1's coupled sizes to each group's
    /// representative, and the Table 3 structural constants
    /// (associativities, predictor, ROB) are inherited.
    pub fn to_machine_config(&self) -> MachineConfig {
        MachineConfigBuilder::power4_baseline()
            .depth_fo4(self.fo4())
            .width(self.decode_width())
            .registers(self.gpr())
            .reservations(self.resv_fx())
            .il1_kb(self.il1_kb())
            .dl1_kb(self.dl1_kb())
            .l2_kb(self.l2_kb())
            .build()
            .expect("every Table 1 point is a valid machine")
    }

    /// Names of the regression predictor columns, matching
    /// [`DesignPoint::predictors`].
    pub fn predictor_names() -> Vec<String> {
        Axis::ALL.iter().map(|a| a.row().predictor.to_string()).collect()
    }

    /// The regression predictor vector for this point. One representative
    /// per jointly-varied group (the other members are perfectly
    /// collinear); cache sizes enter on a log2 scale.
    pub fn predictors(&self) -> Vec<f64> {
        Axis::ALL.iter().map(|&a| a.predictor(self.level(a))).collect()
    }
}

/// The design space: the set of depth values crossed with the fixed
/// Table 1 groups.
///
/// # Examples
///
/// ```
/// use udse_core::space::DesignSpace;
///
/// assert_eq!(DesignSpace::paper().len(), 375_000);
/// assert_eq!(DesignSpace::exploration().len(), 262_500);
/// let samples = DesignSpace::paper().sample_uar(100, 7);
/// assert_eq!(samples.len(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpace {
    depths: &'static [u32],
}

impl DesignSpace {
    /// The full 375,000-point sampling space (depths 9–36 FO4).
    pub fn paper() -> Self {
        DesignSpace { depths: &DEPTH_VALUES }
    }

    /// The 262,500-point exploration space (depths 12–30 FO4), a strict
    /// subset of the sampling space so model queries never extrapolate
    /// (§3.5).
    pub fn exploration() -> Self {
        DesignSpace { depths: &EXPLORATION_DEPTH_VALUES }
    }

    /// The depth values of this space.
    pub fn depths(&self) -> &'static [u32] {
        self.depths
    }

    /// One axis's level values in this space, strictly increasing.
    pub fn levels(&self, axis: Axis) -> &'static [u32] {
        match axis {
            Axis::DepthFo4 => self.depths,
            _ => axis.row().levels,
        }
    }

    /// Number of points in the space.
    pub fn len(&self) -> u64 {
        self.dimensions().iter().map(|&d| d as u64).product()
    }

    /// Whether the space is empty (never, for the provided constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The point at in-range group indices.
    fn at(&self, indices: [u8; 7]) -> DesignPoint {
        let [depth_idx, width_idx, regs_idx, resv_idx, il1_idx, dl1_idx, l2_idx] = indices;
        DesignPoint {
            depth_idx,
            width_idx,
            regs_idx,
            resv_idx,
            il1_idx,
            dl1_idx,
            l2_idx,
            fo4: self.depths[depth_idx as usize],
        }
    }

    /// Builds a point from raw group indices, validating each against
    /// its group's cardinality. Returns `None` when any index is out of
    /// range.
    pub fn point(&self, indices: [u8; 7]) -> Option<DesignPoint> {
        let in_range = indices.iter().zip(self.dimensions()).all(|(&i, d)| i < d);
        in_range.then(|| self.at(indices))
    }

    /// The raw group indices of a point, in [`DesignSpace::point`] order.
    pub fn indices(&self, p: &DesignPoint) -> [u8; 7] {
        p.indices()
    }

    /// Per-dimension cardinalities, in [`DesignSpace::point`] order.
    pub fn dimensions(&self) -> [u8; 7] {
        Axis::ALL.map(|a| self.levels(a).len() as u8)
    }

    /// Decodes a flat index into a design point.
    ///
    /// The index layout is row-major over
    /// `(depth, width, regs, resv, il1, dl1, l2)`.
    pub fn decode(&self, index: u64) -> Option<DesignPoint> {
        if index >= self.len() {
            return None;
        }
        let mut indices = [0u8; 7];
        let mut rest = index;
        for (i, d) in indices.iter_mut().zip(self.dimensions()).rev() {
            *i = (rest % d as u64) as u8;
            rest /= d as u64;
        }
        Some(self.at(indices))
    }

    /// Encodes a design point back to its flat index.
    ///
    /// Returns `None` when the point's depth is not part of this space
    /// (e.g. a 9 FO4 sample encoded against the exploration space).
    pub fn encode(&self, p: &DesignPoint) -> Option<u64> {
        let mut indices = p.indices();
        indices[0] = self.depths.iter().position(|&d| d == p.fo4)? as u8;
        let dims = self.dimensions();
        Some(indices.iter().zip(dims).fold(0, |acc, (&i, d)| acc * d as u64 + i as u64))
    }

    /// Iterates over every point of the space in index order.
    pub fn iter(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        (0..self.len()).map(move |i| self.decode(i).expect("index in range"))
    }

    /// Draws `n` points uniformly at random (with replacement, as the
    /// paper's UAR sampling does; at n = 1,000 out of 375,000 duplicates
    /// are vanishingly rare).
    pub fn sample_uar(&self, n: usize, seed: u64) -> Vec<DesignPoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = self.len();
        (0..n).map(|_| self.decode(rng.gen_range(0..len)).expect("index in range")).collect()
    }

    /// The predictor value of every level, per axis in
    /// [`DesignPoint::predictors`] column order: the grid a compiled
    /// model is lowered onto. Both read [`Axis`]'s one level table
    /// through one transform, so a grid point's predictors are exactly
    /// its grid values.
    pub(crate) fn predictor_levels(&self) -> Vec<Vec<f64>> {
        Axis::ALL
            .iter()
            .map(|&a| self.levels(a).iter().map(|&v| a.predictor(v)).collect())
            .collect()
    }

    /// Returns the point of this space nearest to an arbitrary vector in
    /// [`DesignPoint::predictors`] coordinates, axis by axis (the first
    /// level wins a tie) — used to snap K-means centroids back onto
    /// valid designs.
    pub fn nearest(&self, vector: &[f64]) -> DesignPoint {
        assert_eq!(vector.len(), 7, "predictor vectors have 7 dimensions");
        let mut indices = [0u8; 7];
        for ((i, &target), a) in indices.iter_mut().zip(vector).zip(Axis::ALL) {
            let mut best = f64::INFINITY;
            for (level, &v) in self.levels(a).iter().enumerate() {
                let d = (a.predictor(v) - target).abs();
                if d < best {
                    (*i, best) = (level as u8, d);
                }
            }
        }
        self.at(indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_match_paper() {
        assert_eq!(DesignSpace::paper().len(), 375_000);
        assert_eq!(DesignSpace::exploration().len(), 262_500);
    }

    #[test]
    fn decode_encode_roundtrip() {
        let space = DesignSpace::paper();
        for idx in [0u64, 1, 17, 374_999, 200_000, 123_456] {
            let p = space.decode(idx).unwrap();
            assert_eq!(space.encode(&p), Some(idx));
        }
        assert_eq!(space.decode(375_000), None);
    }

    #[test]
    fn exploration_is_subset_of_paper() {
        let paper = DesignSpace::paper();
        let exp = DesignSpace::exploration();
        let p = exp.decode(99_999).unwrap();
        // The same physical design exists in the paper space.
        let idx = paper.encode(&p).expect("depth 12..30 present in paper space");
        assert_eq!(paper.decode(idx).unwrap().fo4(), p.fo4());
    }

    #[test]
    fn parameter_ranges_match_table1() {
        let space = DesignSpace::paper();
        let first = space.decode(0).unwrap();
        let last = space.decode(space.len() - 1).unwrap();
        assert_eq!(first.gpr(), 40);
        assert_eq!(last.gpr(), 130);
        let (first_cfg, last_cfg) = (first.to_machine_config(), last.to_machine_config());
        assert_eq!(first_cfg.fpr, 40);
        assert_eq!(last_cfg.fpr, 112);
        assert_eq!(first_cfg.spr, 42);
        assert_eq!(last_cfg.spr, 96);
        assert_eq!(first_cfg.resv_br, 6);
        assert_eq!(last_cfg.resv_br, 15);
        assert_eq!(first.resv_fx(), 10);
        assert_eq!(last.resv_fx(), 28);
        assert_eq!(first_cfg.resv_fp, 5);
        assert_eq!(last_cfg.resv_fp, 14);
        assert_eq!(first.il1_kb(), 16);
        assert_eq!(last.il1_kb(), 256);
        assert_eq!(first.dl1_kb(), 8);
        assert_eq!(last.dl1_kb(), 128);
        assert_eq!(first.l2_kb(), 256);
        assert_eq!(last.l2_kb(), 4096);
        assert_eq!(first.fo4(), 9);
        assert_eq!(last.fo4(), 36);
    }

    #[test]
    fn every_point_yields_valid_machine_config() {
        for p in DesignSpace::paper().iter() {
            p.to_machine_config().validate().unwrap();
        }
    }

    #[test]
    fn sampling_is_deterministic_and_diverse() {
        let space = DesignSpace::paper();
        let a = space.sample_uar(50, 9);
        let b = space.sample_uar(50, 9);
        assert_eq!(a, b);
        let depths: std::collections::HashSet<u32> = a.iter().map(|p| p.fo4()).collect();
        assert!(depths.len() >= 5, "UAR sample should cover many depths");
    }

    #[test]
    fn sampling_covers_parameter_ranges() {
        let space = DesignSpace::paper();
        let sample = space.sample_uar(1_000, 1);
        // Each group's extreme values should appear in 1,000 draws.
        assert!(sample.iter().any(|p| p.regs_idx == 0));
        assert!(sample.iter().any(|p| p.regs_idx == 9));
        assert!(sample.iter().any(|p| p.l2_idx == 0));
        assert!(sample.iter().any(|p| p.l2_idx == 4));
        assert!(sample.iter().any(|p| p.fo4() == 9));
        assert!(sample.iter().any(|p| p.fo4() == 36));
    }

    #[test]
    fn predictors_have_names() {
        let p = DesignSpace::paper().decode(7).unwrap();
        assert_eq!(p.predictors().len(), DesignPoint::predictor_names().len());
    }

    #[test]
    fn nearest_snaps_to_valid_point() {
        let space = DesignSpace::exploration();
        let p = space.decode(1234).unwrap();
        // Exact vector snaps to itself.
        assert_eq!(space.nearest(&p.predictors()), p);
        // A perturbed vector still snaps to a valid point.
        let mut v = p.predictors();
        v[0] += 1.4; // depth off-grid
        v[6] += 0.4; // l2 off-grid
        let q = space.nearest(&v);
        assert!(space.encode(&q).is_some());
    }

    #[test]
    fn iter_matches_len() {
        // Use a reduced check: count a slice of the iterator lazily.
        let space = DesignSpace::exploration();
        assert_eq!(space.iter().take(10).count(), 10);
        let total: u64 = space.len();
        assert_eq!(total, 262_500);
    }

    #[test]
    fn encode_rejects_foreign_depth() {
        let paper = DesignSpace::paper();
        let exp = DesignSpace::exploration();
        let nine_fo4 = paper.decode(0).unwrap();
        assert_eq!(nine_fo4.fo4(), 9);
        assert_eq!(exp.encode(&nine_fo4), None);
    }
}
