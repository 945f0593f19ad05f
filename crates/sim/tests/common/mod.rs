//! Helpers shared by the simulator's integration tests.

use rand::rngs::StdRng;
use rand::Rng;
use udse_sim::MachineConfig;

fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// A random machine configuration mixing Table-1 values with off-grid
/// ones. Every knob that feeds the cache or branch sub-keys varies, as
/// do core knobs (width, depth, in-order) that must *not* perturb the
/// resolved streams.
///
/// The golden fixture (`golden_sim.txt`) records the results of draws
/// from fixed seeds, so the draw order here is frozen: changing it
/// changes which designs those fixture lines describe.
pub fn arbitrary_config(rng: &mut StdRng) -> MachineConfig {
    let mut cfg = MachineConfig::power4_baseline();
    cfg.il1_kb = pick(rng, &[16, 32, 64, 128, 256]);
    cfg.dl1_kb = pick(rng, &[8, 16, 32, 64, 128]);
    cfg.l2_kb = pick(rng, &[256, 512, 1024, 2048, 4096]);
    cfg.il1_assoc = pick(rng, &[1, 2, 4]);
    cfg.dl1_assoc = pick(rng, &[1, 2, 4, 8]);
    cfg.l2_assoc = pick(rng, &[2, 4, 8]);
    cfg.il1_next_line_prefetch = rng.gen();
    cfg.dl1_stride_prefetch = rng.gen();
    cfg.bht_entries = pick(rng, &[1024, 4096, 16384, 65536]);
    cfg.bht_counter_bits = pick(rng, &[1, 2]);
    cfg.fo4_per_stage = pick(rng, &[9, 12, 19, 24, 30]);
    cfg.decode_width = pick(rng, &[2, 4, 8]);
    cfg.in_order = rng.gen_bool(0.25);
    cfg.rob_entries = pick(rng, &[64, 128, 256]);
    cfg.gpr = pick(rng, &[60, 80, 130]);
    cfg.fpr = pick(rng, &[56, 72, 126]);
    cfg.spr = pick(rng, &[42, 60, 118]);
    cfg.lsq_entries = pick(rng, &[15, 30, 45]);
    cfg.store_queue_entries = pick(rng, &[14, 28, 42]);
    cfg.resv_fx = pick(rng, &[10, 12, 14]);
    cfg.resv_fp = pick(rng, &[5, 10, 20]);
    cfg.resv_br = pick(rng, &[6, 8, 10]);
    cfg.units_per_class = pick(rng, &[1, 2, 4]);
    cfg
}
