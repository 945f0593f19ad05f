//! Criterion benches for the paper's computational-efficiency claims:
//! model formulation ("numerically solving a system of linear equations")
//! and prediction ("thousands of predictions in a few seconds" — the
//! paper reports 800 predictions per 15 s on a 2006 laptop; modern
//! hardware and an optimized basis evaluation should be orders of
//! magnitude faster).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use udse_core::model::{design_dataset, performance_spec, PaperModels, SuiteLanes};
use udse_core::oracle::Metrics;
use udse_core::space::{DesignPoint, DesignSpace};
use udse_trace::Benchmark;

/// Synthetic smooth responses so fitting cost is measured without paying
/// for 1,000 simulations inside the benchmark loop.
fn synth_metrics(p: &DesignPoint) -> Metrics {
    let v = p.predictors();
    Metrics {
        bips: (6.0 / v[0]) * (1.0 + 0.15 * v[1].ln()) + 0.02 * v[6] + 0.001 * v[2],
        watts: 4.0 + 40.0 / v[0] + 1.2 * v[1] + 0.5 * v[6] + 0.01 * v[2],
    }
}

fn trained_models() -> PaperModels {
    let samples = DesignSpace::paper().sample_uar(1_000, 7);
    let obs: Vec<Metrics> = samples.iter().map(synth_metrics).collect();
    PaperModels::train_from_observations(Benchmark::Gzip, &samples, &obs)
        .expect("synthetic fit succeeds")
}

fn bench_fit(c: &mut Criterion) {
    let samples = DesignSpace::paper().sample_uar(1_000, 7);
    let data = design_dataset(&samples).expect("non-empty");
    let y: Vec<f64> = samples.iter().map(|p| synth_metrics(p).bips).collect();
    c.bench_function("fit_performance_model_n1000", |b| {
        b.iter(|| performance_spec().fit(&data, &y).expect("fit"))
    });
}

fn bench_predict(c: &mut Criterion) {
    let models = trained_models();
    let space = DesignSpace::exploration();
    let point = space.decode(123_456).expect("valid index");
    c.bench_function("predict_single_design", |b| {
        b.iter(|| models.predict_metrics(std::hint::black_box(&point)))
    });

    let mut group = c.benchmark_group("predict_batch");
    let batch: Vec<DesignPoint> = space.sample_uar(10_000, 3);
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("10k_designs", |b| {
        b.iter_batched(
            || batch.clone(),
            |pts| pts.iter().map(|p| models.predict_efficiency(p)).sum::<f64>(),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The §3.6 claim at modern scale: sweeping the full 262,500-point
/// exploration grid, naive per-row spline evaluation vs the compiled
/// structure-of-arrays grid walker, which carries incremental per-prefix
/// partial sums instead of decoding and evaluating every point.
fn bench_compiled_sweep(c: &mut Criterion) {
    let models = trained_models();
    let space = DesignSpace::exploration();
    let lanes = SuiteLanes::compile(std::slice::from_ref(&models), &space);
    let total = space.len();
    let mut group = c.benchmark_group("compiled_predict_sweep");
    group.throughput(Throughput::Elements(total));
    group.bench_function("naive_full_grid", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for p in space.iter() {
                acc += models.predict_efficiency(&p);
            }
            acc
        })
    });
    group.bench_function("compiled_full_grid", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            let mut walker = lanes.walker(1);
            walker.walk(0..total, |_, m| acc += m[0].bips_cubed_per_watt());
            acc
        })
    });

    // The fused sweep behind `pareto::characterize_all`: nine
    // single-pair walks each re-derive every grid prefix, while the
    // stacked walk advances one odometer and feeds all eighteen model
    // lanes from each level-group read.
    let suite: Vec<PaperModels> = (0..Benchmark::ALL.len())
        .map(|i| {
            let samples = DesignSpace::paper().sample_uar(1_000, 7 + i as u64);
            let obs: Vec<Metrics> = samples.iter().map(synth_metrics).collect();
            PaperModels::train_from_observations(Benchmark::ALL[i], &samples, &obs)
                .expect("synthetic fit succeeds")
        })
        .collect();
    let separate: Vec<SuiteLanes> =
        suite.iter().map(|m| SuiteLanes::compile(std::slice::from_ref(m), &space)).collect();
    let suite_lanes = SuiteLanes::compile(&suite, &space);
    group.throughput(Throughput::Elements(total * Benchmark::ALL.len() as u64));
    group.bench_function("nine_separate_grid_walks", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for lanes in &separate {
                let mut walker = lanes.walker(1);
                walker.walk(0..total, |_, m| acc += m[0].bips_cubed_per_watt());
            }
            acc
        })
    });
    group.bench_function("fused_nine_benchmark_walk", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            let mut walker = suite_lanes.walker(1);
            walker.walk(0..total, |_, ms| {
                for m in ms {
                    acc += m.bips_cubed_per_watt();
                }
            });
            acc
        })
    });
    group.finish();
}

fn bench_space(c: &mut Criterion) {
    let space = DesignSpace::exploration();
    let mut group = c.benchmark_group("design_space");
    group.throughput(Throughput::Elements(space.len()));
    group.bench_function("decode_all_262500", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in space.iter() {
                acc = acc.wrapping_add(p.gpr() as u64);
            }
            acc
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fit, bench_predict, bench_compiled_sweep, bench_space
}
criterion_main!(benches);
