//! `bench_train_step`: criterion timings of one client SGD step through
//! the fused [`ft_fedsim::trainer::LocalStepper`] path — an ungated
//! developer tool (the gated number is `fedsim.trainer.step_us` in
//! `benchmark/`).
//!
//! `fused_portable` is the same stepper pinned to the portable kernels
//! via `ft_tensor::simd::force`, so what the intrinsics buy the
//! training hot path (GEMM + fused SGD-momentum) reads off two rows.
//!
//! `FT_BENCH_QUICK=1` trims repetitions to CI scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ft_fedsim::trainer::{LocalStepper, LocalTrainConfig};
use ft_model::CellModel;
use rand::SeedableRng;

fn quick() -> bool {
    std::env::var("FT_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// The benchmark workload: a `large-population`-shaped client (dense
/// body) over a FEMNIST-like shard.
fn workload() -> (ft_data::FederatedDataset, CellModel, LocalTrainConfig) {
    let data = ft_data::DatasetConfig::femnist_like()
        .with_num_clients(8)
        .with_mean_samples(40)
        .generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let model = CellModel::dense(&mut rng, data.input_dim(), &[96, 96], data.num_classes());
    let cfg = LocalTrainConfig {
        momentum: 0.9,
        ..Default::default()
    };
    (data, model, cfg)
}

fn bench_train_step(c: &mut Criterion) {
    let (data, model, cfg) = workload();
    let mut group = c.benchmark_group("bench_train_step");
    if quick() {
        group.sample_size(3);
    }

    let mut fused_model = model.clone();
    let mut stepper = LocalStepper::new(&fused_model, data.client(0), &cfg, 7);
    group.bench_function("fused", |bench| {
        bench.iter(|| black_box(stepper.step(&mut fused_model).expect("step trains")));
    });

    let mut portable_model = model.clone();
    let mut stepper = LocalStepper::new(&portable_model, data.client(0), &cfg, 7);
    group.bench_function("fused_portable", |bench| {
        ft_tensor::simd::force(Some(ft_tensor::simd::Kernel::Portable));
        bench.iter(|| black_box(stepper.step(&mut portable_model).expect("step trains")));
        ft_tensor::simd::force(None);
    });
    group.finish();
}

criterion_group!(benches, bench_train_step);
criterion_main!(benches);
