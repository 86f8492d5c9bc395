//! Benchmarks of one federated round per method: what a coordinator
//! iteration costs on this substrate. Ungated developer numbers (the
//! gated ones are the `benchmark/` workloads; the million-device RSS
//! bound is `tests/rss_bound.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use ft_baselines::{FedAvg, HeteroFl, ServerOpt};
use ft_bench::{Scale, Setup, Workload};
use ft_fedsim::Algorithm;

fn bench_fedtrans_round(c: &mut Criterion) {
    let setup = Setup::new(Workload::Femnist, Scale::Ci);
    c.bench_function("fedtrans_one_round", |b| {
        b.iter_batched(
            || setup.fedtrans(setup.fedtrans_config()).unwrap(),
            |mut rt| rt.step().unwrap(),
            criterion::BatchSize::LargeInput,
        );
    });
}

fn bench_fedavg_round(c: &mut Criterion) {
    let setup = Setup::new(Workload::Femnist, Scale::Ci);
    c.bench_function("fedavg_one_round", |b| {
        b.iter_batched(
            || {
                FedAvg::new(
                    setup.baseline_config(),
                    setup.data.clone(),
                    setup.devices.clone(),
                    setup.seed.clone(),
                    ServerOpt::Average,
                )
            },
            |mut runner| runner.step().unwrap(),
            criterion::BatchSize::LargeInput,
        );
    });
}

fn bench_heterofl_round(c: &mut Criterion) {
    let setup = Setup::new(Workload::Femnist, Scale::Ci);
    c.bench_function("heterofl_one_round", |b| {
        b.iter_batched(
            || {
                HeteroFl::new(
                    setup.baseline_config(),
                    setup.data.clone(),
                    setup.devices.clone(),
                    setup.seed.clone(),
                )
            },
            |mut runner| runner.step().unwrap(),
            criterion::BatchSize::LargeInput,
        );
    });
}

criterion_group!(
    benches,
    bench_fedtrans_round,
    bench_fedavg_round,
    bench_heterofl_round
);

criterion_main!(benches);
