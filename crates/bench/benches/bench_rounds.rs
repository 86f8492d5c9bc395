//! Benchmarks of one federated round per method: what a coordinator
//! iteration costs on this substrate.
//!
//! Besides the criterion timing groups, this bench emits
//! `bench_results/round_1m.json`: a round over a **million-device**
//! population (sparse shards, procedural device trace, streaming
//! aggregation fold) with the process's peak RSS read from
//! `/proc/self/status` afterwards. The committed baseline
//! `crates/bench/baselines/round_1m.json` carries the RSS bound
//! `bench_gate` enforces — the round must stay O(clients in flight),
//! never O(population). `FT_BENCH_QUICK=1` trims cohort and rounds to
//! CI scale.

use criterion::{criterion_group, Criterion};
use fedtrans::FedTransRuntime;
use ft_baselines::{BaselineConfig, FedAvg, HeteroFl, ServerOpt};
use ft_bench::{Scale, Setup, Workload};
use ft_data::{DatasetConfig, SparseFederatedData};
use ft_fedsim::device::{DeviceTrace, DeviceTraceConfig};
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::{Algorithm, RoundOptions, RunContext};
use ft_model::CellModel;
use rand::SeedableRng;

fn quick() -> bool {
    std::env::var("FT_BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn bench_fedtrans_round(c: &mut Criterion) {
    let setup = Setup::new(Workload::Femnist, Scale::Ci);
    c.bench_function("fedtrans_one_round", |b| {
        b.iter_batched(
            || {
                FedTransRuntime::with_seed_model(
                    setup.fedtrans_config(),
                    setup.data.clone(),
                    setup.devices.clone(),
                    setup.seed.clone(),
                )
                .unwrap()
            },
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

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One-million-device rounds through the streaming fold. Runs before
/// the criterion groups so `VmHWM` attributes to this leg, not to
/// whatever the timing benches allocated.
fn emit_round_1m_json() {
    let population = 1_000_000usize;
    let participants = if quick() { 64 } else { 256 };
    let rounds = if quick() { 2 } else { 4 };
    let max_in_flight = 8usize;

    let data = SparseFederatedData::new(
        DatasetConfig::femnist_like()
            .with_num_clients(population)
            .with_mean_samples(20)
            .with_seed(29),
    );
    let devices = DeviceTrace::procedural(
        DeviceTraceConfig::default()
            .with_num_devices(population)
            .with_base_capacity(5_000),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let model = CellModel::dense(&mut rng, data.input_dim(), &[64, 64], data.num_classes());
    let cfg = BaselineConfig {
        clients_per_round: participants,
        local: LocalTrainConfig {
            local_steps: 4,
            ..Default::default()
        },
        seed: 41,
        eval_every: 0,
        eval_clients: Some(256),
        ..Default::default()
    };
    let mut runner =
        FedAvg::new(cfg, data, devices, model, ServerOpt::Average).with_context(RunContext {
            options: RoundOptions::new().max_in_flight(max_in_flight),
            ..Default::default()
        });

    let start = std::time::Instant::now();
    for _ in 0..rounds {
        runner.step().expect("million-device round");
    }
    let round_s = start.elapsed().as_secs_f64() / rounds as f64;
    let rss = peak_rss_mb();
    println!(
        "round_1m: {population} devices, {participants}/round, {rounds} rounds, \
         {round_s:.2}s/round, peak RSS {}",
        rss.map_or("n/a".to_owned(), |m| format!("{m:.0} MB")),
    );
    let report = serde_json::json!({
        "bench": "round_1m",
        "quick": quick(),
        "population": population,
        "participants": participants,
        "rounds": rounds,
        "max_in_flight": max_in_flight,
        "round_s": round_s,
        "peak_rss_mb": rss,
    });
    let path = ft_fedsim::report::dump_json("round_1m", &report).expect("writing bench artifact");
    println!("wrote {}", path.display());
}

criterion_group!(
    benches,
    bench_fedtrans_round,
    bench_fedavg_round,
    bench_heterofl_round
);

fn main() {
    emit_round_1m_json();
    benches();
}
