//! Cross-crate integration tests: full FedTrans runs over every model
//! family, reproducibility, and report well-formedness.

use fedtrans::{FedTransConfig, FedTransRuntime};
use ft_data::DatasetConfig;
use ft_fedsim::device::DeviceTraceConfig;
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::Algorithm;

fn short_cfg(clients_per_round: usize) -> FedTransConfig {
    FedTransConfig::default()
        .with_clients_per_round(clients_per_round)
        .with_gamma(2)
        .with_delta(2)
        .with_local(LocalTrainConfig {
            local_steps: 5,
            ..Default::default()
        })
}

fn devices_for(n: usize, base: u64) -> ft_fedsim::device::DeviceTrace {
    DeviceTraceConfig::default()
        .with_num_devices(n)
        .with_base_capacity(base)
        .with_disparity(30.0)
        .generate()
}

#[test]
fn dense_family_end_to_end() {
    let data = DatasetConfig::femnist_like()
        .with_num_clients(15)
        .with_mean_samples(30)
        .generate();
    let devices = devices_for(15, 1_000);
    let mut rt = FedTransRuntime::new(short_cfg(6), data, devices).unwrap();
    let report = rt.run_to(25).unwrap();
    assert_eq!(report.rounds.len(), 25);
    // Better than chance (1/16).
    assert!(
        report.final_accuracy.mean > 0.15,
        "{}",
        report.final_accuracy.mean
    );
    assert!(report.pmacs > 0.0);
}

#[test]
fn conv_family_end_to_end() {
    let data = DatasetConfig::cifar_like()
        .with_num_clients(10)
        .with_mean_samples(25)
        .generate();
    let devices = devices_for(10, 50_000);
    let mut rt = FedTransRuntime::new(short_cfg(5), data, devices).unwrap();
    let report = rt.run_to(15).unwrap();
    // Better than chance (1/10).
    assert!(
        report.final_accuracy.mean > 0.15,
        "{}",
        report.final_accuracy.mean
    );
}

#[test]
fn attention_family_end_to_end() {
    let data = DatasetConfig::femnist_vit_like()
        .with_num_clients(10)
        .with_mean_samples(25)
        .generate();
    let devices = devices_for(10, 60_000);
    let mut rt = FedTransRuntime::new(short_cfg(5), data, devices).unwrap();
    let report = rt.run_to(15).unwrap();
    assert!(
        report.final_accuracy.mean > 0.1,
        "{}",
        report.final_accuracy.mean
    );
}

#[test]
fn full_run_is_deterministic() {
    let make = || {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(12)
            .with_mean_samples(25)
            .generate();
        let devices = devices_for(12, 1_000);
        FedTransRuntime::new(short_cfg(6), data, devices).unwrap()
    };
    let a = make().run_to(12).unwrap();
    let b = make().run_to(12).unwrap();
    assert_eq!(a.per_client_accuracy, b.per_client_accuracy);
    assert_eq!(a.model_archs, b.model_archs);
    assert_eq!(a.pmacs, b.pmacs);
    assert_eq!(a.network_mb, b.network_mb);
}

#[test]
fn transformation_grows_suite_and_costs_track() {
    let data = DatasetConfig::femnist_like()
        .with_num_clients(12)
        .with_mean_samples(25)
        .generate();
    let devices = devices_for(12, 1_000);
    let mut cfg = short_cfg(6);
    cfg.beta = 5.0; // transform as soon as history allows
    cfg.transform_cooldown = 4;
    let mut rt = FedTransRuntime::new(cfg, data, devices).unwrap();
    let report = rt.run_to(25).unwrap();
    assert!(report.model_archs.len() >= 2, "no transformation fired");
    // Model MACs non-decreasing along the growth chain.
    assert!(report.model_macs.windows(2).all(|w| w[1] >= w[0]));
    // Cumulative cost strictly increases per round.
    assert!(report
        .rounds
        .windows(2)
        .all(|w| w[1].cumulative_pmacs > w[0].cumulative_pmacs));
    // The largest model must fit the most capable device.
    let max_cap = rt
        .method()
        .models()
        .iter()
        .map(|m| m.macs_per_sample())
        .max()
        .unwrap();
    assert!(max_cap <= 30 * 1_000 * 2);
}

#[test]
fn loss_decreases_over_training() {
    let data = DatasetConfig::femnist_like()
        .with_num_clients(12)
        .with_mean_samples(30)
        .generate();
    let devices = devices_for(12, 1_000);
    let mut rt = FedTransRuntime::new(short_cfg(8), data, devices).unwrap();
    let report = rt.run_to(30).unwrap();
    let early: f32 = report.rounds[..5].iter().map(|r| r.mean_loss).sum::<f32>() / 5.0;
    let late: f32 = report.rounds[25..].iter().map(|r| r.mean_loss).sum::<f32>() / 5.0;
    assert!(late < early, "loss did not decrease: {early} -> {late}");
}
