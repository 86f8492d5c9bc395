//! Directional checks of the paper's headline claims at test scale.
//!
//! These are deliberately coarse (small clients/rounds) so the suite
//! stays fast; the bench binaries reproduce the full artifacts.

use fedtrans::{DocTracker, FedTransConfig, FedTransRuntime};
use ft_data::DatasetConfig;
use ft_fedsim::device::DeviceTraceConfig;
use ft_fedsim::metrics::{mean, std_dev};
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::Algorithm;

fn cfg() -> FedTransConfig {
    FedTransConfig::default()
        .with_clients_per_round(8)
        .with_gamma(2)
        .with_delta(2)
        .with_local(LocalTrainConfig {
            local_steps: 5,
            ..Default::default()
        })
}

#[test]
fn warmup_preserves_training_progress() {
    // Claim (§4.1): function-preserving warm-up means a spawned model
    // starts from its parent's loss, not from scratch.
    let data = DatasetConfig::femnist_like()
        .with_num_clients(12)
        .with_mean_samples(30)
        .generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(12)
        .with_base_capacity(1_000)
        .generate();
    let mut c = cfg();
    c.beta = 10.0;
    c.transform_cooldown = 6;
    let mut rt = FedTransRuntime::new(c, data, devices).unwrap();
    let report = rt.run_to(20).unwrap();
    assert!(report.model_archs.len() >= 2, "needs a transformation");
    // Find the transform round; the next round's loss must not blow up
    // past the initial (cold-start) loss.
    let t = report.rounds.iter().position(|r| r.transformed).unwrap();
    let initial_loss = report.rounds[0].mean_loss;
    if t + 2 < report.rounds.len() {
        let after = report.rounds[t + 1]
            .mean_loss
            .min(report.rounds[t + 2].mean_loss);
        assert!(
            after < initial_loss,
            "warm-started suite regressed to cold-start loss: {after} vs {initial_loss}"
        );
    }
}

#[test]
fn fedtrans_round_times_beat_one_size_fits_all() {
    // Claim (Appendix C / Table 6): capacity-matched models shrink both
    // the mean and the spread of client round times.
    let data = DatasetConfig::femnist_like()
        .with_num_clients(14)
        .with_mean_samples(25)
        .generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(14)
        .with_base_capacity(1_000)
        .generate();
    let mut c = cfg();
    c.beta = 10.0;
    c.transform_cooldown = 4;
    let mut rt = FedTransRuntime::new(c, data.clone(), devices.clone()).unwrap();
    let ft = rt.run_to(20).unwrap();
    let largest = rt.method().models().last().unwrap().clone();

    let bl = ft_baselines::BaselineConfig {
        clients_per_round: 8,
        local: LocalTrainConfig {
            local_steps: 5,
            ..Default::default()
        },
        seed: 1,
        eval_every: 0,
        enforce_capacity: true,
        ..Default::default()
    };
    let mut fedavg_rt =
        ft_baselines::FedAvg::new(bl, data, devices, largest, ft_baselines::ServerOpt::Average);
    let fedavg = fedavg_rt.run_to(20).unwrap();
    assert!(
        mean(&ft.client_times_s) < mean(&fedavg.client_times_s),
        "FedTrans should have lower mean round time"
    );
    assert!(
        std_dev(&ft.client_times_s) < std_dev(&fedavg.client_times_s),
        "FedTrans should have lower round-time spread"
    );
}

#[test]
fn doc_tracks_the_elbow() {
    // Claim (Eq. 1): DoC is high on a steep loss curve and falls below
    // beta at the plateau.
    let mut doc = DocTracker::new(3, 2);
    for i in 0..10 {
        doc.record(5.0 - 0.4 * i as f32);
    }
    assert!(doc.doc().unwrap() > 0.3);
    for _ in 0..10 {
        doc.record(1.0);
    }
    assert!(doc.converged(0.003));
}

#[test]
fn multi_model_suite_covers_capacity_spectrum() {
    // Claim (§3): the suite spans complexities from the weakest to the
    // strongest device tier.
    let data = DatasetConfig::femnist_like()
        .with_num_clients(16)
        .with_mean_samples(25)
        .generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(16)
        .with_base_capacity(1_000)
        .with_disparity(30.0)
        .generate();
    let mut c = cfg();
    c.beta = 10.0;
    c.transform_cooldown = 4;
    let mut rt = FedTransRuntime::new(c, data, devices.clone()).unwrap();
    let report = rt.run_to(30).unwrap();
    let min_macs = *report.model_macs.first().unwrap();
    let max_macs = *report.model_macs.last().unwrap();
    assert!(
        min_macs <= devices.min_capacity(),
        "seed fits the weakest device"
    );
    assert!(
        max_macs > min_macs,
        "suite should span multiple complexities"
    );
    assert!(
        max_macs <= devices.max_capacity(),
        "no model exceeds the strongest device"
    );
}

#[test]
fn ablations_change_behaviour() {
    // Table 3's arms must actually produce different runs.
    let data = DatasetConfig::femnist_like()
        .with_num_clients(12)
        .with_mean_samples(25)
        .generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(12)
        .with_base_capacity(1_000)
        .generate();
    let mut base = cfg();
    base.beta = 10.0;
    base.transform_cooldown = 4;
    let mut full_rt = FedTransRuntime::new(base.clone(), data.clone(), devices.clone()).unwrap();
    let full = full_rt.run_to(16).unwrap();
    let mut no_warm_rt = FedTransRuntime::new(base.ablate_warmup(), data, devices).unwrap();
    let no_warm = no_warm_rt.run_to(16).unwrap();
    assert_ne!(full.per_client_accuracy, no_warm.per_client_accuracy);
}
