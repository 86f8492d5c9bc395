//! The canned scenario registry and its committed golden digests.
//!
//! Every scenario here is CI-sized in quick mode (seconds) and
//! meaningfully larger in full mode. The committed `goldens.json`
//! maps scenario names to the quick-mode report digest; the workspace's
//! `tests/determinism_matrix.rs` re-runs each scenario and fails on
//! drift, which
//! catches any unintended change to training dynamics, cost
//! accounting, or report serialization.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ft_data::{DatasetConfig, DriftConfig, InputSpec};
use ft_fedsim::device::DeviceTier;
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::{AvailabilityConfig, Corruption, FaultConfig, RobustAggregation};

use crate::{AlgorithmSpec, AttackSpec, DeviceSpec, Scenario, TimingSpec};

fn default_fedtrans() -> AlgorithmSpec {
    AlgorithmSpec::FedTrans {
        max_models: 3,
        transform_cooldown: 6,
        gamma: 3,
        delta: 3,
        beta: 0.02,
    }
}

fn base(name: &str, description: &str) -> Scenario {
    Scenario {
        name: name.to_owned(),
        description: description.to_owned(),
        dataset: DatasetConfig::femnist_like()
            .with_num_clients(24)
            .with_mean_samples(25),
        devices: DeviceSpec::default(),
        algorithm: default_fedtrans(),
        faults: FaultConfig::default(),
        clients_per_round: 6,
        rounds: 48,
        quick_rounds: 8,
        eval_every: 0,
        local: LocalTrainConfig {
            local_steps: 6,
            ..Default::default()
        },
        timing: TimingSpec::default(),
        sparse: false,
        eval_clients: None,
        attack: None,
        availability: None,
        drift: None,
        seed: 1,
    }
}

/// All canned scenarios, in registry order.
pub fn canned() -> Vec<Scenario> {
    let mut iid_small = base(
        "iid-small",
        "FedTrans on a small, near-IID population (sanity floor)",
    );
    iid_small.dataset = iid_small.dataset.with_dirichlet_alpha(100.0).with_seed(21);
    iid_small.seed = 101;

    let mut dirichlet_skew = base(
        "dirichlet-skew",
        "FedTrans under heavy Dirichlet(0.1) label skew",
    );
    dirichlet_skew.dataset = DatasetConfig::femnist_like()
        .with_num_clients(32)
        .with_mean_samples(25)
        .with_dirichlet_alpha(0.1)
        .with_seed(22);
    dirichlet_skew.clients_per_round = 8;
    dirichlet_skew.seed = 102;

    let mut high_dropout = base(
        "high-dropout",
        "FedTrans with 30% of selected clients dropping every round",
    );
    high_dropout.dataset = DatasetConfig::femnist_like()
        .with_num_clients(32)
        .with_mean_samples(25)
        .with_seed(23);
    high_dropout.clients_per_round = 8;
    high_dropout.faults.dropout_prob = 0.3;
    high_dropout.seed = 103;

    let mut hetero_tiers = base(
        "hetero-tiers",
        "HeteroFL over an explicitly tiered device fleet (1x/8x/30x)",
    );
    hetero_tiers.dataset = DatasetConfig::femnist_like()
        .with_num_clients(32)
        .with_mean_samples(25)
        .with_seed(24);
    hetero_tiers.algorithm = AlgorithmSpec::HeteroFl;
    hetero_tiers.clients_per_round = 8;
    hetero_tiers.devices.tiers = vec![
        DeviceTier {
            weight: 0.5,
            capacity_mult: 1.0,
        },
        DeviceTier {
            weight: 0.3,
            capacity_mult: 8.0,
        },
        DeviceTier {
            weight: 0.2,
            capacity_mult: 30.0,
        },
    ];
    hetero_tiers.seed = 104;

    let mut straggler_heavy = base(
        "straggler-heavy",
        "FedProx with a quarter of participants straggling at 8x slowdown",
    );
    straggler_heavy.algorithm = AlgorithmSpec::FedAvg {
        yogi_lr: None,
        prox_mu: Some(0.1),
    };
    straggler_heavy.faults.straggler_prob = 0.25;
    straggler_heavy.faults.straggler_slowdown = 8.0;
    straggler_heavy.dataset = straggler_heavy.dataset.with_seed(25);
    straggler_heavy.seed = 105;

    let mut large_population = base(
        "large-population",
        "FedTrans on the largest preset (conv workload, 150 clients)",
    );
    large_population.dataset = DatasetConfig::openimage_like()
        .with_num_clients(150)
        .with_mean_samples(20)
        .with_seed(26);
    large_population.devices.base_capacity_macs = 20_000;
    large_population.clients_per_round = 10;
    large_population.rounds = 24;
    large_population.quick_rounds = 3;
    large_population.local.local_steps = 4;
    large_population.seed = 106;

    let mut splitmix_ensemble = base(
        "splitmix-ensemble",
        "SplitMix with four narrow bases, ensemble inference",
    );
    splitmix_ensemble.algorithm = AlgorithmSpec::SplitMix { bases: 4 };
    splitmix_ensemble.dataset = splitmix_ensemble.dataset.with_seed(27);
    splitmix_ensemble.quick_rounds = 6;
    splitmix_ensemble.seed = 107;

    let mut million_device = base(
        "large-population-1m",
        "FedAvg over a million-device sparse population (streaming fold)",
    );
    million_device.dataset = DatasetConfig::femnist_like()
        .with_num_clients(1_000_000)
        .with_mean_samples(20)
        .with_seed(29);
    million_device.algorithm = AlgorithmSpec::FedAvg {
        yogi_lr: None,
        prox_mu: None,
    };
    // Shards derive on demand and updates fold as they land: peak
    // memory is O(clients in flight), never O(population).
    million_device.sparse = true;
    million_device.eval_clients = Some(200);
    million_device.clients_per_round = 24;
    million_device.rounds = 8;
    million_device.quick_rounds = 2;
    million_device.local.local_steps = 4;
    million_device.seed = 109;

    let mut fluid_invariant = base(
        "fluid-invariant",
        "FLuID invariant dropout tracking update activity",
    );
    fluid_invariant.algorithm = AlgorithmSpec::Fluid;
    fluid_invariant.dataset = fluid_invariant.dataset.with_seed(28);
    fluid_invariant.quick_rounds = 6;
    fluid_invariant.seed = 108;

    let mut byzantine_signflip = base(
        "byzantine-signflip",
        "FedAvg under a 30% sign-flipping byzantine fleet, no defense",
    );
    byzantine_signflip.algorithm = AlgorithmSpec::FedAvg {
        yogi_lr: None,
        prox_mu: None,
    };
    byzantine_signflip.dataset = byzantine_signflip.dataset.with_seed(30);
    byzantine_signflip.attack = Some(AttackSpec {
        byzantine_prob: 0.3,
        corruption: Corruption::SignFlip,
        flip_labels: true,
        robust: RobustAggregation::FedAvg,
    });
    byzantine_signflip.seed = 110;

    let mut byzantine_trimmed = base(
        "byzantine-trimmed-mean",
        "The same byzantine fleet behind a coordinate-wise trimmed-mean sink",
    );
    byzantine_trimmed.algorithm = AlgorithmSpec::FedAvg {
        yogi_lr: None,
        prox_mu: None,
    };
    byzantine_trimmed.dataset = byzantine_trimmed.dataset.with_seed(31);
    byzantine_trimmed.attack = Some(AttackSpec {
        byzantine_prob: 0.3,
        corruption: Corruption::SignFlip,
        flip_labels: true,
        robust: RobustAggregation::TrimmedMean { trim: 0.3 },
    });
    byzantine_trimmed.seed = 111;

    let mut diurnal_churn = base(
        "diurnal-churn",
        "FedTrans over a diurnal availability trace with mid-round departures",
    );
    diurnal_churn.dataset = diurnal_churn.dataset.with_seed(32);
    diurnal_churn.availability = Some(AvailabilityConfig {
        trace: vec![0.95, 0.7, 0.4, 0.7],
        departure_prob: 0.15,
    });
    diurnal_churn.seed = 112;

    let mut label_drift = base(
        "label-drift",
        "FedAvg under label-rotation concept drift every other round",
    );
    label_drift.algorithm = AlgorithmSpec::FedAvg {
        yogi_lr: None,
        prox_mu: None,
    };
    label_drift.dataset = label_drift.dataset.with_seed(33);
    label_drift.drift = Some(DriftConfig {
        period: 2,
        rotation: 1,
    });
    label_drift.seed = 113;

    let mut conv_small = base(
        "conv-small",
        "FedTrans on 12x12 RGB images (conv GEMMs wide enough for the pool-parallel kernel)",
    );
    conv_small.dataset = DatasetConfig::openimage_like()
        .with_num_clients(16)
        .with_mean_samples(30)
        .with_seed(34);
    conv_small.dataset.input = InputSpec::Image {
        channels: 3,
        height: 12,
        width: 12,
    };
    // Fits the 16-channel seed model on the weakest device, so the
    // second conv layer's GEMMs (16x144 by 144x1440 at batch 10) cross
    // the pool-parallel work threshold from round 0.
    conv_small.devices.base_capacity_macs = 480_000;
    conv_small.clients_per_round = 4;
    conv_small.rounds = 24;
    conv_small.quick_rounds = 8;
    conv_small.local.local_steps = 3;
    conv_small.seed = 114;

    vec![
        iid_small,
        dirichlet_skew,
        high_dropout,
        hetero_tiers,
        straggler_heavy,
        large_population,
        million_device,
        splitmix_ensemble,
        fluid_invariant,
        byzantine_signflip,
        byzantine_trimmed,
        diurnal_churn,
        label_drift,
        conv_small,
    ]
}

/// Looks up a canned scenario by name.
pub fn find(name: &str) -> Option<Scenario> {
    canned().into_iter().find(|s| s.name == name)
}

/// Path of the committed golden-digest file (anchored at this crate,
/// so it resolves from any working directory).
pub fn goldens_path() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens.json")
}

/// Loads the committed quick-mode golden digests.
///
/// # Errors
///
/// Returns [`ft_fedsim::SimError::Snapshot`] when the file is missing
/// or malformed.
pub fn load_goldens() -> ft_fedsim::Result<BTreeMap<String, String>> {
    let path = goldens_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ft_fedsim::SimError::snapshot(format!("reading {}: {e}", path.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| ft_fedsim::SimError::snapshot(format!("parsing {}: {e}", path.display())))
}

/// Writes the golden-digest file (used by `ft-run --update-goldens`).
///
/// # Errors
///
/// Returns [`ft_fedsim::SimError::Snapshot`] on I/O failure.
pub fn save_goldens(goldens: &BTreeMap<String, String>) -> ft_fedsim::Result<()> {
    let path = goldens_path();
    let json = serde_json::to_string_pretty(goldens)
        .map_err(|e| ft_fedsim::SimError::snapshot(e.to_string()))?;
    std::fs::write(&path, json + "\n")
        .map_err(|e| ft_fedsim::SimError::snapshot(format!("writing {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_six_unique_valid_scenarios() {
        let all = canned();
        assert!(all.len() >= 6, "registry must ship ≥6 scenarios");
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "scenario names must be unique");
        for s in &all {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.description.is_empty());
            assert!(s.quick_rounds <= s.rounds);
        }
    }

    #[test]
    fn registry_covers_every_algorithm_family() {
        let all = canned();
        let has = |pred: fn(&AlgorithmSpec) -> bool| all.iter().any(|s| pred(&s.algorithm));
        assert!(has(|a| matches!(a, AlgorithmSpec::FedTrans { .. })));
        assert!(has(|a| matches!(a, AlgorithmSpec::FedAvg { .. })));
        assert!(has(|a| matches!(a, AlgorithmSpec::HeteroFl)));
        assert!(has(|a| matches!(a, AlgorithmSpec::SplitMix { .. })));
        assert!(has(|a| matches!(a, AlgorithmSpec::Fluid)));
    }

    #[test]
    fn find_resolves_names() {
        assert!(find("iid-small").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn goldens_cover_every_canned_scenario() {
        let goldens = load_goldens().expect("goldens.json must be committed");
        for s in canned() {
            assert!(
                goldens.contains_key(&s.name),
                "goldens.json is missing `{}` — run `ft-run --update-goldens`",
                s.name
            );
        }
    }
}
