//! The declarative scenario schema.
//!
//! A [`Scenario`] is a complete, serializable description of one
//! federated-learning experiment: workload (dataset preset +
//! non-IID partition), device population (log-uniform spread or
//! explicit heterogeneity tiers), fault model (dropout/stragglers),
//! algorithm (FedTrans or any baseline), round budget, and seed. The
//! same scenario always produces the same report, byte for byte —
//! that determinism is what the CI golden digests pin down.

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use fedtrans::{seed_model, FedTransConfig, FedTransRuntime};
use ft_baselines::{BaselineConfig, FedAvg, Fluid, HeteroFl, ServerOpt, SplitMix};
use ft_data::{DatasetConfig, DriftConfig, InputSpec, ShardSource, SparseFederatedData};
use ft_fedsim::coordinator::RoundOptions;
use ft_fedsim::device::{DeviceTier, DeviceTrace, DeviceTraceConfig};
use ft_fedsim::driver::Method;
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::{
    AdversityConfig, Algorithm, AttackConfig, AvailabilityConfig, Corruption, FaultConfig,
    RobustAggregation, RunContext, Runner, SimError,
};

/// The device population of a scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Capacity of the least capable device, in MACs per sample.
    pub base_capacity_macs: u64,
    /// Max/min capacity ratio for the log-uniform spread (ignored when
    /// `tiers` is non-empty).
    pub disparity: f64,
    /// Explicit heterogeneity tiers; empty means log-uniform spread.
    pub tiers: Vec<DeviceTier>,
    /// Trace RNG seed.
    pub seed: u64,
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec {
            base_capacity_macs: 3_000,
            disparity: 30.0,
            tiers: Vec::new(),
            seed: 7,
        }
    }
}

impl DeviceSpec {
    /// Generates the trace for `num_devices` devices.
    pub fn generate(&self, num_devices: usize) -> DeviceTrace {
        let cfg = DeviceTraceConfig::default()
            .with_num_devices(num_devices)
            .with_base_capacity(self.base_capacity_macs)
            .with_disparity(self.disparity)
            .with_seed(self.seed);
        cfg.generate_tiered(&self.tiers)
    }
}

/// The coordinator protocol timing of a scenario: how long the
/// rendezvous waits, how often training devices heartbeat, and how
/// long one may stay silent before it is declared dropped. All values
/// are in simulated (virtual-clock) seconds. Defaults match
/// [`RoundOptions::default`], so scenarios written before this field
/// existed keep their exact behaviour — the field deserializes to the
/// defaults when absent.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TimingSpec {
    /// Rendezvous reply deadline in seconds.
    pub rendezvous_deadline_s: f64,
    /// Heartbeat cadence of a training device, in seconds.
    pub heartbeat_interval_s: f64,
    /// Max silence before a training device counts as dropped, in
    /// seconds.
    pub heartbeat_deadline_s: f64,
}

impl Default for TimingSpec {
    fn default() -> Self {
        let opts = RoundOptions::default();
        TimingSpec {
            rendezvous_deadline_s: opts.rendezvous_deadline_s,
            heartbeat_interval_s: opts.heartbeat_interval_s,
            heartbeat_deadline_s: opts.heartbeat_deadline_s,
        }
    }
}

impl TimingSpec {
    /// The coordinator round options this timing implies.
    pub fn round_options(&self) -> RoundOptions {
        RoundOptions::new()
            .rendezvous_deadline_s(self.rendezvous_deadline_s)
            .heartbeat_interval_s(self.heartbeat_interval_s)
            .heartbeat_deadline_s(self.heartbeat_deadline_s)
    }

    /// Validates the timing knobs.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("rendezvous_deadline_s", self.rendezvous_deadline_s),
            ("heartbeat_interval_s", self.heartbeat_interval_s),
            ("heartbeat_deadline_s", self.heartbeat_deadline_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be finite and > 0, got {v}"));
            }
        }
        if self.heartbeat_deadline_s < self.heartbeat_interval_s {
            return Err(format!(
                "heartbeat_deadline_s ({}) must be >= heartbeat_interval_s ({}), or every \
                 training device would be declared dropped between two of its own beats",
                self.heartbeat_deadline_s, self.heartbeat_interval_s
            ));
        }
        Ok(())
    }
}

/// The byzantine-attack block of a scenario: which fraction of the
/// fleet behaves byzantine, what a byzantine client uploads, and which
/// aggregation defense (if any) the server runs against it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AttackSpec {
    /// Probability that a participant behaves byzantine in a round.
    pub byzantine_prob: f64,
    /// What a byzantine participant uploads (sign flip, scaling, or
    /// Gaussian noise).
    pub corruption: Corruption,
    /// Whether byzantine participants also train on label-flipped
    /// shards. Absent in older files; defaults off.
    #[serde(default)]
    pub flip_labels: bool,
    /// The server's aggregation rule. Absent in older files; defaults
    /// to plain (undefended) FedAvg.
    #[serde(default)]
    pub robust: RobustAggregation,
}

/// Which federated method a scenario runs, with method-specific knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AlgorithmSpec {
    /// FedTrans (the paper's method).
    FedTrans {
        /// Hard cap on the model suite size.
        max_models: usize,
        /// Minimum rounds between transformations.
        transform_cooldown: usize,
        /// DoC slope window `γ`.
        gamma: usize,
        /// DoC slope step `δ`.
        delta: usize,
        /// DoC threshold `β`.
        beta: f32,
    },
    /// FedAvg / FedProx / FedYogi (single global model).
    FedAvg {
        /// Server Yogi learning rate; `None` is plain averaging.
        yogi_lr: Option<f32>,
        /// FedProx proximal coefficient; `None` is plain SGD.
        prox_mu: Option<f32>,
    },
    /// HeteroFL width-sliced submodels.
    HeteroFl,
    /// SplitMix ensemble of narrow bases.
    SplitMix {
        /// Number of base models the width axis is split into.
        bases: usize,
    },
    /// FLuID invariant dropout.
    Fluid,
}

/// Refuses local training hyperparameters that would train on NaN or
/// overflow the per-client sample count the sinks normalize by.
fn validate_local(local: &LocalTrainConfig) -> Result<(), String> {
    for (name, v) in [("lr", local.lr), ("momentum", local.momentum)] {
        if !v.is_finite() {
            return Err(format!("local.{name} must be finite, got {v}"));
        }
    }
    if let Some(mu) = local.prox_mu.filter(|mu| !mu.is_finite() || *mu < 0.0) {
        return Err(format!("local.prox_mu must be finite and >= 0, got {mu}"));
    }
    if local.local_steps == 0 {
        return Err("local.local_steps must be at least 1".to_owned());
    }
    if (local.local_steps as u64)
        .checked_mul(local.batch_size.max(1) as u64)
        .is_none()
    {
        return Err(format!(
            "local.local_steps ({}) × local.batch_size ({}) overflows the sample count",
            local.local_steps, local.batch_size
        ));
    }
    Ok(())
}

/// A complete experiment description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Registry key (kebab-case).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Dataset preset and non-IID partition (Dirichlet `alpha`,
    /// client count, per-client sample volume, seed).
    pub dataset: DatasetConfig,
    /// Device population.
    pub devices: DeviceSpec,
    /// The method under test.
    pub algorithm: AlgorithmSpec,
    /// Client dropout / straggler injection.
    pub faults: FaultConfig,
    /// Participants selected per round.
    pub clients_per_round: usize,
    /// Training rounds in full mode.
    pub rounds: usize,
    /// Training rounds in quick mode (CI).
    pub quick_rounds: usize,
    /// `(cost, accuracy)` checkpoint cadence in rounds (0 disables).
    pub eval_every: usize,
    /// Local training hyperparameters.
    pub local: LocalTrainConfig,
    /// Coordinator protocol timing (rendezvous / heartbeat deadlines).
    /// Absent in older scenario files; defaults preserve their
    /// behaviour.
    #[serde(default)]
    pub timing: TimingSpec,
    /// Derive client shards on demand instead of materializing the
    /// whole population up front (see
    /// [`ft_data::SparseFederatedData`]). Lets a scenario scale to
    /// millions of devices with peak memory proportional to the
    /// clients in flight; only the FedAvg arm supports it. Absent in
    /// older scenario files; defaults to materialized.
    #[serde(default)]
    pub sparse: bool,
    /// Cap on clients swept per evaluation pass (`None` sweeps all).
    /// Million-device scenarios set this so eval cost does not dwarf
    /// training.
    #[serde(default)]
    pub eval_clients: Option<usize>,
    /// Byzantine clients and the aggregation defense against them.
    /// Absent in older scenario files; defaults to no attack.
    #[serde(default)]
    pub attack: Option<AttackSpec>,
    /// Diurnal availability trace and mid-round departures. Absent in
    /// older scenario files; defaults to a fully available fleet.
    #[serde(default)]
    pub availability: Option<AvailabilityConfig>,
    /// Temporal concept drift (label rotation every `period` rounds).
    /// Absent in older scenario files; defaults to a stationary fleet.
    #[serde(default)]
    pub drift: Option<DriftConfig>,
    /// Base RNG seed for the run.
    pub seed: u64,
}

impl Scenario {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".to_owned());
        }
        if self.rounds == 0 || self.quick_rounds == 0 {
            return Err(format!(
                "rounds ({}) and quick_rounds ({}) must be at least 1",
                self.rounds, self.quick_rounds
            ));
        }
        if self.clients_per_round == 0 {
            return Err("clients_per_round must be at least 1".to_owned());
        }
        self.dataset
            .validate()
            .map_err(|detail| format!("dataset: {detail}"))?;
        validate_local(&self.local)?;
        match self.algorithm {
            AlgorithmSpec::SplitMix { bases: 0 } => {
                return Err("SplitMix needs at least one base".to_owned());
            }
            AlgorithmSpec::FedAvg { yogi_lr, prox_mu } => {
                for (name, v) in [("yogi_lr", yogi_lr), ("prox_mu", prox_mu)] {
                    if let Some(v) = v.filter(|v| !v.is_finite() || *v < 0.0) {
                        return Err(format!("{name} must be finite and >= 0, got {v}"));
                    }
                }
            }
            _ => {}
        }
        if let Some(cfg) = self.fedtrans_config() {
            cfg.validate()?;
        }
        if self.devices.base_capacity_macs == 0 {
            return Err("base_capacity_macs must be at least 1".to_owned());
        }
        if !self.devices.disparity.is_finite() || self.devices.disparity < 1.0 {
            // disparity <= 0 would drive the log-uniform sampler to
            // 0-capacity (or NaN) devices and score every client 0.
            return Err(format!(
                "device disparity must be a finite ratio >= 1, got {}",
                self.devices.disparity
            ));
        }
        for (i, tier) in self.devices.tiers.iter().enumerate() {
            if !tier.weight.is_finite() || tier.weight < 0.0 {
                return Err(format!("tier {i} weight must be finite and >= 0"));
            }
            if !tier.capacity_mult.is_finite() || tier.capacity_mult <= 0.0 {
                return Err(format!("tier {i} capacity_mult must be finite and > 0"));
            }
        }
        if !(0.0..=1.0).contains(&self.faults.dropout_prob) {
            return Err(format!(
                "dropout_prob must be in [0,1], got {}",
                self.faults.dropout_prob
            ));
        }
        if !(0.0..=1.0).contains(&self.faults.straggler_prob) {
            return Err(format!(
                "straggler_prob must be in [0,1], got {}",
                self.faults.straggler_prob
            ));
        }
        if !self.faults.straggler_slowdown.is_finite() || self.faults.straggler_slowdown < 1.0 {
            return Err(format!(
                "straggler_slowdown must be a finite factor >= 1, got {}",
                self.faults.straggler_slowdown
            ));
        }
        self.timing.validate()?;
        if self.sparse && !matches!(self.algorithm, AlgorithmSpec::FedAvg { .. }) {
            // The multi-model methods index weights across the whole
            // suite; only the single-model arm is written against the
            // on-demand shard source today.
            return Err("sparse populations are only supported for the FedAvg arm".to_owned());
        }
        if self.eval_clients == Some(0) {
            return Err("eval_clients must be at least 1 when set".to_owned());
        }
        if let Some(attack) = &self.attack {
            if !(0.0..=1.0).contains(&attack.byzantine_prob) {
                return Err(format!(
                    "byzantine_prob must be in [0,1], got {}",
                    attack.byzantine_prob
                ));
            }
            match attack.corruption {
                Corruption::SignFlip => {}
                Corruption::Scale { factor } => {
                    if !factor.is_finite() {
                        return Err(format!("attack scale factor must be finite, got {factor}"));
                    }
                }
                Corruption::Noise { std } => {
                    if !std.is_finite() || std < 0.0 {
                        return Err(format!(
                            "attack noise std must be finite and >= 0, got {std}"
                        ));
                    }
                }
            }
            attack.robust.validate()?;
            if attack.robust.is_robust() && !matches!(self.algorithm, AlgorithmSpec::FedAvg { .. })
            {
                // Only the single-model arm folds through the pluggable
                // RobustSink today; the multi-model methods group by
                // architecture and keep their dedicated sinks.
                return Err(
                    "robust aggregation sinks are only supported for the FedAvg arm".to_owned(),
                );
            }
        }
        if let Some(availability) = &self.availability {
            if availability.trace.is_empty() {
                return Err(
                    "availability trace must not be empty (use [1.0] for always-on fleets with \
                     departures only)"
                        .to_owned(),
                );
            }
            for (i, &p) in availability.trace.iter().enumerate() {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!(
                        "availability trace entry {i} must be in [0,1], got {p}"
                    ));
                }
            }
            if !(0.0..=1.0).contains(&availability.departure_prob) {
                return Err(format!(
                    "departure_prob must be in [0,1], got {}",
                    availability.departure_prob
                ));
            }
        }
        if let Some(drift) = &self.drift {
            if drift.period == 0 {
                return Err("drift period must be at least 1 round".to_owned());
            }
            if drift.rotation == 0 {
                return Err("drift rotation must be at least 1 class".to_owned());
            }
        }
        Ok(())
    }

    /// The adversarial fleet model this scenario implies (inert when no
    /// adversity blocks are present).
    fn adversity(&self) -> AdversityConfig {
        AdversityConfig {
            attack: self
                .attack
                .map(|a| AttackConfig {
                    byzantine_prob: a.byzantine_prob,
                    corruption: a.corruption,
                    flip_labels: a.flip_labels,
                })
                .unwrap_or_default(),
            availability: self.availability.clone().unwrap_or_default(),
            drift: self.drift.unwrap_or_default(),
        }
    }

    /// The round budget for the given mode.
    pub fn rounds_for(&self, quick: bool) -> usize {
        if quick {
            self.quick_rounds
        } else {
            self.rounds
        }
    }

    /// The FedTrans configuration this scenario implies (`None` for the
    /// baselines).
    fn fedtrans_config(&self) -> Option<FedTransConfig> {
        let AlgorithmSpec::FedTrans {
            max_models,
            transform_cooldown,
            gamma,
            delta,
            beta,
        } = self.algorithm
        else {
            return None;
        };
        let mut cfg = FedTransConfig::default()
            .with_clients_per_round(self.clients_per_round)
            .with_gamma(gamma)
            .with_delta(delta)
            .with_beta(beta)
            .with_local(self.local)
            .with_faults(self.faults)
            .with_seed(self.seed);
        cfg.max_models = max_models;
        cfg.transform_cooldown = transform_cooldown;
        Some(cfg)
    }

    /// The baseline configuration this scenario implies.
    fn baseline_config(&self) -> BaselineConfig {
        BaselineConfig {
            clients_per_round: self.clients_per_round,
            local: self.local,
            seed: self.seed,
            eval_every: self.eval_every,
            enforce_capacity: true,
            faults: self.faults,
            eval_clients: self.eval_clients,
            robust: self.attack.map(|a| a.robust).unwrap_or_default(),
        }
    }

    /// Builds the ready-to-run driver: generates the dataset and
    /// device trace, sizes the models, and wires the method behind the
    /// [`Algorithm`] trait object.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] on an invalid scenario.
    pub fn build(&self) -> ft_fedsim::Result<Box<dyn Algorithm>> {
        self.validate()
            .map_err(|detail| SimError::BadConfig { detail })?;
        if let (true, AlgorithmSpec::FedAvg { yogi_lr, prox_mu }) = (self.sparse, &self.algorithm) {
            // On-demand shards (`validate` admits the FedAvg arm only):
            // construction cost is O(classes × dim), independent of the
            // population size.
            let data = SparseFederatedData::new(self.dataset.clone());
            let devices = self.devices.generate(ShardSource::num_clients(&data));
            let shape = (data.input(), data.num_classes());
            return Ok(self.fedavg(data, shape, devices, *yogi_lr, *prox_mu));
        }
        let data = self.dataset.generate();
        let devices = self.devices.generate(data.num_clients());
        self.build_algorithm(data, devices)
    }

    /// Installs this scenario's run context on a method's runner and
    /// erases the method type.
    fn wire<M: Method + 'static>(&self, runner: Runner<M>) -> Box<dyn Algorithm> {
        Box::new(runner.with_context(RunContext {
            options: self.timing.round_options(),
            // Inert when no adversity blocks are present, so benign
            // scenarios (and their golden digests) are untouched.
            adversity: self.adversity(),
        }))
    }

    /// The FedAvg arm (FedAvg, FedProx, FedYogi) over any shard source
    /// whose input and class count are `shape`.
    fn fedavg<D: ShardSource + 'static>(
        &self,
        data: D,
        (input, classes): (InputSpec, usize),
        devices: DeviceTrace,
        yogi_lr: Option<f32>,
        prox_mu: Option<f32>,
    ) -> Box<dyn Algorithm> {
        let mut cfg = self.baseline_config();
        cfg.local.prox_mu = prox_mu;
        // A one-size-fits-all model must fit the least capable device,
        // or weak clients cannot be served at all.
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed.wrapping_add(0x5EED));
        let model = seed_model(&mut rng, input, classes, devices.min_capacity());
        let server = match yogi_lr {
            Some(lr) => ServerOpt::Yogi { lr },
            None => ServerOpt::Average,
        };
        self.wire(FedAvg::new(cfg, data, devices, model, server))
    }

    fn build_algorithm(
        &self,
        data: ft_data::FederatedDataset,
        devices: DeviceTrace,
    ) -> ft_fedsim::Result<Box<dyn Algorithm>> {
        match self.algorithm {
            AlgorithmSpec::FedTrans { .. } => {
                let Some(cfg) = self.fedtrans_config() else {
                    return Err(SimError::BadConfig {
                        detail: "not a FedTrans scenario".to_owned(),
                    });
                };
                let rt =
                    FedTransRuntime::new(cfg, data, devices).map_err(|e| SimError::BadConfig {
                        detail: e.to_string(),
                    })?;
                Ok(self.wire(rt.with_eval_every(self.eval_every)))
            }
            AlgorithmSpec::FedAvg { yogi_lr, prox_mu } => {
                let shape = (data.input(), data.num_classes());
                Ok(self.fedavg(data, shape, devices, yogi_lr, prox_mu))
            }
            AlgorithmSpec::HeteroFl => {
                let global = self.global_model(&data, &devices);
                let cfg = self.baseline_config();
                Ok(self.wire(HeteroFl::new(cfg, data, devices, global)))
            }
            AlgorithmSpec::SplitMix { bases } => {
                let global = self.global_model(&data, &devices);
                let cfg = self.baseline_config();
                Ok(self.wire(SplitMix::new(cfg, data, devices, &global, bases)))
            }
            AlgorithmSpec::Fluid => {
                let global = self.global_model(&data, &devices);
                let cfg = self.baseline_config();
                Ok(self.wire(Fluid::new(cfg, data, devices, global)))
            }
        }
    }

    /// The input global model for the multi-model baselines: the
    /// largest architecture fitting the most capable device (the
    /// paper's Appendix A.1 protocol uses FedTrans's largest
    /// transformed model; a capacity-sized model is its deterministic,
    /// self-contained stand-in).
    fn global_model(
        &self,
        data: &ft_data::FederatedDataset,
        devices: &DeviceTrace,
    ) -> ft_model::CellModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed.wrapping_add(0x610B));
        seed_model(
            &mut rng,
            data.input(),
            data.num_classes(),
            devices.max_capacity(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            name: "tiny".to_owned(),
            description: "test scenario".to_owned(),
            dataset: DatasetConfig::femnist_like()
                .with_num_clients(8)
                .with_mean_samples(20),
            devices: DeviceSpec::default(),
            algorithm: AlgorithmSpec::FedAvg {
                yogi_lr: None,
                prox_mu: None,
            },
            faults: FaultConfig::default(),
            clients_per_round: 4,
            rounds: 4,
            quick_rounds: 2,
            eval_every: 0,
            local: LocalTrainConfig {
                local_steps: 3,
                ..Default::default()
            },
            timing: TimingSpec::default(),
            sparse: false,
            eval_clients: None,
            attack: None,
            availability: None,
            drift: None,
            seed: 11,
        }
    }

    #[test]
    fn scenario_json_round_trips() {
        let s = tiny();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut s = tiny();
        s.rounds = 0;
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.faults.dropout_prob = 1.5;
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.algorithm = AlgorithmSpec::SplitMix { bases: 0 };
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.faults.straggler_slowdown = -8.0;
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.faults.straggler_slowdown = f64::INFINITY;
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.devices.disparity = 0.0;
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.devices.base_capacity_macs = 0;
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.devices.tiers = vec![ft_fedsim::device::DeviceTier {
            weight: 1.0,
            capacity_mult: -2.0,
        }];
        assert!(s.validate().is_err());
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn timing_validation_catches_nonsense() {
        let mut s = tiny();
        s.timing.rendezvous_deadline_s = 0.0;
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.timing.heartbeat_interval_s = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = tiny();
        s.timing.heartbeat_deadline_s = -1.0;
        assert!(s.validate().is_err());
        // A deadline shorter than the heartbeat cadence would reap
        // every device between two of its own beats.
        let mut s = tiny();
        s.timing.heartbeat_interval_s = 30.0;
        s.timing.heartbeat_deadline_s = 1.0;
        assert!(s.validate().is_err());
        assert!(tiny().validate().is_ok());
    }

    fn attack(robust: RobustAggregation) -> AttackSpec {
        AttackSpec {
            byzantine_prob: 0.3,
            corruption: Corruption::SignFlip,
            flip_labels: false,
            robust,
        }
    }

    #[test]
    fn attack_validation_catches_nonsense() {
        let mut s = tiny();
        s.attack = Some(attack(RobustAggregation::FedAvg));
        assert!(s.validate().is_ok());

        let mut s = tiny();
        let mut a = attack(RobustAggregation::FedAvg);
        a.byzantine_prob = 1.5;
        s.attack = Some(a);
        let err = s.validate().unwrap_err();
        assert!(err.contains("byzantine_prob must be in [0,1]"), "{err}");

        let mut s = tiny();
        let mut a = attack(RobustAggregation::FedAvg);
        a.corruption = Corruption::Scale {
            factor: f64::INFINITY,
        };
        s.attack = Some(a);
        let err = s.validate().unwrap_err();
        assert!(err.contains("scale factor must be finite"), "{err}");

        let mut s = tiny();
        let mut a = attack(RobustAggregation::FedAvg);
        a.corruption = Corruption::Noise { std: -1.0 };
        s.attack = Some(a);
        let err = s.validate().unwrap_err();
        assert!(err.contains("noise std must be finite and >= 0"), "{err}");
    }

    #[test]
    fn robust_sink_validation_catches_nonsense() {
        let mut s = tiny();
        s.attack = Some(attack(RobustAggregation::TrimmedMean { trim: 0.5 }));
        let err = s.validate().unwrap_err();
        assert!(err.contains("trim fraction must be in [0, 0.5)"), "{err}");

        let mut s = tiny();
        s.attack = Some(attack(RobustAggregation::NormClip { tau: 0.0 }));
        let err = s.validate().unwrap_err();
        assert!(err.contains("tau must be finite and > 0"), "{err}");

        // Robust sinks are a FedAvg-arm feature.
        let mut s = tiny();
        s.algorithm = AlgorithmSpec::HeteroFl;
        s.attack = Some(attack(RobustAggregation::CoordinateMedian));
        let err = s.validate().unwrap_err();
        assert!(err.contains("only supported for the FedAvg arm"), "{err}");
        // ... but an undefended attack runs against every arm.
        let mut s = tiny();
        s.algorithm = AlgorithmSpec::HeteroFl;
        s.attack = Some(attack(RobustAggregation::FedAvg));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn availability_validation_catches_nonsense() {
        let mut s = tiny();
        s.availability = Some(AvailabilityConfig {
            trace: Vec::new(),
            departure_prob: 0.1,
        });
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("availability trace must not be empty"),
            "{err}"
        );

        let mut s = tiny();
        s.availability = Some(AvailabilityConfig {
            trace: vec![0.9, 1.5],
            departure_prob: 0.0,
        });
        let err = s.validate().unwrap_err();
        assert!(err.contains("trace entry 1 must be in [0,1]"), "{err}");

        let mut s = tiny();
        s.availability = Some(AvailabilityConfig {
            trace: vec![0.9],
            departure_prob: -0.5,
        });
        let err = s.validate().unwrap_err();
        assert!(err.contains("departure_prob must be in [0,1]"), "{err}");

        let mut s = tiny();
        s.availability = Some(AvailabilityConfig {
            trace: vec![1.0],
            departure_prob: 0.2,
        });
        assert!(s.validate().is_ok());
    }

    #[test]
    fn drift_validation_catches_nonsense() {
        let mut s = tiny();
        s.drift = Some(DriftConfig {
            period: 0,
            rotation: 1,
        });
        let err = s.validate().unwrap_err();
        assert!(err.contains("drift period must be at least 1"), "{err}");

        let mut s = tiny();
        s.drift = Some(DriftConfig {
            period: 2,
            rotation: 0,
        });
        let err = s.validate().unwrap_err();
        assert!(err.contains("drift rotation must be at least 1"), "{err}");

        let mut s = tiny();
        s.drift = Some(DriftConfig {
            period: 2,
            rotation: 1,
        });
        assert!(s.validate().is_ok());
    }

    #[test]
    fn scenario_without_adversity_fields_parses_to_none() {
        // Emulates a scenario file written before the adversity blocks
        // existed: strip them and re-parse.
        let json = serde_json::to_string(&tiny()).unwrap();
        let value = serde_json::parse_value(&json).unwrap();
        let serde::Value::Object(fields) = value else {
            panic!("scenario must encode as an object");
        };
        let stripped: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "attack" && k != "availability" && k != "drift")
            .collect();
        let old_json = serde_json::to_string(&serde::Value::Object(stripped)).unwrap();
        let back: Scenario = serde_json::from_str(&old_json).unwrap();
        assert!(back.attack.is_none());
        assert!(back.availability.is_none());
        assert!(back.drift.is_none());
        assert!(back.validate().is_ok());
    }

    #[test]
    fn adversarial_scenario_builds_and_runs() {
        let mut s = tiny();
        s.attack = Some(attack(RobustAggregation::TrimmedMean { trim: 0.25 }));
        s.drift = Some(DriftConfig {
            period: 1,
            rotation: 1,
        });
        let mut driver = s.build().unwrap();
        let report = driver.run_to(2).unwrap();
        assert_eq!(report.rounds.len(), 2);
    }

    #[test]
    fn scenario_without_timing_field_parses_to_defaults() {
        // Emulates a scenario file written before the timing knobs
        // existed: strip the field and re-parse.
        let json = serde_json::to_string(&tiny()).unwrap();
        let value = serde_json::parse_value(&json).unwrap();
        let serde::Value::Object(fields) = value else {
            panic!("scenario must encode as an object");
        };
        let stripped: Vec<(String, serde::Value)> =
            fields.into_iter().filter(|(k, _)| k != "timing").collect();
        let old_json = serde_json::to_string(&serde::Value::Object(stripped)).unwrap();
        let back: Scenario = serde_json::from_str(&old_json).unwrap();
        let d = TimingSpec::default();
        assert_eq!(back.timing.rendezvous_deadline_s, d.rendezvous_deadline_s);
        assert_eq!(back.timing.heartbeat_interval_s, d.heartbeat_interval_s);
        assert_eq!(back.timing.heartbeat_deadline_s, d.heartbeat_deadline_s);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn build_produces_a_runnable_driver() {
        let s = tiny();
        let mut driver = s.build().unwrap();
        assert_eq!(driver.name(), "fedavg");
        assert_eq!(driver.round(), 0);
        let report = driver.run_to(2).unwrap();
        assert_eq!(report.rounds.len(), 2);
    }

    #[test]
    fn every_algorithm_spec_builds() {
        for (spec, expect) in [
            (
                AlgorithmSpec::FedTrans {
                    max_models: 2,
                    transform_cooldown: 4,
                    gamma: 2,
                    delta: 2,
                    beta: 0.01,
                },
                "fedtrans",
            ),
            (
                AlgorithmSpec::FedAvg {
                    yogi_lr: Some(0.05),
                    prox_mu: None,
                },
                "fedyogi",
            ),
            (
                AlgorithmSpec::FedAvg {
                    yogi_lr: None,
                    prox_mu: Some(0.1),
                },
                "fedprox",
            ),
            (AlgorithmSpec::HeteroFl, "heterofl"),
            (AlgorithmSpec::SplitMix { bases: 2 }, "splitmix"),
            (AlgorithmSpec::Fluid, "fluid"),
        ] {
            let mut s = tiny();
            s.algorithm = spec;
            let driver = s.build().unwrap();
            assert_eq!(driver.name(), expect);
        }
    }
}
