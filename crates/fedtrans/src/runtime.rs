//! The FedTrans round body (Algorithm 1).
//!
//! The shared [`ft_fedsim::driver::Runner`] selects participants,
//! rendezvouses with them through the message-driven
//! [`ft_fedsim::coordinator`] runtime, keeps the ledger and closes the
//! round; [`FedTransRuntime`] is the [`Method`] it drives. Each round
//! it assigns each admitted client a compatible model via utility
//! sampling, trains locally (dispatched as `StartTrainingRound`
//! messages and executed in parallel, each update folding into a
//! grouped [`ft_fedsim::sink::FedAvgSink`] as it lands), charges costs
//! from the collected replies, soft-aggregates the model suite from
//! the streamed per-model averages, updates utilities, and — when the
//! loss curve reaches its elbow — transforms the newest model into a
//! larger one. Client dropout and stragglers are *emergent* on this
//! path: an offline device misses the rendezvous deadline, a throttled
//! one replies late on the virtual clock.
//!
//! Concurrency discipline: the runner's `StdRng` stream (selection,
//! then assignment and transformation through [`Round::rng`]) is
//! consumed serially in a fixed program order, while the parallel
//! section — local training via the `ft_fedsim::exec` engine — draws
//! only from per-client streams derived statelessly from `(round seed,
//! client)` ([`ft_fedsim::trainer::client_seed`]). Every reduction over
//! training replies (costs, round times, FedAvg, activeness
//! recording) iterates in fixed task-/model-index order, never
//! completion or delivery order, so reports are byte-identical at any
//! client width and under any within-tick message
//! permutation.

use rand::Rng;
use rand::SeedableRng;
use serde::Serialize as _;

use ft_data::{FederatedDataset, InputSpec};
use ft_fedsim::costs::storage_mb;
use ft_fedsim::device::DeviceTrace;
use ft_fedsim::driver::{
    field, mean_loss, validate_model, Fleet, Method, Round, RoundOutcome, Runner, SpineConfig,
    Suite,
};
use ft_fedsim::sink::FedAvgSink;
use ft_fedsim::trainer::TrainTask;
use ft_fedsim::{eval, SimError};
use ft_model::{similarity::similarity_matrix, CellModel};

use crate::{
    ActivenessTracker, ClientManager, FedTransConfig, FedTransError, ModelAggregator,
    ModelTransformer, Result,
};

/// Builds the seed model: the largest architecture of the matching
/// family whose training complexity fits the least capable device
/// (§5.1: "the initial model's complexity corresponds to the client
/// with the lowest computation capacity").
pub fn seed_model(
    rng: &mut impl Rng,
    input: InputSpec,
    classes: usize,
    budget_macs: u64,
) -> CellModel {
    match input {
        InputSpec::Flat { dim } => {
            for h in [64usize, 48, 32, 24, 16, 12, 8, 6, 4] {
                let m = CellModel::dense(rng, dim, &[h, h], classes);
                if m.macs_per_sample() <= budget_macs {
                    return m;
                }
            }
            CellModel::dense(rng, dim, &[4, 4], classes)
        }
        InputSpec::Image {
            channels,
            height,
            width,
        } => {
            for c in [16usize, 12, 8, 6, 4, 3, 2] {
                let m = CellModel::conv(rng, channels, height, width, &[c, c], 3, classes);
                if m.macs_per_sample() <= budget_macs {
                    return m;
                }
            }
            CellModel::conv(rng, channels, height, width, &[2, 2], 3, classes)
        }
        InputSpec::Tokens { tokens, d_model } => {
            for f in [64usize, 32, 16, 8, 4] {
                let m = CellModel::vit(rng, tokens, d_model, 1, f, classes);
                if m.macs_per_sample() <= budget_macs {
                    return m;
                }
            }
            CellModel::vit(rng, tokens, d_model, 1, 4, classes)
        }
    }
}

/// The FedTrans server state (Algorithm 1's coordinator side): the
/// model suite and the three components that grow, assign and blend
/// it. The shared [`Runner`] drives it round by round.
pub struct FedTransRuntime {
    input_dim: usize,
    models: Vec<CellModel>,
    /// Round each model was created, for age-based sharing decay.
    model_birth: Vec<u32>,
    manager: ClientManager,
    aggregator: ModelAggregator,
    transformer: ModelTransformer,
    activeness: ActivenessTracker,
    sims: Vec<Vec<f32>>,
    /// Per-client device capacities, fixed for the run.
    capacities: Vec<u64>,
}

impl FedTransRuntime {
    /// Creates a runner with an automatically sized seed model.
    ///
    /// # Errors
    ///
    /// Returns [`FedTransError::BadConfig`] when the config is invalid
    /// or the device trace does not cover the client population.
    pub fn new(
        cfg: FedTransConfig,
        data: FederatedDataset,
        devices: DeviceTrace,
    ) -> Result<Runner<Self>> {
        cfg.validate()
            .map_err(|detail| FedTransError::BadConfig { detail })?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let seed = seed_model(
            &mut rng,
            data.input(),
            data.num_classes(),
            devices.min_capacity(),
        );
        Self::with_seed_model(cfg, data, devices, seed)
    }

    /// Creates a runner from an explicit seed model (used by the ViT
    /// experiment and tests).
    ///
    /// # Errors
    ///
    /// Returns [`FedTransError::BadConfig`] on invalid configuration
    /// or when the device trace does not cover the client population.
    pub fn with_seed_model(
        cfg: FedTransConfig,
        data: FederatedDataset,
        devices: DeviceTrace,
        seed: CellModel,
    ) -> Result<Runner<Self>> {
        cfg.validate()
            .map_err(|detail| FedTransError::BadConfig { detail })?;
        if devices.len() < data.num_clients() {
            return Err(FedTransError::BadConfig {
                detail: format!(
                    "device trace has {} profiles for {} clients",
                    devices.len(),
                    data.num_clients()
                ),
            });
        }
        if seed.input_width() != data.input_dim() {
            return Err(FedTransError::BadConfig {
                detail: format!(
                    "seed model expects {} inputs, dataset provides {}",
                    seed.input_width(),
                    data.input_dim()
                ),
            });
        }
        let method = FedTransRuntime {
            input_dim: data.input_dim(),
            models: vec![seed],
            model_birth: vec![0],
            manager: ClientManager::new(data.num_clients()),
            aggregator: ModelAggregator::new(&cfg),
            transformer: ModelTransformer::new(&cfg),
            activeness: ActivenessTracker::new(cfg.activeness_window),
            sims: vec![vec![1.0]],
            capacities: (0..data.num_clients())
                .map(|c| devices.profile(c).capacity_macs)
                .collect(),
        };
        let spine = SpineConfig {
            seed: cfg.seed,
            rng_seed: cfg.seed.wrapping_add(1),
            faults: cfg.faults,
            clients_per_round: cfg.clients_per_round,
            local: cfg.local,
        };
        Ok(Runner::new(method, data, devices, spine))
    }

    /// The current model suite.
    pub fn models(&self) -> &[CellModel] {
        &self.models
    }

    /// Forward MACs per sample for each model in the suite.
    pub fn model_macs(&self) -> Vec<u64> {
        self.models.iter().map(CellModel::macs_per_sample).collect()
    }
}

impl Method for FedTransRuntime {
    type Data = FederatedDataset;

    fn name(&self) -> &'static str {
        "fedtrans"
    }

    /// Algorithm 1's round body, from model assignment to
    /// transformation.
    fn round(&mut self, cx: &mut Round<'_, FederatedDataset>) -> ft_fedsim::Result<RoundOutcome> {
        let macs = self.model_macs();

        // 1. Utility-based model assignment (§4.2).
        let mut tasks: Vec<TrainTask> = Vec::with_capacity(cx.participants.len());
        let mut assigned_model: Vec<usize> = Vec::with_capacity(cx.participants.len());
        for &c in cx.participants {
            let compatible = ClientManager::compatible_models(&macs, self.capacities[c]);
            let n = self.manager.assign(cx.rng, c, &compatible);
            assigned_model.push(n);
            tasks.push(TrainTask {
                client: c,
                model: n,
                seed: cx.client_seed(c),
            });
        }

        // 2. Training phase: each update streams into a grouped
        // FedAvg fold (one group per model in the suite) as its
        // `EndTrainingRound` lands, and is dropped right after — peak
        // memory is bounded by the in-flight window, not the cohort.
        // Absorb order is task order, so the per-model folds are
        // bit-identical to the retired materialize-then-average path.
        let mut sink =
            FedAvgSink::grouped(self.models.len(), assigned_model.clone()).with_delta_tracking();
        let replies = cx.train(tasks, &self.models, &mut sink)?;

        // 3. Cost accounting and round time. The round maximum is
        // taken over the f32 times the ledger records.
        let mut slowest = 0.0f32;
        for reply in &replies {
            let n = assigned_model[reply.task];
            cx.ledger.record_participant(
                macs[n],
                self.models[n].param_count(),
                reply.samples,
                reply.elapsed_s,
            );
            cx.ledger.cost.record_extra_bytes(4); // the scalar loss upload
            slowest = slowest.max(reply.elapsed_s as f32);
        }

        // 4. Per-model FedAvg came out of the streaming fold; blend
        // the suite with soft aggregation (§4.3).
        let fedavg = sink.take_averages();
        let mean_deltas = sink.take_mean_deltas();
        let ages: Vec<u32> = self
            .model_birth
            .iter()
            .map(|&b| cx.round.saturating_sub(b))
            .collect();
        let new_weights = self
            .aggregator
            .soft_aggregate(&self.models, &fedavg, &self.sims, &ages);
        for (model, weights) in self.models.iter_mut().zip(new_weights) {
            model.restore(weights)?;
        }

        // 5. Activeness from aggregate deltas (never per-client grads).
        // The sink maintained each model's mean delta in task order —
        // the same fixed order the pre-streaming loop used, because
        // models share inherited CellIds and the recording order of
        // their histories is observable.
        for (n, mean_delta) in mean_deltas.iter().enumerate() {
            let Some(mean_delta) = mean_delta else {
                continue;
            };
            self.activeness.record_round(&self.models[n], mean_delta);
        }

        // 6. Joint utility update (Eq. 4).
        let participation: Vec<(usize, usize, f32)> = replies
            .iter()
            .map(|r| (r.client, assigned_model[r.task], r.avg_loss))
            .collect();
        self.manager
            .update(&participation, &self.sims, &macs, &self.capacities);

        // 7. Transformation (§4.1), seeded from the newest model. A
        // fully dropped-out round produced no loss reports; the
        // coordinator has nothing to record and cannot transform.
        let loss = mean_loss(&replies);
        if !replies.is_empty() {
            self.transformer.record_loss(loss);
        }
        let parent_index = self.models.len() - 1;
        let parent_acts = self.activeness.model_activeness(&self.models[parent_index]);
        let transformed = if let Some((child, _decision)) = self.transformer.maybe_transform(
            &self.models[parent_index],
            &parent_acts,
            cx.fleet.devices.max_capacity(),
            self.models.len(),
            cx.rng,
        )? {
            self.models.push(child);
            self.model_birth.push(cx.round + 1);
            self.manager.register_model(parent_index);
            let refs: Vec<&CellModel> = self.models.iter().collect();
            self.sims = similarity_matrix(&refs);
            true
        } else {
            false
        };

        Ok(RoundOutcome {
            participants: replies.len(),
            mean_loss: loss,
            num_models: self.models.len(),
            transformed,
            round_time_s: slowest as f64,
        })
    }

    /// Evaluates every client on its best-utility compatible model
    /// (§5.1's protocol), fanning clients out over the shared worker
    /// pool; every task borrows its suite model.
    fn evaluate(
        &self,
        fleet: Fleet<'_, FederatedDataset>,
    ) -> ft_fedsim::Result<(Vec<f32>, Vec<usize>)> {
        let macs = self.model_macs();
        let chosen: Vec<usize> = (0..fleet.data.num_clients())
            .map(|c| {
                let compatible = ClientManager::compatible_models(&macs, self.capacities[c]);
                self.manager.best_model(c, &compatible)
            })
            .collect();
        let accs = eval::try_par_map(fleet.data.num_clients(), |c| {
            eval::accuracy(&self.models[chosen[c]], fleet.data.client(c))
        })?;
        Ok((accs, chosen))
    }

    fn suite(&self) -> Suite {
        let param_counts: Vec<usize> = self.models.iter().map(CellModel::param_count).collect();
        Suite {
            archs: self.models.iter().map(CellModel::arch_string).collect(),
            macs: self.model_macs(),
            storage_mb: storage_mb(&param_counts),
        }
    }

    /// The model suite (weights and identities), trackers, similarity
    /// matrix and the process id counters. Per-client training RNG
    /// streams need no capture: they are derived statelessly from the
    /// base seed, the round counter (both in the runner's envelope),
    /// and the client index ([`ft_fedsim::trainer::client_seed`]) — the
    /// engine property that makes resume thread-count independent.
    fn checkpoint(&self) -> serde::Value {
        let (losses, widened, rounds_since) = self.transformer.export_state();
        let (next_model, next_cell) = ft_model::id_counters();
        // Every block moves into its slot; `json!` would copy the
        // utility table once more.
        serde::Value::Object(vec![
            ("models".to_owned(), self.models.to_value()),
            ("model_birth".to_owned(), self.model_birth.to_value()),
            ("utilities".to_owned(), self.manager.checkpoint_value()),
            ("transformer_losses".to_owned(), losses.to_value()),
            ("transformer_widened".to_owned(), widened.to_value()),
            (
                "transformer_rounds_since".to_owned(),
                rounds_since.to_value(),
            ),
            (
                "activeness".to_owned(),
                self.activeness.export_history().to_value(),
            ),
            ("sims".to_owned(), self.sims.to_value()),
            ("next_model_id".to_owned(), next_model.to_value()),
            ("next_cell_id".to_owned(), next_cell.to_value()),
        ])
    }

    fn restore(&mut self, block: &serde::Value) -> ft_fedsim::Result<()> {
        let models: Vec<CellModel> = field(block, "models")?;
        if models.is_empty() {
            return Err(SimError::snapshot(
                "field `models`: checkpoint has no models",
            ));
        }
        for m in &models {
            if m.input_width() != self.input_dim {
                return Err(SimError::snapshot(format!(
                    "field `models`: checkpointed model expects {} inputs, dataset provides {}",
                    m.input_width(),
                    self.input_dim
                )));
            }
            validate_model("models", m)?;
        }
        let model_birth = field(block, "model_birth")?;
        let utilities = block
            .get("utilities")
            .ok_or_else(|| SimError::snapshot("missing checkpoint field `utilities`"))
            .and_then(|table| {
                self.manager
                    .decode_table(table, models.len())
                    .map_err(|e| SimError::snapshot(e.within("utilities").message()))
            })?;
        let losses = field(block, "transformer_losses")?;
        let widened = field(block, "transformer_widened")?;
        let rounds_since = field(block, "transformer_rounds_since")?;
        let activeness = field(block, "activeness")?;
        let sims = field(block, "sims")?;
        let next_model_id = field(block, "next_model_id")?;
        let next_cell_id = field(block, "next_cell_id")?;

        self.models = models;
        self.model_birth = model_birth;
        self.manager.restore_utilities(utilities);
        self.transformer.import_state(losses, widened, rounds_since);
        self.activeness.import_history(activeness);
        self.sims = sims;
        // Keep freshly allocated ids disjoint from every restored id:
        // a collision would silently merge activeness histories and
        // similarity entries of unrelated cells.
        ft_model::ensure_id_counters(next_model_id, next_cell_id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_data::DatasetConfig;
    use ft_fedsim::device::DeviceTraceConfig;
    use ft_fedsim::trainer::LocalTrainConfig;
    use ft_fedsim::Algorithm;

    fn small_setup() -> (FedTransConfig, FederatedDataset, DeviceTrace) {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(12)
            .with_mean_samples(25)
            .generate();
        let devices = DeviceTraceConfig::default()
            .with_num_devices(12)
            .with_base_capacity(20_000)
            .generate();
        let cfg = FedTransConfig::default()
            .with_clients_per_round(6)
            .with_gamma(2)
            .with_delta(2)
            .with_local(LocalTrainConfig {
                local_steps: 5,
                ..Default::default()
            });
        (cfg, data, devices)
    }

    #[test]
    fn runtime_rejects_short_device_trace() {
        let (cfg, data, _) = small_setup();
        let devices = DeviceTraceConfig::default().with_num_devices(2).generate();
        assert!(FedTransRuntime::new(cfg, data, devices).is_err());
    }

    #[test]
    fn seed_model_fits_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let m = seed_model(&mut rng, InputSpec::Flat { dim: 48 }, 16, 50_000);
        assert!(m.macs_per_sample() <= 50_000);
        let img = seed_model(
            &mut rng,
            InputSpec::Image {
                channels: 1,
                height: 8,
                width: 8,
            },
            10,
            200_000,
        );
        assert!(img.macs_per_sample() <= 200_000);
    }

    #[test]
    fn short_run_completes_and_reports() {
        let (cfg, data, devices) = small_setup();
        let mut rt = FedTransRuntime::new(cfg, data, devices).unwrap();
        let report = rt.run_to(5).unwrap();
        assert_eq!(report.rounds.len(), 5);
        assert!(report.pmacs > 0.0);
        assert!(report.network_mb > 0.0);
        assert_eq!(report.per_client_accuracy.len(), 12);
        assert!(report.final_accuracy.mean >= 0.0);
    }

    #[test]
    fn runs_are_reproducible() {
        let (cfg, data, devices) = small_setup();
        let mut a = FedTransRuntime::new(cfg.clone(), data.clone(), devices.clone()).unwrap();
        let mut b = FedTransRuntime::new(cfg, data, devices).unwrap();
        let ra = a.run_to(4).unwrap();
        let rb = b.run_to(4).unwrap();
        assert_eq!(ra.per_client_accuracy, rb.per_client_accuracy);
        assert_eq!(ra.pmacs, rb.pmacs);
    }

    #[test]
    fn transformation_eventually_fires() {
        let (mut cfg, data, devices) = small_setup();
        cfg.transform_cooldown = 4;
        cfg.beta = 10.0; // trigger as soon as history allows
        let mut rt = FedTransRuntime::new(cfg, data, devices).unwrap();
        let report = rt.run_to(12).unwrap();
        assert!(
            report.model_archs.len() > 1,
            "expected at least one transformation, archs: {:?}",
            report.model_archs
        );
        // Newer models are at least as expensive.
        let macs = &report.model_macs;
        assert!(macs.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn dropout_reduces_participation_and_stays_deterministic() {
        let (mut cfg, data, devices) = small_setup();
        cfg.faults.dropout_prob = 0.5;
        let mut a = FedTransRuntime::new(cfg.clone(), data.clone(), devices.clone()).unwrap();
        let mut b = FedTransRuntime::new(cfg, data, devices).unwrap();
        let ra = a.run_to(6).unwrap();
        let rb = b.run_to(6).unwrap();
        assert_eq!(ra.per_client_accuracy, rb.per_client_accuracy);
        let trained: usize = ra.rounds.iter().map(|r| r.participants).sum();
        // 6 rounds x 6 selected, half dropped in expectation.
        assert!(
            trained < 30,
            "dropout should shrink participation, got {trained}"
        );
        assert!(
            trained > 6,
            "dropout should not empty every round, got {trained}"
        );
    }

    #[test]
    fn stragglers_lengthen_rounds() {
        let (cfg, data, devices) = small_setup();
        let mut plain = FedTransRuntime::new(cfg.clone(), data.clone(), devices.clone()).unwrap();
        let mut cfg_slow = cfg;
        cfg_slow.faults.straggler_prob = 1.0;
        cfg_slow.faults.straggler_slowdown = 8.0;
        let mut slow = FedTransRuntime::new(cfg_slow, data, devices).unwrap();
        let rp = plain.run_to(3).unwrap();
        let rs = slow.run_to(3).unwrap();
        for (p, s) in rp.rounds.iter().zip(&rs.rounds) {
            assert!(
                s.round_time_s > p.round_time_s * 7.9,
                "straggler round {} not slowed: {} vs {}",
                p.round,
                s.round_time_s,
                p.round_time_s
            );
        }
    }

    #[test]
    fn eval_curve_is_recorded() {
        let (cfg, data, devices) = small_setup();
        let mut rt = FedTransRuntime::new(cfg, data, devices)
            .unwrap()
            .with_eval_every(2);
        let report = rt.run_to(6).unwrap();
        assert_eq!(report.accuracy_curve.len(), 3);
        // Cost is monotone along the curve.
        assert!(report.accuracy_curve.windows(2).all(|w| w[1].0 >= w[0].0));
    }
}
