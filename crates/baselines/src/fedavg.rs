//! FedAvg, FedProx, and FedYogi: the single-global-model family.
//!
//! FedProx is FedAvg with a proximal term in the client objective (set
//! `prox_mu` in the local config); FedYogi replaces the server-side
//! weight replacement with an adaptive Yogi update on the aggregate
//! delta (pass [`ServerOpt::Yogi`]).

use std::marker::PhantomData;

use ft_data::{FederatedDataset, Half, ShardSource};
use ft_fedsim::device::DeviceTrace;
use ft_fedsim::driver::{
    field, mean_loss, validate_model, Fleet, Method, Round, RoundOutcome, Runner, Suite,
};
use ft_fedsim::sink::RobustSink;
use ft_fedsim::trainer::TrainTask;
use ft_fedsim::{eval, Result, RobustAggregation, SimError};
use ft_model::CellModel;
use ft_nn::Yogi;

use crate::common::{BaselineConfig, ServerOpt};

/// The FedAvg family's server state.
///
/// Generic over its population source so the same round serves both a
/// materialized [`FederatedDataset`] and a procedurally derived
/// [`ft_data::SparseFederatedData`] — the representation the 1M-device
/// bench leg uses, where materializing every shard up front would
/// dwarf the aggregation memory the bench is measuring.
pub struct FedAvg<D: ShardSource = FederatedDataset> {
    name: &'static str,
    model: CellModel,
    server: ServerOpt,
    yogi: Yogi,
    robust: RobustAggregation,
    enforce_capacity: bool,
    eval_clients: Option<usize>,
    data: PhantomData<fn(&D)>,
}

impl<D: ShardSource> FedAvg<D> {
    /// Creates a runner training `model` as the single global model.
    pub fn new(
        cfg: BaselineConfig,
        data: D,
        devices: DeviceTrace,
        model: CellModel,
        server: ServerOpt,
    ) -> Runner<Self> {
        let (name, yogi_lr) = match server {
            ServerOpt::Yogi { lr } => ("fedyogi", lr),
            ServerOpt::Average if cfg.local.prox_mu.is_some() => ("fedprox", 0.0),
            ServerOpt::Average => ("fedavg", 0.0),
        };
        let method = FedAvg {
            name,
            model,
            server,
            yogi: Yogi::new(yogi_lr),
            robust: cfg.robust,
            enforce_capacity: cfg.enforce_capacity,
            eval_clients: cfg.eval_clients,
            data: PhantomData,
        };
        cfg.runner(method, data, devices)
    }

    /// The current global model.
    pub fn model(&self) -> &CellModel {
        &self.model
    }
}

impl<D: ShardSource> Method for FedAvg<D> {
    type Data = D;

    fn name(&self) -> &'static str {
        self.name
    }

    /// A reply whose tensors disagree with the global model's shapes
    /// surfaces as a protocol error from the streaming fold.
    fn round(&mut self, cx: &mut Round<'_, D>) -> Result<RoundOutcome> {
        let tasks: Vec<TrainTask> = cx
            .participants
            .iter()
            .map(|&c| TrainTask {
                client: c,
                model: 0,
                seed: cx.client_seed(c),
            })
            .collect();
        // Stream every update into the configured aggregation rule as
        // it lands (plain FedAvg by default; the buffering rules retain
        // the cohort's updates until finish). The rule is a field of
        // the one aggregation core, so undefended runs fold the exact
        // op sequence they always did.
        let mut sink = RobustSink::new(self.robust);
        let replies = cx.train(tasks, std::slice::from_ref(&self.model), &mut sink)?;

        let cost = (self.model.macs_per_sample(), self.model.param_count());
        let round_time_s = cx.ledger.charge(&replies, |_| cost);

        // Sample-weighted average of local weights (None when the
        // round delivered no weighted updates).
        if let Some(avg) = sink.take_average() {
            match self.server {
                ServerOpt::Average => {
                    self.model.restore(&avg)?;
                }
                ServerOpt::Yogi { .. } => {
                    let current = self.model.snapshot();
                    // Fused in-place: the average becomes the delta
                    // (`avg -= current`), saving a full set of tensor
                    // copies per round; bit-identical to `a.sub(c)`.
                    let mut deltas = avg;
                    for (a, c) in deltas.iter_mut().zip(&current) {
                        // Average and snapshot come from the same
                        // model, so the shapes match.
                        a.sub_assign(c).expect("same shapes");
                    }
                    let delta_refs: Vec<&ft_tensor::Tensor> = deltas.iter().collect();
                    let mut params_mut = self.model.param_tensors_mut();
                    self.yogi
                        .step(&mut params_mut, &delta_refs)
                        .map_err(ft_model::ModelError::from)?;
                }
            }
        }

        Ok(RoundOutcome {
            participants: replies.len(),
            mean_loss: mean_loss(&replies),
            num_models: 1,
            transformed: false,
            round_time_s,
        })
    }

    /// Per-client accuracy of the global model. With
    /// `enforce_capacity`, clients whose device cannot run the model
    /// score 0 — a one-size-fits-all model simply cannot serve them.
    /// `eval_clients` caps the sweep to the first `n` clients.
    fn evaluate(&self, fleet: Fleet<'_, D>) -> Result<(Vec<f32>, Vec<usize>)> {
        let macs = self.model.macs_per_sample();
        let population = fleet.data.num_clients();
        let n = self.eval_clients.map_or(population, |k| k.min(population));
        let accs = eval::try_par_map(n, |c| {
            if self.enforce_capacity && !fleet.devices.profile(c).is_compatible(macs) {
                Ok(0.0)
            } else {
                eval::accuracy(&self.model, &fleet.data.shard_half(c, Half::Test))
            }
        })?;
        Ok((accs, vec![0; n]))
    }

    fn suite(&self) -> Suite {
        Suite {
            archs: vec![self.model.arch_string()],
            macs: vec![self.model.macs_per_sample()],
            storage_mb: self.model.storage_bytes() as f64 / 1e6,
        }
    }

    fn checkpoint(&self) -> serde::Value {
        serde_json::json!({
            "model": self.model,
            "yogi": self.yogi,
        })
    }

    fn restore(&mut self, block: &serde::Value) -> Result<()> {
        let model: CellModel = field(block, "model")?;
        validate_model("model", &model)?;
        if model.param_count() != self.model.param_count() {
            return Err(SimError::snapshot(
                "field `model`: checkpointed model shape does not match this configuration",
            ));
        }
        let yogi = field(block, "yogi")?;
        self.model = model;
        self.yogi = yogi;
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
    use rand::SeedableRng;

    fn setup() -> (BaselineConfig, FederatedDataset, DeviceTrace, CellModel) {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(8)
            .with_mean_samples(25)
            .generate();
        let devices = DeviceTraceConfig::default().with_num_devices(8).generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = CellModel::dense(&mut rng, data.input_dim(), &[16], data.num_classes());
        let cfg = BaselineConfig {
            clients_per_round: 4,
            local: LocalTrainConfig {
                local_steps: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        (cfg, data, devices, model)
    }

    #[test]
    fn fedavg_improves_over_rounds() {
        let (cfg, data, devices, model) = setup();
        let mut runner = FedAvg::new(cfg, data, devices, model, ServerOpt::Average);
        let first_loss = runner.step().unwrap().mean_loss;
        let mut last_loss = first_loss;
        for _ in 0..10 {
            last_loss = runner.step().unwrap().mean_loss;
        }
        assert!(last_loss < first_loss, "{last_loss} !< {first_loss}");
    }

    #[test]
    fn fedprox_runs_with_proximal_term() {
        let (mut cfg, data, devices, model) = setup();
        cfg.local.prox_mu = Some(0.1);
        let mut runner = FedAvg::new(cfg, data, devices, model, ServerOpt::Average);
        let report = runner.run_to(3).unwrap();
        assert_eq!(report.rounds.len(), 3);
    }

    #[test]
    fn fedyogi_changes_weights() {
        let (cfg, data, devices, model) = setup();
        let before = model.snapshot();
        let mut runner = FedAvg::new(cfg, data, devices, model, ServerOpt::Yogi { lr: 0.05 });
        runner.step().unwrap();
        let after = runner.method().model().snapshot();
        assert_ne!(before[0], after[0]);
    }

    #[test]
    fn report_has_costs_and_accuracies() {
        let (cfg, data, devices, model) = setup();
        let mut runner = FedAvg::new(cfg, data, devices, model, ServerOpt::Average);
        let report = runner.run_to(2).unwrap();
        assert!(report.pmacs > 0.0);
        assert!(report.network_mb > 0.0);
        assert_eq!(report.per_client_accuracy.len(), 8);
        assert_eq!(report.model_archs.len(), 1);
    }

    #[test]
    fn report_fails_instead_of_scoring_zero_when_the_model_does_not_fit() {
        let (mut cfg, data, devices, _) = setup();
        cfg.enforce_capacity = false;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let wrong = CellModel::dense(&mut rng, data.input_dim() + 1, &[16], data.num_classes());
        let mut runner = FedAvg::new(cfg, data, devices, wrong, ServerOpt::Average);
        assert!(matches!(runner.report(), Err(SimError::Model(_))));
    }

    #[test]
    fn dropout_shrinks_participation() {
        let (mut cfg, data, devices, model) = setup();
        cfg.faults.dropout_prob = 0.5;
        let mut runner = FedAvg::new(cfg, data, devices, model, ServerOpt::Average);
        let report = runner.run_to(6).unwrap();
        let trained: usize = report.rounds.iter().map(|r| r.participants).sum();
        assert!(
            trained < 24,
            "dropout should shrink participation, got {trained}"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let (cfg, data, devices, model) = setup();
        let mut a = FedAvg::new(
            cfg,
            data.clone(),
            devices.clone(),
            model.clone(),
            ServerOpt::Average,
        );
        let mut b = FedAvg::new(cfg, data, devices, model, ServerOpt::Average);
        let ra = a.run_to(3).unwrap();
        let rb = b.run_to(3).unwrap();
        assert_eq!(ra.per_client_accuracy, rb.per_client_accuracy);
    }
}
