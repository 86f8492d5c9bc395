//! SplitMix (Hong et al., ICLR 2022).
//!
//! The width axis is split into `k` independent narrow base models.
//! Each client trains as many bases as its budget admits (assigned
//! round-robin so all bases see data) and serves inference with the
//! softmax-averaged ensemble of its bases. Communication scales with
//! the number of bases a client carries — the source of SplitMix's
//! large network volumes in the paper's Table 2.

use rand::SeedableRng;

use ft_data::FederatedDataset;
use ft_fedsim::device::DeviceTrace;
use ft_fedsim::driver::{
    field, mean_loss, validate_model, Fleet, Method, Round, RoundOutcome, Runner, Suite,
};
use ft_fedsim::sink::FedAvgSink;
use ft_fedsim::trainer::TrainTask;
use ft_fedsim::{eval, Result, SimError};
use ft_model::CellModel;

use crate::common::BaselineConfig;
use crate::submodel::{extract, KeepPlan};

/// SplitMix's server state: the independent base models.
pub struct SplitMix {
    bases: Vec<CellModel>,
    base_macs: u64,
    base_params: usize,
}

impl SplitMix {
    /// Splits `global` into `k` independently initialized bases of
    /// `1/k` width each.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(
        cfg: BaselineConfig,
        data: FederatedDataset,
        devices: DeviceTrace,
        global: &CellModel,
        k: usize,
    ) -> Runner<Self> {
        assert!(k > 0, "need at least one base model");
        let plan = KeepPlan::corner(global, 1.0 / k as f32);
        let template = extract(global, &plan);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed.wrapping_mul(31));
        let bases: Vec<CellModel> = (0..k)
            .map(|_| {
                let mut b = template.clone();
                b.reinitialize(&mut rng);
                b
            })
            .collect();
        let method = SplitMix {
            bases,
            base_macs: template.macs_per_sample(),
            base_params: template.param_count(),
        };
        cfg.runner(method, data, devices)
    }

    /// The base models.
    pub fn bases(&self) -> &[CellModel] {
        &self.bases
    }

    /// How many bases a client of the given capacity carries.
    pub fn bases_for(&self, capacity: u64) -> usize {
        ((capacity / self.base_macs.max(1)) as usize).clamp(1, self.bases.len())
    }

    /// The base indices a client carries (round-robin from its id).
    pub fn base_set(&self, client: usize, count: usize) -> Vec<usize> {
        (0..count)
            .map(|j| (client + j) % self.bases.len())
            .collect()
    }
}

impl Method for SplitMix {
    type Data = FederatedDataset;

    fn name(&self) -> &'static str {
        "splitmix"
    }

    /// A reply whose base weights disagree with the base models' shapes
    /// surfaces as a protocol error from the streaming fold.
    fn round(&mut self, cx: &mut Round<'_, FederatedDataset>) -> Result<RoundOutcome> {
        // Each participant trains each of its bases: one coordinator
        // task per (client, base) pair, dispatched concurrently as
        // `StartTrainingRound` messages. The seed of each task is
        // derived statelessly from (run seed, round, client, base), so
        // execution and delivery order cannot leak into the weights.
        let carried: Vec<(usize, Vec<usize>)> = cx
            .participants
            .iter()
            .map(|&c| {
                let count = self.bases_for(cx.fleet.devices.profile(c).capacity_macs);
                (c, self.base_set(c, count))
            })
            .collect();
        let mut tasks = Vec::new();
        // Task index -> (owner position in `carried`, base index).
        let mut task_meta: Vec<(usize, usize)> = Vec::new();
        for (pos, (c, set)) in carried.iter().enumerate() {
            for &b in set {
                let seed = cx
                    .seed
                    .wrapping_add(cx.round as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((c * 131 + b) as u64);
                tasks.push(TrainTask {
                    client: *c,
                    model: b,
                    seed,
                });
                task_meta.push((pos, b));
            }
        }
        // One aggregation group per base: each update folds into its
        // base's weighted mean the moment it lands and is dropped.
        let group_of: Vec<usize> = task_meta.iter().map(|&(_, b)| b).collect();
        let mut sink = FedAvgSink::grouped(self.bases.len(), group_of);
        let replies = cx.train(tasks, &self.bases, &mut sink)?;

        // Replies come back in task order — the same fixed
        // (client, base) sequence as dispatch — so the per-owner time
        // sums below are order-identical to the pre-streaming loop,
        // and so were the sink's per-base folds. A client's round time
        // is the sum over the bases it trained.
        let mut client_time = vec![0.0f64; carried.len()];
        for r in &replies {
            let (owner, _) = task_meta[r.task];
            client_time[owner] += cx.ledger.record_participant(
                self.base_macs,
                self.base_params,
                r.samples,
                r.elapsed_s,
            );
        }
        let round_time_s = client_time.iter().fold(0.0f64, |m, &t| m.max(t));

        // Install each base's streamed FedAvg (None: base saw no
        // weighted updates this round).
        for (b, avg) in sink.take_averages().into_iter().enumerate() {
            if let Some(avg) = avg {
                self.bases[b].restore(&avg)?;
            }
        }

        Ok(RoundOutcome {
            // Admitted clients, not (client, base) replies.
            participants: cx.participants.len(),
            mean_loss: mean_loss(&replies),
            num_models: self.bases.len(),
            transformed: false,
            round_time_s,
        })
    }

    /// Per-client ensemble accuracy plus ensemble size.
    fn evaluate(&self, fleet: Fleet<'_, FederatedDataset>) -> Result<(Vec<f32>, Vec<usize>)> {
        Ok(eval::try_par_map(fleet.data.num_clients(), |c| {
            let count = self.bases_for(fleet.devices.profile(c).capacity_macs);
            let ensemble: Vec<&CellModel> = self
                .base_set(c, count)
                .into_iter()
                .map(|b| &self.bases[b])
                .collect();
            Ok((
                eval::ensemble_accuracy(&ensemble, fleet.data.client(c))?,
                count,
            ))
        })?
        .into_iter()
        .unzip())
    }

    fn suite(&self) -> Suite {
        Suite {
            archs: self.bases.iter().map(CellModel::arch_string).collect(),
            macs: self.bases.iter().map(CellModel::macs_per_sample).collect(),
            storage_mb: self
                .bases
                .iter()
                .map(|b| b.storage_bytes() as f64 / 1e6)
                .sum(),
        }
    }

    fn checkpoint(&self) -> serde::Value {
        serde_json::json!({ "bases": self.bases })
    }

    fn restore(&mut self, block: &serde::Value) -> Result<()> {
        let bases: Vec<CellModel> = field(block, "bases")?;
        for base in &bases {
            validate_model("bases", base)?;
        }
        if bases.len() != self.bases.len() {
            return Err(SimError::snapshot(
                "field `bases`: checkpointed base count does not match this configuration",
            ));
        }
        self.bases = bases;
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

    fn setup() -> (BaselineConfig, FederatedDataset, DeviceTrace, CellModel) {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(6)
            .with_mean_samples(20)
            .generate();
        let devices = DeviceTraceConfig::default().with_num_devices(6).generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = CellModel::dense(&mut rng, data.input_dim(), &[32, 32], data.num_classes());
        let cfg = BaselineConfig {
            clients_per_round: 3,
            local: LocalTrainConfig {
                local_steps: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        (cfg, data, devices, model)
    }

    #[test]
    fn bases_are_independent() {
        let (cfg, data, devices, model) = setup();
        let sm = SplitMix::new(cfg, data, devices, &model, 4);
        assert_eq!(sm.method().bases().len(), 4);
        assert_ne!(
            sm.method().bases()[0].snapshot()[0],
            sm.method().bases()[1].snapshot()[0]
        );
    }

    #[test]
    fn base_count_scales_with_capacity() {
        let (cfg, data, devices, model) = setup();
        let sm = SplitMix::new(cfg, data, devices, &model, 4);
        assert_eq!(sm.method().bases_for(0), 1);
        assert_eq!(sm.method().bases_for(u64::MAX), 4);
    }

    #[test]
    fn base_set_is_round_robin() {
        let (cfg, data, devices, model) = setup();
        let sm = SplitMix::new(cfg, data, devices, &model, 4);
        assert_eq!(sm.method().base_set(2, 3), vec![2, 3, 0]);
    }

    #[test]
    fn report_fails_instead_of_scoring_zero_when_the_model_does_not_fit() {
        let (cfg, data, devices, _) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let wrong = CellModel::dense(&mut rng, data.input_dim() + 1, &[32], data.num_classes());
        let mut sm = SplitMix::new(cfg, data, devices, &wrong, 3);
        assert!(matches!(sm.report(), Err(SimError::Model(_))));
    }

    #[test]
    fn run_produces_report() {
        let (cfg, data, devices, model) = setup();
        let mut sm = SplitMix::new(cfg, data, devices, &model, 3);
        let report = sm.run_to(3).unwrap();
        assert_eq!(report.model_archs.len(), 3);
        assert!(report.pmacs > 0.0);
        assert_eq!(report.per_client_accuracy.len(), 6);
    }
}
