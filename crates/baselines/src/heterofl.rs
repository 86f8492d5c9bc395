//! HeteroFL (Diao et al., ICLR 2020).
//!
//! One global model; each client trains the submodel formed by the
//! first `p·width` units of every layer, where `p` is the largest width
//! level fitting the client's MAC budget. Aggregation averages each
//! global parameter over exactly the clients whose submodels contain it
//! — the corner-overlap rule this repo expresses with
//! [`crate::submodel::scatter_maps`].

use ft_data::FederatedDataset;
use ft_fedsim::device::DeviceTrace;
use ft_fedsim::driver::{
    field, mean_loss, validate_model, Fleet, Method, Round, RoundOutcome, Runner, Suite,
};
use ft_fedsim::trainer::TrainTask;
use ft_fedsim::{eval, Result, SimError};
use ft_model::CellModel;

use crate::common::BaselineConfig;
use crate::scatter_sink::ScatterSink;
use crate::submodel::{extract, KeepPlan};

/// The standard HeteroFL width levels (largest first).
pub const DEFAULT_RATIOS: [f32; 5] = [1.0, 0.5, 0.25, 0.125, 0.0625];

/// The first level of `level_macs` (largest first) within `capacity`,
/// else the last — shared with FLuID, which cuts the same levels.
pub(crate) fn level_for(level_macs: &[u64], capacity: u64) -> usize {
    level_macs
        .iter()
        .position(|&m| m <= capacity)
        .unwrap_or(level_macs.len() - 1)
}

/// HeteroFL's server state: the global model and its width levels.
pub struct HeteroFl {
    global: CellModel,
    plans: Vec<KeepPlan>,
    level_macs: Vec<u64>,
    level_params: Vec<usize>,
}

impl HeteroFl {
    /// Creates a runner around `global` with the default width levels.
    pub fn new(
        cfg: BaselineConfig,
        data: FederatedDataset,
        devices: DeviceTrace,
        global: CellModel,
    ) -> Runner<Self> {
        Self::with_ratios(cfg, data, devices, global, &DEFAULT_RATIOS)
    }

    /// Creates a runner with explicit width levels (largest first).
    pub fn with_ratios(
        cfg: BaselineConfig,
        data: FederatedDataset,
        devices: DeviceTrace,
        global: CellModel,
        ratios: &[f32],
    ) -> Runner<Self> {
        let plans: Vec<KeepPlan> = ratios
            .iter()
            .map(|&r| KeepPlan::corner(&global, r))
            .collect();
        let submodels: Vec<CellModel> = plans.iter().map(|p| extract(&global, p)).collect();
        let method = HeteroFl {
            level_macs: submodels.iter().map(CellModel::macs_per_sample).collect(),
            level_params: submodels.iter().map(CellModel::param_count).collect(),
            global,
            plans,
        };
        cfg.runner(method, data, devices)
    }

    /// The global model.
    pub fn global(&self) -> &CellModel {
        &self.global
    }

    /// The width level (index into ratios) for a client's capacity: the
    /// largest level that fits, else the smallest level.
    pub fn level_for(&self, capacity: u64) -> usize {
        level_for(&self.level_macs, capacity)
    }

    /// One submodel per width level, cut from the current global.
    fn submodels(&self) -> Vec<CellModel> {
        self.plans
            .iter()
            .map(|p| extract(&self.global, p))
            .collect()
    }
}

impl Method for HeteroFl {
    type Data = FederatedDataset;

    fn name(&self) -> &'static str {
        "heterofl"
    }

    fn round(&mut self, cx: &mut Round<'_, FederatedDataset>) -> Result<RoundOutcome> {
        // The round's model table: one submodel per width level;
        // extraction is a pure function of (global, plan), so cutting
        // each level once and letting the engine clone per task is
        // bit-identical to the retired per-participant extraction.
        let submodels = self.submodels();
        let mut levels = Vec::with_capacity(cx.participants.len());
        let mut tasks = Vec::with_capacity(cx.participants.len());
        for &c in cx.participants {
            let lvl = self.level_for(cx.fleet.devices.profile(c).capacity_macs);
            levels.push(lvl);
            tasks.push(TrainTask {
                client: c,
                model: lvl,
                seed: cx.client_seed(c),
            });
        }
        // Overlap aggregation streams through the scatter sink: each
        // update scatter-adds into the global-shaped accumulator the
        // moment it lands, then drops.
        let task_plans: Vec<&KeepPlan> = levels.iter().map(|&l| &self.plans[l]).collect();
        let mut sink = ScatterSink::new(&self.global, task_plans);
        let replies = cx.train(tasks, &submodels, &mut sink)?;

        let round_time_s = cx.ledger.charge(&replies, |r| {
            let lvl = levels[r.task];
            (self.level_macs[lvl], self.level_params[lvl])
        });

        let agg = sink.take_aggregate();
        self.global.restore(&agg)?;

        Ok(RoundOutcome {
            participants: replies.len(),
            mean_loss: mean_loss(&replies),
            num_models: self.plans.len(),
            transformed: false,
            round_time_s,
        })
    }

    /// Per-client accuracy on each client's width-level submodel, plus
    /// the level used.
    fn evaluate(&self, fleet: Fleet<'_, FederatedDataset>) -> Result<(Vec<f32>, Vec<usize>)> {
        let submodels = self.submodels();
        Ok(eval::try_par_map(fleet.data.num_clients(), |c| {
            let lvl = self.level_for(fleet.devices.profile(c).capacity_macs);
            Ok((eval::accuracy(&submodels[lvl], fleet.data.client(c))?, lvl))
        })?
        .into_iter()
        .unzip())
    }

    fn suite(&self) -> Suite {
        Suite {
            archs: self
                .submodels()
                .iter()
                .map(CellModel::arch_string)
                .collect(),
            macs: self.level_macs.clone(),
            // HeteroFL stores one global superset model.
            storage_mb: self.global.storage_bytes() as f64 / 1e6,
        }
    }

    fn checkpoint(&self) -> serde::Value {
        serde_json::json!({ "global": self.global })
    }

    fn restore(&mut self, block: &serde::Value) -> Result<()> {
        let global: CellModel = field(block, "global")?;
        validate_model("global", &global)?;
        if global.param_count() != self.global.param_count() {
            return Err(SimError::snapshot(
                "field `global`: checkpointed model shape does not match this configuration",
            ));
        }
        self.global = global;
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
        let devices = DeviceTraceConfig::default()
            .with_num_devices(8)
            .with_base_capacity(5_000)
            .generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = CellModel::dense(&mut rng, data.input_dim(), &[32, 32], data.num_classes());
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
    fn levels_decrease_with_capacity() {
        let (cfg, data, devices, model) = setup();
        let h = HeteroFl::new(cfg, data, devices, model);
        let big = h.method().level_for(u64::MAX);
        let small = h.method().level_for(1);
        assert_eq!(big, 0);
        assert_eq!(small, DEFAULT_RATIOS.len() - 1);
        // Level MACs are strictly decreasing.
        assert!(h.method().level_macs.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn step_updates_global() {
        let (cfg, data, devices, model) = setup();
        let before = model.snapshot();
        let mut h = HeteroFl::new(cfg, data, devices, model);
        h.step().unwrap();
        assert_ne!(before[0], h.method().global().snapshot()[0]);
    }

    #[test]
    fn report_fails_instead_of_scoring_zero_when_the_model_does_not_fit() {
        let (cfg, data, devices, _) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let wrong = CellModel::dense(&mut rng, data.input_dim() + 1, &[32], data.num_classes());
        let mut h = HeteroFl::new(cfg, data, devices, wrong);
        assert!(matches!(h.report(), Err(SimError::Model(_))));
    }

    #[test]
    fn run_reports_per_level_archs() {
        let (cfg, data, devices, model) = setup();
        let mut h = HeteroFl::new(cfg, data, devices, model);
        let report = h.run_to(3).unwrap();
        assert_eq!(report.model_archs.len(), DEFAULT_RATIOS.len());
        assert_eq!(report.per_client_accuracy.len(), 8);
        assert!(report.pmacs > 0.0);
    }

    #[test]
    fn weak_clients_train_smaller_models() {
        let (cfg, data, devices, model) = setup();
        let h = HeteroFl::new(cfg, data, devices.clone(), model);
        // The least capable device must land on a deeper level than the
        // most capable one.
        let weakest = (0..8)
            .min_by_key(|&c| devices.profile(c).capacity_macs)
            .unwrap();
        let strongest = (0..8)
            .max_by_key(|&c| devices.profile(c).capacity_macs)
            .unwrap();
        assert!(
            h.method().level_for(devices.profile(weakest).capacity_macs)
                >= h.method()
                    .level_for(devices.profile(strongest).capacity_macs)
        );
    }
}
