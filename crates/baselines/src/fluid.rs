//! FLuID: invariant dropout (Wang et al., NeurIPS 2024).
//!
//! Like HeteroFL, constrained clients train submodels of one global
//! model — but instead of slicing a fixed corner, FLuID ranks every
//! neuron by how much it has been *updated* recently and drops the
//! most **invariant** (least-updated) neurons first. The kept set is
//! therefore dynamic: it follows where training activity concentrates.
//!
//! We track an exponential moving average of per-neuron update
//! magnitude from the aggregated global delta each round (the
//! coordinator-visible signal), and rebuild each capacity level's
//! [`KeepPlan`] from the freshest scores once per round and once per
//! evaluation sweep.

use std::collections::BTreeMap;

use ft_data::FederatedDataset;
use ft_fedsim::device::DeviceTrace;
use ft_fedsim::driver::{
    field, mean_loss, validate_model, Fleet, Method, Round, RoundOutcome, Runner, Suite,
};
use ft_fedsim::trainer::TrainTask;
use ft_fedsim::{eval, Result, SimError};
use ft_model::{Cell, CellId, CellModel};
use ft_tensor::Tensor;

use crate::common::BaselineConfig;
use crate::heterofl::{level_for, DEFAULT_RATIOS};
use crate::scatter_sink::ScatterSink;
use crate::submodel::{extract, unit_count, KeepPlan};

/// EMA coefficient for neuron-update scores.
const SCORE_EMA: f32 = 0.5;

/// FLuID's server state: the global model and its neuron-update scores.
pub struct Fluid {
    global: CellModel,
    ratios: Vec<f32>,
    /// Per-cell neuron-update scores (higher = more variant = kept).
    scores: BTreeMap<CellId, Vec<f32>>,
    /// MACs and parameters of each width level. A level keeps
    /// `ceil(r·n)` units of every cell whatever the scores say, so
    /// these are fixed at construction; only *which* units move.
    level_macs: Vec<u64>,
    level_params: Vec<usize>,
}

impl Fluid {
    /// Creates a runner around `global` with HeteroFL's width levels.
    pub fn new(
        cfg: BaselineConfig,
        data: FederatedDataset,
        devices: DeviceTrace,
        global: CellModel,
    ) -> Runner<Self> {
        cfg.runner(Self::around(global), data, devices)
    }

    /// The server state for `global` with all scores at zero.
    fn around(global: CellModel) -> Self {
        let scores = global
            .cells()
            .iter()
            .map(|c| (c.id(), vec![0.0f32; unit_count(c)]))
            .collect();
        let mut fluid = Fluid {
            global,
            ratios: DEFAULT_RATIOS.to_vec(),
            scores,
            level_macs: Vec::new(),
            level_params: Vec::new(),
        };
        let (_, levels) = fluid.levels();
        fluid.level_macs = levels.iter().map(CellModel::macs_per_sample).collect();
        fluid.level_params = levels.iter().map(CellModel::param_count).collect();
        fluid
    }

    /// The global model.
    pub fn global(&self) -> &CellModel {
        &self.global
    }

    /// The plan for one width ratio: per cell, keep the `ceil(r·n)`
    /// units with the highest update scores (ties keep lower indices),
    /// returned sorted ascending.
    pub fn plan_for_ratio(&self, ratio: f32) -> KeepPlan {
        let keep = self
            .global
            .cells()
            .iter()
            .map(|cell| {
                let n = unit_count(cell);
                let k = ((n as f32 * ratio).ceil() as usize).clamp(1, n);
                let scores = &self.scores[&cell.id()];
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| {
                    scores[b]
                        .partial_cmp(&scores[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                let mut kept: Vec<usize> = idx.into_iter().take(k).collect();
                kept.sort_unstable();
                kept
            })
            .collect();
        KeepPlan { keep }
    }

    /// Folds the aggregate delta into the per-neuron update scores.
    ///
    /// # Panics
    ///
    /// Panics if `old`/`new` are not snapshots of the current global
    /// model (cells registered at construction, matching shapes).
    fn update_scores(&mut self, old: &[Tensor], new: &[Tensor]) {
        let layout = self.global.param_layout();
        for (cell, (id_opt, start, _len)) in self.global.cells().iter().zip(&layout) {
            let Some(id) = id_opt else { continue };
            let scores = self
                .scores
                .get_mut(id)
                .expect("cell registered at construction");
            // Per-unit magnitude from the cell's primary weight tensor:
            // dense columns, conv rows, attention W1 columns (W1 is the
            // 5th tensor of the attention cell).
            let (tensor, by_row) = match cell {
                Cell::Dense { .. } => (*start, false),
                Cell::Conv { .. } => (*start, true),
                Cell::Attention { .. } => (start + 4, false),
            };
            let dw = new[tensor].sub(&old[tensor]).expect("same shapes");
            let (rows, cols) = (dw.shape().dims()[0], dw.shape().dims()[1]);
            let (units, span) = if by_row { (rows, cols) } else { (cols, rows) };
            for (j, score) in scores.iter_mut().enumerate().take(units) {
                let mut mag = 0.0f32;
                for i in 0..span {
                    mag += if by_row { dw.at(j, i) } else { dw.at(i, j) }.abs();
                }
                *score = SCORE_EMA * *score + (1.0 - SCORE_EMA) * mag;
            }
        }
    }

    /// Every width level's plan under the current scores, and the
    /// submodel it cuts from the current global.
    fn levels(&self) -> (Vec<KeepPlan>, Vec<CellModel>) {
        let plans: Vec<KeepPlan> = self
            .ratios
            .iter()
            .map(|&r| self.plan_for_ratio(r))
            .collect();
        let submodels = plans.iter().map(|p| extract(&self.global, p)).collect();
        (plans, submodels)
    }
}

impl Method for Fluid {
    type Data = FederatedDataset;

    fn name(&self) -> &'static str {
        "fluid"
    }

    /// # Panics
    ///
    /// Panics if a client reply's tensors disagree with the global
    /// model's shapes — trained submodels must come from this round's
    /// global snapshot.
    fn round(&mut self, cx: &mut Round<'_, FederatedDataset>) -> Result<RoundOutcome> {
        // Scores only move at the end of a round, so the round's model
        // table is one plan and one submodel per width level;
        // extraction is a pure function of (global, plan), so cutting
        // each level once and letting the engine clone per task is
        // bit-identical to the retired per-participant extraction.
        let (plans, submodels) = self.levels();
        let mut levels = Vec::with_capacity(cx.participants.len());
        let mut tasks = Vec::with_capacity(cx.participants.len());
        for &c in cx.participants {
            let lvl = level_for(&self.level_macs, cx.fleet.devices.profile(c).capacity_macs);
            levels.push(lvl);
            tasks.push(TrainTask {
                client: c,
                model: lvl,
                seed: cx.client_seed(c),
            });
        }
        // Scatter aggregation streams through the sink, per
        // participant plan; updates drop as soon as they fold.
        let original = self.global.snapshot();
        let task_plans: Vec<&KeepPlan> = levels.iter().map(|&l| &plans[l]).collect();
        let mut sink = ScatterSink::new(&self.global, task_plans);
        let replies = cx.train(tasks, &submodels, &mut sink)?;

        let round_time_s = cx.ledger.charge(&replies, |r| {
            let lvl = levels[r.task];
            (self.level_macs[lvl], self.level_params[lvl])
        });

        let agg = sink.take_aggregate();
        self.global.restore(agg)?;
        let updated = self.global.snapshot();
        self.update_scores(&original, &updated);

        Ok(RoundOutcome {
            participants: replies.len(),
            mean_loss: mean_loss(&replies),
            num_models: self.ratios.len(),
            transformed: false,
            round_time_s,
        })
    }

    /// Per-client accuracy on each client's invariant-dropout submodel.
    fn evaluate(&self, fleet: Fleet<'_, FederatedDataset>) -> Result<(Vec<f32>, Vec<usize>)> {
        let (_, submodels) = self.levels();
        Ok(eval::try_par_map(fleet.data.num_clients(), |c| {
            let lvl = level_for(&self.level_macs, fleet.devices.profile(c).capacity_macs);
            Ok((eval::accuracy(&submodels[lvl], fleet.data.client(c))?, lvl))
        })?
        .into_iter()
        .unzip())
    }

    fn suite(&self) -> Suite {
        let (_, levels) = self.levels();
        Suite {
            archs: levels.iter().map(CellModel::arch_string).collect(),
            macs: self.level_macs.clone(),
            storage_mb: self.global.storage_bytes() as f64 / 1e6,
        }
    }

    fn checkpoint(&self) -> serde::Value {
        // Scores live in a BTreeMap keyed by CellId, so the encoding
        // is in id order by construction.
        let scores: Vec<(u64, &Vec<f32>)> = self.scores.iter().map(|(id, s)| (id.0, s)).collect();
        serde_json::json!({
            "global": self.global,
            "scores": scores,
        })
    }

    fn restore(&mut self, block: &serde::Value) -> Result<()> {
        let global: CellModel = field(block, "global")?;
        validate_model("global", &global)?;
        if global.param_count() != self.global.param_count() {
            return Err(SimError::snapshot(
                "field `global`: checkpointed model shape does not match this configuration",
            ));
        }
        let scores: Vec<(u64, Vec<f32>)> = field(block, "scores")?;
        self.global = global;
        self.scores = scores.into_iter().map(|(id, s)| (CellId(id), s)).collect();
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
            .with_num_clients(6)
            .with_mean_samples(20)
            .generate();
        let devices = DeviceTraceConfig::default()
            .with_num_devices(6)
            .with_base_capacity(5_000)
            .generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = CellModel::dense(&mut rng, data.input_dim(), &[24, 24], data.num_classes());
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
    fn initial_plan_is_corner_like() {
        let (_, _, _, model) = setup();
        let f = Fluid::around(model);
        // All scores zero -> ties keep lowest indices.
        let plan = f.plan_for_ratio(0.5);
        assert_eq!(plan.keep[0], (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn scores_move_plan_toward_active_neurons() {
        let (_, _, _, model) = setup();
        let mut f = Fluid::around(model);
        // One weight of neuron 20 in the first cell moves: it alone
        // scores above zero.
        let old = f.global.snapshot();
        let mut new = old.clone();
        *new[0].at_mut(0, 20) += 1.0;
        f.update_scores(&old, &new);
        let (plans, levels) = f.levels();
        let kept = &plans[2].keep[0];
        assert!(kept.contains(&20), "active neuron must be kept: {kept:?}");
        // Which units a level keeps moved; how many, and so its MACs,
        // did not.
        let macs: Vec<u64> = levels.iter().map(CellModel::macs_per_sample).collect();
        assert_eq!(macs, f.level_macs);
    }

    #[test]
    fn training_updates_scores_and_global() {
        let (cfg, data, devices, model) = setup();
        let before = model.snapshot();
        let mut f = Fluid::new(cfg, data, devices, model);
        f.step().unwrap();
        let f = f.method();
        assert_ne!(before[0], f.global().snapshot()[0]);
        let id = f.global.cells()[0].id();
        assert!(f.scores[&id].iter().any(|&s| s > 0.0));
    }

    #[test]
    fn report_fails_instead_of_scoring_zero_when_the_model_does_not_fit() {
        let (cfg, data, devices, _) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let wrong = CellModel::dense(&mut rng, data.input_dim() + 1, &[24], data.num_classes());
        let mut f = Fluid::new(cfg, data, devices, wrong);
        assert!(matches!(f.report(), Err(SimError::Model(_))));
    }

    #[test]
    fn run_produces_report() {
        let (cfg, data, devices, model) = setup();
        let mut f = Fluid::new(cfg, data, devices, model);
        let report = f.run_to(3).unwrap();
        assert_eq!(report.per_client_accuracy.len(), 6);
        assert!(report.pmacs > 0.0);
        assert_eq!(report.model_archs.len(), DEFAULT_RATIOS.len());
    }
}
