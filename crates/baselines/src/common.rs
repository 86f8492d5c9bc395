//! Shared configuration and evaluation helpers for baseline methods.

use ft_data::ClientData;
use ft_fedsim::device::DeviceTrace;
use ft_fedsim::driver::{Method, Runner, SpineConfig};
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::FaultConfig;
use ft_model::CellModel;
use ft_nn::softmax;
use ft_tensor::Tensor;

/// Server-side optimizer choice for the FedAvg family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerOpt {
    /// Plain weight replacement (vanilla FedAvg / FedProx).
    Average,
    /// FedYogi: adaptive server update on the aggregate delta.
    Yogi {
        /// Server learning rate.
        lr: f32,
    },
}

/// Hyperparameters shared by every baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// Participants per round.
    pub clients_per_round: usize,
    /// Local training hyperparameters.
    pub local: LocalTrainConfig,
    /// RNG seed.
    pub seed: u64,
    /// Evaluate a `(cost, accuracy)` checkpoint every this many rounds
    /// (0 disables), for the Fig. 7 curves.
    pub eval_every: usize,
    /// Whether evaluation respects device capacity (§5.1: "we evaluate
    /// each client only on its compatible models"). Single-model
    /// methods score 0 on clients that cannot run their model. The
    /// Fig. 9 fine-tune protocol disables this (Appendix A.1 removes
    /// the hardware constraints).
    pub enforce_capacity: bool,
    /// Client dropout / straggler injection (default: fault-free).
    pub faults: FaultConfig,
    /// Evaluate only the first `n` clients (`None` = the whole fleet).
    /// Million-device populations make full-fleet evaluation the
    /// dominant cost of a run whose object of study is the *round*
    /// path; capping the eval sweep keeps the 1M-device bench honest
    /// about aggregation memory without hours of inference.
    pub eval_clients: Option<usize>,
    /// How the FedAvg arm aggregates each round's updates (defense
    /// against byzantine participants). The default — plain FedAvg —
    /// replays the undefended fold bit for bit.
    pub robust: ft_fedsim::RobustAggregation,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            clients_per_round: 20,
            local: LocalTrainConfig::default(),
            seed: 1,
            eval_every: 0,
            enforce_capacity: true,
            faults: FaultConfig::default(),
            eval_clients: None,
            robust: ft_fedsim::RobustAggregation::default(),
        }
    }
}

impl BaselineConfig {
    /// Puts `method` on the shared round runner, handing over the part
    /// of this configuration the runner owns.
    pub(crate) fn runner<M: Method>(
        &self,
        method: M,
        data: M::Data,
        devices: DeviceTrace,
    ) -> Runner<M> {
        let spine = SpineConfig {
            seed: self.seed,
            rng_seed: self.seed,
            faults: self.faults,
            clients_per_round: self.clients_per_round,
            local: self.local,
        };
        Runner::new(method, data, devices, spine).with_eval_every(self.eval_every)
    }
}

/// Accuracy of one model on a client's held-out shard (0 when the shard
/// has no test data).
pub fn eval_on_client(model: &CellModel, shard: &ClientData) -> f32 {
    match shard.test_all() {
        Some((x, y)) => {
            let mut m = model.clone();
            m.evaluate(&x, &y).map(|(_, acc)| acc).unwrap_or(0.0)
        }
        None => 0.0,
    }
}

/// Accuracy of a softmax-averaged ensemble on a client's shard
/// (SplitMix's inference rule).
///
/// # Panics
///
/// Panics if the ensemble's models disagree on logits shape.
pub fn eval_ensemble_on_client(models: &[CellModel], shard: &ClientData) -> f32 {
    let Some((x, y)) = shard.test_all() else {
        return 0.0;
    };
    if models.is_empty() {
        return 0.0;
    }
    let mut avg: Option<Tensor> = None;
    for model in models {
        let mut m = model.clone();
        let Ok(logits) = m.forward(&x) else {
            return 0.0;
        };
        let Ok(probs) = softmax(&logits) else {
            return 0.0;
        };
        // Fused in-place accumulate; bit-identical to `a.add(&probs)`.
        match &mut avg {
            None => avg = Some(probs),
            Some(a) => a.add_assign(&probs).expect("same shapes"),
        }
    }
    let avg = avg.expect("non-empty ensemble");
    // Allocation-free argmax-vs-label comparison.
    avg.argmax_accuracy(&y).expect("matrix logits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_data::DatasetConfig;
    use rand::SeedableRng;

    #[test]
    fn ensemble_of_one_matches_single() {
        let data = DatasetConfig::femnist_like().with_num_clients(2).generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let m = CellModel::dense(&mut rng, data.input_dim(), &[8], data.num_classes());
        let single = eval_on_client(&m, data.client(0));
        let ens = eval_ensemble_on_client(&[m], data.client(0));
        assert!((single - ens).abs() < 1e-6);
    }
}
