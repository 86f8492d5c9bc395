//! Shared configuration for baseline methods.

use ft_fedsim::device::DeviceTrace;
use ft_fedsim::driver::{Method, Runner, SpineConfig};
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::FaultConfig;

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
