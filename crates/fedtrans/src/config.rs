use serde::{Deserialize, Serialize};

use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::FaultConfig;

/// How the Model Transformer picks cells to transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerSelection {
    /// Gradient-activeness selection per §4.1 (the paper's design).
    GradientActiveness,
    /// Uniform-random single-cell selection (the `FedTrans-l` ablation
    /// arm of Table 3).
    Random,
}

/// All FedTrans hyperparameters, with the paper's defaults (§5.1 and
/// Table 7) plus the ablation switches exercised in Table 3 and
/// Table 1.
///
/// ```
/// use fedtrans::FedTransConfig;
/// let cfg = FedTransConfig::default();
/// assert_eq!(cfg.alpha, 0.9);
/// assert_eq!(cfg.beta, 0.003);
/// assert_eq!(cfg.gamma, 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedTransConfig {
    /// Cell-activeness threshold `α`: cells whose activeness exceeds
    /// `α × max` are transformed (default 0.9).
    pub alpha: f32,
    /// DoC threshold `β`: transformation triggers when the degree of
    /// convergence drops to or below this (default 0.003).
    pub beta: f32,
    /// Number of consecutive loss slopes `γ` averaged into the DoC
    /// (default 10).
    pub gamma: usize,
    /// Step size `δ` (in rounds) of each loss slope (Table 7 uses 20–100
    /// depending on the dataset; default 10 for laptop-scale runs).
    pub delta: usize,
    /// Widening factor (paper default: widen a cell by two).
    pub widen_factor: f32,
    /// Number of identity cells inserted per deepen (paper default: 1).
    pub deepen_count: usize,
    /// Soft-aggregation decay factor `η` (Table 7: 0.98).
    pub eta: f32,
    /// Rounds of activeness history averaged per cell (Table 7's `T`,
    /// default 5).
    pub activeness_window: usize,
    /// Participants per round `N` (paper: 100; scale down for tests).
    pub clients_per_round: usize,
    /// Hard cap on the number of models in flight.
    pub max_models: usize,
    /// Minimum rounds between two transformations, so a fresh model
    /// accumulates loss history before the next spawn.
    pub transform_cooldown: usize,
    /// Local training hyperparameters (paper: 20 steps, batch 10,
    /// lr 0.05).
    #[serde(skip, default)]
    pub local: LocalTrainConfig,
    /// Client dropout / straggler injection (default: fault-free).
    pub faults: FaultConfig,
    /// Base RNG seed for the whole run.
    pub seed: u64,

    // --- Ablation switches (Table 3 / Table 1) ---
    /// Cell-selection strategy (`FedTrans-l` sets [`LayerSelection::Random`]).
    pub layer_selection: LayerSelection,
    /// Soft aggregation across models (`FedTrans-ls` disables).
    pub soft_aggregation: bool,
    /// Function-preserving warm-up of spawned models (`FedTrans-lsw`
    /// disables: children are re-initialized).
    pub warmup: bool,
    /// Decay factor in soft aggregation (`FedTrans-lswd` disables:
    /// cross-model weight is constant over rounds).
    pub decayed_sharing: bool,
    /// Large-to-small weight sharing (Table 1's `l2s`; the paper's
    /// default is **off** because it injects under-trained large-model
    /// noise into converged small models).
    pub large_to_small_sharing: bool,
}

impl Default for FedTransConfig {
    fn default() -> Self {
        FedTransConfig {
            alpha: 0.9,
            beta: 0.003,
            gamma: 10,
            delta: 10,
            widen_factor: 2.0,
            deepen_count: 1,
            eta: 0.98,
            activeness_window: 5,
            clients_per_round: 20,
            max_models: 6,
            transform_cooldown: 10,
            local: LocalTrainConfig::default(),
            faults: FaultConfig::default(),
            seed: 1,
            layer_selection: LayerSelection::GradientActiveness,
            soft_aggregation: true,
            warmup: true,
            decayed_sharing: true,
            large_to_small_sharing: false,
        }
    }
}

impl FedTransConfig {
    /// Sets the DoC threshold `β`.
    pub fn with_beta(mut self, beta: f32) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the activeness threshold `α`.
    pub fn with_alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the DoC window `γ`.
    pub fn with_gamma(mut self, gamma: usize) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the slope step `δ`.
    pub fn with_delta(mut self, delta: usize) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the widening factor.
    pub fn with_widen_factor(mut self, factor: f32) -> Self {
        self.widen_factor = factor;
        self
    }

    /// Sets the deepen insertion count.
    pub fn with_deepen_count(mut self, count: usize) -> Self {
        self.deepen_count = count;
        self
    }

    /// Sets participants per round.
    pub fn with_clients_per_round(mut self, n: usize) -> Self {
        self.clients_per_round = n;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the local-training hyperparameters.
    pub fn with_local(mut self, local: LocalTrainConfig) -> Self {
        self.local = local;
        self
    }

    /// Sets the client dropout / straggler model.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Applies the `FedTrans-l` ablation (random layer selection).
    pub fn ablate_layer_selection(mut self) -> Self {
        self.layer_selection = LayerSelection::Random;
        self
    }

    /// Applies the `FedTrans-ls` ablation (`-l` plus no soft
    /// aggregation).
    pub fn ablate_soft_aggregation(mut self) -> Self {
        self = self.ablate_layer_selection();
        self.soft_aggregation = false;
        self
    }

    /// Applies the `FedTrans-lsw` ablation (`-ls` plus no warm-up).
    pub fn ablate_warmup(mut self) -> Self {
        self = self.ablate_soft_aggregation();
        self.warmup = false;
        self
    }

    /// Applies the `FedTrans-lswd` ablation (`-lsw` plus no decay).
    ///
    /// Note: `-lsw` already disables soft aggregation; re-enabling
    /// sharing without decay is how Table 3's last row isolates the
    /// decay factor, so this arm turns soft aggregation back on with
    /// `decayed_sharing = false`.
    pub fn ablate_decay(mut self) -> Self {
        self = self.ablate_warmup();
        self.soft_aggregation = true;
        self.decayed_sharing = false;
        self
    }

    /// Enables large-to-small sharing (Table 1's `l2s` arm).
    pub fn with_large_to_small(mut self, enabled: bool) -> Self {
        self.large_to_small_sharing = enabled;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha must be in [0,1], got {}", self.alpha));
        }
        if self.beta.is_nan() || self.beta <= 0.0 {
            return Err(format!("beta must be positive, got {}", self.beta));
        }
        if self.gamma == 0 || self.delta == 0 {
            return Err("gamma and delta must be at least 1".to_owned());
        }
        if !self.widen_factor.is_finite() || self.widen_factor <= 1.0 {
            return Err(format!(
                "widen_factor must be finite and exceed 1, got {}",
                self.widen_factor
            ));
        }
        if self.deepen_count == 0 {
            return Err("deepen_count must be at least 1".to_owned());
        }
        if !(0.0..=1.0).contains(&self.eta) {
            return Err(format!("eta must be in [0,1], got {}", self.eta));
        }
        if self.clients_per_round == 0 {
            return Err("clients_per_round must be at least 1".to_owned());
        }
        if self.max_models == 0 {
            return Err("max_models must be at least 1".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FedTransConfig::default();
        assert_eq!(c.alpha, 0.9);
        assert_eq!(c.beta, 0.003);
        assert_eq!(c.gamma, 10);
        assert_eq!(c.eta, 0.98);
        assert_eq!(c.activeness_window, 5);
        assert!(!c.large_to_small_sharing);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ablations_nest() {
        let l = FedTransConfig::default().ablate_layer_selection();
        assert_eq!(l.layer_selection, LayerSelection::Random);
        assert!(l.soft_aggregation);

        let ls = FedTransConfig::default().ablate_soft_aggregation();
        assert!(!ls.soft_aggregation);

        let lsw = FedTransConfig::default().ablate_warmup();
        assert!(!lsw.warmup);
        assert!(!lsw.soft_aggregation);

        let lswd = FedTransConfig::default().ablate_decay();
        assert!(lswd.soft_aggregation);
        assert!(!lswd.decayed_sharing);
        assert!(!lswd.warmup);
    }

    #[test]
    fn validate_rejects_nonsense() {
        assert!(FedTransConfig::default()
            .with_alpha(1.5)
            .validate()
            .is_err());
        assert!(FedTransConfig::default().with_beta(0.0).validate().is_err());
        assert!(FedTransConfig::default()
            .with_widen_factor(0.5)
            .validate()
            .is_err());
        for bad in [f32::NAN, f32::INFINITY] {
            let err = FedTransConfig::default()
                .with_widen_factor(bad)
                .validate()
                .unwrap_err();
            assert!(err.contains("widen_factor"), "{err}");
        }
        let err = FedTransConfig::default()
            .with_beta(f32::NAN)
            .validate()
            .unwrap_err();
        assert!(err.contains("beta"), "{err}");
        assert!(FedTransConfig::default()
            .with_clients_per_round(0)
            .validate()
            .is_err());
    }
}
