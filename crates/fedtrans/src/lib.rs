//! FedTrans: efficient federated learning via multi-model transformation.
//!
//! This crate implements the paper's contribution (MLSys 2024) on top of
//! the workspace substrates. Three components cooperate each round,
//! orchestrated by [`FedTransRuntime`] (Algorithm 1) on the shared
//! [`ft_fedsim::driver::Runner`] round spine:
//!
//! * [`ModelTransformer`] (§4.1) — watches the degree of convergence
//!   (Eq. 1) of the training loss; when it drops below `β`, it selects
//!   the cells whose normalized gradient activeness `‖∇w‖/‖w‖` exceeds
//!   `α ×` the maximum, alternates widening and deepening per cell
//!   (Fig. 5), and spawns a new model warm-started with
//!   function-preserving weight transfer.
//! * [`ClientManager`] (§4.2) — maintains a loss-based utility list per
//!   client over compatible models (those within the client's MAC
//!   budget), samples assignments through a softmax over utilities
//!   (Eqs. 2–3), and jointly updates utilities of similar models
//!   (Eq. 4).
//! * [`ModelAggregator`] (§4.3) — per-model FedAvg of participant
//!   weights followed by soft aggregation across models (Eq. 5):
//!   smaller-model weights flow into larger models, scaled by
//!   architectural similarity and a decay factor `η^t`; large-to-small
//!   sharing is disabled by default (the paper's Table 1 shows it
//!   hurts).
//!
//! # Example
//!
//! ```no_run
//! use fedtrans::{FedTransConfig, FedTransRuntime};
//! use ft_data::DatasetConfig;
//! use ft_fedsim::device::DeviceTraceConfig;
//! use ft_fedsim::Algorithm;
//!
//! let data = DatasetConfig::femnist_like().with_num_clients(50).generate();
//! let devices = DeviceTraceConfig::default().with_num_devices(50).generate();
//! let mut runtime = FedTransRuntime::new(FedTransConfig::default(), data, devices)?;
//! let report = runtime.run_to(100)?;
//! println!("mean accuracy {:.3}", report.final_accuracy.mean);
//! # Ok::<(), fedtrans::FedTransError>(())
//! ```

// Every `unsafe` in the workspace lives in `ft_tensor` (docs/LINTS.md).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]

mod activeness;
mod aggregator;
mod config;
mod doc;
mod error;
mod runtime;
mod transformer;
mod utility;

pub use activeness::ActivenessTracker;
pub use aggregator::ModelAggregator;
pub use config::{FedTransConfig, LayerSelection};
pub use doc::DocTracker;
pub use error::FedTransError;
pub use ft_fedsim::report::{RoundReport, RunReport};
pub use runtime::{seed_model, FedTransRuntime};
pub use transformer::{ModelTransformer, TransformDecision};
pub use utility::ClientManager;

/// Convenience alias for results produced by FedTrans.
pub type Result<T> = std::result::Result<T, FedTransError>;

#[cfg(test)]
mod smoke {
    use super::FedTransConfig;

    #[test]
    fn core_type_constructs_and_round_trips() {
        let cfg = FedTransConfig::default()
            .with_clients_per_round(8)
            .with_gamma(2)
            .with_delta(1);
        assert_eq!(cfg.clients_per_round, 8);
        assert_eq!(cfg.gamma, 2);
        assert_eq!(cfg.delta, 1);
    }
}
