//! Synthetic federated datasets for the FedTrans reproduction.
//!
//! The paper evaluates on CIFAR-10, FEMNIST, Speech Commands, and
//! OpenImage with realistic non-IID client partitions. Those datasets
//! are not available here, so this crate generates synthetic federated
//! classification suites that preserve the *heterogeneity structure*
//! FedTrans exploits:
//!
//! * **label skew** — each client draws its label distribution from a
//!   `Dirichlet(h)` prior (the knob swept in the paper's Fig. 13);
//! * **data volume skew** — per-client sample counts are log-normal;
//! * **concept shift** — each client adds a fixed random offset to its
//!   features;
//! * **task difficulty spread** — a per-client fraction of samples are
//!   blended with a confuser class, so clients differ in how much model
//!   capacity their data rewards (the driver behind the paper's
//!   "no one-size-fits-all" observation in Fig. 1b).
//!
//! Presets named after the paper's workloads ([`DatasetConfig::cifar_like`],
//! [`DatasetConfig::femnist_like`], [`DatasetConfig::speech_like`],
//! [`DatasetConfig::openimage_like`]) match each workload's relative
//! scale (client count, class count, input kind).
//!
//! # Example
//!
//! ```
//! use ft_data::DatasetConfig;
//!
//! let dataset = DatasetConfig::femnist_like().with_num_clients(10).generate();
//! assert_eq!(dataset.num_clients(), 10);
//! let client = dataset.client(0);
//! assert!(client.train_len() > 0);
//! ```

// Every `unsafe` in the workspace lives in `ft_tensor` (docs/LINTS.md).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]

mod config;
mod dataset;
pub mod drift;
mod generator;
pub mod partition;
mod shard;

pub use config::{DatasetConfig, InputSpec, MAX_BLOCK_FLOATS};
pub use dataset::{ClientData, FederatedDataset};
pub use drift::DriftConfig;
pub use shard::{Half, ShardSource, SparseFederatedData};

#[cfg(test)]
mod smoke {
    use super::DatasetConfig;

    #[test]
    fn core_type_constructs_and_round_trips() {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(3)
            .with_mean_samples(20)
            .generate();
        assert_eq!(data.num_clients(), 3);
        assert!(data.client(0).train_len() > 0);
        assert!(data.num_classes() > 1);
    }
}
