//! Federated-learning simulator: device traces, local training, client
//! selection, cost accounting, and evaluation metrics.
//!
//! This crate is the substrate both FedTrans and every baseline run on.
//! It replaces the paper's FedScale deployment with a deterministic
//! simulation:
//!
//! * [`device`] — synthetic client capability traces with the ≥29×
//!   compute disparity FedScale's 500k-device trace exhibits, plus the
//!   latency model behind Fig. 1a and Table 6;
//! * [`trainer`] — the local SGD executor (with optional FedProx
//!   proximal term) run by each participant, including parallel
//!   fan-out over participants;
//! * [`exec`] — the deterministic parallel client execution engine:
//!   budgeted fan-out of per-client work over the shared tensor worker
//!   pool, as wide as `ft_tensor::Settings` says, with byte-identical
//!   results at any thread count;
//! * [`select`] — per-round participant selection;
//! * [`eval`] — the per-client accuracy sweep: forward-only, chunked to
//!   a fixed byte budget, fanned out over the shared tensor worker pool;
//! * [`costs`] — MAC / network / storage accounting (the paper's cost
//!   metrics in Table 2 and Figs. 2 and 7);
//! * [`metrics`] — per-client accuracy statistics (mean, IQR, boxplot
//!   quartiles for Fig. 6);
//! * [`roundtime`] — round-completion-time model for the straggler
//!   analysis (Table 6);
//! * [`faults`] — the deterministic client fault model (stateless
//!   dropout / straggler hashes) the coordinator's cohort emerges
//!   faults from;
//! * [`attack`] — the deterministic adversarial fleet model: byzantine
//!   clients (label flips, corrupted updates), diurnal availability
//!   traces, mid-round departures, and the concept-drift schedule —
//!   all stateless hashes like the fault model;
//! * [`coordinator`] — the message-driven coordinator runtime: the
//!   round state machine, the typed message protocol and the pluggable
//!   [`coordinator::Transport`];
//! * [`driver`] — the one round spine: the generic [`driver::Runner`]
//!   that owns the round loop, ledger and checkpoint envelope of every
//!   method (FedTrans and all baselines plug in through
//!   [`driver::Method`]), behind the [`driver::Algorithm`] interface
//!   the scenario harness drives.
//!
//! # Example
//!
//! ```
//! use ft_fedsim::device::DeviceTraceConfig;
//!
//! let trace = DeviceTraceConfig::default().with_num_devices(50).generate();
//! assert_eq!(trace.len(), 50);
//! let disparity = trace.capacity_disparity();
//! assert!(disparity >= 20.0);
//! ```

// Every `unsafe` in the workspace lives in `ft_tensor` (docs/LINTS.md).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]

pub mod attack;
pub mod coordinator;
pub mod costs;
pub mod device;
pub mod driver;
pub mod eval;
pub mod exec;
pub mod faults;
pub mod metrics;
pub mod report;
pub mod roundtime;
pub mod select;
pub mod sink;
pub mod trainer;

mod error;

pub use attack::{AdversityConfig, AttackConfig, AvailabilityConfig, Corruption};
pub use coordinator::{Coordinator, RoundOptions};
pub use driver::{Algorithm, RunContext, Runner};
pub use error::SimError;
pub use faults::FaultConfig;
pub use sink::{
    Aggregator, ClientUpdate, FedAvgSink, RobustAggregation, RobustSink, RoundManifest, TaskSpec,
    UpdateSink,
};

/// Convenience alias for results produced by the simulator.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod smoke {
    use super::device::DeviceTraceConfig;

    #[test]
    fn core_type_constructs_and_round_trips() {
        let trace = DeviceTraceConfig::default().with_num_devices(12).generate();
        assert_eq!(trace.len(), 12);
        assert!(trace.capacity_disparity() >= 1.0);
    }
}
