//! Config-driven scenario harness for the FedTrans reproduction.
//!
//! Turns the simulator into an experiment system: a serde [`Scenario`]
//! schema describes the workload (dataset preset + Dirichlet
//! partition), device population (log-uniform or explicit
//! heterogeneity tiers), fault model (client dropout / stragglers),
//! method (FedTrans or any of the four baselines behind one
//! [`ft_fedsim::Algorithm`] trait object), round budget, and seed. The
//! [`runner`] executes any scenario deterministically, streams
//! per-round metrics into the shared [`ft_fedsim::report::RunReport`],
//! and supports kill/restart checkpoint-resume with byte-identical
//! final reports. The [`registry`] ships 14 canned scenarios, each
//! pinned by a committed quick-mode golden digest.
//!
//! Determinism extends across execution widths: local training fans
//! out over the parallel client engine (`ft_fedsim::exec`, gated by
//! `FT_CLIENT_THREADS`), whose per-client RNG streams are derived
//! statelessly from `(round seed, client)`, so the same scenario
//! produces the same digest at any thread count and kernel tier —
//! before and after a kill/resume (`tests/determinism_matrix.rs` in the
//! workspace root pins every golden in every such cell).
//!
//! # Example
//!
//! ```no_run
//! use ft_harness::{registry, runner};
//!
//! let scenario = registry::find("dirichlet-skew").expect("canned");
//! let outcome = runner::run_scenario(
//!     &scenario,
//!     &runner::RunOptions { quick: true, ..Default::default() },
//! )?;
//! println!("digest {}", outcome.digest.expect("finished"));
//! # Ok::<(), ft_fedsim::SimError>(())
//! ```

// Every `unsafe` in the workspace lives in `ft_tensor` (docs/LINTS.md).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]

pub mod registry;
pub mod runner;
mod scenario;

pub use runner::{run_scenario, RunOptions, RunOutcome};
pub use scenario::{AlgorithmSpec, AttackSpec, DeviceSpec, Scenario, TimingSpec};

#[cfg(test)]
mod smoke {
    #[test]
    fn core_type_constructs_and_round_trips() {
        let s = crate::registry::find("iid-small").expect("canned scenario");
        assert_eq!(s.name, "iid-small");
        assert!(s.validate().is_ok());
    }
}
