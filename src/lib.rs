//! Root facade of the FedTrans reproduction workspace.
//!
//! Re-exports the crates a downstream user is expected to touch:
//! [`fedtrans`] (the method), [`ft_fedsim`] (the simulator substrate:
//! the message-driven [`ft_fedsim::coordinator`] plus the one round
//! spine, [`ft_fedsim::Runner`], that runs every method behind the
//! [`ft_fedsim::Algorithm`] interface), and [`ft_harness`] (the
//! config-driven scenario system behind the `ft-run` CLI). The streaming
//! aggregation surface — [`UpdateSink`] and the one aggregation core it
//! ships with, [`FedAvgSink`] (an alias of `ft_fedsim::sink::Aggregator`)
//! — is re-exported at this root because it is the one extension point
//! every aggregation strategy implements. The
//! remaining crates are implementation layers; see
//! `docs/ARCHITECTURE.md` for the full crate map, the coordinator
//! state machine, the dataflow of one round, and the determinism
//! contract.
//!
//! This package also hosts the cross-crate integration tests
//! (`tests/`), the runnable examples (`examples/`), and the `ft-run`
//! binary (`src/bin/ft-run.rs`).
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]
pub use fedtrans;
pub use ft_fedsim;
pub use ft_fedsim::{ClientUpdate, FedAvgSink, RoundManifest, TaskSpec, UpdateSink};
pub use ft_harness;

/// README's Rust blocks, compiled by `cargo test` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct Readme;

#[cfg(test)]
mod smoke {
    #[test]
    fn facade_reexports_the_fedtrans_api() {
        let cfg = fedtrans::FedTransConfig::default();
        assert!(cfg.clients_per_round > 0);
    }

    #[test]
    fn facade_reexports_the_streaming_sink_api() {
        // The trait and its stock fold are reachable without naming
        // ft_fedsim: an empty round folds to no average.
        let mut sink: Box<dyn crate::UpdateSink> = Box::new(crate::FedAvgSink::single());
        sink.begin_round(&crate::RoundManifest {
            round: 0,
            tasks: &[],
        })
        .unwrap();
        sink.finish().unwrap();
    }
}
