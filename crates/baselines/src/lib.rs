//! Baseline federated-learning methods the paper compares against.
//!
//! * [`FedAvg`] — single global model (McMahan et al. 2017), optionally
//!   with a FedProx proximal term or a FedYogi adaptive server update
//!   (the Fig. 8 arms).
//! * [`HeteroFl`] — width-scaled submodels extracted from one global
//!   model; overlapping parameters are averaged element-wise (Diao et
//!   al., ICLR 2020).
//! * [`SplitMix`] — several narrow base models; each client trains and
//!   ensembles as many bases as its budget admits (Hong et al., ICLR
//!   2022).
//! * [`Fluid`] — invariant dropout: resource-constrained clients train
//!   submodels keeping the *most-updated* neurons, dropping invariant
//!   ones (Wang et al., 2024).
//!
//! All baselines run on the same simulator substrate and emit the same
//! [`ft_fedsim::report::RunReport`] as FedTrans, so the bench harness
//! prints Table 2 rows uniformly. Following the paper's protocol
//! (Appendix A.1), the multi-model baselines take "the largest model
//! transformed by FedTrans" as their input global model.
//!
//! Every baseline trains its participants through the shared parallel
//! client engine (`ft_fedsim::exec`, as wide as `ft_tensor::Settings`):
//! FedAvg/HeteroFL/FLuID fan out one task per participant, SplitMix
//! one task per `(participant, base)` pair. Each update streams into
//! an [`ft_fedsim::sink::UpdateSink`] the moment it lands — the one
//! [`ft_fedsim::sink::Aggregator`] (as `RobustSink::new(rule)` or
//! `FedAvgSink::grouped(..)`) for the weighted-mean family, a
//! [`ScatterSink`] for the submodel-overlap family, both behind the
//! same manifest-order [`ft_fedsim::sink::Cursor`] — and is dropped
//! right after, so peak memory is bounded by the in-flight window.
//! Folds always run in fixed task order, never completion order, so
//! baseline reports — like FedTrans's — are byte-identical at any
//! thread count. Evaluation borrows the method's models through
//! [`ft_fedsim::eval`], and an evaluation error fails the report
//! instead of scoring the client 0.

// Every `unsafe` in the workspace lives in `ft_tensor` (docs/LINTS.md).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]

pub mod common;
mod fedavg;
mod fluid;
mod heterofl;
pub mod scatter_sink;
mod splitmix;
pub mod submodel;
pub mod tensor_select;

pub use common::{BaselineConfig, ServerOpt};
pub use fedavg::FedAvg;
pub use fluid::Fluid;
pub use heterofl::HeteroFl;
pub use scatter_sink::ScatterSink;
pub use splitmix::SplitMix;

#[cfg(test)]
mod smoke {
    use super::BaselineConfig;

    #[test]
    fn core_type_constructs_and_round_trips() {
        let cfg = BaselineConfig::default();
        assert!(cfg.clients_per_round > 0, "default config must be runnable");
    }
}
