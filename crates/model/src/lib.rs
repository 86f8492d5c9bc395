//! Cell-based model abstraction and function-preserving transformations.
//!
//! FedTrans treats a model as an ordered list of [`Cell`]s (conv blocks,
//! dense blocks, or attention blocks) terminated by a [`Head`]. The
//! Model Transformer grows a model by **widening** a bottleneck cell
//! (Net2WiderNet: replicate randomly chosen units and divide the fan-out
//! weights by the replication multiplicity) or **deepening** it
//! (Net2DeeperNet: insert an identity-initialized cell). Both operations
//! preserve the function computed by the network, which is what lets
//! FedTrans warm-start every new model from its parent's weights.
//!
//! This crate owns:
//! - [`Cell`] / [`Head`] / [`CellModel`]: the architecture representation
//!   with forward/backward passes, parameter access, and exact MAC and
//!   parameter accounting;
//! - [`transform`]: the widen/deepen surgery;
//! - [`similarity`]: the cell-wise architectural similarity of §4.2,
//!   used for joint utility learning and soft aggregation;
//! - [`crop`]: HeteroFL-style shape adaptation for cross-model
//!   weight sharing.
//!
//! # Example
//!
//! ```
//! use ft_model::CellModel;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = CellModel::dense(&mut rng, 8, &[16, 16], 4);
//! assert_eq!(model.cells().len(), 2);
//! assert!(model.macs_per_sample() > 0);
//! ```

// Every `unsafe` in the workspace lives in `ft_tensor` (docs/LINTS.md).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]

mod cell;
pub mod crop;
mod error;
mod head;
mod network;
pub mod similarity;
pub mod transform;

pub use cell::{Cell, CellId, CellKind, CellOrigin};
pub use error::ModelError;
pub use head::Head;
pub use network::{CellModel, ModelId};
pub use transform::{deepen_cell, widen_cell, TransformOp, TransformRecord};

/// Convenience alias for results produced by model operations.
pub type Result<T> = std::result::Result<T, ModelError>;

/// The process-wide `(next model id, next cell id)` counters.
///
/// Checkpoints record these so a resumed run can call
/// [`ensure_id_counters`] and keep freshly allocated ids disjoint from
/// every id carried inside the restored models.
pub fn id_counters() -> (u64, u64) {
    (network::next_model_id(), cell::next_cell_id())
}

/// Raises the id counters to at least the given values (monotonic:
/// never lowers them, so concurrently running models stay safe).
pub fn ensure_id_counters(next_model: u64, next_cell: u64) {
    network::ensure_next_model_id(next_model);
    cell::ensure_next_cell_id(next_cell);
}

#[cfg(test)]
mod smoke {
    use super::CellModel;
    use rand::SeedableRng;

    #[test]
    fn core_type_constructs_and_round_trips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut model = CellModel::dense(&mut rng, 8, &[16, 16], 4);
        assert_eq!(model.cells().len(), 2);
        assert!(model.param_count() > 0);
        let y = model.forward(&ft_tensor::Tensor::ones(&[3, 8])).unwrap();
        assert_eq!(y.shape().dims(), &[3, 4]);
    }

    fn assert_serde_round_trip(model: &CellModel) {
        let json = serde_json::to_string(model).unwrap();
        let back: CellModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id(), model.id());
        assert_eq!(back.arch_string(), model.arch_string());
        assert_eq!(
            back.cells().iter().map(super::Cell::id).collect::<Vec<_>>(),
            model
                .cells()
                .iter()
                .map(super::Cell::id)
                .collect::<Vec<_>>()
        );
        for (a, b) in back.snapshot().iter().zip(model.snapshot().iter()) {
            assert_eq!(a, b, "weights must survive JSON byte-exactly");
        }
        // And the re-serialization is byte-identical.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn every_model_family_survives_json_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        assert_serde_round_trip(&CellModel::dense(&mut rng, 6, &[8, 4], 3));
        assert_serde_round_trip(&CellModel::conv(&mut rng, 2, 5, 5, &[4], 3, 3));
        assert_serde_round_trip(&CellModel::vit(&mut rng, 4, 6, 1, 8, 3));
    }

    #[test]
    fn id_counters_are_monotonic() {
        let (m0, c0) = super::id_counters();
        super::ensure_id_counters(m0 + 10, c0 + 10);
        let (m1, c1) = super::id_counters();
        assert!(m1 >= m0 + 10 && c1 >= c0 + 10);
        // Lowering is a no-op.
        super::ensure_id_counters(0, 0);
        let (m2, c2) = super::id_counters();
        assert!(m2 >= m1 && c2 >= c1);
    }
}
