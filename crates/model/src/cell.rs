use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use ft_nn::{AttentionBlock, Conv2d, Linear, Relu};
use ft_tensor::Tensor;

use crate::Result;

static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

/// Globally unique identity of a cell, preserved across model cloning
/// and widening so that architectural similarity can match cells between
/// a model and its descendants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u64);

impl CellId {
    /// Allocates a fresh id from the process-wide counter.
    pub fn fresh() -> Self {
        CellId(NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// The next cell id the process would allocate (checkpoint metadata).
pub(crate) fn next_cell_id() -> u64 {
    NEXT_CELL_ID.load(Ordering::Relaxed)
}

/// Raises the cell-id counter to at least `min_next`, so ids restored
/// from a checkpoint can never collide with freshly allocated ones.
pub(crate) fn ensure_next_cell_id(min_next: u64) {
    NEXT_CELL_ID.fetch_max(min_next, Ordering::Relaxed);
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// How a cell came to exist, relative to its model's parent.
///
/// Mirrors the cases of the paper's cell-wise matching degree `mc(l)`:
/// inherited (1), widened (param ratio), inserted by deepen (0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellOrigin {
    /// Present in the initial (seed) model.
    Seed,
    /// Inherited unchanged from the parent model.
    Inherited,
    /// Produced by widening a parent cell.
    Widened,
    /// Inserted as an identity cell by a deepen operation.
    Inserted,
}

/// The architectural kind of a cell, used for quick structural summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Fully connected block (`Linear` + ReLU).
    Dense,
    /// Convolutional block (`Conv2d` + ReLU).
    Conv,
    /// Self-attention block with residual MLP.
    Attention,
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellKind::Dense => write!(f, "dense"),
            CellKind::Conv => write!(f, "conv"),
            CellKind::Attention => write!(f, "attention"),
        }
    }
}

/// The minimum transformable component of a model architecture.
///
/// A `Cell` bundles a parametric layer with its activation and carries
/// the identity/lineage metadata the similarity metric needs. FedTrans
/// widens or deepens whole cells, never individual tensors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Cell {
    /// Fully connected block.
    Dense {
        /// Persistent identity for similarity matching.
        id: CellId,
        /// Provenance relative to the parent model.
        origin: CellOrigin,
        /// The linear layer.
        linear: Linear,
        /// Its ReLU activation.
        relu: Relu,
    },
    /// Convolutional block.
    Conv {
        /// Persistent identity for similarity matching.
        id: CellId,
        /// Provenance relative to the parent model.
        origin: CellOrigin,
        /// The convolution layer.
        conv: Conv2d,
        /// Its ReLU activation.
        relu: Relu,
    },
    /// Self-attention block (contains its own residual nonlinearity).
    Attention {
        /// Persistent identity for similarity matching.
        id: CellId,
        /// Provenance relative to the parent model.
        origin: CellOrigin,
        /// The attention block.
        block: AttentionBlock,
    },
}

impl Cell {
    /// Builds a dense cell with fresh identity.
    pub fn dense(rng: &mut impl rand::Rng, in_features: usize, out_features: usize) -> Self {
        Cell::Dense {
            id: CellId::fresh(),
            origin: CellOrigin::Seed,
            linear: Linear::new(rng, in_features, out_features),
            relu: Relu::new(),
        }
    }

    /// Builds a conv cell with fresh identity.
    pub fn conv(
        rng: &mut impl rand::Rng,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        height: usize,
        width: usize,
    ) -> Self {
        Cell::Conv {
            id: CellId::fresh(),
            origin: CellOrigin::Seed,
            conv: Conv2d::new(rng, in_channels, out_channels, kernel, height, width),
            relu: Relu::new(),
        }
    }

    /// Builds an attention cell with fresh identity.
    pub fn attention(rng: &mut impl rand::Rng, tokens: usize, d_model: usize, d_ff: usize) -> Self {
        Cell::Attention {
            id: CellId::fresh(),
            origin: CellOrigin::Seed,
            block: AttentionBlock::new(rng, tokens, d_model, d_ff),
        }
    }

    /// The cell's persistent identity.
    pub fn id(&self) -> CellId {
        match self {
            Cell::Dense { id, .. } | Cell::Conv { id, .. } | Cell::Attention { id, .. } => *id,
        }
    }

    /// The cell's provenance.
    pub fn origin(&self) -> CellOrigin {
        match self {
            Cell::Dense { origin, .. }
            | Cell::Conv { origin, .. }
            | Cell::Attention { origin, .. } => *origin,
        }
    }

    /// Overwrites the cell's provenance (used by the transform engine).
    pub fn set_origin(&mut self, new_origin: CellOrigin) {
        match self {
            Cell::Dense { origin, .. }
            | Cell::Conv { origin, .. }
            | Cell::Attention { origin, .. } => *origin = new_origin,
        }
    }

    /// The architectural kind.
    pub fn kind(&self) -> CellKind {
        match self {
            Cell::Dense { .. } => CellKind::Dense,
            Cell::Conv { .. } => CellKind::Conv,
            Cell::Attention { .. } => CellKind::Attention,
        }
    }

    /// Output width: features for dense cells, channels for conv cells,
    /// `tokens·d_model` for attention cells.
    pub fn out_width(&self) -> usize {
        match self {
            Cell::Dense { linear, .. } => linear.out_features(),
            Cell::Conv { conv, .. } => conv.out_channels(),
            Cell::Attention { block, .. } => block.tokens() * block.d_model(),
        }
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (geometry mismatches).
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        match self {
            Cell::Dense { linear, relu, .. } => {
                let y = linear.forward_relu(x)?;
                relu.record(&y);
                Ok(y)
            }
            Cell::Conv { conv, relu, .. } => {
                let y = conv.forward_relu(x)?;
                relu.record(&y);
                Ok(y)
            }
            Cell::Attention { block, .. } => Ok(block.forward(x)?),
        }
    }

    /// Inference forward: the arithmetic of [`Cell::forward`] with
    /// nothing cached (the cell is only borrowed).
    ///
    /// # Errors
    ///
    /// Propagates layer errors (geometry mismatches).
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        match self {
            Cell::Dense { linear, .. } => Ok(linear.infer_relu(x)?),
            Cell::Conv { conv, .. } => Ok(conv.infer_relu(x)?),
            Cell::Attention { block, .. } => Ok(block.infer(x)?),
        }
    }

    /// Checks the cell's layer geometry (see `Conv2d::validate` and its
    /// siblings) — for a cell that arrived through deserialization.
    ///
    /// # Errors
    ///
    /// [`crate::ModelError::Nn`] naming the first mismatch.
    pub fn validate(&self) -> Result<()> {
        match self {
            Cell::Dense { linear, .. } => linear.validate()?,
            Cell::Conv { conv, .. } => conv.validate()?,
            Cell::Attention { block, .. } => block.validate()?,
        }
        Ok(())
    }

    /// Floats in the largest buffer one sample may occupy on its way
    /// through this cell — the MLP activations of an attention cell,
    /// the wider side of a dense cell — which sizes how many samples an
    /// evaluation chunk may hold. A conv cell counts `C·k·k·H·W`, its
    /// patch columns, though no buffer holds them: its products read
    /// the patch matrix in place out of one sample's shifted planes,
    /// and the buffers that grow with the batch are its input and
    /// output rows, at most `max(C, out_c)·H·W`. The patch-column count
    /// is a deliberate cap: chunks sized by the real rows (9× larger for
    /// 3×3) raised `fedtrans-conv`'s peak RSS from about 34 MB to 40–47
    /// MB (docs/ARCHITECTURE.md, "Memory model").
    pub fn sample_working_floats(&self) -> usize {
        match self {
            Cell::Dense { linear, .. } => linear.in_features().max(linear.out_features()),
            Cell::Conv { conv, .. } => {
                let (h, w) = conv.spatial();
                let patch_rows = conv.in_channels() * conv.kernel() * conv.kernel();
                patch_rows.max(conv.out_channels()) * h * w
            }
            Cell::Attention { block, .. } => block.tokens() * block.d_model().max(block.d_ff()),
        }
    }

    /// Backward pass; accumulates parameter gradients, returns `dX`.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (missing forward cache).
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        match self {
            Cell::Dense { linear, relu, .. } => {
                let dz = relu.backward(dy)?;
                Ok(linear.backward(&dz)?)
            }
            Cell::Conv { conv, relu, .. } => {
                let dz = relu.backward(dy)?;
                Ok(conv.backward(&dz)?)
            }
            Cell::Attention { block, .. } => Ok(block.backward(dy)?),
        }
    }

    /// [`Cell::backward`] without `dX`: accumulates parameter gradients
    /// only, as the first cell of a network does.
    ///
    /// # Errors
    ///
    /// As [`Cell::backward`].
    pub fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        match self {
            Cell::Dense { linear, relu, .. } => Ok(linear.backward_params(&relu.backward(dy)?)?),
            Cell::Conv { conv, relu, .. } => Ok(conv.backward_params(&relu.backward(dy)?)?),
            Cell::Attention { block, .. } => Ok(block.backward_params(dy)?),
        }
    }

    /// Fills the gradients with zeros.
    pub fn zero_grad(&mut self) {
        match self {
            Cell::Dense { linear, .. } => linear.zero_grad(),
            Cell::Conv { conv, .. } => conv.zero_grad(),
            Cell::Attention { block, .. } => block.zero_grad(),
        }
    }

    /// Immutable references to every parameter tensor in layer order.
    pub fn param_tensors(&self) -> Vec<&Tensor> {
        match self {
            Cell::Dense { linear, .. } => vec![linear.weight(), linear.bias()],
            Cell::Conv { conv, .. } => vec![conv.weight(), conv.bias()],
            Cell::Attention { block, .. } => block.weights().to_vec(),
        }
    }

    /// Mutable references to every parameter tensor in layer order.
    pub fn param_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Cell::Dense { linear, .. } => {
                let (w, b) = linear.params_mut();
                vec![w, b]
            }
            Cell::Conv { conv, .. } => {
                let (w, b) = conv.params_mut();
                vec![w, b]
            }
            Cell::Attention { block, .. } => block.weights_mut().into_iter().collect(),
        }
    }

    /// Visits `(mutable parameter, gradient)` pairs in layer order —
    /// same sequence as [`Cell::param_tensors_mut`] zipped with
    /// [`Cell::grad_tensors`], without materializing either vector.
    pub fn for_each_param_and_grad(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        match self {
            Cell::Dense { linear, .. } => linear.for_each_param_and_grad(f),
            Cell::Conv { conv, .. } => conv.for_each_param_and_grad(f),
            Cell::Attention { block, .. } => block.for_each_param_and_grad(f),
        }
    }

    /// Immutable references to every gradient tensor in layer order.
    pub fn grad_tensors(&self) -> Vec<&Tensor> {
        match self {
            Cell::Dense { linear, .. } => vec![linear.grad_weight(), linear.grad_bias()],
            Cell::Conv { conv, .. } => vec![conv.grad_weight(), conv.grad_bias()],
            Cell::Attention { block, .. } => block.grads().iter().collect(),
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.param_tensors().iter().map(|t| t.len()).sum()
    }

    /// Multiply-accumulate operations for one sample.
    pub fn macs_per_sample(&self) -> u64 {
        match self {
            Cell::Dense { linear, .. } => linear.macs_per_sample(),
            Cell::Conv { conv, .. } => conv.macs_per_sample(),
            Cell::Attention { block, .. } => block.macs_per_sample(),
        }
    }

    /// Euclidean norm of all weights, used to normalize activeness.
    pub fn weight_norm(&self) -> f32 {
        self.param_tensors()
            .iter()
            .map(|t| {
                let n = t.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fresh_ids_are_unique() {
        let a = CellId::fresh();
        let b = CellId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn dense_cell_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut cell = Cell::dense(&mut rng, 4, 8);
        assert_eq!(cell.kind(), CellKind::Dense);
        assert_eq!(cell.out_width(), 8);
        let y = cell.forward(&Tensor::ones(&[2, 4])).unwrap();
        assert_eq!(y.shape().dims(), &[2, 8]);
        let dx = cell.backward(&Tensor::ones(&[2, 8])).unwrap();
        assert_eq!(dx.shape().dims(), &[2, 4]);
    }

    #[test]
    fn param_count_matches_tensors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cell = Cell::conv(&mut rng, 2, 4, 3, 5, 5);
        assert_eq!(cell.param_count(), 4 * 2 * 9 + 4);
    }

    #[test]
    fn param_tensors_mut_are_disjoint() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut cell = Cell::dense(&mut rng, 2, 2);
        let mut params = cell.param_tensors_mut();
        // Write through both references; must not alias.
        params[0].data_mut()[0] = 42.0;
        params[1].data_mut()[0] = 7.0;
        assert_eq!(cell.param_tensors()[0].data()[0], 42.0);
        assert_eq!(cell.param_tensors()[1].data()[0], 7.0);
    }
}
