use std::fmt;

use ft_tensor::{Tensor, TensorError};

/// Error raised by NN layers, losses, and optimizers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A tensor operation inside the layer failed.
    Tensor(TensorError),
    /// `backward` was called before `forward` populated the cache.
    MissingForwardCache {
        /// Name of the layer reporting the problem.
        layer: &'static str,
    },
    /// An input did not have the geometry the layer was configured for.
    BadInput {
        /// Name of the layer reporting the problem.
        layer: &'static str,
        /// Human-readable description of the expectation that failed.
        detail: String,
    },
    /// Label vector length did not match the batch size.
    LabelMismatch {
        /// Rows in the logits matrix.
        batch: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// A label index was outside the class range.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes in the logits.
        classes: usize,
    },
    /// Optimizer state does not match the parameter set it is applied to.
    OptimizerStateMismatch {
        /// Number of parameter tensors expected.
        expected: usize,
        /// Number provided.
        actual: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::MissingForwardCache { layer } => {
                write!(f, "backward called before forward on {layer}")
            }
            NnError::BadInput { layer, detail } => write!(f, "bad input to {layer}: {detail}"),
            NnError::LabelMismatch { batch, labels } => {
                write!(f, "{labels} labels supplied for a batch of {batch}")
            }
            NnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::OptimizerStateMismatch { expected, actual } => {
                write!(
                    f,
                    "optimizer state holds {expected} tensors, applied to {actual}"
                )
            }
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

/// [`NnError::BadInput`] unless `tensor` (the layer's `what`) has shape
/// `dims` — the geometry check a deserialized layer gets before use.
pub(crate) fn expect_shape(
    layer: &'static str,
    what: &str,
    tensor: &Tensor,
    dims: &[usize],
) -> Result<(), NnError> {
    if tensor.shape().dims() == dims {
        return Ok(());
    }
    Err(NnError::BadInput {
        layer,
        detail: format!(
            "{what} has shape {:?}, expected {dims:?}",
            tensor.shape().dims()
        ),
    })
}
