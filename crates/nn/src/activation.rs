use serde::{Deserialize, Serialize};

use ft_tensor::{scratch, Tensor};

use crate::{NnError, Result};

/// Rectified linear unit with cached activation mask.
///
/// All FedTrans cells use ReLU; its non-negativity is what makes the
/// identity-initialized deepen transformation function-preserving
/// (`relu(I · relu(x)) = relu(x)`).
///
/// The mask buffer is owned by the layer and refilled in place every
/// forward pass, so the steady-state train step performs no mask
/// allocation after the first step.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    mask: Vec<bool>,
    #[serde(skip)]
    mask_valid: bool,
}

impl Relu {
    /// Creates a new ReLU layer.
    pub fn new() -> Self {
        Relu {
            mask: Vec::new(),
            mask_valid: false,
        }
    }

    /// Applies `max(0, x)` element-wise and caches the activation mask.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.mask.clear();
        self.mask.extend(x.data().iter().map(|&v| v > 0.0));
        self.mask_valid = true;
        self.infer(x)
    }

    /// Applies `max(0, x)` element-wise without touching the mask.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        x.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    /// Routes gradients through the cached mask.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before
    /// [`Relu::forward`], or [`NnError::BadInput`] if `dy` has a different
    /// element count than the cached input.
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        if !self.mask_valid {
            return Err(NnError::MissingForwardCache { layer: "Relu" });
        }
        if self.mask.len() != dy.len() {
            return Err(NnError::BadInput {
                layer: "Relu",
                detail: format!("mask len {} vs grad len {}", self.mask.len(), dy.len()),
            });
        }
        self.mask_valid = false;
        // Every slot is written exactly once, so unzeroed scratch is safe.
        let mut data = scratch::take(dy.len());
        for ((o, &g), &m) in data.iter_mut().zip(dy.data()).zip(&self.mask) {
            *o = if m { g } else { 0.0 };
        }
        Ok(Tensor::from_vec(data, dy.shape().dims())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap());
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        r.forward(&Tensor::from_vec(vec![-1.0, 3.0], &[2]).unwrap());
        let dx = r
            .backward(&Tensor::from_vec(vec![5.0, 5.0], &[2]).unwrap())
            .unwrap();
        assert_eq!(dx.data(), &[0.0, 5.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = Relu::new();
        assert!(r.backward(&Tensor::zeros(&[2])).is_err());
        // A consumed mask cannot be reused either.
        r.forward(&Tensor::ones(&[2]));
        r.backward(&Tensor::ones(&[2])).unwrap();
        assert!(r.backward(&Tensor::ones(&[2])).is_err());
    }

    #[test]
    fn relu_is_idempotent() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.5, 2.0], &[4]).unwrap();
        let once = r.forward(&x);
        let twice = r.forward(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn mask_buffer_is_reused_across_steps() {
        let mut r = Relu::new();
        r.forward(&Tensor::ones(&[64]));
        r.backward(&Tensor::ones(&[64])).unwrap();
        let cap = r.mask.capacity();
        r.forward(&Tensor::ones(&[64]));
        assert_eq!(r.mask.capacity(), cap, "mask must refill in place");
    }
}
