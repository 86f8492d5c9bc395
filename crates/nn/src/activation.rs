use serde::{Deserialize, Serialize};

use ft_tensor::{scratch, Tensor};

use crate::{NnError, Result};

/// The backward half of a rectified linear unit.
///
/// All FedTrans cells use ReLU; its non-negativity is what makes the
/// identity-initialized deepen transformation function-preserving
/// (`relu(I · relu(x)) = relu(x)`).
///
/// The forward half is not a pass of its own: the product that feeds
/// the ReLU applies it to each finished sum as it stores them
/// ([`crate::Linear::forward_relu`], [`crate::Conv2d::forward_relu`]),
/// and this layer records the mask from that output, `y > 0`, which is
/// where the pre-activation was `> 0` (a NaN pre-activation stores
/// `+0.0`, masked like a negative one).
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

    /// Records the activation mask of `y`, an output the ReLU has
    /// already been applied to.
    pub fn record(&mut self, y: &Tensor) {
        ft_tensor::work::count(|w| w.passes += y.len());
        self.mask.clear();
        self.mask.extend(y.data().iter().map(|&v| v > 0.0));
        self.mask_valid = true;
    }

    /// Routes gradients through the recorded mask.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before
    /// [`Relu::record`], or [`NnError::BadInput`] if `dy` has a different
    /// element count than the recorded output.
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
        ft_tensor::work::count(|w| w.passes += dy.len());
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
    use crate::Linear;

    /// A dense cell's forward whose pre-activation is `x`, carried by
    /// the bias: `relu(0 · I + x)`.
    fn activate(r: &mut Relu, x: &[f32]) -> Tensor {
        let bias = Tensor::from_vec(x.to_vec(), &[x.len()]).unwrap();
        let mut l = Linear::from_params(Tensor::eye(x.len()), bias);
        let y = l.forward_relu(&Tensor::zeros(&[1, x.len()])).unwrap();
        r.record(&y);
        y
    }

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = activate(&mut r, &[-1.0, 0.0, 2.0, -0.0, f32::NAN]);
        let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0.0f32, 0.0, 2.0, 0.0, 0.0].map(f32::to_bits));
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        activate(&mut r, &[-1.0, 3.0, f32::NAN]);
        let dx = r
            .backward(&Tensor::from_vec(vec![5.0, 5.0, 5.0], &[1, 3]).unwrap())
            .unwrap();
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = Relu::new();
        assert!(r.backward(&Tensor::zeros(&[2])).is_err());
        // A consumed mask cannot be reused either.
        r.record(&Tensor::ones(&[2]));
        r.backward(&Tensor::ones(&[2])).unwrap();
        assert!(r.backward(&Tensor::ones(&[2])).is_err());
    }

    #[test]
    fn relu_is_idempotent() {
        let mut r = Relu::new();
        let once = activate(&mut r, &[-2.0, -0.5, 0.5, 2.0]);
        let twice = activate(&mut r, once.data());
        assert_eq!(once, twice);
    }

    #[test]
    fn mask_buffer_is_reused_across_steps() {
        let mut r = Relu::new();
        r.record(&Tensor::ones(&[64]));
        r.backward(&Tensor::ones(&[64])).unwrap();
        let cap = r.mask.capacity();
        r.record(&Tensor::ones(&[64]));
        assert_eq!(r.mask.capacity(), cap, "mask must refill in place");
    }
}
