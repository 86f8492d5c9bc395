use serde::{Deserialize, Serialize};

use ft_tensor::{he_normal, Tensor};

use crate::error::expect_shape;
use crate::{grad_for, NnError, Result};

/// A fully connected layer `y = x W + b`.
///
/// Weights are stored as `[in_features, out_features]` so that widening a
/// layer's output appends columns and widening its input appends rows —
/// the layout FedTrans's Net2Net surgery manipulates directly.
///
/// ```
/// use ft_nn::Linear;
/// use ft_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut l = Linear::new(&mut rng, 3, 2);
/// let y = l.forward(&Tensor::ones(&[1, 3]))?;
/// assert_eq!(y.shape().dims(), &[1, 2]);
/// # Ok::<(), ft_nn::NnError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    #[serde(skip)]
    grad_weight: Tensor,
    #[serde(skip)]
    grad_bias: Tensor,
    #[serde(skip)]
    cache_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with He-normal weights and zero bias.
    pub fn new(rng: &mut impl rand::Rng, in_features: usize, out_features: usize) -> Self {
        let weight = he_normal(rng, &[in_features, out_features], in_features);
        Linear::from_params(weight, Tensor::zeros(&[out_features]))
    }

    /// Creates a layer from explicit parameters (used by model surgery).
    pub fn from_params(weight: Tensor, bias: Tensor) -> Self {
        Linear {
            weight,
            bias,
            grad_weight: Tensor::default(),
            grad_bias: Tensor::default(),
            cache_input: None,
        }
    }

    /// Creates the identity layer (`W = I`, `b = 0`), used when deepening.
    pub fn identity(features: usize) -> Self {
        Linear::from_params(Tensor::eye(features), Tensor::zeros(&[features]))
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.shape().dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.shape().dims()[1]
    }

    /// The weight matrix `[in, out]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight matrix (model surgery entry point).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The weight gradient the last backward stored (empty before the
    /// first).
    pub fn grad_weight(&self) -> &Tensor {
        &self.grad_weight
    }

    /// The bias gradient the last backward stored (empty before the
    /// first).
    pub fn grad_bias(&self) -> &Tensor {
        &self.grad_bias
    }

    /// Simultaneous mutable access to weight and bias (disjoint fields).
    pub fn params_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.weight, &mut self.bias)
    }

    /// Visits `(mutable parameter, gradient)` pairs in layer order —
    /// the streaming form optimizer cursors consume without building
    /// reference vectors or cloning gradients.
    pub fn for_each_param_and_grad(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.weight, &self.grad_weight);
        f(&mut self.bias, &self.grad_bias);
    }

    /// Replaces both parameter tensors.
    pub fn set_params(&mut self, weight: Tensor, bias: Tensor) {
        self.weight = weight;
        self.bias = bias;
        self.cache_input = None;
    }

    /// Fills the gradients with zeros in place (no reallocation).
    pub fn zero_grad(&mut self) {
        ft_tensor::work::count(|w| w.passes += self.grad_weight.len() + self.grad_bias.len());
        self.grad_weight.data_mut().fill(0.0);
        self.grad_bias.data_mut().fill(0.0);
    }

    /// Checks what a deserialized layer was never checked for: a
    /// matrix weight `[in, out]` and bias `[out]`.
    ///
    /// # Errors
    ///
    /// [`NnError::BadInput`] naming the first mismatch.
    pub fn validate(&self) -> Result<()> {
        let &[_, fan_out] = self.weight.shape().dims() else {
            return Err(NnError::BadInput {
                layer: "Linear",
                detail: format!(
                    "weight has shape {:?}, expected a matrix",
                    self.weight.shape().dims()
                ),
            });
        };
        expect_shape("Linear", "bias", &self.bias, &[fan_out])
    }

    /// Forward pass over a `[batch, in]` matrix: `x W + b`, the bias
    /// added in the product's store. The input is cached for `dW`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the input width differs from
    /// `in_features`.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let y = self.infer(x)?;
        self.cache(x);
        Ok(y)
    }

    /// [`Linear::forward`] followed by a ReLU in the same store,
    /// `relu(x W + b)`: a dense cell's forward, with no pass over the
    /// output afterwards.
    ///
    /// # Errors
    ///
    /// As [`Linear::forward`].
    pub fn forward_relu(&mut self, x: &Tensor) -> Result<Tensor> {
        let y = self.infer_relu(x)?;
        self.cache(x);
        Ok(y)
    }

    fn cache(&mut self, x: &Tensor) {
        ft_tensor::work::count(|w| w.passes += x.len());
        self.cache_input = Some(x.clone());
    }

    /// Inference forward: the arithmetic of [`Linear::forward`] with
    /// nothing cached, so the layer can be shared across threads.
    ///
    /// # Errors
    ///
    /// As [`Linear::forward`].
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        self.check_input(x)?;
        Ok(x.matmul_bias(&self.weight, &self.bias)?)
    }

    /// Inference forward of [`Linear::forward_relu`].
    ///
    /// # Errors
    ///
    /// As [`Linear::forward`].
    pub fn infer_relu(&self, x: &Tensor) -> Result<Tensor> {
        self.check_input(x)?;
        Ok(x.matmul_bias_relu(&self.weight, &self.bias)?)
    }

    fn check_input(&self, x: &Tensor) -> Result<()> {
        if x.cols().map_err(NnError::from)? != self.in_features() {
            return Err(NnError::BadInput {
                layer: "Linear",
                detail: format!(
                    "expected {} input features, got {:?}",
                    self.in_features(),
                    x.shape().dims()
                ),
            });
        }
        Ok(())
    }

    /// Backward pass; stores `dW`, `db` and returns `dX = dY Wᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before
    /// [`Linear::forward`].
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        self.backward_params(dy)?;
        Ok(dy.matmul_t(&self.weight)?)
    }

    /// [`Linear::backward`] without `dX`: stores `dW` and `db` only —
    /// the backward of a network's first layer, whose input gradient
    /// nothing reads.
    ///
    /// Both are stored over the gradients in the tile's store, `Xᵀ dY`
    /// and `1ᵀ dY`, with neither computed separately. Each sum starts at
    /// `+0.0` and so is never `−0.0`: the bits adding it onto a zeroed
    /// gradient would give.
    ///
    /// # Errors
    ///
    /// As [`Linear::backward`].
    pub fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        let x = self
            .cache_input
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Linear" })?;
        x.t_matmul_into(dy, grad_for(&mut self.grad_weight, &self.weight))?;
        dy.sum_rows_into(grad_for(&mut self.grad_bias, &self.bias))?;
        Ok(())
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Multiply-accumulate operations for one sample through this layer.
    pub fn macs_per_sample(&self) -> u64 {
        (self.in_features() * self.out_features()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut l = Linear::from_params(
            Tensor::eye(2),
            Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap(),
        );
        let y = l
            .forward(&Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(y.data(), &[3.0, 2.0]);
    }

    #[test]
    fn rejects_wrong_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 3, 2);
        assert!(l.forward(&Tensor::zeros(&[1, 4])).is_err());
    }

    #[test]
    fn backward_needs_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Linear::new(&mut rng, 3, 2);
        assert!(l.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check on a scalar loss L = sum(y).
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut l = Linear::new(&mut rng, 3, 2);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]).unwrap();
        let y = l.forward(&x).unwrap();
        let dy = Tensor::ones(y.shape().dims());
        l.backward(&dy).unwrap();
        let analytic = l.grad_weight().clone();

        let eps = 1e-3f32;
        for idx in 0..l.weight().len() {
            let orig = l.weight().data()[idx];
            l.weight_mut().data_mut()[idx] = orig + eps;
            let yp = l.forward(&x).unwrap().sum();
            l.weight_mut().data_mut()[idx] = orig - eps;
            let ym = l.forward(&x).unwrap().sum();
            l.weight_mut().data_mut()[idx] = orig;
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 1e-2,
                "idx {idx}: numeric {numeric} vs analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn backward_params_accumulates_what_backward_does() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut full = Linear::new(&mut rng, 5, 3);
        let mut fast = full.clone();
        let x = ft_tensor::uniform(&mut rng, &[4, 5], -1.0, 1.0);
        let dy = ft_tensor::uniform(&mut rng, &[4, 3], -1.0, 1.0);
        full.forward(&x).unwrap();
        full.backward(&dy).unwrap();
        fast.forward(&x).unwrap();
        fast.backward_params(&dy).unwrap();
        assert_eq!(fast.grad_weight(), full.grad_weight());
        assert_eq!(fast.grad_bias(), full.grad_bias());
        assert!(fast.backward_params(&dy).is_err(), "the cache is consumed");
    }

    #[test]
    fn identity_layer_is_identity() {
        let mut l = Linear::identity(4);
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[1, 4]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn a_backward_stores_over_the_gradients_it_holds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut l = Linear::new(&mut rng, 2, 2);
        assert!(l.grad_weight().is_empty(), "a new layer holds no gradient");
        let x = Tensor::ones(&[1, 2]);
        let mut step = || {
            let y = l.forward(&x).unwrap();
            l.backward(&Tensor::ones(y.shape().dims())).unwrap();
            (l.grad_weight().clone(), l.grad_bias().clone())
        };
        let once = step();
        assert_eq!(once.1.data(), &[1.0, 1.0]);
        assert_eq!(step(), once, "a second backward stores, not adds");
    }
}
