//! Neural-network substrate for the FedTrans reproduction.
//!
//! Provides the layers FedTrans cells are built from ([`Linear`],
//! [`Conv2d`], [`Relu`], [`GlobalAvgPool`], attention primitives), the
//! softmax cross-entropy loss, and the optimizers used in the paper's
//! evaluation ([`Sgd`] for clients, with a proximal step for FedProx;
//! [`Yogi`] for FedYogi server updates).
//!
//! Every layer performs explicit forward/backward passes with owned
//! caches — no tape autodiff — because FedTrans needs direct access to
//! per-layer weights and gradients for its activeness metric and its
//! function-preserving surgery. Each layer also has an `infer(&self)`
//! forward with the same arithmetic and no cache, which evaluation
//! uses so that one model can be borrowed by every evaluation thread.
//!
//! # Example
//!
//! ```
//! use ft_nn::{Linear, softmax_cross_entropy};
//! use ft_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut layer = Linear::new(&mut rng, 4, 3);
//! let x = Tensor::zeros(&[2, 4]);
//! let logits = layer.forward(&x)?;
//! let (loss, _dlogits) = softmax_cross_entropy(&logits, &[0, 2])?;
//! assert!(loss >= 0.0);
//! # Ok::<(), ft_nn::NnError>(())
//! ```

// Every `unsafe` in the workspace lives in `ft_tensor` (docs/LINTS.md).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::missing_panics_doc))]

mod activation;
mod attention;
mod conv;
mod error;
mod linear;
mod loss;
mod optim;
mod pool;

pub use activation::Relu;
pub use attention::AttentionBlock;
pub use conv::Conv2d;
pub use error::NnError;
pub use linear::Linear;
pub use loss::{accuracy, correct_count, softmax, softmax_cross_entropy};
pub use optim::{Sgd, SgdStep, Yogi};
pub use pool::GlobalAvgPool;

use ft_tensor::Tensor;

/// Convenience alias for results produced by NN operations.
pub type Result<T> = std::result::Result<T, NnError>;

/// The gradient `grad` of `param`, for a backward to store over: kept
/// when it has `param`'s shape, else replaced by one that has (a new or
/// restored layer holds none, and model surgery leaves a stale shape).
fn grad_for<'a>(grad: &'a mut Tensor, param: &Tensor) -> &'a mut Tensor {
    if grad.shape() != param.shape() {
        *grad = Tensor::zeros(param.shape().dims());
    }
    grad
}

#[cfg(test)]
mod smoke {
    use super::Linear;
    use ft_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn core_type_constructs_and_round_trips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut layer = Linear::new(&mut rng, 4, 3);
        let y = layer.forward(&Tensor::ones(&[2, 4])).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        let dx = layer.backward(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(dx.shape().dims(), &[2, 4]);
    }
}
