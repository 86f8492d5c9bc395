use serde::{Deserialize, Serialize};

use ft_nn::{GlobalAvgPool, Linear};
use ft_tensor::Tensor;

use crate::{ModelError, Result};

/// The classification head terminating a [`crate::CellModel`].
///
/// Heads are not transformable cells, but widening the final cell of the
/// body changes the head's input width, so the transform engine patches
/// head weights with the same Net2Wider rule it applies between cells.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Head {
    /// `Linear` classifier over a flat feature vector (dense bodies).
    Classifier {
        /// The linear classifier layer.
        linear: Linear,
    },
    /// Global-average-pool over channels, then a classifier (conv bodies).
    PoolClassifier {
        /// The pooling layer reducing `[B, C·H·W]` to `[B, C]`.
        pool: GlobalAvgPool,
        /// The linear classifier layer.
        linear: Linear,
    },
    /// Mean over tokens, then a classifier (attention bodies).
    TokenMeanClassifier {
        /// Token count of the incoming sequence.
        tokens: usize,
        /// Embedding dimension per token.
        d_model: usize,
        /// The linear classifier layer.
        linear: Linear,
        /// Batch size cached by the last forward pass.
        #[serde(skip)]
        cached_batch: Option<usize>,
    },
}

impl Head {
    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.linear().out_features()
    }

    /// The classifier layer.
    pub fn linear(&self) -> &Linear {
        match self {
            Head::Classifier { linear }
            | Head::PoolClassifier { linear, .. }
            | Head::TokenMeanClassifier { linear, .. } => linear,
        }
    }

    /// Mutable classifier layer (transform engine entry point).
    pub fn linear_mut(&mut self) -> &mut Linear {
        match self {
            Head::Classifier { linear }
            | Head::PoolClassifier { linear, .. }
            | Head::TokenMeanClassifier { linear, .. } => linear,
        }
    }

    /// Updates the pooled channel count after the last body cell widened.
    pub fn set_input_channels(&mut self, channels: usize) {
        if let Head::PoolClassifier { pool, .. } = self {
            pool.set_channels(channels);
        }
    }

    /// Forward pass producing logits.
    ///
    /// # Errors
    ///
    /// Propagates layer geometry errors.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        match self {
            Head::Classifier { linear } => Ok(linear.forward(x)?),
            Head::PoolClassifier { pool, linear } => {
                let pooled = pool.forward(x)?;
                Ok(linear.forward(&pooled)?)
            }
            Head::TokenMeanClassifier {
                tokens,
                d_model,
                linear,
                cached_batch,
            } => {
                let pooled = token_mean(x, *tokens, *d_model)?;
                *cached_batch = Some(x.rows()?);
                Ok(linear.forward(&pooled)?)
            }
        }
    }

    /// Inference forward: the arithmetic of [`Head::forward`] with
    /// nothing cached (the head is only borrowed).
    ///
    /// # Errors
    ///
    /// Propagates layer geometry errors.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        match self {
            Head::Classifier { linear } => Ok(linear.infer(x)?),
            Head::PoolClassifier { pool, linear } => Ok(linear.infer(&pool.infer(x)?)?),
            Head::TokenMeanClassifier {
                tokens,
                d_model,
                linear,
                ..
            } => Ok(linear.infer(&token_mean(x, *tokens, *d_model)?)?),
        }
    }

    /// Backward pass from logits gradient back to the body.
    ///
    /// # Errors
    ///
    /// Propagates missing-cache errors from the layers.
    pub fn backward(&mut self, dlogits: &Tensor) -> Result<Tensor> {
        match self {
            Head::Classifier { linear } => Ok(linear.backward(dlogits)?),
            Head::PoolClassifier { pool, linear } => {
                let dpool = linear.backward(dlogits)?;
                Ok(pool.backward(&dpool)?)
            }
            Head::TokenMeanClassifier {
                tokens,
                d_model,
                linear,
                cached_batch,
            } => {
                let batch = cached_batch
                    .take()
                    .ok_or(ft_nn::NnError::MissingForwardCache {
                        layer: "TokenMeanHead",
                    })?;
                let dpool = linear.backward(dlogits)?;
                let t = *tokens;
                let d = *d_model;
                let inv = 1.0 / t as f32;
                // Scratch-pooled; every slot is written exactly once.
                let mut dx = ft_tensor::scratch::take(batch * t * d);
                for s in 0..batch {
                    for tok in 0..t {
                        for j in 0..d {
                            dx[(s * t + tok) * d + j] = dpool.data()[s * d + j] * inv;
                        }
                    }
                }
                Ok(Tensor::from_vec(dx, &[batch, t * d])?)
            }
        }
    }

    /// Fills the gradients with zeros.
    pub fn zero_grad(&mut self) {
        self.linear_mut().zero_grad();
    }

    /// Visits `(mutable parameter, gradient)` pairs in layer order.
    pub fn for_each_param_and_grad(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        self.linear_mut().for_each_param_and_grad(f);
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.linear().param_count()
    }

    /// Multiply-accumulate operations for one sample.
    pub fn macs_per_sample(&self) -> u64 {
        self.linear().macs_per_sample()
    }
}

/// Mean over the `t` tokens of each `[t, d]` sample: `[batch, t·d]` to
/// `[batch, d]`.
fn token_mean(x: &Tensor, t: usize, d: usize) -> Result<Tensor> {
    let batch = x.rows()?;
    if x.cols()? != t * d {
        return Err(ModelError::InvalidTransform {
            detail: format!("token head expected {t}x{d} inputs, got {}", x.cols()?),
        });
    }
    // Scratch-pooled; every slot is written exactly once.
    let mut pooled = ft_tensor::scratch::take(batch * d);
    for s in 0..batch {
        for j in 0..d {
            let mut acc = 0.0f32;
            for tok in 0..t {
                acc += x.data()[s * t * d + tok * d + j];
            }
            pooled[s * d + j] = acc / t as f32;
        }
    }
    Ok(Tensor::from_vec(pooled, &[batch, d])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn classifier_head_forwards() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut head = Head::Classifier {
            linear: Linear::new(&mut rng, 4, 3),
        };
        let y = head.forward(&Tensor::ones(&[2, 4])).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(head.classes(), 3);
    }

    #[test]
    fn pool_head_reduces_channels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut head = Head::PoolClassifier {
            pool: GlobalAvgPool::new(2, 2, 2),
            linear: Linear::new(&mut rng, 2, 3),
        };
        let y = head.forward(&Tensor::ones(&[1, 8])).unwrap();
        assert_eq!(y.shape().dims(), &[1, 3]);
    }

    #[test]
    fn token_head_averages_tokens() {
        let mut head = Head::TokenMeanClassifier {
            tokens: 2,
            d_model: 2,
            linear: Linear::identity(2),
            cached_batch: None,
        };
        // Two tokens [1,2] and [3,4] -> mean [2,3] -> identity classifier.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let y = head.forward(&x).unwrap();
        assert_eq!(y.data(), &[2.0, 3.0]);
    }

    #[test]
    fn token_head_backward_spreads_gradient() {
        let mut head = Head::TokenMeanClassifier {
            tokens: 2,
            d_model: 2,
            linear: Linear::identity(2),
            cached_batch: None,
        };
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        head.forward(&x).unwrap();
        let dx = head
            .backward(&Tensor::from_vec(vec![2.0, 4.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(dx.data(), &[1.0, 2.0, 1.0, 2.0]);
    }
}
