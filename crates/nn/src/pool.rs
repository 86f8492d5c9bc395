use serde::{Deserialize, Serialize};

use ft_tensor::Tensor;

use crate::{NnError, Result};

/// Global average pooling from `[batch, C·H·W]` to `[batch, C]`.
///
/// Sits between the last conv cell and the classifier head, so the
/// classifier's input width tracks the channel count of the final cell —
/// exactly the coupling FedTrans's widen operation must repair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalAvgPool {
    channels: usize,
    spatial: usize,
    #[serde(skip)]
    cached_batch: Option<usize>,
}

impl GlobalAvgPool {
    /// Creates a pool over `channels` planes of `height·width` elements.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        GlobalAvgPool {
            channels,
            spatial: height * width,
            cached_batch: None,
        }
    }

    /// Number of channels the pool expects.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Updates the channel count after the preceding cell was widened.
    pub fn set_channels(&mut self, channels: usize) {
        self.channels = channels;
        self.cached_batch = None;
    }

    /// Averages each channel plane.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the input width is not
    /// `channels·spatial`.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let out = self.infer(x)?;
        self.cached_batch = Some(x.rows()?);
        Ok(out)
    }

    /// [`GlobalAvgPool::forward`] without recording the batch size for
    /// a backward pass.
    ///
    /// # Errors
    ///
    /// As [`GlobalAvgPool::forward`].
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let batch = x.rows()?;
        if x.cols()? != self.channels * self.spatial {
            return Err(NnError::BadInput {
                layer: "GlobalAvgPool",
                detail: format!(
                    "expected {}x{} values per sample, got {}",
                    self.channels,
                    self.spatial,
                    x.cols()?
                ),
            });
        }
        // Scratch-pooled; every slot is written exactly once.
        let mut out = ft_tensor::scratch::take(batch * self.channels);
        for s in 0..batch {
            for c in 0..self.channels {
                let start = s * self.channels * self.spatial + c * self.spatial;
                let sum: f32 = x.data()[start..start + self.spatial].iter().sum();
                out[s * self.channels + c] = sum / self.spatial as f32;
            }
        }
        Ok(Tensor::from_vec(out, &[batch, self.channels])?)
    }

    /// Spreads each channel gradient uniformly over its plane.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before
    /// [`GlobalAvgPool::forward`].
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let batch = self
            .cached_batch
            .take()
            .ok_or(NnError::MissingForwardCache {
                layer: "GlobalAvgPool",
            })?;
        // Scratch-pooled; every plane segment is filled below.
        let mut out = ft_tensor::scratch::take(batch * self.channels * self.spatial);
        let inv = 1.0 / self.spatial as f32;
        for s in 0..batch {
            for c in 0..self.channels {
                let g = dy.data()[s * self.channels + c] * inv;
                let start = (s * self.channels + c) * self.spatial;
                out[start..start + self.spatial].fill(g);
            }
        }
        Ok(Tensor::from_vec(
            out,
            &[batch, self.channels * self.spatial],
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_averages_planes() {
        let mut p = GlobalAvgPool::new(2, 2, 2);
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0], &[1, 8]).unwrap();
        let y = p.forward(&x).unwrap();
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn backward_spreads_uniformly() {
        let mut p = GlobalAvgPool::new(1, 2, 2);
        p.forward(&Tensor::ones(&[1, 4])).unwrap();
        let dx = p
            .backward(&Tensor::from_vec(vec![4.0], &[1, 1]).unwrap())
            .unwrap();
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn rejects_bad_width() {
        let mut p = GlobalAvgPool::new(2, 2, 2);
        assert!(p.forward(&Tensor::ones(&[1, 7])).is_err());
    }
}
