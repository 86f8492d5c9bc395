use serde::{Deserialize, Serialize};

use ft_tensor::{he_normal, ConvGeometry, Tensor};

use crate::error::expect_shape;
use crate::{grad_for, NnError, Result};

/// A same-padded, stride-1 2-D convolution over `[batch, C·H·W]` inputs.
///
/// The weight is stored as a `[out_channels, in_channels·k·k]` matrix so
/// convolution reduces to a GEMM against the input's patch matrix, and
/// — more importantly for FedTrans — so that widening the layer's
/// output duplicates *rows* and widening its input duplicates
/// contiguous *column blocks* of `k·k` entries per input channel.
/// Spatial geometry `(height, width)` is fixed at construction; all
/// FedTrans conv cells preserve spatial dims.
///
/// Every product reads its operands in place ([`ConvGeometry`]): a
/// sample's patch matrix is a set of contiguous runs of `k`
/// column-shifted copies of each input plane, built per sample, so no
/// `[C·k·k, batch·H·W]` matrix is ever written. The layer caches only
/// its input. The forward stores straight into `[batch, out_c·H·W]`
/// with the bias added as it stores; `dW` is one product over the whole
/// batch; `dX` sums its taps in the GEMM epilogue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    height: usize,
    width: usize,
    weight: Tensor,
    bias: Tensor,
    #[serde(skip)]
    grad_weight: Tensor,
    #[serde(skip)]
    grad_bias: Tensor,
    #[serde(skip)]
    cache_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even (same padding requires odd kernels).
    pub fn new(
        rng: &mut impl rand::Rng,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        height: usize,
        width: usize,
    ) -> Self {
        assert!(
            kernel % 2 == 1,
            "same-padded convolution requires an odd kernel"
        );
        let fan_in = in_channels * kernel * kernel;
        let weight = he_normal(rng, &[out_channels, fan_in], fan_in);
        Conv2d::from_params(
            weight,
            Tensor::zeros(&[out_channels]),
            in_channels,
            kernel,
            height,
            width,
        )
    }

    /// Creates a convolution from explicit parameters (model surgery).
    ///
    /// # Panics
    ///
    /// Panics if the weight shape does not match
    /// `[out_channels, in_channels·k·k]`.
    pub fn from_params(
        weight: Tensor,
        bias: Tensor,
        in_channels: usize,
        kernel: usize,
        height: usize,
        width: usize,
    ) -> Self {
        let out_channels = weight.shape().dims()[0];
        assert_eq!(
            weight.shape().dims()[1],
            in_channels * kernel * kernel,
            "conv weight columns must equal in_channels*k*k"
        );
        assert_eq!(
            bias.len(),
            out_channels,
            "bias must have one entry per output channel"
        );
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            height,
            width,
            weight,
            bias,
            grad_weight: Tensor::default(),
            grad_bias: Tensor::default(),
            cache_input: None,
        }
    }

    /// Creates an identity convolution (`k×k` kernel with a centred 1 on
    /// the diagonal channel), used when deepening a conv cell.
    pub fn identity(channels: usize, kernel: usize, height: usize, width: usize) -> Self {
        let fan_in = channels * kernel * kernel;
        let mut weight = Tensor::zeros(&[channels, fan_in]);
        let centre = (kernel / 2) * kernel + kernel / 2;
        for c in 0..channels {
            weight.data_mut()[c * fan_in + c * kernel * kernel + centre] = 1.0;
        }
        Conv2d::from_params(
            weight,
            Tensor::zeros(&[channels]),
            channels,
            kernel,
            height,
            width,
        )
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Spatial dimensions `(height, width)`.
    pub fn spatial(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    /// Weight matrix `[out_channels, in_channels·k·k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight matrix (model surgery entry point).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Bias vector `[out_channels]`.
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

    /// Replaces parameters and geometry.
    pub fn set_params(&mut self, weight: Tensor, bias: Tensor, in_channels: usize) {
        let out_channels = weight.shape().dims()[0];
        debug_assert_eq!(
            weight.shape().dims()[1],
            in_channels * self.kernel * self.kernel
        );
        self.weight = weight;
        self.bias = bias;
        self.in_channels = in_channels;
        self.out_channels = out_channels;
        self.cache_input = None;
    }

    /// Fills the gradients with zeros in place (no reallocation).
    pub fn zero_grad(&mut self) {
        self.grad_weight.data_mut().fill(0.0);
        self.grad_bias.data_mut().fill(0.0);
    }

    /// Checks what a deserialized layer was never checked for: an odd
    /// kernel, weight `[out_channels, in_channels·k·k]` and bias
    /// `[out_channels]`.
    ///
    /// # Errors
    ///
    /// [`NnError::BadInput`] naming the first mismatch.
    pub fn validate(&self) -> Result<()> {
        let k = self.kernel;
        if k.is_multiple_of(2) {
            return Err(NnError::BadInput {
                layer: "Conv2d",
                detail: format!("kernel {k} is even; same padding needs an odd kernel"),
            });
        }
        let weight = [self.out_channels, self.in_channels * k * k];
        expect_shape("Conv2d", "weight", &self.weight, &weight)?;
        expect_shape("Conv2d", "bias", &self.bias, &[self.out_channels])
    }

    fn expected_input_len(&self) -> usize {
        self.in_channels * self.height * self.width
    }

    /// Forward pass over `[batch, C·H·W]`: per sample, the
    /// `[out_c, C·k·k] @ [C·k·k, H·W]` product against its patch matrix,
    /// read in place, plus the bias. The input is cached for `dW`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the input width differs from
    /// `in_channels·height·width`.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let out = self.infer(x)?;
        self.cache(x);
        Ok(out)
    }

    /// [`Conv2d::forward`] followed by a ReLU applied in the same store
    /// as the bias: a conv cell's forward, with no pass over the output
    /// afterwards.
    ///
    /// # Errors
    ///
    /// As [`Conv2d::forward`].
    pub fn forward_relu(&mut self, x: &Tensor) -> Result<Tensor> {
        let out = self.infer_relu(x)?;
        self.cache(x);
        Ok(out)
    }

    fn cache(&mut self, x: &Tensor) {
        ft_tensor::work::count(|w| w.passes += x.len());
        self.cache_input = Some(x.clone());
    }

    /// Inference forward: the arithmetic of [`Conv2d::forward`] with
    /// nothing cached, so the layer can be shared across threads.
    ///
    /// # Errors
    ///
    /// As [`Conv2d::forward`].
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        self.check_input(x)?;
        Ok(self.geometry().forward(&self.weight, &self.bias, x)?)
    }

    /// Inference forward of [`Conv2d::forward_relu`].
    ///
    /// # Errors
    ///
    /// As [`Conv2d::forward`].
    pub fn infer_relu(&self, x: &Tensor) -> Result<Tensor> {
        self.check_input(x)?;
        Ok(self.geometry().forward_relu(&self.weight, &self.bias, x)?)
    }

    /// The products' view of the layer.
    fn geometry(&self) -> ConvGeometry {
        ConvGeometry {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            height: self.height,
            width: self.width,
            kernel: self.kernel,
        }
    }

    fn check_input(&self, x: &Tensor) -> Result<()> {
        if x.cols()? != self.expected_input_len() {
            return Err(NnError::BadInput {
                layer: "Conv2d",
                detail: format!(
                    "expected {} = {}x{}x{} input values per sample, got {}",
                    self.expected_input_len(),
                    self.in_channels,
                    self.height,
                    self.width,
                    x.cols()?
                ),
            });
        }
        Ok(())
    }

    /// Backward pass; stores the gradients and returns `dX`.
    ///
    /// `dX` is, per sample and tap, the product of the tap's weight
    /// column with `dY` read reverse-shifted in place, added in the
    /// GEMM epilogue where the tap reads inside the image: each element
    /// is the same ascending-tap sum of ascending-channel sums a
    /// scatter of the `Wᵀ · dY` patch gradient would make, with no
    /// patch gradient written.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before
    /// [`Conv2d::forward`], or [`NnError::BadInput`] when `dy` does not
    /// match the cached batch geometry.
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        self.store_grads(dy)?;
        Ok(self.geometry().input_grad(&self.weight, dy)?)
    }

    /// [`Conv2d::backward`] without `dX`: stores `dW` and `db` only,
    /// skipping the input-gradient products — the backward of a
    /// network's first layer, whose input gradient nothing reads.
    ///
    /// # Errors
    ///
    /// As [`Conv2d::backward`].
    pub fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        self.store_grads(dy)
    }

    /// Stores `dW` and `db` from `dy` over the gradients, the bits
    /// adding them onto zeroed gradients would give.
    ///
    /// `dW` is computed transposed, `dWᵀ = patches · dYᵀ`: the patch
    /// matrix is the A operand, read in place one sample at a time, and
    /// only `dY` is packed. Each element is the same ascending-pixel sum
    /// of the same products as `dY · patchesᵀ`, so the result is too;
    /// it starts at `+0.0`, so it is never `−0.0` and is stored as is.
    fn store_grads(&mut self, dy: &Tensor) -> Result<()> {
        let x = self
            .cache_input
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Conv2d" })?;
        let batch = dy.rows()?;
        let hw = self.height * self.width;
        if x.rows()? != batch || dy.cols()? != self.out_channels * hw {
            return Err(NnError::BadInput {
                layer: "Conv2d",
                detail: format!(
                    "gradient shape {:?} does not match cached batch {} x {}",
                    dy.shape().dims(),
                    x.rows()?,
                    self.out_channels * hw
                ),
            });
        }
        let dwt = self.geometry().weight_grad_t(&x, dy)?; // [c*k*k, out_c]
        let fan_in = self.weight.cols()?;
        let gw = grad_for(&mut self.grad_weight, &self.weight).data_mut();
        for (r, row) in dwt
            .data()
            .chunks_exact(self.out_channels.max(1))
            .enumerate()
        {
            for (oc, &v) in row.iter().enumerate() {
                gw[oc * fan_in + r] = v;
            }
        }
        let db = grad_for(&mut self.grad_bias, &self.bias).data_mut();
        store_bias_grad(db, dy.data(), hw);
        Ok(())
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Multiply-accumulate operations for one sample through this layer.
    pub fn macs_per_sample(&self) -> u64 {
        (self.out_channels
            * self.height
            * self.width
            * self.in_channels
            * self.kernel
            * self.kernel) as u64
    }
}

/// Channels whose bias-gradient sums [`store_bias_grad`] runs at once.
const BIAS_CHAINS: usize = 8;

/// `db[oc] = +0.0 + Σ dy[s][oc][px]` for `dy` laid out
/// `[batch, channels, hw]`. Each channel's sum runs over ascending
/// (sample, pixel) from `f32`'s `Sum` start value `−0.0`, as
/// `iter().sum()` does, so a channel of `−0.0`s sums to `−0.0`: the
/// `+0.0 +` makes it the `+0.0` a zeroed gradient would hold. The sums
/// of [`BIAS_CHAINS`] channels run interleaved, so an add does not wait
/// on the one before it.
fn store_bias_grad(db: &mut [f32], dy: &[f32], hw: usize) {
    let channels = db.len();
    let (blocks, rest) = db.as_chunks_mut::<BIAS_CHAINS>();
    let tail = blocks.len() * BIAS_CHAINS;
    for (b, db) in blocks.iter_mut().enumerate() {
        store_channel_sums(db, dy, channels, b * BIAS_CHAINS, hw);
    }
    for (c, db) in rest.iter_mut().enumerate() {
        store_channel_sums(std::array::from_mut(db), dy, channels, tail + c, hw);
    }
}

/// `db[c] = +0.0 + Σ dy[s][first + c][px]`, the `N` sums side by side.
fn store_channel_sums<const N: usize>(
    db: &mut [f32; N],
    dy: &[f32],
    channels: usize,
    first: usize,
    hw: usize,
) {
    let mut acc = [std::iter::empty::<f32>().sum::<f32>(); N];
    for sample in dy.chunks_exact(channels * hw) {
        let planes: [&[f32]; N] = std::array::from_fn(|c| &sample[(first + c) * hw..][..hw]);
        for px in 0..hw {
            for (a, plane) in acc.iter_mut().zip(&planes) {
                *a += plane[px];
            }
        }
    }
    for (d, a) in db.iter_mut().zip(acc) {
        *d = 0.0 + a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn identity_conv_preserves_input() {
        let mut conv = Conv2d::identity(2, 3, 4, 4);
        let x = Tensor::from_vec((0..32).map(|v| v as f32 * 0.1).collect(), &[1, 32]).unwrap();
        let y = conv.forward(&x).unwrap();
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn output_shape_scales_with_out_channels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 4, 3, 5, 5);
        let y = conv.forward(&Tensor::ones(&[2, 25])).unwrap();
        assert_eq!(y.shape().dims(), &[2, 100]);
    }

    #[test]
    fn gradient_check_small_conv() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 3, 3, 3);
        let x =
            Tensor::from_vec((0..9).map(|v| (v as f32 - 4.0) * 0.3).collect(), &[1, 9]).unwrap();
        let y = conv.forward(&x).unwrap();
        conv.backward(&Tensor::ones(y.shape().dims())).unwrap();
        let analytic = conv.grad_weight().clone();

        let eps = 1e-2f32;
        for idx in [0usize, 4, 8, 13] {
            let orig = conv.weight().data()[idx];
            conv.weight_mut().data_mut()[idx] = orig + eps;
            let yp = conv.forward(&x).unwrap().sum();
            conv.weight_mut().data_mut()[idx] = orig - eps;
            let ym = conv.forward(&x).unwrap().sum();
            conv.weight_mut().data_mut()[idx] = orig;
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 0.05,
                "idx {idx}: numeric {numeric} vs analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 3, 3, 3);
        let x = Tensor::from_vec((0..9).map(|v| v as f32 * 0.1).collect(), &[1, 9]).unwrap();
        let y = conv.forward(&x).unwrap();
        let dx = conv.backward(&Tensor::ones(y.shape().dims())).unwrap();

        let eps = 1e-2f32;
        for idx in [0usize, 4, 8] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp = conv.forward(&xp).unwrap().sum();
            let ym = conv.forward(&xm).unwrap().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[idx]).abs() < 0.05,
                "idx {idx}: numeric {numeric} vs analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn rejects_wrong_geometry() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 3, 4, 4);
        assert!(conv.forward(&Tensor::zeros(&[1, 15])).is_err());
    }

    #[test]
    fn macs_match_formula() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let conv = Conv2d::new(&mut rng, 3, 8, 3, 8, 8);
        assert_eq!(conv.macs_per_sample(), (8 * 64 * 3 * 9) as u64);
    }
}
