use serde::{Deserialize, Serialize};

use ft_tensor::{he_normal, Patches, Tensor};

use crate::error::expect_shape;
use crate::{NnError, Result};

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
/// The whole batch is one `[C·k·k, batch·H·W]` patch matrix, so the
/// forward pass and `dW` each issue a single large GEMM instead of one
/// small GEMM per sample — the shape the tiled kernel in `ft_tensor` is
/// fastest at. Neither writes that matrix: [`Patches`] lowers its
/// elements inside the GEMM, and the layer caches only its (9× smaller,
/// for 3×3) input. `dX` is one product and one scatter per sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    height: usize,
    width: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
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
        let gw = Tensor::zeros(weight.shape().dims());
        let gb = Tensor::zeros(bias.shape().dims());
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            height,
            width,
            weight,
            bias,
            grad_weight: gw,
            grad_bias: gb,
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

    /// Accumulated weight gradient.
    pub fn grad_weight(&self) -> &Tensor {
        &self.grad_weight
    }

    /// Accumulated bias gradient.
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

    /// Replaces parameters and geometry, resetting gradients.
    pub fn set_params(&mut self, weight: Tensor, bias: Tensor, in_channels: usize) {
        let out_channels = weight.shape().dims()[0];
        debug_assert_eq!(
            weight.shape().dims()[1],
            in_channels * self.kernel * self.kernel
        );
        self.grad_weight = Tensor::zeros(weight.shape().dims());
        self.grad_bias = Tensor::zeros(bias.shape().dims());
        self.weight = weight;
        self.bias = bias;
        self.in_channels = in_channels;
        self.out_channels = out_channels;
        self.cache_input = None;
    }

    /// Clears accumulated gradients in place (no reallocation — part
    /// of the zero-allocation steady-state train step).
    pub fn zero_grad(&mut self) {
        self.grad_weight.data_mut().fill(0.0);
        self.grad_bias.data_mut().fill(0.0);
    }

    /// Checks what a deserialized layer was never checked for: an odd
    /// kernel, weight `[out_channels, in_channels·k·k]`, bias
    /// `[out_channels]`, and gradients shaped like their parameters.
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
        expect_shape("Conv2d", "bias", &self.bias, &[self.out_channels])?;
        expect_shape("Conv2d", "grad_weight", &self.grad_weight, &weight)?;
        expect_shape("Conv2d", "grad_bias", &self.grad_bias, &[self.out_channels])
    }

    fn expected_input_len(&self) -> usize {
        self.in_channels * self.height * self.width
    }

    /// Scatters one sample's `[C·k·k, H·W]` patch gradient back onto
    /// its `[C·H·W]` image gradient.
    ///
    /// `(ic, ki, kj)` stay the outer loops and a tap touches each image
    /// element at most once, so every `dx` element still accumulates
    /// its taps in ascending `(ki, kj)` order.
    fn col2im_from(&self, d: &[f32], out: &mut [f32]) {
        let (h, w, k, c) = (self.height, self.width, self.kernel, self.in_channels);
        for ic in 0..c {
            let plane = &mut out[ic * h * w..(ic + 1) * h * w];
            for ki in 0..k {
                let (rows, ii0) = tap_range(ki, k, h);
                for kj in 0..k {
                    let (cols, jj0) = tap_range(kj, k, w);
                    if cols.is_empty() {
                        continue;
                    }
                    let base = (ic * k * k + ki * k + kj) * h * w;
                    for (r, oi) in rows.clone().enumerate() {
                        let src = base + oi * w + cols.start;
                        let dst = (ii0 + r) * w + jj0;
                        let grad = &d[src..src + cols.len()];
                        for (o, &g) in plane[dst..dst + cols.len()].iter_mut().zip(grad) {
                            *o += g;
                        }
                    }
                }
            }
        }
    }

    /// Forward pass over `[batch, C·H·W]`: a single `[out_c, C·k·k] @
    /// [C·k·k, batch·H·W]` GEMM against the batch's patch matrix, which
    /// the GEMM lowers as it packs. The input is cached for `dW`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the input width differs from
    /// `in_channels·height·width`.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        let out = self.infer(x)?;
        self.cache_input = Some(x.clone());
        Ok(out)
    }

    /// Inference forward: the arithmetic of [`Conv2d::forward`] with
    /// nothing cached, so the layer can be shared across threads.
    ///
    /// # Errors
    ///
    /// As [`Conv2d::forward`].
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let batch = x.rows()?;
        let patches = self.patches(x)?;
        let hw = self.height * self.width;
        let ld = batch * hw;
        let y = self.weight.matmul_patches(&patches)?; // [out_c, batch*hw]
        let b = self.bias.data();
        let mut out = ft_tensor::scratch::take(batch * self.out_channels * hw);
        for s in 0..batch {
            for oc in 0..self.out_channels {
                let row = &y.data()[oc * ld + s * hw..oc * ld + (s + 1) * hw];
                let dst = &mut out[(s * self.out_channels + oc) * hw..][..hw];
                for (o, &v) in dst.iter_mut().zip(row) {
                    *o = v + b[oc];
                }
            }
        }
        Ok(Tensor::from_vec(out, &[batch, self.out_channels * hw])?)
    }

    /// The `[C·k·k, batch·H·W]` patch matrix of `x`, as a GEMM operand.
    fn patches<'a>(&self, x: &'a Tensor) -> Result<Patches<'a>> {
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
        Ok(Patches::new(
            x,
            self.in_channels,
            self.height,
            self.width,
            self.kernel,
        )?)
    }

    /// Backward pass; accumulates gradients and returns `dX`.
    ///
    /// The patch gradient `Wᵀ · dY` is computed and scattered back onto
    /// the image one sample at a time: each sample's `dY` is already a
    /// contiguous `[out_c, H·W]` matrix, and its `[C·k·k, H·W]` patch
    /// gradient stays cache-resident between the GEMM that writes it and
    /// the col2im that reads it. Every element is the same
    /// ascending-channel sum as in a whole-batch product.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before
    /// [`Conv2d::forward`], or [`NnError::BadInput`] when `dy` does not
    /// match the cached batch geometry.
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        self.accumulate_grads(dy)?;
        let batch = dy.rows()?;
        let hw = self.height * self.width;
        let per_sample = self.expected_input_len();
        let dy_len = self.out_channels * hw;
        // col2im accumulates, so this buffer must start zeroed.
        let mut dx = ft_tensor::scratch::take_zeroed(batch * per_sample);
        for (s, image) in dx.chunks_mut(per_sample.max(1)).enumerate() {
            let mut dys = ft_tensor::scratch::take(dy_len);
            dys.copy_from_slice(&dy.data()[s * dy_len..(s + 1) * dy_len]);
            let dys = Tensor::from_vec(dys, &[self.out_channels, hw])?;
            let dcols = self.weight.t_matmul(&dys)?; // [c*k*k, hw]
            self.col2im_from(dcols.data(), image);
        }
        Ok(Tensor::from_vec(dx, &[batch, per_sample])?)
    }

    /// [`Conv2d::backward`] without `dX`: accumulates `dW` and `db`
    /// only, skipping the patch-gradient GEMM and col2im — the backward
    /// of a network's first layer, whose input gradient nothing reads.
    ///
    /// # Errors
    ///
    /// As [`Conv2d::backward`].
    pub fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        self.accumulate_grads(dy)
    }

    /// Accumulates `dW` and `db` from `dy`.
    ///
    /// `dW` is computed transposed, `dWᵀ = patches · dYᵀ`: the patch
    /// matrix is the A operand, lowered a k-block at a time, and only
    /// `dY` is packed. Each element is the same ascending-pixel sum of
    /// the same products as `dY · patchesᵀ`, so the result is too.
    fn accumulate_grads(&mut self, dy: &Tensor) -> Result<()> {
        let x = self
            .cache_input
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Conv2d" })?;
        let batch = dy.rows()?;
        let hw = self.height * self.width;
        let ld = batch * hw;
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
        // Regather dy from [batch, out_c*hw] to [out_c, batch*hw].
        // Scratch-pooled; every slot is written by the copy loops.
        let mut dyb = ft_tensor::scratch::take(self.out_channels * ld);
        for s in 0..batch {
            for oc in 0..self.out_channels {
                let src = &dy.data()[s * self.out_channels * hw + oc * hw..][..hw];
                dyb[oc * ld + s * hw..oc * ld + (s + 1) * hw].copy_from_slice(src);
            }
        }
        let dyb = Tensor::from_vec(dyb, &[self.out_channels, ld])?;
        let dwt = self.patches(&x)?.matmul_t(&dyb)?; // [c*k*k, out_c]
        let fan_in = self.weight.cols()?;
        let gw = self.grad_weight.data_mut();
        for (r, row) in dwt
            .data()
            .chunks_exact(self.out_channels.max(1))
            .enumerate()
        {
            for (oc, &v) in row.iter().enumerate() {
                gw[oc * fan_in + r] += v;
            }
        }
        for oc in 0..self.out_channels {
            let sum: f32 = dyb.data()[oc * ld..(oc + 1) * ld].iter().sum();
            self.grad_bias.data_mut()[oc] += sum;
        }
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

/// For kernel tap `t` of a same-padded size-`k` kernel over an axis of
/// `len` pixels: the output positions `o` whose input position
/// `o + t - k/2` lies inside the image, and the input position the
/// first of them reads (the rest follow one by one). The range is empty
/// when the tap only ever sees padding (`len` shorter than the kernel's
/// reach).
fn tap_range(t: usize, k: usize, len: usize) -> (std::ops::Range<usize>, usize) {
    let pad = k / 2;
    let lo = pad.saturating_sub(t).min(len);
    let hi = (len + pad).saturating_sub(t).min(len).max(lo);
    (lo..hi, t.saturating_sub(pad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    impl Conv2d {
        /// A per-element lowering, the oracle for [`Patches`]: every
        /// patch element tests its own border.
        fn im2col_oracle(&self, sample: &[f32], out: &mut [f32], off: usize, ld: usize) {
            let (h, w, k, c) = (self.height, self.width, self.kernel, self.in_channels);
            let pad = k / 2;
            for ic in 0..c {
                let plane = &sample[ic * h * w..(ic + 1) * h * w];
                for ki in 0..k {
                    for kj in 0..k {
                        let row = ic * k * k + ki * k + kj;
                        let base = row * ld + off;
                        for oi in 0..h {
                            let ii = oi as isize + ki as isize - pad as isize;
                            if ii < 0 || ii >= h as isize {
                                continue;
                            }
                            for oj in 0..w {
                                let jj = oj as isize + kj as isize - pad as isize;
                                if jj < 0 || jj >= w as isize {
                                    continue;
                                }
                                out[base + oi * w + oj] = plane[ii as usize * w + jj as usize];
                            }
                        }
                    }
                }
            }
        }

        /// Per-element scatter oracle for [`Conv2d::col2im_from`].
        fn col2im_oracle(&self, d: &[f32], out: &mut [f32]) {
            let (h, w, k, c) = (self.height, self.width, self.kernel, self.in_channels);
            let pad = k / 2;
            for ic in 0..c {
                for ki in 0..k {
                    for kj in 0..k {
                        let row = ic * k * k + ki * k + kj;
                        let base = row * h * w;
                        for oi in 0..h {
                            let ii = oi as isize + ki as isize - pad as isize;
                            if ii < 0 || ii >= h as isize {
                                continue;
                            }
                            for oj in 0..w {
                                let jj = oj as isize + kj as isize - pad as isize;
                                if jj < 0 || jj >= w as isize {
                                    continue;
                                }
                                out[ic * h * w + ii as usize * w + jj as usize] +=
                                    d[base + oi * w + oj];
                            }
                        }
                    }
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Slice-wise lowering ([`Patches`], read back through an
        /// identity product, which reproduces each element exactly) and
        /// scatter against the per-element oracles, bit for bit, for
        /// every sample of the batch — including images shorter or
        /// narrower than the kernel, where whole taps fall in the
        /// padding.
        #[test]
        fn slice_im2col_and_col2im_match_the_per_element_oracles(
            kernel_idx in 0usize..3,
            h in 1usize..=9,
            w in 1usize..=9,
            channels in 1usize..=4,
            batch in 1usize..=3,
            seed in 0u64..1 << 20,
        ) {
            let kernel = [1, 3, 5][kernel_idx];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let conv = Conv2d::new(&mut rng, channels, 2, kernel, h, w);
            let (hw, per_sample) = (h * w, channels * h * w);
            let ld = batch * hw;
            let patch_rows = channels * kernel * kernel;
            let x = ft_tensor::uniform(&mut rng, &[batch, per_sample], -2.0, 2.0);
            // One [patch_rows, hw] patch gradient per sample.
            let d = ft_tensor::uniform(&mut rng, &[batch, patch_rows * hw], -2.0, 2.0);

            let patches = conv.patches(&x).unwrap();
            let cols = Tensor::eye(patch_rows).matmul_patches(&patches).unwrap();
            let mut cols_oracle = vec![0.0f32; patch_rows * ld];
            // Accumulate onto a non-zero image so a dropped or doubled
            // tap cannot hide behind a zero.
            let mut dx = x.data().to_vec();
            let mut dx_oracle = dx.clone();
            for s in 0..batch {
                let sample = &x.data()[s * per_sample..(s + 1) * per_sample];
                conv.im2col_oracle(sample, &mut cols_oracle, s * hw, ld);
                let image = s * per_sample..(s + 1) * per_sample;
                let grad = &d.data()[s * patch_rows * hw..(s + 1) * patch_rows * hw];
                conv.col2im_from(grad, &mut dx[image.clone()]);
                conv.col2im_oracle(grad, &mut dx_oracle[image]);
            }
            prop_assert_eq!(bits(cols.data()), bits(&cols_oracle));
            prop_assert_eq!(bits(&dx), bits(&dx_oracle));
        }
    }

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
