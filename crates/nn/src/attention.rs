use serde::{Deserialize, Serialize};

use ft_tensor::{scratch, xavier_uniform, Tensor};

use crate::error::expect_shape;
use crate::{grad_for, softmax, NnError, Result};

/// A single-head self-attention block with a residual MLP.
///
/// Computes, per sample reshaped to `[tokens, d_model]`:
///
/// ```text
/// H = X + softmax(X Wq (X Wk)^T / sqrt(d)) · X Wv · Wo
/// Y = H + relu(H W1) W2
/// ```
///
/// This is the `Cell` used for the paper's Table 4 (ViT generality):
/// widening grows the MLP width `d_ff` (self-contained Net2Wider), and an
/// identity block (`Wo = 0`, `W2 = 0`) makes deepening exactly
/// function-preserving through both residual branches.
///
/// All six projections (and their gradients) are computed as single
/// `[batch·tokens, d]` GEMMs over the whole batch; only the softmax
/// attention matrix — which is block-diagonal across samples — stays
/// per-sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttentionBlock {
    tokens: usize,
    d_model: usize,
    d_ff: usize,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    w1: Tensor,
    w2: Tensor,
    #[serde(skip)]
    grads: Box<[Tensor; 6]>,
    #[serde(skip)]
    cache: Option<Box<BatchCache>>,
    /// The cache box last consumed by `backward`, kept so the next
    /// `forward` can refill it instead of allocating a fresh one —
    /// the steady-state train step reuses one `BatchCache` (and its
    /// `attn` vector's capacity) for the life of the block.
    #[serde(skip)]
    spare: Option<Box<BatchCache>>,
}

/// Whole-batch activations kept for the backward pass. Matrices are
/// `[batch·tokens, d_model]` (or `d_ff` for `z`/`m`); `attn` holds the
/// per-sample `[tokens, tokens]` softmax outputs.
#[derive(Debug, Clone, Default)]
struct BatchCache {
    batch: usize,
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Vec<Tensor>,
    c: Tensor,
    h: Tensor,
    z: Tensor,
    m: Tensor,
}

impl AttentionBlock {
    /// Creates a block with Xavier-initialized projections.
    pub fn new(rng: &mut impl rand::Rng, tokens: usize, d_model: usize, d_ff: usize) -> Self {
        let wq = xavier_uniform(rng, &[d_model, d_model], d_model, d_model);
        let wk = xavier_uniform(rng, &[d_model, d_model], d_model, d_model);
        let wv = xavier_uniform(rng, &[d_model, d_model], d_model, d_model);
        let wo = xavier_uniform(rng, &[d_model, d_model], d_model, d_model);
        let w1 = xavier_uniform(rng, &[d_model, d_ff], d_model, d_ff);
        let w2 = xavier_uniform(rng, &[d_ff, d_model], d_ff, d_model);
        Self::from_weights(tokens, d_model, d_ff, [wq, wk, wv, wo, w1, w2])
    }

    /// Creates an exactly function-preserving identity block.
    ///
    /// Attention and MLP output projections are zero, so both residual
    /// branches pass the input through unchanged while the zeroed
    /// projections still receive gradients and can learn.
    pub fn identity(rng: &mut impl rand::Rng, tokens: usize, d_model: usize, d_ff: usize) -> Self {
        let wq = xavier_uniform(rng, &[d_model, d_model], d_model, d_model);
        let wk = xavier_uniform(rng, &[d_model, d_model], d_model, d_model);
        let wv = xavier_uniform(rng, &[d_model, d_model], d_model, d_model);
        let w1 = xavier_uniform(rng, &[d_model, d_ff], d_model, d_ff);
        let wo = Tensor::zeros(&[d_model, d_model]);
        let w2 = Tensor::zeros(&[d_ff, d_model]);
        Self::from_weights(tokens, d_model, d_ff, [wq, wk, wv, wo, w1, w2])
    }

    /// Assembles a block from explicit weights `[Wq, Wk, Wv, Wo, W1, W2]`.
    pub fn from_weights(tokens: usize, d_model: usize, d_ff: usize, w: [Tensor; 6]) -> Self {
        let [wq, wk, wv, wo, w1, w2] = w;
        AttentionBlock {
            tokens,
            d_model,
            d_ff,
            wq,
            wk,
            wv,
            wo,
            w1,
            w2,
            grads: Default::default(),
            cache: None,
            spare: None,
        }
    }

    /// Token count per sample.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Model (embedding) dimension.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// MLP hidden width.
    pub fn d_ff(&self) -> usize {
        self.d_ff
    }

    /// All six weight matrices in `[Wq, Wk, Wv, Wo, W1, W2]` order.
    pub fn weights(&self) -> [&Tensor; 6] {
        [&self.wq, &self.wk, &self.wv, &self.wo, &self.w1, &self.w2]
    }

    /// Mutable access to all six weight matrices.
    pub fn weights_mut(&mut self) -> [&mut Tensor; 6] {
        [
            &mut self.wq,
            &mut self.wk,
            &mut self.wv,
            &mut self.wo,
            &mut self.w1,
            &mut self.w2,
        ]
    }

    /// The gradients the last backward stored, in the order of
    /// [`AttentionBlock::weights`] (each empty before the first).
    pub fn grads(&self) -> &[Tensor] {
        &self.grads[..]
    }

    /// Visits `(mutable parameter, gradient)` pairs in weight order —
    /// the streaming form optimizer cursors consume without building
    /// reference vectors or cloning gradients.
    pub fn for_each_param_and_grad(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.wq, &self.grads[0]);
        f(&mut self.wk, &self.grads[1]);
        f(&mut self.wv, &self.grads[2]);
        f(&mut self.wo, &self.grads[3]);
        f(&mut self.w1, &self.grads[4]);
        f(&mut self.w2, &self.grads[5]);
    }

    /// Replaces the MLP weights after a widen operation.
    ///
    /// # Panics
    ///
    /// Panics if the new shapes disagree with each other or `d_model`.
    pub fn set_mlp(&mut self, w1: Tensor, w2: Tensor) {
        assert_eq!(w1.shape().dims()[0], self.d_model);
        assert_eq!(w1.shape().dims()[1], w2.shape().dims()[0]);
        assert_eq!(w2.shape().dims()[1], self.d_model);
        self.d_ff = w1.shape().dims()[1];
        self.w1 = w1;
        self.w2 = w2;
        self.cache = None;
    }

    /// Fills the gradients with zeros in place (no reallocation).
    pub fn zero_grad(&mut self) {
        for g in self.grads.iter_mut() {
            g.data_mut().fill(0.0);
        }
    }

    /// Checks what a deserialized block was never checked for: `Wq`,
    /// `Wk`, `Wv`, `Wo` `[d_model, d_model]`, `W1` `[d_model, d_ff]` and
    /// `W2` `[d_ff, d_model]`.
    ///
    /// # Errors
    ///
    /// [`NnError::BadInput`] naming the first mismatch.
    pub fn validate(&self) -> Result<()> {
        let (d, f) = (self.d_model, self.d_ff);
        let weights = [
            ("wq", &self.wq, [d, d]),
            ("wk", &self.wk, [d, d]),
            ("wv", &self.wv, [d, d]),
            ("wo", &self.wo, [d, d]),
            ("w1", &self.w1, [d, f]),
            ("w2", &self.w2, [f, d]),
        ];
        for (name, weight, dims) in weights {
            expect_shape("AttentionBlock", name, weight, &dims)?;
        }
        Ok(())
    }

    fn sample_dim(&self) -> usize {
        self.tokens * self.d_model
    }

    /// Forward pass over `[batch, tokens·d_model]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the input width differs from
    /// `tokens·d_model`.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        // Refill the cache box consumed by the previous backward pass
        // instead of allocating a new one each step.
        let mut cache = self.spare.take().unwrap_or_default();
        let out = self.run(x, Some(&mut *cache))?;
        self.cache = Some(cache);
        Ok(out)
    }

    /// Inference forward: the arithmetic of [`AttentionBlock::forward`]
    /// with every activation returned to the scratch pool instead of
    /// cached, so the block can be shared across threads.
    ///
    /// # Errors
    ///
    /// As [`AttentionBlock::forward`].
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        self.run(x, None)
    }

    /// The forward pass proper; fills `cache` with what backward needs
    /// when one is given.
    fn run(&self, x: &Tensor, mut cache: Option<&mut BatchCache>) -> Result<Tensor> {
        let batch = x.rows()?;
        if x.cols()? != self.sample_dim() {
            return Err(NnError::BadInput {
                layer: "AttentionBlock",
                detail: format!(
                    "expected {}x{} values per sample, got {}",
                    self.tokens,
                    self.d_model,
                    x.cols()?
                ),
            });
        }
        let scale = 1.0 / (self.d_model as f32).sqrt();
        let (t, d) = (self.tokens, self.d_model);
        // [batch, tokens·d] and [batch·tokens, d] share a layout, so
        // the projections batch into single GEMMs via a reshape.
        let xb = x.reshaped(&[batch * t, d])?;
        let q = xb.matmul(&self.wq)?;
        let k = xb.matmul(&self.wk)?;
        let v = xb.matmul(&self.wv)?;
        if let Some(cache) = cache.as_deref_mut() {
            cache.attn.clear();
        }
        // Attention is block-diagonal across samples: softmax and the
        // A·V product stay per-sample. The stacked context matrix is a
        // scratch checkout, fully written sample by sample.
        let mut cbig = scratch::take(batch * t * d);
        for s in 0..batch {
            let qs = q.slice_rows(s * t, (s + 1) * t)?;
            let ks = k.slice_rows(s * t, (s + 1) * t)?;
            let vs = v.slice_rows(s * t, (s + 1) * t)?;
            let scores = qs.matmul_t(&ks)?.scale(scale);
            let a = softmax(&scores)?;
            let cs = a.matmul(&vs)?;
            cbig[s * t * d..(s + 1) * t * d].copy_from_slice(cs.data());
            if let Some(cache) = cache.as_deref_mut() {
                cache.attn.push(a);
            }
        }
        let c = Tensor::from_vec(cbig, &[batch * t, d])?;
        let h = xb.add(&c.matmul(&self.wo)?)?;
        let z = h.matmul(&self.w1)?;
        let m = z.map(|zv| zv.max(0.0));
        let mut out = h.add(&m.matmul(&self.w2)?)?;
        out.reshape(&[batch, self.sample_dim()])?;
        if let Some(cache) = cache {
            cache.batch = batch;
            cache.x = xb;
            cache.q = q;
            cache.k = k;
            cache.v = v;
            cache.c = c;
            cache.h = h;
            cache.z = z;
            cache.m = m;
        }
        Ok(out)
    }

    /// Backward pass; stores the gradients of all six weights and
    /// returns `dX`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before
    /// [`AttentionBlock::forward`].
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let [dh, dq, dk, dv] = self.store_grads(dy)?;
        let batch = dy.rows()?;
        let mut dx = dh;
        dx.axpy(1.0, &dq.matmul_t(&self.wq)?)?;
        dx.axpy(1.0, &dk.matmul_t(&self.wk)?)?;
        dx.axpy(1.0, &dv.matmul_t(&self.wv)?)?;
        Ok(dx.reshaped(&[batch, self.sample_dim()])?)
    }

    /// [`AttentionBlock::backward`] without `dX`: stores every weight
    /// gradient and skips the three input-projection products —
    /// the backward of a network's first layer, whose input gradient
    /// nothing reads.
    ///
    /// # Errors
    ///
    /// As [`AttentionBlock::backward`].
    pub fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        self.store_grads(dy).map(drop)
    }

    /// Stores every weight gradient from `dy` (each a `t_matmul_into`
    /// over the gradient) and returns what `dX` is built from, all
    /// `[batch·T, d]`: the residual stream's gradient `dH` and the
    /// projections' `dQ`, `dK`, `dV`.
    fn store_grads(&mut self, dy: &Tensor) -> Result<[Tensor; 4]> {
        let cache = self.cache.take().ok_or(NnError::MissingForwardCache {
            layer: "AttentionBlock",
        })?;
        let batch = dy.rows()?;
        if batch != cache.batch || dy.cols()? != self.sample_dim() {
            return Err(NnError::BadInput {
                layer: "AttentionBlock",
                detail: format!("gradient shape {:?} mismatches cache", dy.shape().dims()),
            });
        }
        let scale = 1.0 / (self.d_model as f32).sqrt();
        let (t, d) = (self.tokens, self.d_model);
        let dyb = dy.reshaped(&[batch * t, d])?;
        // MLP branch: Y = H + relu(H W1) W2 — whole-batch GEMMs. The
        // ReLU mask application writes every slot of its scratch
        // checkout exactly once.
        let dm = dyb.matmul_t(&self.w2)?;
        let mut dz_data = scratch::take(dm.len());
        for ((o, &g), &z) in dz_data.iter_mut().zip(dm.data()).zip(cache.z.data()) {
            *o = if z > 0.0 { g } else { 0.0 };
        }
        let dz = Tensor::from_vec(dz_data, dm.shape().dims())?;
        let g = &mut self.grads;
        cache.m.t_matmul_into(&dyb, grad_for(&mut g[5], &self.w2))?;
        cache.h.t_matmul_into(&dz, grad_for(&mut g[4], &self.w1))?;
        let dh = dyb.add(&dz.matmul_t(&self.w1)?)?;
        // Attention branch: H = X + (A V) Wo.
        let dc = dh.matmul_t(&self.wo)?;
        cache.c.t_matmul_into(&dh, grad_for(&mut g[3], &self.wo))?;
        // Softmax backward is per-sample (A is block-diagonal); the
        // resulting dQ/dK/dV stack back into whole-batch matrices
        // (scratch checkouts, each sample slice written exactly once).
        let mut dqb = scratch::take(batch * t * d);
        let mut dkb = scratch::take(batch * t * d);
        let mut dvb = scratch::take(batch * t * d);
        for (s, a) in cache.attn.iter().enumerate() {
            let dcs = dc.slice_rows(s * t, (s + 1) * t)?;
            let qs = cache.q.slice_rows(s * t, (s + 1) * t)?;
            let ks = cache.k.slice_rows(s * t, (s + 1) * t)?;
            let vs = cache.v.slice_rows(s * t, (s + 1) * t)?;
            let dv = a.t_matmul(&dcs)?;
            let da = dcs.matmul_t(&vs)?;
            let mut ds = Tensor::zeros(&[t, t]);
            for r in 0..t {
                let arow = &a.data()[r * t..(r + 1) * t];
                let darow = &da.data()[r * t..(r + 1) * t];
                let dot: f32 = arow.iter().zip(darow).map(|(&av, &g)| av * g).sum();
                for j in 0..t {
                    ds.data_mut()[r * t + j] = arow[j] * (darow[j] - dot);
                }
            }
            ds.scale_mut(scale);
            dqb[s * t * d..(s + 1) * t * d].copy_from_slice(ds.matmul(&ks)?.data());
            dkb[s * t * d..(s + 1) * t * d].copy_from_slice(ds.t_matmul(&qs)?.data());
            dvb[s * t * d..(s + 1) * t * d].copy_from_slice(dv.data());
        }
        let dq = Tensor::from_vec(dqb, &[batch * t, d])?;
        let dk = Tensor::from_vec(dkb, &[batch * t, d])?;
        let dv = Tensor::from_vec(dvb, &[batch * t, d])?;
        cache.x.t_matmul_into(&dq, grad_for(&mut g[0], &self.wq))?;
        cache.x.t_matmul_into(&dk, grad_for(&mut g[1], &self.wk))?;
        cache.x.t_matmul_into(&dv, grad_for(&mut g[2], &self.wv))?;
        // Keep the consumed cache for the next forward to refill.
        self.spare = Some(cache);
        Ok([dh, dq, dk, dv])
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        4 * self.d_model * self.d_model + 2 * self.d_model * self.d_ff
    }

    /// Multiply-accumulate operations for one sample through this block.
    pub fn macs_per_sample(&self) -> u64 {
        let t = self.tokens as u64;
        let d = self.d_model as u64;
        let f = self.d_ff as u64;
        4 * t * d * d + 2 * t * t * d + 2 * t * d * f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn validate_names_a_weight_or_gradient_that_does_not_fit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let block = AttentionBlock::new(&mut rng, 4, 8, 16);
        block.validate().unwrap();
        let detail = |block: AttentionBlock| match block.validate() {
            Err(NnError::BadInput { detail, .. }) => detail,
            other => panic!("expected a geometry error, got {other:?}"),
        };
        let mut bad = block.clone();
        bad.w2 = Tensor::zeros(&[8, 16]);
        assert_eq!(detail(bad), "w2 has shape [8, 16], expected [16, 8]");
        let mut bad = block;
        bad.d_ff = 4;
        assert_eq!(detail(bad), "w1 has shape [8, 16], expected [8, 4]");
    }

    #[test]
    fn identity_block_is_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut block = AttentionBlock::identity(&mut rng, 4, 3, 6);
        let x =
            Tensor::from_vec((0..12).map(|v| v as f32 * 0.1 - 0.5).collect(), &[1, 12]).unwrap();
        let y = block.forward(&x).unwrap();
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn forward_shape_preserved() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut block = AttentionBlock::new(&mut rng, 4, 3, 8);
        let y = block.forward(&Tensor::ones(&[2, 12])).unwrap();
        assert_eq!(y.shape().dims(), &[2, 12]);
    }

    #[test]
    fn gradient_check_spot_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut block = AttentionBlock::new(&mut rng, 3, 2, 4);
        let x =
            Tensor::from_vec((0..6).map(|v| (v as f32 - 3.0) * 0.2).collect(), &[1, 6]).unwrap();
        let y = block.forward(&x).unwrap();
        block.backward(&Tensor::ones(y.shape().dims())).unwrap();
        // Check a handful of entries in each weight via finite differences.
        let eps = 1e-2f32;
        for widx in 0..6usize {
            let analytic = block.grads()[widx].data()[0];
            let orig = block.weights()[widx].data()[0];
            block.weights_mut()[widx].data_mut()[0] = orig + eps;
            let yp = block.forward(&x).unwrap().sum();
            block.weights_mut()[widx].data_mut()[0] = orig - eps;
            let ym = block.forward(&x).unwrap().sum();
            block.weights_mut()[widx].data_mut()[0] = orig;
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 0.05,
                "weight {widx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut block = AttentionBlock::new(&mut rng, 3, 2, 4);
        let x = Tensor::from_vec((0..6).map(|v| v as f32 * 0.15 - 0.4).collect(), &[1, 6]).unwrap();
        let y = block.forward(&x).unwrap();
        let dx = block.backward(&Tensor::ones(y.shape().dims())).unwrap();
        // Small eps: a larger window can straddle a ReLU kink in the MLP,
        // making the central difference disagree with the true gradient.
        let eps = 1e-3f32;
        for i in 0..6 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = block.forward(&xp).unwrap().sum();
            let ym = block.forward(&xm).unwrap().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[i]).abs() < 0.05,
                "input {i}: numeric {numeric} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn set_mlp_updates_d_ff() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut block = AttentionBlock::new(&mut rng, 2, 2, 4);
        block.set_mlp(Tensor::zeros(&[2, 8]), Tensor::zeros(&[8, 2]));
        assert_eq!(block.d_ff(), 8);
    }
}
