//! The attention block's 0-ULP contract, on every kernel tier.
//!
//! `AttentionBlock`'s backward stores each of its six weight gradients
//! over what the block held, as one `t_matmul_into` per weight. None of
//! that may change a single bit. The reference here is the block's
//! arithmetic written out with plain tensor operations, in the order
//! the block has always run it, with each gradient's product added onto
//! a zeroed gradient (`+0.0 + Σ`). `backward` (the six gradients and
//! `dX`) and `backward_params` must match it exactly, also when the
//! backward before held NaN gradients: a second backward stores over
//! stale gradients rather than adding to them.
//!
//! Geometry runs from one token of width 1 to 16 tokens of width 64
//! with an MLP of 128 at batch 10, whose products are large enough to
//! fan out across the tensor pool. Every case runs on each tier
//! `simd::available()` lists, once from the main thread (where a large
//! product may fan out) and once inside a pool task (where every
//! product runs inline); CI also runs this file with
//! `FT_TENSOR_THREADS=1` and in release.

use ft_nn::{softmax, AttentionBlock};
use ft_tensor::simd::{self, Kernel};
use ft_tensor::{pool, Settings, Tensor};
use rand::SeedableRng;

/// What one backward produces.
struct Outputs {
    grads: Vec<Tensor>,
    dx: Tensor,
}

/// `+0.0 + p`, element by element: a product added onto a zeroed
/// gradient.
fn onto_zero(p: &Tensor) -> Tensor {
    let mut g = Tensor::zeros(p.shape().dims());
    g.axpy(1.0, p).unwrap();
    g
}

/// The block's forward and backward over `b` samples of `t` tokens of
/// width `d`, as plain tensor operations in the block's order. `w` is
/// `[Wq, Wk, Wv, Wo, W1, W2]`.
fn reference(
    (t, d, b): (usize, usize, usize),
    w: &[Tensor; 6],
    x: &Tensor,
    dy: &Tensor,
) -> Outputs {
    let [wq, wk, wv, wo, w1, w2] = w;
    let scale = 1.0 / (d as f32).sqrt();
    let rows = |m: &Tensor, s: usize| m.slice_rows(s * t, (s + 1) * t).unwrap();
    let stack = |parts: Vec<Tensor>| {
        let data = parts.iter().flat_map(|p| p.data().to_vec()).collect();
        Tensor::from_vec(data, &[b * t, d]).unwrap()
    };

    let xb = x.reshaped(&[b * t, d]).unwrap();
    let (q, k, v) = (
        xb.matmul(wq).unwrap(),
        xb.matmul(wk).unwrap(),
        xb.matmul(wv).unwrap(),
    );
    let attn: Vec<Tensor> = (0..b)
        .map(|s| softmax(&rows(&q, s).matmul_t(&rows(&k, s)).unwrap().scale(scale)).unwrap())
        .collect();
    let c = stack(
        (0..b)
            .map(|s| attn[s].matmul(&rows(&v, s)).unwrap())
            .collect(),
    );
    let h = xb.add(&c.matmul(wo).unwrap()).unwrap();
    let z = h.matmul(w1).unwrap();
    let m = z.map(|zv| zv.max(0.0));

    let dyb = dy.reshaped(&[b * t, d]).unwrap();
    let dm = dyb.matmul_t(w2).unwrap();
    let mask: Vec<f32> = dm
        .data()
        .iter()
        .zip(z.data())
        .map(|(&g, &z)| if z > 0.0 { g } else { 0.0 })
        .collect();
    let dz = Tensor::from_vec(mask, dm.shape().dims()).unwrap();
    let g5 = onto_zero(&m.t_matmul(&dyb).unwrap());
    let g4 = onto_zero(&h.t_matmul(&dz).unwrap());
    let dh = dyb.add(&dz.matmul_t(w1).unwrap()).unwrap();
    let dc = dh.matmul_t(wo).unwrap();
    let g3 = onto_zero(&c.t_matmul(&dh).unwrap());
    let (mut dq, mut dk, mut dv) = (Vec::new(), Vec::new(), Vec::new());
    for (s, a) in attn.iter().enumerate() {
        let dcs = rows(&dc, s);
        let da = dcs.matmul_t(&rows(&v, s)).unwrap();
        let mut ds = Tensor::zeros(&[t, t]);
        for r in 0..t {
            let (arow, darow) = (&a.data()[r * t..][..t], &da.data()[r * t..][..t]);
            let dot: f32 = arow.iter().zip(darow).map(|(&av, &g)| av * g).sum();
            for j in 0..t {
                ds.data_mut()[r * t + j] = arow[j] * (darow[j] - dot);
            }
        }
        ds.scale_mut(scale);
        dq.push(ds.matmul(&rows(&k, s)).unwrap());
        dk.push(ds.t_matmul(&rows(&q, s)).unwrap());
        dv.push(a.t_matmul(&dcs).unwrap());
    }
    let (dq, dk, dv) = (stack(dq), stack(dk), stack(dv));
    let g0 = onto_zero(&xb.t_matmul(&dq).unwrap());
    let g1 = onto_zero(&xb.t_matmul(&dk).unwrap());
    let g2 = onto_zero(&xb.t_matmul(&dv).unwrap());
    let mut dx = dh;
    dx.axpy(1.0, &dq.matmul_t(wq).unwrap()).unwrap();
    dx.axpy(1.0, &dk.matmul_t(wk).unwrap()).unwrap();
    dx.axpy(1.0, &dv.matmul_t(wv).unwrap()).unwrap();
    Outputs {
        grads: vec![g0, g1, g2, g3, g4, g5],
        dx: dx.reshaped(&[b, t * d]).unwrap(),
    }
}

/// Asserts `got` and `want` are the same bits, naming the first
/// element that differs and how many do; a NaN matches any NaN.
fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let differ = |(_, (g, w)): &(usize, (&f32, &f32))| {
        g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan())
    };
    let mut diffs = got.iter().zip(want).enumerate().filter(differ);
    if let Some((i, (g, w))) = diffs.next() {
        panic!(
            "{what}: element {i} is {g} ({:#010x}), want {w} ({:#010x}); {} elements differ",
            g.to_bits(),
            w.to_bits(),
            1 + diffs.count()
        );
    }
}

fn assert_grads(block: &AttentionBlock, want: &Outputs, what: &str) {
    assert_eq!(block.grads().len(), 6, "{what}: gradient count");
    for (i, (got, want)) in block.grads().iter().zip(&want.grads).enumerate() {
        assert_eq!(got.shape(), want.shape(), "{what}: gradient {i} shape");
        assert_bits(got.data(), want.data(), &format!("gradient {i}, {what}"));
    }
}

/// Runs the block's backward entry points and checks each against
/// `want`.
fn check(block: &AttentionBlock, x: &Tensor, dy: &Tensor, want: &Outputs, case: &str) {
    let mut layer = block.clone();
    layer.forward(x).unwrap();
    let dx = layer.backward(dy).unwrap();
    assert_grads(&layer, want, &format!("backward, {case}"));
    assert_bits(dx.data(), want.dx.data(), &format!("dX, {case}"));

    // A second backward, over the gradients a NaN `dY` left.
    let poison = Tensor::full(dy.shape().dims(), f32::NAN);
    layer.forward(x).unwrap();
    layer.backward(&poison).unwrap();
    layer.forward(x).unwrap();
    let dx = layer.backward(dy).unwrap();
    assert_grads(&layer, want, &format!("over NaN gradients, {case}"));
    assert_bits(dx.data(), want.dx.data(), &format!("dX again, {case}"));

    let mut first = block.clone();
    first.forward(x).unwrap();
    first.backward_params(dy).unwrap();
    assert_grads(&first, want, &format!("backward_params, {case}"));
}

/// Runs `f` on `tier`, first checking that the tier reached this
/// thread and a pool task.
fn on_tier<R>(tier: Kernel, f: impl FnOnce() -> R) -> R {
    let settings = Settings {
        kernel: tier,
        ..Settings::current()
    };
    settings.scope(|| {
        assert_eq!(simd::active(), tier);
        pool::parallel_for(2, &|_| assert_eq!(simd::active(), tier));
        f()
    })
}

#[test]
fn attention_block_matches_the_reference_bit_for_bit_on_every_tier() {
    let cases = [
        (1, 1, 1, 1),
        (3, 2, 4, 1),
        (4, 8, 16, 3),
        (5, 17, 33, 2),
        (16, 64, 128, 10),
    ];
    for (seed, (tokens, d_model, d_ff, batch)) in cases.into_iter().enumerate() {
        let g = format!("{tokens} tokens x {d_model}, d_ff {d_ff}, batch {batch}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
        let (d, f) = (d_model, d_ff);
        let dims = [[d, d], [d, d], [d, d], [d, d], [d, f], [f, d]];
        let w = dims.map(|dims| ft_tensor::uniform(&mut rng, &dims, -0.5, 0.5));
        let x = ft_tensor::uniform(&mut rng, &[batch, tokens * d], -1.0, 1.0);
        let dy = ft_tensor::uniform(&mut rng, &[batch, tokens * d], -1.0, 1.0);
        let want = on_tier(Kernel::Portable, || {
            reference((tokens, d, batch), &w, &x, &dy)
        });
        let block = AttentionBlock::from_weights(tokens, d, f, w);
        for tier in simd::available() {
            on_tier(tier, || {
                check(&block, &x, &dy, &want, &format!("{g} on {}", tier.name()));
                pool::parallel_for(2, &|task| {
                    if task == 0 {
                        let case = format!("{g} on {} in a pool task", tier.name());
                        check(&block, &x, &dy, &want, &case);
                    }
                });
            });
        }
    }
}
