//! The convolution's 0-ULP contract, on every kernel tier.
//!
//! `Conv2d` lowers its patch matrix inside the GEMM, computes `dW`
//! transposed (`dWᵀ = patches · dYᵀ`) and scatters `dX` per sample.
//! None of that may change a single bit. Against a naive per-element
//! reference, `forward`, `infer`, `backward` (`dW`, `db`, `dX`) and
//! `backward_params` must agree exactly, where every sum runs in
//! ascending order in one `f32` accumulator that starts at `+0.0`, as a
//! multiply followed by an add:
//!
//! * output `(s, o, p)`: `Σ_r W[o, r] · patch(r, s, p)` over ascending
//!   patch rows `r = (c, ki, kj)`, then `+ b[o]`;
//! * `dW[o, r]`: `Σ dY[s, o, p] · patch(r, s, p)` over ascending pixels
//!   `(s, p)` of the whole batch; `db[o]` likewise over `dY[s, o, p]`;
//! * `dX[s, c, i, j]`: over the taps `(ki, kj)` in ascending order, the
//!   patch gradient `Σ_o W[o, r] · dY[s, o, p]` (ascending `o`) of the
//!   pixel `p` that tap reads `(i, j)` from.
//!
//! Geometry covers kernels 1, 3 and 5, images of 1×1, 5×7, 16×16 and
//! 17×3 (a window of `NR` columns straddles samples on all but 16×16),
//! batches of 1, 3 and 10, and 1 to 33 channels. Every case runs on each
//! tier `simd::available()` lists. From the main thread a large product
//! may fan out across the tensor pool; with `FT_TENSOR_THREADS=1` every
//! product runs inline, so CI runs this file both ways.

use ft_nn::Conv2d;
use ft_tensor::{simd, Tensor};
use rand::SeedableRng;

/// One layer's geometry.
#[derive(Clone, Copy, Debug)]
struct Geometry {
    cin: usize,
    cout: usize,
    kernel: usize,
    height: usize,
    width: usize,
    batch: usize,
}

impl Geometry {
    fn hw(&self) -> usize {
        self.height * self.width
    }

    fn patch_rows(&self) -> usize {
        self.cin * self.kernel * self.kernel
    }

    /// Patch-matrix element `(r, s, p)`: the input value tap `r` of
    /// pixel `p` of sample `s` reads, or `+0.0` in the padding.
    fn patch(&self, x: &[f32], r: usize, s: usize, p: usize) -> f32 {
        let (k, h, w) = (self.kernel, self.height, self.width);
        let (c, ki, kj) = (r / (k * k), r % (k * k) / k, r % k);
        let ii = (p / w + ki) as isize - (k / 2) as isize;
        let jj = (p % w + kj) as isize - (k / 2) as isize;
        if ii < 0 || jj < 0 || ii >= h as isize || jj >= w as isize {
            return 0.0;
        }
        x[s * self.cin * h * w + c * h * w + ii as usize * w + jj as usize]
    }
}

/// What one forward and backward of a layer produce.
struct Outputs {
    y: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    dx: Vec<f32>,
}

/// The naive per-element reference.
fn reference(g: Geometry, w: &[f32], b: &[f32], x: &[f32], dy: &[f32]) -> Outputs {
    let (hw, rows, k) = (g.hw(), g.patch_rows(), g.kernel);
    let mut y = vec![0.0f32; g.batch * g.cout * hw];
    for s in 0..g.batch {
        for o in 0..g.cout {
            for p in 0..hw {
                let mut acc = 0.0f32;
                for r in 0..rows {
                    acc += w[o * rows + r] * g.patch(x, r, s, p);
                }
                y[(s * g.cout + o) * hw + p] = acc + b[o];
            }
        }
    }
    let dy_at = |s: usize, o: usize, p: usize| dy[(s * g.cout + o) * hw + p];
    let mut dw = vec![0.0f32; g.cout * rows];
    let mut db = vec![0.0f32; g.cout];
    for o in 0..g.cout {
        for r in 0..rows {
            let mut acc = 0.0f32;
            for s in 0..g.batch {
                for p in 0..hw {
                    acc += dy_at(s, o, p) * g.patch(x, r, s, p);
                }
            }
            dw[o * rows + r] = 0.0 + acc;
        }
        let mut acc = 0.0f32;
        for s in 0..g.batch {
            for p in 0..hw {
                acc += dy_at(s, o, p);
            }
        }
        db[o] = 0.0 + acc;
    }
    let (h, wd, pad) = (g.height, g.width, k / 2);
    let mut dx = vec![0.0f32; g.batch * g.cin * hw];
    for s in 0..g.batch {
        for c in 0..g.cin {
            for i in 0..h {
                for j in 0..wd {
                    let mut acc = 0.0f32;
                    for ki in 0..k {
                        for kj in 0..k {
                            // The output pixel whose tap (ki, kj) reads (i, j).
                            let oi = (i + pad) as isize - ki as isize;
                            let oj = (j + pad) as isize - kj as isize;
                            if oi < 0 || oj < 0 || oi >= h as isize || oj >= wd as isize {
                                continue;
                            }
                            let p = oi as usize * wd + oj as usize;
                            let r = c * k * k + ki * k + kj;
                            let mut dcol = 0.0f32;
                            for o in 0..g.cout {
                                dcol += w[o * rows + r] * dy_at(s, o, p);
                            }
                            acc += dcol;
                        }
                    }
                    dx[(s * g.cin + c) * hw + i * wd + j] = acc;
                }
            }
        }
    }
    Outputs { y, dw, db, dx }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs the layer's four entry points on the active tier and checks
/// each against `want`.
fn check(g: Geometry, conv: &Conv2d, x: &Tensor, dy: &Tensor, want: &Outputs, tier: &str) {
    let case = format!("{g:?} on {tier}");
    let mut layer = conv.clone();
    let inferred = layer.infer(x).unwrap();
    assert_eq!(bits(inferred.data()), bits(&want.y), "infer, {case}");
    let y = layer.forward(x).unwrap();
    assert_eq!(bits(y.data()), bits(&want.y), "forward, {case}");
    let dx = layer.backward(dy).unwrap();
    assert_eq!(
        bits(layer.grad_weight().data()),
        bits(&want.dw),
        "dW, {case}"
    );
    assert_eq!(bits(layer.grad_bias().data()), bits(&want.db), "db, {case}");
    assert_eq!(bits(dx.data()), bits(&want.dx), "dX, {case}");

    let mut first = conv.clone();
    first.forward(x).unwrap();
    first.backward_params(dy).unwrap();
    assert_eq!(
        bits(first.grad_weight().data()),
        bits(&want.dw),
        "backward_params dW, {case}"
    );
    assert_eq!(
        bits(first.grad_bias().data()),
        bits(&want.db),
        "backward_params db, {case}"
    );
}

#[test]
fn conv_matches_the_naive_reference_bit_for_bit_on_every_tier() {
    // (in, out) channel pairs from 1 to 33, cycled through the
    // geometries; each kernel size takes twelve cases, so it meets
    // every pair.
    let channels = [
        (1, 1),
        (3, 16),
        (16, 32),
        (33, 2),
        (2, 33),
        (5, 7),
        (32, 32),
        (1, 17),
    ];
    let mut cases = Vec::new();
    for kernel in [1, 3, 5] {
        for (height, width) in [(1, 1), (5, 7), (16, 16), (17, 3)] {
            for batch in [1, 3, 10] {
                let (cin, cout) = channels[cases.len() % channels.len()];
                cases.push(Geometry {
                    cin,
                    cout,
                    kernel,
                    height,
                    width,
                    batch,
                });
            }
        }
    }
    for (i, g) in cases.into_iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(i as u64);
        let weight = ft_tensor::uniform(&mut rng, &[g.cout, g.patch_rows()], -1.0, 1.0);
        let bias = ft_tensor::uniform(&mut rng, &[g.cout], -1.0, 1.0);
        let x = ft_tensor::uniform(&mut rng, &[g.batch, g.cin * g.hw()], -2.0, 2.0);
        let dy = ft_tensor::uniform(&mut rng, &[g.batch, g.cout * g.hw()], -1.0, 1.0);
        let want = reference(g, weight.data(), bias.data(), x.data(), dy.data());
        let conv = Conv2d::from_params(weight, bias, g.cin, g.kernel, g.height, g.width);
        for tier in simd::available() {
            simd::force(Some(tier));
            check(g, &conv, &x, &dy, &want, tier.name());
        }
        simd::force(None);
    }
}
