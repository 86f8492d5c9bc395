//! The convolution's 0-ULP contract, on every kernel tier.
//!
//! `Conv2d` reads its patch matrix in place out of kj-shifted planes,
//! computes `dW` transposed (`dWᵀ = patches · dYᵀ`) and sums `dX`'s taps
//! in the GEMM epilogue. None of that may change a single bit. Against
//! a naive per-element reference, `forward`, `infer`, `backward` (`dW`,
//! `db`, `dX`) and `backward_params` must agree exactly, where every sum
//! runs in ascending order in one `f32` accumulator that starts at
//! `+0.0`, as a multiply followed by an add:
//!
//! * output `(s, o, p)`: `Σ_r W[o, r] · patch(r, s, p)` over ascending
//!   patch rows `r = (c, ki, kj)`, then `+ b[o]`; a conv cell's output
//!   (`forward_relu`, `infer_relu`) is then `v > 0 ? v : +0.0`, applied
//!   in the same store;
//! * `dW[o, r]`: `Σ patch(r, s, p) · dY[s, o, p]` over ascending pixels
//!   `(s, p)` of the whole batch; `db[o]` likewise over `dY[s, o, p]`;
//!   both stored over whatever the gradients held, so a backward after
//!   one whose `dY` held NaNs stores the clean step's bits;
//! * `dX[s, c, i, j]`: over the taps `(ki, kj)` in ascending order, the
//!   patch gradient `Σ_o W[o, r] · dY[s, o, p]` (ascending `o`) of the
//!   pixel `p` that tap reads `(i, j)` from. A tap that would read
//!   outside the image adds nothing, so a non-finite weight poisons only
//!   the pixels its tap reaches.
//!
//! Geometry covers kernels 1, 3 and 5, images of 1×1, 5×7, 16×16 and
//! 17×3 (a window of `NR` columns crosses image rows on all but 1×1),
//! batches of 1, 3 and 10, and 1 to 33 channels. A second set of cases
//! puts `NaN` and `±∞` into the weight and `NaN` into `x` and `dY`, and
//! one channel of `dY` all `−0.0` (whose `db` is `+0.0`), and must match with every NaN where the reference has it (a NaN's sign
//! and payload are unspecified in Rust, so any NaN matches any NaN).
//! Every case runs
//! on each tier `simd::available()` lists. From the main thread a large
//! product may fan out across the tensor pool; with
//! `FT_TENSOR_THREADS=1` every product runs inline, so CI runs this file
//! both ways, in debug and in release.

use ft_nn::Conv2d;
use ft_tensor::simd::{self, Kernel};
use ft_tensor::{pool, Settings, Tensor};
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
                    acc += g.patch(x, r, s, p) * dy_at(s, o, p);
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

/// Asserts `got` and `want` are the same bits, naming the first
/// element that differs and how many do. A NaN matches any NaN: Rust
/// leaves the sign and payload of a NaN result unspecified (the
/// compiler may commute an add, and two different NaNs meeting keep
/// either one's), so only where the NaNs fall is part of the contract.
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

/// Runs the layer's four entry points on the active tier and checks
/// each against `want`.
fn check(g: Geometry, conv: &Conv2d, x: &Tensor, dy: &Tensor, want: &Outputs, tier: &str) {
    let case = format!("{g:?} on {tier}");
    let mut layer = conv.clone();
    let inferred = layer.infer(x).unwrap();
    assert_bits(inferred.data(), &want.y, &format!("infer, {case}"));
    let relu: Vec<f32> = want
        .y
        .iter()
        .map(|&v| if v > 0.0 { v } else { 0.0 })
        .collect();
    let activated = layer.infer_relu(x).unwrap();
    assert_bits(activated.data(), &relu, &format!("infer_relu, {case}"));
    let activated = layer.forward_relu(x).unwrap();
    assert_bits(activated.data(), &relu, &format!("forward_relu, {case}"));
    let y = layer.forward(x).unwrap();
    assert_bits(y.data(), &want.y, &format!("forward, {case}"));
    let dx = layer.backward(dy).unwrap();
    assert_bits(layer.grad_weight().data(), &want.dw, &format!("dW, {case}"));
    assert_bits(layer.grad_bias().data(), &want.db, &format!("db, {case}"));
    assert_bits(dx.data(), &want.dx, &format!("dX, {case}"));

    let poison = Tensor::full(dy.shape().dims(), f32::NAN);
    layer.forward(x).unwrap();
    layer.backward(&poison).unwrap();
    layer.forward(x).unwrap();
    layer.backward(dy).unwrap();
    let over = format!("over NaN gradients, {case}");
    assert_bits(layer.grad_weight().data(), &want.dw, &format!("dW, {over}"));
    assert_bits(layer.grad_bias().data(), &want.db, &format!("db, {over}"));

    let mut first = conv.clone();
    first.forward(x).unwrap();
    first.backward_params(dy).unwrap();
    let params = format!("backward_params, {case}");
    assert_bits(
        first.grad_weight().data(),
        &want.dw,
        &format!("dW, {params}"),
    );
    assert_bits(first.grad_bias().data(), &want.db, &format!("db, {params}"));
}

/// Random operands for `g`, seeded by `seed`: weight, bias, input and
/// output gradient.
fn operands(g: Geometry, seed: u64) -> [Tensor; 4] {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    [
        ft_tensor::uniform(&mut rng, &[g.cout, g.patch_rows()], -1.0, 1.0),
        ft_tensor::uniform(&mut rng, &[g.cout], -1.0, 1.0),
        ft_tensor::uniform(&mut rng, &[g.batch, g.cin * g.hw()], -2.0, 2.0),
        ft_tensor::uniform(&mut rng, &[g.batch, g.cout * g.hw()], -1.0, 1.0),
    ]
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

/// Checks the layer built from `operands` against the reference on
/// every tier.
fn check_every_tier(g: Geometry, [weight, bias, x, dy]: [Tensor; 4]) {
    let want = reference(g, weight.data(), bias.data(), x.data(), dy.data());
    let conv = Conv2d::from_params(weight, bias, g.cin, g.kernel, g.height, g.width);
    for tier in simd::available() {
        on_tier(tier, || check(g, &conv, &x, &dy, &want, tier.name()));
    }
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
        check_every_tier(g, operands(g, i as u64));
    }
}

#[test]
fn non_finite_weights_and_inputs_land_where_the_reference_puts_them() {
    // A NaN, a +inf and a -inf weight, each on a tap that reads the
    // zero border somewhere (0 × inf is NaN, so a tap summed where it
    // reads outside the image would poison a border pixel the
    // reference leaves finite), then a NaN in x and a NaN in dY, and
    // channel 0 of dY all -0.0 (its `db` sum is +0.0, not -0.0). With
    // three or more output channels the non-finite weights sit in
    // different ones, so the forward, `dW` and `dX` each carry finite,
    // inf and NaN elements side by side.
    let cases = [
        (3, 4, 3, (5, 7), 2),
        (16, 16, 3, (16, 16), 3),
        (4, 3, 5, (17, 3), 2),
        (2, 5, 1, (5, 7), 3),
        (5, 2, 3, (1, 1), 2),
    ];
    for (i, (cin, cout, kernel, (height, width), batch)) in cases.into_iter().enumerate() {
        let g = Geometry {
            cin,
            cout,
            kernel,
            height,
            width,
            batch,
        };
        let (rows, taps) = (g.patch_rows(), kernel * kernel);
        let [mut weight, bias, mut x, mut dy] = operands(g, 100 + i as u64);
        let w = weight.data_mut();
        // Tap (0, 0) of channel 0, the last tap of the last channel, the
        // centre-left tap of channel 0.
        w[0] = f32::NAN;
        w[(1 % cout) * rows + rows - 1] = f32::INFINITY;
        w[(2 % cout) * rows + (taps / 2).saturating_sub(1)] = f32::NEG_INFINITY;
        let pixels = g.hw();
        x.data_mut()[pixels / 2] = f32::NAN;
        let last = dy.data().len() - 1;
        dy.data_mut()[last - pixels / 3] = f32::NAN;
        for sample in dy.data_mut().chunks_exact_mut(cout * pixels) {
            sample[..pixels].fill(-0.0);
        }
        check_every_tier(g, [weight, bias, x, dy]);
    }
}
