//! The dense layer's 0-ULP contract, on every kernel tier.
//!
//! A dense train step is three GEMMs and nothing beside them: the
//! forward adds the bias (and, in a cell, applies the ReLU) to each
//! finished sum in the tile's store, `dW` and `db` are stored over the
//! gradients in the store, and `dX = dY Wᵀ` packs `Wᵀ` by register
//! transposes. None of that may change a single bit. Against a naive
//! per-element reference, `Linear` and the dense cell (`Linear` with
//! its ReLU) must agree exactly in `forward`, `infer`, `backward` (`dW`,
//! `db`, `dX`) and `backward_params`, where every sum runs in ascending
//! order in one `f32` accumulator that starts at `+0.0`, as a multiply
//! followed by an add:
//!
//! * output `(s, o)`: `Σ_i x[s, i] · W[i, o]`, then `+ b[o]`, then in a
//!   cell `v > 0 ? v : +0.0`;
//! * the cell's `dZ = dY` where the output is `> 0`, `+0.0` elsewhere;
//! * `dW[i, o] = Σ_s x[s, i] · dZ[s, o]` and `db[o] = Σ_s dZ[s, o]`,
//!   whatever the gradients held: a backward after one whose `dY` held
//!   NaNs stores the clean step's bits;
//! * `dX[s, i] = Σ_o dZ[s, o] · W[i, o]`.
//!
//! Shapes cross batches of 1, 3, 10 and 13 with every pair of widths
//! from {1, 15, 16, 17, 31, 32, 33, 48, 96, 192}: edge tiles in rows
//! and columns, whole and partial transpose blocks, one and several
//! column windows. A second set puts `NaN`, `±∞` and `−0.0` into `x`,
//! `W`, `b` and `dY`; NaNs must land where the reference has them (a
//! NaN's sign and payload are unspecified in Rust, so any NaN matches
//! any NaN). The cell is run forward on another input first, so a mask
//! taken from a stale buffer shows. Every case runs on each tier
//! `simd::available()` lists; CI also runs this file with
//! `FT_TENSOR_THREADS=1` and in release.

use ft_nn::{Linear, Relu};
use ft_tensor::simd::{self, Kernel};
use ft_tensor::{pool, Settings, Tensor};
use rand::SeedableRng;

const WIDTHS: [usize; 10] = [1, 15, 16, 17, 31, 32, 33, 48, 96, 192];
const BATCHES: [usize; 4] = [1, 3, 10, 13];

/// One layer's shape: `batch` rows of `fan_in` in, `fan_out` out.
#[derive(Clone, Copy, Debug)]
struct Shape {
    batch: usize,
    fan_in: usize,
    fan_out: usize,
}

/// One step's operands.
struct Operands {
    w: Tensor,
    b: Tensor,
    x: Tensor,
    dy: Tensor,
}

/// What the reference says one forward and backward produce.
struct Outputs {
    y: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    dx: Vec<f32>,
}

/// The naive per-element reference; `relu` makes it the cell's.
fn reference(s: Shape, op: &Operands, relu: bool) -> Outputs {
    let (m, fi, fo) = (s.batch, s.fan_in, s.fan_out);
    let (w, b, x, dy) = (op.w.data(), op.b.data(), op.x.data(), op.dy.data());
    let mut y = vec![0.0f32; m * fo];
    for r in 0..m {
        for o in 0..fo {
            let mut acc = 0.0f32;
            for i in 0..fi {
                acc += x[r * fi + i] * w[i * fo + o];
            }
            let v = acc + b[o];
            y[r * fo + o] = if !relu || v > 0.0 { v } else { 0.0 };
        }
    }
    let dz: Vec<f32> = (0..m * fo)
        .map(|e| if !relu || y[e] > 0.0 { dy[e] } else { 0.0 })
        .collect();
    let mut dw = vec![0.0f32; fi * fo];
    for i in 0..fi {
        for o in 0..fo {
            let mut acc = 0.0f32;
            for r in 0..m {
                acc += x[r * fi + i] * dz[r * fo + o];
            }
            dw[i * fo + o] = acc;
        }
    }
    let db = (0..fo)
        .map(|o| (0..m).fold(0.0f32, |acc, r| acc + dz[r * fo + o]))
        .collect();
    let mut dx = vec![0.0f32; m * fi];
    for r in 0..m {
        for i in 0..fi {
            let mut acc = 0.0f32;
            for o in 0..fo {
                acc += dz[r * fo + o] * w[i * fo + o];
            }
            dx[r * fi + i] = acc;
        }
    }
    Outputs { y, dw, db, dx }
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

/// A dense layer with or without its ReLU, as a cell runs it.
#[derive(Clone)]
struct Dense {
    linear: Linear,
    relu: Option<Relu>,
}

impl Dense {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        match &mut self.relu {
            Some(relu) => {
                let y = self.linear.forward_relu(x).unwrap();
                relu.record(&y);
                y
            }
            None => self.linear.forward(x).unwrap(),
        }
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        match self.relu {
            Some(_) => self.linear.infer_relu(x).unwrap(),
            None => self.linear.infer(x).unwrap(),
        }
    }

    fn dz(&mut self, dy: &Tensor) -> Tensor {
        match &mut self.relu {
            Some(relu) => relu.backward(dy).unwrap(),
            None => dy.clone(),
        }
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dz = self.dz(dy);
        self.linear.backward(&dz).unwrap()
    }

    fn backward_params(&mut self, dy: &Tensor) {
        let dz = self.dz(dy);
        self.linear.backward_params(&dz).unwrap();
    }

    fn grads(&self) -> (&[f32], &[f32]) {
        (
            self.linear.grad_weight().data(),
            self.linear.grad_bias().data(),
        )
    }
}

/// Runs every entry point of `Linear` and of the cell on the active
/// tier and checks each against the reference.
fn check(s: Shape, op: &Operands, tier: &str) {
    // A `dY` of NaNs, so a backward that adds onto what the one
    // before it left keeps them.
    let poison = Tensor::full(op.dy.shape().dims(), f32::NAN);
    // Another input, same shape: a cell whose mask outlives its
    // forward would route `dY` through this one's.
    let other = op.x.scale(-1.0);
    for relu in [false, true] {
        let case = format!("{s:?}, relu {relu}, on {tier}");
        let want = reference(s, op, relu);
        let fresh = Dense {
            linear: Linear::from_params(op.w.clone(), op.b.clone()),
            relu: relu.then(Relu::new),
        };

        let mut layer = fresh.clone();
        assert_bits(
            layer.infer(&op.x).data(),
            &want.y,
            &format!("infer, {case}"),
        );
        layer.forward(&other);
        let y = layer.forward(&op.x);
        assert_bits(y.data(), &want.y, &format!("forward, {case}"));
        let dx = layer.backward(&op.dy);
        let (gw, gb) = layer.grads();
        assert_bits(gw, &want.dw, &format!("dW, {case}"));
        assert_bits(gb, &want.db, &format!("db, {case}"));
        assert_bits(dx.data(), &want.dx, &format!("dX, {case}"));

        // A step over the gradients a NaN `dY` left stores the clean
        // step's bits.
        layer.forward(&op.x);
        layer.backward(&poison);
        layer.forward(&op.x);
        layer.backward(&op.dy);
        let (gw, gb) = layer.grads();
        assert_bits(gw, &want.dw, &format!("dW over NaN gradients, {case}"));
        assert_bits(gb, &want.db, &format!("db over NaN gradients, {case}"));

        let mut first = fresh.clone();
        first.forward(&op.x);
        first.backward_params(&op.dy);
        let (gw, gb) = first.grads();
        assert_bits(gw, &want.dw, &format!("dW, backward_params, {case}"));
        assert_bits(gb, &want.db, &format!("db, backward_params, {case}"));
    }
}

/// Random operands for `s`, seeded by `seed`.
fn operands(s: Shape, seed: u64) -> Operands {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Operands {
        w: ft_tensor::uniform(&mut rng, &[s.fan_in, s.fan_out], -1.0, 1.0),
        b: ft_tensor::uniform(&mut rng, &[s.fan_out], -1.0, 1.0),
        x: ft_tensor::uniform(&mut rng, &[s.batch, s.fan_in], -2.0, 2.0),
        dy: ft_tensor::uniform(&mut rng, &[s.batch, s.fan_out], -1.0, 1.0),
    }
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

fn check_every_tier(s: Shape, op: &Operands) {
    for tier in simd::available() {
        on_tier(tier, || check(s, op, tier.name()));
    }
}

#[test]
fn dense_layer_matches_the_naive_reference_bit_for_bit_on_every_tier() {
    let mut seed = 0;
    for batch in BATCHES {
        for fan_in in WIDTHS {
            for fan_out in WIDTHS {
                let s = Shape {
                    batch,
                    fan_in,
                    fan_out,
                };
                check_every_tier(s, &operands(s, seed));
                seed += 1;
            }
        }
    }
}

#[test]
fn non_finite_and_negative_zero_values_land_where_the_reference_puts_them() {
    // Sparse specials, so each output holds finite, infinite, NaN and
    // signed-zero elements side by side: a NaN or ±∞ weight poisons a
    // column of `y` and a row of `dX`, a NaN input a row of `y` and a
    // row of `dW`, a non-finite bias one column only (and the ReLU
    // zeroes a NaN), a non-finite `dY` a column of `dW`. `−0.0`s test
    // the `+0.0` start of every sum and the ReLU's `+0.0`.
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    let mut seed = 1000;
    for batch in BATCHES {
        for (fan_in, fan_out) in [(1, 1), (17, 15), (33, 48), (96, 192), (192, 31)] {
            let s = Shape {
                batch,
                fan_in,
                fan_out,
            };
            let mut op = operands(s, seed);
            for (k, t) in [&mut op.w, &mut op.b, &mut op.x, &mut op.dy]
                .into_iter()
                .enumerate()
            {
                let len = t.len();
                for (j, &v) in specials.iter().enumerate() {
                    // Spread over the tensor, a different spot per
                    // tensor and value.
                    let at = (j * len / 4 + k * 7 + j * 3) % len;
                    t.data_mut()[at] = v;
                }
            }
            // Some all-negative-zero rows of x and columns of dY.
            let x = op.x.data_mut();
            x[(batch - 1) * fan_in..].fill(-0.0);
            let dy = op.dy.data_mut();
            for r in 0..batch {
                dy[r * fan_out] = -0.0;
            }
            check_every_tier(s, &op);
            seed += 1;
        }
    }
}
