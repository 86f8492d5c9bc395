//! Fused, in-place element-wise kernels for the steady-state hot path.
//!
//! Each kernel makes exactly one pass over its operands with zero
//! temporary storage, replacing chains like "clone the gradient,
//! adjust it, then loop again to update the parameter" with a single
//! fused loop. The per-element arithmetic — operation order and
//! operand order — is copied verbatim from the out-of-place code it
//! replaces, so results are bit-for-bit identical (0 ULP), which the
//! `proptest_fused` suite pins.
//!
//! # Parallelism and determinism
//!
//! At or above [`pool::PAR_ELEMS`] elements a kernel fans out over the
//! shared worker pool in disjoint index ranges
//! ([`pool::for_each_chunk_mut`]). Every element is written by exactly
//! one task and no kernel here performs a cross-element reduction, so
//! results are independent of thread count and scheduling by
//! construction — the same discipline the GEMM kernels follow.
//!
//! # SIMD
//!
//! Each loop is written once and runs through `simd::elementwise`: as
//! is on the portable tier, and as the compiler's AVX2 build of the same
//! source on the AVX2 and AVX-512 tiers (these loops are
//! bandwidth-bound, so the AVX-512 tier gains nothing from wider
//! lanes). The per-element operations are independent IEEE `mul`, `add`,
//! `sub`, `div` and `sqrt` with no FMA contraction, which round the same
//! at any width, so results stay bit-identical across tiers;
//! `proptest_simd` pins the equivalence.
#![forbid(unsafe_code)]

use crate::{pool, simd};

/// `a[i] += b[i]`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    pool::for_each_chunk_mut([a], [b], |[a], [b]| {
        simd::elementwise(
            #[inline(always)]
            move || {
                for (x, &y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            },
        );
    });
}

/// `a[i] -= b[i]`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sub_assign(a: &mut [f32], b: &[f32]) {
    pool::for_each_chunk_mut([a], [b], |[a], [b]| {
        simd::elementwise(
            #[inline(always)]
            move || {
                for (x, &y) in a.iter_mut().zip(b) {
                    *x -= y;
                }
            },
        );
    });
}

/// `a[i] *= b[i]` (Hadamard).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn mul_assign(a: &mut [f32], b: &[f32]) {
    pool::for_each_chunk_mut([a], [b], |[a], [b]| {
        simd::elementwise(
            #[inline(always)]
            move || {
                for (x, &y) in a.iter_mut().zip(b) {
                    *x *= y;
                }
            },
        );
    });
}

/// `a[i] *= alpha`.
pub fn scale_assign(a: &mut [f32], alpha: f32) {
    pool::for_each_chunk_mut([a], [], |[a], []| {
        simd::elementwise(
            #[inline(always)]
            move || {
                for x in a {
                    *x *= alpha;
                }
            },
        );
    });
}

/// `a[i] += alpha * b[i]` — the aggregation accumulate primitive.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(a: &mut [f32], alpha: f32, b: &[f32]) {
    pool::for_each_chunk_mut([a], [b], |[a], [b]| {
        simd::elementwise(
            #[inline(always)]
            move || {
                for (x, &y) in a.iter_mut().zip(b) {
                    *x += alpha * y;
                }
            },
        );
    });
}

/// Fused SGD-with-momentum update, one pass over `p`/`v`/`g`:
///
/// ```text
/// grad = g[i] + weight_decay * p[i]
/// v[i] = momentum * v[i] + grad
/// p[i] -= lr * v[i]
/// ```
///
/// Exactly the arithmetic (and operand order) of the former scalar
/// index loop in `ft_nn::Sgd::step`, without its bounds checks or its
/// two extra passes over the parameter data.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn sgd_momentum_update(
    p: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    lr: f32,
    momentum: f32,
    weight_decay: f32,
) {
    pool::for_each_chunk_mut([p, v], [g], |[p, v], [g]| {
        simd::elementwise(
            #[inline(always)]
            move || {
                for ((p, v), &g) in p.iter_mut().zip(v).zip(g) {
                    // Read `p` once: the AVX2 build cannot prove `p` and `v`
                    // disjoint, so a read after the `v` store is a reload.
                    let x = *p;
                    let grad = g + weight_decay * x;
                    let vel = momentum * *v + grad;
                    *v = vel;
                    *p = x - lr * vel;
                }
            },
        );
    });
}

/// [`sgd_momentum_update`] with the FedProx proximal term folded in:
/// the effective gradient is `g[i] + mu * (p[i] - anchor[i])`,
/// computed from the not-yet-updated `p[i]` exactly as the former
/// materialize-then-step implementation did.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn prox_sgd_momentum_update(
    p: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    anchor: &[f32],
    mu: f32,
    lr: f32,
    momentum: f32,
    weight_decay: f32,
) {
    pool::for_each_chunk_mut([p, v], [g, anchor], |[p, v], [g, anchor]| {
        simd::elementwise(
            #[inline(always)]
            move || {
                for (((p, v), &g), &a) in p.iter_mut().zip(v).zip(g).zip(anchor) {
                    // `p` is read once, as in `sgd_momentum_update`.
                    let x = *p;
                    let adjusted = g + mu * (x - a);
                    let grad = adjusted + weight_decay * x;
                    let vel = momentum * *v + grad;
                    *v = vel;
                    *p = x - lr * vel;
                }
            },
        );
    });
}

/// Fused server-side Yogi update, one pass over `p`/`m`/`v`/`d`:
/// exactly the arithmetic of the former scalar loop in
/// `ft_nn::Yogi::step`.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn yogi_update(
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    d: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
) {
    pool::for_each_chunk_mut([p, m, v], [d], |[p, m, v], [d]| {
        simd::elementwise(
            #[inline(always)]
            move || {
                for (((p, m), v), &g) in p.iter_mut().zip(m).zip(v).zip(d) {
                    let mi = beta1 * *m + (1.0 - beta1) * g;
                    let g2 = g * g;
                    let vi = *v - (1.0 - beta2) * g2 * (*v - g2).signum();
                    *m = mi;
                    *v = vi;
                    *p += lr * mi / (vi.sqrt() + eps);
                }
            },
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_matches_scalar_loop() {
        let mut a: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..100).map(|i| i as f32 * -0.25).collect();
        let mut expect = a.clone();
        for (x, &y) in expect.iter_mut().zip(&b) {
            *x += y;
        }
        add_assign(&mut a, &b);
        assert_eq!(a, expect);
    }

    /// Every kernel with its operand count; operands past the count are
    /// ignored.
    type Call = fn(&mut [f32], &mut [f32], &mut [f32], &mut [f32]);
    const KERNELS: [(&str, usize, Call); 8] = [
        ("add_assign", 2, |a, b, _, _| add_assign(a, b)),
        ("sub_assign", 2, |a, b, _, _| sub_assign(a, b)),
        ("mul_assign", 2, |a, b, _, _| mul_assign(a, b)),
        ("scale_assign", 1, |a, _, _, _| scale_assign(a, 2.0)),
        ("axpy", 2, |a, b, _, _| axpy(a, 1.0, b)),
        ("sgd_momentum_update", 3, |p, v, g, _| {
            sgd_momentum_update(p, v, g, 0.1, 0.9, 0.0)
        }),
        ("prox_sgd_momentum_update", 4, |p, v, g, a| {
            prox_sgd_momentum_update(p, v, g, a, 0.01, 0.1, 0.9, 0.0)
        }),
        ("yogi_update", 4, |p, m, v, d| {
            yogi_update(p, m, v, d, 0.1, 0.9, 0.99, 1e-3)
        }),
    ];

    #[test]
    fn empty_slices_are_no_ops() {
        for (_, _, call) in KERNELS {
            call(&mut [], &mut [], &mut [], &mut []);
        }
    }

    #[test]
    fn every_kernel_refuses_a_short_operand_in_any_position() {
        // `scale_assign`'s one operand cannot mismatch.
        for (name, arity, call) in KERNELS.into_iter().filter(|k| k.1 > 1) {
            for short in 0..arity {
                let [mut a, mut b, mut c, mut d] =
                    std::array::from_fn(|i| vec![1.0f32; if i == short { 2 } else { 3 }]);
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    call(&mut a, &mut b, &mut c, &mut d);
                }))
                .expect_err(name);
                let message = panic.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    message.contains("length mismatch"),
                    "{name}, operand {short} short: {message:?}"
                );
            }
        }
    }

    #[test]
    fn sgd_update_matches_reference_loop() {
        let n = 257;
        let mut p: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let mut v: Vec<f32> = (0..n).map(|i| (i as f32).cos() * 0.1).collect();
        let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
        let (lr, mom, wd) = (0.05f32, 0.9f32, 0.01f32);
        let (mut rp, mut rv) = (p.clone(), v.clone());
        for i in 0..n {
            let grad = g[i] + wd * rp[i];
            let vel = mom * rv[i] + grad;
            rv[i] = vel;
            rp[i] -= lr * vel;
        }
        sgd_momentum_update(&mut p, &mut v, &g, lr, mom, wd);
        assert_eq!(p, rp);
        assert_eq!(v, rv);
    }

    #[test]
    fn large_parallel_sizes_match_serial() {
        // Straddle PAR_ELEMS: the parallel partition must be invisible.
        for n in [pool::PAR_ELEMS - 1, pool::PAR_ELEMS, pool::PAR_ELEMS + 17] {
            let mut a: Vec<f32> = (0..n).map(|i| (i % 113) as f32 * 0.3).collect();
            let b: Vec<f32> = (0..n).map(|i| (i % 97) as f32 - 48.0).collect();
            let mut expect = a.clone();
            for (x, &y) in expect.iter_mut().zip(&b) {
                *x += 0.5 * y;
            }
            axpy(&mut a, 0.5, &b);
            assert_eq!(a, expect, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        add_assign(&mut [1.0], &[1.0, 2.0]);
    }
}
