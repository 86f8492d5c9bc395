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
//! Above [`PAR_ELEMS`] elements a kernel fans out over the shared
//! worker pool ([`crate::pool`]) in disjoint index ranges. Every
//! element is written by exactly one task and no kernel here performs
//! a cross-element reduction, so results are independent of thread
//! count and scheduling by construction — the same discipline the
//! GEMM kernels follow.
//!
//! # SIMD
//!
//! Each per-range body dispatches on [`crate::simd::active`]: the AVX2
//! kernels, which the AVX-512 tier runs too (these loops are
//! bandwidth-bound), perform exactly the portable loop's arithmetic
//! eight lanes at a time (no FMA contraction), so results stay
//! bit-identical across tiers; `proptest_simd` pins the equivalence.

use crate::{pool, simd};
#[cfg(target_arch = "x86_64")]
use simd::Kernel;

/// At or above this many elements an in-place kernel fans out over
/// the worker pool; below it, dispatch costs more than it buys on a
/// memory-bound loop.
pub const PAR_ELEMS: usize = 1 << 16;

/// Shares a mutable element pointer with pool tasks that each write a
/// disjoint index range.
struct MutPtr(*mut f32);
// SAFETY: tasks operate on strictly disjoint ranges (enforced by the
// chunking arithmetic in `dispatch`), so concurrent writes never alias.
unsafe impl Send for MutPtr {}
// SAFETY: as for `Send` — a shared `&MutPtr` only hands each task the
// base pointer; every write goes to that task's own disjoint range.
unsafe impl Sync for MutPtr {}

/// Shares a read-only element pointer with pool tasks.
struct ConstPtr(*const f32);
// SAFETY: read-only access from multiple threads is always sound; the
// submitter keeps the referent alive until `parallel_for` returns.
unsafe impl Send for ConstPtr {}
// SAFETY: as for `Send` — nothing is ever written through the pointer,
// and the referent outlives every task that holds a `&ConstPtr`.
unsafe impl Sync for ConstPtr {}

/// Runs `body(start, end)` over `[0, len)`, split into disjoint ranges
/// across the worker pool for large `len`, inline otherwise. Purely a
/// scheduling decision: `body` must produce identical results for any
/// partition, which holds for every caller here (element-wise math,
/// no cross-element dependencies).
fn dispatch(len: usize, body: &(dyn Fn(usize, usize) + Sync)) {
    if len >= PAR_ELEMS && pool::max_parallelism() > 1 {
        let chunk = len.div_ceil(pool::max_parallelism() * 2).max(1024);
        let tasks = len.div_ceil(chunk);
        pool::parallel_for(tasks, &|t| {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(len);
            body(start, end);
        });
    } else {
        body(0, len);
    }
}

/// Reborrows disjoint subranges of the shared pointers as slices.
///
/// # Safety
///
/// `start..end` must be in-bounds for the original allocation and
/// disjoint across concurrently running tasks.
unsafe fn sub_mut<'a>(p: &MutPtr, start: usize, end: usize) -> &'a mut [f32] {
    // SAFETY: in-bounds and exclusive per this fn's contract.
    unsafe { std::slice::from_raw_parts_mut(p.0.add(start), end - start) }
}

/// Shared-slice counterpart of [`sub_mut`].
///
/// # Safety
///
/// `start..end` must be in-bounds for the original allocation; shared
/// reborrows may overlap, but no task may mutate the range.
unsafe fn sub_ref<'a>(p: &ConstPtr, start: usize, end: usize) -> &'a [f32] {
    // SAFETY: in-bounds and unaliased by writers per this fn's contract.
    unsafe { std::slice::from_raw_parts(p.0.add(start), end - start) }
}

/// `a[i] += b[i]`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "fused add_assign length mismatch");
    let kern = simd::active();
    let (pa, pb) = (MutPtr(a.as_mut_ptr()), ConstPtr(b.as_ptr()));
    dispatch(a.len(), &|s, e| {
        // SAFETY: ranges are disjoint and in-bounds (dispatch contract).
        let (a, b) = unsafe { (sub_mut(&pa, s, e), sub_ref(&pb, s, e)) };
        match kern {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => {
                // SAFETY: `simd::active` only returns supported tiers,
                // and every AVX-512 host has AVX2 (`simd::supported`).
                unsafe { simd::x86::add_assign_avx2(a, b) }
            }
            _ => {
                for (x, &y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
        }
    });
}

/// `a[i] -= b[i]`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sub_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "fused sub_assign length mismatch");
    let kern = simd::active();
    let (pa, pb) = (MutPtr(a.as_mut_ptr()), ConstPtr(b.as_ptr()));
    dispatch(a.len(), &|s, e| {
        // SAFETY: ranges are disjoint and in-bounds (dispatch contract).
        let (a, b) = unsafe { (sub_mut(&pa, s, e), sub_ref(&pb, s, e)) };
        match kern {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => {
                // SAFETY: `simd::active` only returns supported tiers,
                // and every AVX-512 host has AVX2 (`simd::supported`).
                unsafe { simd::x86::sub_assign_avx2(a, b) }
            }
            _ => {
                for (x, &y) in a.iter_mut().zip(b) {
                    *x -= y;
                }
            }
        }
    });
}

/// `a[i] *= b[i]` (Hadamard).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn mul_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "fused mul_assign length mismatch");
    let kern = simd::active();
    let (pa, pb) = (MutPtr(a.as_mut_ptr()), ConstPtr(b.as_ptr()));
    dispatch(a.len(), &|s, e| {
        // SAFETY: ranges are disjoint and in-bounds (dispatch contract).
        let (a, b) = unsafe { (sub_mut(&pa, s, e), sub_ref(&pb, s, e)) };
        match kern {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => {
                // SAFETY: `simd::active` only returns supported tiers,
                // and every AVX-512 host has AVX2 (`simd::supported`).
                unsafe { simd::x86::mul_assign_avx2(a, b) }
            }
            _ => {
                for (x, &y) in a.iter_mut().zip(b) {
                    *x *= y;
                }
            }
        }
    });
}

/// `a[i] *= alpha`.
pub fn scale_assign(a: &mut [f32], alpha: f32) {
    let kern = simd::active();
    let pa = MutPtr(a.as_mut_ptr());
    dispatch(a.len(), &|s, e| {
        // SAFETY: ranges are disjoint and in-bounds (dispatch contract).
        let a = unsafe { sub_mut(&pa, s, e) };
        match kern {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => {
                // SAFETY: `simd::active` only returns supported tiers,
                // and every AVX-512 host has AVX2 (`simd::supported`).
                unsafe { simd::x86::scale_assign_avx2(a, alpha) }
            }
            _ => {
                for x in a {
                    *x *= alpha;
                }
            }
        }
    });
}

/// `a[i] += alpha * b[i]` — the aggregation accumulate primitive.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(a: &mut [f32], alpha: f32, b: &[f32]) {
    assert_eq!(a.len(), b.len(), "fused axpy length mismatch");
    let kern = simd::active();
    let (pa, pb) = (MutPtr(a.as_mut_ptr()), ConstPtr(b.as_ptr()));
    dispatch(a.len(), &|s, e| {
        // SAFETY: ranges are disjoint and in-bounds (dispatch contract).
        let (a, b) = unsafe { (sub_mut(&pa, s, e), sub_ref(&pb, s, e)) };
        match kern {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => {
                // SAFETY: `simd::active` only returns supported tiers,
                // and every AVX-512 host has AVX2 (`simd::supported`).
                unsafe { simd::x86::axpy_avx2(a, alpha, b) }
            }
            _ => {
                for (x, &y) in a.iter_mut().zip(b) {
                    *x += alpha * y;
                }
            }
        }
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
    assert_eq!(p.len(), v.len(), "fused sgd length mismatch (velocity)");
    assert_eq!(p.len(), g.len(), "fused sgd length mismatch (gradient)");
    let (pp, pv, pg) = (
        MutPtr(p.as_mut_ptr()),
        MutPtr(v.as_mut_ptr()),
        ConstPtr(g.as_ptr()),
    );
    let kern = simd::active();
    dispatch(p.len(), &|s, e| {
        // SAFETY: ranges are disjoint and in-bounds (dispatch contract).
        let (p, v, g) = unsafe { (sub_mut(&pp, s, e), sub_mut(&pv, s, e), sub_ref(&pg, s, e)) };
        match kern {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => {
                // SAFETY: `simd::active` only returns supported tiers,
                // and every AVX-512 host has AVX2 (`simd::supported`).
                unsafe { simd::x86::sgd_momentum_avx2(p, v, g, lr, momentum, weight_decay) }
            }
            _ => {
                for ((p, v), &g) in p.iter_mut().zip(v).zip(g) {
                    let grad = g + weight_decay * *p;
                    let vel = momentum * *v + grad;
                    *v = vel;
                    *p -= lr * vel;
                }
            }
        }
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
    assert_eq!(p.len(), v.len(), "fused prox length mismatch (velocity)");
    assert_eq!(p.len(), g.len(), "fused prox length mismatch (gradient)");
    assert_eq!(p.len(), anchor.len(), "fused prox length mismatch (anchor)");
    let (pp, pv, pg, pa) = (
        MutPtr(p.as_mut_ptr()),
        MutPtr(v.as_mut_ptr()),
        ConstPtr(g.as_ptr()),
        ConstPtr(anchor.as_ptr()),
    );
    let kern = simd::active();
    dispatch(p.len(), &|s, e| {
        // SAFETY: ranges are disjoint and in-bounds (dispatch contract).
        let (p, v, g, a) = unsafe {
            (
                sub_mut(&pp, s, e),
                sub_mut(&pv, s, e),
                sub_ref(&pg, s, e),
                sub_ref(&pa, s, e),
            )
        };
        match kern {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => {
                // SAFETY: `simd::active` only returns supported tiers,
                // and every AVX-512 host has AVX2 (`simd::supported`).
                unsafe {
                    simd::x86::prox_sgd_momentum_avx2(p, v, g, a, mu, lr, momentum, weight_decay)
                }
            }
            _ => {
                for (((p, v), &g), &a) in p.iter_mut().zip(v).zip(g).zip(a) {
                    let adjusted = g + mu * (*p - a);
                    let grad = adjusted + weight_decay * *p;
                    let vel = momentum * *v + grad;
                    *v = vel;
                    *p -= lr * vel;
                }
            }
        }
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
    assert_eq!(p.len(), m.len(), "fused yogi length mismatch (m)");
    assert_eq!(p.len(), v.len(), "fused yogi length mismatch (v)");
    assert_eq!(p.len(), d.len(), "fused yogi length mismatch (delta)");
    let (pp, pm, pv, pd) = (
        MutPtr(p.as_mut_ptr()),
        MutPtr(m.as_mut_ptr()),
        MutPtr(v.as_mut_ptr()),
        ConstPtr(d.as_ptr()),
    );
    let kern = simd::active();
    dispatch(p.len(), &|s, e| {
        // SAFETY: ranges are disjoint and in-bounds (dispatch contract).
        let (p, m, v, d) = unsafe {
            (
                sub_mut(&pp, s, e),
                sub_mut(&pm, s, e),
                sub_mut(&pv, s, e),
                sub_ref(&pd, s, e),
            )
        };
        match kern {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => {
                // SAFETY: `simd::active` only returns supported tiers,
                // and every AVX-512 host has AVX2 (`simd::supported`).
                unsafe { simd::x86::yogi_avx2(p, m, v, d, lr, beta1, beta2, eps) }
            }
            _ => {
                for (((p, m), v), &g) in p.iter_mut().zip(m).zip(v).zip(d) {
                    let mi = beta1 * *m + (1.0 - beta1) * g;
                    let g2 = g * g;
                    let vi = *v - (1.0 - beta2) * g2 * (*v - g2).signum();
                    *m = mi;
                    *v = vi;
                    *p += lr * mi / (vi.sqrt() + eps);
                }
            }
        }
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

    #[test]
    fn empty_slices_are_no_ops() {
        add_assign(&mut [], &[]);
        sub_assign(&mut [], &[]);
        mul_assign(&mut [], &[]);
        scale_assign(&mut [], 2.0);
        axpy(&mut [], 1.0, &[]);
        sgd_momentum_update(&mut [], &mut [], &[], 0.1, 0.9, 0.0);
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
        for n in [PAR_ELEMS - 1, PAR_ELEMS, PAR_ELEMS + 17] {
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
