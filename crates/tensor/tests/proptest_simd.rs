//! Property tests pinning the SIMD kernel tiers to the portable
//! fallback at 0 ULP.
//!
//! [`ft_tensor::simd`] promises that the AVX2 tier performs exactly
//! the portable loops' arithmetic — same IEEE-754 ops, same operands,
//! same per-element order, eight lanes at a time — so every
//! comparison against [`Kernel::Portable`] here is on raw `f32` bits,
//! not an epsilon band: GEMM across remainder tiles (`m % MR ≠ 0`,
//! `n % NR ≠ 0`, `k` below and above one k-block), every fused
//! element-wise kernel (including NaN/signed-zero edges through
//! Yogi's `signum`), and a sweep of `(mc, kc)` block sizes.
//!
//! All tests serialize on one mutex: `simd::force` / `tune::force`
//! are process-global hooks.

use ft_tensor::simd::{self, Kernel};
use ft_tensor::{fused, tune, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

mod common;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means another test failed; the hooks are
    // still safe to use.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the kernel tier forced to `k`, restoring
/// auto-detection after.
fn under<T>(k: Kernel, f: impl FnOnce() -> T) -> T {
    simd::force(Some(k));
    let out = f();
    simd::force(None);
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts every available tier reproduces the portable run exactly.
fn assert_all_tiers_bit_equal(f: impl Fn() -> Vec<f32>, what: &str) {
    let reference = under(Kernel::Portable, &f);
    for k in simd::available() {
        let got = under(k, &f);
        assert_eq!(
            bits(&got),
            bits(&reference),
            "{what}: {:?} diverged from portable",
            k
        );
    }
}

fn seeded_tensor(dims: &[usize], seed: u64) -> Tensor {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    ft_tensor::uniform(&mut rng, dims, -2.0, 2.0)
}

fn seeded_vec(n: usize, seed: u64) -> Vec<f32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-10.0f32..10.0)).collect()
}

// ---------------------------------------------------------------- GEMM

/// AVX2 GEMM must be bit-identical to portable.
fn check_gemm_shape(m: usize, k: usize, n: usize) {
    let a = seeded_tensor(&[m, k], (m * 31 + k) as u64);
    let b = seeded_tensor(&[k, n], (n * 17 + k) as u64);
    assert_all_tiers_bit_equal(
        || a.matmul(&b).unwrap().data().to_vec(),
        &format!("{m}x{k}x{n}"),
    );
}

proptest! {
    // Shapes deliberately straddle SMALL_WORK and land on every
    // remainder-tile combination (m % 4, n % 8, k vs one k-block).
    #[test]
    fn gemm_tiers_agree_on_arbitrary_shapes(
        m in 1usize..=37,
        k in 1usize..=260,
        n in 1usize..=41,
    ) {
        let _guard = lock();
        check_gemm_shape(m, k, n);
    }

    #[test]
    fn t_matmul_and_matmul_t_tiers_agree(
        m in 1usize..=21,
        k in 1usize..=150,
        n in 1usize..=21,
    ) {
        let _guard = lock();
        let a = seeded_tensor(&[m, k], 5);
        let b = seeded_tensor(&[k, n], 6);
        let at = a.transpose().unwrap();
        let bt = b.transpose().unwrap();
        let run_t = || at.t_matmul(&b).unwrap().data().to_vec();
        let run_bt = || a.matmul_t(&bt).unwrap().data().to_vec();
        let (rt, rbt) = under(Kernel::Portable, || (run_t(), run_bt()));
        if simd::supported(Kernel::Avx2) {
            let (gt, gbt) = under(Kernel::Avx2, || (run_t(), run_bt()));
            prop_assert_eq!(bits(&gt), bits(&rt));
            prop_assert_eq!(bits(&gbt), bits(&rbt));
        }
    }
}

/// Hand-picked shapes crossing every dispatch path: small loop-nest,
/// tiled-serial, row-split parallel, column-split (short-and-wide),
/// plus maximal remainder tiles and k both under and over a k-block.
#[test]
fn gemm_tiers_agree_on_dispatch_edge_shapes() {
    let _guard = lock();
    for (m, k, n) in [
        (1, 1, 1),
        (3, 7, 5),       // small path
        (37, 130, 29),   // tiled, m%4=1, n%8=5, k crosses 128
        (21, 500, 19),   // k spans multiple k-blocks
        (33, 33, 33),    // just over SMALL_WORK
        (128, 128, 128), // row-split parallel threshold
        (4, 600, 600),   // column-split short-and-wide
        (160, 96, 144),  // multi-panel row split
        (5, 513, 9),     // k % KC_MAX ≠ 0 at the block-size ceiling
    ] {
        check_gemm_shape(m, k, n);
    }
}

/// The `fedtrans-conv` shapes on the portable micro-kernel, from every
/// call context (`proptest_matmul.rs` runs the same set on the
/// dispatched tier): `FT_TENSOR_SIMD=0` must reach the same goldens
/// through the single-panel, nested and fanned-out paths alike.
#[test]
fn conv_workload_shapes_match_reference_on_the_portable_kernel() {
    let _guard = lock();
    under(Kernel::Portable, || {
        for case in common::conv_workload_products() {
            assert_eq!(case.check(), Ok(()), "on the portable kernel");
        }
    });
}

/// Any `(mc, kc)` choice must produce bit-identical results under
/// every kernel tier: blocking changes scheduling, never the
/// per-element accumulation order. This is the digest-neutrality
/// argument for the block-size constants, verified.
#[test]
fn tile_size_sweep_is_bit_neutral() {
    let _guard = lock();
    let (m, k, n) = (45, 300, 37);
    let a = seeded_tensor(&[m, k], 11);
    let b = seeded_tensor(&[k, n], 12);
    let run = || a.matmul(&b).unwrap().data().to_vec();
    tune::force(None);
    let reference = under(Kernel::Portable, run);
    for (mc, kc) in [(32, 32), (64, 64), (128, 512), (4096, 480), (36, 136)] {
        tune::force(Some((mc, kc)));
        let portable = under(Kernel::Portable, run);
        assert_eq!(
            bits(&portable),
            bits(&reference),
            "portable mc={mc} kc={kc}"
        );
        if simd::supported(Kernel::Avx2) {
            let avx2 = under(Kernel::Avx2, run);
            assert_eq!(bits(&avx2), bits(&reference), "avx2 mc={mc} kc={kc}");
        }
    }
    tune::force(None);
}

// ------------------------------------------------------- fused kernels

proptest! {
    #[test]
    fn elementwise_tiers_agree(
        a in proptest::collection::vec(-100.0f32..100.0, 1..600),
        seed in 0u64..1000,
        alpha in -10.0f32..10.0,
    ) {
        let _guard = lock();
        let b = seeded_vec(a.len(), seed);
        for (name, f) in [
            ("add_assign", &(|| { let mut x = a.clone(); fused::add_assign(&mut x, &b); x }) as &dyn Fn() -> Vec<f32>),
            ("sub_assign", &|| { let mut x = a.clone(); fused::sub_assign(&mut x, &b); x }),
            ("mul_assign", &|| { let mut x = a.clone(); fused::mul_assign(&mut x, &b); x }),
            ("scale_assign", &|| { let mut x = a.clone(); fused::scale_assign(&mut x, alpha); x }),
            ("axpy", &|| { let mut x = a.clone(); fused::axpy(&mut x, alpha, &b); x }),
        ] {
            assert_all_tiers_bit_equal(f, name);
        }
    }

    #[test]
    fn sgd_and_prox_tiers_agree(
        n in 1usize..=600,
        seed in 0u64..1000,
        lr in 0.001f32..1.0,
        momentum in 0.0f32..0.99,
        wd in 0.0f32..0.1,
        mu in 0.0f32..2.0,
    ) {
        let _guard = lock();
        let p = seeded_vec(n, seed);
        let v = seeded_vec(n, seed + 1);
        let g = seeded_vec(n, seed + 2);
        let anchor = seeded_vec(n, seed + 3);
        assert_all_tiers_bit_equal(
            || {
                let (mut fp, mut fv) = (p.clone(), v.clone());
                fused::sgd_momentum_update(&mut fp, &mut fv, &g, lr, momentum, wd);
                fp.extend_from_slice(&fv);
                fp
            },
            "sgd_momentum_update",
        );
        assert_all_tiers_bit_equal(
            || {
                let (mut fp, mut fv) = (p.clone(), v.clone());
                fused::prox_sgd_momentum_update(
                    &mut fp, &mut fv, &g, &anchor, mu, lr, momentum, wd,
                );
                fp.extend_from_slice(&fv);
                fp
            },
            "prox_sgd_momentum_update",
        );
    }

    #[test]
    fn yogi_tiers_agree(
        n in 1usize..=600,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let p = seeded_vec(n, seed);
        let m = seeded_vec(n, seed + 1);
        let v: Vec<f32> = seeded_vec(n, seed + 2).iter().map(|x| x.abs()).collect();
        let d = seeded_vec(n, seed + 3);
        let (lr, b1, b2, eps) = (0.1f32, 0.9f32, 0.99f32, 1e-3f32);
        assert_all_tiers_bit_equal(
            || {
                let (mut fp, mut fm, mut fv) = (p.clone(), m.clone(), v.clone());
                fused::yogi_update(&mut fp, &mut fm, &mut fv, &d, lr, b1, b2, eps);
                fp.extend_from_slice(&fm);
                fp.extend_from_slice(&fv);
                fp
            },
            "yogi_update",
        );
    }
}

/// Yogi's vectorized `signum` must reproduce `f32::signum` bit for
/// bit on the edges: ±0 (sign-dependent ±1) and NaN (the canonical
/// `f32::NAN`), plus the NaN propagation through the rest of the
/// update.
#[test]
fn yogi_signum_edges_are_bit_identical() {
    let _guard = lock();
    // v − g² hits +0, −0, NaN, +∞-adjacent, and plain values.
    let p = vec![1.0f32; 8];
    let m = vec![0.5f32; 8];
    let v = vec![0.0f32, -0.0, f32::NAN, 4.0, 1e-20, 1e20, 0.25, 0.0];
    let d = vec![0.0f32, 0.0, 1.0, f32::NAN, 2.0, -3.0, 0.5, 1.0];
    let (lr, b1, b2, eps) = (0.1f32, 0.9f32, 0.99f32, 1e-3f32);
    assert_all_tiers_bit_equal(
        || {
            let (mut fp, mut fm, mut fv) = (p.clone(), m.clone(), v.clone());
            fused::yogi_update(&mut fp, &mut fm, &mut fv, &d, lr, b1, b2, eps);
            fp.extend_from_slice(&fm);
            fp.extend_from_slice(&fv);
            fp
        },
        "yogi signum edges",
    );
}

/// SIMD-width remainder handling: every length around the 8-lane
/// boundary, and sizes straddling the pool-parallel threshold, must
/// be invisible.
#[test]
fn lane_tails_and_parallel_threshold_are_invisible() {
    let _guard = lock();
    let mut sizes: Vec<usize> = (0..=17).collect();
    sizes.extend([
        fused::PAR_ELEMS - 1,
        fused::PAR_ELEMS,
        fused::PAR_ELEMS + 13,
    ]);
    for n in sizes {
        let a = seeded_vec(n, 21);
        let b = seeded_vec(n, 22);
        assert_all_tiers_bit_equal(
            || {
                let mut x = a.clone();
                fused::axpy(&mut x, 0.375, &b);
                x
            },
            &format!("axpy n={n}"),
        );
    }
}

/// This host must actually exercise a SIMD tier in CI: if the CPU has
/// AVX2 the tier list must include it regardless of `FT_TENSOR_SIMD`
/// (the env override narrows `active()`, never `available()`).
#[test]
fn available_reflects_hardware_not_env() {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert!(simd::available().contains(&Kernel::Avx2));
    }
    assert!(simd::available().contains(&Kernel::Portable));
}
