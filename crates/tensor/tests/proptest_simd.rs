//! Property tests pinning the SIMD kernel tiers to the portable
//! fallback at 0 ULP.
//!
//! [`ft_tensor::simd`] promises that the AVX2 and AVX-512 tiers
//! perform exactly the portable loops' arithmetic — same IEEE-754 ops,
//! same operands, same per-element order, eight or sixteen lanes at a
//! time — so every comparison against [`Kernel::Portable`] here is on
//! raw `f32` bits, not an epsilon band, on every tier
//! [`simd::available`] lists: GEMM across remainder tiles
//! (`m % MR ≠ 0`, `n % NR ≠ 0` on both sides of one 16-lane vector,
//! `k` below and above one k-block), the real workload shapes, every
//! fused element-wise kernel (including NaN/signed-zero edges through
//! Yogi's `signum`). Each run is a `Settings` scope of its own, so
//! the tests run side by side.

use ft_tensor::simd::{self, Kernel};
use ft_tensor::{fused, pool, Settings, Tensor};
use proptest::prelude::*;

mod common;

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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts every available tier reproduces the portable run exactly.
fn assert_all_tiers_bit_equal(f: impl Fn() -> Vec<f32>, what: &str) {
    let reference = on_tier(Kernel::Portable, &f);
    for k in simd::available() {
        let got = on_tier(k, &f);
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

/// Every SIMD tier's GEMM must be bit-identical to portable.
fn check_gemm_shape(m: usize, k: usize, n: usize) {
    let a = seeded_tensor(&[m, k], (m * 31 + k) as u64);
    let b = seeded_tensor(&[k, n], (n * 17 + k) as u64);
    assert_all_tiers_bit_equal(
        || a.matmul(&b).unwrap().data().to_vec(),
        &format!("{m}x{k}x{n}"),
    );
}

proptest! {
    // Shapes land on every remainder-tile combination (m % 4, n % 32
    // below, at and above one 16-lane vector, k vs one k-block) with B
    // both read in place and packed.
    #[test]
    fn gemm_tiers_agree_on_arbitrary_shapes(
        m in 1usize..=37,
        k in 1usize..=260,
        n in 1usize..=70,
    ) {
        check_gemm_shape(m, k, n);
    }

    #[test]
    fn t_matmul_and_matmul_t_tiers_agree(
        m in 1usize..=21,
        k in 1usize..=150,
        n in 1usize..=21,
    ) {
        let a = seeded_tensor(&[m, k], 5);
        let b = seeded_tensor(&[k, n], 6);
        let at = a.transpose().unwrap();
        let bt = b.transpose().unwrap();
        let run_t = || at.t_matmul(&b).unwrap().data().to_vec();
        let run_bt = || a.matmul_t(&bt).unwrap().data().to_vec();
        let (rt, rbt) = on_tier(Kernel::Portable, || (run_t(), run_bt()));
        for tier in simd::available() {
            let (gt, gbt) = on_tier(tier, || (run_t(), run_bt()));
            prop_assert_eq!(bits(&gt), bits(&rt));
            prop_assert_eq!(bits(&gbt), bits(&rbt));
        }
    }
}

/// Hand-picked shapes crossing every dispatch path: B in place, B
/// packed, row-split parallel, column-split (short-and-wide), plus
/// maximal remainder tiles and k both under and over a k-block.
#[test]
fn gemm_tiers_agree_on_dispatch_edge_shapes() {
    for (m, k, n) in [
        (1, 1, 1),
        (3, 7, 5),       // one edge tile
        (37, 130, 29),   // tiled, m%4=1, one 29-wide edge window
        (6, 40, 65),     // two full tiles and a 1-wide edge window
        (10, 96, 48),    // a full tile and a 16-wide edge, m%4=2
        (21, 500, 19),   // k spans multiple k-blocks
        (33, 33, 33),    // B in place, narrow last window packed
        (128, 128, 128), // row-split parallel threshold
        (4, 600, 600),   // column-split short-and-wide
        (160, 96, 144),  // multi-panel row split
        (5, 513, 9),     // three k-blocks, the last one short
        (7, 300, 33),    // a 1-wide edge past a full tile, two k-blocks
    ] {
        check_gemm_shape(m, k, n);
    }
}

/// The `fedtrans-conv` shapes as stored-operand GEMMs, on every tier,
/// from every call context:
/// each tier, `FT_TENSOR_SIMD=0` included, must reach the same goldens
/// through the single-panel, nested and fanned-out paths alike.
#[test]
fn conv_workload_shapes_match_reference_on_every_tier() {
    for tier in simd::available() {
        on_tier(tier, || {
            for case in common::conv_workload_products() {
                assert_eq!(case.check(), Ok(()), "on {tier:?}");
            }
        });
    }
}

/// The `fedtrans-dense` shapes on every tier, from every call context:
/// in-place operand reads and packed narrow windows must both reach the
/// reference's bits.
#[test]
fn dense_workload_shapes_match_reference_on_every_tier() {
    for tier in simd::available() {
        on_tier(tier, || {
            for case in common::dense_workload_products() {
                assert_eq!(case.check(), Ok(()), "on {tier:?}");
            }
        });
    }
}

/// Signed zeros and non-finite operands through every tier and every
/// operand layout: each finite or infinite result keeps the reference's
/// exact bits (`+0 + (-0) = +0` included, so every accumulator starts
/// at `+0.0`), and NaN lands exactly where the reference puts it.
#[test]
fn signed_zero_and_non_finite_operands_match_reference_on_every_tier() {
    let specials = [
        0.0f32,
        -0.0,
        1.0,
        -1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1e-40,
    ];
    for (m, k, n) in [(10, 96, 48), (5, 3, 9), (96, 10, 16), (6, 200, 20)] {
        let pick = |i: usize| specials[(i * 7 + i / 5) % specials.len()];
        let a: Vec<f32> = (0..m * k).map(|i| pick(i) * 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| pick(i + 3)).collect();
        let want = common::reference(&a, &b, m, k, n);
        let (a, b) = (
            Tensor::from_vec(a, &[m, k]).unwrap(),
            Tensor::from_vec(b, &[k, n]).unwrap(),
        );
        let (at, bt) = (a.transpose().unwrap(), b.transpose().unwrap());
        let same = |got: &[f32]| {
            got.iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
        };
        for tier in simd::available() {
            let [c, ct, cbt] = on_tier(tier, || {
                [a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt)].map(|c| c.unwrap())
            });
            for (name, c) in [("matmul", c), ("t_matmul", ct), ("matmul_t", cbt)] {
                assert!(same(c.data()), "{name} {m}x{k}x{n} on {tier:?}");
            }
        }
    }
}

// ------------------------------------------------------- fused kernels

proptest! {
    #[test]
    fn elementwise_tiers_agree(
        a in proptest::collection::vec(-100.0f32..100.0, 1..600),
        seed in 0u64..1000,
        alpha in -10.0f32..10.0,
    ) {
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
    let mut sizes: Vec<usize> = (0..=17).collect();
    sizes.extend([pool::PAR_ELEMS - 1, pool::PAR_ELEMS, pool::PAR_ELEMS + 13]);
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

/// A NaN whose payload no kernel produces: a padding element that no
/// longer holds it was written by a kernel.
const CANARY: f32 = f32::from_bits(0x7fa5_a5a5);
/// Canary elements after every slice: more than one vector reads.
const TAIL: usize = 17;

/// One fused kernel over four equal-length slices (unused ones are
/// ignored; the read-only ones are passed as shared borrows).
type Fused4 = fn(&mut [f32], &mut [f32], &mut [f32], &mut [f32]);

/// Every fused element-wise kernel on slices at base offsets 1–7 of
/// canary-padded buffers, at lengths 0, 1, lane − 1, lane, lane + 1 and
/// their doubles, and at one offset around the pool split
/// (`PAR_ELEMS` − 1, `PAR_ELEMS`, `PAR_ELEMS` + 13), where the slices
/// reach the kernel in chunks: after every call all four buffers'
/// padding is intact, and each slice holds the portable tier's exact
/// bits.
#[test]
fn fused_kernels_stay_inside_canary_padded_slices() {
    let kernels: [(&str, Fused4); 8] = [
        ("add_assign", |a, b, _, _| fused::add_assign(a, b)),
        ("sub_assign", |a, b, _, _| fused::sub_assign(a, b)),
        ("mul_assign", |a, b, _, _| fused::mul_assign(a, b)),
        ("scale_assign", |a, _, _, _| fused::scale_assign(a, 0.75)),
        ("axpy", |a, b, _, _| fused::axpy(a, -0.5, b)),
        ("sgd_momentum_update", |p, v, g, _| {
            fused::sgd_momentum_update(p, v, g, 0.1, 0.9, 1e-4)
        }),
        ("prox_sgd_momentum_update", |p, v, g, a| {
            fused::prox_sgd_momentum_update(p, v, g, a, 0.01, 0.1, 0.9, 1e-4)
        }),
        ("yogi_update", |p, m, v, d| {
            fused::yogi_update(p, m, v, d, 0.1, 0.9, 0.99, 1e-3)
        }),
    ];
    let small = [0, 1, 7, 8, 9, 15, 16, 17]
        .into_iter()
        .flat_map(|len| (1..=7).map(move |off| (len, off)));
    let split = [pool::PAR_ELEMS - 1, pool::PAR_ELEMS, pool::PAR_ELEMS + 13].map(|len| (len, 3));
    for (name, kernel) in kernels {
        for (len, off) in small.clone().chain(split) {
            // Yogi's `v` (the third slice) is a second moment: ≥ 0.
            let inputs: [Vec<f32>; 4] = std::array::from_fn(|i| {
                let v = seeded_vec(len, (len * 8 + off + i * 100) as u64);
                if i == 2 {
                    v.iter().map(|x| x.abs()).collect()
                } else {
                    v
                }
            });
            let run = |tier| {
                let mut bufs = inputs.clone().map(|v| {
                    let mut buf = vec![CANARY; off + len + TAIL];
                    buf[off..off + len].copy_from_slice(&v);
                    buf
                });
                on_tier(tier, || {
                    let [w, x, y, z] = &mut bufs;
                    let s = off..off + len;
                    kernel(
                        &mut w[s.clone()],
                        &mut x[s.clone()],
                        &mut y[s.clone()],
                        &mut z[s],
                    );
                });
                for buf in &bufs {
                    let padding = buf[..off].iter().chain(&buf[off + len..]);
                    assert!(
                        padding.into_iter().all(|x| x.to_bits() == CANARY.to_bits()),
                        "{name} wrote outside its slices: len {len}, offset {off}, {tier:?}"
                    );
                }
                bufs.map(|buf| bits(&buf[off..off + len]))
            };
            let want = run(Kernel::Portable);
            for tier in simd::available() {
                assert_eq!(run(tier), want, "{name} len {len} offset {off} on {tier:?}");
            }
        }
    }
}

/// This host must actually exercise every SIMD tier it has in CI: the
/// tier list includes AVX2 and AVX-512 whenever the CPU does,
/// regardless of `FT_TENSOR_SIMD` (the env override narrows `active()`,
/// never `available()`).
#[test]
fn available_reflects_hardware_not_env() {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            assert!(simd::available().contains(&Kernel::Avx2));
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            assert!(simd::available().contains(&Kernel::Avx512));
        }
    }
    assert!(simd::available().contains(&Kernel::Portable));
}
