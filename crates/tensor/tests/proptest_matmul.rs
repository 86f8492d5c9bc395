//! Property tests pinning the tiled GEMM kernels to a naive reference.
//!
//! The kernels promise bit-for-bit determinism: every output element is
//! an ascending-`k` dot product with a single `f32` accumulator,
//! regardless of blocking, tiling, or thread count. That contract makes
//! the naive triple loop below an *exact* oracle — every comparison here
//! is `0 ULP` (`assert_eq` on the raw `f32` buffers), not an epsilon
//! band.

use ft_tensor::Tensor;
use proptest::prelude::*;

mod common;
use common::{conv_workload_products, dense_workload_products, products_of};

/// The naive reference of `common` (ascending-`k`, one accumulator per
/// element — the accumulation order the tiled kernels guarantee), on
/// tensors.
fn reference_gemm(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows().unwrap(), a.cols().unwrap());
    let n = b.cols().unwrap();
    Tensor::from_vec(common::reference(a.data(), b.data(), m, k, n), &[m, n]).unwrap()
}

fn tensor_of(m: usize, n: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-4.0f32..4.0, m * n)
        .prop_map(move |v| Tensor::from_vec(v, &[m, n]).unwrap())
}

/// `(A[m×k], B[k×n])` with dimensions spanning full and edge tiles
/// (sizes straddle the MR=4 / NR=32 register-tile boundaries and the
/// 16-lane vector inside an edge window) and one or more k-blocks.
fn gemm_operands() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..=40, 1usize..=150, 1usize..=70)
        .prop_flat_map(|(m, k, n)| (tensor_of(m, k), tensor_of(k, n)))
}

proptest! {
    #[test]
    fn matmul_matches_reference_exactly((a, b) in gemm_operands()) {
        let tiled = a.matmul(&b).unwrap();
        let naive = reference_gemm(&a, &b);
        prop_assert_eq!(tiled.data(), naive.data());
    }

    #[test]
    fn t_matmul_matches_reference_exactly((a, b) in gemm_operands()) {
        // Feed A^T so the kernel's internal transpose lands on A.
        let at = a.transpose().unwrap();
        let tiled = at.t_matmul(&b).unwrap();
        let naive = reference_gemm(&a, &b);
        prop_assert_eq!(tiled.data(), naive.data());
    }

    #[test]
    fn matmul_t_matches_reference_exactly((a, b) in gemm_operands()) {
        let bt = b.transpose().unwrap();
        let tiled = a.matmul_t(&bt).unwrap();
        let naive = reference_gemm(&a, &b);
        prop_assert_eq!(tiled.data(), naive.data());
    }

    #[test]
    fn row_and_column_vector_shapes_match_reference(
        k in 1usize..=300,
        scale in 0.1f32..2.0,
    ) {
        // 1×k @ k×1 and k×1 @ 1×k: degenerate tiles in both directions.
        let row: Tensor = Tensor::from_vec(
            (0..k).map(|i| scale * (i as f32 - k as f32 / 2.0)).collect(),
            &[1, k],
        ).unwrap();
        let col = row.transpose().unwrap();
        prop_assert_eq!(
            row.matmul(&col).unwrap().data(),
            reference_gemm(&row, &col).data()
        );
        prop_assert_eq!(
            col.matmul(&row).unwrap().data(),
            reference_gemm(&col, &row).data()
        );
    }
}

proptest! {
    // Shapes the conv workload does not hit: m and n off the MR / NR
    // grid, k across one or more `kc` blocks, work on both sides of the
    // fan-out threshold — from every call context.
    #[test]
    fn remainder_shapes_match_reference_from_every_call_context(
        m in 1usize..=45,
        k in 150usize..=700,
        n in 1usize..=330,
        seed in 0u64..1 << 20,
    ) {
        for case in products_of(m, k, n, seed) {
            prop_assert_eq!(case.check(), Ok(()));
        }
    }
}

/// The `fedtrans-conv` products as stored-operand GEMMs (the shapes its
/// layers issued while the patch matrix was an operand of its own; the
/// products over shifted planes are pinned by `ft_nn`'s
/// `conv_contract.rs`), plus 8/9/16/17-row products wide enough to fan
/// out — the rows the old split rule chopped into single micro-tiles. Bit-for-bit against
/// the naive reference from the main thread, from inside a pool task
/// and while another submitter owns the pool.
#[test]
fn conv_workload_shapes_match_reference_from_every_call_context() {
    for case in conv_workload_products() {
        assert_eq!(case.check(), Ok(()));
    }
}

/// The GEMMs of a `fedtrans-dense` train step, which read A (and, but
/// for `dX`, B) in place: bit-for-bit against the naive reference from
/// every call context.
#[test]
fn dense_workload_shapes_match_reference_from_every_call_context() {
    for case in dense_workload_products() {
        assert_eq!(case.check(), Ok(()));
    }
}

#[test]
fn empty_shapes_produce_empty_or_zero_products() {
    for (m, k, n) in [(0, 5, 3), (5, 0, 3), (5, 3, 0), (0, 0, 0)] {
        let a = Tensor::zeros(&[m, k]);
        let b = Tensor::zeros(&[k, n]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[m, n]);
        assert!(c.data().iter().all(|&v| v == 0.0));

        let at = Tensor::zeros(&[k, m]);
        let c = at.t_matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[m, n]);

        let bt = Tensor::zeros(&[n, k]);
        let c = a.matmul_t(&bt).unwrap();
        assert_eq!(c.shape().dims(), &[m, n]);
    }
}

#[test]
fn kernels_agree_across_all_internal_dispatch_paths() {
    // One shape per path: B read in place, B packed, and large enough
    // to engage the pool on multi-core hosts. The same seed-derived
    // data must produce identical bits everywhere.
    for (m, k, n) in [(3, 5, 4), (64, 96, 48), (160, 128, 144)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = ft_tensor::uniform(&mut rng, &[m, k], -1.0, 1.0);
        let b = ft_tensor::uniform(&mut rng, &[k, n], -1.0, 1.0);
        let naive = reference_gemm(&a, &b);
        assert_eq!(a.matmul(&b).unwrap().data(), naive.data(), "{m}x{k}x{n}");
        assert_eq!(
            a.transpose().unwrap().t_matmul(&b).unwrap().data(),
            naive.data()
        );
        assert_eq!(
            a.matmul_t(&b.transpose().unwrap()).unwrap().data(),
            naive.data()
        );
    }
}

use rand::SeedableRng;
