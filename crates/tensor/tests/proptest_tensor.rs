//! Property-based tests for the tensor substrate.

use ft_tensor::Tensor;
use proptest::prelude::*;

fn matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
    })
}

fn matrix_pair_same_shape(max_dim: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        let v1 = proptest::collection::vec(-10.0f32..10.0, r * c);
        let v2 = proptest::collection::vec(-10.0f32..10.0, r * c);
        (v1, v2).prop_map(move |(a, b)| {
            (
                Tensor::from_vec(a, &[r, c]).unwrap(),
                Tensor::from_vec(b, &[r, c]).unwrap(),
            )
        })
    })
}

proptest! {
    #[test]
    fn add_commutes((a, b) in matrix_pair_same_shape(8)) {
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn sub_then_add_roundtrips((a, b) in matrix_pair_same_shape(8)) {
        let back = a.sub(&b).unwrap().add(&b).unwrap();
        for (x, y) in back.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_is_involutive(a in matrix(8)) {
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn identity_matmul_is_noop(a in matrix(8)) {
        let n = a.cols().unwrap();
        let out = a.matmul(&Tensor::eye(n)).unwrap();
        for (x, y) in out.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn scale_is_linear(a in matrix(8), alpha in -5.0f32..5.0) {
        let direct = a.scale(alpha);
        let via_add = a.scale(alpha / 2.0).add(&a.scale(alpha / 2.0)).unwrap();
        for (x, y) in direct.data().iter().zip(via_add.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn norm_is_nonnegative_and_scales(a in matrix(8), alpha in 0.0f32..4.0) {
        prop_assert!(a.norm() >= 0.0);
        let scaled = a.scale(alpha).norm();
        prop_assert!((scaled - alpha * a.norm()).abs() < 1e-2 * (1.0 + a.norm()));
    }

    #[test]
    fn matmul_distributes_over_add(
        a in matrix(6),
        (b, c) in matrix_pair_same_shape(6),
    ) {
        // Align inner dims: use b/c transposed so a(r×c) @ bT(c×r) works.
        let bt = b.transpose().unwrap();
        let ct = c.transpose().unwrap();
        if a.cols().unwrap() == bt.rows().unwrap() {
            let lhs = a.matmul(&bt.add(&ct).unwrap()).unwrap();
            let rhs = a.matmul(&bt).unwrap().add(&a.matmul(&ct).unwrap()).unwrap();
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn sum_rows_matches_manual(a in matrix(8)) {
        let cols = a.cols().unwrap();
        let mut s = Tensor::zeros(&[cols]);
        a.sum_rows_into(&mut s).unwrap();
        for c in 0..cols {
            // Ascending rows from +0.0.
            let manual = (0..a.rows().unwrap()).fold(0.0f32, |acc, r| acc + a.at(r, c));
            prop_assert_eq!(s.data()[c].to_bits(), manual.to_bits());
        }
    }

    #[test]
    fn argmax_rows_points_at_max(a in matrix(8)) {
        let idx = a.argmax_rows().unwrap();
        for (r, &i) in idx.iter().enumerate() {
            let row = a.row(r).unwrap();
            for &v in &row {
                prop_assert!(row[i] >= v);
            }
        }
    }
}
