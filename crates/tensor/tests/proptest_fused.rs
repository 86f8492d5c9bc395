//! Property tests pinning every fused/in-place kernel to its
//! out-of-place (or pre-fusion scalar-loop) counterpart at 0 ULP.
//!
//! The fused kernels promise bit-for-bit identical results: they
//! perform exactly the arithmetic of the code they replaced, in the
//! same per-element order, merely without temporaries. Every
//! comparison here is on raw `f32` bits (`assert_eq` on buffers),
//! not an epsilon band. Deterministic tests at the pool-parallel
//! threshold (`pool::PAR_ELEMS`) additionally pin that the parallel
//! partition is invisible, including the empty and length-1 edges.

use ft_tensor::{fused, pool, Tensor};
use proptest::prelude::*;

fn pair_same_len(max: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1..=max).prop_flat_map(|n| {
        (
            proptest::collection::vec(-100.0f32..100.0, n),
            proptest::collection::vec(-100.0f32..100.0, n),
        )
    })
}

fn tensor_of(v: Vec<f32>) -> Tensor {
    let n = v.len();
    Tensor::from_vec(v, &[n]).unwrap()
}

proptest! {
    #[test]
    fn add_assign_matches_add((a, b) in pair_same_len(64)) {
        let ta = tensor_of(a);
        let tb = tensor_of(b);
        let out = ta.add(&tb).unwrap();
        let mut ip = ta.clone();
        ip.add_assign(&tb).unwrap();
        prop_assert_eq!(ip.data(), out.data());
    }

    #[test]
    fn sub_assign_matches_sub((a, b) in pair_same_len(64)) {
        let ta = tensor_of(a);
        let tb = tensor_of(b);
        let out = ta.sub(&tb).unwrap();
        let mut ip = ta.clone();
        ip.sub_assign(&tb).unwrap();
        prop_assert_eq!(ip.data(), out.data());
    }

    #[test]
    fn mul_assign_matches_mul((a, b) in pair_same_len(64)) {
        let ta = tensor_of(a);
        let tb = tensor_of(b);
        let out = ta.mul(&tb).unwrap();
        let mut ip = ta.clone();
        ip.mul_assign(&tb).unwrap();
        prop_assert_eq!(ip.data(), out.data());
    }

    #[test]
    fn scale_mut_matches_scale(a in proptest::collection::vec(-100.0f32..100.0, 1..64),
                               alpha in -10.0f32..10.0) {
        let ta = tensor_of(a);
        let out = ta.scale(alpha);
        let mut ip = ta.clone();
        ip.scale_mut(alpha);
        prop_assert_eq!(ip.data(), out.data());
    }

    #[test]
    fn axpy_matches_scalar_reference((a, b) in pair_same_len(64), alpha in -10.0f32..10.0) {
        let mut expect = a.clone();
        for (x, &y) in expect.iter_mut().zip(&b) {
            *x += alpha * y;
        }
        let mut ta = tensor_of(a);
        ta.axpy(alpha, &tensor_of(b)).unwrap();
        prop_assert_eq!(ta.data(), &expect[..]);
    }

    /// The fused SGD kernel vs the pre-fusion scalar index loop
    /// (`for i in 0..p.len()` with per-element bounds checks), which
    /// is the exact code it replaced in `ft_nn::Sgd::step`.
    #[test]
    fn fused_sgd_matches_index_loop(
        (p, g) in pair_same_len(64),
        v in proptest::collection::vec(-10.0f32..10.0, 64),
        lr in 0.001f32..1.0,
        momentum in 0.0f32..0.99,
        wd in 0.0f32..0.1,
    ) {
        let n = p.len();
        let v = v[..n.min(v.len())].to_vec();
        let n = n.min(v.len());
        let (p, g) = (p[..n].to_vec(), g[..n].to_vec());
        let (mut rp, mut rv) = (p.clone(), v.clone());
        for i in 0..n {
            let grad = g[i] + wd * rp[i];
            let vel = momentum * rv[i] + grad;
            rv[i] = vel;
            rp[i] -= lr * vel;
        }
        let (mut fp, mut fv) = (p, v);
        fused::sgd_momentum_update(&mut fp, &mut fv, &g, lr, momentum, wd);
        prop_assert_eq!(fp, rp);
        prop_assert_eq!(fv, rv);
    }

    /// The fused FedProx kernel vs the pre-fusion materialize-then-step
    /// sequence: clone the gradient, add `mu * (p - anchor)`, then run
    /// the SGD index loop on the adjusted copy.
    #[test]
    fn fused_prox_matches_materialized_gradient(
        (p, g) in pair_same_len(48),
        (anchor, v) in pair_same_len(48),
        mu in 0.0f32..2.0,
        lr in 0.001f32..1.0,
    ) {
        let n = p.len().min(anchor.len());
        let (p, g) = (p[..n].to_vec(), g[..n].to_vec());
        let (anchor, v) = (anchor[..n].to_vec(), v[..n].to_vec());
        let (momentum, wd) = (0.9f32, 0.01f32);
        // Reference: out-of-place adjusted gradient, then SGD loop.
        let mut adjusted = g.clone();
        for i in 0..n {
            adjusted[i] += mu * (p[i] - anchor[i]);
        }
        let (mut rp, mut rv) = (p.clone(), v.clone());
        for i in 0..n {
            let grad = adjusted[i] + wd * rp[i];
            let vel = momentum * rv[i] + grad;
            rv[i] = vel;
            rp[i] -= lr * vel;
        }
        let (mut fp, mut fv) = (p, v);
        fused::prox_sgd_momentum_update(&mut fp, &mut fv, &g, &anchor, mu, lr, momentum, wd);
        prop_assert_eq!(fp, rp);
        prop_assert_eq!(fv, rv);
    }

    /// The fused Yogi kernel vs the pre-fusion scalar index loop from
    /// `ft_nn::Yogi::step`.
    #[test]
    fn fused_yogi_matches_index_loop(
        (p, d) in pair_same_len(48),
        (m, v) in pair_same_len(48),
    ) {
        let n = p.len().min(m.len());
        let (p, d) = (p[..n].to_vec(), d[..n].to_vec());
        let m = m[..n].to_vec();
        // Yogi's v is a running second moment: keep it non-negative.
        let v: Vec<f32> = v[..n].iter().map(|x| x.abs()).collect();
        let (lr, b1, b2, eps) = (0.1f32, 0.9f32, 0.99f32, 1e-3f32);
        let (mut rp, mut rm, mut rv) = (p.clone(), m.clone(), v.clone());
        for i in 0..n {
            let g = d[i];
            let mi = b1 * rm[i] + (1.0 - b1) * g;
            let g2 = g * g;
            let vi = rv[i] - (1.0 - b2) * g2 * (rv[i] - g2).signum();
            rm[i] = mi;
            rv[i] = vi;
            rp[i] += lr * mi / (vi.sqrt() + eps);
        }
        let (mut fp, mut fm, mut fv) = (p, m, v);
        fused::yogi_update(&mut fp, &mut fm, &mut fv, &d, lr, b1, b2, eps);
        prop_assert_eq!(fp, rp);
        prop_assert_eq!(fm, rm);
        prop_assert_eq!(fv, rv);
    }
}

/// Deterministic pseudo-random buffer (seeded, allocation trivial).
fn seeded(n: usize, seed: u64) -> Vec<f32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-10.0f32..10.0)).collect()
}

/// Sizes straddling the pool-parallel threshold (plus the empty and
/// length-1 edges) must be bit-identical to a serial scalar loop: the
/// parallel partition may change *where* an element is computed but
/// never its value.
#[test]
fn threshold_straddling_sizes_match_serial_reference() {
    for n in [
        0,
        1,
        pool::PAR_ELEMS - 1,
        pool::PAR_ELEMS,
        pool::PAR_ELEMS + 13,
    ] {
        let a = seeded(n, 1);
        let b = seeded(n, 2);

        let mut expect = a.clone();
        for (x, &y) in expect.iter_mut().zip(&b) {
            *x += y;
        }
        let mut got = a.clone();
        fused::add_assign(&mut got, &b);
        assert_eq!(got, expect, "add_assign n={n}");

        let mut expect = a.clone();
        for (x, &y) in expect.iter_mut().zip(&b) {
            *x += 0.25 * y;
        }
        let mut got = a.clone();
        fused::axpy(&mut got, 0.25, &b);
        assert_eq!(got, expect, "axpy n={n}");

        let v0 = seeded(n, 3);
        let (lr, mom, wd) = (0.05f32, 0.9f32, 1e-4f32);
        let (mut rp, mut rv) = (a.clone(), v0.clone());
        for i in 0..n {
            let grad = b[i] + wd * rp[i];
            let vel = mom * rv[i] + grad;
            rv[i] = vel;
            rp[i] -= lr * vel;
        }
        let (mut fp, mut fv) = (a.clone(), v0);
        fused::sgd_momentum_update(&mut fp, &mut fv, &b, lr, mom, wd);
        assert_eq!(fp, rp, "sgd p n={n}");
        assert_eq!(fv, rv, "sgd v n={n}");
    }
}

/// In-place tensor ops on empty and length-1 tensors agree with the
/// out-of-place forms (degenerate shapes must not be special-cased
/// into divergence).
#[test]
fn empty_and_singleton_tensors_agree() {
    for dims in [&[0usize][..], &[1][..]] {
        let a = Tensor::full(dims, 3.5);
        let b = Tensor::full(dims, -1.25);
        let mut ip = a.clone();
        ip.add_assign(&b).unwrap();
        assert_eq!(ip, a.add(&b).unwrap());
        let mut ip = a.clone();
        ip.sub_assign(&b).unwrap();
        assert_eq!(ip, a.sub(&b).unwrap());
        let mut ip = a.clone();
        ip.mul_assign(&b).unwrap();
        assert_eq!(ip, a.mul(&b).unwrap());
        let mut ip = a.clone();
        ip.scale_mut(0.5);
        assert_eq!(ip, a.scale(0.5));
    }
}
