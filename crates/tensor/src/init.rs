//! Deterministic weight initialization.
//!
//! All randomness in the workspace flows through caller-provided RNGs so
//! experiment harnesses can reproduce runs exactly from a seed.

use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};

use crate::Tensor;

/// Xavier/Glorot uniform initialization over `[-a, a]` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
///
/// Appropriate for layers followed by symmetric activations.
pub fn xavier_uniform(rng: &mut impl Rng, dims: &[usize], fan_in: usize, fan_out: usize) -> Tensor {
    let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    let dist = Uniform::new_inclusive(-a, a);
    sample(rng, dims, dist)
}

/// He/Kaiming normal initialization with std `sqrt(2 / fan_in)`.
///
/// Appropriate for ReLU networks, which is what all FedTrans cells use.
#[expect(
    clippy::missing_panics_doc,
    reason = "std derives from `fan_in.max(1)`, so it is finite and positive"
)]
pub fn he_normal(rng: &mut impl Rng, dims: &[usize], fan_in: usize) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    let dist = Normal::new(0.0, std).expect("std is finite and positive");
    sample(rng, dims, dist)
}

/// Uniform initialization over `[lo, hi]`.
pub fn uniform(rng: &mut impl Rng, dims: &[usize], lo: f32, hi: f32) -> Tensor {
    let dist = Uniform::new_inclusive(lo, hi);
    sample(rng, dims, dist)
}

#[expect(
    clippy::missing_panics_doc,
    reason = "exactly `dims.iter().product()` samples are drawn"
)]
fn sample<D: Distribution<f32>>(rng: &mut impl Rng, dims: &[usize], dist: D) -> Tensor {
    let volume: usize = dims.iter().product();
    let data: Vec<f32> = (0..volume).map(|_| dist.sample(rng)).collect();
    Tensor::from_vec(data, dims).expect("volume matches by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_weights() {
        let mut a = rand::rngs::StdRng::seed_from_u64(7);
        let mut b = rand::rngs::StdRng::seed_from_u64(7);
        let ta = he_normal(&mut a, &[4, 4], 4);
        let tb = he_normal(&mut b, &[4, 4], 4);
        assert_eq!(ta, tb);
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let t = xavier_uniform(&mut rng, &[64, 64], 64, 64);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(t.data().iter().all(|x| x.abs() <= a + 1e-6));
    }

    #[test]
    fn he_normal_has_reasonable_std() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let t = he_normal(&mut rng, &[100, 100], 100);
        let mean = t.mean();
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        let expected = 2.0 / 100.0;
        assert!((var - expected).abs() < expected * 0.2, "var={var}");
    }
}
