//! A client shard of random held-out samples, for evaluation tests.

use ft_data::ClientData;
use rand::Rng;

/// `n` held-out samples of `dim` features drawn from `[-1, 1)`, labels
/// cycling through `classes`, and one training sample (which evaluation
/// ignores).
pub fn random_test_shard(rng: &mut impl Rng, n: usize, dim: usize, classes: usize) -> ClientData {
    let mut row = || {
        (0..dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect::<Vec<_>>()
    };
    let test_x: Vec<Vec<f32>> = (0..n).map(|_| row()).collect();
    let train_x = vec![row()];
    ClientData::new(
        train_x,
        vec![0],
        test_x,
        (0..n).map(|i| i % classes).collect(),
        vec![1.0 / classes as f32; classes],
        0.0,
    )
}
