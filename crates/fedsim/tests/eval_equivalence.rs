//! The inference forward is the training forward minus its caches.
//!
//! For a dense, a conv and a ViT model, under every kernel tier this
//! host can execute, and at batch sizes around the evaluation chunk
//! size `R` (`1, R − 1, R, R + 1, 3R + 2`):
//!
//! * `CellModel::infer` logits are bit-equal to `CellModel::forward`'s;
//! * every sample's logits are bit-equal whether it is inferred alone
//!   in a chunk of `R` or inside the whole batch;
//! * the chunked `eval::accuracy` equals the single-shot accuracy of
//!   the training forward's logits;
//! * `infer` leaves every layer without a forward cache, so a following
//!   `backward` still fails with `MissingForwardCache`.

use ft_data::ClientData;
use ft_fedsim::eval;
use ft_model::{CellModel, ModelError};
use ft_nn::NnError;
use ft_tensor::simd::{self, Kernel};
use ft_tensor::{pool, Settings, Tensor};
use rand::SeedableRng;

#[path = "common/test_shard.rs"]
mod test_shard;
use test_shard::random_test_shard;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn shard(rng: &mut rand::rngs::StdRng, model: &CellModel, n: usize) -> ClientData {
    random_test_shard(rng, n, model.input_width(), model.classes())
}

fn is_missing_cache<T>(r: Result<T, ModelError>) -> bool {
    matches!(r, Err(ModelError::Nn(NnError::MissingForwardCache { .. })))
}

/// `infer` must not leave a cache behind anywhere: not in the head, not
/// in any cell (checked cell by cell, since the head fails first).
fn assert_no_forward_cache(model: &mut CellModel, batch: usize, name: &str) {
    let dlogits = Tensor::ones(&[batch, model.classes()]);
    assert!(
        is_missing_cache(model.backward(&dlogits)),
        "{name}: infer left a head cache"
    );
    // Every cell checks for its cache before it reads the gradient.
    let dy = Tensor::ones(&[batch, 1]);
    for (i, cell) in model.cells_mut().iter_mut().enumerate() {
        assert!(
            is_missing_cache(cell.backward(&dy)),
            "{name}: infer left a cache in cell {i}"
        );
    }
}

fn check(model: &CellModel, name: &str, rng: &mut rand::rngs::StdRng) {
    let r = eval::rows_per_chunk(model);
    assert!(r >= 2, "{name}: chunk of {r} rows leaves R - 1 empty");
    for n in [1, r - 1, r, r + 1, 3 * r + 2] {
        let shard = shard(rng, model, n);
        let (x, labels) = shard.test_batch(0..n);
        let inferred = model.infer(&x).unwrap();
        let mut trained = model.clone();
        let forward = trained.forward(&x).unwrap();
        assert_eq!(bits(&inferred), bits(&forward), "{name}: n = {n}");

        // Chunk by chunk, each sample's logits are the whole batch's.
        let classes = model.classes();
        for start in (0..n).step_by(r) {
            let end = (start + r).min(n);
            let (chunk, _) = shard.test_batch(start..end);
            let part = model.infer(&chunk).unwrap();
            assert_eq!(
                bits(&part),
                bits(&inferred)[start * classes..end * classes],
                "{name}: n = {n}, chunk {start}..{end}"
            );
        }

        let single_shot = ft_nn::accuracy(&forward, labels).unwrap();
        let chunked = eval::accuracy(model, &shard).unwrap();
        assert_eq!(chunked.to_bits(), single_shot.to_bits(), "{name}: n = {n}");
    }

    // Train once so every layer has held (and released) a cache and the
    // attention block keeps a spare; `infer` must still add none.
    let mut m = model.clone();
    let s = shard(rng, model, 3);
    let (x, labels) = s.test_batch(0..3);
    m.loss_and_grad(&x, labels).unwrap();
    m.infer(&x).unwrap();
    assert_no_forward_cache(&mut m, 3, name);
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

#[test]
fn infer_is_the_training_forward_without_caches_at_every_chunk_boundary() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(26);
    let models = [
        // 4096-wide input: R = 128 rows per chunk.
        ("dense", CellModel::dense(&mut rng, 4096, &[64, 32], 5)),
        // 16→16 3x3 over 16x16: 144·256 patch floats per sample, R = 14.
        (
            "conv",
            CellModel::conv(&mut rng, 3, 16, 16, &[16, 16], 3, 5),
        ),
        // 16 tokens, d_ff 512: 16·512 MLP floats per sample, R = 64.
        ("vit", CellModel::vit(&mut rng, 16, 32, 2, 512, 5)),
    ];
    for kernel in simd::available() {
        on_tier(kernel, || {
            for (name, model) in &models {
                check(model, &format!("{name}/{}", kernel.name()), &mut rng);
            }
        });
    }
}
