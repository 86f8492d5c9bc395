//! Server-side evaluation: the per-client accuracy sweep.
//!
//! The coordinator's evaluation protocol scores every client on its
//! best compatible model (§5.1) — an embarrassingly parallel pass that
//! fans out over the same persistent worker pool the GEMM kernels use
//! ([`ft_tensor::pool`]), so evaluation and kernel parallelism share one
//! set of threads instead of oversubscribing the host.
//!
//! # Memory
//!
//! A sweep task borrows its model ([`CellModel::infer`] caches nothing)
//! and lowers a client's test shard [`rows_per_chunk`] samples at a
//! time, so the largest buffer it ever checks out is bounded by
//! [`EVAL_BUDGET_BYTES`] whatever the shard size, and the scratch pool
//! of each worker retains the same few size classes for every client.
//!
//! # Determinism
//!
//! Results land in their caller-assigned slots, so the output order
//! never depends on scheduling. Every logit of a sample depends on that
//! sample alone (the kernels accumulate each output element in a fixed
//! order whatever the batch around it), and chunks add up integer
//! correct counts, so an accuracy is bit-identical at every chunk size.
//! GEMMs issued from inside an evaluation task run serially
//! (nested-dispatch guard in the pool), which is the right granularity
//! anyway: one task per client.

use ft_data::ClientData;
use ft_model::{CellModel, ModelError};
use ft_nn::{correct_count, softmax};
use ft_tensor::Tensor;

use crate::{Result, SimError};

/// Bytes the largest buffer of one evaluation chunk may occupy: one L2
/// of the benchmark host (2 MiB, the cache [`ft_tensor::tune::MC`] is
/// derived from), counting a conv cell's patch matrix as if it were
/// written (nothing writes it; the count caps conv chunks, see
/// [`ft_model::Cell::sample_working_floats`]). A power of two, so the
/// scratch size class that a buffer of at most this many bytes lands in
/// never exceeds it either.
pub const EVAL_BUDGET_BYTES: usize = 2 << 20;

const _: () = assert!(EVAL_BUDGET_BYTES.is_power_of_two());

/// How many test samples one evaluation chunk of `model` holds:
/// `EVAL_BUDGET_BYTES / model.sample_working_set_bytes()`, at least 1.
/// Conv models evaluate a few samples at a time; a dense model's whole
/// shard usually fits in one chunk.
pub fn rows_per_chunk(model: &CellModel) -> usize {
    (EVAL_BUDGET_BYTES / model.sample_working_set_bytes().max(1)).max(1)
}

/// Accuracy of `model` on `shard`'s held-out samples (0 when the shard
/// has none).
///
/// # Errors
///
/// Propagates inference errors, e.g. a model whose input width does not
/// match the shard's samples.
pub fn accuracy(model: &CellModel, shard: &ClientData) -> Result<f32> {
    chunked_accuracy(shard, rows_per_chunk(model), |x| model.infer(x))
}

/// Accuracy of the softmax-summed ensemble `models` on `shard`'s
/// held-out samples (SplitMix's inference rule; 0 when the shard has
/// none). The chunk size is the smallest any member allows.
///
/// # Errors
///
/// Returns [`SimError::BadConfig`] for an empty ensemble and
/// propagates inference errors.
pub fn ensemble_accuracy(models: &[&CellModel], shard: &ClientData) -> Result<f32> {
    let (first, rest) = models.split_first().ok_or_else(|| SimError::BadConfig {
        detail: "an ensemble needs at least one model".into(),
    })?;
    let rows = rest
        .iter()
        .fold(rows_per_chunk(first), |r, m| r.min(rows_per_chunk(m)));
    chunked_accuracy(shard, rows, |x| {
        let mut sum = softmax(&first.infer(x)?)?;
        for model in rest {
            // Fused in-place accumulate; bit-identical to `a.add(&probs)`.
            sum.add_assign(&softmax(&model.infer(x)?)?)?;
        }
        Ok(sum)
    })
}

/// Walks `shard`'s test set `rows` samples at a time through `scores`
/// and returns the fraction whose argmax matches the label.
fn chunked_accuracy(
    shard: &ClientData,
    rows: usize,
    scores: impl Fn(&Tensor) -> std::result::Result<Tensor, ModelError>,
) -> Result<f32> {
    let n = shard.test_len();
    if n == 0 {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for start in (0..n).step_by(rows) {
        let (x, labels) = shard.test_batch(start..(start + rows).min(n));
        correct += correct_count(&scores(&x)?, labels).map_err(ModelError::from)?;
    }
    Ok(correct as f32 / n as f32)
}

/// Maps a fallible `f` over `0..n` in parallel, returning results in
/// index order or the error of the lowest-indexed failing client.
///
/// `f` runs once per index. Falls back to a serial loop on single-core
/// hosts or when the pool is already owned (see
/// [`ft_tensor::pool::parallel_for`]). Thin unbudgeted wrapper around
/// the round-level engine's [`crate::exec::try_par_map`] — evaluation
/// tasks borrow their models and hold one bounded chunk each, so they
/// use the pool's full width.
///
/// # Errors
///
/// As [`crate::exec::try_par_map`].
pub fn try_par_map<T, F>(n: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    crate::exec::try_par_map(n, usize::MAX, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_data::DatasetConfig;
    use rand::SeedableRng;

    #[test]
    fn preserves_index_order() {
        let out = try_par_map(100, |i| Ok(i * 3)).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_input() {
        let out: Vec<usize> = try_par_map(0, Ok).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn closure_may_borrow_caller_state() {
        let base = [10usize, 20, 30];
        let out = try_par_map(base.len(), |i| Ok(base[i] + 1)).unwrap();
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn reports_the_lowest_failing_index() {
        let err = try_par_map(50, |i| {
            if i % 7 == 3 {
                Err(SimError::protocol(i))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, SimError::protocol(3));
    }

    #[test]
    fn ensemble_of_one_matches_the_single_model_and_empty_is_an_error() {
        let data = DatasetConfig::femnist_like().with_num_clients(2).generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let m = CellModel::dense(&mut rng, data.input_dim(), &[8], data.num_classes());
        let single = accuracy(&m, data.client(0)).unwrap();
        let ens = ensemble_accuracy(&[&m], data.client(0)).unwrap();
        assert!((single - ens).abs() < 1e-6);
        assert!(ensemble_accuracy(&[], data.client(0)).is_err());
    }

    #[test]
    fn chunk_size_follows_the_largest_per_sample_buffer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // 32→32 3x3 conv over 16x16: counted as 288·256 patch floats per
        // sample, the cap. Its largest real per-sample buffer is a
        // 32·256-float row, and its planes (32·3·18·16 floats, one
        // sample's) do not grow with the chunk.
        let conv = CellModel::conv(&mut rng, 3, 16, 16, &[32, 32], 3, 10);
        assert_eq!(conv.sample_working_set_bytes(), 288 * 256 * 4);
        assert_eq!(rows_per_chunk(&conv), EVAL_BUDGET_BYTES / (288 * 256 * 4));
        // A dense model's widest row is its input.
        let dense = CellModel::dense(&mut rng, 784, &[64, 64], 10);
        assert_eq!(dense.sample_working_set_bytes(), 784 * 4);
        assert!(rows_per_chunk(&dense) > 600);
    }
}
