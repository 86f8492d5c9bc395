//! The generated data itself, pinned bit for bit.
//!
//! `generate` walks one RNG stream serially and then builds the samples
//! across the tensor pool; a call from inside a pool task builds them
//! inline instead. Every feature, label, label distribution and
//! difficulty must come out the same either way, and the same as the
//! single-threaded generator these digests were taken from. A sparse
//! shard derived one half at a time must be the same bits as the half
//! of the whole shard.

use std::sync::OnceLock;

use ft_data::{
    ClientData, DatasetConfig, FederatedDataset, Half, InputSpec, ShardSource, SparseFederatedData,
};
use ft_tensor::simd::{self, Kernel};
use ft_tensor::{work, Settings, Tensor};
use proptest::prelude::*;

/// Every bit of a shard, in a fixed order: train rows and labels, test
/// rows and labels, the label distribution and the difficulty.
fn shard_words(shard: &ClientData, out: &mut Vec<u64>) {
    halves_words(shard, shard, out);
}

/// [`shard_words`] with the train samples taken from `train` and
/// everything else from `test`.
fn halves_words(train: &ClientData, test: &ClientData, out: &mut Vec<u64>) {
    out.extend(train_words(train));
    out.extend(test_words(test));
    out.extend(test.label_dist().iter().map(|v| u64::from(v.to_bits())));
    out.push(u64::from(test.difficulty().to_bits()));
}

/// The train rows and labels.
fn train_words(shard: &ClientData) -> Vec<u64> {
    let (x, y) = shard.train_all();
    batch_words(&x, &y)
}

/// The test rows and labels.
fn test_words(shard: &ClientData) -> Vec<u64> {
    let (x, y) = shard.test_batch(0..shard.test_len());
    batch_words(&x, y)
}

fn batch_words(x: &Tensor, y: &[usize]) -> Vec<u64> {
    let rows = x.data().iter().map(|v| u64::from(v.to_bits()));
    rows.chain(y.iter().map(|&l| l as u64)).collect()
}

fn dataset_words(data: &FederatedDataset) -> Vec<u64> {
    let mut out = Vec::new();
    for shard in data.clients() {
        out.push(shard.train_len() as u64);
        out.push(shard.test_len() as u64);
        shard_words(shard, &mut out);
    }
    out
}

/// FNV-1a over the words, little-endian bytes.
fn fnv(words: &[u64]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// Runs `f` as one task of a pool fan-out, where a nested fan-out runs
/// inline.
fn in_pool_task<T: Send + Sync>(f: impl Fn() -> T + Sync) -> T {
    let slot = OnceLock::new();
    ft_tensor::pool::parallel_for(2, &|i| {
        if i == 0 {
            assert!(slot.set(f()).is_ok(), "task 0 runs once");
        }
    });
    slot.into_inner().expect("parallel_for runs every index")
}

/// The dataset block of `benchmark/workloads/fedtrans-conv.json`.
fn fedtrans_conv() -> DatasetConfig {
    let mut config = DatasetConfig::openimage_like().with_num_clients(100);
    config.input = InputSpec::Image {
        channels: 3,
        height: 16,
        width: 16,
    };
    config
}

/// A flat preset whose clients blend confuser classes into up to 70 %
/// of their samples.
fn flat_with_blends() -> DatasetConfig {
    let config = DatasetConfig::femnist_like().with_num_clients(24);
    assert_eq!(config.max_difficulty, 0.7);
    config
}

/// The dataset block of `benchmark/workloads/fedavg-1m-stream.json`.
fn fedavg_1m_stream() -> SparseFederatedData {
    let config = DatasetConfig::femnist_like()
        .with_num_clients(1_000_000)
        .with_mean_samples(20)
        .with_seed(44);
    assert_eq!(config.input, InputSpec::Flat { dim: 48 });
    assert_eq!((config.noise_std, config.shift_std), (0.8, 0.35));
    SparseFederatedData::new(config)
}

fn sparse_1000() -> SparseFederatedData {
    SparseFederatedData::new(
        DatasetConfig::femnist_like()
            .with_num_clients(1000)
            .with_mean_samples(20),
    )
}

fn sparse_shard_words() -> Vec<u64> {
    let mut out = Vec::new();
    shard_words(&sparse_1000().shard(417), &mut out);
    out
}

/// [`sparse_shard_words`] recomposed from the shard's two halves.
fn sparse_halves_words() -> Vec<u64> {
    let data = sparse_1000();
    let mut out = Vec::new();
    let train = data.shard_half(417, Half::Train);
    let test = data.shard_half(417, Half::Test);
    halves_words(&train, &test, &mut out);
    out
}

/// Builds `words` at top level (fanned out) and inside a pool task
/// (inline), on every kernel tier (whose normals take different paths),
/// and checks each against `pinned`.
fn assert_pinned(name: &str, words: impl Fn() -> Vec<u64> + Sync, pinned: &str) {
    for kernel in simd::available() {
        let settings = Settings {
            kernel,
            ..Settings::current()
        };
        settings.scope(|| {
            assert_eq!(fnv(&words()), pinned, "{name}, {kernel:?}: top-level build");
            assert_eq!(
                fnv(&in_pool_task(&words)),
                pinned,
                "{name}, {kernel:?}: build inside a pool task"
            );
        });
    }
}

// The digests were taken from the single-threaded generator; a change
// here moves every golden and benchmark digest downstream.

#[test]
fn fedtrans_conv_data_matches_its_pinned_digest() {
    assert_pinned(
        "fedtrans-conv",
        || dataset_words(&fedtrans_conv().generate()),
        "5c14405e7be40437",
    );
}

#[test]
fn blended_flat_data_matches_its_pinned_digest() {
    assert_pinned(
        "flat with blends",
        || dataset_words(&flat_with_blends().generate()),
        "1399a230613185e9",
    );
}

#[test]
fn sparse_shard_matches_its_pinned_digest() {
    assert_pinned("sparse shard 417", sparse_shard_words, "e51a915abd113864");
    assert_pinned(
        "sparse shard 417 from its halves",
        sparse_halves_words,
        "e51a915abd113864",
    );
}

/// A train half draws the client's concept shift and then each train
/// sample's noise: `48·(n_train + 1)` normals on every tier. The
/// portable tier computes every one through libm; the SIMD tiers only
/// the lanes their guard refuses, the same lanes on both.
#[test]
fn a_train_half_draws_its_normals_in_bulk() {
    let data = fedavg_1m_stream();
    let client = 417;
    let n_train = data.plan(client).train_len();
    // The prototypes are drawn once per dataset, on first use.
    drop(data.shard_half(client, Half::Train));
    for kernel in simd::available() {
        let settings = Settings {
            kernel,
            ..Settings::current()
        };
        let counts =
            settings.scope(|| work::measure(&|| drop(data.shard_half(client, Half::Train))));
        let normals = 48 * (n_train + 1);
        let exact = match kernel {
            Kernel::Portable => normals,
            Kernel::Avx2 | Kernel::Avx512 => 1,
        };
        assert_eq!(
            (counts.normals, counts.exact_normals),
            (normals, exact),
            "{kernel:?}, n_train {n_train}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fanned-out build and the inline one agree for every input
    /// kind, class count, label skew, difficulty and seed.
    #[test]
    fn inline_build_equals_the_fanned_out_one(
        kind in 0usize..3,
        num_classes in 1usize..=24,
        log_alpha in (0.1f32).ln()..(100.0f32).ln(),
        max_difficulty in 0.0f32..1.0,
        num_clients in 1usize..=12,
        seed in 0u64..u64::MAX,
    ) {
        let mut config = DatasetConfig::femnist_like()
            .with_num_clients(num_clients)
            .with_mean_samples(12)
            .with_dirichlet_alpha(log_alpha.exp())
            .with_seed(seed);
        config.num_classes = num_classes;
        config.max_difficulty = max_difficulty;
        config.input = match kind {
            0 => InputSpec::Flat { dim: 7 },
            1 => InputSpec::Image { channels: 2, height: 3, width: 4 },
            _ => InputSpec::Tokens { tokens: 3, d_model: 5 },
        };
        let top_level = dataset_words(&config.generate());
        let inline = in_pool_task(|| dataset_words(&config.generate()));
        prop_assert_eq!(top_level, inline);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A sparse half is bit for bit the same half of the whole shard,
    /// with the same label distribution and difficulty, and its other
    /// half is empty — for flat and image inputs, any class count,
    /// volume spread, split, seed and client.
    #[test]
    fn each_sparse_half_is_that_half_of_the_whole_shard(
        kind in 0usize..2,
        num_classes in 1usize..=24,
        sample_spread in 0.0f32..2.5,
        test_fraction in 0.0f32..1.0,
        seed in 0u64..u64::MAX,
        client in 0usize..1_000_000,
    ) {
        let mut config = DatasetConfig::femnist_like()
            .with_num_clients(1_000_000)
            .with_mean_samples(12)
            .with_seed(seed);
        config.num_classes = num_classes;
        config.sample_spread = sample_spread;
        config.test_fraction = test_fraction;
        config.input = if kind == 1 {
            InputSpec::Image { channels: 2, height: 3, width: 4 }
        } else {
            InputSpec::Flat { dim: 7 }
        };
        let data = SparseFederatedData::new(config);
        let whole = data.shard(client);
        let train = data.shard_half(client, Half::Train);
        let test = data.shard_half(client, Half::Test);

        prop_assert_eq!(train_words(&train), train_words(&whole));
        prop_assert_eq!(train.test_len(), 0);
        prop_assert_eq!(test_words(&test), test_words(&whole));
        prop_assert_eq!(test.train_len(), 0);
        for half in [&train, &test] {
            prop_assert_eq!(half.label_dist(), whole.label_dist());
            prop_assert_eq!(half.difficulty().to_bits(), whole.difficulty().to_bits());
        }
    }
}
