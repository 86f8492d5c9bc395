//! Shard access abstraction: materialized and sparse client populations.
//!
//! The streaming aggregation path only ever needs one client's shard at
//! a time, so the training engine is written against [`ShardSource`]
//! instead of a `&[ClientData]` slice. A [`FederatedDataset`] (and any
//! plain `[ClientData]` slice) implements it by borrowing; a
//! [`SparseFederatedData`] implements it by *deriving* the shard from
//! the client index on demand — no per-client structs at rest, which is
//! what lets a simulated population reach millions of devices with
//! peak memory proportional to the clients in flight.
//!
//! A reader that takes one half of a shard says so through
//! [`ShardSource::shard_half`]: training reads the [`Half::Train`]
//! samples, evaluation the [`Half::Test`] ones. A materialized source
//! borrows the whole shard either way; a sparse one derives only the
//! half asked for, so the training fan-out builds no test samples and
//! the eval sweep builds no train samples.

use std::borrow::Cow;

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::generator::{plan_client, sample_prototypes, Prototypes, Sampler};
use crate::{ClientData, DatasetConfig, FederatedDataset, InputSpec};

/// One half of a client's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// The training samples, which local training reads.
    Train,
    /// The held-out samples, which evaluation reads.
    Test,
}

/// A source of per-client training shards.
///
/// `Sync` is a supertrait because the round engine reads shards from
/// worker threads. The trait is object-safe.
pub trait ShardSource: Sync {
    /// Number of clients in the population.
    fn num_clients(&self) -> usize;

    /// The shard of one client. Materialized sources borrow; sparse
    /// sources derive the shard on demand and return it owned.
    fn shard(&self, client: usize) -> Cow<'_, ClientData>;

    /// The shard of one client, for a reader that takes only `half` of
    /// it. The label distribution and difficulty are those of
    /// [`ShardSource::shard`]; the samples of `half` are bit-identical
    /// to its samples. The other half may be empty, so a reader must
    /// not touch it.
    ///
    /// The default borrows [`ShardSource::shard`], which costs a
    /// materialized source nothing. A source that derives shards on
    /// demand overrides it to derive only the half asked for.
    fn shard_half(&self, client: usize, _half: Half) -> Cow<'_, ClientData> {
        self.shard(client)
    }

    /// Number of training samples in `client`'s shard. The coordinator
    /// calls this once per task, serially, to price a round's compute
    /// before any training runs.
    ///
    /// There is deliberately no default. `self.shard(client).train_len()`
    /// is free for a source that borrows and a trap for one that
    /// derives shards on demand: it builds every selected client's
    /// whole shard just to read its length, and training then builds it
    /// again. An implementation must cost less than the shard.
    fn train_len(&self, client: usize) -> usize;
}

impl ShardSource for [ClientData] {
    fn num_clients(&self) -> usize {
        self.len()
    }

    fn shard(&self, client: usize) -> Cow<'_, ClientData> {
        Cow::Borrowed(&self[client])
    }

    fn train_len(&self, client: usize) -> usize {
        self[client].train_len()
    }
}

impl ShardSource for FederatedDataset {
    fn num_clients(&self) -> usize {
        FederatedDataset::num_clients(self)
    }

    fn shard(&self, client: usize) -> Cow<'_, ClientData> {
        Cow::Borrowed(self.client(client))
    }

    fn train_len(&self, client: usize) -> usize {
        self.client(client).train_len()
    }
}

/// SplitMix64-style avalanche over the dataset seed and client index:
/// every client gets an independent, stateless RNG stream.
fn shard_seed(seed: u64, client: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((client as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A federated population whose per-client shards are derived
/// statelessly from the client index — nothing per-client is stored.
///
/// Only the dataset-global structure (class prototypes and manifold
/// directions, O(classes × dim)) lives in memory; [`ShardSource::shard`]
/// regenerates a client's samples from `hash(seed, client)` every time
/// it is asked. Two calls for the same client always return identical
/// data, so training stays deterministic, but a million-device
/// population costs no more resident memory than a ten-device one.
/// [`ShardSource::shard_half`] derives one half: the train half stops
/// the client's stream after its last train sample, and the test half
/// steps over the train samples without computing their noise normals.
///
/// A shard is built inline, on the calling thread, by the same sample
/// function the dense generator's parallel build replays its walk
/// through. The sample *values* still differ from
/// [`DatasetConfig::generate`] for the same config: the dense generator
/// runs one RNG stream through all clients (client `i`'s draws depend
/// on clients `0..i`), which is exactly the coupling a sparse
/// representation must break. The distributional structure (label
/// skew, volume skew, difficulty ramp) is identical.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SparseFederatedData {
    config: DatasetConfig,
    #[serde(skip, default)]
    protos: std::sync::OnceLock<Prototypes>,
}

impl SparseFederatedData {
    /// Creates the sparse population for `config`. Cost is
    /// O(classes × dim) — independent of `config.num_clients`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DatasetConfig::validate`].
    pub fn new(config: DatasetConfig) -> Self {
        if let Err(detail) = config.validate() {
            panic!("invalid dataset config: {detail}");
        }
        let sparse = SparseFederatedData {
            config,
            protos: std::sync::OnceLock::new(),
        };
        sparse.protos();
        sparse
    }

    fn protos(&self) -> &Prototypes {
        self.protos.get_or_init(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
            sample_prototypes(&self.config, &mut rng)
        })
    }

    /// The generating configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    /// The input specification.
    pub fn input(&self) -> InputSpec {
        self.config.input
    }

    /// Flat input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.config.input.flat_dim()
    }
}

impl SparseFederatedData {
    /// The stateless per-client RNG stream every derivation starts
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if `client` is outside the population.
    fn client_rng(&self, client: usize) -> rand::rngs::StdRng {
        assert!(
            client < self.config.num_clients,
            "client index {client} out of range for population of {}",
            self.config.num_clients
        );
        rand::rngs::StdRng::seed_from_u64(shard_seed(self.config.seed, client))
    }

    /// Derives `client`'s shard, or only its `half`.
    fn derive(&self, client: usize, half: Option<Half>) -> ClientData {
        Sampler::new(&self.config, self.protos()).shard(client, &mut self.client_rng(client), half)
    }
}

impl ShardSource for SparseFederatedData {
    fn num_clients(&self) -> usize {
        self.config.num_clients
    }

    fn shard(&self, client: usize) -> Cow<'_, ClientData> {
        Cow::Owned(self.derive(client, None))
    }

    fn shard_half(&self, client: usize, half: Half) -> Cow<'_, ClientData> {
        Cow::Owned(self.derive(client, Some(half)))
    }

    /// Replays only the head of the client's RNG stream — the draws
    /// that decide its sample counts — through the same
    /// `generator::plan_client` that `shard` starts with. No sample is
    /// generated.
    fn train_len(&self, client: usize) -> usize {
        plan_client(&self.config, &mut self.client_rng(client)).n_train
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::DriftConfig;

    fn sparse(clients: usize) -> SparseFederatedData {
        SparseFederatedData::new(
            DatasetConfig::femnist_like()
                .with_num_clients(clients)
                .with_mean_samples(20),
        )
    }

    #[test]
    fn sparse_shards_are_reproducible() {
        let data = sparse(1000);
        let a = data.shard(417);
        let b = data.shard(417);
        assert_eq!(a.train_all(), b.train_all());
        assert_eq!(a.label_dist(), b.label_dist());
    }

    #[test]
    fn sparse_shards_differ_across_clients_and_seeds() {
        let data = sparse(10);
        let (xa, _) = data.shard(0).train_all();
        let (xb, _) = data.shard(1).train_all();
        assert_ne!(xa, xb);
        let other = SparseFederatedData::new(
            DatasetConfig::femnist_like()
                .with_num_clients(10)
                .with_mean_samples(20)
                .with_seed(99),
        );
        let (xc, _) = other.shard(0).train_all();
        assert_ne!(xa, xc);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The length a round is priced at is the length the shard
        /// trains on — for any volume skew, split, class count, seed
        /// and client, with or without drift applied to either half.
        #[test]
        fn sparse_train_len_matches_the_generated_shard(
            mean_samples in 2usize..=120,
            sample_spread in 0.0f32..2.5,
            test_fraction in 0.0f32..1.0,
            num_classes in 1usize..=24,
            seed in 0u64..u64::MAX,
            client in 0usize..1_000_000,
            round in 0u32..40,
        ) {
            let mut config = DatasetConfig::femnist_like()
                .with_num_clients(1_000_000)
                .with_mean_samples(mean_samples)
                .with_seed(seed);
            config.sample_spread = sample_spread;
            config.test_fraction = test_fraction;
            config.num_classes = num_classes;
            config.input = InputSpec::Flat { dim: 3 };
            let data = SparseFederatedData::new(config);
            let full = data.shard(client);
            let generated = full.train_len();
            prop_assert!(generated >= 4);
            prop_assert_eq!(data.train_len(client), generated);

            let drift = DriftConfig { period: 3, rotation: 5 };
            let train = drift.apply(round, data.shard_half(client, Half::Train));
            prop_assert_eq!(train.train_len(), generated);
            let test = drift.apply(round, data.shard_half(client, Half::Test));
            prop_assert_eq!(test.train_len(), 0);
            prop_assert_eq!(test.test_len(), full.test_len());
        }
    }

    #[test]
    fn huge_population_is_cheap_and_indexable() {
        // The whole point: a million-client population holds no
        // per-client state, so construction is instant and any index
        // is reachable directly.
        let data = sparse(1_000_000);
        assert_eq!(data.num_clients(), 1_000_000);
        let shard = data.shard(999_999);
        assert!(shard.train_len() >= 4);
        assert!(shard.test_len() >= 2);
    }

    #[test]
    fn materialized_sources_borrow() {
        let dense = DatasetConfig::femnist_like()
            .with_num_clients(3)
            .with_mean_samples(20)
            .generate();
        let via_dataset = dense.shard(2);
        assert!(matches!(via_dataset, Cow::Borrowed(_)));
        let slice: &[ClientData] = dense.clients();
        let via_slice = slice.shard(2);
        assert!(matches!(via_slice, Cow::Borrowed(_)));
        for half in [Half::Train, Half::Test] {
            assert!(matches!(dense.shard_half(2, half), Cow::Borrowed(_)));
            assert!(matches!(slice.shard_half(2, half), Cow::Borrowed(_)));
        }
        assert_eq!(via_slice.train_all(), dense.client(2).train_all());
        assert_eq!(ShardSource::num_clients(slice), 3);
    }

    #[test]
    fn sparse_difficulty_ramps_across_population() {
        let data = sparse(200);
        let easy = data.shard(0).difficulty();
        let hard = data.shard(199).difficulty();
        assert!(easy < 0.15, "client 0 should be easy, got {easy}");
        assert!(hard > 0.3, "client 199 should be hard, got {hard}");
    }

    #[test]
    fn sparse_serde_round_trips_and_regenerates() {
        let data = sparse(100);
        let json = serde_json::to_string(&data).unwrap();
        // The prototype cache is skipped: the wire form is O(config).
        let back: SparseFederatedData = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.shard(42).train_all(),
            data.shard(42).train_all(),
            "shards must survive the round trip via regeneration"
        );
    }
}
