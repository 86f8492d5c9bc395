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
//!
//! A round prices each task before any training runs
//! ([`ShardSource::plan`]) and then trains on the same client
//! ([`ShardSource::train_half`]). The [`ShardPlan`] carries what pricing
//! learned, so a sparse source draws a client's plan once: pricing
//! draws it, and the derivation resumes the client's stream after it.

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::generator::{plan_client, sample_prototypes, Plan, Prototypes, Sampler};
use crate::{ClientData, DatasetConfig, FederatedDataset, InputSpec};

/// One half of a client's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// The training samples, which local training reads.
    Train,
    /// The held-out samples, which evaluation reads.
    Test,
}

/// What pricing a client's task reads of its shard: the training sample
/// count, and for a source that derives shards on demand, the client's
/// label distribution and sample counts with its RNG stream right after
/// them, where [`ShardSource::train_half`] resumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    client: usize,
    head: Head,
}

#[derive(Debug, Clone, PartialEq)]
enum Head {
    /// A stored shard's training sample count.
    Stored(usize),
    /// A derived shard's plan and the stream state after it.
    Derived(Plan, [u64; 4]),
}

impl ShardPlan {
    /// The plan of a shard that is already stored: its training sample
    /// count is all there is to carry.
    pub fn stored(client: usize, train_len: usize) -> Self {
        ShardPlan {
            client,
            head: Head::Stored(train_len),
        }
    }

    /// The client the plan prices.
    pub fn client(&self) -> usize {
        self.client
    }

    /// Number of training samples in the client's shard.
    pub fn train_len(&self) -> usize {
        match &self.head {
            Head::Stored(n) => *n,
            Head::Derived(plan, _) => plan.n_train,
        }
    }
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

    /// Prices `client`'s shard: its training sample count, plus what a
    /// source that derives shards needs to resume the derivation in
    /// [`ShardSource::train_half`]. The coordinator calls this once per
    /// task, on the worker pool, before any training runs.
    ///
    /// There is deliberately no default. Reading
    /// `self.shard(client).train_len()` is free for a source that
    /// borrows and a trap for one that derives shards on demand: it
    /// builds every selected client's whole shard just to read its
    /// length, and training then builds it again. An implementation must
    /// cost less than the shard.
    fn plan(&self, client: usize) -> ShardPlan;

    /// The train half of the shard `plan` prices, which
    /// [`ShardSource::plan`] returned: the same bits as
    /// `shard_half(plan.client(), Half::Train)`.
    ///
    /// The default borrows [`ShardSource::shard_half`]. A source that
    /// derives shards overrides it to resume from the plan instead of
    /// drawing it again.
    fn train_half(&self, plan: &ShardPlan) -> Cow<'_, ClientData> {
        self.shard_half(plan.client(), Half::Train)
    }
}

impl ShardSource for [ClientData] {
    fn num_clients(&self) -> usize {
        self.len()
    }

    fn shard(&self, client: usize) -> Cow<'_, ClientData> {
        Cow::Borrowed(&self[client])
    }

    fn plan(&self, client: usize) -> ShardPlan {
        ShardPlan::stored(client, self[client].train_len())
    }
}

impl ShardSource for FederatedDataset {
    fn num_clients(&self) -> usize {
        FederatedDataset::num_clients(self)
    }

    fn shard(&self, client: usize) -> Cow<'_, ClientData> {
        Cow::Borrowed(self.client(client))
    }

    fn plan(&self, client: usize) -> ShardPlan {
        ShardPlan::stored(client, self.client(client).train_len())
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
/// [`ShardSource::plan`] draws only the head of the stream that decides
/// the sample counts, and [`ShardSource::train_half`] resumes the
/// stream where that plan left it.
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
    /// Panics if `config` fails [`DatasetConfig::validate_sparse`].
    pub fn new(config: DatasetConfig) -> Self {
        if let Err(detail) = config.validate_sparse() {
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
    fn client_rng(&self, client: usize) -> StdRng {
        assert!(
            client < self.config.num_clients,
            "client index {client} out of range for population of {}",
            self.config.num_clients
        );
        StdRng::seed_from_u64(shard_seed(self.config.seed, client))
    }

    /// Derives `client`'s shard, or only its `half`, resuming after
    /// `planned` when pricing drew the plan.
    fn derive(
        &self,
        client: usize,
        planned: Option<(Plan, StdRng)>,
        half: Option<Half>,
    ) -> ClientData {
        Sampler::new(&self.config, self.protos()).shard(
            client,
            &self.client_rng(client),
            planned,
            half,
        )
    }
}

impl ShardSource for SparseFederatedData {
    fn num_clients(&self) -> usize {
        self.config.num_clients
    }

    fn shard(&self, client: usize) -> Cow<'_, ClientData> {
        Cow::Owned(self.derive(client, None, None))
    }

    fn shard_half(&self, client: usize, half: Half) -> Cow<'_, ClientData> {
        Cow::Owned(self.derive(client, None, Some(half)))
    }

    /// Draws only the head of the client's RNG stream — the draws that
    /// decide its sample counts — through the same
    /// `generator::plan_client` that `shard` starts with, and keeps the
    /// stream state after it. No sample is generated.
    fn plan(&self, client: usize) -> ShardPlan {
        let mut rng = self.client_rng(client);
        let plan = plan_client(&self.config, &mut rng);
        ShardPlan {
            client,
            head: Head::Derived(plan, rng.state()),
        }
    }

    fn train_half(&self, plan: &ShardPlan) -> Cow<'_, ClientData> {
        let planned = match &plan.head {
            Head::Derived(head, stream) => Some((head.clone(), StdRng::from_state(*stream))),
            Head::Stored(_) => None,
        };
        Cow::Owned(self.derive(plan.client, planned, Some(Half::Train)))
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

    /// The train rows' bits and labels.
    fn train_bits(shard: &ClientData) -> (Vec<u32>, Vec<usize>) {
        let (x, y) = shard.train_all();
        (x.data().iter().map(|v| v.to_bits()).collect(), y)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The length a round is priced at is the length the shard
        /// trains on, and the train half derived from the carried plan
        /// is the whole shard's train rows and labels bit for bit — for
        /// flat and image inputs, any label skew, difficulty, volume
        /// skew, split, class count, seed and client, with drift and
        /// the byzantine label flip applied to both.
        #[test]
        fn sparse_train_len_matches_the_generated_shard(
            kind in 0usize..2,
            log_alpha in (0.1f32).ln()..(100.0f32).ln(),
            max_difficulty in 0.0f32..1.0,
            mean_samples in 2usize..=120,
            sample_spread in 0.0f32..2.5,
            test_fraction in 0.0f32..1.0,
            num_classes in 1usize..=24,
            seed in 0u64..u64::MAX,
            client in 0usize..1_000_000,
            round in 0u32..40,
            flip in 0usize..2,
        ) {
            let mut config = DatasetConfig::femnist_like()
                .with_num_clients(1_000_000)
                .with_mean_samples(mean_samples)
                .with_dirichlet_alpha(log_alpha.exp())
                .with_seed(seed);
            config.max_difficulty = max_difficulty;
            config.sample_spread = sample_spread;
            config.test_fraction = test_fraction;
            config.num_classes = num_classes;
            config.input = if kind == 1 {
                InputSpec::Image { channels: 2, height: 2, width: 3 }
            } else {
                InputSpec::Flat { dim: 3 }
            };
            let data = SparseFederatedData::new(config);
            let plan = data.plan(client);
            prop_assert_eq!(plan.client(), client);
            let drift = DriftConfig { period: 3, rotation: 5 };
            let view = |shard: Cow<'_, ClientData>| {
                let shard = drift.apply(round, shard).into_owned();
                if flip == 1 {
                    shard.map_labels(num_classes, |y| num_classes - 1 - y)
                } else {
                    shard
                }
            };
            let full = view(data.shard(client));
            let generated = full.train_len();
            prop_assert!(generated >= 4);
            prop_assert_eq!(plan.train_len(), generated);

            let carried = view(data.train_half(&plan));
            prop_assert_eq!(train_bits(&carried), train_bits(&full));
            prop_assert_eq!(carried.test_len(), 0);
            prop_assert_eq!(carried.label_dist(), full.label_dist());
            prop_assert_eq!(carried.difficulty().to_bits(), full.difficulty().to_bits());
            let train = view(data.shard_half(client, Half::Train));
            prop_assert_eq!(train_bits(&train), train_bits(&full));
            let test = view(data.shard_half(client, Half::Test));
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
        let plan = dense.plan(2);
        assert_eq!(plan, ShardPlan::stored(2, dense.client(2).train_len()));
        assert!(matches!(dense.train_half(&plan), Cow::Borrowed(_)));
        assert!(matches!(slice.train_half(&plan), Cow::Borrowed(_)));
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
