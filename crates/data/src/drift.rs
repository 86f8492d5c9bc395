//! Temporal concept drift: deterministic label-distribution rotation.
//!
//! Real fleets are non-stationary — what a class "means" on-device
//! shifts over time. This module models the simplest reproducible form
//! of that: every [`DriftConfig::period`] rounds, each client's labels
//! rotate by [`DriftConfig::rotation`] classes. The drift is a pure
//! function of `(config, round)` — no RNG stream is consumed — so it
//! is checkpoint-free and identical before and after a resume, exactly
//! like the fault hashes in `ft_fedsim::faults`.
//!
//! The rotation is applied to whatever shard a reader takes from a
//! [`ShardSource`](crate::ShardSource), materialized or sparse, whole
//! or one half: [`DriftConfig::apply`] takes the shard `Cow` and
//! rewrites labels only when the round's rotation is non-zero, so
//! inert configs add zero cost and zero clones. Feature vectors and
//! sample counts never change, which keeps the coordinator's round
//! pricing (derived from `train_len`) valid under drift.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::ClientData;

/// Label-rotation concept drift. The default (`period: 0`) is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct DriftConfig {
    /// Rounds between rotation steps; `0` disables drift.
    pub period: usize,
    /// Classes each step rotates the label space by; `0` disables
    /// drift.
    pub rotation: usize,
}

impl DriftConfig {
    /// Whether this config changes anything at all.
    pub fn is_active(&self) -> bool {
        self.period > 0 && self.rotation > 0
    }

    /// Raw rotation steps accumulated by `round` (callers reduce
    /// modulo their class count).
    pub fn rotation_at(&self, round: u32) -> usize {
        if !self.is_active() {
            return 0;
        }
        (round as usize / self.period) * self.rotation
    }

    /// The drifted view of one shard at `round`. Borrowed shards pass
    /// through untouched whenever the round's effective rotation is
    /// zero (including always, for an inert config).
    pub fn apply<'a>(&self, round: u32, shard: Cow<'a, ClientData>) -> Cow<'a, ClientData> {
        let classes = shard.label_dist().len();
        if classes == 0 {
            return shard;
        }
        let r = self.rotation_at(round) % classes;
        if r == 0 {
            return shard;
        }
        Cow::Owned(
            shard
                .into_owned()
                .map_labels(classes, |y| (y + r) % classes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetConfig, Half, ShardSource, SparseFederatedData};

    fn drift(period: usize, rotation: usize) -> DriftConfig {
        DriftConfig { period, rotation }
    }

    #[test]
    fn default_is_inert() {
        let d = DriftConfig::default();
        assert!(!d.is_active());
        for round in 0..10 {
            assert_eq!(d.rotation_at(round), 0);
        }
    }

    #[test]
    fn rotation_accumulates_by_period() {
        let d = drift(2, 3);
        assert_eq!(d.rotation_at(0), 0);
        assert_eq!(d.rotation_at(1), 0);
        assert_eq!(d.rotation_at(2), 3);
        assert_eq!(d.rotation_at(3), 3);
        assert_eq!(d.rotation_at(4), 6);
    }

    #[test]
    fn inert_drift_passes_borrowed_shards_through() {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(2)
            .with_mean_samples(20)
            .generate();
        let shard = DriftConfig::default().apply(5, data.shard(0));
        assert!(matches!(shard, Cow::Borrowed(_)));
    }

    #[test]
    fn drifted_labels_rotate_and_counts_survive() {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(3)
            .with_mean_samples(20)
            .generate();
        let classes = data.num_classes();
        let d = drift(1, 1);
        for c in 0..3 {
            let raw = data.shard(c);
            let drifted = d.apply(2, data.shard(c)); // rotation of 2
            assert_eq!(drifted.train_len(), raw.train_len());
            let (_, raw_y) = raw.train_all();
            let (_, drift_y) = drifted.train_all();
            for (a, b) in raw_y.iter().zip(&drift_y) {
                assert_eq!((a + 2) % classes, *b);
            }
            assert!(drift_y.iter().all(|&y| y < classes));
        }
    }

    #[test]
    fn label_dist_rotates_with_the_labels() {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(1)
            .with_mean_samples(20)
            .generate();
        let classes = data.num_classes();
        let raw_dist = data.client(0).label_dist().to_vec();
        let drifted = drift(1, 1).apply(3, data.shard(0));
        let got = drifted.label_dist();
        for c in 0..classes {
            assert!((got[(c + 3) % classes] - raw_dist[c]).abs() < 1e-6);
        }
    }

    #[test]
    fn each_half_of_a_sparse_shard_drifts_as_the_whole_shard_does() {
        let sparse = SparseFederatedData::new(
            DatasetConfig::femnist_like()
                .with_num_clients(100)
                .with_mean_samples(20),
        );
        let d = drift(2, 1);
        let whole = d.apply(4, sparse.shard(42));
        let train = d.apply(4, sparse.shard_half(42, Half::Train));
        let test = d.apply(4, sparse.shard_half(42, Half::Test));
        assert_eq!(train.train_all(), whole.train_all());
        let rows = 0..whole.test_len();
        assert_eq!(test.test_batch(rows.clone()), whole.test_batch(rows));
        assert_eq!(train.label_dist(), whole.label_dist());
        assert_eq!(test.label_dist(), whole.label_dist());
    }

    #[test]
    fn full_cycle_rotation_is_identity() {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(1)
            .with_mean_samples(20)
            .generate();
        let classes = data.num_classes();
        let d = drift(1, classes); // whole-cycle per round
        let (_, raw_y) = data.shard(0).train_all();
        let (_, got_y) = d.apply(7, data.shard(0)).train_all();
        assert_eq!(raw_y, got_y);
    }

    #[test]
    fn drift_config_serde_round_trips() {
        let d = drift(4, 2);
        let json = serde_json::to_string(&d).unwrap();
        let back: DriftConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
