use std::ops::Range;

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use ft_tensor::Tensor;

use crate::{DatasetConfig, InputSpec};

/// One client's local shard: training and held-out evaluation samples.
///
/// Each half's features are one row-major `[samples × dim]` block, so
/// a shard is a handful of allocations whatever its sample count, and a
/// batch or an evaluation chunk copies contiguous rows out of it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientData {
    dim: usize,
    train_x: Vec<f32>,
    train_y: Vec<usize>,
    test_x: Vec<f32>,
    test_y: Vec<usize>,
    label_dist: Vec<f32>,
    difficulty: f32,
}

impl ClientData {
    /// Assembles a shard of `dim` features a sample: `train_x` holds
    /// `train_y.len()` rows of `dim` floats, row-major, and `test_x`
    /// `test_y.len()` rows.
    ///
    /// # Panics
    ///
    /// Panics if a feature block's length is not its label count times
    /// `dim`.
    pub fn new(
        dim: usize,
        train_x: Vec<f32>,
        train_y: Vec<usize>,
        test_x: Vec<f32>,
        test_y: Vec<usize>,
        label_dist: Vec<f32>,
        difficulty: f32,
    ) -> Self {
        assert_eq!(train_x.len(), train_y.len() * dim, "train block shape");
        assert_eq!(test_x.len(), test_y.len() * dim, "test block shape");
        ClientData {
            dim,
            train_x,
            train_y,
            test_x,
            test_y,
            label_dist,
            difficulty,
        }
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_y.len()
    }

    /// Number of evaluation samples.
    pub fn test_len(&self) -> usize {
        self.test_y.len()
    }

    /// The client's label distribution (drawn from the Dirichlet prior).
    pub fn label_dist(&self) -> &[f32] {
        &self.label_dist
    }

    /// The client's task difficulty in `[0, 1]` (confuser-blend rate).
    pub fn difficulty(&self) -> f32 {
        self.difficulty
    }

    /// Draws a random training batch of up to `batch_size` samples.
    ///
    /// # Panics
    ///
    /// Panics if the client has no training samples.
    pub fn sample_batch(&self, rng: &mut impl Rng, batch_size: usize) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::default();
        let mut labels = Vec::new();
        self.sample_batch_into(rng, batch_size, &mut x, &mut labels);
        (x, labels)
    }

    /// [`ClientData::sample_batch`] into caller-owned buffers: `x` is
    /// replaced (its old storage returns to the scratch pool) and
    /// `labels` is refilled in place, so a training loop that passes
    /// the same buffers every step allocates nothing once warm. The
    /// RNG draw sequence is identical to [`ClientData::sample_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the client has no training samples.
    pub fn sample_batch_into(
        &self,
        rng: &mut impl Rng,
        batch_size: usize,
        x: &mut Tensor,
        labels: &mut Vec<usize>,
    ) {
        assert!(!self.train_y.is_empty(), "client has no training data");
        let dim = self.dim;
        ft_tensor::scratch::with_index_buf(|indices| {
            indices.extend(0..self.train_y.len());
            indices.shuffle(rng);
            indices.truncate(batch_size.max(1).min(self.train_y.len()));
            let mut data = ft_tensor::scratch::take(indices.len() * dim);
            labels.clear();
            for (slot, &i) in indices.iter().enumerate() {
                data[slot * dim..(slot + 1) * dim]
                    .copy_from_slice(&self.train_x[i * dim..(i + 1) * dim]);
                labels.push(self.train_y[i]);
            }
            *x = Tensor::from_vec(data, &[indices.len(), dim]).expect("dims consistent");
        });
    }

    /// Rebuilds the shard with every label sent through `f` (train,
    /// test, and the label distribution alike). Features, sample
    /// counts, and difficulty are untouched, so round pricing computed
    /// from [`ClientData::train_len`] stays valid — the property the
    /// drift and label-poisoning paths rely on.
    ///
    /// `num_classes` is the label-space size; `f` must map `[0,
    /// num_classes)` into itself (the label distribution is permuted
    /// through the same map).
    #[must_use]
    pub fn map_labels(mut self, num_classes: usize, f: impl Fn(usize) -> usize) -> Self {
        let remap = |y: &mut usize| {
            let mapped = f(*y);
            debug_assert!(mapped < num_classes, "label map left [0, {num_classes})");
            *y = mapped;
        };
        self.train_y.iter_mut().for_each(remap);
        self.test_y.iter_mut().for_each(remap);
        if self.label_dist.len() == num_classes {
            let mut dist = vec![0.0f32; num_classes];
            for (c, &p) in self.label_dist.iter().enumerate() {
                dist[f(c).min(num_classes - 1)] += p;
            }
            self.label_dist = dist;
        }
        self
    }

    /// The full training set as one batch (for centralized baselines).
    #[expect(
        clippy::missing_panics_doc,
        reason = "`new` checked that the block holds `dim` floats a label"
    )]
    pub fn train_all(&self) -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec(self.train_x.clone(), &[self.train_len(), self.dim])
            .expect("dims consistent");
        (x, self.train_y.clone())
    }

    /// Held-out samples `rows` gathered into one scratch-backed
    /// `[rows.len(), dim]` batch, with their labels borrowed. An
    /// evaluation pass walks the shard through this a bounded chunk at
    /// a time, so it never materializes the whole test set.
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past [`ClientData::test_len`].
    pub fn test_batch(&self, rows: Range<usize>) -> (Tensor, &[usize]) {
        let labels = &self.test_y[rows.clone()];
        let block = &self.test_x[rows.start * self.dim..rows.end * self.dim];
        let mut data = ft_tensor::scratch::take(block.len());
        data.copy_from_slice(block);
        let x = Tensor::from_vec(data, &[labels.len(), self.dim]).expect("rows of `dim` floats");
        (x, labels)
    }
}

/// A complete federated dataset: one shard per client plus metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederatedDataset {
    config: DatasetConfig,
    clients: Vec<ClientData>,
}

impl FederatedDataset {
    /// Assembles a dataset (used by the generator).
    pub fn new(config: DatasetConfig, clients: Vec<ClientData>) -> Self {
        FederatedDataset { config, clients }
    }

    /// The generating configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    /// Input geometry.
    pub fn input(&self) -> InputSpec {
        self.config.input
    }

    /// Flat per-sample input width.
    pub fn input_dim(&self) -> usize {
        self.config.input.flat_dim()
    }

    /// A client's shard.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_clients()`.
    pub fn client(&self, index: usize) -> &ClientData {
        &self.clients[index]
    }

    /// Iterates over all client shards.
    pub fn clients(&self) -> &[ClientData] {
        &self.clients
    }

    /// Total training samples across clients.
    pub fn total_train_samples(&self) -> usize {
        self.clients.iter().map(ClientData::train_len).sum()
    }

    /// Pools every client's training data into one centralized batch —
    /// the paper's hypothetical "cloud ML" upper bound in Fig. 2.
    #[expect(
        clippy::missing_panics_doc,
        reason = "every pooled row carries `dim` floats and one label"
    )]
    pub fn centralized_train(&self) -> (Tensor, Vec<usize>) {
        let dim = self.input_dim();
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in &self.clients {
            data.extend_from_slice(&c.train_x);
            labels.extend_from_slice(&c.train_y);
        }
        let n = labels.len();
        (
            Tensor::from_vec(data, &[n, dim]).expect("dims consistent"),
            labels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_dataset() -> FederatedDataset {
        DatasetConfig::femnist_like()
            .with_num_clients(4)
            .with_mean_samples(20)
            .generate()
    }

    #[test]
    fn every_client_has_data() {
        let d = tiny_dataset();
        for i in 0..d.num_clients() {
            assert!(d.client(i).train_len() > 0, "client {i} empty");
        }
    }

    #[test]
    fn batches_have_requested_shape() {
        let d = tiny_dataset();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let (x, y) = d.client(0).sample_batch(&mut rng, 5);
        assert_eq!(x.rows().unwrap(), y.len());
        assert!(y.len() <= 5);
        assert_eq!(x.cols().unwrap(), d.input_dim());
    }

    #[test]
    fn labels_are_in_range() {
        let d = tiny_dataset();
        for c in d.clients() {
            let (_, y) = c.train_all();
            assert!(y.iter().all(|&l| l < d.num_classes()));
        }
    }

    #[test]
    fn centralized_pool_matches_total() {
        let d = tiny_dataset();
        let (x, y) = d.centralized_train();
        assert_eq!(x.rows().unwrap(), d.total_train_samples());
        assert_eq!(y.len(), d.total_train_samples());
    }
}
