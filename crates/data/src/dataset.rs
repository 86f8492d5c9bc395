use std::ops::Range;

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use ft_tensor::Tensor;

use crate::{DatasetConfig, InputSpec};

/// One client's local shard: training and held-out evaluation samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientData {
    train_x: Vec<Vec<f32>>,
    train_y: Vec<usize>,
    test_x: Vec<Vec<f32>>,
    test_y: Vec<usize>,
    label_dist: Vec<f32>,
    difficulty: f32,
}

impl ClientData {
    /// Assembles a shard (used by the generator).
    pub fn new(
        train_x: Vec<Vec<f32>>,
        train_y: Vec<usize>,
        test_x: Vec<Vec<f32>>,
        test_y: Vec<usize>,
        label_dist: Vec<f32>,
        difficulty: f32,
    ) -> Self {
        debug_assert_eq!(train_x.len(), train_y.len());
        debug_assert_eq!(test_x.len(), test_y.len());
        ClientData {
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
        self.train_x.len()
    }

    /// Number of evaluation samples.
    pub fn test_len(&self) -> usize {
        self.test_x.len()
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
        assert!(!self.train_x.is_empty(), "client has no training data");
        ft_tensor::scratch::with_index_buf(|indices| {
            indices.extend(0..self.train_x.len());
            indices.shuffle(rng);
            indices.truncate(batch_size.max(1).min(self.train_x.len()));
            let dim = self.train_x[0].len();
            let mut data = ft_tensor::scratch::take(indices.len() * dim);
            labels.clear();
            for (slot, &i) in indices.iter().enumerate() {
                data[slot * dim..(slot + 1) * dim].copy_from_slice(&self.train_x[i]);
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

    #[expect(
        clippy::missing_panics_doc,
        reason = "`dim` floats are appended per index, so the shape always fits"
    )]
    fn gather_train(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let dim = self.train_x[0].len();
        let mut data = Vec::with_capacity(indices.len() * dim);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.train_x[i]);
            labels.push(self.train_y[i]);
        }
        let x = Tensor::from_vec(data, &[indices.len(), dim]).expect("dims consistent");
        (x, labels)
    }

    /// The full training set as one batch (for centralized baselines).
    pub fn train_all(&self) -> (Tensor, Vec<usize>) {
        let indices: Vec<usize> = (0..self.train_x.len()).collect();
        self.gather_train(&indices)
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
        let samples = &self.test_x[rows.clone()];
        let dim = samples.first().map_or(0, Vec::len);
        let mut data = ft_tensor::scratch::take(samples.len() * dim);
        for (dst, x) in data.chunks_exact_mut(dim.max(1)).zip(samples) {
            dst.copy_from_slice(x);
        }
        let x = Tensor::from_vec(data, &[samples.len(), dim]).expect("every row has `dim` floats");
        (x, &self.test_y[rows])
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
            let (x, y) = c.train_all();
            data.extend_from_slice(x.data());
            labels.extend(y);
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
