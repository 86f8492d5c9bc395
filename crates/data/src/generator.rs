//! The synthetic sample generator.
//!
//! Per dataset: each class gets a global prototype vector. Per client:
//! a Dirichlet label distribution, a log-normal sample count, a fixed
//! concept-shift offset, and a difficulty level. Each sample is its
//! class prototype, optionally blended with a random confuser class
//! (probability = client difficulty), plus the client shift and
//! Gaussian noise. Higher-capacity models separate blended prototypes
//! better, which is what gives larger models their accuracy edge on
//! difficult clients — the behaviour FedTrans's model assignment
//! exploits.

use rand::Rng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal, Normal};

use crate::partition::{sample_class, sample_dirichlet};
use crate::{ClientData, DatasetConfig, FederatedDataset, InputSpec};

/// Generates prototypes for image inputs as smooth low-frequency
/// patterns so conv models have spatial structure to exploit.
fn image_prototype(
    rng: &mut impl Rng,
    channels: usize,
    height: usize,
    width: usize,
    sep: f32,
) -> Vec<f32> {
    let mut proto = vec![0.0f32; channels * height * width];
    for c in 0..channels {
        // Random 2-D sinusoid per channel.
        let fx: f32 = rng.gen_range(0.5..2.0);
        let fy: f32 = rng.gen_range(0.5..2.0);
        let px: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        let py: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        let amp: f32 = sep * rng.gen_range(0.6..1.4);
        for i in 0..height {
            for j in 0..width {
                let v = amp
                    * ((fx * i as f32 / height as f32 * std::f32::consts::TAU + px).sin()
                        + (fy * j as f32 / width as f32 * std::f32::consts::TAU + py).cos())
                    / 2.0;
                proto[c * height * width + i * width + j] = v;
            }
        }
    }
    proto
}

/// Generates a flat Gaussian prototype.
///
/// # Panics
///
/// Panics if `sep` is not finite and non-negative.
fn flat_prototype(rng: &mut impl Rng, dim: usize, sep: f32) -> Vec<f32> {
    let normal = Normal::new(0.0f32, sep).expect("sep is finite");
    (0..dim).map(|_| normal.sample(rng)).collect()
}

/// The per-dataset global structure every client's samples are built
/// from: class prototypes plus per-class manifold directions. Computed
/// once per dataset (O(classes × dim)), shared by the sequential
/// generator and the sparse per-client derivation.
#[derive(Debug, Clone)]
pub(crate) struct Prototypes {
    /// One prototype vector per class.
    pub prototypes: Vec<Vec<f32>>,
    /// Per-class manifold direction pairs for the nonlinear component.
    pub directions: Vec<(Vec<f32>, Vec<f32>)>,
}

/// Draws the global class prototypes and manifold directions. The draw
/// order is part of the dataset's determinism contract: `generate`
/// feeds the same RNG straight into the per-client loop afterwards.
pub(crate) fn sample_prototypes(
    config: &DatasetConfig,
    rng: &mut rand::rngs::StdRng,
) -> Prototypes {
    let dim = config.input.flat_dim();
    let prototypes: Vec<Vec<f32>> = (0..config.num_classes)
        .map(|_| match config.input {
            InputSpec::Image {
                channels,
                height,
                width,
            } => image_prototype(rng, channels, height, width, config.class_sep),
            _ => flat_prototype(rng, dim, config.class_sep),
        })
        .collect();
    let directions: Vec<(Vec<f32>, Vec<f32>)> = (0..config.num_classes)
        .map(|_| {
            let d1 = flat_prototype(rng, dim, 1.0);
            let d2 = flat_prototype(rng, dim, 1.0);
            (d1, d2)
        })
        .collect();
    Prototypes {
        prototypes,
        directions,
    }
}

/// What a client's RNG stream decides before any sample is drawn: its
/// label distribution and how many samples it holds.
pub(crate) struct ShardPlan {
    /// The client's Dirichlet label distribution.
    pub label_dist: Vec<f32>,
    /// Training samples in the shard.
    pub n_train: usize,
    /// Held-out samples in the shard.
    pub n_test: usize,
}

/// Draws the head of a client's RNG stream: the Dirichlet label
/// distribution, then the log-normal sample count, split into train
/// and test. [`generate_client`] starts with this call and
/// [`crate::SparseFederatedData`] prices a shard's length with it alone,
/// so the length a round is priced at and the length the generated
/// shard has come from the same draws, in the same order, through the
/// same clamps.
///
/// # Panics
///
/// Panics when `config.sample_spread` is not finite, or when
/// `config.mean_samples` is below 2 (the count clamp needs
/// `8 <= 6 * mean_samples`).
pub(crate) fn plan_client(config: &DatasetConfig, rng: &mut rand::rngs::StdRng) -> ShardPlan {
    let count_dist = LogNormal::new(
        (config.mean_samples.max(2) as f32).ln() as f64,
        config.sample_spread as f64,
    )
    .expect("spread finite");
    let label_dist = sample_dirichlet(rng, config.num_classes, config.dirichlet_alpha);
    let n_total = (count_dist.sample(rng).round() as usize).clamp(8, config.mean_samples * 6);
    let n_test = ((n_total as f32 * config.test_fraction).round() as usize).max(2);
    let n_train = (n_total - n_test.min(n_total)).max(4);
    ShardPlan {
        label_dist,
        n_train,
        n_test,
    }
}

/// Generates one client's shard from the shared prototypes. Draws from
/// `rng` in a fixed order, so the same RNG state always yields the
/// same shard — `generate` threads one sequential RNG through every
/// client, while the sparse representation hands each client its own
/// index-derived RNG.
///
/// # Panics
///
/// Panics when `config.noise_std`, `config.shift_std`, or
/// `config.sample_spread` is not finite — the presets all are, and
/// these are sampler parameters, not per-client data.
pub(crate) fn generate_client(
    config: &DatasetConfig,
    protos: &Prototypes,
    client_idx: usize,
    rng: &mut rand::rngs::StdRng,
) -> ClientData {
    let dim = config.input.flat_dim();
    let prototypes = &protos.prototypes;
    let directions = &protos.directions;
    let noise = Normal::new(0.0f32, config.noise_std).expect("noise_std finite");
    let shift = Normal::new(0.0f32, config.shift_std).expect("shift_std finite");

    let ShardPlan {
        label_dist,
        n_train,
        n_test,
    } = plan_client(config, rng);
    // Difficulty spread: deterministic ramp + jitter keeps the
    // population covering the full range at any client count.
    let ramp = client_idx as f32 / config.num_clients.max(1) as f32;
    let difficulty = (ramp * config.max_difficulty + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0);
    let client_shift: Vec<f32> = (0..dim).map(|_| shift.sample(rng)).collect();

    let gen_sample = |rng: &mut rand::rngs::StdRng| -> (Vec<f32>, usize) {
        let label = sample_class(rng, &label_dist);
        let mut x = prototypes[label].clone();
        // Nonlinear class manifold: samples spread along a curve, so
        // carving the class region rewards model capacity.
        let t: f32 = rng.gen_range(-1.5..1.5);
        let (d1, d2) = &directions[label];
        // Curvature scales with client difficulty: easy clients have
        // near-linear class regions (small models suffice), hard
        // clients need capacity — the per-client spread of Fig. 1b.
        let bend = config.manifold_curvature * (0.25 + difficulty) * (2.0 * t).sin();
        for (i, xi) in x.iter_mut().enumerate() {
            *xi += t * d1[i] + bend * d2[i];
        }
        if rng.gen::<f32>() < difficulty {
            // Blend in a confuser class; the label stays the same, so
            // the decision boundary bends around the blend.
            let confuser = rng.gen_range(0..config.num_classes);
            if confuser != label {
                let w: f32 = rng.gen_range(0.4..0.65);
                for (xi, pi) in x.iter_mut().zip(&prototypes[confuser]) {
                    *xi = *xi * (1.0 - w) + pi * w;
                }
            }
        }
        for (i, xi) in x.iter_mut().enumerate() {
            *xi += client_shift[i] + noise.sample(rng);
        }
        (x, label)
    };

    let mut train_x = Vec::with_capacity(n_train);
    let mut train_y = Vec::with_capacity(n_train);
    for _ in 0..n_train {
        let (x, y) = gen_sample(rng);
        train_x.push(x);
        train_y.push(y);
    }
    let mut test_x = Vec::with_capacity(n_test);
    let mut test_y = Vec::with_capacity(n_test);
    for _ in 0..n_test {
        let (x, y) = gen_sample(rng);
        test_x.push(x);
        test_y.push(y);
    }
    ClientData::new(train_x, train_y, test_x, test_y, label_dist, difficulty)
}

/// Generates the dataset described by `config`. Deterministic in
/// `config.seed`.
///
/// # Panics
///
/// Panics if `config`'s `noise_std`, `shift_std`, `class_sep`, or
/// `sample_spread` is not finite and non-negative (they parameterize
/// the sampling distributions).
pub fn generate(config: &DatasetConfig) -> FederatedDataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let protos = sample_prototypes(config, &mut rng);
    let clients = (0..config.num_clients)
        .map(|client_idx| generate_client(config, &protos, client_idx, &mut rng))
        .collect();
    FederatedDataset::new(config.clone(), clients)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DatasetConfig::femnist_like().with_num_clients(3);
        let a = generate(&cfg);
        let b = generate(&cfg);
        let (xa, ya) = a.client(1).train_all();
        let (xb, yb) = b.client(1).train_all();
        assert_eq!(xa, xb);
        assert_eq!(ya, yb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(
            &DatasetConfig::femnist_like()
                .with_num_clients(3)
                .with_seed(1),
        );
        let b = generate(
            &DatasetConfig::femnist_like()
                .with_num_clients(3)
                .with_seed(2),
        );
        let (xa, _) = a.client(0).train_all();
        let (xb, _) = b.client(0).train_all();
        assert_ne!(xa, xb);
    }

    #[test]
    fn difficulty_spans_range() {
        let d = generate(&DatasetConfig::femnist_like().with_num_clients(50));
        let difficulties: Vec<f32> = d.clients().iter().map(|c| c.difficulty()).collect();
        let min = difficulties.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = difficulties
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(min < 0.1);
        assert!(max > 0.3);
    }

    #[test]
    fn image_inputs_have_image_dim() {
        let d = generate(&DatasetConfig::cifar_like().with_num_clients(2));
        assert_eq!(d.input_dim(), 192);
        let (x, _) = d.client(0).train_all();
        assert_eq!(x.cols().unwrap(), 192);
    }

    #[test]
    fn heterogeneity_knob_changes_label_skew() {
        use crate::partition::mean_tv_from_uniform;
        let skewed = generate(
            &DatasetConfig::femnist_like()
                .with_num_clients(60)
                .with_dirichlet_alpha(0.2),
        );
        let uniform = generate(
            &DatasetConfig::femnist_like()
                .with_num_clients(60)
                .with_dirichlet_alpha(100.0),
        );
        let tv_skewed = mean_tv_from_uniform(
            &skewed
                .clients()
                .iter()
                .map(|c| c.label_dist().to_vec())
                .collect::<Vec<_>>(),
        );
        let tv_uniform = mean_tv_from_uniform(
            &uniform
                .clients()
                .iter()
                .map(|c| c.label_dist().to_vec())
                .collect::<Vec<_>>(),
        );
        assert!(tv_skewed > tv_uniform);
    }
}
