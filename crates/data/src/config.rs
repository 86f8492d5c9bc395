use serde::{Deserialize, Serialize};

use crate::{generator, FederatedDataset};

/// The input geometry of a dataset, which determines the model family
/// that can train on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputSpec {
    /// Flat feature vectors (dense-cell models).
    Flat {
        /// Feature dimension.
        dim: usize,
    },
    /// Channel-major images (conv-cell models).
    Image {
        /// Channel count.
        channels: usize,
        /// Image height.
        height: usize,
        /// Image width.
        width: usize,
    },
    /// Token sequences (attention-cell models).
    Tokens {
        /// Number of tokens per sample.
        tokens: usize,
        /// Embedding dimension per token.
        d_model: usize,
    },
}

impl InputSpec {
    /// Flattened per-sample width.
    ///
    /// # Panics
    ///
    /// Panics when the product of the dimensions overflows `usize`
    /// ([`DatasetConfig::validate`] refuses such a geometry).
    pub fn flat_dim(&self) -> usize {
        self.checked_flat_dim()
            .expect("input dimensions overflow usize; DatasetConfig::validate refuses them")
    }

    /// Flattened per-sample width, or `None` when the product of the
    /// dimensions overflows `usize`.
    pub fn checked_flat_dim(&self) -> Option<usize> {
        match *self {
            InputSpec::Flat { dim } => Some(dim),
            InputSpec::Image {
                channels,
                height,
                width,
            } => channels.checked_mul(height)?.checked_mul(width),
            InputSpec::Tokens { tokens, d_model } => tokens.checked_mul(d_model),
        }
    }
}

/// The most floats [`DatasetConfig::validate`] lets one generated block
/// hold: the class prototypes with their manifold directions, or one
/// client's largest shard. 2^28 floats (1 GiB) is about 970× the
/// largest shard any preset, canned scenario or benchmark workload
/// generates (`fedtrans-conv`: 6 · 60 · 768); a shape past it is refused
/// before any allocation.
pub const MAX_BLOCK_FLOATS: usize = 1 << 28;

/// The most clients [`DatasetConfig::validate`] lets a materialized
/// population ([`DatasetConfig::generate`]) hold. Generation keeps a
/// walk and a shard per client, so 2^16 clients of the largest preset
/// are already gigabytes; it is about 218× the largest population any
/// preset, canned scenario or `ft-exp` scale materializes (300).
pub const MAX_CLIENTS: usize = 1 << 16;

/// The most clients [`DatasetConfig::validate_sparse`] lets an
/// on-demand population (`SparseFederatedData`) hold. Its shards cost
/// nothing at rest, but a run's device trace keeps 2 B a device (an RNG
/// mark every 16th), so 2^28 devices are 512 MiB; it is about 268×
/// `fedavg-1m-stream`'s million.
pub const MAX_SPARSE_CLIENTS: usize = 1 << 28;

/// Configuration for a synthetic federated dataset.
///
/// Construct via a workload preset and customize with the `with_*`
/// builders:
///
/// ```
/// use ft_data::DatasetConfig;
/// let cfg = DatasetConfig::cifar_like()
///     .with_num_clients(20)
///     .with_dirichlet_alpha(0.5);
/// assert_eq!(cfg.num_clients, 20);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Human-readable workload name (used in experiment reports).
    pub name: String,
    /// Number of federated clients.
    pub num_clients: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Input geometry.
    pub input: InputSpec,
    /// Dirichlet concentration `h` controlling label skew
    /// (lower = more heterogeneous, as in the paper's Fig. 13).
    pub dirichlet_alpha: f32,
    /// Mean training samples per client.
    pub mean_samples: usize,
    /// Log-normal sigma of per-client sample counts.
    pub sample_spread: f32,
    /// Distance between class prototypes.
    pub class_sep: f32,
    /// Observation noise standard deviation.
    pub noise_std: f32,
    /// Standard deviation of the per-client concept-shift offset.
    pub shift_std: f32,
    /// Upper bound of the per-client confuser-blend probability;
    /// clients are spread uniformly in `[0, max_difficulty]`.
    pub max_difficulty: f32,
    /// Strength of the nonlinear (sinusoidal) class-manifold component.
    /// Higher values bend class regions so that small models underfit —
    /// the capacity/accuracy trade-off behind the paper's Fig. 1b.
    pub manifold_curvature: f32,
    /// Fraction of each client's samples held out for evaluation.
    pub test_fraction: f32,
    /// RNG seed; the same config always generates the same dataset.
    pub seed: u64,
}

impl DatasetConfig {
    fn base(name: &str) -> Self {
        DatasetConfig {
            name: name.to_owned(),
            num_clients: 100,
            num_classes: 10,
            input: InputSpec::Flat { dim: 32 },
            dirichlet_alpha: 1.0,
            mean_samples: 60,
            sample_spread: 0.5,
            class_sep: 2.2,
            noise_std: 0.8,
            shift_std: 0.35,
            max_difficulty: 0.7,
            manifold_curvature: 2.4,
            test_fraction: 0.25,
            seed: 42,
        }
    }

    /// CIFAR-10-like preset: 100 clients, 10 classes, small RGB images
    /// (paper: 100-client non-IID CIFAR-10 partition).
    pub fn cifar_like() -> Self {
        let mut c = Self::base("cifar-like");
        c.num_clients = 100;
        c.num_classes = 10;
        c.input = InputSpec::Image {
            channels: 3,
            height: 8,
            width: 8,
        };
        c
    }

    /// FEMNIST-like preset: the paper's mid-scale workload (3400 writers,
    /// 62 classes) scaled to laptop size with the class count preserved
    /// in spirit (16 classes, flat features).
    pub fn femnist_like() -> Self {
        let mut c = Self::base("femnist-like");
        c.num_clients = 200;
        c.num_classes = 16;
        c.input = InputSpec::Flat { dim: 48 };
        c
    }

    /// Speech-Commands-like preset: 35 classes over MFCC-style flat
    /// features (paper: 2618 speakers).
    pub fn speech_like() -> Self {
        let mut c = Self::base("speech-like");
        c.num_clients = 150;
        c.num_classes = 35;
        c.input = InputSpec::Flat { dim: 40 };
        c.mean_samples = 80;
        c
    }

    /// OpenImage-like preset: the paper's large-scale workload (14 477
    /// clients, 600 classes) scaled down but kept the *largest* of the
    /// four presets, with image inputs.
    pub fn openimage_like() -> Self {
        let mut c = Self::base("openimage-like");
        c.num_clients = 300;
        c.num_classes = 20;
        c.input = InputSpec::Image {
            channels: 1,
            height: 8,
            width: 8,
        };
        c.mean_samples = 60;
        c.max_difficulty = 0.6;
        c
    }

    /// FEMNIST-like token preset for the ViT experiment (Table 4).
    pub fn femnist_vit_like() -> Self {
        let mut c = Self::base("femnist-vit-like");
        c.num_clients = 120;
        c.num_classes = 16;
        c.input = InputSpec::Tokens {
            tokens: 8,
            d_model: 8,
        };
        c
    }

    /// Sets the client count.
    pub fn with_num_clients(mut self, n: usize) -> Self {
        self.num_clients = n;
        self
    }

    /// Sets the Dirichlet concentration `h` (label heterogeneity).
    pub fn with_dirichlet_alpha(mut self, alpha: f32) -> Self {
        self.dirichlet_alpha = alpha;
        self
    }

    /// Sets the mean per-client sample count.
    pub fn with_mean_samples(mut self, n: usize) -> Self {
        self.mean_samples = n;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks every field the generator samples with, so that a bad
    /// dataset block is an error naming the field instead of a panic
    /// inside [`DatasetConfig::generate`]. The population is bounded by
    /// [`MAX_CLIENTS`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_within(MAX_CLIENTS, "MAX_CLIENTS", "materialized")
    }

    /// [`DatasetConfig::validate`] for a population whose shards are
    /// derived on demand: the same checks, with the population bounded
    /// by [`MAX_SPARSE_CLIENTS`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field.
    pub fn validate_sparse(&self) -> Result<(), String> {
        self.validate_within(MAX_SPARSE_CLIENTS, "MAX_SPARSE_CLIENTS", "sparse")
    }

    fn validate_within(&self, max_clients: usize, bound: &str, kind: &str) -> Result<(), String> {
        for (name, count) in [
            ("num_clients", self.num_clients),
            ("num_classes", self.num_classes),
        ] {
            if count == 0 {
                return Err(format!("{name} must be at least 1"));
            }
        }
        if self.num_clients > max_clients {
            return Err(format!(
                "num_clients must be at most {bound} ({max_clients}) for a {kind} population, \
                 got {}",
                self.num_clients
            ));
        }
        let dim = match self.input.checked_flat_dim() {
            None => {
                return Err(format!(
                    "input dimensions overflow usize when multiplied: {:?}",
                    self.input
                ))
            }
            Some(0) => return Err(format!("input has a zero dimension: {:?}", self.input)),
            Some(dim) => dim,
        };
        if !(self.dirichlet_alpha.is_finite() && self.dirichlet_alpha > 0.0) {
            return Err(format!(
                "dirichlet_alpha must be finite and > 0, got {}",
                self.dirichlet_alpha
            ));
        }
        // The per-client count is clamped to [8, 6 * mean_samples].
        if self.mean_samples < 2 {
            return Err(format!(
                "mean_samples must be at least 2, got {}",
                self.mean_samples
            ));
        }
        if self.mean_samples.checked_mul(6).is_none() {
            return Err(format!(
                "mean_samples is too large: 6 * mean_samples overflows usize, got {}",
                self.mean_samples
            ));
        }
        for (block, floats) in [
            (
                "the class prototypes (3 * num_classes * input dimension)",
                dim.checked_mul(3)
                    .and_then(|n| n.checked_mul(self.num_classes)),
            ),
            (
                "one client's largest shard (6 * mean_samples * input dimension)",
                (6 * self.mean_samples).checked_mul(dim),
            ),
        ] {
            if floats.is_none_or(|n| n > MAX_BLOCK_FLOATS) {
                return Err(format!(
                    "{block} would exceed MAX_BLOCK_FLOATS ({MAX_BLOCK_FLOATS} floats): \
                     num_classes {}, mean_samples {}, input {:?}",
                    self.num_classes, self.mean_samples, self.input
                ));
            }
        }
        for (name, scale) in [
            ("sample_spread", self.sample_spread),
            ("class_sep", self.class_sep),
            ("noise_std", self.noise_std),
            ("shift_std", self.shift_std),
        ] {
            if !(scale.is_finite() && scale >= 0.0) {
                return Err(format!("{name} must be finite and >= 0, got {scale}"));
            }
        }
        if !(0.0..=1.0).contains(&self.test_fraction) {
            return Err(format!(
                "test_fraction must be in [0, 1], got {}",
                self.test_fraction
            ));
        }
        for (name, value) in [
            ("max_difficulty", self.max_difficulty),
            ("manifold_curvature", self.manifold_curvature),
        ] {
            if !value.is_finite() {
                return Err(format!("{name} must be finite, got {value}"));
            }
        }
        Ok(())
    }

    /// Generates the dataset described by this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DatasetConfig::validate`].
    pub fn generate(&self) -> FederatedDataset {
        generator::generate(self)
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self::femnist_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shapes whose first allocation is terabytes are refused by
    /// validation, naming the field, instead of aborting the process.
    #[test]
    fn oom_sized_shapes_are_refused_naming_the_field() {
        let many_samples = DatasetConfig::femnist_like().with_mean_samples(1_000_000_000_000);
        let err = many_samples.validate().unwrap_err();
        assert!(
            err.contains("mean_samples") && err.contains("MAX_BLOCK_FLOATS"),
            "{err}"
        );
        let mut wide = DatasetConfig::femnist_like();
        wide.input = InputSpec::Flat {
            dim: 1_000_000_000_000,
        };
        let err = wide.validate().unwrap_err();
        assert!(
            err.contains("input") && err.contains("MAX_BLOCK_FLOATS"),
            "{err}"
        );
        // At the bound itself the shard is still accepted.
        let mut edge = DatasetConfig::femnist_like().with_mean_samples(MAX_BLOCK_FLOATS / 6);
        edge.input = InputSpec::Flat { dim: 1 };
        assert_eq!(edge.validate(), Ok(()));
    }

    /// Each representation has its own population bound, accepted at
    /// the bound and refused one past it, naming the field and bound.
    #[test]
    fn each_representation_bounds_num_clients() {
        let at = |n| DatasetConfig::femnist_like().with_num_clients(n);
        assert_eq!(at(MAX_CLIENTS).validate(), Ok(()));
        let err = at(MAX_CLIENTS + 1).validate().unwrap_err();
        assert!(
            err.contains("num_clients") && err.contains("MAX_CLIENTS"),
            "{err}"
        );
        assert_eq!(at(MAX_CLIENTS + 1).validate_sparse(), Ok(()));
        assert_eq!(at(MAX_SPARSE_CLIENTS).validate_sparse(), Ok(()));
        for n in [MAX_SPARSE_CLIENTS + 1, usize::MAX] {
            let err = at(n).validate_sparse().unwrap_err();
            assert!(
                err.contains("num_clients") && err.contains("MAX_SPARSE_CLIENTS"),
                "{err}"
            );
        }
    }

    #[test]
    fn presets_have_distinct_scales() {
        let presets = [
            DatasetConfig::cifar_like(),
            DatasetConfig::femnist_like(),
            DatasetConfig::speech_like(),
            DatasetConfig::openimage_like(),
        ];
        for p in &presets {
            assert!(p.num_clients >= 100);
            assert!(p.num_classes >= 10);
            assert_eq!(p.validate(), Ok(()));
        }
        assert!(presets[3].num_clients > presets[0].num_clients);
    }

    #[test]
    fn flat_dim_matches_geometry() {
        assert_eq!(InputSpec::Flat { dim: 32 }.flat_dim(), 32);
        assert_eq!(
            InputSpec::Image {
                channels: 3,
                height: 8,
                width: 8
            }
            .flat_dim(),
            192
        );
        assert_eq!(
            InputSpec::Tokens {
                tokens: 8,
                d_model: 8
            }
            .flat_dim(),
            64
        );
    }

    #[test]
    fn checked_flat_dim_reports_overflow() {
        let huge = InputSpec::Image {
            channels: (1 << 33) + 1,
            height: 1 << 31,
            width: 1,
        };
        assert_eq!(huge.checked_flat_dim(), None);
        let tokens = InputSpec::Tokens {
            tokens: usize::MAX,
            d_model: 2,
        };
        assert_eq!(tokens.checked_flat_dim(), None);
        assert_eq!(InputSpec::Flat { dim: 7 }.checked_flat_dim(), Some(7));
    }

    #[test]
    fn builders_chain() {
        let c = DatasetConfig::femnist_like()
            .with_num_clients(7)
            .with_seed(9)
            .with_dirichlet_alpha(0.1);
        assert_eq!(c.num_clients, 7);
        assert_eq!(c.seed, 9);
        assert_eq!(c.dirichlet_alpha, 0.1);
    }
}
