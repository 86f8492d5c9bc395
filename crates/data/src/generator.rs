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
//!
//! # Walk, then build
//!
//! A dense dataset is one `StdRng` stream seeded from `config.seed` and
//! consumed in a fixed order: the prototypes; then, client by client,
//! its plan (`plan_client`), difficulty jitter and concept shift; then,
//! sample by sample, its label, manifold position, confuser blend and
//! `dim` noise normals. Every run of normals (a prototype, a manifold
//! direction, a concept shift, a sample's noise) is one
//! [`ft_tensor::normals::fill`], which draws the shim's two words per
//! normal in order and computes several lanes at a time on the SIMD
//! tiers; the normals are still most of the cost, so [`generate`] runs
//! the stream in two phases that together draw exactly the words a
//! single serial pass draws:
//!
//! 1. **Walk** (serial, `Sampler::walk`). Makes every draw except the
//!    normals, in stream order, and records the stream position before
//!    each client's head and before each of its samples. A normal is
//!    skipped as its [`WORDS_PER_NORMAL`] `next_u64`s, with no float
//!    arithmetic.
//! 2. **Build** (one `ft_tensor::pool` task per client,
//!    `Sampler::build`). Replays the client's head and then every
//!    sample from its recorded position through `Sampler::client` and
//!    `Sampler::sample`, the same two functions
//!    [`crate::SparseFederatedData`] calls inline on a client's own
//!    stream.
//!
//! A sparse shard is derived inline on the client's own stream
//! (`Sampler::shard`), and only the half its reader takes
//! ([`crate::Half`]): the train half stops the stream after the last
//! train sample; the test half steps over the train samples with the
//! walk's per-sample step and then builds the test samples. A train
//! half that a round priced first resumes the stream after the plan
//! pricing drew ([`crate::ShardPlan`]), so the plan is drawn once. Each
//! half is one row-major `[n × dim]` block that `Sampler::sample`
//! writes its rows into.
//!
//! The RNG contract lives in this file: the walk, the test half's step
//! over the train samples and `Sampler::sample` share
//! `Sampler::sample_draws`, and what a sample draws after that is one
//! fill of its `dim` noise normals. Debug builds assert that building
//! sample *i* leaves the stream at sample *i + 1*'s recorded position,
//! and that a sparse derivation stops at the walk's mark for its half,
//! so the phases cannot drift apart silently. A fill returns the bits
//! of the scalar libm formula on every kernel tier: its polynomial
//! `ln`/`cos` lanes are kept only where a guard proves they round to
//! the same `f32`, and the rest are recomputed through libm (see
//! [`ft_tensor::normals`]). Every other float comes out of the same
//! scalar operations in the same order whichever thread builds it, so
//! the data is bit-identical at every pool size and tier, and a call
//! from inside a pool task (which builds inline) returns the same
//! bytes.

use std::sync::OnceLock;

use ft_tensor::normals::{self, WORDS_PER_NORMAL};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, LogNormal};

use crate::partition::{sample_class, sample_dirichlet};
use crate::{ClientData, DatasetConfig, FederatedDataset, Half, InputSpec};

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

/// `dim` normals of mean 0 and deviation `sd`: a flat prototype, a
/// manifold direction, or a client's concept shift.
fn gaussian(rng: &mut impl Rng, dim: usize, sd: f32) -> Vec<f32> {
    let mut out = vec![0.0; dim];
    normals::fill(rng, 0.0, sd, &mut out);
    out
}

/// Advances `rng` past `count` normal draws without computing them.
fn skip_normals(rng: &mut StdRng, count: usize) {
    for _ in 0..count * WORDS_PER_NORMAL {
        rng.next_u64();
    }
}

/// The per-dataset global structure every client's samples are built
/// from: class prototypes plus per-class manifold directions. Computed
/// once per dataset (O(classes × dim)), shared by the dense generator
/// and the sparse per-client derivation.
#[derive(Debug, Clone)]
pub(crate) struct Prototypes {
    /// One prototype vector per class.
    pub prototypes: Vec<Vec<f32>>,
    /// Per-class manifold direction pairs for the nonlinear component.
    pub directions: Vec<(Vec<f32>, Vec<f32>)>,
}

/// Draws the global class prototypes and manifold directions. The draw
/// order is part of the dataset's determinism contract: `generate`
/// feeds the same RNG straight into the per-client walk afterwards.
pub(crate) fn sample_prototypes(config: &DatasetConfig, rng: &mut StdRng) -> Prototypes {
    let dim = config.input.flat_dim();
    let prototypes: Vec<Vec<f32>> = (0..config.num_classes)
        .map(|_| match config.input {
            InputSpec::Image {
                channels,
                height,
                width,
            } => image_prototype(rng, channels, height, width, config.class_sep),
            _ => gaussian(rng, dim, config.class_sep),
        })
        .collect();
    let directions: Vec<(Vec<f32>, Vec<f32>)> = (0..config.num_classes)
        .map(|_| {
            let d1 = gaussian(rng, dim, 1.0);
            let d2 = gaussian(rng, dim, 1.0);
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
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Plan {
    /// The client's Dirichlet label distribution.
    pub label_dist: Vec<f32>,
    /// Training samples in the shard.
    pub n_train: usize,
    /// Held-out samples in the shard.
    pub n_test: usize,
}

/// Draws the head of a client's RNG stream: the Dirichlet label
/// distribution, then the log-normal sample count, split into train
/// and test. Every client's head starts with this call.
/// [`crate::SparseFederatedData`] prices a shard with it alone and
/// hands the plan, with the stream after it, to the derivation of the
/// train half, so the length a round is priced at and the length the
/// generated shard has are one draw.
///
/// # Panics
///
/// Panics when `config.sample_spread` is not finite, or when
/// `config.mean_samples` is below 2 (the count clamp needs
/// `8 <= 6 * mean_samples`).
pub(crate) fn plan_client(config: &DatasetConfig, rng: &mut StdRng) -> Plan {
    ft_tensor::work::count(|w| w.plans += 1);
    let count_dist = LogNormal::new(
        (config.mean_samples.max(2) as f32).ln() as f64,
        config.sample_spread as f64,
    )
    .expect("spread finite");
    let label_dist = sample_dirichlet(rng, config.num_classes, config.dirichlet_alpha);
    let n_total = (count_dist.sample(rng).round() as usize).clamp(8, config.mean_samples * 6);
    let n_test = ((n_total as f32 * config.test_fraction).round() as usize).max(2);
    let n_train = (n_total - n_test.min(n_total)).max(4);
    Plan {
        label_dist,
        n_train,
        n_test,
    }
}

/// What a sample draws before its noise.
struct SampleDraws {
    label: usize,
    /// Position along the class manifold.
    t: f32,
    /// Confuser class and blend weight, when the sample is blended.
    blend: Option<(usize, f32)>,
}

/// A client's fixed context: what every one of its samples shares.
struct Client {
    plan: Plan,
    /// Confuser-blend probability; also scales the manifold curvature.
    difficulty: f32,
    /// The client's concept-shift offset, one value per feature.
    shift: Vec<f32>,
}

impl Client {
    /// Assembles the shard from `sample(k, row)`, which writes sample
    /// `k` of the client's `n_train + n_test` (in stream order, train
    /// first) into `row` and returns its label. Each half is one
    /// `[samples × dim]` block. With `half` set, only that half's
    /// samples are asked for and the other half is empty.
    fn assemble(
        &self,
        half: Option<Half>,
        mut sample: impl FnMut(usize, &mut [f32]) -> usize,
    ) -> ClientData {
        let Plan {
            ref label_dist,
            n_train,
            n_test,
        } = self.plan;
        let dim = self.shift.len();
        let wants = |h: Half| half.is_none_or(|only| only == h);
        let mut block = |h: Half, samples: std::ops::Range<usize>| {
            if !wants(h) {
                return Default::default();
            }
            let mut x = vec![0.0f32; samples.len() * dim];
            let y = x
                .chunks_exact_mut(dim)
                .zip(samples)
                .map(|(row, k)| sample(k, row))
                .collect();
            (x, y)
        };
        let (train_x, train_y) = block(Half::Train, 0..n_train);
        let (test_x, test_y) = block(Half::Test, n_train..n_train + n_test);
        ClientData::new(
            dim,
            train_x,
            train_y,
            test_x,
            test_y,
            label_dist.clone(),
            self.difficulty,
        )
    }
}

/// One dataset's sampling context: the config and its prototypes.
pub(crate) struct Sampler<'a> {
    config: &'a DatasetConfig,
    protos: &'a Prototypes,
    dim: usize,
}

impl<'a> Sampler<'a> {
    /// The sampler for `config` over its prototypes.
    pub(crate) fn new(config: &'a DatasetConfig, protos: &'a Prototypes) -> Self {
        Sampler {
            config,
            protos,
            dim: config.input.flat_dim(),
        }
    }

    /// Draws a client's difficulty, which follows its plan in the
    /// stream.
    fn difficulty(&self, client_idx: usize, rng: &mut StdRng) -> f32 {
        // Difficulty spread: deterministic ramp + jitter keeps the
        // population covering the full range at any client count.
        let ramp = client_idx as f32 / self.config.num_clients.max(1) as f32;
        (ramp * self.config.max_difficulty + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0)
    }

    /// Draws the rest of a client's head after its `plan`: the
    /// difficulty, then the concept shift.
    fn client(&self, client_idx: usize, plan: Plan, rng: &mut StdRng) -> Client {
        let difficulty = self.difficulty(client_idx, rng);
        let shift = gaussian(rng, self.dim, self.config.shift_std);
        Client {
            plan,
            difficulty,
            shift,
        }
    }

    /// Draws what places a sample before its noise. The walk and
    /// [`Sampler::sample`] both go through here, so they consume the
    /// same words.
    fn sample_draws(&self, label_dist: &[f32], difficulty: f32, rng: &mut StdRng) -> SampleDraws {
        let label = sample_class(rng, label_dist);
        // Nonlinear class manifold: samples spread along a curve, so
        // carving the class region rewards model capacity.
        let t = rng.gen_range(-1.5..1.5);
        let mut blend = None;
        if rng.gen::<f32>() < difficulty {
            // Blend in a confuser class; the label stays the same, so
            // the decision boundary bends around the blend.
            let confuser = rng.gen_range(0..self.config.num_classes);
            if confuser != label {
                blend = Some((confuser, rng.gen_range(0.4..0.65)));
            }
        }
        SampleDraws { label, t, blend }
    }

    /// The one sample function: draws one sample of `client` from `rng`,
    /// its [`SampleDraws`] and then `dim` noise normals, writes its
    /// features into `x` and returns its label.
    fn sample(&self, client: &Client, rng: &mut StdRng, x: &mut [f32]) -> usize {
        let SampleDraws { label, t, blend } =
            self.sample_draws(&client.plan.label_dist, client.difficulty, rng);
        // The noise goes into the sample first; each feature then adds
        // its prototype term, blend and shift to it.
        normals::fill(rng, 0.0, self.config.noise_std, x);
        let proto = &self.protos.prototypes[label];
        let (d1, d2) = &self.protos.directions[label];
        let confuser = blend.map(|(c, w)| (&self.protos.prototypes[c], w));
        // Curvature scales with client difficulty: easy clients have
        // near-linear class regions (small models suffice), hard
        // clients need capacity — the per-client spread of Fig. 1b.
        let bend = self.config.manifold_curvature * (0.25 + client.difficulty) * (2.0 * t).sin();
        for (i, xi) in x.iter_mut().enumerate() {
            let mut v = proto[i];
            v += t * d1[i] + bend * d2[i];
            if let Some((pc, w)) = confuser {
                v = v * (1.0 - w) + pc[i] * w;
            }
            *xi = v + (client.shift[i] + *xi);
        }
        label
    }

    /// Steps `rng` over one sample without computing its normals: the
    /// walk's per-sample step.
    fn skip_sample(&self, plan: &Plan, difficulty: f32, rng: &mut StdRng) {
        self.sample_draws(&plan.label_dist, difficulty, rng);
        skip_normals(rng, self.dim);
    }

    /// Generates one client's shard inline, drawing from its stream in
    /// order — the sparse path, and the reference the two phases
    /// reproduce. `start` is the stream at the client's head. `planned`
    /// is the plan already drawn from it with the stream right after
    /// it, when pricing drew them; the derivation resumes there instead
    /// of drawing the plan again. `half` builds only that half: `Train`
    /// stops the stream after the last train sample, `Test` steps over
    /// the train samples as the walk does and builds the test samples.
    /// `None` builds both.
    ///
    /// Debug builds walk a copy of `start` first and assert that the
    /// derivation stops at the walk's mark: before the first test sample
    /// for `Train`, after the last sample otherwise.
    ///
    /// # Panics
    ///
    /// In debug builds, when the derivation leaves the walk: a draw was
    /// added to the sample path without the walk learning about it, or
    /// `planned` is not where `start`'s plan leaves the stream.
    pub(crate) fn shard(
        &self,
        client_idx: usize,
        start: &StdRng,
        planned: Option<(Plan, StdRng)>,
        half: Option<Half>,
    ) -> ClientData {
        let walked = cfg!(debug_assertions).then(|| self.walk(client_idx, &mut start.clone()));
        let (plan, mut rng) = planned.unwrap_or_else(|| {
            let mut rng = start.clone();
            (plan_client(self.config, &mut rng), rng)
        });
        let client = self.client(client_idx, plan, &mut rng);
        if half == Some(Half::Test) {
            for _ in 0..client.plan.n_train {
                self.skip_sample(&client.plan, client.difficulty, &mut rng);
            }
        }
        let shard = client.assemble(half, |_, row| self.sample(&client, &mut rng, row));
        if let Some(marks) = walked {
            let stop = match half {
                Some(Half::Train) => client.plan.n_train + 1,
                _ => marks.len() - 1,
            };
            assert_eq!(
                rng.state(),
                marks[stop],
                "client {client_idx}, {half:?}: the derivation left the walk"
            );
        }
        shard
    }

    /// The walk over one client: advances `rng` past the client exactly
    /// as [`Sampler::shard`] would, without computing a normal, and
    /// returns the stream position before its head, before each sample,
    /// and after the last one (`n + 2` marks of 32 bytes; a shard has at
    /// least 8 samples, so under 48 bytes a sample).
    fn walk(&self, client_idx: usize, rng: &mut StdRng) -> Vec<[u64; 4]> {
        let start = rng.state();
        let plan = plan_client(self.config, rng);
        let difficulty = self.difficulty(client_idx, rng);
        skip_normals(rng, self.dim); // the concept shift
        let samples = plan.n_train + plan.n_test;
        let mut marks = Vec::with_capacity(samples + 2);
        marks.push(start);
        for _ in 0..samples {
            marks.push(rng.state());
            self.skip_sample(&plan, difficulty, rng);
        }
        marks.push(rng.state());
        marks
    }

    /// The build of one walked client: replays its head from `marks[0]`
    /// and sample `k` from `marks[k + 1]`.
    fn build(&self, client_idx: usize, marks: &[[u64; 4]]) -> ClientData {
        let mut rng = StdRng::from_state(marks[0]);
        let plan = plan_client(self.config, &mut rng);
        let client = self.client(client_idx, plan, &mut rng);
        debug_assert_eq!(
            rng.state(),
            marks[1],
            "client {client_idx}: head left the walk"
        );
        client.assemble(None, |k, row| {
            let mut rng = StdRng::from_state(marks[k + 1]);
            let label = self.sample(&client, &mut rng, row);
            debug_assert_eq!(
                rng.state(),
                marks[k + 2],
                "client {client_idx}, sample {k}: the build left the walk"
            );
            label
        })
    }
}

/// Generates the dataset described by `config`. Deterministic in
/// `config.seed`, and bit-identical at every pool size: the walk runs
/// serially, the build one pool task per client (see the module docs).
///
/// # Panics
///
/// Panics if `config` fails [`DatasetConfig::validate`].
pub fn generate(config: &DatasetConfig) -> FederatedDataset {
    if let Err(detail) = config.validate() {
        panic!("invalid dataset config: {detail}");
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let protos = sample_prototypes(config, &mut rng);
    let sampler = Sampler::new(config, &protos);
    let walks: Vec<Vec<[u64; 4]>> = (0..config.num_clients)
        .map(|client_idx| sampler.walk(client_idx, &mut rng))
        .collect();
    let shards: Vec<OnceLock<ClientData>> = walks.iter().map(|_| OnceLock::new()).collect();
    ft_tensor::pool::parallel_for(walks.len(), &|client_idx| {
        let _ = shards[client_idx].set(sampler.build(client_idx, &walks[client_idx]));
    });
    let clients = shards
        .into_iter()
        .map(|shard| {
            shard
                .into_inner()
                .expect("parallel_for runs every index once")
        })
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
