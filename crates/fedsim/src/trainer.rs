//! Local training executor.
//!
//! Each participant downloads its assigned model, runs `local_steps`
//! SGD steps on batches of its own shard (the paper uses 20 steps of
//! batch size 10), and uploads its weights, aggregate update, and mean
//! training loss — exactly the feedback FedTrans's coordinator consumes
//! (Algorithm 1, line 10).
//!
//! The coordinator trains each participant with [`train_local`] inside
//! its pipelined fold ([`crate::exec::try_stream_map`]).
//! [`train_tasks`] executes a batch of participants concurrently through
//! the same [`crate::exec`] engine for callers outside a round — the
//! benchmark's trainer probe and tests. Either way, downstream
//! accounting (cost meters, round times, loss means) iterates outcomes
//! in task order, which is what keeps every floating-point reduction
//! order-fixed regardless of which client finished first.

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use ft_data::{ClientData, Half, ShardSource};
use ft_model::CellModel;
use ft_nn::{NnError, Sgd};
use ft_tensor::Tensor;

use crate::{Result, SimError};

/// Hyperparameters for one client's local training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainConfig {
    /// Number of local SGD steps (paper default: 20).
    pub local_steps: usize,
    /// Batch size (paper default: 10).
    pub batch_size: usize,
    /// Client learning rate (paper default: 0.05).
    pub lr: f32,
    /// SGD momentum (0 disables).
    pub momentum: f32,
    /// FedProx proximal coefficient; `None` runs plain SGD.
    pub prox_mu: Option<f32>,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        LocalTrainConfig {
            local_steps: 20,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.0,
            prox_mu: None,
        }
    }
}

/// What a participant uploads after local training.
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// Index of the client that trained.
    pub client: usize,
    /// Final local weights, tensor-per-tensor.
    pub weights: Vec<Tensor>,
    /// Aggregate update `w_local - w_global`, the pseudo-gradient the
    /// coordinator uses for cell activeness.
    pub delta: Vec<Tensor>,
    /// Mean training loss over the local steps.
    pub avg_loss: f32,
    /// Mean training accuracy over the local steps.
    pub avg_acc: f32,
    /// Number of samples processed (for MAC accounting).
    pub samples_processed: u64,
}

/// One client's reusable local-training state: RNG stream, optimizer,
/// and batch buffers, owned across steps so that the warm steady-state
/// step performs **zero heap allocations** (pinned by the
/// `alloc_steady_state` regression test).
///
/// [`train_local`] drives this for a full local round; the train-step
/// benchmark and the allocation regression test drive [`LocalStepper::step`]
/// directly.
pub struct LocalStepper<'a> {
    shard: &'a ClientData,
    cfg: LocalTrainConfig,
    rng: rand::rngs::StdRng,
    sgd: Sgd,
    /// FedProx: the proximal coefficient and the round-start weights
    /// it pulls toward.
    prox: Option<(f32, Vec<Tensor>)>,
    x: Tensor,
    labels: Vec<usize>,
}

impl<'a> LocalStepper<'a> {
    /// Prepares a stepper for `model` (holding the round-start global
    /// weights; a FedProx anchor is snapshotted from it when
    /// `cfg.prox_mu` is set) with the client's derived RNG stream.
    pub fn new(
        model: &CellModel,
        shard: &'a ClientData,
        cfg: &LocalTrainConfig,
        seed: u64,
    ) -> Self {
        LocalStepper {
            shard,
            cfg: *cfg,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            sgd: Sgd::new(cfg.lr).with_momentum(cfg.momentum),
            prox: cfg.prox_mu.map(|mu| (mu, model.snapshot())),
            x: Tensor::default(),
            labels: Vec::new(),
        }
    }

    /// Runs one SGD step (sample a batch, forward/backward, fused
    /// in-place parameter update), returning `(loss, accuracy,
    /// samples_processed)`. Bit-identical to the former
    /// clone-gradients-and-step implementation: the fused optimizer
    /// kernels preserve per-element arithmetic order exactly.
    ///
    /// # Errors
    ///
    /// Propagates model/layer errors (geometry mismatches).
    pub fn step(&mut self, model: &mut CellModel) -> Result<(f32, f32, u64)> {
        self.shard.sample_batch_into(
            &mut self.rng,
            self.cfg.batch_size,
            &mut self.x,
            &mut self.labels,
        );
        model.zero_grad();
        let (loss, acc) = model.loss_and_grad(&self.x, &self.labels)?;
        let mut cur = self.sgd.begin_step();
        match &self.prox {
            Some((mu, anchor)) => {
                // A walk that disagrees with the round-start snapshot
                // is the stale-state error, not a silent plain step.
                let mut pairs = 0;
                model.for_each_param_and_grad(&mut |pt, g| {
                    match anchor.get(pairs) {
                        Some(a) => cur.apply_prox(pt, g, a, *mu),
                        None => cur.apply(pt, g),
                    }
                    pairs += 1;
                });
                if pairs != anchor.len() {
                    let stale = NnError::OptimizerStateMismatch {
                        expected: anchor.len(),
                        actual: pairs,
                    };
                    return Err(ft_model::ModelError::from(stale).into());
                }
            }
            None => model.for_each_param_and_grad(&mut |pt, g| cur.apply(pt, g)),
        }
        cur.finish().map_err(ft_model::ModelError::from)?;
        Ok((loss, acc, self.labels.len() as u64))
    }
}

/// Runs local training for one client on `model` (which enters holding
/// the coordinator's weights and leaves holding the local weights).
///
/// # Errors
///
/// Propagates model/layer errors (geometry mismatches).
#[expect(
    clippy::missing_panics_doc,
    reason = "trained weights mirror the snapshot they came from"
)]
pub fn train_local(
    model: &mut CellModel,
    client_index: usize,
    shard: &ClientData,
    cfg: &LocalTrainConfig,
    seed: u64,
) -> Result<LocalOutcome> {
    let global = model.snapshot();
    let mut stepper = LocalStepper::new(model, shard, cfg, seed);

    let mut loss_sum = 0.0f32;
    let mut acc_sum = 0.0f32;
    let mut samples = 0u64;
    for _ in 0..cfg.local_steps {
        let (loss, acc, batch) = stepper.step(model)?;
        loss_sum += loss;
        acc_sum += acc;
        samples += batch;
    }

    let weights = model.snapshot();
    let delta: Vec<Tensor> = weights
        .iter()
        .zip(&global)
        .map(|(w, g)| w.sub(g).expect("same shapes by construction"))
        .collect();
    let steps = cfg.local_steps.max(1) as f32;
    Ok(LocalOutcome {
        client: client_index,
        weights,
        delta,
        avg_loss: loss_sum / steps,
        avg_acc: acc_sum / steps,
        samples_processed: samples,
    })
}

/// The number of samples a client processes in one local round: a pure
/// function of the training configuration and the shard size, because
/// every step's batch is truncated to
/// `min(batch_size.max(1), train_len)` (see
/// `ClientData::sample_batch_into`).
///
/// This is what lets the coordinator build a round's complete
/// aggregation manifest — per-task sample weights, and from them the
/// virtual-clock timeline — *before* any training executes, which in
/// turn is what makes the streaming fold bit-identical to batch
/// aggregation: normalizers are known up front, so updates can be
/// folded and dropped as they land. The coordinator cross-checks this
/// value against the executed outcome every round.
pub fn expected_samples(cfg: &LocalTrainConfig, train_len: usize) -> u64 {
    cfg.local_steps as u64 * cfg.batch_size.max(1).min(train_len) as u64
}

/// The per-client training seed: a fixed stateless derivation from the
/// round seed and the client index.
///
/// This is the engine's RNG contract. Each participant gets its own
/// `StdRng` stream seeded by this value instead of drawing from a
/// shared mutable RNG, so local training neither contends on an RNG
/// nor depends on execution order — and checkpoint/resume needs no
/// per-client RNG state beyond the round counter and base seed the
/// coordinator already serializes.
pub fn client_seed(round_seed: u64, client: usize) -> u64 {
    round_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(client as u64)
}

/// One unit of training work the coordinator dispatches: which client
/// trains, which entry of the round's model table it downloads, and
/// its explicit RNG seed.
///
/// The model travels as an *index* into the caller's table rather than
/// an owned payload: most rounds dispatch a handful of distinct models
/// to many clients, and a table reference keeps the task list (and the
/// protocol wire it is mirrored onto) O(tasks) instead of
/// O(tasks × parameters). The seed is carried rather than derived
/// inside the executor so callers with bespoke seed schedules (e.g.
/// SplitMix's per-base streams) use the same entry point as everyone
/// else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainTask {
    /// Index of the client that trains.
    pub client: usize,
    /// Index into the round's model table.
    pub model: usize,
    /// Seed for the client's local RNG stream.
    pub seed: u64,
}

/// Executes a batch of [`TrainTask`]s concurrently over the shared
/// worker pool, outside a round (the coordinator trains through
/// [`train_local`] in its own fold). Each worker
/// clones its task's entry of `models` and pulls the train half of the
/// client's shard from the [`ShardSource`] on demand, so a sparse
/// million-device population never materializes beyond the clients in
/// flight, and never builds their test samples.
///
/// Outcomes are returned in task order and are byte-identical at any
/// thread budget: each task's RNG stream comes from its own seed,
/// results land in submission-order slots, and the GEMM kernels
/// underneath are thread-count invariant.
///
/// # Errors
///
/// Returns [`SimError::NoSuchClient`] for an out-of-range client index
/// and [`SimError::BadConfig`] for an out-of-range model index (both
/// checked upfront, before any training starts), the lowest-indexed
/// training error, or [`SimError::WorkerPanicked`] if a task dies.
pub fn train_tasks<S: ShardSource + ?Sized>(
    tasks: &[TrainTask],
    models: &[CellModel],
    shards: &S,
    cfg: &LocalTrainConfig,
    threads: usize,
) -> Result<Vec<LocalOutcome>> {
    let n = tasks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    for task in tasks {
        if task.client >= shards.num_clients() {
            return Err(SimError::NoSuchClient {
                index: task.client,
                clients: shards.num_clients(),
            });
        }
        if task.model >= models.len() {
            return Err(SimError::BadConfig {
                detail: format!(
                    "task for client {} names model {} but the round table holds {}",
                    task.client,
                    task.model,
                    models.len()
                ),
            });
        }
    }
    crate::exec::try_par_map(n, threads, |slot| {
        let t = tasks[slot];
        let mut model = models[t.model].clone();
        let shard = shards.shard_half(t.client, Half::Train);
        train_local(&mut model, t.client, &shard, cfg, t.seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_data::DatasetConfig;

    fn tiny() -> (ft_data::FederatedDataset, CellModel) {
        let data = DatasetConfig::femnist_like()
            .with_num_clients(4)
            .with_mean_samples(30)
            .generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let model = CellModel::dense(&mut rng, data.input_dim(), &[16], data.num_classes());
        (data, model)
    }

    #[test]
    fn local_training_reduces_loss() {
        let (data, model) = tiny();
        let cfg = LocalTrainConfig {
            local_steps: 40,
            lr: 0.1,
            ..Default::default()
        };
        let mut m = model.clone();
        let out = train_local(&mut m, 0, data.client(0), &cfg, 1).unwrap();
        // Re-evaluate at final weights: loss should be below the initial.
        let (x, y) = data.client(0).train_all();
        let (initial_loss, _) = model.evaluate(&x, &y).unwrap();
        let (final_loss, _) = m.evaluate(&x, &y).unwrap();
        assert!(final_loss < initial_loss, "{final_loss} !< {initial_loss}");
        assert_eq!(
            out.samples_processed,
            40 * 10.min(data.client(0).train_len()) as u64
        );
    }

    #[test]
    fn delta_is_local_minus_global() {
        let (data, model) = tiny();
        let global = model.snapshot();
        let mut m = model.clone();
        let out = train_local(&mut m, 1, data.client(1), &LocalTrainConfig::default(), 2).unwrap();
        for ((w, g), d) in out.weights.iter().zip(&global).zip(&out.delta) {
            let recon = g.add(d).unwrap();
            for (a, b) in recon.data().iter().zip(w.data()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn prox_keeps_weights_closer_to_global() {
        let (data, model) = tiny();
        let mut plain = model.clone();
        let mut proxed = model.clone();
        let base = LocalTrainConfig {
            local_steps: 30,
            lr: 0.1,
            ..Default::default()
        };
        let prox_cfg = LocalTrainConfig {
            prox_mu: Some(1.0),
            ..base
        };
        let o1 = train_local(&mut plain, 0, data.client(0), &base, 3).unwrap();
        let o2 = train_local(&mut proxed, 0, data.client(0), &prox_cfg, 3).unwrap();
        let drift = |delta: &[Tensor]| delta.iter().map(|t| t.norm()).sum::<f32>();
        assert!(drift(&o2.delta) < drift(&o1.delta));
    }

    #[test]
    fn prox_keeps_the_configured_momentum() {
        let (data, model) = tiny();
        let train = |momentum: f32| {
            let cfg = LocalTrainConfig {
                prox_mu: Some(0.1),
                momentum,
                ..Default::default()
            };
            train_local(&mut model.clone(), 0, data.client(0), &cfg, 3).unwrap()
        };
        assert_ne!(train(0.9).weights, train(0.0).weights);
    }

    /// One task per client, all on entry 0 of a one-model table, seeded
    /// like a round would seed them.
    fn tasks_for(clients: impl IntoIterator<Item = usize>, round_seed: u64) -> Vec<TrainTask> {
        clients
            .into_iter()
            .map(|client| TrainTask {
                client,
                model: 0,
                seed: client_seed(round_seed, client),
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial() {
        let (data, model) = tiny();
        let cfg = LocalTrainConfig::default();
        let threads = crate::exec::client_threads();
        let models = [model.clone()];
        let par =
            train_tasks(&tasks_for(0..3, 77), &models, data.clients(), &cfg, threads).unwrap();
        for (i, outcome) in par.iter().enumerate() {
            let mut m = model.clone();
            let serial = train_local(&mut m, i, data.client(i), &cfg, client_seed(77, i)).unwrap();
            assert_eq!(outcome.client, serial.client);
            assert!((outcome.avg_loss - serial.avg_loss).abs() < 1e-6);
            for (a, b) in outcome.weights.iter().zip(&serial.weights) {
                assert_eq!(a, b);
            }
        }
    }

    /// The engine's core determinism invariant: outcomes are
    /// byte-identical and in task order at every thread budget,
    /// including the `FT_CLIENT_THREADS` default. Tasks are
    /// deliberately in descending client order so a completion-order
    /// bug cannot hide behind sorted input.
    #[test]
    fn outcomes_are_identical_and_ordered_across_thread_counts() {
        let (data, model) = tiny();
        let cfg = LocalTrainConfig {
            local_steps: 6,
            ..Default::default()
        };
        let models = [model];
        let tasks = tasks_for((0..4).rev(), 123);
        let reference = train_tasks(&tasks, &models, data.clients(), &cfg, 1).unwrap();
        assert_eq!(
            reference.iter().map(|o| o.client).collect::<Vec<_>>(),
            vec![3, 2, 1, 0],
            "outcome order must be task order"
        );
        for threads in [2usize, 4, 8, crate::exec::client_threads()] {
            let par = train_tasks(&tasks, &models, data.clients(), &cfg, threads).unwrap();
            assert_eq!(par.len(), reference.len());
            for (a, b) in par.iter().zip(&reference) {
                assert_eq!(a.client, b.client, "threads {threads}");
                assert_eq!(a.weights, b.weights, "threads {threads}");
                assert_eq!(a.delta, b.delta, "threads {threads}");
                assert!((a.avg_loss - b.avg_loss).abs() == 0.0, "threads {threads}");
                assert!((a.avg_acc - b.avg_acc).abs() == 0.0, "threads {threads}");
                assert_eq!(a.samples_processed, b.samples_processed);
            }
        }
    }

    #[test]
    fn parallel_rejects_unknown_client() {
        let (data, model) = tiny();
        let err = train_tasks(
            &tasks_for([99], 0),
            &[model],
            data.clients(),
            &LocalTrainConfig::default(),
            2,
        );
        assert!(matches!(err, Err(SimError::NoSuchClient { index: 99, .. })));
    }
}
