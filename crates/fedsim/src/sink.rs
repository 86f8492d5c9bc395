//! Streaming aggregation: fold client updates as they land.
//!
//! The pre-streaming aggregation API materialized every participant's
//! full weight set before merging (`&[(Vec<Tensor>, u64)]` slices), so
//! peak memory grew with the cohort. This module replaces that with a
//! *fold*: the coordinator drives an [`UpdateSink`] through
//! `begin_round → absorb × k → finish`, handing each update over as
//! soon as its `EndTrainingRound` lands on the exec engine and
//! dropping it immediately after. Peak memory is O(clients in flight
//! — bounded by [`crate::coordinator::RoundOptions::max_in_flight`]),
//! not O(cohort).
//!
//! # Determinism
//!
//! A streaming sample-weighted mean needs its normalization constants
//! *before* the first absorb — that is what [`RoundManifest`] carries.
//! The coordinator can build it ahead of training because every
//! delivered task's sample count is a pure function of configuration
//! and shard size (`local_steps × min(batch_size, train_len)`), and
//! the delivered set itself is decided by the virtual-clock message
//! timeline, which needs no weights. Updates are then absorbed in
//! **task order** (never arrival order), so the floating-point op
//! sequence of the fold is byte-identical to the retired batch
//! aggregation — at any thread count, any `max_in_flight`, and any
//! within-tick delivery permutation.
//!
//! # Worked example
//!
//! ```
//! use ft_fedsim::sink::{ClientUpdate, FedAvgSink, RoundManifest, TaskSpec, UpdateSink};
//! use ft_tensor::Tensor;
//!
//! // Two delivered tasks this round: client 4 trained on 10 samples,
//! // client 7 on 30. The manifest is known before any update arrives.
//! let manifest = RoundManifest {
//!     round: 0,
//!     tasks: &[
//!         TaskSpec { task: 0, client: 4, samples: 10 },
//!         TaskSpec { task: 1, client: 7, samples: 30 },
//!     ],
//! };
//!
//! let mut sink = FedAvgSink::single();
//! sink.begin_round(&manifest).unwrap();
//! for (spec, value) in manifest.tasks.iter().zip([1.0f32, 3.0]) {
//!     sink.absorb(ClientUpdate {
//!         task: spec.task,
//!         client: spec.client,
//!         samples: spec.samples,
//!         weights: vec![Tensor::from_vec(vec![value], &[1]).unwrap()],
//!         delta: Vec::new(),
//!     })
//!     .unwrap(); // the update is folded and dropped here
//! }
//! sink.finish().unwrap();
//!
//! // Sample-weighted mean: (1·10 + 3·30) / 40 = 2.5.
//! let avg = sink.take_average().unwrap();
//! assert_eq!(avg[0].data(), &[2.5]);
//! ```
//!
//! # Robust aggregation
//!
//! Byzantine-tolerant sinks compose behind the same [`UpdateSink`]
//! trait, selected via [`RobustAggregation`] / [`RobustSink`]:
//!
//! * [`NormClipSink`] — **streaming**, O(1) extra memory: each
//!   update's pseudo-gradient is L2-clipped to a threshold before
//!   delegating to an inner sink, bounding any one client's pull on
//!   the aggregate.
//! * [`TrimmedMeanSink`] / [`CoordinateMedianSink`] — **buffering**:
//!   order statistics need every update at once, so these retain the
//!   round's full cohort and give up the streaming path's O(in-flight)
//!   memory bound — peak memory is O(cohort), the price of trimming.
//!
//! The buffering sinks keep the determinism contract anyway: updates
//! arrive in task order (the coordinator guarantees it), the one
//! selection kernel both share orders a coordinate's values by
//! `total_cmp` with the buffer position as tie-break, and the surviving
//! values fold in task order — so the result is bit-identical under any
//! completion-order permutation, any `max_in_flight`, and any thread
//! count (the kernel fans 64-coordinate tiles out over the shared
//! pool), and both sinks checkpoint/restore mid-fold. Non-finite
//! uploads sort to the ends and are the first to be trimmed.

use serde::{Deserialize, Serialize, Value};

use ft_tensor::Tensor;

use crate::{Result, SimError};

/// One delivered task in a round's manifest: which task index, which
/// client, and how many samples its update is weighted by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Index into the round's task list.
    pub task: usize,
    /// The client that trained.
    pub client: usize,
    /// Samples the client processed (the FedAvg weight numerator).
    pub samples: u64,
}

/// The set of updates a sink will receive this round, in absorb order
/// (ascending task index). Built by the coordinator from the message
/// timeline *before* any update is folded, so sinks can precompute
/// their normalization constants.
#[derive(Debug, Clone, Copy)]
pub struct RoundManifest<'a> {
    /// The round being aggregated.
    pub round: u32,
    /// Delivered tasks in ascending task order.
    pub tasks: &'a [TaskSpec],
}

/// One client's update, handed to [`UpdateSink::absorb`] and dropped
/// by the caller immediately after — sinks must fold, not retain.
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// Index into the round's task list.
    pub task: usize,
    /// The client that trained.
    pub client: usize,
    /// Samples processed (matches the manifest's [`TaskSpec::samples`]).
    pub samples: u64,
    /// The client's final local weights, tensor per tensor.
    pub weights: Vec<Tensor>,
    /// The pseudo-gradient `w_local − w_global` (empty when the
    /// algorithm does not track deltas).
    pub delta: Vec<Tensor>,
}

/// A streaming aggregation fold.
///
/// The coordinator drives one sink per round:
/// `begin_round(manifest)`, then one `absorb` per delivered task in
/// ascending task order, then `finish`. The sink owns whatever
/// accumulator its algorithm needs (a weighted mean, a scatter table,
/// …); after `finish` the algorithm extracts the aggregate through the
/// sink's own accessors. See the [module docs](self) for a worked
/// example and the determinism argument.
pub trait UpdateSink {
    /// Announces the round's delivered-task manifest. Called exactly
    /// once per round, before the first [`UpdateSink::absorb`].
    ///
    /// # Errors
    ///
    /// Implementations reject manifests they cannot aggregate (e.g. a
    /// task outside their grouping table).
    fn begin_round(&mut self, manifest: &RoundManifest<'_>) -> Result<()>;

    /// Folds one update into the running accumulator. Called once per
    /// manifest entry, in manifest order; the update is dropped by the
    /// caller when this returns.
    ///
    /// # Errors
    ///
    /// Implementations reject out-of-order or unexpected updates
    /// ([`SimError::Protocol`]) and shape mismatches.
    fn absorb(&mut self, update: ClientUpdate) -> Result<()>;

    /// Closes the round after the last absorb.
    ///
    /// # Errors
    ///
    /// Implementations fail when absorbs are missing
    /// ([`SimError::Protocol`]).
    fn finish(&mut self) -> Result<()>;
}

/// How a [`FedAvgSink`] maps task indices to aggregation groups.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Grouping {
    /// Every task folds into one group (single global model).
    Single,
    /// `group_of[task]` names each task's group (multi-model suites:
    /// FedTrans's model assignment, SplitMix's bases).
    ByTask(Vec<usize>),
}

/// The streaming sample-weighted mean: the [`UpdateSink`] form of
/// FedAvg, with optional per-group mean-delta tracking.
///
/// Supports multiple aggregation *groups* (one per model in a
/// FedTrans suite, one per SplitMix base): each update folds into the
/// group its task is assigned to. Per group it reproduces the retired
/// batch `fedavg` exactly — zero-initialized accumulator, one
/// `axpy(samples_i / total, w_i)` per update in task order — so the
/// result is bit-identical to materializing the slice first.
///
/// A group's average is `None` when it received no updates or its
/// delivered sample total is zero, matching the retired
/// `fedavg(&[]) == None` contract. Mean deltas are tracked
/// independently of sample counts (an update with zero samples still
/// contributes to its group's mean delta), preserving the activeness
/// semantics of the pre-streaming FedTrans runtime.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FedAvgSink {
    grouping: Grouping,
    groups: usize,
    track_deltas: bool,
    /// Round state below; reset by `begin_round`.
    expected: Vec<TaskSpec>,
    absorbed: usize,
    round: u32,
    finished: bool,
    totals: Vec<u64>,
    counts: Vec<u64>,
    acc: Vec<Option<Vec<Tensor>>>,
    mean_delta: Vec<Option<Vec<Tensor>>>,
}

impl FedAvgSink {
    /// A sink folding every task into one group (single global model).
    pub fn single() -> Self {
        FedAvgSink {
            grouping: Grouping::Single,
            groups: 1,
            track_deltas: false,
            expected: Vec::new(),
            absorbed: 0,
            round: 0,
            finished: false,
            totals: vec![0],
            counts: vec![0],
            acc: vec![None],
            mean_delta: vec![None],
        }
    }

    /// A sink with `groups` aggregation groups where task `i` folds
    /// into `group_of[i]`. `group_of` covers the round's full task
    /// list; undelivered tasks simply never absorb.
    pub fn grouped(groups: usize, group_of: Vec<usize>) -> Self {
        FedAvgSink {
            grouping: Grouping::ByTask(group_of),
            groups: groups.max(1),
            track_deltas: false,
            expected: Vec::new(),
            absorbed: 0,
            round: 0,
            finished: false,
            totals: Vec::new(),
            counts: Vec::new(),
            acc: Vec::new(),
            mean_delta: Vec::new(),
        }
    }

    /// Also maintain each group's mean delta (`Σ delta_i / count`),
    /// the pseudo-gradient FedTrans's cell-activeness tracker consumes.
    #[must_use]
    pub fn with_delta_tracking(mut self) -> Self {
        self.track_deltas = true;
        self
    }

    fn group(&self, task: usize) -> Result<usize> {
        match &self.grouping {
            Grouping::Single => Ok(0),
            Grouping::ByTask(map) => map.get(task).copied().ok_or_else(|| {
                SimError::protocol(format!(
                    "task {task} outside the sink's grouping table of {}",
                    map.len()
                ))
            }),
        }
    }

    /// The per-group sample-weighted averages, consuming the round's
    /// accumulator. `None` per group without (weighted) updates.
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`] — extracting a
    /// half-folded mean is always a bug.
    pub fn take_averages(&mut self) -> Vec<Option<Vec<Tensor>>> {
        assert!(
            self.finished,
            "take_averages before finish(): the fold is incomplete"
        );
        std::mem::take(&mut self.acc)
    }

    /// The per-group mean deltas (zero-tracking sinks return `None`s),
    /// consuming the round's accumulator.
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`].
    pub fn take_mean_deltas(&mut self) -> Vec<Option<Vec<Tensor>>> {
        assert!(
            self.finished,
            "take_mean_deltas before finish(): the fold is incomplete"
        );
        std::mem::take(&mut self.mean_delta)
    }

    /// Single-group convenience: the sample-weighted average, if any.
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`].
    pub fn take_average(&mut self) -> Option<Vec<Tensor>> {
        self.take_averages().into_iter().next().flatten()
    }

    /// Per-group delivered-update counts (set by `begin_round`).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Serializes the mid-round fold state — accumulators, cursor, and
    /// manifest — so a kill mid-stream can resume absorbing at the
    /// exact update it stopped before, bit-identically.
    pub fn checkpoint_value(&self) -> Value {
        serde_json::json!({
            "sink": "fedavg",
            "state": self,
        })
    }

    /// Restores state captured by [`FedAvgSink::checkpoint_value`].
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on a malformed or foreign checkpoint.
    pub fn restore_value(&mut self, state: &Value) -> Result<()> {
        let kind: String = crate::driver::field(state, "sink")?;
        if kind != "fedavg" {
            return Err(SimError::snapshot(format!(
                "sink checkpoint is for `{kind}`, expected `fedavg`"
            )));
        }
        *self = crate::driver::field(state, "state")?;
        Ok(())
    }
}

impl UpdateSink for FedAvgSink {
    fn begin_round(&mut self, manifest: &RoundManifest<'_>) -> Result<()> {
        self.round = manifest.round;
        self.finished = false;
        self.absorbed = 0;
        self.expected = manifest.tasks.to_vec();
        self.totals = vec![0; self.groups];
        self.counts = vec![0; self.groups];
        self.acc = (0..self.groups).map(|_| None).collect();
        self.mean_delta = (0..self.groups).map(|_| None).collect();
        // The manifest is what lets a *streaming* fold be bit-identical
        // to the batch path: per-group normalizers exist before the
        // first update arrives.
        for spec in manifest.tasks {
            let g = self.group(spec.task)?;
            self.totals[g] += spec.samples;
            self.counts[g] += 1;
        }
        Ok(())
    }

    fn absorb(&mut self, update: ClientUpdate) -> Result<()> {
        let expected = self.expected.get(self.absorbed).copied().ok_or_else(|| {
            SimError::protocol(format!(
                "absorb of task {} after the manifest's {} tasks were all folded",
                update.task,
                self.expected.len()
            ))
        })?;
        if update.task != expected.task || update.samples != expected.samples {
            return Err(SimError::protocol(format!(
                "absorb out of manifest order: got task {} ({} samples), expected task {} ({} \
                 samples)",
                update.task, update.samples, expected.task, expected.samples
            )));
        }
        self.absorbed += 1;
        let g = self.group(update.task)?;
        if self.totals[g] > 0 {
            let w = update.samples as f32 / self.totals[g] as f32;
            let acc = self.acc[g].get_or_insert_with(|| {
                update
                    .weights
                    .iter()
                    .map(|t| Tensor::zeros(t.shape().dims()))
                    .collect()
            });
            if acc.len() != update.weights.len() {
                return Err(SimError::protocol(format!(
                    "update for task {} has {} weight tensors, group accumulator has {}",
                    update.task,
                    update.weights.len(),
                    acc.len()
                )));
            }
            for (a, t) in acc.iter_mut().zip(&update.weights) {
                a.axpy(w, t).map_err(ft_model::ModelError::from)?;
            }
        }
        if self.track_deltas && self.counts[g] > 0 && !update.delta.is_empty() {
            let inv = 1.0 / self.counts[g] as f32;
            let mean = self.mean_delta[g].get_or_insert_with(|| {
                update
                    .delta
                    .iter()
                    .map(|t| Tensor::zeros(t.shape().dims()))
                    .collect()
            });
            for (m, d) in mean.iter_mut().zip(&update.delta) {
                m.axpy(inv, d).map_err(ft_model::ModelError::from)?;
            }
        }
        // `update` drops here: nothing per-client is retained.
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        if self.absorbed != self.expected.len() {
            return Err(SimError::protocol(format!(
                "finish after {} of {} manifest tasks were absorbed",
                self.absorbed,
                self.expected.len()
            )));
        }
        self.finished = true;
        Ok(())
    }
}

/// Which aggregation rule a round's [`RobustSink`] applies. The
/// default is plain FedAvg — scenarios without a robust block keep
/// their exact numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum RobustAggregation {
    /// The plain sample-weighted mean ([`FedAvgSink`]).
    #[default]
    FedAvg,
    /// L2-clip each update's pseudo-gradient to `tau` before the
    /// weighted mean ([`NormClipSink`], streaming).
    NormClip {
        /// The L2 norm threshold.
        tau: f64,
    },
    /// Coordinate-wise trimmed weighted mean ([`TrimmedMeanSink`],
    /// buffering).
    TrimmedMean {
        /// Fraction trimmed from *each* end, in `[0, 0.5)`.
        trim: f64,
    },
    /// Coordinate-wise median ([`CoordinateMedianSink`], buffering).
    CoordinateMedian,
}

impl RobustAggregation {
    /// Whether this is anything other than plain FedAvg.
    pub fn is_robust(&self) -> bool {
        !matches!(self, RobustAggregation::FedAvg)
    }

    /// Validates the rule's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        match *self {
            RobustAggregation::FedAvg | RobustAggregation::CoordinateMedian => Ok(()),
            RobustAggregation::NormClip { tau } => {
                if !tau.is_finite() || tau <= 0.0 {
                    return Err(format!("norm-clip tau must be finite and > 0, got {tau}"));
                }
                Ok(())
            }
            RobustAggregation::TrimmedMean { trim } => {
                if !trim.is_finite() || !(0.0..0.5).contains(&trim) {
                    return Err(format!("trim fraction must be in [0, 0.5), got {trim}"));
                }
                Ok(())
            }
        }
    }
}

/// A streaming norm-clipping wrapper: L2-clips each update's
/// pseudo-gradient to `tau`, then hands it to the inner sink. Extra
/// memory is O(1) — nothing is buffered — so the streaming path's
/// O(in-flight) round memory bound survives the defense.
///
/// The clip factor is computed from an f64 sum of squares in fixed
/// tensor/element order, and each update is clipped independently, so
/// the fold downstream stays bit-identical under any completion-order
/// permutation.
#[derive(Debug, Clone)]
pub struct NormClipSink<S = FedAvgSink> {
    tau: f64,
    inner: S,
}

impl<S: UpdateSink> NormClipSink<S> {
    /// Wraps `inner`, clipping every update's delta to L2 norm `tau`.
    pub fn new(tau: f64, inner: S) -> Self {
        NormClipSink { tau, inner }
    }

    /// The wrapped sink.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn clip(&self, update: &mut ClientUpdate) -> Result<()> {
        let view: &[Tensor] = if update.delta.is_empty() {
            &update.weights
        } else {
            &update.delta
        };
        let mut sq = 0.0f64;
        for t in view {
            for &v in t.data() {
                sq += f64::from(v) * f64::from(v);
            }
        }
        let norm = sq.sqrt();
        // ≤ tau (or NaN — nothing sane to scale by): pass through.
        if norm.partial_cmp(&self.tau) != Some(std::cmp::Ordering::Greater) {
            return Ok(());
        }
        let c = (self.tau / norm) as f32;
        if update.delta.is_empty() {
            for w in update.weights.iter_mut() {
                w.scale_mut(c);
            }
        } else {
            // w' = g + c·δ = w + (c−1)·δ keeps the views consistent.
            for (w, d) in update.weights.iter_mut().zip(update.delta.iter_mut()) {
                w.axpy(c - 1.0, d).map_err(ft_model::ModelError::from)?;
                d.scale_mut(c);
            }
        }
        Ok(())
    }
}

impl NormClipSink<FedAvgSink> {
    /// A norm-clipping wrapper over a single-group [`FedAvgSink`].
    pub fn fedavg(tau: f64) -> Self {
        NormClipSink::new(tau, FedAvgSink::single())
    }

    /// The clipped sample-weighted average, after `finish`.
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`].
    pub fn take_average(&mut self) -> Option<Vec<Tensor>> {
        self.inner.take_average()
    }

    /// Serializes the mid-round fold state (see
    /// [`FedAvgSink::checkpoint_value`]; the wrapper itself holds no
    /// round state beyond its threshold).
    pub fn checkpoint_value(&self) -> Value {
        serde_json::json!({
            "sink": "norm_clip",
            "tau": self.tau,
            "inner": self.inner.checkpoint_value(),
        })
    }

    /// Restores state captured by [`NormClipSink::checkpoint_value`].
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on a malformed or foreign checkpoint.
    pub fn restore_value(&mut self, state: &Value) -> Result<()> {
        let kind: String = crate::driver::field(state, "sink")?;
        if kind != "norm_clip" {
            return Err(SimError::snapshot(format!(
                "sink checkpoint is for `{kind}`, expected `norm_clip`"
            )));
        }
        self.tau = crate::driver::field(state, "tau")?;
        let inner = state
            .get("inner")
            .ok_or_else(|| SimError::snapshot("norm_clip checkpoint missing inner sink"))?;
        self.inner.restore_value(inner)
    }
}

impl<S: UpdateSink> UpdateSink for NormClipSink<S> {
    fn begin_round(&mut self, manifest: &RoundManifest<'_>) -> Result<()> {
        self.inner.begin_round(manifest)
    }

    fn absorb(&mut self, mut update: ClientUpdate) -> Result<()> {
        self.clip(&mut update)?;
        self.inner.absorb(update)
    }

    fn finish(&mut self) -> Result<()> {
        self.inner.finish()
    }
}

/// One buffered update of a buffering robust sink (deltas are not
/// retained — robust aggregation operates on the uploaded weights).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BufferedUpdate {
    samples: u64,
    weights: Vec<Tensor>,
}

/// Shared round bookkeeping of the buffering sinks: manifest-order
/// enforcement identical to [`FedAvgSink`]'s, plus the O(cohort)
/// buffer itself.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct BufferedRound {
    expected: Vec<TaskSpec>,
    absorbed: usize,
    round: u32,
    finished: bool,
    buffer: Vec<BufferedUpdate>,
}

impl BufferedRound {
    fn begin(&mut self, manifest: &RoundManifest<'_>) {
        self.round = manifest.round;
        self.finished = false;
        self.absorbed = 0;
        self.expected = manifest.tasks.to_vec();
        self.buffer = Vec::with_capacity(manifest.tasks.len());
    }

    fn absorb(&mut self, update: ClientUpdate) -> Result<()> {
        let expected = self.expected.get(self.absorbed).copied().ok_or_else(|| {
            SimError::protocol(format!(
                "absorb of task {} after the manifest's {} tasks were all folded",
                update.task,
                self.expected.len()
            ))
        })?;
        if update.task != expected.task || update.samples != expected.samples {
            return Err(SimError::protocol(format!(
                "absorb out of manifest order: got task {} ({} samples), expected task {} ({} \
                 samples)",
                update.task, update.samples, expected.task, expected.samples
            )));
        }
        if let Some(first) = self.buffer.first() {
            if let Some(why) = layout_mismatch(&first.weights, &update.weights) {
                return Err(SimError::protocol(format!(
                    "update for task {} {why}",
                    update.task
                )));
            }
        }
        self.absorbed += 1;
        self.buffer.push(BufferedUpdate {
            samples: update.samples,
            weights: update.weights,
        });
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        if self.absorbed != self.expected.len() {
            return Err(SimError::protocol(format!(
                "finish after {} of {} manifest tasks were absorbed",
                self.absorbed,
                self.expected.len()
            )));
        }
        self.finished = true;
        Ok(())
    }
}

/// How `got` departs from the tensor layout of the round's first
/// update (`None` when it matches): the per-coordinate reducers index
/// every buffered update by the first one's lengths.
fn layout_mismatch(first: &[Tensor], got: &[Tensor]) -> Option<String> {
    if first.len() != got.len() {
        return Some(format!(
            "has {} weight tensors, the round's first had {}",
            got.len(),
            first.len()
        ));
    }
    first.iter().zip(got).enumerate().find_map(|(ti, (f, g))| {
        (f.data().len() != g.data().len()).then(|| {
            format!(
                "has {} values in weight tensor {ti}, the round's first had {}",
                g.data().len(),
                f.data().len()
            )
        })
    })
}

/// Coordinates per tile of [`order_statistics`]: 64 rows of a
/// 200-client cohort are 51 KB of `f32`, L2-resident on every host
/// the pool runs on, while each update is still read in 256-byte runs.
const TILE_COORDS: usize = 64;

/// What [`order_statistics`] makes of a coordinate's survivors.
#[derive(Clone, Copy)]
enum Survivors {
    /// Sample-weighted mean, folded in task order.
    WeightedMean,
    /// The central value, or the midpoint of the two central values.
    Midpoint,
}

/// `v`'s rank under `f32::total_cmp` as an unsigned integer: negatives
/// have all bits flipped, everything else only the sign bit, so `-NaN <
/// -Inf < … < -0.0 < +0.0 < … < +Inf < +NaN` compares as plain `u32`s.
fn total_order_key(v: f32) -> u32 {
    let bits = v.to_bits();
    bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000)
}

/// The shared kernel of the buffering sinks: per coordinate, drops the
/// `g` smallest and `g` largest of the cohort's values and reduces the
/// `k − 2g ≥ 1` survivors as `rule` says.
///
/// Values order by `total_cmp` with the buffer position — task order —
/// as tie-break; packing `(total_order_key << 32) | position` into a
/// `u64` (a buffered cohort is memory-bound far below 2^32 updates)
/// makes that one strict total order, so two
/// `select_nth_unstable` partitions (O(k), no sort) cut out exactly
/// the survivor set a full sort would. The weighted mean then folds
/// the survivors in task order, never sorted order, so which partition
/// the selection happened to produce is unobservable.
///
/// Work is tiled: [`TILE_COORDS`] coordinates at a time are gathered
/// from every update (one sequential read of each update's slice) into
/// a contiguous `[coordinate][client]` tile, and the tiles fan out over
/// the shared pool. Each output coordinate is written once from its own
/// tile, so the result is independent of the thread count; scratch is
/// `TILE_COORDS × k × 4 B` for the tile plus `17 B × k` of keys, trim
/// marks and survivor positions per worker.
fn order_statistics(buffer: &[BufferedUpdate], g: usize, rule: Survivors) -> Result<Vec<Tensor>> {
    let k = buffer.len();
    let first = &buffer[0].weights;
    // Absorb rejects ragged updates already; a restored checkpoint has
    // not been through absorb.
    for (p, update) in buffer.iter().enumerate().skip(1) {
        if let Some(why) = layout_mismatch(first, &update.weights) {
            return Err(SimError::protocol(format!("buffered update {p} {why}")));
        }
    }
    let samples: Vec<u64> = buffer.iter().map(|u| u.samples).collect();
    let tiles: Vec<(usize, usize)> = first
        .iter()
        .enumerate()
        .flat_map(|(ti, t)| {
            (0..t.data().len())
                .step_by(TILE_COORDS)
                .map(move |start| (ti, start))
        })
        .collect();
    let reduce_tile = |tile_index: usize| -> Vec<f32> {
        let (ti, start) = tiles[tile_index];
        let len = TILE_COORDS.min(first[ti].data().len() - start);
        let mut tile = ft_tensor::scratch::ScratchVec::take(len * k);
        for (p, update) in buffer.iter().enumerate() {
            let src = &update.weights[ti].data()[start..start + len];
            for (row, &v) in tile.chunks_exact_mut(k).zip(src) {
                row[p] = v;
            }
        }
        let mut keys = vec![0u64; k];
        let mut trimmed = vec![false; k];
        let mut kept = vec![0usize; k];
        let position = |key: u64| key as u32 as usize;
        tile.chunks_exact(k)
            .map(|row| {
                for (p, (key, &v)) in keys.iter_mut().zip(row).enumerate() {
                    *key = (u64::from(total_order_key(v)) << 32) | p as u64;
                }
                if g > 0 {
                    keys.select_nth_unstable(g);
                    keys[g..].select_nth_unstable(k - 2 * g);
                }
                match rule {
                    Survivors::WeightedMean => {
                        trimmed.fill(false);
                        for &key in keys[..g].iter().chain(&keys[k - g..]) {
                            trimmed[position(key)] = true;
                        }
                        // Branch-free compaction: which clients survive is
                        // close to a coin flip per position.
                        let mut n = 0;
                        for (p, &cut) in trimmed.iter().enumerate() {
                            kept[n] = p;
                            n += usize::from(!cut);
                        }
                        let kept = &kept[..n];
                        let total: u64 = kept.iter().map(|&p| samples[p]).sum();
                        let mut acc = 0.0f32;
                        if total > 0 {
                            for &p in kept {
                                acc += (samples[p] as f32 / total as f32) * row[p];
                            }
                        } else {
                            let inv = 1.0 / kept.len() as f32;
                            for &p in kept {
                                acc += inv * row[p];
                            }
                        }
                        acc
                    }
                    Survivors::Midpoint => {
                        let (a, b) = (keys[g], keys[k - g - 1]);
                        if a == b {
                            row[position(a)]
                        } else {
                            (row[position(a.min(b))] + row[position(a.max(b))]) * 0.5
                        }
                    }
                }
            })
            .collect()
    };
    let reduced =
        crate::exec::par_map_indexed(tiles.len(), ft_tensor::pool::max_parallelism(), reduce_tile);
    let mut out: Vec<Tensor> = first
        .iter()
        .map(|t| Tensor::zeros(t.shape().dims()))
        .collect();
    for (&(ti, start), values) in tiles.iter().zip(&reduced) {
        out[ti].data_mut()[start..start + values.len()].copy_from_slice(values);
    }
    Ok(out)
}

/// The coordinate-wise trimmed weighted mean: a **buffering** robust
/// sink. Per coordinate, the `⌊trim·k⌋` smallest and largest values
/// are dropped and the survivors average with their FedAvg sample
/// weights (renormalized over the survivors; unweighted when the
/// surviving sample total is zero), folding in task order.
///
/// With `trim = 0` the round is replayed through a fresh
/// [`FedAvgSink`] — the result is *bit-identical* to no defense at
/// all, which the property tests pin.
///
/// Memory: O(cohort) — every update is retained until `finish` (order
/// statistics cannot stream), unlike [`FedAvgSink`]'s O(in-flight).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrimmedMeanSink {
    trim: f64,
    state: BufferedRound,
    result: Option<Vec<Tensor>>,
}

impl TrimmedMeanSink {
    /// A sink trimming `trim` of the cohort from each end per
    /// coordinate (`trim ∈ [0, 0.5)`; the trim count is clamped so at
    /// least one value always survives).
    pub fn new(trim: f64) -> Self {
        TrimmedMeanSink {
            trim,
            state: BufferedRound::default(),
            result: None,
        }
    }

    /// The trimmed mean, consuming the round's result. `None` for an
    /// empty round (or, with `trim = 0`, a zero-weight round — the
    /// FedAvg replay contract).
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`].
    pub fn take_average(&mut self) -> Option<Vec<Tensor>> {
        assert!(
            self.state.finished,
            "take_average before finish(): the fold is incomplete"
        );
        std::mem::take(&mut self.result)
    }

    /// Serializes the mid-round fold state (manifest, cursor, and the
    /// full buffer) so a kill mid-stream resumes bit-identically.
    pub fn checkpoint_value(&self) -> Value {
        serde_json::json!({
            "sink": "trimmed_mean",
            "trim": self.trim,
            "state": self.state,
        })
    }

    /// Restores state captured by [`TrimmedMeanSink::checkpoint_value`].
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on a malformed or foreign checkpoint.
    pub fn restore_value(&mut self, state: &Value) -> Result<()> {
        let kind: String = crate::driver::field(state, "sink")?;
        if kind != "trimmed_mean" {
            return Err(SimError::snapshot(format!(
                "sink checkpoint is for `{kind}`, expected `trimmed_mean`"
            )));
        }
        self.trim = crate::driver::field(state, "trim")?;
        self.state = crate::driver::field(state, "state")?;
        self.result = None;
        Ok(())
    }
}

impl UpdateSink for TrimmedMeanSink {
    fn begin_round(&mut self, manifest: &RoundManifest<'_>) -> Result<()> {
        self.state.begin(manifest);
        self.result = None;
        Ok(())
    }

    fn absorb(&mut self, update: ClientUpdate) -> Result<()> {
        self.state.absorb(update)
    }

    fn finish(&mut self) -> Result<()> {
        self.state.finish()?;
        let k = self.state.buffer.len();
        if k == 0 {
            self.result = None;
            return Ok(());
        }
        let g = ((self.trim * k as f64).floor() as usize).min((k - 1) / 2);
        if g == 0 {
            // Nothing to trim: replay the buffered round through a
            // fresh FedAvgSink, reproducing the undefended fold's exact
            // floating-point op sequence (0 ULP).
            let mut fedavg = FedAvgSink::single();
            fedavg.begin_round(&RoundManifest {
                round: self.state.round,
                tasks: &self.state.expected,
            })?;
            for (spec, buffered) in self.state.expected.iter().zip(&self.state.buffer) {
                fedavg.absorb(ClientUpdate {
                    task: spec.task,
                    client: spec.client,
                    samples: buffered.samples,
                    weights: buffered.weights.clone(),
                    delta: Vec::new(),
                })?;
            }
            fedavg.finish()?;
            self.result = fedavg.take_average();
            return Ok(());
        }
        self.result = Some(order_statistics(
            &self.state.buffer,
            g,
            Survivors::WeightedMean,
        )?);
        Ok(())
    }
}

/// The coordinate-wise median: a **buffering** robust sink. Per
/// coordinate, the median of the cohort's values (midpoint average of
/// the two central values for even cohorts); sample counts are
/// ignored, the classic unweighted rule.
///
/// Memory: O(cohort), like [`TrimmedMeanSink`] and unlike the
/// streaming [`FedAvgSink`] / [`NormClipSink`].
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct CoordinateMedianSink {
    state: BufferedRound,
    result: Option<Vec<Tensor>>,
}

impl CoordinateMedianSink {
    /// A fresh median sink.
    pub fn new() -> Self {
        CoordinateMedianSink::default()
    }

    /// The coordinate-wise median, consuming the round's result.
    /// `None` for an empty round.
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`].
    pub fn take_average(&mut self) -> Option<Vec<Tensor>> {
        assert!(
            self.state.finished,
            "take_average before finish(): the fold is incomplete"
        );
        std::mem::take(&mut self.result)
    }

    /// Serializes the mid-round fold state (manifest, cursor, and the
    /// full buffer) so a kill mid-stream resumes bit-identically.
    pub fn checkpoint_value(&self) -> Value {
        serde_json::json!({
            "sink": "coordinate_median",
            "state": self.state,
        })
    }

    /// Restores state captured by
    /// [`CoordinateMedianSink::checkpoint_value`].
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on a malformed or foreign checkpoint.
    pub fn restore_value(&mut self, state: &Value) -> Result<()> {
        let kind: String = crate::driver::field(state, "sink")?;
        if kind != "coordinate_median" {
            return Err(SimError::snapshot(format!(
                "sink checkpoint is for `{kind}`, expected `coordinate_median`"
            )));
        }
        self.state = crate::driver::field(state, "state")?;
        self.result = None;
        Ok(())
    }
}

impl UpdateSink for CoordinateMedianSink {
    fn begin_round(&mut self, manifest: &RoundManifest<'_>) -> Result<()> {
        self.state.begin(manifest);
        self.result = None;
        Ok(())
    }

    fn absorb(&mut self, update: ClientUpdate) -> Result<()> {
        self.state.absorb(update)
    }

    fn finish(&mut self) -> Result<()> {
        self.state.finish()?;
        let k = self.state.buffer.len();
        if k == 0 {
            self.result = None;
            return Ok(());
        }
        // The median is the trim that leaves one survivor (odd cohorts)
        // or two (even cohorts).
        self.result = Some(order_statistics(
            &self.state.buffer,
            (k - 1) / 2,
            Survivors::Midpoint,
        )?);
        Ok(())
    }
}

/// The round sink a [`RobustAggregation`] rule selects, behind one
/// enum so runners can swap defenses without changing their round
/// loop.
#[derive(Debug, Clone)]
pub enum RobustSink {
    /// No defense: the plain weighted mean.
    FedAvg(FedAvgSink),
    /// Streaming norm clipping over the weighted mean.
    NormClip(NormClipSink<FedAvgSink>),
    /// Buffering coordinate-wise trimmed mean.
    TrimmedMean(TrimmedMeanSink),
    /// Buffering coordinate-wise median.
    CoordinateMedian(CoordinateMedianSink),
}

impl RobustSink {
    /// Builds the sink `spec` selects (single aggregation group).
    pub fn new(spec: RobustAggregation) -> Self {
        match spec {
            RobustAggregation::FedAvg => RobustSink::FedAvg(FedAvgSink::single()),
            RobustAggregation::NormClip { tau } => RobustSink::NormClip(NormClipSink::fedavg(tau)),
            RobustAggregation::TrimmedMean { trim } => {
                RobustSink::TrimmedMean(TrimmedMeanSink::new(trim))
            }
            RobustAggregation::CoordinateMedian => {
                RobustSink::CoordinateMedian(CoordinateMedianSink::new())
            }
        }
    }

    /// The round's aggregate, consuming it. `None` for an empty (or
    /// zero-weight, where applicable) round.
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`].
    pub fn take_average(&mut self) -> Option<Vec<Tensor>> {
        match self {
            RobustSink::FedAvg(s) => s.take_average(),
            RobustSink::NormClip(s) => s.take_average(),
            RobustSink::TrimmedMean(s) => s.take_average(),
            RobustSink::CoordinateMedian(s) => s.take_average(),
        }
    }
}

impl UpdateSink for RobustSink {
    fn begin_round(&mut self, manifest: &RoundManifest<'_>) -> Result<()> {
        match self {
            RobustSink::FedAvg(s) => s.begin_round(manifest),
            RobustSink::NormClip(s) => s.begin_round(manifest),
            RobustSink::TrimmedMean(s) => s.begin_round(manifest),
            RobustSink::CoordinateMedian(s) => s.begin_round(manifest),
        }
    }

    fn absorb(&mut self, update: ClientUpdate) -> Result<()> {
        match self {
            RobustSink::FedAvg(s) => s.absorb(update),
            RobustSink::NormClip(s) => s.absorb(update),
            RobustSink::TrimmedMean(s) => s.absorb(update),
            RobustSink::CoordinateMedian(s) => s.absorb(update),
        }
    }

    fn finish(&mut self) -> Result<()> {
        match self {
            RobustSink::FedAvg(s) => s.finish(),
            RobustSink::NormClip(s) => s.finish(),
            RobustSink::TrimmedMean(s) => s.finish(),
            RobustSink::CoordinateMedian(s) => s.finish(),
        }
    }
}

/// A sink that drops every update: for protocol-only rounds where no
/// algorithm state changes (e.g. coordinator tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardSink;

impl UpdateSink for DiscardSink {
    fn begin_round(&mut self, _manifest: &RoundManifest<'_>) -> Result<()> {
        Ok(())
    }

    fn absorb(&mut self, _update: ClientUpdate) -> Result<()> {
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

/// An int8-quantized tensor: per-tensor scale, symmetric around zero.
///
/// The optional compressed update form: `value ≈ scale × q` with
/// `q ∈ [−127, 127]` and `scale = max|value| / 127`. Dequantization is
/// *exact* (one f32 multiply per element), so accumulation after
/// dequantizing stays in f32 with the usual op order; only the
/// quantization rounding itself is lossy — which is why the round
/// engine keeps it off the digest path unless a scenario opts in via
/// [`crate::coordinator::RoundOptions::quantize_updates`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    /// Per-tensor dequantization scale.
    pub scale: f32,
    /// Quantized values, row-major.
    pub values: Vec<i8>,
    /// Original tensor dimensions.
    pub dims: Vec<usize>,
}

impl QuantizedTensor {
    /// Quantizes a tensor to int8 with a symmetric per-tensor scale.
    pub fn quantize(t: &Tensor) -> QuantizedTensor {
        let max_abs = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
        let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        let values = t
            .data()
            .iter()
            .map(|&v| (v * inv).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantizedTensor {
            scale,
            values,
            dims: t.shape().dims().to_vec(),
        }
    }

    /// Exact dequantization: one f32 multiply per element, through the
    /// SIMD-dispatched [`ft_tensor::fused::dequant_scale`] kernel into
    /// a scratch-pooled buffer.
    ///
    /// # Panics
    ///
    /// Panics if the stored dims do not match the value count (only
    /// possible through manual construction).
    pub fn dequantize(&self) -> Tensor {
        let mut data = ft_tensor::scratch::take(self.values.len());
        ft_tensor::fused::dequant_scale(&mut data, &self.values, self.scale);
        Tensor::from_vec(data, &self.dims).expect("dims stored at quantization time")
    }

    /// Folds this quantized update straight into a running aggregate:
    /// `acc[i] += alpha · (values[i] · scale)`, via the fused
    /// [`ft_tensor::fused::dequant_axpy`] kernel — no intermediate f32
    /// tensor is materialized. Bit-identical to
    /// [`QuantizedTensor::dequantize`] followed by `acc.axpy(alpha, _)`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when `acc`'s shape differs from the
    /// quantized tensor's stored dims.
    pub fn axpy_into(&self, alpha: f32, acc: &mut Tensor) -> Result<()> {
        if acc.shape().dims() != self.dims.as_slice() {
            return Err(SimError::protocol(format!(
                "quantized axpy shape mismatch: accumulator {:?} vs update {:?}",
                acc.shape().dims(),
                self.dims
            )));
        }
        ft_tensor::fused::dequant_axpy(acc.data_mut(), alpha, &self.values, self.scale);
        Ok(())
    }

    /// Wire size of this tensor in bytes (values + scale).
    pub fn wire_bytes(&self) -> usize {
        self.values.len() + std::mem::size_of::<f32>()
    }
}

/// Lossy int8 round trip over a tensor list, in place: what an update
/// looks like after crossing a quantized uplink. Dequantization writes
/// straight back into each tensor's existing buffer through the
/// SIMD-dispatched kernel — no reallocation, no intermediate copy.
pub fn quantize_roundtrip(tensors: &mut [Tensor]) {
    for t in tensors.iter_mut() {
        let q = QuantizedTensor::quantize(t);
        ft_tensor::fused::dequant_scale(t.data_mut(), &q.values, q.scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(vals: &[f32]) -> Tensor {
        Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap()
    }

    fn update(task: usize, samples: u64, weights: &[f32]) -> ClientUpdate {
        ClientUpdate {
            task,
            client: task,
            samples,
            weights: vec![tensor(weights)],
            delta: Vec::new(),
        }
    }

    fn manifest(specs: &[TaskSpec]) -> RoundManifest<'_> {
        RoundManifest {
            round: 0,
            tasks: specs,
        }
    }

    /// The retired `ModelAggregator::fedavg` contract, now on the sink:
    /// weights by sample count, (1·10 + 3·30) / 40 = 2.5.
    #[test]
    fn fedavg_sink_weights_by_samples() {
        let specs = [
            TaskSpec {
                task: 0,
                client: 0,
                samples: 10,
            },
            TaskSpec {
                task: 1,
                client: 1,
                samples: 30,
            },
        ];
        let mut sink = FedAvgSink::single();
        sink.begin_round(&manifest(&specs)).unwrap();
        sink.absorb(update(0, 10, &[1.0])).unwrap();
        sink.absorb(update(1, 30, &[3.0])).unwrap();
        sink.finish().unwrap();
        let avg = sink.take_average().unwrap();
        assert_eq!(avg[0].data(), &[2.5]);
    }

    #[test]
    fn empty_round_aggregates_to_none() {
        let mut sink = FedAvgSink::single();
        sink.begin_round(&manifest(&[])).unwrap();
        sink.finish().unwrap();
        assert!(sink.take_average().is_none());
    }

    #[test]
    fn zero_sample_total_aggregates_to_none() {
        let specs = [TaskSpec {
            task: 0,
            client: 0,
            samples: 0,
        }];
        let mut sink = FedAvgSink::single();
        sink.begin_round(&manifest(&specs)).unwrap();
        sink.absorb(update(0, 0, &[5.0])).unwrap();
        sink.finish().unwrap();
        assert!(
            sink.take_average().is_none(),
            "a zero-weight round must not divide by zero"
        );
    }

    #[test]
    fn grouped_sink_folds_each_group_independently() {
        // Tasks 0,2 → group 0; task 1 → group 1; group 2 gets nothing.
        let specs = [
            TaskSpec {
                task: 0,
                client: 0,
                samples: 10,
            },
            TaskSpec {
                task: 1,
                client: 1,
                samples: 20,
            },
            TaskSpec {
                task: 2,
                client: 2,
                samples: 30,
            },
        ];
        let mut sink = FedAvgSink::grouped(3, vec![0, 1, 0]);
        sink.begin_round(&manifest(&specs)).unwrap();
        sink.absorb(update(0, 10, &[4.0])).unwrap();
        sink.absorb(update(1, 20, &[7.0])).unwrap();
        sink.absorb(update(2, 30, &[8.0])).unwrap();
        sink.finish().unwrap();
        let avgs = sink.take_averages();
        // Group 0: (4·10 + 8·30) / 40 = 7.0; group 1: 7.0; group 2: none.
        assert_eq!(avgs[0].as_ref().unwrap()[0].data(), &[7.0]);
        assert_eq!(avgs[1].as_ref().unwrap()[0].data(), &[7.0]);
        assert!(avgs[2].is_none());
    }

    #[test]
    fn delta_tracking_averages_uniformly() {
        let specs = [
            TaskSpec {
                task: 0,
                client: 0,
                samples: 0,
            },
            TaskSpec {
                task: 1,
                client: 1,
                samples: 0,
            },
        ];
        let mut sink = FedAvgSink::single().with_delta_tracking();
        sink.begin_round(&manifest(&specs)).unwrap();
        for (task, d) in [(0usize, 2.0f32), (1, 4.0)] {
            sink.absorb(ClientUpdate {
                task,
                client: task,
                samples: 0,
                weights: vec![tensor(&[1.0])],
                delta: vec![tensor(&[d])],
            })
            .unwrap();
        }
        sink.finish().unwrap();
        // Deltas average by count even when the sample total is zero —
        // activeness tracking is independent of FedAvg weighting.
        let deltas = sink.take_mean_deltas();
        assert_eq!(deltas[0].as_ref().unwrap()[0].data(), &[3.0]);
    }

    #[test]
    fn out_of_order_absorb_is_rejected() {
        let specs = [
            TaskSpec {
                task: 0,
                client: 0,
                samples: 10,
            },
            TaskSpec {
                task: 1,
                client: 1,
                samples: 10,
            },
        ];
        let mut sink = FedAvgSink::single();
        sink.begin_round(&manifest(&specs)).unwrap();
        let err = sink.absorb(update(1, 10, &[1.0]));
        assert!(err.is_err(), "arrival order must not drive the fold");
    }

    #[test]
    fn finish_requires_all_absorbs() {
        let specs = [TaskSpec {
            task: 0,
            client: 0,
            samples: 10,
        }];
        let mut sink = FedAvgSink::single();
        sink.begin_round(&manifest(&specs)).unwrap();
        assert!(sink.finish().is_err());
    }

    #[test]
    fn mid_fold_checkpoint_resumes_bit_identically() {
        let specs: Vec<TaskSpec> = (0..4)
            .map(|i| TaskSpec {
                task: i,
                client: i,
                samples: 10 * (i as u64 + 1),
            })
            .collect();
        let weights = [[1.0f32], [2.0], [3.0], [4.0]];

        let mut full = FedAvgSink::single();
        full.begin_round(&manifest(&specs)).unwrap();
        for (i, w) in weights.iter().enumerate() {
            full.absorb(update(i, specs[i].samples, w)).unwrap();
        }
        full.finish().unwrap();

        // Kill after two absorbs, serialize, restore, resume.
        let mut half = FedAvgSink::single();
        half.begin_round(&manifest(&specs)).unwrap();
        for (i, w) in weights.iter().take(2).enumerate() {
            half.absorb(update(i, specs[i].samples, w)).unwrap();
        }
        let json = serde_json::to_string(&half.checkpoint_value()).unwrap();
        drop(half);
        let mut resumed = FedAvgSink::single();
        resumed
            .restore_value(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        for (i, w) in weights.iter().enumerate().skip(2) {
            resumed.absorb(update(i, specs[i].samples, w)).unwrap();
        }
        resumed.finish().unwrap();

        assert_eq!(
            full.take_average().unwrap(),
            resumed.take_average().unwrap(),
            "a resumed mid-round fold must be bit-identical"
        );
    }

    #[test]
    fn foreign_sink_checkpoint_is_rejected() {
        let mut sink = FedAvgSink::single();
        let bogus = serde_json::parse_value(r#"{"sink":"scatter","state":{}}"#).unwrap();
        assert!(sink.restore_value(&bogus).is_err());
    }

    #[test]
    fn quantization_round_trips_within_scale() {
        let t = tensor(&[0.5, -1.0, 0.25, 0.0]);
        let q = QuantizedTensor::quantize(&t);
        assert_eq!(q.wire_bytes(), 4 + 4);
        let back = q.dequantize();
        let scale = 1.0 / 127.0;
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= scale / 2.0 + f32::EPSILON, "{a} vs {b}");
        }
        // ±max round-trips exactly: q = ±127, scale × 127 = max.
        assert_eq!(back.data()[1], -1.0);
    }

    #[test]
    fn quantizing_zeros_is_exact() {
        let t = tensor(&[0.0, 0.0]);
        let q = QuantizedTensor::quantize(&t);
        assert_eq!(q.scale, 0.0);
        assert_eq!(q.dequantize().data(), t.data());
    }

    #[test]
    fn in_place_roundtrip_matches_quantize_then_dequantize() {
        // The fused in-place path must be bit-identical to the old
        // materialize-a-new-tensor form, including a SIMD-width tail.
        let vals: Vec<f32> = (0..37)
            .map(|i| ((i * 7) % 23) as f32 * 0.37 - 4.0)
            .collect();
        let mut tensors = vec![tensor(&vals)];
        let expect = QuantizedTensor::quantize(&tensors[0]).dequantize();
        quantize_roundtrip(&mut tensors);
        assert_eq!(tensors[0].data(), expect.data());
    }

    #[test]
    fn quantized_axpy_into_matches_dequantize_then_axpy() {
        let vals: Vec<f32> = (0..301)
            .map(|i| ((i * 13) % 41) as f32 * 0.21 - 4.2)
            .collect();
        let q = QuantizedTensor::quantize(&tensor(&vals));
        let acc0: Vec<f32> = (0..301).map(|i| (i as f32 * 0.11).sin()).collect();
        let alpha = 0.375f32;

        let mut reference = tensor(&acc0);
        reference.axpy(alpha, &q.dequantize()).unwrap();
        let mut fused = tensor(&acc0);
        q.axpy_into(alpha, &mut fused).unwrap();
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            bits(&reference),
            bits(&fused),
            "fused dequant-accumulate must be 0 ULP from dequantize-then-axpy"
        );
    }

    #[test]
    fn quantized_axpy_into_rejects_shape_mismatch() {
        let q = QuantizedTensor::quantize(&tensor(&[1.0, 2.0]));
        let mut acc = tensor(&[0.0, 0.0, 0.0]);
        assert!(q.axpy_into(1.0, &mut acc).is_err());
    }

    fn specs(samples: &[u64]) -> Vec<TaskSpec> {
        samples
            .iter()
            .enumerate()
            .map(|(i, &s)| TaskSpec {
                task: i,
                client: i,
                samples: s,
            })
            .collect()
    }

    #[test]
    fn norm_clip_shrinks_oversized_deltas_only() {
        let specs = specs(&[10, 10]);
        let mut sink = NormClipSink::fedavg(5.0);
        sink.begin_round(&manifest(&specs)).unwrap();
        // ‖(3,4)‖ = 5 ≤ τ: untouched. ‖(6,8)‖ = 10 > τ: halved.
        sink.absorb(ClientUpdate {
            task: 0,
            client: 0,
            samples: 10,
            weights: vec![tensor(&[10.0, 10.0])],
            delta: vec![tensor(&[3.0, 4.0])],
        })
        .unwrap();
        sink.absorb(ClientUpdate {
            task: 1,
            client: 1,
            samples: 10,
            weights: vec![tensor(&[10.0, 10.0])],
            delta: vec![tensor(&[6.0, 8.0])],
        })
        .unwrap();
        sink.finish().unwrap();
        // Client 1's weights become g + 0.5·δ = (4,2) + (3,4) = (7,6);
        // client 0 stays (10,10). Average: (8.5, 8.0).
        let avg = sink.take_average().unwrap();
        assert_eq!(avg[0].data(), &[8.5, 8.0]);
    }

    #[test]
    fn norm_clip_without_deltas_scales_weights() {
        let specs = specs(&[10]);
        let mut sink = NormClipSink::fedavg(5.0);
        sink.begin_round(&manifest(&specs)).unwrap();
        sink.absorb(update(0, 10, &[6.0, 8.0])).unwrap();
        sink.finish().unwrap();
        let avg = sink.take_average().unwrap();
        assert_eq!(avg[0].data(), &[3.0, 4.0]);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes_per_coordinate() {
        let specs = specs(&[10, 10, 10, 10, 10]);
        let mut sink = TrimmedMeanSink::new(0.2);
        sink.begin_round(&manifest(&specs)).unwrap();
        // Coordinate 0 is poisoned on task 4, coordinate 1 on task 0.
        let rows = [
            [1.0f32, 100.0],
            [2.0, 2.0],
            [3.0, 3.0],
            [4.0, 4.0],
            [-50.0, 5.0],
        ];
        for (i, w) in rows.iter().enumerate() {
            sink.absorb(update(i, 10, w)).unwrap();
        }
        sink.finish().unwrap();
        // g = ⌊0.2·5⌋ = 1: survivors per coordinate are {1,2,3} and
        // {3,4,5}, equal weights → means 2.0 / 4.0. The poisoned
        // values never touch the fold.
        let avg = sink.take_average().unwrap();
        assert_eq!(avg[0].data(), &[2.0, 4.0]);
    }

    #[test]
    fn trimmed_mean_survivors_keep_their_sample_weights() {
        let specs = specs(&[10, 30, 10]);
        let mut sink = TrimmedMeanSink::new(1.0 / 3.0);
        sink.begin_round(&manifest(&specs)).unwrap();
        sink.absorb(update(0, 10, &[-100.0])).unwrap();
        sink.absorb(update(1, 30, &[1.0])).unwrap();
        sink.absorb(update(2, 10, &[3.0])).unwrap();
        sink.finish().unwrap();
        // g = 1 trims −100 and 3; the lone survivor keeps its value.
        let avg = sink.take_average().unwrap();
        assert_eq!(avg[0].data(), &[1.0]);
    }

    #[test]
    fn trim_zero_is_bitwise_fedavg() {
        let samples = [13u64, 7, 29, 1];
        let rows = [[0.1f32, -0.7], [3.3, 2.2], [-1.25, 0.875], [9.0, -4.5]];
        let specs = specs(&samples);

        let mut reference = FedAvgSink::single();
        reference.begin_round(&manifest(&specs)).unwrap();
        let mut trimmed = TrimmedMeanSink::new(0.0);
        trimmed.begin_round(&manifest(&specs)).unwrap();
        for (i, w) in rows.iter().enumerate() {
            reference.absorb(update(i, samples[i], w)).unwrap();
            trimmed.absorb(update(i, samples[i], w)).unwrap();
        }
        reference.finish().unwrap();
        trimmed.finish().unwrap();

        let a = reference.take_average().unwrap();
        let b = trimmed.take_average().unwrap();
        let bits = |ts: &[Tensor]| -> Vec<u32> {
            ts.iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "trim = 0 must replay FedAvg exactly");
    }

    #[test]
    fn coordinate_median_is_robust_to_a_minority() {
        let specs = specs(&[1, 1, 1]);
        let mut sink = CoordinateMedianSink::new();
        sink.begin_round(&manifest(&specs)).unwrap();
        sink.absorb(update(0, 1, &[1.0, -99.0])).unwrap();
        sink.absorb(update(1, 1, &[2.0, 5.0])).unwrap();
        sink.absorb(update(2, 1, &[77.0, 6.0])).unwrap();
        sink.finish().unwrap();
        let avg = sink.take_average().unwrap();
        assert_eq!(avg[0].data(), &[2.0, 5.0]);
    }

    #[test]
    fn even_cohort_median_is_the_midpoint() {
        let specs = specs(&[1, 1, 1, 1]);
        let mut sink = CoordinateMedianSink::new();
        sink.begin_round(&manifest(&specs)).unwrap();
        for (i, w) in [[1.0f32], [2.0], [10.0], [100.0]].iter().enumerate() {
            sink.absorb(update(i, 1, w)).unwrap();
        }
        sink.finish().unwrap();
        let avg = sink.take_average().unwrap();
        assert_eq!(avg[0].data(), &[6.0]);
    }

    #[test]
    fn buffering_sinks_handle_the_empty_round() {
        let mut trimmed = TrimmedMeanSink::new(0.3);
        trimmed.begin_round(&manifest(&[])).unwrap();
        trimmed.finish().unwrap();
        assert!(trimmed.take_average().is_none());

        let mut median = CoordinateMedianSink::new();
        median.begin_round(&manifest(&[])).unwrap();
        median.finish().unwrap();
        assert!(median.take_average().is_none());
    }

    #[test]
    fn buffering_sinks_reject_out_of_manifest_order() {
        let specs = specs(&[10, 10]);
        let mut trimmed = TrimmedMeanSink::new(0.3);
        trimmed.begin_round(&manifest(&specs)).unwrap();
        assert!(trimmed.absorb(update(1, 10, &[1.0])).is_err());
        let mut median = CoordinateMedianSink::new();
        median.begin_round(&manifest(&specs)).unwrap();
        median.absorb(update(0, 10, &[1.0])).unwrap();
        assert!(median.finish().is_err(), "finish before all absorbs");
    }

    #[test]
    fn buffering_sinks_reject_ragged_updates_without_buffering_them() {
        let specs = specs(&[10, 10, 10]);
        for spec in [
            RobustAggregation::TrimmedMean { trim: 0.4 },
            RobustAggregation::CoordinateMedian,
        ] {
            // Right tensor count, one tensor too short / too long.
            for ragged in [&[9.0f32][..], &[9.0, 9.0, 9.0]] {
                let mut sink = RobustSink::new(spec);
                sink.begin_round(&manifest(&specs)).unwrap();
                sink.absorb(update(0, 10, &[1.0, 2.0])).unwrap();
                let err = sink.absorb(update(1, 10, ragged)).unwrap_err();
                assert!(matches!(err, SimError::Protocol { .. }), "{err}");
                let expected = format!(
                    "update for task 1 has {} values in weight tensor 0, the round's first had 2",
                    ragged.len()
                );
                assert!(err.to_string().contains(&expected), "{err}");
                let state = match &sink {
                    RobustSink::TrimmedMean(s) => &s.state,
                    RobustSink::CoordinateMedian(s) => &s.state,
                    _ => unreachable!("only buffering rules are swept"),
                };
                assert_eq!((state.absorbed, state.buffer.len()), (1, 1), "{spec:?}");
                // The rejected upload cost the round nothing.
                sink.absorb(update(1, 10, &[3.0, 4.0])).unwrap();
                sink.absorb(update(2, 10, &[5.0, 6.0])).unwrap();
                sink.finish().unwrap();
                assert_eq!(sink.take_average().unwrap()[0].data(), &[3.0, 4.0]);
            }
        }
    }

    #[test]
    fn a_ragged_restored_buffer_fails_finish_instead_of_panicking() {
        let specs = specs(&[10, 10, 10]);
        let mut sink = TrimmedMeanSink::new(0.4);
        sink.begin_round(&manifest(&specs)).unwrap();
        for task in 0..3 {
            sink.absorb(update(task, 10, &[1.0, 2.0])).unwrap();
        }
        // What a hand-edited checkpoint can hold and absorb never lets in.
        sink.state.buffer[2].weights = vec![tensor(&[1.0])];
        let err = sink.finish().unwrap_err();
        assert!(
            err.to_string()
                .contains("buffered update 2 has 1 values in weight tensor 0"),
            "{err}"
        );
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let specials = [
            -f32::NAN,
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0,
            -f32::MIN_POSITIVE,
            -1e-45, // negative subnormal
            -0.0,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        for a in specials {
            for b in specials {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn trimmed_mean_mid_fold_checkpoint_resumes_bit_identically() {
        let samples = [10u64, 20, 30, 40];
        let rows = [[1.5f32], [-2.25], [3.125], [40.0]];
        let specs = specs(&samples);

        let mut full = TrimmedMeanSink::new(0.25);
        full.begin_round(&manifest(&specs)).unwrap();
        for (i, w) in rows.iter().enumerate() {
            full.absorb(update(i, samples[i], w)).unwrap();
        }
        full.finish().unwrap();

        let mut half = TrimmedMeanSink::new(0.25);
        half.begin_round(&manifest(&specs)).unwrap();
        for (i, w) in rows.iter().take(2).enumerate() {
            half.absorb(update(i, samples[i], w)).unwrap();
        }
        let json = serde_json::to_string(&half.checkpoint_value()).unwrap();
        drop(half);
        let mut resumed = TrimmedMeanSink::new(0.0);
        resumed
            .restore_value(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        for (i, w) in rows.iter().enumerate().skip(2) {
            resumed.absorb(update(i, samples[i], w)).unwrap();
        }
        resumed.finish().unwrap();

        assert_eq!(
            full.take_average().unwrap(),
            resumed.take_average().unwrap(),
            "a resumed mid-round trimmed fold must be bit-identical"
        );
    }

    #[test]
    fn median_mid_fold_checkpoint_resumes_bit_identically() {
        let samples = [1u64, 1, 1];
        let rows = [[4.0f32], [-1.0], [2.5]];
        let specs = specs(&samples);

        let mut full = CoordinateMedianSink::new();
        full.begin_round(&manifest(&specs)).unwrap();
        for (i, w) in rows.iter().enumerate() {
            full.absorb(update(i, 1, w)).unwrap();
        }
        full.finish().unwrap();

        let mut half = CoordinateMedianSink::new();
        half.begin_round(&manifest(&specs)).unwrap();
        half.absorb(update(0, 1, &rows[0])).unwrap();
        let json = serde_json::to_string(&half.checkpoint_value()).unwrap();
        let mut resumed = CoordinateMedianSink::new();
        resumed
            .restore_value(&serde_json::parse_value(&json).unwrap())
            .unwrap();
        for (i, w) in rows.iter().enumerate().skip(1) {
            resumed.absorb(update(i, 1, w)).unwrap();
        }
        resumed.finish().unwrap();

        assert_eq!(
            full.take_average().unwrap(),
            resumed.take_average().unwrap()
        );
    }

    #[test]
    fn robust_sink_checkpoints_reject_foreign_kinds() {
        let envelope = serde_json::parse_value(r#"{"sink":"fedavg","state":{}}"#).unwrap();
        assert!(TrimmedMeanSink::new(0.1).restore_value(&envelope).is_err());
        assert!(CoordinateMedianSink::new()
            .restore_value(&envelope)
            .is_err());
        assert!(NormClipSink::fedavg(1.0).restore_value(&envelope).is_err());
    }

    #[test]
    fn robust_sink_dispatches_per_spec() {
        let specs = specs(&[1, 1, 1]);
        let rows = [[1.0f32], [2.0], [300.0]];
        let mut results = Vec::new();
        for spec in [
            RobustAggregation::FedAvg,
            RobustAggregation::TrimmedMean { trim: 1.0 / 3.0 },
            RobustAggregation::CoordinateMedian,
        ] {
            let mut sink = RobustSink::new(spec);
            sink.begin_round(&manifest(&specs)).unwrap();
            for (i, w) in rows.iter().enumerate() {
                sink.absorb(update(i, 1, w)).unwrap();
            }
            sink.finish().unwrap();
            results.push(sink.take_average().unwrap()[0].data()[0]);
        }
        assert_eq!(results, vec![101.0, 2.0, 2.0]);
    }

    #[test]
    fn robust_aggregation_validates_parameters() {
        assert!(RobustAggregation::FedAvg.validate().is_ok());
        assert!(RobustAggregation::NormClip { tau: 1.0 }.validate().is_ok());
        assert!(RobustAggregation::NormClip { tau: 0.0 }.validate().is_err());
        assert!(RobustAggregation::NormClip { tau: f64::NAN }
            .validate()
            .is_err());
        assert!(RobustAggregation::TrimmedMean { trim: 0.49 }
            .validate()
            .is_ok());
        assert!(RobustAggregation::TrimmedMean { trim: 0.5 }
            .validate()
            .is_err());
        assert!(RobustAggregation::TrimmedMean { trim: -0.1 }
            .validate()
            .is_err());
    }
}
