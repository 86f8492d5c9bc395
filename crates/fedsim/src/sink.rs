//! Streaming aggregation: fold client updates as they land.
//!
//! The pre-streaming aggregation API materialized every participant's
//! full weight set before merging (`&[(Vec<Tensor>, u64)]` slices), so
//! peak memory grew with the cohort. This module replaces that with a
//! *fold*: the coordinator drives an [`UpdateSink`] through
//! `begin_round → absorb × k → finish`, handing each update over as
//! soon as its `EndTrainingRound` lands on the exec engine and
//! dropping it immediately after. Peak memory is O(clients in flight
//! — at most twice the fold's lane count), not O(cohort).
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
//! aggregation — at any thread count, any in-flight window, and any
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
//! # One core, four rules
//!
//! Every weighted-mean-family fold is the one [`Aggregator`]
//! ([`FedAvgSink`] and [`RobustSink`] are aliases of it); what differs
//! between them is a field, the [`RobustAggregation`] rule:
//!
//! * `FedAvg` / `NormClip` — **streaming**, O(1) extra memory: each
//!   update (for `NormClip`, after its pseudo-gradient is L2-clipped to
//!   `tau`) is folded into its group's running mean and dropped.
//! * `TrimmedMean` / `CoordinateMedian` — **buffering**: order
//!   statistics need every update at once, so these retain the round's
//!   full cohort and give up the streaming path's O(in-flight) memory
//!   bound — peak memory is O(cohort), the price of trimming.
//!
//! The manifest-order protocol (next task, its client, its sample
//! count, completeness at `finish`, no `take_*` before `finish`) is the
//! [`Cursor`], written once and shared with the baselines' scatter
//! sink. The buffering rules keep the determinism contract anyway: the
//! one kernel both share ([`ft_tensor::order_stats`]) orders a
//! coordinate's values by `total_cmp` with the buffer position as
//! tie-break, finds the two cut points by a bitwise rank search over 32
//! coordinates at a time, and folds the surviving values in task order
//! — so the result is bit-identical under any completion-order
//! permutation, any in-flight window, and any thread count (32-coordinate
//! tiles fan out over the shared pool). All four rules checkpoint and
//! restore mid-fold through one envelope, and a restore re-derives the
//! buffered sample counts and group normalizers from the manifest it
//! carries.
//!
//! # Non-finite uploads
//!
//! A streaming rule **rejects** an update holding a NaN or ±Inf in its
//! `weights` (or in its `delta`, when the sink reads it): the task is
//! consumed, nothing is folded, [`Aggregator::rejected_updates`] counts
//! it, and `finish` rescales the affected group's mean over the updates
//! that were kept. Finite updates take no new arithmetic. The buffering
//! rules keep non-finite values as ordinary points of `total_cmp`'s
//! order: they sort to the ends and are the first to be trimmed.

use serde::{Deserialize, Serialize, Value};

use ft_tensor::order_stats::{self, Survivors};
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
///
/// `Send` is a supertrait because the streaming executor
/// ([`crate::exec::try_stream_map`]) calls `absorb` from whichever
/// worker lane completes the next update in task order — one call at a
/// time, but not always from the same thread.
pub trait UpdateSink: Send {
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

/// The manifest-order protocol every sink enforces, written once: which
/// update may be absorbed next, whether the round is complete, and
/// whether its aggregate may be taken.
///
/// A sink calls [`Cursor::admit`] (a pure check) at the top of
/// `absorb`, runs whatever checks of its own can still refuse the
/// update, and only then [`Cursor::advance`]s — so a refused update
/// leaves the round exactly where it was.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Cursor {
    expected: Vec<TaskSpec>,
    absorbed: usize,
    round: u32,
    finished: bool,
}

impl Cursor {
    /// Opens a round over `manifest`, discarding the previous one.
    pub fn begin(&mut self, manifest: &RoundManifest<'_>) {
        *self = Cursor {
            expected: manifest.tasks.to_vec(),
            absorbed: 0,
            round: manifest.round,
            finished: false,
        };
    }

    /// Checks that `update` is the manifest's next entry — same task,
    /// client and sample count — without consuming it.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for an update past the manifest's end
    /// (which includes any update after `finish`), out of order,
    /// duplicated, or from a client or with a sample count the manifest
    /// did not announce.
    pub fn admit(&self, update: &ClientUpdate) -> Result<()> {
        let round = self.round;
        let Some(next) = self.expected.get(self.absorbed) else {
            return Err(SimError::protocol(format!(
                "round {round}: absorb of task {} after the manifest's {} tasks were all folded",
                update.task,
                self.expected.len()
            )));
        };
        let got = (update.task, update.client, update.samples);
        if got != (next.task, next.client, next.samples) {
            return Err(SimError::protocol(format!(
                "round {round}: absorb out of manifest order: got task {} (client {}, {} \
                 samples), expected task {} (client {}, {} samples)",
                got.0, got.1, got.2, next.task, next.client, next.samples
            )));
        }
        Ok(())
    }

    /// Consumes the manifest entry [`Cursor::admit`] just checked.
    pub fn advance(&mut self) {
        self.absorbed += 1;
    }

    /// Closes the round.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when absorbs are missing or the round was
    /// already closed.
    pub fn finish(&mut self) -> Result<()> {
        if self.finished || self.absorbed != self.expected.len() {
            return Err(SimError::protocol(format!(
                "round {}: finish after {} of {} manifest tasks were absorbed (already finished: {})",
                self.round,
                self.absorbed,
                self.expected.len(),
                self.finished
            )));
        }
        self.finished = true;
        Ok(())
    }

    /// The gate in front of every `take_*` accessor.
    ///
    /// # Panics
    ///
    /// Panics before [`Cursor::finish`] — extracting a half-folded
    /// aggregate is always a bug.
    pub fn assert_finished(&self, what: &str) {
        assert!(
            self.finished,
            "{what} before finish(): the fold is incomplete"
        );
    }
}

/// Errors unless `got` has `reference`'s tensor count and dims;
/// `what` and `index` name the offender in the message.
fn check_layout(reference: &[Tensor], got: &[Tensor], what: &str, index: usize) -> Result<()> {
    if reference.len() != got.len() {
        return Err(SimError::protocol(format!(
            "{what} {index} has {} tensors, expected {}",
            got.len(),
            reference.len()
        )));
    }
    for (ti, (r, g)) in reference.iter().zip(got).enumerate() {
        if r.shape().dims() != g.shape().dims() {
            return Err(SimError::protocol(format!(
                "{what} {index} has dims {:?} in tensor {ti}, expected {:?}",
                g.shape().dims(),
                r.shape().dims()
            )));
        }
    }
    Ok(())
}

/// Whether every value is finite: the scan behind the streaming sinks'
/// reject-and-count policy. Branch-free per element so it vectorizes.
pub fn all_finite(tensors: &[Tensor]) -> bool {
    const EXPONENT: u32 = 0x7f80_0000;
    tensors.iter().all(|t| {
        let bad = |v: &f32| v.to_bits() & EXPONENT == EXPONENT;
        !t.data().iter().fold(false, |any, v| any | bad(v))
    })
}

/// The mean fold, shared by the streaming absorb and the untrimmed
/// buffered round: `acc += scale · tensors`, with `acc` zero-initialized
/// to the first update's layout.
fn fold_mean(acc: &mut Option<Vec<Tensor>>, scale: f32, tensors: &[Tensor]) -> Result<()> {
    let acc = acc.get_or_insert_with(|| {
        tensors
            .iter()
            .map(|t| Tensor::zeros(t.shape().dims()))
            .collect()
    });
    for (a, t) in acc.iter_mut().zip(tensors) {
        a.axpy(scale, t).map_err(ft_model::ModelError::from)?;
    }
    Ok(())
}

/// L2-clips `update`'s pseudo-gradient (its weights, when it carries no
/// delta) to `tau`. The factor comes from an f64 sum of squares in
/// fixed tensor/element order and each update is clipped on its own, so
/// the fold downstream stays completion-order invariant.
fn clip(tau: f64, update: &mut ClientUpdate) -> Result<()> {
    let view = if update.delta.is_empty() {
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
    if norm <= tau {
        return Ok(());
    }
    let c = (tau / norm) as f32;
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

/// Renormalizes a group's mean over the updates that were kept:
/// `mean *= whole / kept`, or no mean at all when nothing was kept.
fn rescale(mean: &mut Option<Vec<Tensor>>, whole: u64, kept: u64) {
    if kept == 0 {
        *mean = None;
    }
    for t in mean.iter_mut().flatten() {
        t.scale_mut(whole as f32 / kept as f32);
    }
}

/// How an [`Aggregator`] maps task indices to aggregation groups.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Grouping {
    /// Every task folds into one group (single global model).
    Single,
    /// `group_of[task]` names each task's group (multi-model suites:
    /// FedTrans's model assignment, SplitMix's bases).
    ByTask(Vec<usize>),
}

/// Which aggregation rule an [`Aggregator`] applies. The default is
/// plain FedAvg — scenarios without a robust block keep their exact
/// numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum RobustAggregation {
    /// The plain sample-weighted mean (streaming).
    #[default]
    FedAvg,
    /// L2-clip each update's pseudo-gradient to `tau` before the
    /// weighted mean (streaming): bounds any one client's pull.
    NormClip {
        /// The L2 norm threshold.
        tau: f64,
    },
    /// Coordinate-wise trimmed weighted mean (buffering): the
    /// `⌊trim·k⌋` smallest and largest values per coordinate are
    /// dropped (clamped so one always survives) and the survivors
    /// average with their sample weights, renormalized, in task order.
    /// With nothing to trim the round is the plain FedAvg fold.
    TrimmedMean {
        /// Fraction trimmed from *each* end, in `[0, 0.5)`.
        trim: f64,
    },
    /// Coordinate-wise median (buffering, unweighted): the midpoint of
    /// the two central values for even cohorts.
    CoordinateMedian,
}

impl RobustAggregation {
    /// Whether this is anything other than plain FedAvg.
    pub fn is_robust(&self) -> bool {
        !matches!(self, RobustAggregation::FedAvg)
    }

    /// Whether the rule retains the round's cohort until `finish`.
    fn buffers(&self) -> bool {
        matches!(
            self,
            RobustAggregation::TrimmedMean { .. } | RobustAggregation::CoordinateMedian
        )
    }

    /// The rule's name in a sink checkpoint envelope.
    fn kind(&self) -> &'static str {
        match self {
            RobustAggregation::FedAvg => "fedavg",
            RobustAggregation::NormClip { .. } => "norm_clip",
            RobustAggregation::TrimmedMean { .. } => "trimmed_mean",
            RobustAggregation::CoordinateMedian => "coordinate_median",
        }
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

/// One buffered update of a buffering rule (deltas are not retained —
/// robust aggregation operates on the uploaded weights).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BufferedUpdate {
    samples: u64,
    weights: Vec<Tensor>,
}

/// One aggregation group's round state: the manifest's normalizers
/// (`total` samples over `count` updates), the running means, and what
/// the non-finite policy turned away.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Group {
    total: u64,
    count: u64,
    acc: Option<Vec<Tensor>>,
    mean_delta: Option<Vec<Tensor>>,
    rejected_samples: u64,
    rejected_count: u64,
}

/// The aggregation core: the [`UpdateSink`] behind FedAvg, the grouped
/// multi-model folds and the robust rules.
///
/// What used to be separate sink types are fields here: the
/// [`RobustAggregation`] rule (clip or not × streaming mean or order
/// statistics), the task → group map, and whether per-group mean deltas
/// are tracked. No constructor combines grouping with a buffering rule.
///
/// Streaming rules support multiple aggregation *groups* (one per model
/// in a FedTrans suite, one per SplitMix base): each update folds into
/// the group its task is assigned to. Per group the fold reproduces the
/// retired batch `fedavg` exactly — zero-initialized accumulator, one
/// `axpy(samples_i / total, w_i)` per update in task order — so the
/// result is bit-identical to materializing the slice first.
///
/// A group's average is `None` when it received no updates or its
/// delivered sample total is zero, matching the retired
/// `fedavg(&[]) == None` contract. Mean deltas are tracked
/// independently of sample counts (an update with zero samples still
/// contributes to its group's mean delta), preserving the activeness
/// semantics of the pre-streaming FedTrans runtime.
///
/// Buffering rules hold O(cohort) memory — every update is retained
/// until `finish`, because order statistics cannot stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Aggregator {
    rule: RobustAggregation,
    grouping: Grouping,
    track_deltas: bool,
    /// Round state below; reset by `begin_round`.
    cursor: Cursor,
    groups: Vec<Group>,
    buffer: Vec<BufferedUpdate>,
}

/// The plain (optionally grouped) streaming weighted mean.
pub type FedAvgSink = Aggregator;

/// The single-group sink a [`RobustAggregation`] rule selects, so
/// runners swap defenses without changing their round loop.
pub type RobustSink = Aggregator;

impl Aggregator {
    fn with(rule: RobustAggregation, grouping: Grouping, groups: usize) -> Self {
        Aggregator {
            rule,
            grouping,
            track_deltas: false,
            cursor: Cursor::default(),
            groups: vec![Group::default(); groups],
            buffer: Vec::new(),
        }
    }

    /// A single-group sink applying `rule`.
    pub fn new(rule: RobustAggregation) -> Self {
        Aggregator::with(rule, Grouping::Single, 1)
    }

    /// A plain-FedAvg sink folding every task into one group (single
    /// global model).
    pub fn single() -> Self {
        Aggregator::new(RobustAggregation::FedAvg)
    }

    /// A plain-FedAvg sink with `groups` aggregation groups where task
    /// `i` folds into `group_of[i]`. `group_of` covers the round's full
    /// task list; undelivered tasks simply never absorb.
    pub fn grouped(groups: usize, group_of: Vec<usize>) -> Self {
        let rule = RobustAggregation::FedAvg;
        Aggregator::with(rule, Grouping::ByTask(group_of), groups.max(1))
    }

    /// Also maintain each group's mean delta (`Σ delta_i / count`),
    /// the pseudo-gradient FedTrans's cell-activeness tracker consumes.
    #[must_use]
    pub fn with_delta_tracking(mut self) -> Self {
        self.track_deltas = true;
        self
    }

    /// The index of the group `task` folds into.
    fn group(&self, task: usize) -> Result<usize> {
        let g = match &self.grouping {
            Grouping::Single => Some(0),
            Grouping::ByTask(map) => map.get(task).copied(),
        };
        g.filter(|&g| g < self.groups.len()).ok_or_else(|| {
            SimError::protocol(format!(
                "task {task} has no group among the sink's {}",
                self.groups.len()
            ))
        })
    }

    /// The per-group aggregates, consuming the round's accumulator.
    /// `None` per group without (weighted) updates.
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`] — extracting a
    /// half-folded mean is always a bug.
    pub fn take_averages(&mut self) -> Vec<Option<Vec<Tensor>>> {
        self.cursor.assert_finished("take_averages");
        self.groups.iter_mut().map(|g| g.acc.take()).collect()
    }

    /// The per-group mean deltas (zero-tracking sinks return `None`s),
    /// consuming the round's accumulator.
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`].
    pub fn take_mean_deltas(&mut self) -> Vec<Option<Vec<Tensor>>> {
        self.cursor.assert_finished("take_mean_deltas");
        self.groups
            .iter_mut()
            .map(|g| g.mean_delta.take())
            .collect()
    }

    /// Single-group convenience: the round's aggregate, if any (`None`
    /// for an empty round and, for the mean rules, a zero-weight one).
    ///
    /// # Panics
    ///
    /// Panics when called before [`UpdateSink::finish`].
    pub fn take_average(&mut self) -> Option<Vec<Tensor>> {
        self.take_averages().into_iter().next().flatten()
    }

    /// Updates this round consumed but did not fold because they held a
    /// non-finite value (streaming rules only).
    pub fn rejected_updates(&self) -> u64 {
        self.groups.iter().map(|g| g.rejected_count).sum()
    }

    /// Serializes the mid-round fold state — rule, manifest, cursor,
    /// accumulators and buffer — so a kill mid-stream can resume
    /// absorbing at the exact update it stopped before, bit-identically.
    pub fn checkpoint_value(&self) -> Value {
        serde_json::json!({
            "sink": self.rule.kind(),
            "state": self,
        })
    }

    /// Restores state captured by [`Aggregator::checkpoint_value`] on a
    /// sink of the same rule kind.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on a malformed or foreign checkpoint, or
    /// one whose round state disagrees with its own manifest: no group,
    /// a buffer whose length is not the cursor's, a buffered update whose
    /// `samples` is not its manifest entry's, or a group `total`/`count`
    /// other than its manifest entries' sum.
    pub fn restore_value(&mut self, state: &Value) -> Result<()> {
        let kind: String = crate::driver::field(state, "sink")?;
        let restored: Aggregator = crate::driver::field(state, "state")?;
        if kind != self.rule.kind() || kind != restored.rule.kind() {
            return Err(SimError::snapshot(format!(
                "sink checkpoint is for `{kind}`, expected `{}`",
                self.rule.kind()
            )));
        }
        restored
            .check_round_state()
            .map_err(|detail| SimError::snapshot(format!("`{kind}` sink checkpoint {detail}")))?;
        *self = restored;
        Ok(())
    }

    /// Re-derives what the round state must hold from the manifest the
    /// cursor carries — what `begin_round` computed and `absorb`
    /// admitted — and names the first field that disagrees.
    fn check_round_state(&self) -> std::result::Result<(), String> {
        let Cursor {
            expected, absorbed, ..
        } = &self.cursor;
        let buffered = usize::from(self.rule.buffers()) * absorbed;
        if self.groups.is_empty() || *absorbed > expected.len() || self.buffer.len() != buffered {
            return Err(format!(
                "has {} groups and buffers {} updates, its cursor absorbed {absorbed} of {} tasks",
                self.groups.len(),
                self.buffer.len(),
                expected.len()
            ));
        }
        for (p, (update, spec)) in self.buffer.iter().zip(expected).enumerate() {
            if update.samples != spec.samples {
                return Err(format!(
                    "buffers update {p} with `samples` {}, its manifest entry (task {}) has {}",
                    update.samples, spec.task, spec.samples
                ));
            }
        }
        let derived = self.group_totals(expected).map_err(|e| e.to_string())?;
        for (g, (group, &(total, count))) in self.groups.iter().zip(&derived).enumerate() {
            for (field, got, want) in [("total", group.total, total), ("count", group.count, count)]
            {
                if got != want {
                    return Err(format!(
                        "has group {g} `{field}` {got}, its manifest entries give {want}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Each group's `(total, count)` over `tasks`: the normalizers a
    /// streaming fold needs before its first update.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] for a task without a group, or a sum that
    /// overflows `u64`.
    fn group_totals(&self, tasks: &[TaskSpec]) -> Result<Vec<(u64, u64)>> {
        let mut totals = vec![(0u64, 0u64); self.groups.len()];
        for spec in tasks {
            let (total, count) = &mut totals[self.group(spec.task)?];
            *total = total.checked_add(spec.samples).ok_or_else(|| {
                SimError::protocol(format!(
                    "task {}'s {} samples overflow its group's total",
                    spec.task, spec.samples
                ))
            })?;
            *count += 1;
        }
        Ok(totals)
    }

    /// The buffering rules' reduction of a complete round.
    fn reduce_buffer(&self) -> Result<Option<Vec<Tensor>>> {
        let k = self.buffer.len();
        let Some(first) = self.buffer.first() else {
            return Ok(None);
        };
        // Absorb refuses ragged updates already; a restored checkpoint
        // has not been through absorb.
        for (p, update) in self.buffer.iter().enumerate().skip(1) {
            check_layout(&first.weights, &update.weights, "buffered update", p)?;
        }
        let RobustAggregation::TrimmedMean { trim } = self.rule else {
            // The median is the trim that leaves one survivor (odd
            // cohorts) or two (even cohorts).
            return Ok(Some(order_statistics(
                &self.buffer,
                (k - 1) / 2,
                Survivors::Midpoint,
            )));
        };
        let g = ((trim * k as f64).floor() as usize).min((k - 1) / 2);
        if g > 0 {
            let samples: Vec<u64> = self.buffer.iter().map(|u| u.samples).collect();
            let rule = Survivors::WeightedMean(&samples);
            return Ok(Some(order_statistics(&self.buffer, g, rule)));
        }
        // Nothing to trim: the undefended fold's exact floating-point op
        // sequence (0 ULP), over the borrowed buffer.
        let (mut acc, total) = (None, self.groups[0].total);
        if total > 0 {
            for update in &self.buffer {
                let w = update.samples as f32 / total as f32;
                fold_mean(&mut acc, w, &update.weights)?;
            }
        }
        Ok(acc)
    }
}

impl UpdateSink for Aggregator {
    fn begin_round(&mut self, manifest: &RoundManifest<'_>) -> Result<()> {
        self.cursor.begin(manifest);
        self.groups.fill(Group::default());
        self.buffer = Vec::new();
        if self.rule.buffers() {
            self.buffer.reserve_exact(manifest.tasks.len());
        }
        // The manifest is what lets a *streaming* fold be bit-identical
        // to the batch path: per-group normalizers exist before the
        // first update arrives.
        let totals = self.group_totals(manifest.tasks)?;
        for (group, (total, count)) in self.groups.iter_mut().zip(totals) {
            (group.total, group.count) = (total, count);
        }
        Ok(())
    }

    fn absorb(&mut self, mut update: ClientUpdate) -> Result<()> {
        self.cursor.admit(&update)?;
        let task = update.task;
        let g = self.group(task)?;
        if self.rule.buffers() {
            if let Some(first) = self.buffer.first() {
                check_layout(&first.weights, &update.weights, "update for task", task)?;
            }
            self.cursor.advance();
            self.buffer.push(BufferedUpdate {
                samples: update.samples,
                weights: update.weights,
            });
            return Ok(());
        }
        let group = &mut self.groups[g];
        let clips = matches!(self.rule, RobustAggregation::NormClip { .. });
        let reads_delta = (self.track_deltas || clips) && !update.delta.is_empty();
        if let Some(seen) = group.acc.as_ref().or(group.mean_delta.as_ref()) {
            check_layout(seen, &update.weights, "update for task", task)?;
        }
        if reads_delta {
            check_layout(&update.weights, &update.delta, "delta for task", task)?;
        }
        self.cursor.advance();
        if !all_finite(&update.weights) || (reads_delta && !all_finite(&update.delta)) {
            group.rejected_samples += update.samples;
            group.rejected_count += 1;
            return Ok(());
        }
        if let RobustAggregation::NormClip { tau } = self.rule {
            clip(tau, &mut update)?;
        }
        if group.total > 0 {
            let w = update.samples as f32 / group.total as f32;
            fold_mean(&mut group.acc, w, &update.weights)?;
        }
        if self.track_deltas && !update.delta.is_empty() {
            let inv = 1.0 / group.count as f32;
            fold_mean(&mut group.mean_delta, inv, &update.delta)?;
        }
        // `update` drops here: nothing per-client is retained.
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.cursor.finish()?;
        if self.rule.buffers() {
            self.groups[0].acc = self.reduce_buffer()?;
        }
        // Renormalize each mean with rejects over the updates it kept.
        for group in self.groups.iter_mut().filter(|g| g.rejected_count > 0) {
            let kept = group.total.saturating_sub(group.rejected_samples);
            rescale(&mut group.acc, group.total, kept);
            let kept = group.count.saturating_sub(group.rejected_count);
            rescale(&mut group.mean_delta, group.count, kept);
        }
        Ok(())
    }
}

/// Coordinates per tile of [`order_statistics`]: one lane of the rank
/// search per coordinate. A 200-client cohort's tile is 25.6 KB of
/// keys, L1- or L2-resident on every host the pool runs on, while
/// each update is still read in 128-byte runs.
const TILE_COORDS: usize = order_stats::LANES;

/// The shared kernel of the buffering rules: per coordinate, drops the
/// `g` smallest and `g` largest of the cohort's values and reduces the
/// `k − 2g ≥ 1` survivors as `rule` says.
///
/// Values order by `total_cmp` with the buffer position — task order —
/// as tie-break, and [`order_stats::reduce_tile`] cuts out exactly the
/// survivor set a full sort would, by a bitwise rank search over 32
/// coordinates at a time. The weighted mean then folds the survivors in
/// task order, never sorted order.
///
/// Work is tiled: [`TILE_COORDS`] coordinates at a time are copied from
/// every update (one 128-byte run of each update's slice), and the tiles
/// fan out over the shared pool. Each output coordinate is written once
/// from its own tile, so the result is independent of the thread count.
fn order_statistics(buffer: &[BufferedUpdate], g: usize, rule: Survivors<'_>) -> Vec<Tensor> {
    let first = &buffer[0].weights;
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
        let mut values = vec![0.0; len];
        let runs = buffer
            .iter()
            .map(|update| &update.weights[ti].data()[start..start + len]);
        order_stats::reduce_tile(runs, g, rule, &mut values);
        values
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
    out
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
        let mut sink = RobustSink::new(RobustAggregation::NormClip { tau: 5.0 });
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
        let mut sink = RobustSink::new(RobustAggregation::NormClip { tau: 5.0 });
        sink.begin_round(&manifest(&specs)).unwrap();
        sink.absorb(update(0, 10, &[6.0, 8.0])).unwrap();
        sink.finish().unwrap();
        let avg = sink.take_average().unwrap();
        assert_eq!(avg[0].data(), &[3.0, 4.0]);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes_per_coordinate() {
        let specs = specs(&[10, 10, 10, 10, 10]);
        let mut sink = RobustSink::new(RobustAggregation::TrimmedMean { trim: 0.2 });
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
        let mut sink = RobustSink::new(RobustAggregation::TrimmedMean { trim: 1.0 / 3.0 });
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
        let mut trimmed = RobustSink::new(RobustAggregation::TrimmedMean { trim: 0.0 });
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
        let mut sink = RobustSink::new(RobustAggregation::CoordinateMedian);
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
        let mut sink = RobustSink::new(RobustAggregation::CoordinateMedian);
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
        let mut trimmed = RobustSink::new(RobustAggregation::TrimmedMean { trim: 0.3 });
        trimmed.begin_round(&manifest(&[])).unwrap();
        trimmed.finish().unwrap();
        assert!(trimmed.take_average().is_none());

        let mut median = RobustSink::new(RobustAggregation::CoordinateMedian);
        median.begin_round(&manifest(&[])).unwrap();
        median.finish().unwrap();
        assert!(median.take_average().is_none());
    }

    #[test]
    fn a_manifest_whose_group_total_overflows_is_refused() {
        let specs = specs(&[u64::MAX, 1]);
        let err = FedAvgSink::single()
            .begin_round(&manifest(&specs))
            .unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
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
