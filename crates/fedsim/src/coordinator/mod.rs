//! The message-driven coordinator runtime.
//!
//! This module replaces the function-call round loop with the shape of
//! a production federated-learning *service*: an explicit state machine
//! (`STANDBY → ROUND(selecting → training → aggregating) → FINISHED`)
//! that talks to participants exclusively through typed messages over a
//! pluggable [`Transport`], under a lock-step [`clock::VirtualClock`].
//!
//! One round, as messages:
//!
//! 1. **Selecting** — [`Coordinator::begin_round`] sends an
//!    [`CoordinatorMessage::Invite`] to every selected client; reachable
//!    devices answer with [`ClientMessage::RendezvousRequest`] and are
//!    admitted ([`RendezvousReply::Accept`]); uninvited or duplicate
//!    requests get [`RendezvousReply::Later`] and may be readmitted in
//!    a later round. Devices that have not rendezvoused by the deadline
//!    are dropped from the round — which is exactly how client dropout
//!    *emerges* here: an offline device simply never answers.
//! 2. **Training** — [`Coordinator::train`] dispatches
//!    [`CoordinatorMessage::StartTrainingRound`] with the model-table
//!    index and derived seed for each task, prices every task's
//!    timeline from the round manifest, and collects
//!    [`ClientMessage::EndTrainingRound`] announcements whose arrival
//!    tick is the device's simulated round time — so stragglers are
//!    simply *late*. Periodic [`ClientMessage::Heartbeat`]s keep slow
//!    devices alive; a device silent past the heartbeat deadline is
//!    reaped.
//! 3. **Aggregating** — delivered updates are *folded as they land*
//!    into the round's [`crate::sink::UpdateSink`] (in task order,
//!    while later clients are still training, at most twice the lane
//!    count of updates alive at once, each dropped after its absorb),
//!    then [`Coordinator::finish_round`] notifies the cohort
//!    ([`CoordinatorMessage::EndRound`]) and returns to standby.
//!
//! # Determinism contract under transport
//!
//! The coordinator's decisions are insensitive to the delivery order of
//! messages *within* one virtual-clock tick: admission has no capacity
//! contention (every invited, reachable device is admitted), liveness
//! bookkeeping commutes, and replies are keyed by task index rather
//! than arrival order. [`transport::InMemoryTransport`] deliberately
//! scrambles within-tick order with a seeded hash, and the
//! delivery-permutation proptest pins that any order yields the same
//! round outcome. Fault emergence reuses the exact stateless hashes of
//! [`crate::faults::FaultConfig`], so runs produce byte-identical
//! reports to the pre-coordinator round loops — at any thread count,
//! across kill/resume, and under any delivery permutation.

pub mod clock;
pub mod message;
pub mod participant;
pub mod transport;

use serde::{Deserialize, Serialize, Value};

use ft_data::{Half, ShardSource};
use ft_model::CellModel;

use crate::attack::AdversityConfig;
use crate::device::DeviceTrace;
use crate::faults::FaultConfig;
use crate::sink::{ClientUpdate, RoundManifest, TaskSpec, UpdateSink};
use crate::trainer::{LocalTrainConfig, TrainTask};
use crate::{Result, SimError};

use clock::{ticks_for_seconds, VirtualClock};
pub use message::{ClientMessage, CoordinatorMessage, RendezvousReply};
pub use participant::{Behavior, Cohort};
pub use transport::{DeliveryOrder, InMemoryTransport, Transport};

/// Salt decorrelating the transport's delivery-order seed from the run
/// seed proper (which keys selection, data, and fault hashes).
const ORDER_SEED_SALT: u64 = 0xDE11_0E2D_E2A1_5EED;

/// Stage of an in-progress round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundStage {
    /// Inviting and admitting participants (rendezvous).
    Selecting,
    /// Tasks dispatched; collecting results and heartbeats.
    Training,
    /// All results in; the algorithm is folding them into global state.
    Aggregating,
}

/// Coordinator lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Between rounds; ready to begin the next one.
    Standby,
    /// Inside a round, at the given stage.
    Round(RoundStage),
    /// Shut down; no further rounds may begin.
    Finished,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Standby => write!(f, "standby"),
            Phase::Round(RoundStage::Selecting) => write!(f, "round/selecting"),
            Phase::Round(RoundStage::Training) => write!(f, "round/training"),
            Phase::Round(RoundStage::Aggregating) => write!(f, "round/aggregating"),
            Phase::Finished => write!(f, "finished"),
        }
    }
}

/// The protocol's timing knobs (simulated seconds). The executor's
/// fan-out width is not among them: it is the caller's
/// [`ft_tensor::Settings`].
///
/// Timing knobs shape *when* protocol events fire on the virtual
/// clock; they never change what a healthy device computes, so any
/// setting that keeps healthy devices inside their deadlines yields
/// the same report (the effective heartbeat deadline is clamped to at
/// least one heartbeat interval for exactly this reason).
///
/// Construct via the builder so new knobs never grow positional
/// literals:
///
/// ```
/// use ft_fedsim::coordinator::RoundOptions;
///
/// let opts = RoundOptions::new().rendezvous_deadline_s(10.0);
/// assert_eq!(opts.rendezvous_deadline_s, 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOptions {
    /// How long the coordinator waits for rendezvous answers before
    /// dropping unresponsive invitees.
    pub rendezvous_deadline_s: f64,
    /// How often a training device emits a liveness heartbeat.
    pub heartbeat_interval_s: f64,
    /// How long a training device may stay silent before the
    /// coordinator declares it dropped.
    pub heartbeat_deadline_s: f64,
}

impl Default for RoundOptions {
    fn default() -> Self {
        RoundOptions {
            rendezvous_deadline_s: 5.0,
            heartbeat_interval_s: 30.0,
            heartbeat_deadline_s: 120.0,
        }
    }
}

impl RoundOptions {
    /// The builder's starting point — identical to `Default`.
    pub fn new() -> Self {
        RoundOptions::default()
    }

    /// Sets the rendezvous deadline in simulated seconds.
    #[must_use]
    pub fn rendezvous_deadline_s(mut self, s: f64) -> Self {
        self.rendezvous_deadline_s = s;
        self
    }

    /// Sets the heartbeat interval in simulated seconds.
    #[must_use]
    pub fn heartbeat_interval_s(mut self, s: f64) -> Self {
        self.heartbeat_interval_s = s;
        self
    }

    /// Sets the heartbeat deadline in simulated seconds.
    #[must_use]
    pub fn heartbeat_deadline_s(mut self, s: f64) -> Self {
        self.heartbeat_deadline_s = s;
        self
    }

    /// The effective heartbeat deadline in ticks: clamped to at least
    /// one heartbeat interval plus one tick, so a configuration with
    /// `deadline < interval` cannot reap devices that heartbeat on
    /// schedule.
    fn heartbeat_deadline_ticks(&self) -> u64 {
        ticks_for_seconds(self.heartbeat_deadline_s)
            .max(ticks_for_seconds(self.heartbeat_interval_s) + 1)
    }
}

/// Protocol telemetry the coordinator accumulates across rounds.
/// Serialized into every algorithm checkpoint (the report schema is
/// frozen by the golden digests, so telemetry lives here instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoordinatorStats {
    /// Invites sent (one per selected client per round).
    pub invitations: u64,
    /// Rendezvous requests answered with Accept.
    pub accepted: u64,
    /// Rendezvous requests answered with Later.
    pub later_replies: u64,
    /// Invitees dropped for missing the rendezvous deadline.
    pub rendezvous_dropouts: u64,
    /// Training participants reaped by the heartbeat deadline.
    pub heartbeat_dropouts: u64,
    /// Heartbeats received for the round in progress.
    pub heartbeats: u64,
    /// Training results accepted.
    pub results: u64,
    /// Training results dropped by the wire checks: for another round,
    /// for no task of the round, from a client other than the task's,
    /// or for a task that is not open (already landed, reaped, or
    /// never taken by its device). Checkpoints written before this
    /// field existed load it as zero.
    #[serde(default)]
    pub rejected_results: u64,
    /// Heartbeats dropped for naming another round: they refresh no
    /// liveness, so a replayed one cannot keep a vanished device from
    /// its reap. Checkpoints written before this field existed load it
    /// as zero.
    #[serde(default)]
    pub rejected_heartbeats: u64,
    /// Total participant→coordinator messages received.
    pub messages_up: u64,
    /// Total coordinator→participant messages sent.
    pub messages_down: u64,
}

/// Between-round coordinator state decoded from a checkpoint but not
/// yet installed (see [`Coordinator::decode_checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorCheckpoint {
    phase: Phase,
    round: u32,
    stats: CoordinatorStats,
}

/// One collected training result, keyed by its task index (never by
/// arrival order — a task list with gaps stays unambiguous when a
/// device vanishes mid-round).
///
/// Carries only scalars: the weight payload itself was folded into the
/// round's [`UpdateSink`] the moment it landed and no longer exists by
/// the time [`Coordinator::train`] returns. Algorithms read aggregates
/// out of their sink and per-participant accounting out of this reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReply {
    /// Index into the round's task list.
    pub task: usize,
    /// The client that trained.
    pub client: usize,
    /// Samples the task was priced at, which an accepted result's
    /// claim equals (MAC accounting, FedAvg weight).
    pub samples: u64,
    /// Mean training loss over the client's local steps.
    pub avg_loss: f32,
    /// Mean training accuracy over the client's local steps.
    pub avg_acc: f32,
    /// The device's simulated round time in seconds (compute + comms,
    /// after any straggler slowdown).
    pub elapsed_s: f64,
}

/// The coordinator: owns the state machine, the virtual clock, the
/// transport, and the simulated cohort.
pub struct Coordinator {
    clock: VirtualClock,
    transport: Box<dyn Transport>,
    cohort: Cohort,
    opts: RoundOptions,
    adversity: AdversityConfig,
    seed: u64,
    phase: Phase,
    round: u32,
    admitted: Vec<usize>,
    stats: CoordinatorStats,
}

impl Coordinator {
    /// Builds a coordinator for a fleet, with the default seeded
    /// in-memory transport and the default [`RoundOptions`].
    pub fn new(seed: u64, faults: FaultConfig, devices: DeviceTrace) -> Self {
        Coordinator::with_transport(
            seed,
            faults,
            devices,
            Box::new(InMemoryTransport::seeded(seed ^ ORDER_SEED_SALT)),
        )
    }

    /// [`Coordinator::new`] with an explicit transport (tests use this
    /// to force FIFO/LIFO/other delivery orders).
    pub fn with_transport(
        seed: u64,
        faults: FaultConfig,
        devices: DeviceTrace,
        transport: Box<dyn Transport>,
    ) -> Self {
        Coordinator {
            clock: VirtualClock::new(),
            transport,
            cohort: Cohort::new(seed, faults, devices),
            opts: RoundOptions::default(),
            adversity: AdversityConfig::default(),
            seed,
            phase: Phase::Standby,
            round: 0,
            admitted: Vec::new(),
            stats: CoordinatorStats::default(),
        }
    }

    /// The current lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The round the coordinator will run (or is running) next.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Accumulated protocol telemetry.
    pub fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }

    /// The active round options.
    pub fn options(&self) -> &RoundOptions {
        &self.opts
    }

    /// Replaces the round options (scenario timing knobs, thread
    /// overrides).
    pub fn set_options(&mut self, opts: RoundOptions) {
        self.opts = opts;
    }

    /// Installs the adversarial fleet model: byzantine attacks corrupt
    /// updates at the sink boundary (and optionally the labels clients
    /// train on), the availability model churns the rendezvous path and
    /// departs devices mid-round, and the drift schedule rotates labels
    /// over time. Everything is a stateless hash of the run seed, so
    /// the default (inert) config leaves every run bit-identical.
    pub fn set_adversity(&mut self, adversity: AdversityConfig) {
        self.cohort.set_availability(adversity.availability.clone());
        self.adversity = adversity;
    }

    /// Mutable access to the simulated cohort, for installing
    /// per-round [`Behavior`] overrides in tests.
    pub fn cohort_mut(&mut self) -> &mut Cohort {
        &mut self.cohort
    }

    fn expect(&self, want: Phase, action: &str) -> Result<()> {
        if self.phase == want {
            Ok(())
        } else {
            Err(SimError::protocol(format!(
                "{action} requires phase {want}, coordinator is in {}",
                self.phase
            )))
        }
    }

    /// Opens round `round`: resets the clock and wire, invites
    /// `invited`, runs the rendezvous exchange, and returns the
    /// admitted participants **in invitation order** once the
    /// rendezvous deadline passes. Invitees that never answered
    /// (offline devices) are dropped from the round.
    ///
    /// Transitions `STANDBY → ROUND(selecting)`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when not in standby or when `round` is
    /// not the coordinator's next round.
    pub fn begin_round(&mut self, round: u32, invited: &[usize]) -> Result<Vec<usize>> {
        self.expect(Phase::Standby, "begin_round")?;
        if round != self.round {
            return Err(SimError::protocol(format!(
                "begin_round({round}) out of sequence: coordinator is at round {}",
                self.round
            )));
        }
        self.clock.reset();
        self.transport.clear();
        self.phase = Phase::Round(RoundStage::Selecting);
        self.admitted.clear();

        self.cohort.on_round_start(round, 0, &mut *self.transport);
        for &client in invited {
            self.transport
                .send_down(client, 1, CoordinatorMessage::Invite { round });
            self.stats.invitations += 1;
            self.stats.messages_down += 1;
        }

        let deadline = 1 + ticks_for_seconds(self.opts.rendezvous_deadline_s);
        #[expect(
            clippy::disallowed_types,
            reason = "point lookups only, never iterated"
        )]
        let position: std::collections::HashMap<usize, usize> =
            invited.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let mut admitted_flag = vec![false; invited.len()];

        while let Some(t) = self.transport.next_delivery() {
            if t > deadline {
                break;
            }
            self.clock.advance_to(t);
            let now = self.clock.now();
            for (client, msg) in self.transport.recv_down(now) {
                self.cohort.handle(client, &msg, now, &mut *self.transport);
            }
            for (client, msg) in self.transport.recv_up(now) {
                self.stats.messages_up += 1;
                match msg {
                    ClientMessage::RendezvousRequest { round: r } => {
                        let slot = (r == round)
                            .then(|| position.get(&client))
                            .flatten()
                            .copied()
                            .filter(|&i| !admitted_flag[i]);
                        let reply = match slot {
                            Some(i) => {
                                admitted_flag[i] = true;
                                self.stats.accepted += 1;
                                RendezvousReply::Accept
                            }
                            None => {
                                self.stats.later_replies += 1;
                                RendezvousReply::Later
                            }
                        };
                        self.transport.send_down(
                            client,
                            now + 1,
                            CoordinatorMessage::Rendezvous { round: r, reply },
                        );
                        self.stats.messages_down += 1;
                    }
                    // No task is open before `train` dispatches one:
                    // an honest wire (cleared at the round boundary)
                    // carries no result now, so one is dropped.
                    ClientMessage::EndTrainingRound { .. } => self.stats.rejected_results += 1,
                    // Liveness only matters once training starts.
                    ClientMessage::Heartbeat { .. } => {}
                }
            }
        }
        self.clock.advance_to(deadline);

        let admitted: Vec<usize> = invited
            .iter()
            .zip(&admitted_flag)
            .filter(|(_, &ok)| ok)
            .map(|(&c, _)| c)
            .collect();
        self.stats.rendezvous_dropouts += (invited.len() - admitted.len()) as u64;
        self.admitted = admitted.clone();
        Ok(admitted)
    }

    /// Runs the training phase as a **streaming fold**, in two stages.
    ///
    /// First the protocol timeline: one slim
    /// [`CoordinatorMessage::StartTrainingRound`] per task (a model
    /// *index* into `models`, never a weight payload), then the
    /// virtual-clock message loop collects
    /// [`ClientMessage::EndTrainingRound`] announcements as they
    /// arrive, keeping stragglers alive through their heartbeats and
    /// reaping devices silent past the heartbeat deadline. Every
    /// announcement is priced from the round's *manifest* — per-task
    /// sample counts are a pure function of config and shard size (see
    /// [`crate::trainer::expected_samples`]) — so the delivered set and
    /// all telemetry are decided before any weights exist.
    ///
    /// Then the fold, as one pipelined pool job
    /// ([`crate::exec::try_stream_map`]): worker lanes train delivered
    /// tasks while at most twice the lane count of them are unabsorbed,
    /// and whichever lane completes the next task in line absorbs it
    /// into `sink` — **in task order** (never completion order),
    /// overlapping the training of later tasks — and drops it.
    /// Peak memory is O(in-flight), not O(cohort), and the fold is
    /// bit-identical to materializing every update first — at any
    /// thread count and any within-tick delivery permutation.
    ///
    /// Replies come back **in task order**; a reaped device's task is
    /// simply absent. The sink sees `begin_round → absorb × delivered
    /// → finish` exactly once, even for an empty round. Transitions
    /// `selecting → training → aggregating`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when not in the selecting stage or when a
    /// task names a client outside the admitted cohort;
    /// [`SimError::NoSuchClient`] for an out-of-range client index;
    /// [`SimError::BadConfig`] for an out-of-range model index;
    /// training and sink errors propagate.
    pub fn train<S: ShardSource + ?Sized>(
        &mut self,
        tasks: Vec<TrainTask>,
        models: &[CellModel],
        shards: &S,
        cfg: &LocalTrainConfig,
        sink: &mut dyn UpdateSink,
    ) -> Result<Vec<TrainReply>> {
        self.expect(Phase::Round(RoundStage::Selecting), "train")?;
        #[expect(
            clippy::disallowed_types,
            reason = "point lookups only, never iterated"
        )]
        let cohort_set: std::collections::HashSet<usize> = self.admitted.iter().copied().collect();
        for t in &tasks {
            if t.client >= shards.num_clients() {
                return Err(SimError::NoSuchClient {
                    index: t.client,
                    clients: shards.num_clients(),
                });
            }
            if !cohort_set.contains(&t.client) {
                return Err(SimError::protocol(format!(
                    "train task for client {} which was not admitted to round {}",
                    t.client, self.round
                )));
            }
            if t.model >= models.len() {
                return Err(SimError::BadConfig {
                    detail: format!(
                        "task for client {} names model {} but the round table holds {}",
                        t.client,
                        t.model,
                        models.len()
                    ),
                });
            }
        }
        self.phase = Phase::Round(RoundStage::Training);
        let round = self.round;
        let n = tasks.len();
        if n == 0 {
            sink.begin_round(&RoundManifest { round, tasks: &[] })?;
            sink.finish()?;
            self.phase = Phase::Round(RoundStage::Aggregating);
            return Ok(Vec::new());
        }

        // Dispatch: slim messages only — the model table stays host-side.
        let dispatch_at = self.clock.now() + 1;
        // (client, model index, seed, macs, params) per task.
        let mut task_meta: Vec<(usize, usize, u64, u64, usize)> = Vec::with_capacity(n);
        for (i, t) in tasks.into_iter().enumerate() {
            let m = &models[t.model];
            task_meta.push((
                t.client,
                t.model,
                t.seed,
                m.macs_per_sample(),
                m.param_count(),
            ));
            self.transport.send_down(
                t.client,
                dispatch_at,
                CoordinatorMessage::StartTrainingRound {
                    round,
                    task: i,
                    model: t.model,
                    seed: t.seed,
                },
            );
            self.stats.messages_down += 1;
        }

        // Devices receive their dispatches; vanish-scripted devices die
        // here (payload lost), everything else will train.
        self.clock.advance_to(dispatch_at);
        let mut executed = vec![false; n];
        for (client, msg) in self.transport.recv_down(dispatch_at) {
            match msg {
                CoordinatorMessage::StartTrainingRound { task, .. } => {
                    if self.cohort.behavior(round, client) != Behavior::Vanish {
                        executed[task] = true;
                    }
                }
                other => self
                    .cohort
                    .handle(client, &other, dispatch_at, &mut *self.transport),
            }
        }

        // Per-device state lives in flat arrays indexed by *slot*: the
        // rank of the device among this round's distinct task clients.
        // Slots ascend with the client index, so every scan below walks
        // devices in ascending client order.
        let mut clients: Vec<usize> = task_meta.iter().map(|meta| meta.0).collect();
        clients.sort_unstable();
        clients.dedup();
        let task_slot: Vec<usize> = task_meta
            .iter()
            .map(|meta| clients.partition_point(|&c| c < meta.0))
            .collect();

        // Price every executing task from the manifest alone: the
        // sample count is a pure function of config and shard size, so
        // the full virtual-clock timeline exists before any training.
        let start = self.clock.now();
        let hb_ticks = ticks_for_seconds(self.opts.heartbeat_interval_s);
        let deadline_ticks = self.opts.heartbeat_deadline_ticks();
        let mut task_samples = vec![0u64; n];
        // (elapsed_s, end tick)
        let mut task_timing = vec![(0.0f64, 0u64); n];
        // A device's span is its slowest executing task; `None` for a
        // device none of whose tasks execute.
        let mut span_s: Vec<Option<f64>> = vec![None; clients.len()];
        for i in 0..n {
            if !executed[i] {
                continue;
            }
            let (client, _, _, macs, params) = task_meta[i];
            let samples = crate::trainer::expected_samples(cfg, shards.train_len(client));
            task_samples[i] = samples;
            let elapsed_s = self.cohort.round_time(round, client, macs, params, samples);
            task_timing[i] = (elapsed_s, start + ticks_for_seconds(elapsed_s));
            let span = span_s[task_slot[i]].get_or_insert(0.0);
            if elapsed_s > *span {
                *span = elapsed_s;
            }
        }
        // Mid-round departures: a departing device's cutoff tick is a
        // stateless hash of its round span; events scheduled at or
        // past the cutoff are never sent, so fast tasks still land
        // while slow ones go silent and the heartbeat deadline reaps
        // them. The default (no departure model) cutoff is ∞, which
        // keeps the schedule below bit-identical to the pre-churn one.
        let cutoff: Vec<u64> = clients
            .iter()
            .zip(&span_s)
            .map(|(&client, span)| {
                span.and_then(|span_s| self.cohort.departure_s(round, client, span_s))
                    .map_or(u64::MAX, |dep_s| start + ticks_for_seconds(dep_s))
            })
            .collect();
        for i in 0..n {
            if !executed[i] {
                continue;
            }
            let client = task_meta[i].0;
            let (elapsed_s, end) = task_timing[i];
            let cut = cutoff[task_slot[i]];
            // Liveness beats every interval until the result lands. For
            // degenerate spans (a tiny interval against a huge round
            // time) the stride widens so no device ever schedules more
            // than ~10k beats — wide strides stay under the deadline
            // because the effective deadline is clamped to ≥ 1 stride
            // only for configured intervals; absurd spans are a
            // documented non-goal.
            let stride = hb_ticks.max(end.saturating_sub(start) / 10_000);
            let mut beat = start + stride;
            while beat < end && beat < cut {
                self.transport
                    .send_up(client, beat, ClientMessage::Heartbeat { round });
                beat += stride;
            }
            if end < cut {
                self.transport.send_up(
                    client,
                    end,
                    ClientMessage::EndTrainingRound {
                        round,
                        task: i,
                        samples: task_samples[i],
                        elapsed_s,
                    },
                );
            }
        }

        // Collect: jump the clock from event to event; reap devices
        // whose signals go silent past the deadline. A device is live
        // while it has open tasks — dispatched, no result yet, not
        // reaped — so a reaped device (open tasks zeroed) drops out of
        // both scans by itself.
        let mut last_signal = vec![start; clients.len()];
        let mut open_tasks = vec![0usize; clients.len()];
        for &slot in &task_slot {
            open_tasks[slot] += 1;
        }
        let mut replies: Vec<Option<TrainReply>> = (0..n).map(|_| None).collect();
        let mut unresolved: usize = n;
        while unresolved > 0 {
            let next_deadline = (0..clients.len())
                .filter(|&slot| open_tasks[slot] > 0)
                .map(|slot| last_signal[slot] + deadline_ticks)
                .min();
            let target = match (self.transport.next_delivery(), next_deadline) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            self.clock.advance_to(target);
            let now = self.clock.now();
            for (client, msg) in self.transport.recv_up(now) {
                self.stats.messages_up += 1;
                match msg {
                    // A heartbeat for this round refreshes its
                    // sender's liveness; one from a client with no task
                    // this round changes nothing. One for another round
                    // is dropped and counted.
                    ClientMessage::Heartbeat { round: r } if r != round => {
                        self.stats.rejected_heartbeats += 1;
                    }
                    ClientMessage::Heartbeat { .. } => {
                        if let Ok(slot) = clients.binary_search(&client) {
                            last_signal[slot] = now;
                        }
                        self.stats.heartbeats += 1;
                    }
                    ClientMessage::EndTrainingRound {
                        round: r,
                        task,
                        samples,
                        elapsed_s,
                    } => {
                        // The wire is untrusted: a result lands only
                        // for this round, for one of its tasks, from
                        // that task's client, while the task is open —
                        // taken by its device, not landed, not reaped —
                        // and claiming the sample count the task was
                        // priced at. Anything else is dropped and
                        // counted, so it can neither panic here nor
                        // replace a reply.
                        let open = r == round
                            && task < n
                            && task_meta[task].0 == client
                            && executed[task]
                            && replies[task].is_none()
                            && open_tasks[task_slot[task]] > 0
                            && samples == task_samples[task];
                        if !open {
                            self.stats.rejected_results += 1;
                            continue;
                        }
                        let slot = task_slot[task];
                        last_signal[slot] = now;
                        unresolved -= 1;
                        open_tasks[slot] -= 1;
                        // The priced count, the one the sink and the
                        // virtual clock see, is the one billed.
                        replies[task] = Some(TrainReply {
                            task,
                            client,
                            samples: task_samples[task],
                            avg_loss: 0.0,
                            avg_acc: 0.0,
                            elapsed_s,
                        });
                        self.stats.results += 1;
                    }
                    ClientMessage::RendezvousRequest { round: r } => {
                        // Mid-round admission request: no slot now.
                        self.stats.later_replies += 1;
                        self.transport.send_down(
                            client,
                            now + 1,
                            CoordinatorMessage::Rendezvous {
                                round: r,
                                reply: RendezvousReply::Later,
                            },
                        );
                        self.stats.messages_down += 1;
                    }
                }
            }
            for (client, msg) in self.transport.recv_down(now) {
                self.cohort.handle(client, &msg, now, &mut *self.transport);
            }
            for slot in 0..clients.len() {
                if open_tasks[slot] > 0 && now >= last_signal[slot] + deadline_ticks {
                    self.stats.heartbeat_dropouts += 1;
                    unresolved -= open_tasks[slot];
                    open_tasks[slot] = 0;
                }
            }
        }

        // The fold: pipeline delivered tasks through the sink in task
        // order, at most `window` updates alive at once.
        let delivered: Vec<usize> = (0..n).filter(|&i| replies[i].is_some()).collect();
        let specs: Vec<TaskSpec> = delivered
            .iter()
            .map(|&i| TaskSpec {
                task: i,
                client: task_meta[i].0,
                samples: task_samples[i],
            })
            .collect();
        sink.begin_round(&RoundManifest {
            round,
            tasks: &specs,
        })?;
        let threads = crate::exec::client_threads();
        // Two slots per lane: one result training, one finished and
        // waiting its turn, so a lane that runs ahead of the head does
        // not stall on it (ARCHITECTURE.md, "Verdicts").
        let window = threads.saturating_mul(2).max(1);
        let run_seed = self.seed;
        let attack = self.adversity.attack;
        let drift = self.adversity.drift;
        crate::exec::try_stream_map(
            delivered.len(),
            threads,
            window,
            |slot| {
                let (client, model_idx, seed, ..) = task_meta[delivered[slot]];
                let mut model = models[model_idx].clone();
                // Concept drift first (the whole fleet sees the same
                // schedule), then the byzantine label flip on marked
                // clients — both pure shard views, inert by default.
                let mut shard = drift.apply(round, shards.shard_half(client, Half::Train));
                if attack.flip_labels && attack.is_byzantine(run_seed, round, client) {
                    let classes = shard.label_dist().len();
                    if classes > 1 {
                        shard = std::borrow::Cow::Owned(
                            shard.into_owned().map_labels(classes, |y| classes - 1 - y),
                        );
                    }
                }
                crate::trainer::train_local(&mut model, client, &shard, cfg, seed)
            },
            |slot, mut outcome| {
                let i = delivered[slot];
                // Tripwire: the manifest priced this task before it
                // ran; the executed outcome must agree or the timeline
                // the cohort saw was a lie.
                if outcome.samples_processed != task_samples[i] {
                    return Err(SimError::protocol(format!(
                        "task {i} processed {} samples but was priced at {}",
                        outcome.samples_processed, task_samples[i]
                    )));
                }
                if let Some(reply) = replies[i].as_mut() {
                    reply.avg_loss = outcome.avg_loss;
                    reply.avg_acc = outcome.avg_acc;
                }
                // Byzantine corruption happens at the sink boundary,
                // after training, so robust sinks see exactly what the
                // attacker uploads.
                if attack.is_byzantine(run_seed, round, outcome.client) {
                    attack.corrupt(
                        run_seed,
                        round,
                        outcome.client,
                        &mut outcome.weights,
                        &mut outcome.delta,
                    )?;
                }
                sink.absorb(ClientUpdate {
                    task: i,
                    client: outcome.client,
                    samples: outcome.samples_processed,
                    weights: outcome.weights,
                    delta: outcome.delta,
                })
                // The update drops here — nothing outlives its absorb.
            },
        )?;
        sink.finish()?;

        self.phase = Phase::Round(RoundStage::Aggregating);
        Ok(replies.into_iter().flatten().collect())
    }

    /// Closes the round: notifies the cohort, clears the wire, and
    /// returns to standby with the round counter advanced.
    ///
    /// Transitions `ROUND(aggregating) → STANDBY`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when not in the aggregating stage.
    pub fn finish_round(&mut self) -> Result<()> {
        self.expect(Phase::Round(RoundStage::Aggregating), "finish_round")?;
        let round = self.round;
        let notify_at = self.clock.now() + 1;
        for &client in &self.admitted {
            self.transport
                .send_down(client, notify_at, CoordinatorMessage::EndRound { round });
            self.stats.messages_down += 1;
        }
        self.clock.advance_to(notify_at);
        for (client, msg) in self.transport.recv_down(notify_at) {
            self.cohort
                .handle(client, &msg, notify_at, &mut *self.transport);
        }
        self.transport.clear();
        self.admitted.clear();
        self.clock.reset();
        self.round += 1;
        self.phase = Phase::Standby;
        Ok(())
    }

    /// Permanently shuts the coordinator down.
    ///
    /// Transitions `STANDBY → FINISHED`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when a round is in progress (or the
    /// coordinator is already finished).
    pub fn shutdown(&mut self) -> Result<()> {
        self.expect(Phase::Standby, "shutdown")?;
        self.phase = Phase::Finished;
        Ok(())
    }

    /// Serializes the coordinator's between-round state (phase, round
    /// counter, protocol telemetry). Rounds are atomic with respect to
    /// checkpoints — the wire is always empty and the clock at zero
    /// when an algorithm checkpoints — so this is the *complete*
    /// coordinator state.
    pub fn checkpoint_value(&self) -> Value {
        serde_json::json!({
            "phase": format!("{}", self.phase),
            "round": self.round,
            "stats": self.stats,
        })
    }

    /// Decodes state captured by [`Coordinator::checkpoint_value`]
    /// without touching any coordinator, so a caller restoring several
    /// components can validate all of them before committing one.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on a malformed checkpoint or one taken
    /// mid-round (which the runtime never produces).
    pub fn decode_checkpoint(state: &Value) -> Result<CoordinatorCheckpoint> {
        let phase: String = crate::driver::field(state, "phase")?;
        let phase = match phase.as_str() {
            "standby" => Phase::Standby,
            "finished" => Phase::Finished,
            other => {
                return Err(SimError::snapshot(format!(
                    "field `phase`: coordinator checkpoint taken mid-round (phase `{other}`)"
                )))
            }
        };
        Ok(CoordinatorCheckpoint {
            phase,
            round: crate::driver::field(state, "round")?,
            stats: crate::driver::field(state, "stats")?,
        })
    }

    /// Installs a decoded checkpoint: between-round state is restored
    /// and any wire or clock residue cleared.
    pub fn install_checkpoint(&mut self, checkpoint: CoordinatorCheckpoint) {
        self.phase = checkpoint.phase;
        self.round = checkpoint.round;
        self.stats = checkpoint.stats;
        self.admitted.clear();
        self.transport.clear();
        self.clock.reset();
    }
}
