//! The message-driven coordinator runtime.
//!
//! The shape of a production federated-learning *service*: an explicit
//! state machine (`STANDBY → ROUND(selecting → aggregating)`) that talks
//! to participants only through typed messages over a pluggable
//! [`Transport`], on a lock-step virtual clock (a tick count). One pump
//! carries every message: up to the round's protocol state, which reacts
//! to each in one handler, and down to the simulated [`Cohort`].
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
//! 2. **Training** — [`Coordinator::train`] prices every task from the
//!    round manifest, dispatches [`CoordinatorMessage::StartTrainingRound`]
//!    and collects [`ClientMessage::EndTrainingRound`] announcements
//!    whose arrival tick is the device's simulated round time — so
//!    stragglers are simply *late*. [`ClientMessage::Heartbeat`]s keep
//!    slow devices alive; one silent past the heartbeat deadline is reaped.
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
//! round outcome. Faults emerge from the stateless hashes of
//! [`crate::faults::FaultConfig`], so reports are byte-identical at any
//! thread count, across kill/resume, and under any delivery permutation.

pub mod clock;
#[cfg(test)]
mod explore;
pub mod message;
pub mod participant;
mod protocol;
pub mod transport;

use serde::{Deserialize, Serialize, Value};

use ft_data::{ShardPlan, ShardSource};
use ft_model::CellModel;

use crate::attack::AdversityConfig;
use crate::device::DeviceTrace;
use crate::faults::FaultConfig;
use crate::sink::{ClientUpdate, RoundManifest, TaskSpec, UpdateSink};
use crate::trainer::{LocalTrainConfig, TrainTask};
use crate::{Result, SimError};

use clock::ticks_for_seconds;
pub use message::{ClientMessage, CoordinatorMessage, RendezvousReply};
pub use participant::{Behavior, Cohort};
use protocol::{Priced, Protocol};
pub use transport::{DeliveryOrder, InMemoryTransport, Transport};

/// Salt decorrelating the transport's delivery-order seed from the run
/// seed proper (which keys selection, data, and fault hashes).
const ORDER_SEED_SALT: u64 = 0xDE11_0E2D_E2A1_5EED;

/// Stage of an in-progress round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundStage {
    /// Inviting and admitting participants (rendezvous); `train` runs
    /// from here.
    Selecting,
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
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Standby => write!(f, "standby"),
            Phase::Round(RoundStage::Selecting) => write!(f, "round/selecting"),
            Phase::Round(RoundStage::Aggregating) => write!(f, "round/aggregating"),
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

    /// Refuses a knob the virtual clock cannot hold
    /// ([`clock::MAX_SECONDS`]), naming it.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] naming the first such knob.
    pub fn check(&self) -> Result<()> {
        for (name, seconds) in [
            ("rendezvous_deadline_s", self.rendezvous_deadline_s),
            ("heartbeat_interval_s", self.heartbeat_interval_s),
            ("heartbeat_deadline_s", self.heartbeat_deadline_s),
        ] {
            if !clock::holds(seconds) {
                return Err(SimError::BadConfig {
                    detail: format!(
                        "{name} ({seconds} s) is past the virtual clock's {} s",
                        clock::MAX_SECONDS
                    ),
                });
            }
        }
        Ok(())
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

/// The coordinator: owns the virtual clock, the transport, the
/// simulated cohort and the round's protocol state.
pub struct Coordinator {
    now: u64,
    transport: Box<dyn Transport>,
    cohort: Cohort,
    opts: RoundOptions,
    adversity: AdversityConfig,
    seed: u64,
    protocol: Protocol,
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
            now: 0,
            transport,
            cohort: Cohort::new(seed, faults, devices),
            opts: RoundOptions::default(),
            adversity: AdversityConfig::default(),
            seed,
            protocol: Protocol::default(),
        }
    }

    /// The current lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.protocol.phase()
    }

    /// The round the coordinator will run (or is running) next.
    pub fn round(&self) -> u32 {
        self.protocol.round()
    }

    /// Accumulated protocol telemetry.
    pub fn stats(&self) -> &CoordinatorStats {
        self.protocol.stats()
    }

    /// Replaces the round options (scenario timing knobs).
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

    /// Runs the wire: every event at or before tick `until`, and past
    /// it while the protocol awaits a deadline. A step advances to the
    /// next delivery or deadline, hands the devices' messages to the
    /// cohort and the coordinator's to the protocol (sending its
    /// replies a tick later), then lets the protocol act on its deadlines.
    fn pump(&mut self, until: u64) {
        loop {
            let deadline = self.protocol.next_deadline();
            let next = self
                .transport
                .next_delivery()
                .into_iter()
                .chain(deadline)
                .min();
            let Some(next) = next.filter(|&t| t <= until || deadline.is_some()) else {
                break;
            };
            self.now = self.now.max(next);
            let now = self.now;
            for (client, msg) in self.transport.recv_down(now) {
                self.cohort.handle(client, &msg, now, &mut *self.transport);
            }
            for (client, msg) in self.transport.recv_up(now) {
                if let Some(reply) = self.protocol.on_message(now, client, msg) {
                    self.transport.send_down(client, now + 1, reply);
                }
            }
            self.protocol.on_tick(now);
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
    /// not the coordinator's next round; [`SimError::BadConfig`] when a
    /// timing knob is past the virtual clock ([`RoundOptions::check`]).
    pub fn begin_round(&mut self, round: u32, invited: &[usize]) -> Result<Vec<usize>> {
        self.protocol.expect(Phase::Standby, "begin_round")?;
        self.opts.check()?;
        if round != self.protocol.round() {
            return Err(SimError::protocol(format!(
                "begin_round({round}) out of sequence: coordinator is at round {}",
                self.protocol.round()
            )));
        }
        self.now = 0;
        self.transport.clear();
        let deadline = 1 + ticks_for_seconds(self.opts.rendezvous_deadline_s);
        self.protocol.begin(invited, deadline);
        self.cohort.on_round_start(round, 0, &mut *self.transport);
        for &client in invited {
            self.transport
                .send_down(client, 1, CoordinatorMessage::Invite { round });
        }
        self.pump(deadline);
        Ok(self.protocol.admitted())
    }

    /// Runs the training phase as a **streaming fold**, in two stages.
    ///
    /// First the protocol timeline: every task is priced from the
    /// round's *manifest* (sample counts are a pure function of config
    /// and shard size, [`crate::trainer::expected_samples`]) and
    /// dispatched as one slim [`CoordinatorMessage::StartTrainingRound`]
    /// (a model *index* into `models`, never a weight payload); the wire
    /// runs until every task has landed or been reaped, so the delivered
    /// set and all telemetry are decided before any weights exist.
    ///
    /// Then the fold, as one pipelined pool job
    /// ([`crate::exec::try_stream_map`]): lanes train delivered tasks
    /// while at most twice the lane count are unabsorbed, and whichever
    /// lane completes the next task in line absorbs it into `sink` —
    /// **in task order**, overlapping later tasks' training — and drops
    /// it. Peak memory is O(in-flight), not O(cohort), and the fold is
    /// bit-identical at any thread count and delivery permutation.
    ///
    /// Replies come back **in task order**; a reaped device's task is
    /// simply absent. The sink sees `begin_round → absorb × delivered
    /// → finish` exactly once, even for an empty round. Transitions
    /// `selecting → aggregating`.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] when not in the selecting stage or when a
    /// task names a client outside the admitted cohort;
    /// [`SimError::NoSuchClient`] for an out-of-range client index;
    /// [`SimError::BadConfig`] for an out-of-range model index or a task
    /// priced past the virtual clock ([`clock::MAX_SECONDS`]);
    /// training and sink errors propagate.
    pub fn train<S: ShardSource + ?Sized>(
        &mut self,
        tasks: Vec<TrainTask>,
        models: &[CellModel],
        shards: &S,
        cfg: &LocalTrainConfig,
        sink: &mut dyn UpdateSink,
    ) -> Result<Vec<TrainReply>> {
        self.protocol
            .expect(Phase::Round(RoundStage::Selecting), "train")?;
        let round = self.protocol.round();
        for t in &tasks {
            if t.client >= shards.num_clients() {
                return Err(SimError::NoSuchClient {
                    index: t.client,
                    clients: shards.num_clients(),
                });
            }
            if !self.protocol.is_admitted(t.client) {
                return Err(SimError::protocol(format!(
                    "train task for client {} which was not admitted to round {round}",
                    t.client
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
        // Price every task from the manifest alone, on the pool: the full
        // virtual-clock timeline exists before any training, and each
        // task's plan goes on to its lane.
        let threads = crate::exec::client_threads();
        let cohort = &self.cohort;
        let (priced, plans): (Vec<Priced>, Vec<ShardPlan>) =
            crate::exec::par_map_indexed(tasks.len(), threads, |i| {
                let t = &tasks[i];
                let m = &models[t.model];
                let plan = shards.plan(t.client);
                let samples = crate::trainer::expected_samples(cfg, plan.train_len());
                let elapsed_s = cohort.round_time(
                    round,
                    t.client,
                    m.macs_per_sample(),
                    m.param_count(),
                    samples,
                );
                let priced = Priced {
                    client: t.client,
                    samples,
                    elapsed_s,
                };
                (priced, plan)
            })
            .into_iter()
            .unzip();
        if let Some(t) = priced.iter().find(|t| !clock::holds(t.elapsed_s)) {
            return Err(SimError::BadConfig {
                detail: format!(
                    "client {} is priced at {} simulated seconds for {} samples, past the \
                     virtual clock's {} s: lower `local_steps` or `batch_size`",
                    t.client,
                    t.elapsed_s,
                    t.samples,
                    clock::MAX_SECONDS
                ),
            });
        }
        // Dispatch: slim messages only — the model table stays host-side.
        let start = self.now + 1;
        for (i, t) in tasks.iter().enumerate() {
            let msg = CoordinatorMessage::StartTrainingRound {
                round,
                task: i,
                model: t.model,
                seed: t.seed,
            };
            self.transport.send_down(t.client, start, msg);
        }
        let beat = ticks_for_seconds(self.opts.heartbeat_interval_s);
        let taken =
            self.cohort
                .schedule_training(round, start, &priced, beat, &mut *self.transport);
        let silence = self.opts.heartbeat_deadline_ticks();
        self.protocol.dispatch(start, &priced, &taken, silence);
        self.pump(start);
        let mut replies = self.protocol.replies();

        // The fold: pipeline delivered tasks through the sink in task
        // order, at most `window` updates alive at once.
        let specs: Vec<TaskSpec> = replies
            .iter()
            .map(|r| TaskSpec {
                task: r.task,
                client: r.client,
                samples: r.samples,
            })
            .collect();
        sink.begin_round(&RoundManifest {
            round,
            tasks: &specs,
        })?;
        // Two slots per lane: one result training, one finished and
        // waiting its turn, so a lane that runs ahead of the head does
        // not stall on it (ARCHITECTURE.md, "Verdicts").
        let window = threads.saturating_mul(2).max(1);
        let run_seed = self.seed;
        let attack = self.adversity.attack;
        let drift = self.adversity.drift;
        crate::exec::try_stream_map(
            specs.len(),
            threads,
            window,
            |slot| {
                let spec = &specs[slot];
                let task = &tasks[spec.task];
                // Concept drift first (the whole fleet sees the same
                // schedule), then the byzantine label flip on marked
                // clients — both pure shard views, inert by default.
                let mut shard = drift.apply(round, shards.train_half(&plans[spec.task]));
                if attack.flip_labels && attack.is_byzantine(run_seed, round, spec.client) {
                    let classes = shard.label_dist().len();
                    if classes > 1 {
                        shard = std::borrow::Cow::Owned(
                            shard.into_owned().map_labels(classes, |y| classes - 1 - y),
                        );
                    }
                }
                crate::trainer::train_local(
                    &models[task.model],
                    spec.client,
                    &shard,
                    cfg,
                    task.seed,
                )
            },
            |slot, mut outcome| {
                let reply = &mut replies[slot];
                // Tripwire: the manifest priced this task before it
                // ran; the executed outcome must agree or the timeline
                // the cohort saw was a lie.
                if outcome.samples_processed != reply.samples {
                    return Err(SimError::protocol(format!(
                        "task {} processed {} samples but was priced at {}",
                        reply.task, outcome.samples_processed, reply.samples
                    )));
                }
                reply.avg_loss = outcome.avg_loss;
                reply.avg_acc = outcome.avg_acc;
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
                    task: reply.task,
                    client: outcome.client,
                    samples: outcome.samples_processed,
                    weights: outcome.weights,
                    delta: outcome.delta,
                })
                // The update drops here — nothing outlives its absorb.
            },
        )?;
        sink.finish()?;
        self.protocol.aggregate();
        Ok(replies)
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
        self.protocol
            .expect(Phase::Round(RoundStage::Aggregating), "finish_round")?;
        let round = self.protocol.round();
        let notify_at = self.now + 1;
        for client in self.protocol.notify_end() {
            self.transport
                .send_down(client, notify_at, CoordinatorMessage::EndRound { round });
        }
        self.pump(notify_at);
        self.install(Protocol::install(round + 1, *self.protocol.stats()));
        Ok(())
    }

    /// Serializes the coordinator's between-round state (phase, round
    /// counter, protocol telemetry). Rounds are atomic with respect to
    /// checkpoints — the wire is always empty and the clock at zero
    /// when an algorithm checkpoints — so this is the *complete*
    /// coordinator state.
    pub fn checkpoint_value(&self) -> Value {
        serde_json::json!({
            "phase": format!("{}", self.phase()),
            "round": self.round(),
            "stats": self.stats(),
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
        if phase != "standby" {
            return Err(SimError::snapshot(format!(
                "field `phase`: coordinator checkpoint taken mid-round (phase `{phase}`)"
            )));
        }
        Ok(CoordinatorCheckpoint {
            round: crate::driver::field(state, "round")?,
            stats: crate::driver::field(state, "stats")?,
        })
    }

    /// Installs a decoded checkpoint: between-round state is restored
    /// and any wire or clock residue cleared.
    pub fn install_checkpoint(&mut self, checkpoint: CoordinatorCheckpoint) {
        self.install(Protocol::install(checkpoint.round, checkpoint.stats));
    }

    /// Standby under `protocol`, with an empty wire at tick zero.
    fn install(&mut self, protocol: Protocol) {
        self.protocol = protocol;
        self.transport.clear();
        self.now = 0;
    }
}
