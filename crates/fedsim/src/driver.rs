//! The one round spine every federated method runs on.
//!
//! FedTrans and the four baselines differ in *what* a round computes,
//! not in how a round is run. [`Runner`] owns everything they share —
//! the shard source, the [`DeviceTrace`], the [`Coordinator`], the
//! selection RNG stream, the round counter and the cost/telemetry
//! ledger ([`Accumulator`]) — and is the single implementor of
//! [`Algorithm`], the interface the scenario harness drives. A method
//! plugs in through [`Method`] and supplies only what differs:
//!
//! * [`Method::round`] — how the admitted clients become
//!   [`TrainTask`]s, a model table and an [`UpdateSink`]; how the
//!   training replies are charged to the ledger; and the server update
//!   (or suite mutation) the folded aggregate drives;
//! * [`Method::evaluate`] — per-client evaluation;
//! * [`Method::suite`] — the model-suite summary of the report;
//! * [`Method::checkpoint`] / [`Method::restore`] — its own checkpoint
//!   block.
//!
//! The runner writes and checks the checkpoint envelope once: `kind`,
//! `round`, `rng`, `ledger`, `coordinator`, then the method's block
//! under `method`. Restore is all-or-nothing: every field is decoded
//! into locals first and committed only after the last fallible step,
//! so a rejected checkpoint leaves the runner exactly as it was.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{DeError, Deserialize, Serialize, Value};

use ft_data::ShardSource;
use ft_model::CellModel;
use ft_tensor::series;

use crate::attack::AdversityConfig;
use crate::coordinator::{Coordinator, RoundOptions, TrainReply};
use crate::costs::CostMeter;
use crate::device::DeviceTrace;
use crate::faults::FaultConfig;
use crate::metrics::{box_stats, mean};
use crate::report::{RoundReport, RunReport};
use crate::sink::UpdateSink;
use crate::trainer::{client_seed, LocalTrainConfig, TrainTask};
use crate::{select, Result, SimError};

/// A federated training method driven round-by-round.
///
/// Contract for checkpoint/resume: `checkpoint()` captures **all**
/// mutable state that influences future rounds and the final report
/// (model weights, trackers, cost meters, RNG streams). Restoring that
/// state into a freshly constructed instance of the same configuration
/// and continuing must produce a final [`RunReport`] byte-identical to
/// an uninterrupted run — the property the harness tests enforce.
pub trait Algorithm {
    /// Short method name for reports and logs (e.g. `"fedtrans"`).
    fn name(&self) -> &'static str;

    /// Number of rounds completed so far.
    fn round(&self) -> u32;

    /// Runs one round and returns its telemetry.
    ///
    /// # Errors
    ///
    /// Propagates training and aggregation errors.
    fn step(&mut self) -> Result<RoundReport>;

    /// Produces the full report for the rounds run so far. Must be
    /// callable repeatedly (it evaluates, but does not consume state).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    fn report(&mut self) -> Result<RunReport>;

    /// Serializes the complete mutable round state.
    fn checkpoint(&self) -> Value;

    /// Restores state captured by [`Algorithm::checkpoint`] into this
    /// instance (which must have been built from the same scenario
    /// configuration). A rejected checkpoint leaves the instance
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::Snapshot`] on a malformed or
    /// mismatched checkpoint.
    fn restore(&mut self, state: &Value) -> Result<()>;

    /// Runs rounds until `total_rounds` have completed, then reports.
    /// `total_rounds` is absolute: a restored instance continues from
    /// its checkpointed round.
    ///
    /// # Errors
    ///
    /// Propagates step and evaluation errors.
    fn run_to(&mut self, total_rounds: usize) -> Result<RunReport> {
        while (self.round() as usize) < total_rounds {
            self.step()?;
        }
        self.report()
    }
}

/// How a run executes, fixed when the runner is built: the coordinator
/// round options (thread budget, protocol timing) and the adversarial
/// fleet model (byzantine clients, availability churn, concept drift).
/// The default is the inert fleet under the built-in timing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunContext {
    /// Coordinator round options.
    pub options: RoundOptions,
    /// Adversarial fleet model.
    pub adversity: AdversityConfig,
}

/// The configuration every method shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpineConfig {
    /// Run seed: the coordinator's fault/transport hashes and the
    /// per-round client training seeds derive from it.
    pub seed: u64,
    /// Seed of the runner's own RNG stream (participant selection and
    /// whatever the method draws through [`Round::rng`]).
    pub rng_seed: u64,
    /// Client dropout / straggler injection.
    pub faults: FaultConfig,
    /// Clients invited per round.
    pub clients_per_round: usize,
    /// Local training hyperparameters.
    pub local: LocalTrainConfig,
}

/// Run bookkeeping shared by all methods: costs, round history,
/// accuracy curve, and per-client round times. Serialized as a unit
/// into every checkpoint, the round times (one a participant, so the
/// one part that grows with the fleet) as an [`ft_tensor::series`]
/// block.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    /// Cost meter (MACs / bytes / rounds).
    pub cost: CostMeter,
    /// Per-round telemetry.
    pub history: Vec<RoundReport>,
    /// `(PMACs, accuracy)` checkpoints.
    pub curve: Vec<(f64, f32)>,
    /// Per-participant round completion times.
    pub client_times: Vec<f32>,
}

impl Serialize for Accumulator {
    fn to_value(&self) -> Value {
        serde_json::json!({
            "cost": self.cost,
            "history": self.history,
            "curve": self.curve,
            "client_times": series::to_value(&[self.client_times.len()], &self.client_times),
        })
    }
}

impl Deserialize for Accumulator {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        fn decode<T>(
            value: &Value,
            key: &str,
            de: impl FnOnce(&Value) -> std::result::Result<T, DeError>,
        ) -> std::result::Result<T, DeError> {
            let v = value
                .get(key)
                .ok_or_else(|| DeError::new(format!("Accumulator: missing field `{key}`")))?;
            de(v).map_err(|e| e.within(key))
        }
        let client_times = decode(value, "client_times", |v| {
            let (shape, data) = series::from_value(v)?;
            if shape.rank() != 1 {
                return Err(DeError::new(format!("expected one row, got shape {shape}")));
            }
            Ok(data)
        })?;
        Ok(Accumulator {
            cost: decode(value, "cost", CostMeter::from_value)?,
            history: decode(value, "history", Vec::from_value)?,
            curve: decode(value, "curve", Vec::from_value)?,
            client_times,
        })
    }
}

impl Accumulator {
    /// Records one participant's training and transfer. `elapsed_s` is
    /// the client's wall-clock round time as reported by the
    /// coordinator's training reply (compute + transfer, already scaled
    /// by any straggler throttling); it is echoed back for convenience
    /// so callers can fold it into the round maximum.
    pub fn record_participant(
        &mut self,
        model_macs: u64,
        param_count: usize,
        samples: u64,
        elapsed_s: f64,
    ) -> f64 {
        self.cost.record_local_training(model_macs, samples);
        self.cost.record_model_transfer(param_count as u64);
        self.client_times.push(elapsed_s as f32);
        elapsed_s
    }

    /// Charges every reply at the `(forward MACs, parameter count)`
    /// `cost_of` prices it at and returns the slowest participant's
    /// round time — the accounting of every method whose tasks map
    /// one-to-one onto participants.
    pub fn charge(
        &mut self,
        replies: &[TrainReply],
        cost_of: impl Fn(&TrainReply) -> (u64, usize),
    ) -> f64 {
        replies.iter().fold(0.0f64, |slowest, r| {
            let (macs, params) = cost_of(r);
            slowest.max(self.record_participant(macs, params, r.samples, r.elapsed_s))
        })
    }

    /// Closes round `round` with its telemetry.
    fn finish_round(&mut self, round: u32, outcome: &RoundOutcome) {
        self.cost.finish_round();
        self.history.push(RoundReport {
            round,
            mean_loss: outcome.mean_loss,
            participants: outcome.participants,
            num_models: outcome.num_models,
            transformed: outcome.transformed,
            cumulative_pmacs: self.cost.train_pmacs(),
            round_time_s: outcome.round_time_s,
        });
    }

    /// Builds the report from per-client evaluation results and the
    /// method's suite summary.
    fn report(
        &self,
        per_client_accuracy: Vec<f32>,
        per_client_model: Vec<usize>,
        suite: Suite,
    ) -> RunReport {
        RunReport {
            final_accuracy: box_stats(&per_client_accuracy),
            rounds: self.history.clone(),
            per_client_accuracy,
            per_client_model,
            pmacs: self.cost.train_pmacs(),
            network_mb: self.cost.network_mb(),
            storage_mb: suite.storage_mb,
            model_archs: suite.archs,
            model_macs: suite.macs,
            accuracy_curve: self.curve.clone(),
            client_times_s: self.client_times.clone(),
        }
    }
}

/// The fleet a method trains and evaluates on.
pub struct Fleet<'a, D> {
    /// The shard source.
    pub data: &'a D,
    /// Per-client device profiles.
    pub devices: &'a DeviceTrace,
}

/// One open round as a method sees it: the admitted cohort, the fleet,
/// the runner's RNG stream and ledger, and the training phase.
pub struct Round<'a, D: ShardSource> {
    /// Round index (0-based).
    pub round: u32,
    /// The run seed.
    pub seed: u64,
    /// Clients admitted at rendezvous, in invitation order.
    pub participants: &'a [usize],
    /// The fleet.
    pub fleet: Fleet<'a, D>,
    /// The runner's serial RNG stream (selection has already drawn).
    pub rng: &'a mut StdRng,
    /// The run ledger replies are charged to.
    pub ledger: &'a mut Accumulator,
    coordinator: &'a mut Coordinator,
    local: &'a LocalTrainConfig,
}

impl<D: ShardSource> Round<'_, D> {
    /// The stateless training seed of `client` this round
    /// ([`client_seed`] over `seed + round`).
    pub fn client_seed(&self, client: usize) -> u64 {
        client_seed(self.seed.wrapping_add(self.round as u64), client)
    }

    /// Runs the training phase: dispatches `tasks` against the model
    /// table `models`, folds every delivered update into `sink` in task
    /// order, and returns the scalar replies in task order (see
    /// [`Coordinator::train`]).
    ///
    /// # Errors
    ///
    /// Propagates protocol, training and sink errors.
    pub fn train(
        &mut self,
        tasks: Vec<TrainTask>,
        models: &[CellModel],
        sink: &mut dyn UpdateSink,
    ) -> Result<Vec<TrainReply>> {
        self.coordinator
            .train(tasks, models, self.fleet.data, self.local, sink)
    }
}

/// What a method reports back from one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// Participants that trained.
    pub participants: usize,
    /// Mean training loss over the round's replies.
    pub mean_loss: f32,
    /// Size of the model suite after the round.
    pub num_models: usize,
    /// Whether the suite changed this round.
    pub transformed: bool,
    /// Synchronous round completion time, seconds.
    pub round_time_s: f64,
}

/// Mean training loss over a round's replies, in reply order.
pub fn mean_loss(replies: &[TrainReply]) -> f32 {
    let losses: Vec<f32> = replies.iter().map(|r| r.avg_loss).collect();
    mean(&losses)
}

/// The model-suite summary a report carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Architecture summary of every model/level.
    pub archs: Vec<String>,
    /// Forward MACs per sample of every model/level.
    pub macs: Vec<u64>,
    /// Server storage footprint in MB.
    pub storage_mb: f64,
}

/// What one federated method supplies to the shared [`Runner`].
pub trait Method {
    /// The shard source the method trains on.
    type Data: ShardSource;

    /// Short method name for reports and logs. It is also the `kind`
    /// tag of the checkpoint envelope: a runner only restores
    /// checkpoints written under the same name.
    fn name(&self) -> &'static str;

    /// The method's share of one round, between rendezvous and
    /// `finish_round`: plan the admitted clients' tasks, model table
    /// and sink, run [`Round::train`] exactly once, charge the replies
    /// to [`Round::ledger`], and apply the server update.
    ///
    /// # Errors
    ///
    /// Propagates training, aggregation and model-surgery errors.
    fn round(&mut self, cx: &mut Round<'_, Self::Data>) -> Result<RoundOutcome>;

    /// Per-client accuracy and the model (suite index / width level /
    /// ensemble size) each client was evaluated on.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    fn evaluate(&self, fleet: Fleet<'_, Self::Data>) -> Result<(Vec<f32>, Vec<usize>)>;

    /// The current suite summary.
    fn suite(&self) -> Suite;

    /// The method's own checkpoint block.
    fn checkpoint(&self) -> Value;

    /// Restores a block written by [`Method::checkpoint`]. Must decode
    /// and validate everything before mutating `self`: on error the
    /// method is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::Snapshot`] on a malformed or
    /// mismatched block.
    fn restore(&mut self, block: &Value) -> Result<()>;
}

/// The generic round runner: owns the state and the loop all methods
/// share, and drives one [`Method`] through it.
pub struct Runner<M: Method> {
    method: M,
    data: M::Data,
    devices: DeviceTrace,
    cfg: SpineConfig,
    eval_every: usize,
    coordinator: Coordinator,
    rng: StdRng,
    round: u32,
    ledger: Accumulator,
}

impl<M: Method> Runner<M> {
    /// Wires `method` to its fleet under the default [`RoundOptions`]
    /// and the inert adversity model.
    pub fn new(method: M, data: M::Data, devices: DeviceTrace, cfg: SpineConfig) -> Self {
        Runner {
            method,
            coordinator: Coordinator::new(cfg.seed, cfg.faults, devices.clone()),
            rng: StdRng::seed_from_u64(cfg.rng_seed),
            data,
            devices,
            cfg,
            eval_every: 0,
            round: 0,
            ledger: Accumulator::default(),
        }
    }

    /// Installs the run context every round executes under.
    #[must_use]
    pub fn with_context(mut self, context: RunContext) -> Self {
        self.coordinator.set_options(context.options);
        self.coordinator.set_adversity(context.adversity);
        self
    }

    /// Records a `(cost, accuracy)` point every `rounds` rounds (0
    /// disables) — the Fig. 7 cost-to-accuracy series.
    #[must_use]
    pub fn with_eval_every(mut self, rounds: usize) -> Self {
        self.eval_every = rounds;
        self
    }

    /// The method's server-side state (models, trackers).
    pub fn method(&self) -> &M {
        &self.method
    }

    fn fleet(&self) -> Fleet<'_, M::Data> {
        Fleet {
            data: &self.data,
            devices: &self.devices,
        }
    }
}

impl<M: Method> Algorithm for Runner<M> {
    fn name(&self) -> &'static str {
        self.method.name()
    }

    fn round(&self) -> u32 {
        self.round
    }

    fn step(&mut self) -> Result<RoundReport> {
        // Selection consumes the RNG stream; the rendezvous that
        // follows consumes none, so dropout emerges from the message
        // exchange alone.
        let invited = select::uniform(
            &mut self.rng,
            self.data.num_clients(),
            self.cfg.clients_per_round,
        );
        let participants = self.coordinator.begin_round(self.round, &invited)?;
        let outcome = self.method.round(&mut Round {
            round: self.round,
            seed: self.cfg.seed,
            participants: &participants,
            fleet: Fleet {
                data: &self.data,
                devices: &self.devices,
            },
            rng: &mut self.rng,
            ledger: &mut self.ledger,
            coordinator: &mut self.coordinator,
            local: &self.cfg.local,
        })?;
        self.coordinator.finish_round()?;
        self.ledger.finish_round(self.round, &outcome);
        self.round += 1;

        if self.eval_every > 0 && (self.round as usize).is_multiple_of(self.eval_every) {
            let (accs, _) = self.method.evaluate(self.fleet())?;
            self.ledger
                .curve
                .push((self.ledger.cost.train_pmacs(), mean(&accs)));
        }
        // `finish_round` above just pushed this entry.
        Ok(self.ledger.history.last().expect("just pushed").clone())
    }

    fn report(&mut self) -> Result<RunReport> {
        let (accs, models) = self.method.evaluate(self.fleet())?;
        Ok(self.ledger.report(accs, models, self.method.suite()))
    }

    fn checkpoint(&self) -> Value {
        // The blocks built here move into the envelope; `json!` would
        // copy each one.
        Value::Object(vec![
            ("kind".to_owned(), self.method.name().to_value()),
            ("round".to_owned(), self.round.to_value()),
            ("rng".to_owned(), rng_to_value(&self.rng)),
            ("ledger".to_owned(), self.ledger.to_value()),
            (
                "coordinator".to_owned(),
                self.coordinator.checkpoint_value(),
            ),
            ("method".to_owned(), self.method.checkpoint()),
        ])
    }

    fn restore(&mut self, state: &Value) -> Result<()> {
        let kind: String = field(state, "kind")?;
        if kind != self.method.name() {
            return Err(SimError::snapshot(format!(
                "field `kind`: checkpoint is for `{kind}`, runner is `{}`",
                self.method.name()
            )));
        }
        let round: u32 = field(state, "round")?;
        let rng = rng_from_value(raw(state, "rng")?).map_err(|e| within("rng", e))?;
        let ledger: Accumulator = field(state, "ledger")?;
        let coordinator = Coordinator::decode_checkpoint(raw(state, "coordinator")?)
            .map_err(|e| within("coordinator", e))?;
        // The method block goes last among the fallible steps: it is
        // all-or-nothing itself, so nothing has been written when it
        // fails and nothing can fail after it succeeds.
        self.method
            .restore(raw(state, "method")?)
            .map_err(|e| within("method", e))?;
        self.round = round;
        self.rng = rng;
        self.ledger = ledger;
        self.coordinator.install_checkpoint(coordinator);
        Ok(())
    }
}

/// Borrows a required field of a checkpoint object undecoded.
fn raw<'a>(state: &'a Value, key: &str) -> Result<&'a Value> {
    state
        .get(key)
        .ok_or_else(|| SimError::snapshot(format!("missing checkpoint field `{key}`")))
}

/// Prefixes a nested snapshot error with the envelope field it came
/// from, so a rejection always names the field.
fn within(key: &str, e: SimError) -> SimError {
    match e {
        SimError::Snapshot { detail } => SimError::snapshot(format!("field `{key}`: {detail}")),
        other => other,
    }
}

/// Reads a required field out of a checkpoint object.
///
/// # Errors
///
/// Returns [`crate::SimError::Snapshot`] when the field is missing or
/// has the wrong shape.
pub fn field<T: Deserialize>(state: &Value, key: &str) -> Result<T> {
    T::from_value(raw(state, key)?).map_err(|e| SimError::snapshot(e.within(key).message()))
}

/// Checks a checkpointed model's layer geometry
/// ([`CellModel::validate`]): a hostile block is a snapshot error naming
/// field `key`, not an index panic on the model's first pass.
///
/// # Errors
///
/// Returns [`crate::SimError::Snapshot`] naming `key` and the first
/// layer that does not hold together.
pub fn validate_model(key: &str, model: &CellModel) -> Result<()> {
    model
        .validate()
        .map_err(|e| SimError::snapshot(format!("field `{key}`: {e}")))
}

/// Encodes an RNG state as four 16-hex-digit words (JSON numbers stop
/// being exact at 2^53; xoshiro state words use all 64 bits).
fn rng_to_value(rng: &StdRng) -> Value {
    Value::Array(
        rng.state()
            .iter()
            .map(|w| Value::String(format!("{w:016x}")))
            .collect(),
    )
}

/// Decodes an RNG state written by [`rng_to_value`].
fn rng_from_value(value: &Value) -> Result<StdRng> {
    let words = value
        .as_array()
        .ok_or_else(|| SimError::snapshot("rng state: expected array"))?;
    if words.len() != 4 {
        return Err(SimError::snapshot("rng state: expected 4 words"));
    }
    let mut s = [0u64; 4];
    for (slot, w) in s.iter_mut().zip(words) {
        let hex = w
            .as_str()
            .ok_or_else(|| SimError::snapshot("rng state: expected hex string"))?;
        *slot = u64::from_str_radix(hex, 16)
            .map_err(|e| SimError::snapshot(format!("rng state: {e}")))?;
    }
    Ok(StdRng::from_state(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn rng_state_round_trips_through_value() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..13 {
            rng.next_u64();
        }
        let v = rng_to_value(&rng);
        let mut back = rng_from_value(&v).unwrap();
        let mut orig = rng;
        for _ in 0..50 {
            assert_eq!(orig.next_u64(), back.next_u64());
        }
    }

    #[test]
    fn field_reports_missing_keys() {
        let state = Value::Object(vec![("present".into(), Value::Number(3.0))]);
        assert_eq!(field::<u32>(&state, "present").unwrap(), 3);
        assert!(field::<u32>(&state, "absent").is_err());
    }

    fn outcome(round_time_s: f64) -> RoundOutcome {
        RoundOutcome {
            participants: 1,
            mean_loss: 1.5,
            num_models: 1,
            transformed: false,
            round_time_s,
        }
    }

    #[test]
    fn accumulator_tracks_costs_and_history() {
        let mut acc = Accumulator::default();
        let t = acc.record_participant(1000, 500, 100, 2.5);
        assert!((t - 2.5).abs() < 1e-12);
        let slowed = acc.record_participant(1000, 500, 100, 4.0 * t);
        assert!((slowed - 4.0 * t).abs() < 1e-9);
        acc.finish_round(0, &outcome(t));
        assert_eq!(acc.history.len(), 1);
        assert!(acc.cost.train_macs() > 0);
        let suite = Suite {
            archs: vec!["m".into()],
            macs: vec![1000],
            storage_mb: 0.1,
        };
        let report = acc.report(vec![0.5], vec![0], suite);
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.final_accuracy.mean, 0.5);
    }

    #[test]
    fn accumulator_serde_round_trips() {
        let mut acc = Accumulator::default();
        let t = acc.record_participant(2000, 700, 50, 1.25);
        acc.finish_round(0, &outcome(t));
        acc.curve.push((0.125, 0.5));
        let json = serde_json::to_string(&acc).unwrap();
        let back: Accumulator = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.cost, acc.cost);
        assert_eq!(back.client_times, acc.client_times);
    }
}
