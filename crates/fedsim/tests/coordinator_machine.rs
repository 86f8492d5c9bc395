//! Coordinator protocol tests: the state machine's legal and illegal
//! transitions, emergent dropout and straggling, heartbeat-deadline
//! reaping, Later-then-Accept readmission, forged training results and
//! heartbeats on a hostile wire, and the delivery-permutation property
//! (any within-tick message order yields the same round outcome).

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use ft_data::{DatasetConfig, FederatedDataset};
use ft_fedsim::coordinator::{
    Behavior, ClientMessage, Coordinator, CoordinatorMessage, CoordinatorStats, DeliveryOrder,
    InMemoryTransport, RoundOptions, TrainReply, Transport,
};
use ft_fedsim::device::{DeviceTrace, DeviceTraceConfig};
use ft_fedsim::driver::Accumulator;
use ft_fedsim::roundtime::client_round_time;
use ft_fedsim::sink::DiscardSink;
use ft_fedsim::trainer::{client_seed, LocalTrainConfig, TrainTask};
use ft_fedsim::{FaultConfig, SimError};
use ft_model::CellModel;
use rand::SeedableRng;

const SEED: u64 = 42;

fn fleet(n: usize) -> DeviceTrace {
    DeviceTraceConfig::default().with_num_devices(n).generate()
}

fn dataset(n: usize) -> FederatedDataset {
    DatasetConfig::femnist_like()
        .with_num_clients(n)
        .with_mean_samples(12)
        .generate()
}

fn tiny_model(data: &FederatedDataset) -> CellModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    CellModel::dense(&mut rng, data.input_dim(), &[8], data.num_classes())
}

fn tiny_cfg() -> LocalTrainConfig {
    LocalTrainConfig {
        local_steps: 1,
        batch_size: 8,
        ..Default::default()
    }
}

/// Tasks all downloading entry 0 of a one-model round table.
fn tasks_for(clients: &[usize], round_seed: u64) -> Vec<TrainTask> {
    clients
        .iter()
        .map(|&c| TrainTask {
            client: c,
            model: 0,
            seed: client_seed(round_seed, c),
        })
        .collect()
}

// ---------------------------------------------------------------------
// State machine transitions, table-driven.
// ---------------------------------------------------------------------

/// Every externally observable coordinator phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    Standby,
    Selecting,
    Aggregating,
}

/// Every protocol action a caller can attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Do {
    Begin,
    Train,
    Finish,
}

struct Fixture {
    coord: Coordinator,
    data: FederatedDataset,
    model: CellModel,
    cfg: LocalTrainConfig,
    admitted: Vec<usize>,
}

impl Fixture {
    fn new() -> Self {
        let n = 4;
        let data = dataset(n);
        let model = tiny_model(&data);
        Fixture {
            coord: Coordinator::new(SEED, FaultConfig::default(), fleet(n)),
            data,
            model,
            cfg: tiny_cfg(),
            admitted: Vec::new(),
        }
    }

    /// Drives the coordinator into the given phase via legal actions.
    fn reach(&mut self, at: At) {
        match at {
            At::Standby => {}
            At::Selecting => {
                self.admitted = self.coord.begin_round(0, &[0, 1]).unwrap();
            }
            At::Aggregating => {
                self.admitted = self.coord.begin_round(0, &[0, 1]).unwrap();
                let tasks = tasks_for(&self.admitted, SEED);
                self.coord
                    .train(
                        tasks,
                        std::slice::from_ref(&self.model),
                        self.data.clients(),
                        &self.cfg,
                        &mut DiscardSink,
                    )
                    .unwrap();
            }
        }
    }

    /// Attempts one protocol action, reporting only success/failure.
    fn attempt(&mut self, action: Do) -> Result<(), SimError> {
        match action {
            Do::Begin => {
                let round = self.coord.round();
                self.coord.begin_round(round, &[0, 1]).map(|_| ())
            }
            Do::Train => {
                let tasks = tasks_for(&self.admitted, SEED);
                self.coord
                    .train(
                        tasks,
                        std::slice::from_ref(&self.model),
                        self.data.clients(),
                        &self.cfg,
                        &mut DiscardSink,
                    )
                    .map(|_| ())
            }
            Do::Finish => self.coord.finish_round(),
        }
    }
}

#[test]
fn every_transition_in_the_table_behaves_as_specified() {
    // (phase, action, legal?) — the full protocol matrix. Anything
    // marked illegal must fail with `SimError::Protocol` and leave the
    // coordinator's phase unchanged.
    let table: &[(At, Do, bool)] = &[
        (At::Standby, Do::Begin, true),
        (At::Standby, Do::Train, false),
        (At::Standby, Do::Finish, false),
        (At::Selecting, Do::Begin, false),
        (At::Selecting, Do::Train, true),
        (At::Selecting, Do::Finish, false),
        (At::Aggregating, Do::Begin, false),
        (At::Aggregating, Do::Train, false),
        (At::Aggregating, Do::Finish, true),
    ];
    for &(at, action, legal) in table {
        let mut fx = Fixture::new();
        fx.reach(at);
        let phase_before = fx.coord.phase();
        let got = fx.attempt(action);
        if legal {
            assert!(
                got.is_ok(),
                "{at:?} + {action:?} must be legal, got {got:?}"
            );
        } else {
            match got {
                Err(SimError::Protocol { .. }) => {}
                other => panic!("{at:?} + {action:?} must be a protocol error, got {other:?}"),
            }
            assert_eq!(
                fx.coord.phase(),
                phase_before,
                "a rejected {action:?} must not move the {at:?} machine"
            );
        }
    }
}

#[test]
fn begin_round_enforces_the_round_sequence() {
    let mut c = Coordinator::new(SEED, FaultConfig::default(), fleet(4));
    match c.begin_round(3, &[0]) {
        Err(SimError::Protocol { .. }) => {}
        other => panic!("out-of-sequence round must be rejected, got {other:?}"),
    }
    // The rejection leaves standby intact; the correct round proceeds.
    assert_eq!(c.begin_round(0, &[0]).unwrap(), vec![0]);
}

#[test]
fn train_rejects_tasks_for_unadmitted_clients() {
    let data = dataset(4);
    let model = tiny_model(&data);
    let mut c = Coordinator::new(SEED, FaultConfig::default(), fleet(4));
    c.begin_round(0, &[0, 1]).unwrap();
    let stray = tasks_for(&[2], SEED);
    match c.train(
        stray,
        std::slice::from_ref(&model),
        data.clients(),
        &tiny_cfg(),
        &mut DiscardSink,
    ) {
        Err(SimError::Protocol { .. }) => {}
        other => panic!("unadmitted client must be rejected, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Emergent faults and liveness.
// ---------------------------------------------------------------------

#[test]
fn rendezvous_dropout_matches_the_stateless_fault_hash() {
    let faults = FaultConfig {
        dropout_prob: 0.5,
        ..Default::default()
    };
    let invited: Vec<usize> = (0..24).collect();
    for round in 0..4u32 {
        let mut c = Coordinator::new(SEED, faults, fleet(24));
        // Fast-forward the round counter through empty rounds.
        let no_shards: &[ft_data::ClientData] = &[];
        for r in 0..round {
            c.begin_round(r, &[]).unwrap();
            c.train(Vec::new(), &[], no_shards, &tiny_cfg(), &mut DiscardSink)
                .unwrap();
            c.finish_round().unwrap();
        }
        let admitted = c.begin_round(round, &invited).unwrap();
        // The emergent cohort must admit exactly what the injected
        // fault model used to retain, in invitation order.
        let mut expected = invited.clone();
        expected.retain(|&c| !faults.drops(SEED, round, c));
        assert_eq!(admitted, expected, "round {round}");
        assert_eq!(
            c.stats().rendezvous_dropouts,
            (invited.len() - admitted.len()) as u64
        );
    }
}

#[test]
fn reply_round_times_reproduce_the_straggler_model() {
    let faults = FaultConfig {
        straggler_prob: 0.5,
        straggler_slowdown: 8.0,
        ..Default::default()
    };
    let n = 6;
    let data = dataset(n);
    let model = tiny_model(&data);
    let devices = fleet(n);
    let mut c = Coordinator::new(SEED, faults, devices.clone());
    let admitted = c.begin_round(0, &(0..n).collect::<Vec<_>>()).unwrap();
    assert_eq!(admitted.len(), n, "no dropout configured");
    let replies = c
        .train(
            tasks_for(&admitted, SEED),
            std::slice::from_ref(&model),
            data.clients(),
            &tiny_cfg(),
            &mut DiscardSink,
        )
        .unwrap();
    assert_eq!(replies.len(), n);
    for r in &replies {
        let expected = client_round_time(
            &devices.profile(r.client),
            model.macs_per_sample(),
            model.param_count(),
            r.samples,
        ) * faults.slowdown(SEED, 0, r.client);
        assert_eq!(
            r.elapsed_s.to_bits(),
            expected.to_bits(),
            "client {} round time must be bit-identical to the model",
            r.client
        );
    }
}

#[test]
fn heartbeat_deadline_reaps_a_vanished_device() {
    let n = 4;
    let data = dataset(n);
    let model = tiny_model(&data);
    let mut c = Coordinator::new(SEED, FaultConfig::default(), fleet(n));
    c.cohort_mut().set_behavior(0, 1, Behavior::Vanish);
    let admitted = c.begin_round(0, &[0, 1, 2]).unwrap();
    // A vanishing device still rendezvouses — it dies *after* accepting
    // its training payload, which only the heartbeat deadline catches.
    assert_eq!(admitted, vec![0, 1, 2]);
    let replies = c
        .train(
            tasks_for(&admitted, SEED),
            std::slice::from_ref(&model),
            data.clients(),
            &tiny_cfg(),
            &mut DiscardSink,
        )
        .unwrap();
    let responders: Vec<usize> = replies.iter().map(|r| r.client).collect();
    assert_eq!(responders, vec![0, 2], "the vanished device sends nothing");
    assert_eq!(c.stats().heartbeat_dropouts, 1);
    c.finish_round().unwrap();
    // The reaped device is not blacklisted: the next round readmits it.
    let next = c.begin_round(1, &[1]).unwrap();
    assert_eq!(next, vec![1]);
}

#[test]
fn mid_round_departure_keeps_landed_tasks_and_reaps_open_ones() {
    let n = 4;
    let data = dataset(n);
    let small = tiny_model(&data);
    let big = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        CellModel::dense(&mut rng, data.input_dim(), &[256, 256], data.num_classes())
    };
    let mut c = Coordinator::new(SEED, FaultConfig::default(), fleet(n));

    // Client 1 runs BOTH models this round; its departure falls between
    // the two completion times, so the small-model upload lands while
    // the big-model task goes silent and the deadline reaps it.
    let cfg = tiny_cfg();
    let samples = ft_fedsim::trainer::expected_samples(&cfg, data.client(1).train_len());
    let fast =
        c.cohort_mut()
            .round_time(0, 1, small.macs_per_sample(), small.param_count(), samples);
    let slow = c
        .cohort_mut()
        .round_time(0, 1, big.macs_per_sample(), big.param_count(), samples);
    assert!(
        fast < slow,
        "the big model must take longer ({fast} vs {slow})"
    );
    c.cohort_mut()
        .set_behavior(0, 1, Behavior::Depart((fast + slow) * 0.5));

    let admitted = c.begin_round(0, &[0, 1, 2]).unwrap();
    assert_eq!(
        admitted,
        vec![0, 1, 2],
        "departure is mid-round, not up-front"
    );
    let mut tasks = tasks_for(&admitted, SEED);
    tasks.push(TrainTask {
        client: 1,
        model: 1,
        seed: client_seed(SEED, 1),
    });
    let replies = c
        .train(tasks, &[small, big], data.clients(), &cfg, &mut DiscardSink)
        .unwrap();
    // Task 3 (client 1 on the big model) is the only casualty: its
    // sibling task 1 completed before the departure and still absorbs.
    let landed: Vec<(usize, usize)> = replies.iter().map(|r| (r.task, r.client)).collect();
    assert_eq!(landed, vec![(0, 0), (1, 1), (2, 2)]);
    assert_eq!(
        c.stats().heartbeat_dropouts,
        1,
        "the departed device is reaped once"
    );
    // The round still closes on the partial cohort, and the departed
    // device is not blacklisted: the next round readmits it.
    c.finish_round().unwrap();
    let next = c.begin_round(1, &[1]).unwrap();
    assert_eq!(next, vec![1]);
}

#[test]
fn slow_devices_survive_past_the_deadline_via_heartbeats() {
    let n = 3;
    let data = dataset(n);
    let model = tiny_model(&data);
    let mut c = Coordinator::new(SEED, FaultConfig::default(), fleet(n));
    // Stretch one device far past the heartbeat deadline: its result
    // arrives very late, but periodic heartbeats keep it alive.
    let opts = RoundOptions {
        heartbeat_interval_s: 1.0,
        heartbeat_deadline_s: 4.0,
        ..RoundOptions::default()
    };
    c.set_options(opts);
    c.cohort_mut().set_behavior(0, 2, Behavior::Slow(1000.0));
    let admitted = c.begin_round(0, &[0, 1, 2]).unwrap();
    let replies = c
        .train(
            tasks_for(&admitted, SEED),
            std::slice::from_ref(&model),
            data.clients(),
            &tiny_cfg(),
            &mut DiscardSink,
        )
        .unwrap();
    assert_eq!(replies.len(), 3, "the straggler must not be reaped");
    assert_eq!(c.stats().heartbeat_dropouts, 0);
    assert!(
        c.stats().heartbeats > 0,
        "the straggler heartbeat at least once"
    );
}

#[test]
fn later_then_accept_readmission() {
    let n = 6;
    let data = dataset(n);
    let model = tiny_model(&data);
    let mut c = Coordinator::new(SEED, FaultConfig::default(), fleet(n));
    // Round 0: client 5 begs for admission without an invite. It gets
    // `Later` and stays out of the cohort.
    c.cohort_mut().set_behavior(0, 5, Behavior::Eager);
    let admitted = c.begin_round(0, &[0, 1]).unwrap();
    assert_eq!(admitted, vec![0, 1], "uninvited devices are deferred");
    assert!(c.stats().later_replies >= 1, "the eager device got Later");
    let accepted_before = c.stats().accepted;
    c.train(
        tasks_for(&admitted, SEED),
        std::slice::from_ref(&model),
        data.clients(),
        &tiny_cfg(),
        &mut DiscardSink,
    )
    .unwrap();
    c.finish_round().unwrap();
    // Round 1: the same device is invited and must be admitted.
    let admitted = c.begin_round(1, &[5, 0]).unwrap();
    assert_eq!(admitted, vec![5, 0], "deferred device readmitted in order");
    assert_eq!(c.stats().accepted, accepted_before + 2);
}

// ---------------------------------------------------------------------
// A hostile wire: forged training results.
// ---------------------------------------------------------------------

/// Where a forged message joins the wire.
#[derive(Debug, Clone, Copy)]
enum Inject {
    /// Into the first upward batch of the rendezvous exchange.
    Selection,
    /// Into the upward batch that carries `task`'s honest result, after
    /// it.
    AfterResult(usize),
}

/// An honest FIFO wire that hands the coordinator forged upward
/// messages, all at the `Inject` point, and logs the tick of every
/// upward poll.
struct Hostile {
    honest: InMemoryTransport,
    forged: Vec<(usize, ClientMessage)>,
    at: Inject,
    polls: Arc<Mutex<Vec<u64>>>,
}

impl Transport for Hostile {
    fn send_up(&mut self, from: usize, deliver_at: u64, msg: ClientMessage) {
        self.honest.send_up(from, deliver_at, msg);
    }

    fn send_down(&mut self, to: usize, deliver_at: u64, msg: CoordinatorMessage) {
        self.honest.send_down(to, deliver_at, msg);
    }

    fn recv_up(&mut self, now: u64) -> Vec<(usize, ClientMessage)> {
        self.polls.lock().unwrap().push(now);
        let mut batch = self.honest.recv_up(now);
        let due = batch.iter().any(|(_, msg)| match (self.at, msg) {
            (Inject::Selection, ClientMessage::RendezvousRequest { .. }) => true,
            (Inject::AfterResult(want), ClientMessage::EndTrainingRound { task, .. }) => {
                *task == want
            }
            _ => false,
        });
        if due {
            batch.append(&mut self.forged);
        }
        batch
    }

    fn recv_down(&mut self, now: u64) -> Vec<(usize, CoordinatorMessage)> {
        self.honest.recv_down(now)
    }

    fn next_delivery(&self) -> Option<u64> {
        self.honest.next_delivery()
    }

    fn pending(&self) -> usize {
        self.honest.pending()
    }

    fn clear(&mut self) {
        self.honest.clear();
    }
}

/// What the rest of the run sees of a round: its replies, bit for bit,
/// the ledger charged from them, and its timeline — the ticks the
/// coordinator polled the wire at, every deadline it reaped on
/// included.
#[derive(Debug, PartialEq)]
struct Charged {
    replies: Vec<ReplyDigest>,
    ledger: ft_fedsim::costs::CostMeter,
    slowest_bits: u64,
    polls: Vec<u64>,
}

/// One round over clients 0–3 with `forged` injected at `at`. Tasks
/// 0–3 train the small model, one per client; task 4 trains the big one
/// on client 1. Client 1's small task lands first and its big one
/// later. Client 2 vanishes after taking its task, and client 3 departs
/// before its result, so the 4 s heartbeat deadline reaps both. Client
/// 0 is slow but heartbeats, so it lands last, after the reaps.
fn hostile_round(forged: Vec<(usize, ClientMessage)>, at: Inject) -> (Charged, CoordinatorStats) {
    let n = 5;
    let data = dataset(n);
    let small = tiny_model(&data);
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let big = CellModel::dense(&mut rng, data.input_dim(), &[256, 256], data.num_classes());
    let polls = Arc::new(Mutex::new(Vec::new()));
    let transport = Hostile {
        honest: InMemoryTransport::with_order(DeliveryOrder::Fifo),
        forged,
        at,
        polls: Arc::clone(&polls),
    };
    let mut c =
        Coordinator::with_transport(SEED, FaultConfig::default(), fleet(n), Box::new(transport));
    c.set_options(
        RoundOptions::new()
            .heartbeat_interval_s(1.0)
            .heartbeat_deadline_s(4.0),
    );
    c.cohort_mut().set_behavior(0, 0, Behavior::Slow(1000.0));
    c.cohort_mut().set_behavior(0, 2, Behavior::Vanish);
    c.cohort_mut().set_behavior(0, 3, Behavior::Depart(0.0));
    let admitted = c.begin_round(0, &[0, 1, 2, 3]).unwrap();
    assert_eq!(admitted, vec![0, 1, 2, 3]);
    let mut tasks = tasks_for(&admitted, SEED);
    tasks.push(TrainTask {
        client: 1,
        model: 1,
        seed: client_seed(SEED, 1),
    });
    let models = [small, big];
    let replies = c
        .train(
            tasks,
            &models,
            data.clients(),
            &tiny_cfg(),
            &mut DiscardSink,
        )
        .unwrap();
    let mut ledger = Accumulator::default();
    let slowest = ledger.charge(&replies, |r| {
        let m = &models[usize::from(r.task == 4)];
        (m.macs_per_sample(), m.param_count())
    });
    let charged = Charged {
        replies: replies.iter().map(reply_digest).collect(),
        ledger: ledger.cost,
        slowest_bits: slowest.to_bits(),
        polls: std::mem::take(&mut polls.lock().unwrap()),
    };
    let stats = *c.stats();
    // Every message up is answered, landed, or dropped and counted: one
    // counter each, in every stage of the round.
    assert_eq!(
        stats.messages_up,
        stats.accepted
            + stats.later_replies
            + stats.results
            + stats.rejected_results
            + stats.heartbeats
            + stats.rejected_heartbeats,
        "{stats:?}"
    );
    (charged, stats)
}

/// A training result as a device would announce it.
fn result(round: u32, task: usize, samples: u64) -> ClientMessage {
    ClientMessage::EndTrainingRound {
        round,
        task,
        samples,
        elapsed_s: 0.5,
    }
}

#[test]
fn every_forged_result_is_dropped_and_counted() {
    let (clean, clean_stats) = hostile_round(Vec::new(), Inject::Selection);
    let landed: Vec<(usize, usize)> = clean.replies.iter().map(|r| (r.0, r.1)).collect();
    assert_eq!(
        landed,
        vec![(0, 0), (1, 1), (4, 1)],
        "tasks 2 and 3 are reaped"
    );
    assert_eq!(clean_stats.heartbeat_dropouts, 2);
    assert_eq!(
        clean_stats.rejected_results, 0,
        "an honest wire forges nothing"
    );

    // (case, sender, message, injection point): each case fails exactly
    // one check. Task 0 is open until the last batch; task 1 lands
    // first, while its sibling task 4 is still open; task 2 is never
    // taken; task 3 is reaped before task 0 lands. Client 4 has no task.
    let first = Inject::AfterResult(1);
    let last = Inject::AfterResult(0);
    let cases: &[(&str, usize, ClientMessage, Inject)] = &[
        (
            "before any task exists",
            0,
            result(0, 0, 1),
            Inject::Selection,
        ),
        ("stale round", 0, result(7, 0, 1), first),
        ("task out of range", 0, result(0, 9, 1), first),
        ("sender without a task", 4, result(0, 0, 1), first),
        ("sender of another task", 1, result(0, 0, 1), first),
        ("task its device never took", 2, result(0, 2, 1), first),
        ("duplicate", 1, result(0, 1, 1), first),
        ("reaped task", 3, result(0, 3, 1), last),
        (
            "samples differ from the priced count",
            0,
            result(0, 0, clean.replies[0].2 + 1),
            first,
        ),
    ];
    for (case, sender, msg, at) in cases {
        let (got, stats) = hostile_round(vec![(*sender, msg.clone())], *at);
        assert_eq!(got, clean, "{case}: the honest round must not move");
        let expected = CoordinatorStats {
            rejected_results: 1,
            messages_up: clean_stats.messages_up + 1,
            ..clean_stats
        };
        assert_eq!(stats, expected, "{case}: dropped and counted once");
    }
}

#[test]
fn a_heartbeat_for_another_round_keeps_no_device_alive() {
    let (clean, clean_stats) = hostile_round(Vec::new(), Inject::Selection);
    // Beats in the name of client 2, which vanished after taking its
    // task, arrive with task 1's result, while task 2 is still open.
    let forged = vec![
        (2, ClientMessage::Heartbeat { round: 1 }),
        (2, ClientMessage::Heartbeat { round: 7 }),
    ];
    let (got, stats) = hostile_round(forged, Inject::AfterResult(1));
    assert_eq!(
        got.polls, clean.polls,
        "the vanished device is reaped at the same tick"
    );
    assert_eq!(got, clean);
    let expected = CoordinatorStats {
        rejected_heartbeats: 2,
        messages_up: clean_stats.messages_up + 2,
        ..clean_stats
    };
    assert_eq!(stats, expected, "dropped and counted, not heartbeats");
}

#[test]
fn a_selection_stage_heartbeat_meets_the_training_rules() {
    let (clean, clean_stats) = hostile_round(Vec::new(), Inject::Selection);
    // A beat before any task exists: one for this round is counted and
    // refreshes nothing; one for another round is rejected.
    for (round, heartbeats, rejected_heartbeats) in [(0, 1, 0), (7, 0, 1)] {
        let forged = vec![(0, ClientMessage::Heartbeat { round })];
        let (got, stats) = hostile_round(forged, Inject::Selection);
        assert_eq!(got, clean, "round {round}: the honest round must not move");
        let expected = CoordinatorStats {
            heartbeats: clean_stats.heartbeats + heartbeats,
            rejected_heartbeats,
            messages_up: clean_stats.messages_up + 1,
            ..clean_stats
        };
        assert_eq!(stats, expected, "round {round}: counted once");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any burst of forged results, delivered with the round's last
    /// honest one, is dropped message by message: by then every task
    /// has landed, was never taken or was reaped.
    #[test]
    fn a_burst_of_forged_results_moves_nothing(
        forged in proptest::collection::vec(
            (0usize..5, 0u32..3, 0usize..5, 0u64..100),
            1..8,
        ),
    ) {
        let (clean, clean_stats) = hostile_round(Vec::new(), Inject::Selection);
        let burst: Vec<(usize, ClientMessage)> = forged
            .iter()
            .map(|&(sender, round, task, samples)| (sender, result(round, task, samples)))
            .collect();
        let (got, stats) = hostile_round(burst, Inject::AfterResult(0));
        prop_assert_eq!(got, clean);
        let n = forged.len() as u64;
        let expected = CoordinatorStats {
            rejected_results: n,
            messages_up: clean_stats.messages_up + n,
            ..clean_stats
        };
        prop_assert_eq!(stats, expected);
    }
}

// ---------------------------------------------------------------------
// Delivery-permutation property.
// ---------------------------------------------------------------------

/// One reply's digest: task, client, sample count, loss bits, time bits.
type ReplyDigest = (usize, usize, u64, u32, u64);

fn reply_digest(r: &TrainReply) -> ReplyDigest {
    (
        r.task,
        r.client,
        r.samples,
        r.avg_loss.to_bits(),
        r.elapsed_s.to_bits(),
    )
}

/// A comparable digest of one round's outcome: the admitted cohort and
/// every reply's identity, sample count, loss bits, and time bits.
fn round_outcome(order: DeliveryOrder) -> (Vec<usize>, Vec<ReplyDigest>) {
    let n = 8;
    let faults = FaultConfig {
        dropout_prob: 0.3,
        straggler_prob: 0.3,
        straggler_slowdown: 6.0,
    };
    let data = dataset(n);
    let model = tiny_model(&data);
    let mut c = Coordinator::with_transport(
        SEED,
        faults,
        fleet(n),
        Box::new(InMemoryTransport::with_order(order)),
    );
    // Extra wire noise: an uninvited device rendezvouses mid-selection.
    c.cohort_mut().set_behavior(0, 7, Behavior::Eager);
    let admitted = c.begin_round(0, &(0..7).collect::<Vec<_>>()).unwrap();
    let replies = c
        .train(
            tasks_for(&admitted, SEED),
            std::slice::from_ref(&model),
            data.clients(),
            &tiny_cfg(),
            &mut DiscardSink,
        )
        .unwrap();
    (admitted, replies.iter().map(reply_digest).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_delivery_permutation_yields_the_same_round_outcome(seed in 0u64..1_000_000) {
        let baseline = round_outcome(DeliveryOrder::Fifo);
        prop_assert_eq!(round_outcome(DeliveryOrder::Seeded(seed)), baseline.clone());
        prop_assert_eq!(round_outcome(DeliveryOrder::Lifo), baseline);
    }
}
