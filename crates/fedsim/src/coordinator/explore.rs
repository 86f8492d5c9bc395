//! Exhaustive exploration of [`Protocol`]: every run of three devices
//! (device 2 is never invited) over two rounds with at most two faults,
//! each applied to the k-th message the devices send, checked against
//! invariants written down independently of the protocol's own rules.
//! Nothing trains; a run is a few hundred protocol calls.

use std::collections::BTreeMap;

use super::message::ClientMessage::{self, EndTrainingRound, Heartbeat, RendezvousRequest};
use super::protocol::{Priced, Protocol};
use super::CoordinatorStats;

const INVITED: [usize; 2] = [0, 1];
const DEVICES: usize = 3;
/// The rendezvous deadline, in ticks from the round's start.
const ADMISSION: u64 = 3;
/// Ticks a device with an open task may stay silent.
const SILENCE: u64 = 3;
/// A late message arrives this long after it was sent: past the
/// deadline of whatever it answers.
const LATE: u64 = SILENCE + 2;

#[derive(Debug, Clone, Copy)]
enum Fault {
    Drop,
    Duplicate,
    Delay,
    Restamp(i32),
    /// Also sent under the client id this far along.
    Sender(usize),
    Late,
}

const FAULTS: [Fault; 8] = [
    Fault::Drop,
    Fault::Duplicate,
    Fault::Delay,
    Fault::Restamp(1),
    Fault::Restamp(-1),
    Fault::Sender(1),
    Fault::Sender(2),
    Fault::Late,
];

type Reply = (usize, usize, u64, u64);

/// One run's wire and the model the invariants are checked against.
#[derive(Default)]
struct Run<'a> {
    faults: &'a [(usize, Fault)],
    sent: usize,
    wire: Vec<(u64, usize, ClientMessage)>,
    now: u64,
    round: u32,
    tasks: Vec<Priced>,
    /// Per task: the landed result's seconds.
    landed: Vec<Option<f64>>,
    /// Per device: its last current-round signal and its open tasks.
    last: [u64; DEVICES],
    open: [usize; DEVICES],
    requests: u64,
}

impl Run<'_> {
    fn send(&mut self, at: u64, from: usize, msg: ClientMessage) {
        let fault = self.faults.iter().find(|&&(k, _)| k == self.sent);
        self.sent += 1;
        let mut push = |at, from, msg| self.wire.push((at, from, msg));
        match fault.map(|&(_, f)| f) {
            None => push(at, from, msg),
            Some(Fault::Drop) => {}
            Some(Fault::Duplicate) => {
                push(at, from, msg.clone());
                push(at, from, msg);
            }
            Some(Fault::Delay) => push(at + 1, from, msg),
            Some(Fault::Restamp(d)) => push(at, from, restamp(msg, d)),
            Some(Fault::Sender(step)) => {
                push(at, (from + step) % DEVICES, msg.clone());
                push(at, from, msg);
            }
            Some(Fault::Late) => push(at + LATE, from, msg),
        }
    }

    /// The coordinator's pump: deliver what is due, then act on deadlines.
    fn pump(&mut self, p: &mut Protocol, until: u64) {
        for _ in 0..1000 {
            let deadline = p.next_deadline();
            let next = self.wire.iter().map(|m| m.0).chain(deadline).min();
            let Some(next) = next.filter(|&t| t <= until || deadline.is_some()) else {
                return;
            };
            self.now = self.now.max(next);
            let (due, rest) = std::mem::take(&mut self.wire)
                .into_iter()
                .partition(|m| m.0 <= self.now);
            self.wire = rest;
            for (_, from, msg) in due {
                self.deliver(p, from, msg);
            }
            let before = p.stats().heartbeat_dropouts;
            p.on_tick(self.now);
            let mut due = 0;
            for d in 0..DEVICES {
                if self.open[d] > 0 && self.last[d] + SILENCE <= self.now {
                    assert_eq!(self.last[d] + SILENCE, self.now, "device {d} reaped late");
                    (self.open[d], due) = (0, due + 1);
                }
            }
            let reaped = p.stats().heartbeat_dropouts - before;
            assert_eq!(reaped, due, "reaps at tick {}", self.now);
        }
        panic!("the round does not end");
    }

    fn deliver(&mut self, p: &mut Protocol, from: usize, msg: ClientMessage) {
        let overdue = (0..DEVICES).find(|&d| self.open[d] > 0 && self.last[d] + SILENCE < self.now);
        assert_eq!(overdue, None, "a device outlived its deadline");
        let before = *p.stats();
        p.on_message(self.now, from, msg.clone());
        let after = *p.stats();
        match msg {
            RendezvousRequest { .. } => self.requests += 1,
            Heartbeat { round } => {
                if round == self.round && self.open[from] > 0 {
                    self.last[from] = self.now;
                }
            }
            EndTrainingRound {
                round,
                task,
                elapsed_s,
                ..
            } if after.results > before.results => {
                assert_eq!(round, self.round, "a result for round {round} landed");
                assert_eq!(
                    self.tasks[task].client, from,
                    "task {task} landed from {from}"
                );
                assert!(self.landed[task].is_none(), "task {task} landed twice");
                self.landed[task] = Some(elapsed_s);
                self.last[from] = self.now;
                self.open[from] -= 1;
            }
            EndTrainingRound { .. } => {}
        }
    }

    /// One round; returns its replies as `(task, client, samples, seconds' bits)`.
    fn round(&mut self, p: &mut Protocol) -> Vec<Reply> {
        (self.round, self.now, self.wire) = (p.round(), 0, Vec::new());
        p.begin(&INVITED, ADMISSION);
        for client in INVITED {
            self.send(1, client, RendezvousRequest { round: self.round });
        }
        self.pump(p, ADMISSION);
        let admitted = p.admitted();
        assert!(
            admitted.iter().all(|c| INVITED.contains(c)),
            "admitted {admitted:?}"
        );
        self.tasks = admitted
            .iter()
            .map(|&client| Priced {
                client,
                samples: 5 + client as u64,
                elapsed_s: 1.0,
            })
            .collect();
        self.landed = vec![None; self.tasks.len()];
        let start = self.now + 1;
        p.dispatch(start, &self.tasks, &vec![true; self.tasks.len()], SILENCE);
        self.last = [start; DEVICES];
        for (task, t) in self.tasks.clone().into_iter().enumerate() {
            self.open[t.client] += 1;
            let round = self.round;
            self.send(start + 1, t.client, Heartbeat { round });
            let elapsed_s = task as f64 + 0.5;
            self.send(
                start + 2,
                t.client,
                EndTrainingRound {
                    round,
                    task,
                    samples: t.samples,
                    elapsed_s,
                },
            );
        }
        self.pump(p, start);
        assert_eq!(self.open, [0; DEVICES], "every task lands or is reaped");
        p.aggregate();
        let replies: Vec<_> = p
            .replies()
            .iter()
            .map(|r| (r.task, r.client, r.samples, r.elapsed_s.to_bits()))
            .collect();
        let landed = self.landed.iter().zip(&self.tasks).enumerate();
        let landed: Vec<_> = landed
            .filter_map(|(task, (s, t))| s.map(|s| (task, t.client, t.samples, s.to_bits())))
            .collect();
        assert_eq!(
            replies, landed,
            "replies bill the priced samples of the landed tasks"
        );
        p.notify_end();
        self.pump(p, self.now + 1);
        *p = Protocol::install(self.round + 1, *p.stats());
        replies
    }
}

fn restamp(mut msg: ClientMessage, d: i32) -> ClientMessage {
    let (RendezvousRequest { round } | Heartbeat { round } | EndTrainingRound { round, .. }) =
        &mut msg;
    *round = round.wrapping_add_signed(d);
    msg
}

/// The run under `faults`, or `None` if a fault names a message past
/// the last one sent (the same run as a shorter fault vector).
fn explore(faults: &[(usize, Fault)]) -> Option<Vec<Vec<Reply>>> {
    let mut p = Protocol::install(0, CoordinatorStats::default());
    let mut run = Run {
        faults,
        ..Run::default()
    };
    let replies: Vec<_> = (0..2).map(|_| run.round(&mut p)).collect();
    let s = *p.stats();
    assert_eq!(s.accepted + s.later_replies, run.requests, "{s:?}");
    let up = s.results + s.rejected_results + s.heartbeats + s.rejected_heartbeats + run.requests;
    assert_eq!(s.messages_up, up, "{s:?}");
    faults.iter().all(|&(k, _)| k < run.sent).then_some(replies)
}

#[test]
fn every_run_with_up_to_two_faults_keeps_the_invariants() {
    let clean = explore(&[]).expect("no faults");
    let sent: usize = clean.iter().map(|r| 3 * r.len()).sum();
    let mut vectors: Vec<Vec<(usize, Fault)>> = vec![Vec::new()];
    for k1 in 0..sent {
        for f1 in FAULTS {
            vectors.push(vec![(k1, f1)]);
            for k2 in k1 + 1..sent {
                vectors.extend(FAULTS.map(|f2| vec![(k1, f1), (k2, f2)]));
            }
        }
    }
    // Runs that land the same results must land them in the same order.
    let mut orders: BTreeMap<Vec<Vec<Reply>>, Vec<Vec<Reply>>> = BTreeMap::new();
    let mut explored = 0;
    for faults in &vectors {
        let outcome = std::panic::catch_unwind(|| explore(faults));
        let Some(replies) =
            outcome.unwrap_or_else(|_| panic!("faults {faults:?} broke an invariant"))
        else {
            continue;
        };
        explored += 1;
        let mut landed = replies.clone();
        landed.iter_mut().for_each(|r| r.sort_unstable());
        let first = orders.entry(landed).or_insert_with(|| replies.clone());
        assert_eq!(*first, replies, "faults {faults:?}");
    }
    println!("protocol explorer: {explored} runs over {sent} messages");
    assert!(explored > 2000, "{explored} runs");
}
