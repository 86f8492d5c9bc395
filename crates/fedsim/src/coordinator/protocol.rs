//! The round's protocol state: what the coordinator knows and decides.
//! [`Protocol::on_message`] reacts to every [`ClientMessage`] under the
//! same rules in every stage, and [`Protocol::on_tick`] acts on its
//! deadlines. It holds no models, shards, transport or cohort: the
//! coordinator's pump carries messages to it and its replies back.

use super::message::{ClientMessage, CoordinatorMessage, RendezvousReply};
use super::{CoordinatorStats, Phase, RoundStage, TrainReply};
use crate::{Result, SimError};

/// A task priced from the round's manifest before anything trains: its
/// client, the samples it processes (what an accepted result claims and
/// what is billed) and the device's simulated seconds for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Priced {
    pub client: usize,
    pub samples: u64,
    pub elapsed_s: f64,
}

/// One dispatched task: `slot` ranks its client among the round's task
/// clients, `taken` says whether its device took it, and `landed` holds
/// its landed result's simulated seconds.
#[derive(Debug, Clone, Copy)]
struct Task {
    client: usize,
    slot: usize,
    samples: u64,
    taken: bool,
    landed: Option<f64>,
}

/// The round's protocol state; the default is standby before round 0.
#[derive(Debug, Default)]
pub(crate) struct Protocol {
    /// `None` in standby.
    stage: Option<RoundStage>,
    round: u32,
    /// This round's invitees, in invitation order.
    invited: Vec<usize>,
    /// `(client, invitation position)`, ascending: the slot a request
    /// is looked up in (a client invited twice holds its last one).
    invitees: Vec<(usize, usize)>,
    /// Per invitation position: admitted.
    admitted: Vec<bool>,
    /// The rendezvous deadline, while admission is open.
    admission: Option<u64>,
    tasks: Vec<Task>,
    /// The round's distinct task clients, ascending; a task's `slot`
    /// indexes this and the two tables below.
    devices: Vec<usize>,
    last_signal: Vec<u64>,
    /// Tasks dispatched to the device, not landed, not reaped.
    open: Vec<usize>,
    /// Ticks a device may stay silent with open tasks.
    silence: u64,
    stats: CoordinatorStats,
}

impl Protocol {
    pub(crate) fn phase(&self) -> Phase {
        self.stage.map_or(Phase::Standby, Phase::Round)
    }

    pub(crate) fn round(&self) -> u32 {
        self.round
    }

    pub(crate) fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }

    /// `Ok` in phase `want`, else a protocol error naming `action`.
    pub(crate) fn expect(&self, want: Phase, action: &str) -> Result<()> {
        if self.phase() == want {
            Ok(())
        } else {
            Err(SimError::protocol(format!(
                "{action} requires phase {want}, coordinator is in {}",
                self.phase()
            )))
        }
    }

    /// `STANDBY → ROUND(selecting)`: `invited` are sent invites, and
    /// admission stays open until tick `deadline`.
    pub(crate) fn begin(&mut self, invited: &[usize], deadline: u64) {
        *self = Protocol {
            stage: Some(RoundStage::Selecting),
            invited: invited.to_vec(),
            invitees: invited.iter().copied().zip(0..).collect(),
            admitted: vec![false; invited.len()],
            admission: Some(deadline),
            ..Protocol::install(self.round, self.stats)
        };
        self.invitees.sort_unstable();
        self.stats.invitations += invited.len() as u64;
        self.stats.messages_down += invited.len() as u64;
    }

    /// The admitted clients, in invitation order.
    pub(crate) fn admitted(&self) -> Vec<usize> {
        self.invited
            .iter()
            .zip(&self.admitted)
            .filter_map(|(&client, &ok)| ok.then_some(client))
            .collect()
    }

    /// The invitation position a request from `client` is looked up in.
    fn invitee(&self, client: usize) -> Option<usize> {
        let end = self.invitees.partition_point(|&(c, _)| c <= client);
        let &(c, position) = self.invitees.get(end.checked_sub(1)?)?;
        (c == client).then_some(position)
    }

    pub(crate) fn is_admitted(&self, client: usize) -> bool {
        self.invitee(client).is_some_and(|i| self.admitted[i])
    }

    /// Opens `tasks`, sent at tick `start`: `taken[i]` says whether task
    /// `i`'s device took it. A device silent for `silence` ticks while
    /// it has open tasks is reaped.
    pub(crate) fn dispatch(&mut self, start: u64, tasks: &[Priced], taken: &[bool], silence: u64) {
        let mut devices: Vec<usize> = tasks.iter().map(|t| t.client).collect();
        devices.sort_unstable();
        devices.dedup();
        let mut open = vec![0; devices.len()];
        self.tasks = tasks
            .iter()
            .zip(taken)
            .map(|(t, &taken)| {
                let slot = devices.partition_point(|&c| c < t.client);
                open[slot] += 1;
                Task {
                    client: t.client,
                    slot,
                    samples: t.samples,
                    taken,
                    landed: None,
                }
            })
            .collect();
        self.last_signal = vec![start; devices.len()];
        self.devices = devices;
        self.open = open;
        self.silence = silence;
        self.stats.messages_down += tasks.len() as u64;
    }

    /// Reacts to `msg` from client `from` at tick `now`, returning the
    /// reply to send back, if any. The wire is untrusted: whatever fails
    /// a check is dropped and counted.
    pub(crate) fn on_message(
        &mut self,
        now: u64,
        from: usize,
        msg: ClientMessage,
    ) -> Option<CoordinatorMessage> {
        self.stats.messages_up += 1;
        match msg {
            ClientMessage::RendezvousRequest { round } => {
                // A slot exists only for an invitee of this round, not
                // yet admitted, while admission is open.
                let slot = (round == self.round && self.admission.is_some())
                    .then(|| self.invitee(from))
                    .flatten()
                    .filter(|&i| !self.admitted[i]);
                let reply = match slot {
                    Some(i) => {
                        self.admitted[i] = true;
                        self.stats.accepted += 1;
                        RendezvousReply::Accept
                    }
                    None => {
                        self.stats.later_replies += 1;
                        RendezvousReply::Later
                    }
                };
                self.stats.messages_down += 1;
                Some(CoordinatorMessage::Rendezvous { round, reply })
            }
            // A heartbeat for another round refreshes nothing; one for
            // this round refreshes its sender's liveness, if it has a
            // task.
            ClientMessage::Heartbeat { round } if round != self.round => {
                self.stats.rejected_heartbeats += 1;
                None
            }
            ClientMessage::Heartbeat { .. } => {
                if let Ok(slot) = self.devices.binary_search(&from) {
                    self.last_signal[slot] = now;
                }
                self.stats.heartbeats += 1;
                None
            }
            ClientMessage::EndTrainingRound {
                round,
                task,
                samples,
                elapsed_s,
            } => {
                // A result lands only for this round, for one of its
                // tasks, from that task's client, while the task is
                // open (taken, not landed, not reaped), claiming the
                // sample count it was priced at.
                let open = self.tasks.get(task).filter(|t| {
                    round == self.round
                        && t.client == from
                        && t.taken
                        && t.landed.is_none()
                        && self.open[t.slot] > 0
                        && samples == t.samples
                });
                let Some(&Task { slot, .. }) = open else {
                    self.stats.rejected_results += 1;
                    return None;
                };
                self.tasks[task].landed = Some(elapsed_s);
                self.last_signal[slot] = now;
                self.open[slot] -= 1;
                self.stats.results += 1;
                None
            }
        }
    }

    /// The next tick the protocol acts at by itself: the rendezvous
    /// deadline while admission is open, else the earliest reap. `None`
    /// once nothing is awaited.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        let reap = (0..self.devices.len())
            .filter(|&slot| self.open[slot] > 0)
            .map(|slot| self.last_signal[slot] + self.silence)
            .min();
        self.admission.into_iter().chain(reap).min()
    }

    /// Acts on the deadlines due at `now`: closes admission, dropping the
    /// invitees that never rendezvoused, and reaps every device silent
    /// past the heartbeat deadline with tasks open.
    pub(crate) fn on_tick(&mut self, now: u64) {
        if self.admission.is_some_and(|deadline| now >= deadline) {
            self.admission = None;
            let missed = self.admitted.iter().filter(|&&ok| !ok).count();
            self.stats.rendezvous_dropouts += missed as u64;
        }
        for slot in 0..self.devices.len() {
            if self.open[slot] > 0 && now >= self.last_signal[slot] + self.silence {
                self.stats.heartbeat_dropouts += 1;
                self.open[slot] = 0;
            }
        }
    }

    /// `selecting → aggregating`.
    pub(crate) fn aggregate(&mut self) {
        self.stage = Some(RoundStage::Aggregating);
    }

    /// The landed tasks as replies, in task order, billed at their
    /// priced sample counts.
    pub(crate) fn replies(&self) -> Vec<TrainReply> {
        self.tasks
            .iter()
            .enumerate()
            .filter_map(|(task, t)| {
                t.landed.map(|elapsed_s| TrainReply {
                    task,
                    client: t.client,
                    samples: t.samples,
                    avg_loss: 0.0,
                    avg_acc: 0.0,
                    elapsed_s,
                })
            })
            .collect()
    }

    /// The admitted clients, told the round is over.
    pub(crate) fn notify_end(&mut self) -> Vec<usize> {
        let admitted = self.admitted();
        self.stats.messages_down += admitted.len() as u64;
        admitted
    }

    /// Standby before `round`, with `stats` so far.
    pub(crate) fn install(round: u32, stats: CoordinatorStats) -> Self {
        Protocol {
            round,
            stats,
            ..Protocol::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb(round: u32) -> ClientMessage {
        ClientMessage::Heartbeat { round }
    }

    fn result(round: u32, task: usize, samples: u64) -> ClientMessage {
        ClientMessage::EndTrainingRound {
            round,
            task,
            samples,
            elapsed_s: 0.5,
        }
    }

    fn request(round: u32) -> ClientMessage {
        ClientMessage::RendezvousRequest { round }
    }

    fn reply(msg: Option<CoordinatorMessage>) -> Option<RendezvousReply> {
        match msg? {
            CoordinatorMessage::Rendezvous { reply, .. } => Some(reply),
            other => panic!("not a rendezvous reply: {other:?}"),
        }
    }

    /// Every message up landed in exactly one counter.
    fn assert_accounted(p: &Protocol) {
        let s = p.stats();
        assert_eq!(
            s.messages_up,
            s.accepted
                + s.later_replies
                + s.results
                + s.rejected_results
                + s.heartbeats
                + s.rejected_heartbeats,
            "{s:?}"
        );
    }

    /// Round 1 of a protocol with clients 3, 1 and 5 invited, admission
    /// closing at tick 10.
    fn selecting() -> Protocol {
        let mut p = Protocol::install(1, CoordinatorStats::default());
        p.begin(&[3, 1, 5], 10);
        p
    }

    #[test]
    fn selection_admits_each_invitee_once_and_closes_at_the_deadline() {
        let mut p = selecting();
        assert_eq!(p.phase(), Phase::Round(RoundStage::Selecting));
        assert_eq!(p.next_deadline(), Some(10));
        let accept = Some(RendezvousReply::Accept);
        let later = Some(RendezvousReply::Later);
        assert_eq!(reply(p.on_message(2, 1, request(1))), accept);
        assert_eq!(reply(p.on_message(2, 1, request(1))), later, "duplicate");
        assert_eq!(reply(p.on_message(2, 9, request(1))), later, "uninvited");
        assert_eq!(reply(p.on_message(2, 3, request(0))), later, "stale round");
        assert_eq!(
            reply(p.on_message(10, 5, request(1))),
            accept,
            "at the deadline"
        );
        p.on_tick(9);
        assert_eq!(p.next_deadline(), Some(10), "still open before it");
        p.on_tick(10);
        assert_eq!(p.next_deadline(), None);
        assert_eq!(reply(p.on_message(11, 3, request(1))), later, "closed");
        assert_eq!(p.admitted(), [1, 5], "invitation order");
        assert!(p.is_admitted(5) && !p.is_admitted(3) && !p.is_admitted(9));
        let s = *p.stats();
        assert_eq!((s.invitations, s.accepted, s.later_replies), (3, 2, 4));
        assert_eq!(s.rendezvous_dropouts, 1);
        assert_eq!(s.messages_down, 3 + 6, "three invites, six replies");
        assert_accounted(&p);
    }

    #[test]
    fn a_twice_invited_client_holds_its_last_slot() {
        let mut p = Protocol::default();
        p.begin(&[4, 2, 4], 5);
        assert_eq!(
            reply(p.on_message(2, 4, request(0))),
            Some(RendezvousReply::Accept)
        );
        p.on_tick(5);
        assert_eq!(p.admitted(), [4]);
        assert_eq!(p.stats().rendezvous_dropouts, 2);
    }

    #[test]
    fn before_any_task_a_beat_is_counted_and_a_result_dropped() {
        let mut p = selecting();
        assert!(p.on_message(2, 1, hb(1)).is_none());
        assert!(p.on_message(2, 1, hb(4)).is_none());
        assert!(p.on_message(2, 1, result(1, 0, 8)).is_none());
        let s = *p.stats();
        assert_eq!(
            (s.heartbeats, s.rejected_heartbeats, s.rejected_results),
            (1, 1, 1)
        );
        assert_eq!(p.next_deadline(), Some(10), "a beat opens no deadline");
        assert_accounted(&p);
    }

    /// Past selection: tasks 0 and 3 on client 1, task 1 on client 3,
    /// task 2 on client 5, which never took it; dispatched at tick 20,
    /// reaped after 5 silent ticks.
    fn training() -> Protocol {
        let mut p = selecting();
        for client in [3, 1, 5] {
            p.on_message(2, client, request(1));
        }
        p.on_tick(10);
        let priced = |client, samples| Priced {
            client,
            samples,
            elapsed_s: 1.0,
        };
        let tasks = [priced(1, 8), priced(3, 8), priced(5, 4), priced(1, 6)];
        p.dispatch(20, &tasks, &[true, true, false, true], 5);
        p
    }

    #[test]
    fn every_forged_result_is_dropped_and_counted() {
        let mut p = training();
        p.on_message(21, 1, result(1, 0, 8));
        assert_eq!(p.stats().results, 1);
        let forged = [
            ("stale round", 3, result(0, 1, 8)),
            ("task out of range", 3, result(1, 9, 8)),
            ("sender without a task", 7, result(1, 1, 8)),
            ("sender of another task", 1, result(1, 1, 8)),
            ("task its device never took", 5, result(1, 2, 4)),
            ("samples differ from the priced count", 3, result(1, 1, 9)),
            ("duplicate", 1, result(1, 0, 8)),
        ];
        for (case, from, msg) in forged {
            let before = *p.stats();
            assert!(p.on_message(22, from, msg).is_none(), "{case}");
            let after = *p.stats();
            assert_eq!(
                after.rejected_results,
                before.rejected_results + 1,
                "{case}"
            );
            assert_eq!(after.results, 1, "{case}");
        }
        // Client 3 is reaped at 25; its result then lands nowhere.
        p.on_tick(25);
        assert!(p.on_message(26, 3, result(1, 1, 8)).is_none());
        assert_eq!(p.stats().rejected_results, 8, "reaped task");
        assert_accounted(&p);
        let landed: Vec<(usize, usize, u64)> = p
            .replies()
            .iter()
            .map(|r| (r.task, r.client, r.samples))
            .collect();
        assert_eq!(landed, [(0, 1, 8)]);
        p.aggregate();
        assert_eq!(p.phase(), Phase::Round(RoundStage::Aggregating));
    }

    #[test]
    fn a_silent_device_is_reaped_at_its_deadline_and_a_stale_beat_keeps_none_alive() {
        let mut p = training();
        assert_eq!(p.next_deadline(), Some(25));
        // Client 3 beats for this round, client 5 for another.
        p.on_message(23, 3, hb(1));
        p.on_message(23, 5, hb(2));
        p.on_tick(24);
        assert_eq!(p.stats().heartbeat_dropouts, 0);
        p.on_tick(25);
        // Clients 1 and 5 went silent; client 3 beat at 23.
        assert_eq!(p.stats().heartbeat_dropouts, 2);
        assert_eq!(p.next_deadline(), Some(28));
        p.on_message(27, 3, result(1, 1, 8));
        assert_eq!(p.next_deadline(), None, "every task resolved");
        p.on_tick(40);
        assert_eq!(
            p.stats().heartbeat_dropouts,
            2,
            "a resolved device is not reaped"
        );
        let s = *p.stats();
        assert_eq!((s.heartbeats, s.rejected_heartbeats, s.results), (1, 1, 1));
        assert_eq!(s.messages_down, 3 + 3 + 4, "invites, replies, dispatches");
        assert_accounted(&p);
        let landed: Vec<usize> = p.replies().iter().map(|r| r.task).collect();
        assert_eq!(landed, [1]);
    }

    #[test]
    fn a_device_with_two_tasks_lives_until_both_resolve() {
        let mut p = training();
        p.on_message(21, 1, result(1, 3, 6));
        p.on_message(24, 1, result(1, 0, 8));
        p.on_tick(25);
        // Client 1 resolved both tasks; 3 and 5 were silent.
        assert_eq!(p.stats().heartbeat_dropouts, 2);
        let landed: Vec<(usize, f64)> = p.replies().iter().map(|r| (r.task, r.elapsed_s)).collect();
        assert_eq!(
            landed,
            [(0, 0.5), (3, 0.5)],
            "task order, not arrival order"
        );
        assert_eq!(p.notify_end(), [3, 1, 5]);
        assert_accounted(&p);
    }
}
