//! The simulated participant cohort: the device side of the message
//! protocol.
//!
//! Every client in the fleet is modeled by one [`Cohort`], which reacts
//! to delivered [`CoordinatorMessage`]s by scheduling the client's
//! replies on the transport. Faults are **emergent** here rather than
//! injected in the round loop: an offline device simply never answers
//! its invite (so the rendezvous deadline drops it), and a throttled
//! device's `EndTrainingRound` arrives late (its simulated round time
//! is multiplied by the straggler slowdown). Whether a device is
//! offline or throttled in a given round is the same stateless hash
//! [`crate::faults::FaultConfig`] has always computed, so the emergent
//! cohort reproduces the injected fault model bit for bit — the
//! property that keeps the scenario golden digests unchanged.
//!
//! Tests can override individual devices' conduct per round with
//! [`Behavior`] entries (e.g. vanish mid-training to exercise the
//! heartbeat deadline, or request admission without an invite to
//! exercise Later-then-Accept readmission).

use std::collections::BTreeMap;

use crate::attack::AvailabilityConfig;
use crate::device::DeviceTrace;
use crate::faults::FaultConfig;
use crate::roundtime::client_round_time;

use super::clock::ticks_for_seconds;
use super::message::{ClientMessage, CoordinatorMessage};
use super::protocol::Priced;
use super::transport::Transport;

/// How a device conducts itself in one round (test override).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// Follow the fault model: offline iff `FaultConfig::drops`, slowed
    /// by `FaultConfig::slowdown`. The default for every device.
    Auto,
    /// Never answer the invite (unreachable all round).
    Offline,
    /// Accept the invite and start training, then die silently: no
    /// heartbeats, no result — the heartbeat deadline must reap it.
    Vanish,
    /// Train with an explicit round-time multiplier.
    Slow(f64),
    /// Send a rendezvous request at round start without waiting for an
    /// invite (exercises the Later reply and later readmission).
    Eager,
    /// Accept the invite and start training, then leave the fleet this
    /// many simulated seconds after dispatch: events scheduled past the
    /// cutoff (heartbeats, the result) are never sent, so the heartbeat
    /// deadline reaps the task. Tasks that finish before the cutoff
    /// still land — mid-round churn, not a whole-round outage.
    Depart(f64),
}

/// The device side of every client in the fleet.
pub struct Cohort {
    seed: u64,
    faults: FaultConfig,
    availability: AvailabilityConfig,
    devices: DeviceTrace,
    overrides: BTreeMap<(u32, usize), Behavior>,
}

impl Cohort {
    /// Builds the cohort for a fleet: `seed` is the run seed the fault
    /// hashes are keyed on.
    pub fn new(seed: u64, faults: FaultConfig, devices: DeviceTrace) -> Self {
        Cohort {
            seed,
            faults,
            availability: AvailabilityConfig::default(),
            devices,
            overrides: BTreeMap::new(),
        }
    }

    /// Installs a diurnal availability trace and departure model. Like
    /// the fault config, it is a stateless hash of `(seed, round,
    /// client)`, so churn is deterministic and resume-safe. The default
    /// config is inert — every device is available and never departs.
    pub fn set_availability(&mut self, availability: AvailabilityConfig) {
        self.availability = availability;
    }

    /// Overrides one device's conduct for one round (tests only; the
    /// production path never installs overrides, so faults stay a pure
    /// function of the run seed).
    pub fn set_behavior(&mut self, round: u32, client: usize, behavior: Behavior) {
        self.overrides.insert((round, client), behavior);
    }

    /// The conduct of `client` in `round`.
    pub fn behavior(&self, round: u32, client: usize) -> Behavior {
        self.overrides
            .get(&(round, client))
            .copied()
            .unwrap_or(Behavior::Auto)
    }

    /// Whether the device is unreachable for the whole round: dropped
    /// by the fault model or off-shift in the diurnal availability
    /// trace.
    pub fn offline(&self, round: u32, client: usize) -> bool {
        match self.behavior(round, client) {
            Behavior::Offline => true,
            Behavior::Auto => {
                self.faults.drops(self.seed, round, client)
                    || !self.availability.online(self.seed, round, client)
            }
            _ => false,
        }
    }

    /// If the device departs mid-round: the simulated seconds after
    /// training dispatch at which it goes dark. `span_s` is the
    /// device's full simulated round time, which the stochastic model
    /// scales by a uniform fraction; a [`Behavior::Depart`] override
    /// names the cutoff directly.
    pub fn departure_s(&self, round: u32, client: usize, span_s: f64) -> Option<f64> {
        match self.behavior(round, client) {
            Behavior::Depart(s) => Some(s),
            Behavior::Auto => self
                .availability
                .departure_frac(self.seed, round, client)
                .map(|frac| frac * span_s),
            _ => None,
        }
    }

    /// The device's round-time multiplier for this round.
    pub fn slowdown(&self, round: u32, client: usize) -> f64 {
        match self.behavior(round, client) {
            Behavior::Slow(factor) => factor,
            Behavior::Auto | Behavior::Eager => self.faults.slowdown(self.seed, round, client),
            _ => 1.0,
        }
    }

    /// Simulated seconds for `client` to train `samples` samples on a
    /// model of the given size and upload the result — the device's
    /// hardware profile times its slowdown this round. Bit-identical
    /// to the round-time accounting the pre-coordinator round loops
    /// computed inline.
    pub fn round_time(
        &self,
        round: u32,
        client: usize,
        model_macs: u64,
        param_count: usize,
        samples: u64,
    ) -> f64 {
        client_round_time(
            &self.devices.profile(client),
            model_macs,
            param_count,
            samples,
        ) * self.slowdown(round, client)
    }

    /// Round-start hook: eager devices request admission unsolicited.
    /// `overrides` is a `BTreeMap` keyed `(round, client)`, so the
    /// requests arrive in ascending client order by construction.
    pub fn on_round_start(&self, round: u32, now: u64, transport: &mut dyn Transport) {
        let eager: Vec<usize> = self
            .overrides
            .iter()
            .filter(|((r, _), b)| *r == round && matches!(b, Behavior::Eager))
            .map(|((_, c), _)| *c)
            .collect();
        for client in eager {
            transport.send_up(client, now + 1, ClientMessage::RendezvousRequest { round });
        }
    }

    /// The devices' conduct in training, dispatched at tick `start`:
    /// which device takes its task, and when its heartbeats and result
    /// go up. `tasks` are the round's tasks, priced; returns whether each
    /// was taken.
    ///
    /// A [`Behavior::Vanish`] device takes nothing. A departing device
    /// goes dark at its cutoff, a stateless hash of its span (its
    /// slowest task): nothing at or past it is sent, so fast tasks still
    /// land while slow ones go silent and get reaped. A task beats every
    /// `beat_ticks` until its result goes up at its priced round time.
    pub(crate) fn schedule_training(
        &self,
        round: u32,
        start: u64,
        tasks: &[Priced],
        beat_ticks: u64,
        transport: &mut dyn Transport,
    ) -> Vec<bool> {
        let taken: Vec<bool> = tasks
            .iter()
            .map(|t| self.behavior(round, t.client) != Behavior::Vanish)
            .collect();
        let running = || tasks.iter().enumerate().filter(|&(i, _)| taken[i]);
        let mut span_s: BTreeMap<usize, f64> = BTreeMap::new();
        for (_, t) in running() {
            let span = span_s.entry(t.client).or_insert(0.0);
            if t.elapsed_s > *span {
                *span = t.elapsed_s;
            }
        }
        for (task, t) in running() {
            let end = start + ticks_for_seconds(t.elapsed_s);
            let departs = self.departure_s(round, t.client, span_s[&t.client]);
            let cut = departs.map_or(u64::MAX, |s| start + ticks_for_seconds(s));
            // A degenerate span (a tiny interval against a huge round
            // time) widens the stride to keep a task under ~10k beats.
            let stride = beat_ticks.max(end.saturating_sub(start) / 10_000);
            let mut beat = start + stride;
            while beat < end && beat < cut {
                transport.send_up(t.client, beat, ClientMessage::Heartbeat { round });
                beat += stride;
            }
            if end < cut {
                let result = ClientMessage::EndTrainingRound {
                    round,
                    task,
                    samples: t.samples,
                    elapsed_s: t.elapsed_s,
                };
                transport.send_up(t.client, end, result);
            }
        }
        taken
    }

    /// Reacts to a coordinator message delivered to `client`,
    /// scheduling any reply on the transport. A device's conduct after
    /// `StartTrainingRound` was scheduled when its task was priced.
    pub fn handle(
        &self,
        client: usize,
        msg: &CoordinatorMessage,
        now: u64,
        transport: &mut dyn Transport,
    ) {
        match msg {
            CoordinatorMessage::Invite { round } => {
                if !self.offline(*round, client) {
                    transport.send_up(
                        client,
                        now + 1,
                        ClientMessage::RendezvousRequest { round: *round },
                    );
                }
            }
            // Admission decisions, dispatches and round-end notices
            // need no device reply now.
            CoordinatorMessage::Rendezvous { .. }
            | CoordinatorMessage::StartTrainingRound { .. }
            | CoordinatorMessage::EndRound { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::transport::InMemoryTransport;
    use crate::device::DeviceTraceConfig;

    fn cohort(faults: FaultConfig) -> Cohort {
        let devices = DeviceTraceConfig::default().with_num_devices(8).generate();
        Cohort::new(42, faults, devices)
    }

    #[test]
    fn auto_behavior_reproduces_the_fault_hashes() {
        let faults = FaultConfig {
            dropout_prob: 0.4,
            straggler_prob: 0.4,
            straggler_slowdown: 8.0,
        };
        let c = cohort(faults);
        for round in 0..10u32 {
            for client in 0..8usize {
                assert_eq!(c.offline(round, client), faults.drops(42, round, client));
                assert_eq!(
                    c.slowdown(round, client),
                    faults.slowdown(42, round, client)
                );
            }
        }
    }

    #[test]
    fn overrides_take_precedence_for_their_round_only() {
        let mut c = cohort(FaultConfig::default());
        c.set_behavior(2, 3, Behavior::Offline);
        c.set_behavior(2, 4, Behavior::Slow(16.0));
        assert!(c.offline(2, 3));
        assert!(!c.offline(3, 3), "override is per-round");
        assert_eq!(c.slowdown(2, 4), 16.0);
        assert_eq!(c.slowdown(3, 4), 1.0);
    }

    #[test]
    fn invites_are_answered_unless_offline() {
        let mut c = cohort(FaultConfig::default());
        c.set_behavior(0, 1, Behavior::Offline);
        let mut t = InMemoryTransport::seeded(0);
        c.handle(0, &CoordinatorMessage::Invite { round: 0 }, 1, &mut t);
        c.handle(1, &CoordinatorMessage::Invite { round: 0 }, 1, &mut t);
        let up = t.recv_up(2);
        assert_eq!(up.len(), 1, "only the online device replies");
        assert_eq!(up[0].0, 0);
        assert!(matches!(
            up[0].1,
            ClientMessage::RendezvousRequest { round: 0 }
        ));
    }

    #[test]
    fn eager_devices_request_admission_at_round_start() {
        let mut c = cohort(FaultConfig::default());
        c.set_behavior(1, 5, Behavior::Eager);
        let mut t = InMemoryTransport::seeded(0);
        c.on_round_start(1, 0, &mut t);
        c.on_round_start(2, 0, &mut t); // no override for round 2
        let up = t.recv_up(1);
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].0, 5);
    }

    #[test]
    fn availability_trace_takes_devices_offline() {
        let mut c = cohort(FaultConfig::default());
        assert!(!c.offline(0, 0), "default availability is inert");
        c.set_availability(AvailabilityConfig {
            trace: vec![0.0, 1.0],
            departure_prob: 0.0,
        });
        // Trace entry 0.0: every device is off-shift in even rounds.
        assert!((0..8).all(|cl| c.offline(0, cl)));
        assert!((0..8).all(|cl| !c.offline(1, cl)));
    }

    #[test]
    fn departures_follow_the_override_or_the_hash() {
        let mut c = cohort(FaultConfig::default());
        assert_eq!(c.departure_s(0, 0, 100.0), None);
        c.set_behavior(0, 3, Behavior::Depart(12.5));
        assert_eq!(c.departure_s(0, 3, 100.0), Some(12.5));
        c.set_availability(AvailabilityConfig {
            trace: Vec::new(),
            departure_prob: 1.0,
        });
        let s = c.departure_s(1, 2, 100.0).expect("prob 1.0 always departs");
        assert!((0.0..100.0).contains(&s), "cutoff within the round span");
        assert_eq!(c.departure_s(1, 2, 100.0), Some(s), "deterministic");
    }

    #[test]
    fn round_time_scales_with_slowdown() {
        let mut c = cohort(FaultConfig::default());
        c.set_behavior(0, 2, Behavior::Slow(4.0));
        let base = c.round_time(1, 2, 1000, 500, 100);
        let slowed = c.round_time(0, 2, 1000, 500, 100);
        assert!((slowed - base * 4.0).abs() < 1e-12);
    }
}
