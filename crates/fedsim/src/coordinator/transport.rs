//! The transport abstraction between coordinator and participants, and
//! its deterministic in-memory implementation.
//!
//! The coordinator never calls a participant function directly: every
//! interaction is a typed message pushed into a [`Transport`] with a
//! delivery tick, then drained by the receiving side once the virtual
//! clock reaches that tick. Swapping the transport (e.g. for a socket
//! transport later) cannot change round semantics, because the
//! coordinator's state machine is written to be insensitive to the
//! delivery order of messages within one tick — the property the
//! delivery-permutation proptest pins.
//!
//! # Within-tick delivery order
//!
//! [`InMemoryTransport`] totally orders same-tick messages by a
//! stateless hash of its order seed and a per-message sequence number
//! ([`DeliveryOrder::Seeded`]). This deliberately *scrambles* queue
//! order — a correct coordinator must not care — while remaining a
//! pure function of the seed, so a run is reproducible end to end. The
//! [`DeliveryOrder::Fifo`] and [`DeliveryOrder::Lifo`] policies exist
//! for tests that want to drive the two extreme orders explicitly.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use super::message::{ClientMessage, CoordinatorMessage};

/// Within-tick delivery-order policy for [`InMemoryTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOrder {
    /// Order same-tick messages by a stateless hash of `(seed, seq)`.
    /// The default; scrambles arrival order deterministically.
    Seeded(u64),
    /// Deliver same-tick messages in send order.
    Fifo,
    /// Deliver same-tick messages in reverse send order.
    Lifo,
}

/// SplitMix64 finalizer (same mixer as [`crate::faults`]); used only
/// to derive the within-tick delivery permutation, so it consumes no
/// RNG stream any algorithm observes.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DeliveryOrder {
    /// The sort key assigned to the `seq`-th message pushed into the
    /// transport. Keys are unique per `seq`, so the induced order is
    /// total and reproducible.
    fn key(&self, seq: u64) -> (u64, u64) {
        match self {
            DeliveryOrder::Seeded(seed) => (mix(seed ^ seq), seq),
            DeliveryOrder::Fifo => (seq, seq),
            DeliveryOrder::Lifo => (u64::MAX - seq, seq),
        }
    }
}

/// A bidirectional, tick-scheduled message channel between the
/// coordinator and its participants.
///
/// `send_*` schedules a message for a future tick; `recv_*` drains all
/// messages due at or before the given tick, in the transport's
/// delivery order. [`Transport::next_delivery`] lets the round loop
/// jump the virtual clock straight to the next event.
///
/// Implementations must be `Send + Sync` so a coordinator-owning
/// runtime can still fan evaluation and training out across the shared
/// worker pool.
pub trait Transport: Send + Sync {
    /// Schedules a participant→coordinator message from client `from`
    /// for delivery at `deliver_at`.
    fn send_up(&mut self, from: usize, deliver_at: u64, msg: ClientMessage);

    /// Schedules a coordinator→participant message to client `to` for
    /// delivery at `deliver_at`.
    fn send_down(&mut self, to: usize, deliver_at: u64, msg: CoordinatorMessage);

    /// Drains every participant→coordinator message due at or before
    /// `now`, paired with its sender, in delivery order.
    fn recv_up(&mut self, now: u64) -> Vec<(usize, ClientMessage)>;

    /// Drains every coordinator→participant message due at or before
    /// `now`, paired with its recipient, in delivery order.
    fn recv_down(&mut self, now: u64) -> Vec<(usize, CoordinatorMessage)>;

    /// The earliest delivery tick among in-flight messages, if any.
    fn next_delivery(&self) -> Option<u64>;

    /// Number of in-flight (undelivered) messages.
    fn pending(&self) -> usize;

    /// Drops every in-flight message (round boundary).
    fn clear(&mut self);
}

/// One in-flight message. Ordered by `(deliver_at, key)` alone — keys
/// are unique per transport, so the order is total — and *reversed*, so
/// the earliest message is the maximum of a [`BinaryHeap`].
struct Queued<M> {
    peer: usize,
    deliver_at: u64,
    key: (u64, u64),
    msg: M,
}

impl<M> Queued<M> {
    fn rank(&self) -> (u64, (u64, u64)) {
        (self.deliver_at, self.key)
    }
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl<M> Eq for Queued<M> {}

impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}

/// The deterministic in-memory [`Transport`]: one priority queue per
/// direction, ordered by `(deliver_at, order_key)`, under a lock-step
/// virtual clock. The next delivery tick is the head of a queue, and a
/// receive pops only what is due.
pub struct InMemoryTransport {
    order: DeliveryOrder,
    seq: u64,
    up: BinaryHeap<Queued<ClientMessage>>,
    down: BinaryHeap<Queued<CoordinatorMessage>>,
}

impl InMemoryTransport {
    /// A transport whose within-tick order is scrambled by `seed`.
    pub fn seeded(seed: u64) -> Self {
        InMemoryTransport::with_order(DeliveryOrder::Seeded(seed))
    }

    /// A transport with an explicit delivery-order policy.
    pub fn with_order(order: DeliveryOrder) -> Self {
        InMemoryTransport {
            order,
            seq: 0,
            up: BinaryHeap::new(),
            down: BinaryHeap::new(),
        }
    }

    fn next_key(&mut self) -> (u64, u64) {
        let key = self.order.key(self.seq);
        self.seq += 1;
        key
    }
}

/// Pops every message due at or before `now`, earliest tick first and
/// in key order within a tick.
fn drain_due<M>(queue: &mut BinaryHeap<Queued<M>>, now: u64) -> Vec<(usize, M)> {
    let mut due = Vec::new();
    while let Some(head) = queue.peek_mut() {
        if head.deliver_at > now {
            break;
        }
        let q = PeekMut::pop(head);
        due.push((q.peer, q.msg));
    }
    due
}

impl Transport for InMemoryTransport {
    fn send_up(&mut self, from: usize, deliver_at: u64, msg: ClientMessage) {
        let key = self.next_key();
        self.up.push(Queued {
            peer: from,
            deliver_at,
            key,
            msg,
        });
    }

    fn send_down(&mut self, to: usize, deliver_at: u64, msg: CoordinatorMessage) {
        let key = self.next_key();
        self.down.push(Queued {
            peer: to,
            deliver_at,
            key,
            msg,
        });
    }

    fn recv_up(&mut self, now: u64) -> Vec<(usize, ClientMessage)> {
        drain_due(&mut self.up, now)
    }

    fn recv_down(&mut self, now: u64) -> Vec<(usize, CoordinatorMessage)> {
        drain_due(&mut self.down, now)
    }

    fn next_delivery(&self) -> Option<u64> {
        let up = self.up.peek().map(|q| q.deliver_at);
        let down = self.down.peek().map(|q| q.deliver_at);
        up.into_iter().chain(down).min()
    }

    fn pending(&self) -> usize {
        self.up.len() + self.down.len()
    }

    fn clear(&mut self) {
        self.up.clear();
        self.down.clear();
        // Round boundary: also restart the order-key sequence, so a
        // round's within-tick delivery permutation never depends on how
        // many messages earlier rounds exchanged. This is what makes a
        // resumed run's delivery order identical to an uninterrupted
        // one without serializing any transport state.
        self.seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb(round: u32) -> ClientMessage {
        ClientMessage::Heartbeat { round }
    }

    #[test]
    fn messages_wait_for_their_delivery_tick() {
        let mut t = InMemoryTransport::seeded(1);
        t.send_up(0, 5, hb(0));
        t.send_up(1, 2, hb(0));
        assert_eq!(t.next_delivery(), Some(2));
        assert!(t.recv_up(1).is_empty());
        let at2 = t.recv_up(2);
        assert_eq!(at2.len(), 1);
        assert_eq!(at2[0].0, 1);
        assert_eq!(t.next_delivery(), Some(5));
        assert_eq!(t.recv_up(10).len(), 1);
        assert_eq!(t.pending(), 0);
        assert_eq!(t.next_delivery(), None);
    }

    #[test]
    fn fifo_and_lifo_are_exact_mirrors_within_a_tick() {
        let mut fifo = InMemoryTransport::with_order(DeliveryOrder::Fifo);
        let mut lifo = InMemoryTransport::with_order(DeliveryOrder::Lifo);
        for t in [&mut fifo, &mut lifo] {
            for c in 0..5usize {
                t.send_up(c, 1, hb(0));
            }
        }
        let f: Vec<usize> = fifo.recv_up(1).into_iter().map(|(c, _)| c).collect();
        let l: Vec<usize> = lifo.recv_up(1).into_iter().map(|(c, _)| c).collect();
        assert_eq!(f, vec![0, 1, 2, 3, 4]);
        assert_eq!(l, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn seeded_order_is_reproducible_and_scrambles() {
        let run = |seed: u64| -> Vec<usize> {
            let mut t = InMemoryTransport::seeded(seed);
            for c in 0..8usize {
                t.send_up(c, 1, hb(0));
            }
            t.recv_up(1).into_iter().map(|(c, _)| c).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same permutation");
        let scrambled = (0..64u64).any(|s| run(s) != (0..8).collect::<Vec<_>>());
        assert!(scrambled, "some seed must differ from send order");
    }

    #[test]
    fn delivery_tick_dominates_order_key() {
        let mut t = InMemoryTransport::with_order(DeliveryOrder::Lifo);
        t.send_up(0, 1, hb(0));
        t.send_up(1, 2, hb(0));
        let order: Vec<usize> = t.recv_up(2).into_iter().map(|(c, _)| c).collect();
        assert_eq!(order, vec![0, 1], "earlier tick delivers first");
    }

    /// The wire as it was before the queues were ordered: one unsorted
    /// list per direction sharing one key sequence, partitioned and
    /// sorted by `(deliver_at, key)` on every receive. Kept here as the
    /// reference the heaps must reproduce.
    struct SortedOnReceive {
        order: DeliveryOrder,
        seq: u64,
        /// `[up, down]`.
        wire: [Vec<Sent>; 2],
    }

    /// `(deliver_at, key, peer)`.
    type Sent = (u64, (u64, u64), usize);

    impl SortedOnReceive {
        fn send(&mut self, down: bool, peer: usize, deliver_at: u64) {
            self.wire[usize::from(down)].push((deliver_at, self.order.key(self.seq), peer));
            self.seq += 1;
        }

        fn recv(&mut self, down: bool, now: u64) -> Vec<usize> {
            let wire = &mut self.wire[usize::from(down)];
            let (mut due, rest): (Vec<_>, Vec<_>) = wire.drain(..).partition(|&(at, ..)| at <= now);
            *wire = rest;
            due.sort_by_key(|&(at, key, _)| (at, key));
            due.into_iter().map(|(.., peer)| peer).collect()
        }
    }

    #[test]
    fn interleaved_sends_and_receives_deliver_in_the_sorted_wire_order() {
        for order in [
            DeliveryOrder::Seeded(0xFEED),
            DeliveryOrder::Fifo,
            DeliveryOrder::Lifo,
        ] {
            let mut heap = InMemoryTransport::with_order(order);
            let mut reference = SortedOnReceive {
                order,
                seq: 0,
                wire: [Vec::new(), Vec::new()],
            };
            // A fixed script of bursts: both directions draw keys from
            // the one sequence, sends land at, before and after the
            // tick of the receive that follows, receives skip ticks,
            // and some messages are sent already overdue.
            let mut now = 0u64;
            let mut step = 0x9E37_79B9_7F4A_7C15u64;
            for burst in 0..200usize {
                for k in 0..(burst % 7) {
                    step = mix(step);
                    let deliver_at = (now + step % 6).saturating_sub(2);
                    let (down, peer) = (step & 64 != 0, burst * 8 + k);
                    if down {
                        heap.send_down(peer, deliver_at, CoordinatorMessage::EndRound { round: 0 });
                    } else {
                        heap.send_up(peer, deliver_at, hb(0));
                    }
                    reference.send(down, peer, deliver_at);
                }
                let earliest = reference.wire.iter().flatten().map(|&(at, ..)| at).min();
                assert_eq!(heap.next_delivery(), earliest, "{order:?} burst {burst}");
                now += mix(step) % 3;
                let up: Vec<usize> = heap.recv_up(now).into_iter().map(|(c, _)| c).collect();
                let down: Vec<usize> = heap.recv_down(now).into_iter().map(|(c, _)| c).collect();
                let at = format!("{order:?} burst {burst} tick {now}");
                assert_eq!(up, reference.recv(false, now), "up, {at}");
                assert_eq!(down, reference.recv(true, now), "down, {at}");
                assert_eq!(
                    heap.pending(),
                    reference.wire.iter().map(Vec::len).sum::<usize>()
                );
            }
        }
    }

    #[test]
    fn clear_restores_a_fresh_wire_and_order_sequence() {
        let mut t = InMemoryTransport::seeded(3);
        t.send_up(0, 1, hb(0));
        t.send_down(1, 1, CoordinatorMessage::EndRound { round: 0 });
        assert_eq!(t.pending(), 2);
        t.clear();
        assert_eq!(t.pending(), 0);
        assert_eq!(t.seq, 0, "clear must restart the order-key sequence");
    }
}
