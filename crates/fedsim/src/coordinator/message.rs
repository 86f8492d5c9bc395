//! The typed message vocabulary between coordinator and participants.
//!
//! Every interaction in a round — admission, liveness, training — is
//! one of these messages crossing a [`crate::coordinator::Transport`].
//! The sender/recipient client index travels in the transport envelope,
//! not in the message body, so a message value is meaningful for any
//! peer.

/// Coordinator's answer to a rendezvous request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RendezvousReply {
    /// The client is admitted to the round's cohort.
    Accept,
    /// The round has no slot for this client (uninvited, duplicate, or
    /// wrong phase); it should retry at a later round.
    Later,
}

/// Messages a participant sends up to the coordinator.
#[derive(Debug, Clone)]
pub enum ClientMessage {
    /// Asks to join the given round's cohort (sent after an
    /// [`CoordinatorMessage::Invite`], or unsolicited by an eager
    /// client).
    RendezvousRequest {
        /// The round the client wants to join.
        round: u32,
    },
    /// Periodic liveness signal while the client is training. A client
    /// whose signals stop for longer than the heartbeat deadline is
    /// declared dropped.
    Heartbeat {
        /// The round the client is training in.
        round: u32,
    },
    /// Announces the client's completed local-training round.
    ///
    /// Deliberately *slim*: the weight payload does not ride the
    /// protocol wire. The coordinator pulls each completed update into
    /// the round's streaming [`crate::sink::UpdateSink`] fold as this
    /// message lands, so no queue ever holds a cohort's worth of
    /// weights — peak memory stays O(clients in flight).
    EndTrainingRound {
        /// The round the result belongs to.
        round: u32,
        /// Index into the round's task list (assignment order).
        task: usize,
        /// Samples the client claims it processed. The coordinator
        /// priced the task before it ran; a claim that differs is
        /// dropped as forged, and the priced count is what gets billed.
        samples: u64,
        /// Simulated seconds the client spent on the round (compute +
        /// comms, after any straggler slowdown).
        elapsed_s: f64,
    },
}

/// Messages the coordinator sends down to a participant.
#[derive(Debug, Clone)]
pub enum CoordinatorMessage {
    /// Invites a selected client to rendezvous for a round.
    Invite {
        /// The round being formed.
        round: u32,
    },
    /// Answers a [`ClientMessage::RendezvousRequest`].
    Rendezvous {
        /// The round the request was for.
        round: u32,
        /// Admission decision.
        reply: RendezvousReply,
    },
    /// Dispatches a training task: which round-model the client
    /// downloads plus its derived RNG seed.
    StartTrainingRound {
        /// The round being trained.
        round: u32,
        /// Index into the round's task list (assignment order).
        task: usize,
        /// Index into the round's model table (the coordinator's
        /// deduplicated set of dispatched weights). Carrying the index
        /// instead of a boxed weight payload keeps the queued wire
        /// O(tasks), not O(tasks × parameters) — a requirement once
        /// populations reach millions of devices.
        model: usize,
        /// The client's stateless per-round training seed.
        seed: u64,
    },
    /// Tells an admitted participant the round is over.
    EndRound {
        /// The round that finished.
        round: u32,
    },
}
