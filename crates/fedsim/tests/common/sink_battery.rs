//! The sink-protocol table: one battery of duplicated / unknown /
//! invalid-update cases, run against every [`UpdateSink`] that keeps a
//! manifest [`ft_fedsim::sink::Cursor`].
//!
//! Included by path from `crates/fedsim/tests/sink_protocol.rs` (every
//! `Aggregator` rule × grouping) and `crates/baselines/tests/
//! sink_protocol.rs` (`ScatterSink`). Every intrusion must be refused
//! with [`SimError::Protocol`], leave the round exactly where it was —
//! shown by the round then completing — and cost the aggregate nothing:
//! it stays bit-identical to the undisturbed round's.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ft_fedsim::sink::{ClientUpdate, RoundManifest, TaskSpec, UpdateSink};
use ft_fedsim::SimError;
use ft_tensor::Tensor;

/// The position the [`Subject::ragged`] stand-ins are offered at.
pub const RAGGED_AT: usize = 2;

/// A task index no manifest, grouping table or plan list knows.
pub const UNKNOWN_TASK: usize = 10_000;

/// One row of the table: a sink constructor and a valid round for it.
pub struct Subject<'a, S> {
    pub name: String,
    pub fresh: Box<dyn Fn() -> S + 'a>,
    /// A valid round of at least four tasks: the manifest …
    pub specs: Vec<TaskSpec>,
    /// … and its updates, in manifest order.
    pub updates: Vec<ClientUpdate>,
    /// Malformed stand-ins for `updates[RAGGED_AT]` the sink must
    /// refuse, each with a label for failure messages.
    pub ragged: Vec<(&'static str, ClientUpdate)>,
    /// Whether `begin_round` refuses a manifest naming
    /// [`UNKNOWN_TASK`] (sinks with a per-task table do).
    pub has_task_table: bool,
    /// The finished round's aggregate as bit patterns; must panic
    /// before `finish`.
    pub take: fn(&mut S) -> Vec<u32>,
}

/// Bit patterns of optional tensor lists, `None`s marked, for
/// [`Subject::take`] implementations.
pub fn bits<'t>(groups: impl IntoIterator<Item = Option<&'t Vec<Tensor>>>) -> Vec<u32> {
    let mut out = Vec::new();
    for group in groups {
        match group {
            None => out.push(u32::MAX),
            Some(tensors) => out.extend(
                tensors
                    .iter()
                    .flat_map(|t| t.data().iter().map(|v| v.to_bits())),
            ),
        }
    }
    out
}

/// Wrong-extent variants of `update`'s weights: the first tensor one
/// row shorter, one row longer, an extra tensor, a missing tensor.
pub fn ragged_weights(update: &ClientUpdate) -> Vec<(&'static str, ClientUpdate)> {
    let resized = |t: &Tensor, rows: usize| {
        let mut dims = t.shape().dims().to_vec();
        dims[0] = rows;
        Tensor::full(&dims, 9.0)
    };
    let rows = update.weights[0].shape().dims()[0];
    let edit = |label, f: &dyn Fn(&mut Vec<Tensor>)| {
        let mut u = update.clone();
        f(&mut u.weights);
        (label, u)
    };
    vec![
        edit("shorter tensor", &|w| w[0] = resized(&w[0], rows - 1)),
        edit("longer tensor", &|w| w[0] = resized(&w[0], rows + 1)),
        edit("extra tensor", &|w| w.push(Tensor::full(&[1], 9.0))),
        edit("missing tensor", &|w| {
            w.pop();
        }),
    ]
}

/// A fresh sink with the subject's round begun.
pub fn begin<S: UpdateSink>(subject: &Subject<'_, S>) -> S {
    let mut sink = (subject.fresh)();
    sink.begin_round(&RoundManifest {
        round: 3,
        tasks: &subject.specs,
    })
    .unwrap_or_else(|e| panic!("{}: begin_round: {e}", subject.name));
    sink
}

/// Absorbs valid `updates` in order.
pub fn absorb_all<S: UpdateSink>(sink: &mut S, updates: &[ClientUpdate]) {
    for update in updates {
        sink.absorb(update.clone()).expect("a valid update");
    }
}

fn refuse<S: UpdateSink>(sink: &mut S, update: &ClientUpdate, name: &str, case: &str) {
    match sink.absorb(update.clone()) {
        Err(SimError::Protocol { .. }) => {}
        other => panic!("{name}: {case} must be a protocol error, got {other:?}"),
    }
}

/// Runs the whole table against one subject.
pub fn run<S: UpdateSink>(subject: &Subject<'_, S>) {
    let name = &subject.name;
    let (updates, k) = (&subject.updates, subject.updates.len());
    assert!(k > RAGGED_AT + 1 && k == subject.specs.len(), "{name}");

    let mut clean = begin(subject);
    absorb_all(&mut clean, updates);
    clean.finish().unwrap();
    let reference = (subject.take)(&mut clean);

    // An intrusion at position `pos` is refused, and the round then
    // completes to the reference as if it had never been offered.
    let intrude = |pos: usize, case: &str, bad: &ClientUpdate| {
        let case = format!("{case} at position {pos}");
        let mut sink = begin(subject);
        absorb_all(&mut sink, &updates[..pos]);
        refuse(&mut sink, bad, name, &case);
        absorb_all(&mut sink, &updates[pos..]);
        sink.finish().unwrap();
        assert_eq!((subject.take)(&mut sink), reference, "{name}: {case}");
    };
    for pos in 0..k {
        let own = &updates[pos];
        if pos + 1 < k {
            intrude(pos, "out-of-order task", &updates[pos + 1]);
        }
        if pos > 0 {
            intrude(pos, "duplicate task", &updates[pos - 1]);
        }
        let mut bad = own.clone();
        bad.samples += 1;
        intrude(pos, "wrong sample count", &bad);
        let mut bad = own.clone();
        bad.client += 1000;
        intrude(pos, "out-of-manifest client", &bad);
        let mut bad = own.clone();
        bad.task = UNKNOWN_TASK;
        intrude(pos, "unknown task", &bad);
    }
    for (label, bad) in &subject.ragged {
        intrude(RAGGED_AT, label, bad);
    }

    // Past the manifest's end, and after the deadline.
    let mut sink = begin(subject);
    absorb_all(&mut sink, updates);
    refuse(&mut sink, &updates[k - 1], name, "absorb past the manifest");
    sink.finish().unwrap();
    refuse(&mut sink, &updates[0], name, "absorb after finish");
    assert!(
        matches!(sink.finish(), Err(SimError::Protocol { .. })),
        "{name}: a second finish must be a protocol error"
    );
    assert_eq!((subject.take)(&mut sink), reference, "{name}: late absorbs");

    // `finish` with absorbs missing, at every cut; the round goes on.
    let mut sink = begin(subject);
    for update in updates {
        assert!(
            matches!(sink.finish(), Err(SimError::Protocol { .. })),
            "{name}: finish before task {} was absorbed",
            update.task
        );
        sink.absorb(update.clone()).unwrap();
    }
    sink.finish().unwrap();
    assert_eq!((subject.take)(&mut sink), reference, "{name}: early finish");

    // No aggregate before `finish`: not on a fresh sink, not mid-round.
    let mut fresh = (subject.fresh)();
    let mut midway = begin(subject);
    absorb_all(&mut midway, updates);
    for sink in [&mut fresh, &mut midway] {
        let taken = catch_unwind(AssertUnwindSafe(|| (subject.take)(sink)));
        assert!(taken.is_err(), "{name}: take before finish must panic");
    }

    // A second `begin_round` resets cleanly: over an abandoned round,
    // and over a finished one whose aggregate was taken.
    let mut sink = begin(subject);
    absorb_all(&mut sink, &updates[..2]);
    for _ in 0..2 {
        sink.begin_round(&RoundManifest {
            round: 4,
            tasks: &subject.specs,
        })
        .unwrap();
        absorb_all(&mut sink, updates);
        sink.finish().unwrap();
        assert_eq!((subject.take)(&mut sink), reference, "{name}: new round");
    }

    // A manifest naming a task the sink's table does not cover.
    let mut specs = subject.specs.clone();
    specs[k - 1].task = UNKNOWN_TASK;
    let outcome = (subject.fresh)().begin_round(&RoundManifest {
        round: 0,
        tasks: &specs,
    });
    if subject.has_task_table {
        assert!(
            matches!(outcome, Err(SimError::Protocol { .. })),
            "{name}: a manifest task outside the table must be refused"
        );
    } else {
        outcome.unwrap();
    }
}
