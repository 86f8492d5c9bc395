//! Property test: the streaming fold is 0-ULP identical to the
//! retired batch FedAvg.
//!
//! The retired `ModelAggregator::fedavg` materialized every update in
//! a `&[(Vec<Tensor>, u64)]` slice and folded the slice in one pass.
//! The streaming [`FedAvgSink`] folds each update the moment it lands
//! and drops it. Both must produce bitwise-equal averages — for any
//! cohort, any in-flight window, and any schedule the pipelined
//! executor (`ft_fedsim::exec::try_stream_map`) admits under its claim
//! rule `index < consumed + window` — because the sink replays the
//! exact same `axpy(samples/total)` sequence in task order, no matter
//! when each upload physically arrived.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ft_fedsim::sink::{ClientUpdate, FedAvgSink, RoundManifest, TaskSpec, UpdateSink};
use ft_tensor::Tensor;

/// The retired batch FedAvg, verbatim: one pass over the materialized
/// slice, `acc += (samples/total) · w` in task order.
fn batch_fedavg(updates: &[(Vec<Tensor>, u64)]) -> Option<Vec<Tensor>> {
    let total: u64 = updates.iter().map(|(_, n)| *n).sum();
    if updates.is_empty() || total == 0 {
        return None;
    }
    let mut acc: Vec<Tensor> = updates[0]
        .0
        .iter()
        .map(|t| Tensor::zeros(t.shape().dims()))
        .collect();
    for (weights, n) in updates {
        let w = *n as f32 / total as f32;
        for (a, t) in acc.iter_mut().zip(weights) {
            a.axpy(w, t).expect("same model, same shapes");
        }
    }
    Some(acc)
}

/// Streams the same cohort through a [`FedAvgSink`], replaying the
/// executor's discipline: a task may *start* only while
/// `task < consumed + window`; started tasks *complete* in any order
/// and sit in a reorder buffer until the contiguous task-order prefix
/// can be absorbed (the sink rejects anything else). Each entry of
/// `schedule` picks the next event among those the rule admits —
/// complete one of the running tasks, or start the next one.
fn stream_fedavg(
    updates: &[(Vec<Tensor>, u64)],
    schedule: &[u64],
    window: usize,
) -> Option<Vec<Tensor>> {
    let n = updates.len();
    let specs: Vec<TaskSpec> = updates
        .iter()
        .enumerate()
        .map(|(i, (_, n))| TaskSpec {
            task: i,
            client: i,
            samples: *n,
        })
        .collect();
    let mut sink = FedAvgSink::single();
    sink.begin_round(&RoundManifest {
        round: 0,
        tasks: &specs,
    })
    .unwrap();

    let mut running: Vec<usize> = Vec::new();
    let mut buffered: BTreeMap<usize, ClientUpdate> = BTreeMap::new();
    let (mut next, mut consumed) = (0usize, 0usize);
    for &pick in schedule {
        let may_start = next < n && next < consumed + window;
        let pick = pick as usize % (running.len() + usize::from(may_start));
        if pick == running.len() {
            running.push(next);
            next += 1;
            continue;
        }
        let task = running.swap_remove(pick);
        buffered.insert(
            task,
            ClientUpdate {
                task,
                client: task,
                samples: updates[task].1,
                weights: updates[task].0.clone(),
                delta: Vec::new(),
            },
        );
        assert!(running.len() + buffered.len() <= window);
        while let Some(u) = buffered.remove(&consumed) {
            sink.absorb(u).unwrap();
            consumed += 1;
        }
    }
    assert_eq!(consumed, n, "one start and one completion per task");
    sink.finish().unwrap();
    sink.take_average()
}

/// Per-task weights + sample counts.
type Cohort = Vec<(Vec<Tensor>, u64)>;

/// A cohort, a schedule of `2n` event picks (every task starts once
/// and completes once), and an in-flight window.
fn cohort() -> impl Strategy<Value = (Cohort, Vec<u64>, usize)> {
    (1usize..=10).prop_flat_map(|n| {
        let one_update = (proptest::collection::vec(-1000i32..1000, 3 + 4), 0u64..500).prop_map(
            |(vals, samples)| {
                // Eighth-steps keep values exact in f32 while still
                // exercising non-trivial rounding in the fold itself.
                let f: Vec<f32> = vals.iter().map(|&v| v as f32 * 0.125).collect();
                let t1 = Tensor::from_vec(f[..3].to_vec(), &[3]).unwrap();
                let t2 = Tensor::from_vec(f[3..].to_vec(), &[4]).unwrap();
                (vec![t1, t2], samples)
            },
        );
        (
            proptest::collection::vec(one_update, n),
            proptest::collection::vec(0u64..u64::MAX, 2 * n),
            1usize..=n + 2,
        )
    })
}

fn bits(tensors: &[Tensor]) -> Vec<u32> {
    tensors
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streaming_fold_is_bit_identical_to_batch_fedavg(
        (updates, schedule, window) in cohort()
    ) {
        let reference = batch_fedavg(&updates);
        let streamed = stream_fedavg(&updates, &schedule, window);
        match (reference, streamed) {
            (None, None) => {}
            (Some(r), Some(s)) => {
                // Bitwise, not approximate: 0 ULP, same NaN/zero signs.
                prop_assert_eq!(bits(&r), bits(&s));
            }
            (r, s) => prop_assert!(
                false,
                "presence mismatch: batch {:?} vs streamed {:?}",
                r.is_some(),
                s.is_some()
            ),
        }
    }
}
