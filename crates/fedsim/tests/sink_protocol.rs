//! The aggregation core at its one boundary: the manifest-order
//! protocol table (shared with `ScatterSink`, see
//! `common/sink_battery.rs`) for every rule × grouping that has a
//! constructor, the one checkpoint envelope at every cut point, and the
//! streaming rules' reject-and-count policy for non-finite uploads.

#[path = "common/sink_battery.rs"]
mod battery;

use battery::{absorb_all, begin, bits, ragged_weights, Subject, RAGGED_AT};
use ft_fedsim::sink::{
    Aggregator, ClientUpdate, FedAvgSink, RobustAggregation, RobustSink, RoundManifest, TaskSpec,
    UpdateSink,
};
use ft_fedsim::SimError;
use ft_tensor::Tensor;
use serde::Value;

/// Task → group map of the grouped subjects: position [`RAGGED_AT`]
/// lands in a group that has already seen an update.
const GROUP_OF: [usize; 5] = [0, 1, 0, 2, 1];

/// Five tasks of two tensors (`[3]`, `[2, 2]`) with uneven sample
/// counts; values are distinct eighth-steps, deltas a fixed offset.
fn cohort() -> (Vec<TaskSpec>, Vec<ClientUpdate>) {
    let tensors = |seed: usize, scale: f32| -> Vec<Tensor> {
        let value = |i: usize| ((seed * 37 + i * 11) % 41) as f32 * 0.125 * scale - 2.0;
        vec![
            Tensor::from_vec((0..3).map(value).collect(), &[3]).unwrap(),
            Tensor::from_vec((3..7).map(value).collect(), &[2, 2]).unwrap(),
        ]
    };
    let specs: Vec<TaskSpec> = [13u64, 7, 29, 0, 40]
        .iter()
        .enumerate()
        .map(|(task, &samples)| TaskSpec {
            task,
            client: 100 + task,
            samples,
        })
        .collect();
    let updates = specs
        .iter()
        .map(|spec| ClientUpdate {
            task: spec.task,
            client: spec.client,
            samples: spec.samples,
            weights: tensors(spec.task + 1, 1.0),
            delta: tensors(spec.task + 7, 0.5),
        })
        .collect();
    (specs, updates)
}

fn take_all(sink: &mut Aggregator) -> Vec<u32> {
    let (averages, deltas) = (sink.take_averages(), sink.take_mean_deltas());
    bits(averages.iter().chain(&deltas).map(Option::as_ref))
}

/// Every rule single-group, plus the grouped and delta-tracking
/// constructors the methods use.
fn subjects() -> Vec<Subject<'static, Aggregator>> {
    let (specs, updates) = cohort();
    let subject = |name: &str, fresh: Box<dyn Fn() -> Aggregator>, reads_delta: bool| {
        let mut ragged = ragged_weights(&updates[RAGGED_AT]);
        if reads_delta {
            let mut short = updates[RAGGED_AT].clone();
            short.delta[0] = Tensor::full(&[2], 9.0);
            ragged.push(("ragged delta", short));
        }
        Subject {
            name: name.to_owned(),
            fresh,
            specs: specs.clone(),
            updates: updates.clone(),
            ragged,
            has_task_table: name.starts_with("grouped"),
            take: take_all,
        }
    };
    let mut table: Vec<_> = [
        RobustAggregation::FedAvg,
        RobustAggregation::NormClip { tau: 2.0 },
        RobustAggregation::TrimmedMean { trim: 0.25 },
        RobustAggregation::TrimmedMean { trim: 0.0 },
        RobustAggregation::CoordinateMedian,
    ]
    .into_iter()
    .map(|rule| {
        let clips = matches!(rule, RobustAggregation::NormClip { .. });
        subject(
            &format!("{rule:?}"),
            Box::new(move || RobustSink::new(rule)),
            clips,
        )
    })
    .collect();
    table.push(subject(
        "single + deltas",
        Box::new(|| FedAvgSink::single().with_delta_tracking()),
        true,
    ));
    table.push(subject(
        "grouped",
        Box::new(|| FedAvgSink::grouped(3, GROUP_OF.to_vec())),
        false,
    ));
    table.push(subject(
        "grouped + deltas",
        Box::new(|| FedAvgSink::grouped(3, GROUP_OF.to_vec()).with_delta_tracking()),
        true,
    ));
    table
}

#[test]
fn every_rule_and_grouping_keeps_the_manifest_protocol() {
    for subject in subjects() {
        battery::run(&subject);
    }
}

/// The envelope after `cut` absorbs, through JSON text as a checkpoint
/// file would carry it.
fn envelope_at(subject: &Subject<'_, Aggregator>, cut: usize) -> Value {
    let mut sink = begin(subject);
    absorb_all(&mut sink, &subject.updates[..cut]);
    let json = serde_json::to_string(&sink.checkpoint_value()).unwrap();
    serde_json::parse_value(&json).unwrap()
}

/// No runner checkpoints mid-round (rounds are atomic w.r.t. the
/// checkpoint file); the envelope is recovery state all the same, and
/// this pins it: a kill after any number of absorbs resumes to the bit.
#[test]
fn a_mid_fold_checkpoint_resumes_bit_identically_at_every_cut() {
    for subject in subjects() {
        let mut full = begin(&subject);
        absorb_all(&mut full, &subject.updates);
        full.finish().unwrap();
        let reference = take_all(&mut full);
        for cut in 0..=subject.updates.len() {
            let mut resumed = (subject.fresh)();
            resumed.restore_value(&envelope_at(&subject, cut)).unwrap();
            absorb_all(&mut resumed, &subject.updates[cut..]);
            resumed.finish().unwrap();
            assert_eq!(
                take_all(&mut resumed),
                reference,
                "{} cut at {cut}",
                subject.name
            );
        }
    }
}

#[test]
fn a_checkpoint_of_another_kind_is_rejected() {
    let table = subjects();
    // The first five subjects are one per rule; trim 0 and trim 0.25
    // are the same kind.
    for (i, from) in table.iter().take(5).enumerate() {
        let envelope = envelope_at(from, 2);
        for (j, into) in table.iter().take(5).enumerate() {
            let same_kind = i == j || (i, j) == (2, 3) || (i, j) == (3, 2);
            let outcome = (into.fresh)().restore_value(&envelope);
            if same_kind {
                outcome.unwrap();
            } else {
                assert!(
                    matches!(outcome, Err(SimError::Snapshot { .. })),
                    "{} checkpoint into a {} sink: {outcome:?}",
                    from.name,
                    into.name
                );
            }
        }
    }
    let unknown = serde_json::parse_value(r#"{"sink":"scatter","state":{}}"#).unwrap();
    for subject in &table {
        assert!((subject.fresh)().restore_value(&unknown).is_err());
    }
}

fn field_mut<'v>(value: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Object(fields) = value else {
        panic!("`{key}` looked up in a non-object");
    };
    let (_, inner) = fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no field `{key}`"));
    inner
}

/// What a hand-edited checkpoint can hold and `absorb` never lets in.
#[test]
fn a_ragged_or_inconsistent_restored_buffer_is_rejected_not_indexed() {
    for subject in subjects() {
        if !subject.name.starts_with("TrimmedMean") && subject.name != "CoordinateMedian" {
            continue;
        }
        let k = subject.updates.len();
        // One buffered update loses a tensor: restore cannot see it,
        // `finish` must refuse it.
        let mut envelope = envelope_at(&subject, k);
        let Value::Array(buffer) = field_mut(field_mut(&mut envelope, "state"), "buffer") else {
            panic!("buffer is an array");
        };
        let Value::Array(tensors) = field_mut(&mut buffer[2], "weights") else {
            panic!("weights is an array");
        };
        tensors.pop();
        let mut sink = (subject.fresh)();
        sink.restore_value(&envelope).unwrap();
        let err = sink.finish().unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
        assert!(
            err.to_string()
                .contains("buffered update 2 has 1 tensors, expected 2"),
            "{}: {err}",
            subject.name
        );
        // The buffer loses a whole update the cursor says was absorbed.
        let mut envelope = envelope_at(&subject, k);
        let Value::Array(buffer) = field_mut(field_mut(&mut envelope, "state"), "buffer") else {
            panic!("buffer is an array");
        };
        buffer.pop();
        let outcome = (subject.fresh)().restore_value(&envelope);
        assert!(
            matches!(outcome, Err(SimError::Snapshot { .. })),
            "{}: {outcome:?}",
            subject.name
        );
    }
}

/// Restores `envelope` into a fresh sink and expects a
/// [`SimError::Snapshot`] naming `field`.
fn assert_refused_naming(subject: &Subject<'_, Aggregator>, envelope: &Value, field: &str) {
    match (subject.fresh)().restore_value(envelope) {
        Err(err @ SimError::Snapshot { .. }) => assert!(
            err.to_string().contains(&format!("`{field}`")),
            "{}: {err}",
            subject.name
        ),
        other => panic!("{}: `{field}` edit restored as {other:?}", subject.name),
    }
}

/// A buffered update is admitted under its manifest entry's sample
/// count; a checkpoint that says otherwise would weight the survivors
/// by counts nobody priced.
#[test]
fn a_restored_buffer_whose_samples_disagree_with_the_manifest_is_refused() {
    // Five tasks of one sample each, trim 0.2 (one per end), every
    // buffered count rewritten to 7 after all five absorbs.
    let specs: Vec<TaskSpec> = (0..5)
        .map(|task| TaskSpec {
            task,
            client: task,
            samples: 1,
        })
        .collect();
    let subject = Subject {
        name: "TrimmedMean 0.2, one sample each".to_owned(),
        fresh: Box::new(|| RobustSink::new(RobustAggregation::TrimmedMean { trim: 0.2 })),
        updates: specs
            .iter()
            .map(|spec| ClientUpdate {
                task: spec.task,
                client: spec.client,
                samples: 1,
                weights: vec![Tensor::from_vec(vec![spec.task as f32], &[1]).unwrap()],
                delta: Vec::new(),
            })
            .collect(),
        specs,
        ragged: Vec::new(),
        has_task_table: false,
        take: take_all,
    };
    let mut envelope = envelope_at(&subject, 5);
    let Value::Array(buffer) = field_mut(field_mut(&mut envelope, "state"), "buffer") else {
        panic!("buffer is an array");
    };
    for update in buffer {
        *field_mut(update, "samples") = Value::Number(7.0);
    }
    assert_refused_naming(&subject, &envelope, "samples");

    // One update off by one, in every buffering rule, mid-round.
    for subject in subjects() {
        if !subject.name.starts_with("TrimmedMean") && subject.name != "CoordinateMedian" {
            continue;
        }
        let mut envelope = envelope_at(&subject, 3);
        let Value::Array(buffer) = field_mut(field_mut(&mut envelope, "state"), "buffer") else {
            panic!("buffer is an array");
        };
        let samples = field_mut(&mut buffer[1], "samples");
        let Value::Number(n) = *samples else {
            panic!("samples is a number");
        };
        *samples = Value::Number(n + 1.0);
        assert_refused_naming(&subject, &envelope, "samples");
    }
}

/// A group's normalizers are the manifest's sums, re-derived on restore
/// rather than taken as written.
#[test]
fn a_restored_group_total_or_count_off_its_manifest_is_refused() {
    for subject in subjects() {
        for field in ["total", "count"] {
            let mut envelope = envelope_at(&subject, 2);
            let Value::Array(groups) = field_mut(field_mut(&mut envelope, "state"), "groups")
            else {
                panic!("groups is an array");
            };
            let value = field_mut(&mut groups[0], field);
            let Value::Number(n) = *value else {
                panic!("{field} is a number");
            };
            *value = Value::Number(n + 1.0);
            assert_refused_naming(&subject, &envelope, field);
        }
    }
}

// ---------------------------------------------------------------------
// Non-finite uploads: the streaming rules reject and count
// ---------------------------------------------------------------------

/// Ten single-value updates, all positive (no cancellation in the
/// mean), 10·(task + 1) samples each; deltas are a tenth of the weight.
fn ten_clients(poisoned: usize, poison: f32, in_delta: bool) -> (Vec<TaskSpec>, Vec<ClientUpdate>) {
    let specs: Vec<TaskSpec> = (0..10)
        .map(|task| TaskSpec {
            task,
            client: task,
            samples: 10 * (task as u64 + 1),
        })
        .collect();
    let updates = specs
        .iter()
        .map(|spec| {
            let w = 1.0 + spec.task as f32 * 0.375;
            let bad = spec.task == poisoned;
            let pick = |clean: f32, here: bool| if bad && here { poison } else { clean };
            ClientUpdate {
                task: spec.task,
                client: spec.client,
                samples: spec.samples,
                weights: vec![Tensor::from_vec(vec![pick(w, !in_delta), w + 0.5], &[2]).unwrap()],
                delta: vec![
                    Tensor::from_vec(vec![pick(w * 0.1, in_delta), w * 0.2], &[2]).unwrap(),
                ],
            }
        })
        .collect();
    (specs, updates)
}

fn fold(mut sink: Aggregator, specs: &[TaskSpec], updates: &[ClientUpdate]) -> Aggregator {
    sink.begin_round(&RoundManifest {
        round: 0,
        tasks: specs,
    })
    .unwrap();
    absorb_all(&mut sink, updates);
    sink.finish().unwrap();
    sink
}

/// The documented formula for a group with rejects: fold the kept
/// updates with the manifest's normalizers, then scale once by
/// `whole / kept`.
fn documented(kept: &[(f32, &Tensor)], whole: f32, kept_whole: f32) -> Vec<f32> {
    let mut acc = Tensor::zeros(kept[0].1.shape().dims());
    for (weight, t) in kept {
        acc.axpy(weight / whole, t).unwrap();
    }
    acc.scale_mut(whole / kept_whole);
    acc.data().to_vec()
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    for (g, w) in got.iter().zip(want) {
        assert!(g.is_finite(), "{what}: {got:?}");
        assert!(((g - w) / w).abs() <= 1e-5, "{what}: {got:?} vs {want:?}");
    }
}

#[test]
fn a_streaming_rule_rejects_a_non_finite_update_and_renormalizes() {
    let rules = [
        RobustAggregation::FedAvg,
        RobustAggregation::NormClip { tau: 1e9 },
    ];
    for rule in rules {
        for poison in [f32::NAN, f32::INFINITY] {
            let (specs, updates) = ten_clients(4, poison, false);
            let mut sink = fold(RobustSink::new(rule), &specs, &updates);
            assert_eq!(sink.rejected_updates(), 1, "{rule:?} {poison}");
            let got = sink.take_average().expect("nine updates were kept");

            let kept: Vec<(f32, &Tensor)> = updates
                .iter()
                .filter(|u| u.task != 4)
                .map(|u| (u.samples as f32, &u.weights[0]))
                .collect();
            let want = documented(&kept, 550.0, 500.0);
            assert_eq!(
                bits([Some(&got)]),
                bits([Some(&vec![Tensor::from_vec(want, &[2]).unwrap()])])
            );

            // The nine-client round, folded without the offender.
            let nine_specs: Vec<TaskSpec> = specs.iter().filter(|s| s.task != 4).copied().collect();
            let nine: Vec<ClientUpdate> = updates.iter().filter(|u| u.task != 4).cloned().collect();
            let mut clean = fold(RobustSink::new(rule), &nine_specs, &nine);
            assert_eq!(clean.rejected_updates(), 0);
            let clean = clean.take_average().unwrap();
            assert_close(got[0].data(), clean[0].data(), "vs the nine-client fold");
        }
    }
}

#[test]
fn a_reject_in_one_group_leaves_the_other_groups_bit_identical() {
    let group_of = vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0];
    let grouped = || FedAvgSink::grouped(3, group_of.clone()).with_delta_tracking();
    let (specs, clean_updates) = ten_clients(usize::MAX, 0.0, false);
    let mut clean = fold(grouped(), &specs, &clean_updates);
    let (clean_avg, clean_delta) = (clean.take_averages(), clean.take_mean_deltas());

    // Task 4 is in group 1; poison its weights, then only its delta.
    for in_delta in [false, true] {
        let (_, updates) = ten_clients(4, f32::NAN, in_delta);
        let mut sink = fold(grouped(), &specs, &updates);
        assert_eq!(sink.rejected_updates(), 1);
        let (avg, delta) = (sink.take_averages(), sink.take_mean_deltas());
        for g in [0, 2] {
            assert_eq!(bits([avg[g].as_ref()]), bits([clean_avg[g].as_ref()]));
            assert_eq!(bits([delta[g].as_ref()]), bits([clean_delta[g].as_ref()]));
        }
        // Group 1 = tasks 1, 4, 7 (20 + 50 + 80 samples): 4 is gone.
        let kept: Vec<&ClientUpdate> = [1, 7].iter().map(|&t| &updates[t]).collect();
        let by_samples: Vec<_> = kept
            .iter()
            .map(|u| (u.samples as f32, &u.weights[0]))
            .collect();
        let by_count: Vec<_> = kept.iter().map(|u| (1.0, &u.delta[0])).collect();
        let got_avg = avg[1].as_ref().expect("two updates were kept");
        let got_delta = delta[1].as_ref().expect("two updates were kept");
        assert_eq!(got_avg[0].data(), documented(&by_samples, 150.0, 100.0));
        assert_eq!(got_delta[0].data(), documented(&by_count, 3.0, 2.0));
        assert_close(
            got_avg[0].data(),
            &[
                (20.0 * 1.375 + 80.0 * 3.625) / 100.0,
                (20.0 * 1.875 + 80.0 * 4.125) / 100.0,
            ],
            "group 1 mean",
        );
    }
}

#[test]
fn a_group_whose_every_update_is_rejected_has_no_aggregate() {
    let (specs, mut updates) = ten_clients(usize::MAX, 0.0, false);
    for update in &mut updates {
        update.weights[0].data_mut()[1] = f32::NEG_INFINITY;
    }
    let mut sink = fold(FedAvgSink::single().with_delta_tracking(), &specs, &updates);
    assert_eq!(sink.rejected_updates(), 10);
    assert!(sink.take_averages()[0].is_none());
    assert!(sink.take_mean_deltas()[0].is_none());
    // The count is per round.
    let (_, clean) = ten_clients(usize::MAX, 0.0, false);
    let sink = fold(sink, &specs, &clean);
    assert_eq!(sink.rejected_updates(), 0);
}
