//! `ScatterSink` against the same sink-protocol table the aggregation
//! core is held to (`crates/fedsim/tests/common/sink_battery.rs`), plus
//! its share of the non-finite policy: a rejected update is consumed
//! and scattered nowhere.

#[path = "../../fedsim/tests/common/sink_battery.rs"]
mod battery;

use battery::{bits, ragged_weights, Subject, RAGGED_AT};
use ft_baselines::submodel::{extract, KeepPlan};
use ft_baselines::ScatterSink;
use ft_fedsim::sink::{ClientUpdate, RoundManifest, TaskSpec, UpdateSink};
use ft_model::CellModel;
use ft_tensor::Tensor;
use rand::SeedableRng;

fn global() -> CellModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    CellModel::dense(&mut rng, 6, &[8, 8], 4)
}

/// Five tasks over three corner plans; each update is its submodel's
/// weights shifted by a per-task, per-element offset.
fn round(global: &CellModel, plans: &[KeepPlan]) -> (Vec<TaskSpec>, Vec<ClientUpdate>) {
    let specs: Vec<TaskSpec> = (0..5)
        .map(|task| TaskSpec {
            task,
            client: 40 + task,
            samples: 10,
        })
        .collect();
    let updates = specs
        .iter()
        .map(|spec| {
            let mut weights = extract(global, &plans[spec.task % plans.len()]).snapshot();
            for (i, v) in weights.iter_mut().flat_map(|t| t.data_mut()).enumerate() {
                *v += ((spec.task * 13 + i * 7) % 17) as f32 * 0.125;
            }
            ClientUpdate {
                task: spec.task,
                client: spec.client,
                samples: spec.samples,
                weights,
                delta: Vec::new(),
            }
        })
        .collect();
    (specs, updates)
}

fn take(sink: &mut ScatterSink<'_>) -> Vec<u32> {
    bits([Some(&sink.take_aggregate())])
}

#[test]
fn scatter_sink_keeps_the_manifest_protocol() {
    let g = global();
    let plans = [
        KeepPlan::corner(&g, 1.0),
        KeepPlan::corner(&g, 0.5),
        KeepPlan::corner(&g, 0.25),
    ];
    let (specs, updates) = round(&g, &plans);
    let per_task: Vec<&KeepPlan> = (0..5).map(|t| &plans[t % plans.len()]).collect();
    // Wrong extents for the task's own plan — including a tensor cut
    // with a *different* plan of the same model.
    let mut ragged = ragged_weights(&updates[RAGGED_AT]);
    let mut foreign = updates[RAGGED_AT].clone();
    foreign.weights = updates[RAGGED_AT + 1].weights.clone();
    ragged.push(("another plan's submodel", foreign));
    battery::run(&Subject {
        name: "ScatterSink".to_owned(),
        fresh: Box::new(|| ScatterSink::new(&g, per_task.clone())),
        specs,
        updates,
        ragged,
        has_task_table: true,
        take,
    });
}

#[test]
fn a_non_finite_update_is_consumed_but_scattered_nowhere() {
    let g = global();
    let plans = [KeepPlan::corner(&g, 1.0), KeepPlan::corner(&g, 0.5)];
    let specs: Vec<TaskSpec> = (0..10)
        .map(|task| TaskSpec {
            task,
            client: task,
            samples: 10,
        })
        .collect();
    let update_of = |spec: &TaskSpec| {
        let plan = &plans[spec.task % 2];
        let weights = extract(&g, plan)
            .snapshot()
            .iter()
            .map(|t| Tensor::full(t.shape().dims(), 1.0 + spec.task as f32 * 0.25))
            .collect();
        ClientUpdate {
            task: spec.task,
            client: spec.client,
            samples: spec.samples,
            weights,
            delta: Vec::new(),
        }
    };
    let fold = |specs: &[TaskSpec], updates: Vec<ClientUpdate>| {
        let per_task: Vec<&KeepPlan> = (0..10).map(|t| &plans[t % 2]).collect();
        let mut sink = ScatterSink::new(&g, per_task);
        sink.begin_round(&RoundManifest {
            round: 0,
            tasks: specs,
        })
        .unwrap();
        for update in updates {
            sink.absorb(update).unwrap();
        }
        sink.finish().unwrap();
        (sink.rejected_updates(), sink.take_aggregate())
    };
    // The nine-client round: task 4 never delivered.
    let nine_specs: Vec<TaskSpec> = specs.iter().filter(|s| s.task != 4).copied().collect();
    let (none, nine) = fold(&nine_specs, nine_specs.iter().map(update_of).collect());
    assert_eq!(none, 0);

    for poison in [f32::NAN, f32::INFINITY] {
        let mut updates: Vec<ClientUpdate> = specs.iter().map(update_of).collect();
        updates[4].weights[1].data_mut()[0] = poison;
        let (rejected, aggregate) = fold(&specs, updates);
        assert_eq!(rejected, 1, "{poison}");
        // Element-wise counts are the normalizer, so leaving an update
        // out *is* the nine-client overlap average, to the bit.
        assert_eq!(bits([Some(&aggregate)]), bits([Some(&nine)]), "{poison}");
        assert!(aggregate
            .iter()
            .all(|t| t.data().iter().all(|v| v.is_finite())));
    }
}
