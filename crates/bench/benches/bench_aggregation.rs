//! Benchmarks of the aggregation paths: per-model FedAvg, the buffering
//! robust sinks' order-statistics kernel, and FedTrans's soft
//! aggregation across a heterogeneous suite.

use criterion::{criterion_group, criterion_main, Criterion};
use fedtrans::{seed_model, FedTransConfig, ModelAggregator};
use ft_data::InputSpec;
use ft_fedsim::sink::{
    ClientUpdate, FedAvgSink, RobustAggregation, RobustSink, RoundManifest, TaskSpec, UpdateSink,
};
use ft_model::similarity::similarity_matrix;
use ft_model::{deepen_cell, widen_cell, CellModel};
use ft_tensor::Tensor;
use rand::{Rng, SeedableRng};

fn suite() -> Vec<CellModel> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let m0 = CellModel::dense(&mut rng, 48, &[16, 16], 16);
    let m1 = widen_cell(&m0, 0, 2.0, &mut rng).unwrap();
    let m2 = deepen_cell(&m1, 1, 1, &mut rng).unwrap();
    let m3 = widen_cell(&m2, 1, 2.0, &mut rng).unwrap();
    vec![m0, m1, m2, m3]
}

fn bench_fedavg(c: &mut Criterion) {
    let models = suite();
    let specs: Vec<TaskSpec> = (0..10)
        .map(|i| TaskSpec {
            task: i,
            client: i,
            samples: 10 + i as u64,
        })
        .collect();
    let snapshot = models[0].snapshot();
    c.bench_function("fedavg_10_clients", |b| {
        b.iter(|| {
            let mut sink = FedAvgSink::single();
            sink.begin_round(&RoundManifest {
                round: 0,
                tasks: &specs,
            })
            .unwrap();
            for spec in &specs {
                sink.absorb(ClientUpdate {
                    task: spec.task,
                    client: spec.client,
                    samples: spec.samples,
                    weights: snapshot.clone(),
                    delta: Vec::new(),
                })
                .unwrap();
            }
            sink.finish().unwrap();
            sink.take_average().unwrap()
        });
    });
}

/// `finish` of a buffering sink at the `robust-trimmed` benchmark
/// workload's shape: 200 updates of the seed dense model for 48 inputs
/// and 16 classes, every update's values distinct. Absorbs (a move per
/// update) run in the untimed setup.
fn bench_robust_finish(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let seed = seed_model(&mut rng, InputSpec::Flat { dim: 48 }, 16, u64::MAX);
    let specs: Vec<TaskSpec> = (0..200)
        .map(|i| TaskSpec {
            task: i,
            client: i,
            samples: 20,
        })
        .collect();
    let updates: Vec<Vec<Tensor>> = specs
        .iter()
        .map(|_| {
            let mut weights = seed.snapshot();
            for v in weights.iter_mut().flat_map(|t| t.data_mut()) {
                *v += rng.gen_range(-0.05f32..0.05);
            }
            weights
        })
        .collect();
    for (name, rule) in [
        (
            "trimmed_mean_finish",
            RobustAggregation::TrimmedMean { trim: 0.3 },
        ),
        (
            "coordinate_median_finish",
            RobustAggregation::CoordinateMedian,
        ),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut sink = RobustSink::new(rule);
                    sink.begin_round(&RoundManifest {
                        round: 0,
                        tasks: &specs,
                    })
                    .unwrap();
                    for (spec, weights) in specs.iter().zip(&updates) {
                        sink.absorb(ClientUpdate {
                            task: spec.task,
                            client: spec.client,
                            samples: spec.samples,
                            weights: weights.clone(),
                            delta: Vec::new(),
                        })
                        .unwrap();
                    }
                    sink
                },
                |mut sink| {
                    sink.finish().unwrap();
                    sink.take_average().unwrap()
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
}

fn bench_soft_aggregate(c: &mut Criterion) {
    let models = suite();
    let refs: Vec<&CellModel> = models.iter().collect();
    let sims = similarity_matrix(&refs);
    let agg = ModelAggregator::new(&FedTransConfig::default());
    let per_model: Vec<Option<Vec<Tensor>>> = models.iter().map(|m| Some(m.snapshot())).collect();
    let ages = vec![30u32, 20, 10, 5];
    c.bench_function("soft_aggregate_4_models", |b| {
        b.iter(|| agg.soft_aggregate(&models, &per_model, &sims, &ages));
    });
}

fn bench_similarity_matrix(c: &mut Criterion) {
    let models = suite();
    let refs: Vec<&CellModel> = models.iter().collect();
    c.bench_function("similarity_matrix_4_models", |b| {
        b.iter(|| similarity_matrix(&refs));
    });
}

criterion_group!(
    benches,
    bench_fedavg,
    bench_robust_finish,
    bench_soft_aggregate,
    bench_similarity_matrix
);
criterion_main!(benches);
