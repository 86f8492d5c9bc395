//! Layer probes: timed calls into each workspace module's public
//! functions, on shapes derived from the workload's scenario — its seed
//! model, a widen/deepen suite grown up to the fleet's largest device,
//! its cohort size, its sink kind. Run only in the traced pass; one span
//! per probe.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fedtrans::{seed_model, ClientManager, FedTransConfig, ModelAggregator, ModelTransformer};
use ft_baselines::submodel::{extract, KeepPlan};
use ft_baselines::ScatterSink;
use ft_data::{ClientData, ShardSource, SparseFederatedData};
use ft_fedsim::sink::{ClientUpdate, DiscardSink, RoundManifest, TaskSpec, UpdateSink};
use ft_fedsim::trainer::{
    client_seed, expected_samples, train_tasks, LocalStepper, LocalTrainConfig, TrainTask,
};
use ft_fedsim::{select, Coordinator, FedAvgSink, RobustSink};
use ft_harness::{AlgorithmSpec, Scenario};
use ft_model::similarity::similarity_matrix;
use ft_model::{deepen_cell, widen_cell, Cell, CellModel};
use ft_nn::{AttentionBlock, Conv2d, Linear, Sgd};
use ft_tensor::Tensor;

use crate::alloc::peak_live_bytes;
use crate::host;
use crate::trace::Tracer;

/// Each probe repeats its call for about this long.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
const MIN_CALLS: usize = 5;
const MAX_CALLS: usize = 20_000;

/// Below this many multiply-adds `ft_tensor` takes its serial loop nest;
/// at or above `PAR_WORK` it fans row panels out over the pool.
const SMALL_WORK: usize = 1 << 15;
const PAR_WORK: usize = 1 << 20;

/// Times repeated calls of `f` inside one span; the fastest call's
/// seconds, or the first error a call returns.
fn try_probe<T, E>(
    t: &mut Tracer,
    name: &str,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<f64, E> {
    t.time(name, |_| {
        black_box(f()?);
        let mut best = f64::INFINITY;
        let mut calls = 0;
        let begin = Instant::now();
        while calls < MIN_CALLS || (begin.elapsed() < PROBE_BUDGET && calls < MAX_CALLS) {
            let start = Instant::now();
            black_box(f()?);
            best = best.min(start.elapsed().as_secs_f64());
            calls += 1;
        }
        Ok(best)
    })
    .0
}

/// [`try_probe`] for a call that cannot fail.
fn probe<T>(t: &mut Tracer, name: &str, mut f: impl FnMut() -> T) -> f64 {
    let Ok(secs) = try_probe(t, name, || Ok::<T, Infallible>(f()));
    secs
}

/// Forward GEMM shapes `(m, k, n)` of a model at a batch size.
fn gemm_shapes(model: &CellModel, batch: usize) -> Vec<(usize, usize, usize)> {
    let head = model.head().linear();
    let mut shapes = vec![(batch, head.in_features(), head.out_features())];
    for cell in model.cells() {
        match cell {
            Cell::Dense { linear, .. } => {
                shapes.push((batch, linear.in_features(), linear.out_features()));
            }
            Cell::Conv { conv, .. } => {
                let (h, w) = conv.spatial();
                let k = conv.in_channels() * conv.kernel() * conv.kernel();
                shapes.push((batch * h * w, k, conv.out_channels()));
            }
            Cell::Attention { .. } => {}
        }
    }
    shapes
}

fn work(&(m, k, n): &(usize, usize, usize)) -> usize {
    m * k * n
}

fn gemm_gflops(
    t: &mut Tracer,
    name: &str,
    (m, k, n): (usize, usize, usize),
) -> Result<f64, String> {
    let a = Tensor::ones(&[m, k]);
    let b = Tensor::ones(&[k, n]);
    let secs = try_probe(t, name, || a.matmul(&b)).map_err(|e| e.to_string())?;
    Ok(2.0 * (m * k * n) as f64 / secs / 1e9)
}

/// Grows a suite from `seed` the way the transformer does — alternately
/// widening and deepening the newest model — until the model budget is
/// used or the next child would not fit the most capable device.
fn grow_suite(
    seed: CellModel,
    max_models: usize,
    max_macs: u64,
    rng: &mut StdRng,
) -> Vec<CellModel> {
    let mut suite = vec![seed];
    while suite.len() < max_models {
        let parent = &suite[suite.len() - 1];
        let cell = (suite.len() - 1) % parent.cells().len();
        let child = if suite.len() % 2 == 1 {
            widen_cell(parent, cell, 2.0, rng)
        } else {
            deepen_cell(parent, cell, 1, rng)
        };
        match child {
            Ok(c) if c.macs_per_sample() <= max_macs => suite.push(c),
            _ => break,
        }
    }
    suite
}

/// An update shaped like `model`'s. Every value is perturbed, so no two
/// updates agree on a coordinate: sorting identical values would flatter
/// the order-statistic sinks.
fn update_of(model: &CellModel, rng: &mut StdRng) -> ClientUpdate {
    let mut noisy = || -> Vec<Tensor> {
        let mut tensors = model.snapshot();
        for v in tensors.iter_mut().flat_map(|t| t.data_mut()) {
            *v += rng.gen_range(-0.05f32..0.05);
        }
        tensors
    };
    ClientUpdate {
        task: 0,
        client: 0,
        samples: 0,
        weights: noisy(),
        delta: noisy(),
    }
}

fn update_bytes(u: &ClientUpdate) -> usize {
    u.weights.iter().chain(&u.delta).map(|t| t.len() * 4).sum()
}

/// Streams one round's updates through `sink` as the coordinator does:
/// each update is created, absorbed and gone before the next exists.
/// Returns `(absorb seconds, finish seconds, peak bytes held)`.
fn fold_round(
    sink: &mut dyn UpdateSink,
    specs: &[TaskSpec],
    templates: &[ClientUpdate],
) -> Result<(f64, f64, usize), String> {
    let manifest = RoundManifest {
        round: 0,
        tasks: specs,
    };
    sink.begin_round(&manifest).map_err(|e| e.to_string())?;
    let (absorb, held) = peak_live_bytes(|| -> Result<f64, String> {
        let mut absorb = 0.0;
        for spec in specs {
            let mut update = templates[spec.task % templates.len()].clone();
            update.task = spec.task;
            update.client = spec.client;
            update.samples = spec.samples;
            let start = Instant::now();
            sink.absorb(update).map_err(|e| e.to_string())?;
            absorb += start.elapsed().as_secs_f64();
        }
        Ok(absorb)
    });
    let start = Instant::now();
    sink.finish().map_err(|e| e.to_string())?;
    Ok((absorb?, start.elapsed().as_secs_f64(), held))
}

pub fn run(
    t: &mut Tracer,
    scenario: &Scenario,
    participants_per_round: f64,
    settled_step_s: f64,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_owned(), value);
    };
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let cfg = &scenario.dataset;
    let local = scenario.local;
    let batch = local.batch_size.max(1);
    let cohort = scenario.clients_per_round.min(cfg.num_clients);

    // host: the denominators.
    let peak_gflops = t.time("host.peak_gflops", |_| host::peak_gflops()).0;
    let mem_gbps = t.time("host.mem_gbps", |_| host::mem_gbps()).0;
    put("host.peak_gflops", peak_gflops);
    put("host.mem_gbps", mem_gbps);

    // data
    let sparse = SparseFederatedData::new(cfg.clone());
    // The workload's shards, derived on demand or materialized.
    let (generate_s, shards): (f64, Box<dyn ShardSource>) = if scenario.sparse {
        let secs = probe(t, "data.generate", || SparseFederatedData::new(cfg.clone()));
        (secs, Box::new(sparse.clone()))
    } else {
        let secs = probe(t, "data.generate", || cfg.generate());
        (secs, Box::new(cfg.generate()))
    };
    put("data.generate_s", generate_s);
    let mut next_client = 0;
    let shard_s = probe(t, "data.sparse_shard", || {
        next_client = (next_client + 1) % cfg.num_clients;
        sparse.shard(next_client).into_owned()
    });
    put("data.sparse_shard_us", shard_s * 1e6);
    let shard: ClientData = shards.as_ref().shard(0).into_owned();
    let (mut x, mut labels) = (Tensor::default(), Vec::new());
    let batch_s = probe(t, "data.sample_batch", || {
        shard.sample_batch_into(&mut rng, batch, &mut x, &mut labels);
    });
    put("data.sample_batch_us", batch_s * 1e6);

    // The suite the probes share.
    let devices = scenario.devices.generate(cfg.num_clients);
    let seed = seed_model(&mut rng, cfg.input, cfg.num_classes, devices.min_capacity());
    let fedtrans_cfg = match scenario.algorithm {
        AlgorithmSpec::FedTrans {
            max_models,
            transform_cooldown,
            gamma,
            delta,
            beta,
        } => {
            let mut c = FedTransConfig::default()
                .with_gamma(gamma)
                .with_delta(delta)
                .with_beta(beta);
            c.max_models = max_models;
            c.transform_cooldown = transform_cooldown;
            c
        }
        // Single-model arms: a suite of one, default transformer knobs.
        _ => FedTransConfig {
            max_models: 1,
            ..FedTransConfig::default()
        },
    };
    let suite = grow_suite(
        seed.clone(),
        fedtrans_cfg.max_models,
        devices.max_capacity(),
        &mut rng,
    );
    let big = suite[suite.len() - 1].clone();
    let macs: Vec<u64> = suite.iter().map(CellModel::macs_per_sample).collect();

    // tensor
    let big_shapes = gemm_shapes(&big, batch);
    let (mut m, k, n) = *big_shapes
        .iter()
        .max_by_key(|s| work(s))
        .expect("head shape");
    // The workload's widest GEMM, with rows added until the tiled,
    // threaded path takes it.
    m = m.max(PAR_WORK.div_ceil(k * n));
    let tiled = gemm_gflops(t, "tensor.gemm_tiled", (m, k, n))?;
    put("tensor.gemm_tiled_gflops", tiled);
    put("tensor.gemm_tiled_peak_frac", tiled / peak_gflops);
    let small = *gemm_shapes(&seed, batch)
        .iter()
        .filter(|s| work(s) < SMALL_WORK)
        .max_by_key(|s| work(s))
        .expect("the classifier GEMM is below the cutoff");
    put(
        "tensor.gemm_small_gflops",
        gemm_gflops(t, "tensor.gemm_small", small)?,
    );
    {
        let mut model = big.clone();
        model.zero_grad();
        shard.sample_batch_into(&mut rng, batch, &mut x, &mut labels);
        model
            .loss_and_grad(&x, &labels)
            .map_err(|e| e.to_string())?;
        let mut sgd = Sgd::new(local.lr).with_momentum(local.momentum);
        let secs = try_probe(t, "tensor.fused_sgd", || {
            let mut step = sgd.begin_step();
            model.for_each_param_and_grad(&mut |p, g| step.apply(p, g));
            step.finish()
        })
        .map_err(|e| e.to_string())?;
        // Reads p, v, g and writes p, v: 20 bytes per parameter.
        let gbps = (model.param_count() * 20) as f64 / secs / 1e9;
        put("tensor.fused_sgd_gbps", gbps);
        put("tensor.fused_sgd_bw_frac", gbps / mem_gbps);
    }

    // nn
    {
        let (_, k, n) = *big_shapes
            .iter()
            .filter(|s| s.0 == batch)
            .max_by_key(|s| work(s))
            .expect("head shape");
        let mut layer = Linear::new(&mut rng, k, n);
        let (x, dy) = (Tensor::ones(&[batch, k]), Tensor::ones(&[batch, n]));
        let secs = try_probe(t, "nn.dense_fwdbwd", || {
            layer.forward(&x).and_then(|_| layer.backward(&dy))
        })
        .map_err(|e| e.to_string())?;
        put("nn.dense_fwdbwd_us", secs * 1e6);
    }
    {
        // The workload's widest conv cell; a CIFAR-like 3x8x8 -> 8
        // stand-in when it has none.
        let widest = big
            .cells()
            .iter()
            .filter_map(|c| match c {
                Cell::Conv { conv, .. } => Some(conv),
                _ => None,
            })
            .max_by_key(|c| c.macs_per_sample());
        let (cin, cout, kernel, (h, w)) = widest.map_or((3, 8, 3, (8, 8)), |c| {
            (c.in_channels(), c.out_channels(), c.kernel(), c.spatial())
        });
        let mut layer = Conv2d::new(&mut rng, cin, cout, kernel, h, w);
        let x = Tensor::ones(&[batch, cin * h * w]);
        let dy = Tensor::ones(&[batch, cout * h * w]);
        let secs = try_probe(t, "nn.conv_fwdbwd", || {
            layer.forward(&x).and_then(|_| layer.backward(&dy))
        })
        .map_err(|e| e.to_string())?;
        put("nn.conv_fwdbwd_us", secs * 1e6);
    }
    {
        // femnist-vit-like geometry; no workload runs it end to end.
        let (tokens, d_model, d_ff) = (8, 8, 32);
        let mut block = AttentionBlock::new(&mut rng, tokens, d_model, d_ff);
        let x = Tensor::ones(&[batch, tokens * d_model]);
        let secs = try_probe(t, "nn.attn_fwdbwd", || {
            block.forward(&x).and_then(|_| block.backward(&x))
        })
        .map_err(|e| e.to_string())?;
        put("nn.attn_fwdbwd_us", secs * 1e6);
    }

    // model
    shard.sample_batch_into(&mut rng, batch, &mut x, &mut labels);
    for (name, model) in [
        ("model.loss_and_grad", &seed),
        ("model.loss_and_grad_big", &big),
    ] {
        let mut model = model.clone();
        let secs = try_probe(t, name, || {
            model.zero_grad();
            model.loss_and_grad(&x, &labels)
        })
        .map_err(|e| e.to_string())?;
        put(&format!("{name}_us"), secs * 1e6);
    }
    put(
        "model.clone_us",
        probe(t, "model.clone", || seed.clone()) * 1e6,
    );
    {
        let mut model = seed.clone();
        let secs = try_probe(t, "model.snapshot_restore", || {
            let snapshot = model.snapshot();
            model.restore(&snapshot)
        })
        .map_err(|e| e.to_string())?;
        put("model.snapshot_restore_us", secs * 1e6);
    }
    let widen_s = try_probe(t, "model.widen", || widen_cell(&seed, 0, 2.0, &mut rng))
        .map_err(|e| e.to_string())?;
    put("model.widen_ms", widen_s * 1e3);
    let deepen_s = try_probe(t, "model.deepen", || deepen_cell(&seed, 0, 1, &mut rng))
        .map_err(|e| e.to_string())?;
    put("model.deepen_ms", deepen_s * 1e3);
    let refs: Vec<&CellModel> = suite.iter().collect();
    let sims = similarity_matrix(&refs);
    let sim_s = probe(t, "model.similarity_matrix", || similarity_matrix(&refs));
    put("model.similarity_matrix_ms", sim_s * 1e3);

    // fedsim.select
    let select_s = probe(t, "fedsim.select.uniform", || {
        select::uniform(&mut rng, cfg.num_clients, cohort)
    });
    put("fedsim.select.uniform_us", select_s * 1e6);

    // fedsim.trainer: one cohort through the exec engine at the pinned
    // thread counts, each client on a model its device can run.
    let clients = select::uniform(&mut rng, cfg.num_clients, cohort);
    let tasks: Vec<TrainTask> = clients
        .iter()
        .enumerate()
        .map(|(i, &client)| {
            let fits =
                ClientManager::compatible_models(&macs, devices.profile(client).capacity_macs);
            TrainTask {
                client,
                model: fits[i % fits.len()],
                seed: client_seed(scenario.seed, client),
            }
        })
        .collect();
    let threads = ft_fedsim::exec::client_threads();
    let cohort_s = try_probe(t, "fedsim.trainer.cohort", || {
        train_tasks(&tasks, &suite, shards.as_ref(), &local, threads)
    })
    .map_err(|e| e.to_string())?;
    let client_us = cohort_s * 1e6 / cohort as f64;
    put("fedsim.trainer.client_us", client_us);
    {
        let mut model = seed.clone();
        let mut stepper = LocalStepper::new(&model, &shard, &local, 1);
        let secs = try_probe(t, "fedsim.trainer.step", || stepper.step(&mut model))
            .map_err(|e| e.to_string())?;
        put("fedsim.trainer.step_us", secs * 1e6);
    }

    // fedsim.coordinator: the protocol around a cohort whose training
    // is as close to free as the API allows.
    {
        let minimal = [CellModel::dense(
            &mut rng,
            cfg.input.flat_dim(),
            &[4],
            cfg.num_classes,
        )];
        let one_sample = LocalTrainConfig {
            local_steps: 1,
            batch_size: 1,
            ..local
        };
        let mut coordinator = Coordinator::new(scenario.seed, scenario.faults, devices.clone());
        coordinator.set_options(scenario.timing.round_options());
        let secs = try_probe(t, "fedsim.coordinator.round", || -> Result<(), String> {
            let round = coordinator.round();
            let admitted = coordinator
                .begin_round(round, &clients)
                .map_err(|e| e.to_string())?;
            let tasks = admitted
                .iter()
                .map(|&client| TrainTask {
                    client,
                    model: 0,
                    seed: client_seed(u64::from(round), client),
                })
                .collect();
            let replies = coordinator
                .train(
                    tasks,
                    &minimal,
                    shards.as_ref(),
                    &one_sample,
                    &mut DiscardSink,
                )
                .map_err(|e| e.to_string())?;
            if replies.is_empty() {
                return Err("the coordinator probe served no client".to_owned());
            }
            coordinator.finish_round().map_err(|e| e.to_string())
        })?;
        let stats = coordinator.stats();
        put(
            "fedsim.coordinator.us_per_client",
            secs * 1e6 / cohort as f64,
        );
        put(
            "fedsim.coordinator.messages_per_client",
            (stats.messages_up + stats.messages_down) as f64 / stats.results.max(1) as f64,
        );
    }

    // fedsim.sink: the workload's own sink kind over one cohort.
    let sink_s = {
        let group_of: Vec<usize> = tasks.iter().map(|task| task.model).collect();
        let samples = expected_samples(&local, shard.train_len());
        let specs: Vec<TaskSpec> = tasks
            .iter()
            .enumerate()
            .map(|(task, tt)| TaskSpec {
                task,
                client: tt.client,
                samples,
            })
            .collect();
        let per_task: Vec<ClientUpdate> = group_of
            .iter()
            .map(|&g| update_of(&suite[g], &mut rng))
            .collect();
        let robust = scenario.attack.map(|a| a.robust).unwrap_or_default();
        let (mut absorb, mut finish, mut held) = (f64::INFINITY, f64::INFINITY, 0);
        t.time("fedsim.sink.round", |_| -> Result<(), String> {
            let begin = Instant::now();
            for call in 0.. {
                if call >= MIN_CALLS && begin.elapsed() >= PROBE_BUDGET {
                    break;
                }
                let (absorb_s, finish_s, bytes) = match scenario.algorithm {
                    AlgorithmSpec::FedTrans { .. } => {
                        let mut sink = FedAvgSink::grouped(suite.len(), group_of.clone())
                            .with_delta_tracking();
                        fold_round(&mut sink, &specs, &per_task)?
                    }
                    _ => fold_round(&mut RobustSink::new(robust), &specs, &per_task)?,
                };
                absorb = absorb.min(absorb_s);
                finish = finish.min(finish_s);
                // The last call's: the first also fills the scratch pools.
                held = bytes;
            }
            Ok(())
        })
        .0?;
        let moved: usize = per_task.iter().map(update_bytes).sum();
        put(
            "fedsim.sink.absorb_us_per_update",
            absorb * 1e6 / cohort as f64,
        );
        put("fedsim.sink.finish_ms", finish * 1e3);
        put(
            "fedsim.sink.mb_per_s",
            moved as f64 / 1e6 / (absorb + finish),
        );
        put("fedsim.sink.buffered_mb", held as f64 / 1e6);
        (absorb + finish) / cohort as f64
    };

    // fedtrans
    {
        let aggregator = ModelAggregator::new(&fedtrans_cfg);
        let averages: Vec<Option<Vec<Tensor>>> = suite.iter().map(|m| Some(m.snapshot())).collect();
        let ages = vec![3u32; suite.len()];
        let secs = probe(t, "fedtrans.aggregator.soft_aggregate", || {
            aggregator.soft_aggregate(&suite, &averages, &sims, &ages)
        });
        put("fedtrans.aggregator.soft_aggregate_ms", secs * 1e3);

        // A transformer at the elbow: flat losses past the cool-down.
        let mut ready = ModelTransformer::new(&FedTransConfig {
            max_models: 2,
            ..fedtrans_cfg.clone()
        });
        for _ in 0..fedtrans_cfg.transform_cooldown + fedtrans_cfg.gamma + fedtrans_cfg.delta {
            ready.record_loss(1.0);
        }
        let activeness = vec![1.0f32; seed.cells().len()];
        let secs = try_probe(t, "fedtrans.transformer.maybe_transform", || {
            ready
                .clone()
                .maybe_transform(&seed, &activeness, u64::MAX, 1, &mut rng)
                .map_err(|e| e.to_string())?
                .ok_or("the transformer probe did not transform")
                .map_err(str::to_owned)
        })?;
        put("fedtrans.transformer.maybe_transform_ms", secs * 1e3);

        let capacities: Vec<u64> = (0..cfg.num_clients.min(1 << 16))
            .map(|c| devices.profile(c).capacity_macs)
            .collect();
        let mut manager = ClientManager::new(capacities.len());
        for parent in 0..suite.len() - 1 {
            manager.register_model(parent);
        }
        let members: Vec<usize> = clients.iter().map(|c| c % capacities.len()).collect();
        let secs = probe(t, "fedtrans.utility.assign_update", || {
            let participation: Vec<(usize, usize, f32)> = members
                .iter()
                .map(|&c| {
                    let fits = ClientManager::compatible_models(&macs, capacities[c]);
                    (c, manager.assign(&mut rng, c, &fits), 1.0 + c as f32 * 1e-3)
                })
                .collect();
            manager.update(&participation, &sims, &macs, &capacities);
        });
        put(
            "fedtrans.utility.assign_update_us",
            secs * 1e6 / cohort as f64,
        );
    }

    // baselines: HeteroFL width-level scatter into the suite's largest
    // model. No workload runs it; it guards the planned sink merge.
    {
        let plans: Vec<KeepPlan> = [1.0, 0.5, 0.25, 0.125]
            .iter()
            .map(|&r| KeepPlan::corner(&big, r))
            .collect();
        let templates: Vec<ClientUpdate> = plans
            .iter()
            .map(|p| update_of(&extract(&big, p), &mut rng))
            .collect();
        let per_task: Vec<&KeepPlan> = (0..cohort).map(|i| &plans[i % plans.len()]).collect();
        let specs: Vec<TaskSpec> = (0..cohort)
            .map(|task| TaskSpec {
                task,
                client: task,
                samples: 1,
            })
            .collect();
        let secs = try_probe(t, "baselines.scatter_sink.round", || {
            let mut sink = ScatterSink::new(&big, per_task.clone());
            fold_round(&mut sink, &specs, &templates)
        })?;
        put(
            "baselines.scatter_sink_us_per_update",
            secs * 1e6 / cohort as f64,
        );
    }

    // harness: how much of a median settled step the two probes above
    // explain.
    let trainer_frac = participants_per_round * client_us / 1e6 / settled_step_s;
    let sink_frac = participants_per_round * sink_s / settled_step_s;
    put("harness.step_trainer_frac", trainer_frac);
    put("harness.step_sink_frac", sink_frac);
    put("harness.step_residual_frac", 1.0 - trainer_frac - sink_frac);
    Ok(())
}
