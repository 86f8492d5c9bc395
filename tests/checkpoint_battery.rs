//! One table-driven checkpoint battery over every method.
//!
//! FedTrans, FedAvg, FedProx, FedYogi, HeteroFL, SplitMix and FLuID all
//! checkpoint through the shared runner's envelope, so one table
//! checks, per method on a 12-client fleet:
//!
//! * kill/resume through JSON text at *every* round boundary
//!   reproduces the uninterrupted report byte for byte, also when the
//!   client-thread budget is flipped at resume;
//! * a rejected checkpoint (mid-round coordinator phase, truncated
//!   method block) leaves the driver exactly as it was;
//! * every method rejects every other method's checkpoint and a
//!   version-3, version-4 or version-5 file, naming the mismatch;
//! * tensors cross the text bit for bit (a `+inf` weight stays `+inf`)
//!   and are written as base64, never as decimal arrays;
//! * no gradient is written, and a file that still carries the zero
//!   gradients older builds wrote restores to the same report.
//!
//! This file is its own process, so it pins the tensor pool to 4
//! threads before first pool use — on a single-core runner the engine
//! would otherwise fall back to the serial path and the thread flip
//! would be vacuous.

use std::sync::{Mutex, MutexGuard, Once};

use fedtrans::{FedTransConfig, FedTransRuntime};
use ft_baselines::{BaselineConfig, FedAvg, Fluid, HeteroFl, ServerOpt, SplitMix};
use ft_data::{DatasetConfig, FederatedDataset};
use ft_fedsim::device::{DeviceTrace, DeviceTraceConfig};
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::{Algorithm, RunContext, SimError};
use ft_harness::{registry, run_scenario, RunOptions};
use ft_model::CellModel;
use ft_tensor::{Settings, Tensor};
use rand::SeedableRng;
use serde_json::Value;

/// FedTrans checkpoints carry the process-wide model/cell id counters,
/// which every model built anywhere in this process advances; a test
/// that compares checkpoint bytes must not overlap with another test.
#[expect(
    clippy::disallowed_methods,
    reason = "the pool size is a process setting, pinned before first use"
)]
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static PIN: Once = Once::new();
    PIN.call_once(|| {
        std::env::set_var("FT_TENSOR_THREADS", "4");
        assert_eq!(ft_tensor::pool::max_parallelism(), 4);
    });
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fleet() -> (FederatedDataset, DeviceTrace, CellModel) {
    let data = DatasetConfig::femnist_like()
        .with_num_clients(12)
        .with_mean_samples(25)
        .generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(12)
        .with_base_capacity(1_500)
        .generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let global = CellModel::dense(&mut rng, data.input_dim(), &[24, 24], data.num_classes());
    (data, devices, global)
}

fn local() -> LocalTrainConfig {
    LocalTrainConfig {
        local_steps: 5,
        ..Default::default()
    }
}

fn baseline(prox_mu: Option<f32>) -> BaselineConfig {
    BaselineConfig {
        clients_per_round: 6,
        local: LocalTrainConfig { prox_mu, ..local() },
        eval_every: 3,
        ..Default::default()
    }
}

struct Case {
    name: &'static str,
    rounds: usize,
    build: fn(RunContext) -> Box<dyn Algorithm>,
}

fn fedavg_family(
    context: RunContext,
    prox_mu: Option<f32>,
    server: ServerOpt,
) -> Box<dyn Algorithm> {
    let (data, devices, global) = fleet();
    Box::new(FedAvg::new(baseline(prox_mu), data, devices, global, server).with_context(context))
}

const CASES: [Case; 7] = [
    Case {
        name: "fedtrans",
        rounds: 12,
        build: |context| {
            let (data, _, _) = fleet();
            let devices = DeviceTraceConfig::default()
                .with_num_devices(12)
                .with_base_capacity(20_000)
                .generate();
            let mut cfg = FedTransConfig::default()
                .with_clients_per_round(6)
                .with_gamma(2)
                .with_delta(2)
                .with_local(local());
            // Trigger as soon as the loss history allows, so the suite
            // grows after most resume points: the id-counter sync and
            // the transformer state both get exercised.
            cfg.transform_cooldown = 4;
            cfg.beta = 10.0;
            let runner = FedTransRuntime::new(cfg, data, devices).expect("valid config");
            Box::new(runner.with_eval_every(3).with_context(context))
        },
    },
    Case {
        name: "fedavg",
        rounds: 8,
        build: |context| fedavg_family(context, None, ServerOpt::Average),
    },
    Case {
        name: "fedprox",
        rounds: 8,
        build: |context| fedavg_family(context, Some(0.1), ServerOpt::Average),
    },
    Case {
        name: "fedyogi",
        rounds: 8,
        build: |context| fedavg_family(context, None, ServerOpt::Yogi { lr: 0.05 }),
    },
    Case {
        name: "heterofl",
        rounds: 8,
        build: |context| {
            let (data, devices, global) = fleet();
            Box::new(HeteroFl::new(baseline(None), data, devices, global).with_context(context))
        },
    },
    Case {
        name: "splitmix",
        rounds: 8,
        build: |context| {
            let (data, devices, global) = fleet();
            Box::new(SplitMix::new(baseline(None), data, devices, &global, 3).with_context(context))
        },
    },
    Case {
        name: "fluid",
        rounds: 8,
        build: |context| {
            let (data, devices, global) = fleet();
            Box::new(Fluid::new(baseline(None), data, devices, global).with_context(context))
        },
    },
];

/// Runs `f` with `n` client threads.
fn threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    Settings {
        client_threads: n,
        ..Settings::current()
    }
    .scope(f)
}

/// Compact JSON text of any serializable value.
macro_rules! json {
    ($value:expr) => {
        serde_json::to_string($value).unwrap()
    };
}

/// The entry `key` of a JSON object, mutably.
fn entry<'a>(object: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(entries) = object else {
        panic!("expected an object holding `{key}`");
    };
    let (_, value) = entries
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no entry `{key}`"));
    value
}

/// The first tensor block (an object with `shape` and `data`) under
/// `value`, depth first.
fn first_tensor(value: &mut Value) -> Option<&mut Value> {
    if value.get("shape").is_some() && value.get("data").is_some() {
        return Some(value);
    }
    match value {
        Value::Object(entries) => entries.iter_mut().find_map(|(_, v)| first_tensor(v)),
        Value::Array(items) => items.iter_mut().find_map(first_tensor),
        _ => None,
    }
}

/// Every tensor block under `value`, and the longest JSON array that
/// is not inside one.
fn tensor_blocks<'a>(value: &'a Value, blocks: &mut Vec<&'a Value>, longest: &mut usize) {
    if value.get("shape").is_some() && value.get("data").is_some() {
        blocks.push(value);
        return;
    }
    match value {
        Value::Object(entries) => {
            for (_, v) in entries {
                tensor_blocks(v, blocks, longest);
            }
        }
        Value::Array(items) => {
            *longest = (*longest).max(items.len());
            for v in items {
                tensor_blocks(v, blocks, longest);
            }
        }
        _ => {}
    }
}

/// Every object key under `value`, depth first.
fn keys<'a>(value: &'a Value, out: &mut Vec<&'a str>) {
    match value {
        Value::Object(entries) => {
            for (k, v) in entries {
                out.push(k);
                keys(v, out);
            }
        }
        Value::Array(items) => items.iter().for_each(|v| keys(v, out)),
        _ => {}
    }
}

/// Puts back, beside each layer's `weight` and `bias` under `value`,
/// the zero `grad_weight` and `grad_bias` blocks checkpoints used to
/// carry; returns how many it added.
fn put_back_gradients(value: &mut Value) -> usize {
    let mut added = 0;
    match value {
        Value::Object(entries) => {
            for (_, v) in entries.iter_mut() {
                added += put_back_gradients(v);
            }
            let zero_like = |key: &str| {
                let (_, block) = entries.iter().find(|(k, _)| k == key)?;
                let param: Tensor = serde_json::from_value(block).ok()?;
                Some(serde_json::to_value(&Tensor::zeros(param.shape().dims())))
            };
            if let (Some(gw), Some(gb)) = (zero_like("weight"), zero_like("bias")) {
                entries.push(("grad_weight".to_owned(), gw));
                entries.push(("grad_bias".to_owned(), gb));
                added += 2;
            }
        }
        Value::Array(items) => {
            for v in items {
                added += put_back_gradients(v);
            }
        }
        _ => {}
    }
    added
}

fn snapshot_error(result: ft_fedsim::Result<()>) -> String {
    match result {
        Err(SimError::Snapshot { detail }) => detail,
        other => panic!("expected a snapshot error, got {other:?}"),
    }
}

#[test]
fn kill_resume_at_every_round_boundary_reproduces_the_uninterrupted_report() {
    let _guard = serial();
    for case in &CASES {
        let name = case.name;
        let reference = threads(1, || {
            (case.build)(RunContext::default()).run_to(case.rounds)
        })
        .unwrap();
        if name == "fedtrans" {
            assert!(
                reference
                    .rounds
                    .iter()
                    .any(|r| r.transformed && r.round > 4),
                "the reference run must transform after a resume point"
            );
        }
        let reference = json!(&reference);

        // One interrupted run leaves a checkpoint, as JSON text, at
        // every boundary including the fresh and the finished driver.
        let mut first = (case.build)(RunContext::default());
        assert_eq!(first.name(), name);
        let mut texts = vec![json!(&first.checkpoint())];
        for _ in 0..case.rounds {
            first.step().unwrap();
            texts.push(json!(&first.checkpoint()));
        }
        drop(first);

        for (boundary, text) in texts.iter().enumerate() {
            for width in [1, 4] {
                let mut resumed = (case.build)(RunContext::default());
                let state = serde_json::parse_value(text).unwrap();
                resumed.restore(&state).unwrap();
                assert_eq!(resumed.round() as usize, boundary);
                let report = threads(width, || resumed.run_to(case.rounds)).unwrap();
                assert!(
                    json!(&report) == reference,
                    "{name}: resume at round {boundary} on {width} client threads diverged"
                );
            }
        }
    }
}

#[test]
fn a_rejected_checkpoint_leaves_the_driver_untouched() {
    let _guard = serial();
    for case in &CASES {
        let name = case.name;
        let reference = json!(&(case.build)(RunContext::default())
            .run_to(case.rounds)
            .unwrap());

        // The donor is further along than the victim, so any field a
        // failed restore let through would show in the victim's bytes.
        let mut donor = (case.build)(RunContext::default());
        donor.run_to(4).unwrap();
        let donor = donor.checkpoint();

        let mut victim = (case.build)(RunContext::default());
        victim.run_to(2).unwrap();
        let before = json!(&victim.checkpoint());

        let mut mid_round = donor.clone();
        *entry(entry(&mut mid_round, "coordinator"), "phase") =
            Value::String("round/training".to_owned());
        let detail = snapshot_error(victim.restore(&mid_round));
        assert!(
            detail.contains("`coordinator`") && detail.contains("`phase`"),
            "{name}: {detail}"
        );
        assert!(
            json!(&victim.checkpoint()) == before,
            "{name}: mid-round phase"
        );

        let mut truncated = donor.clone();
        let Value::Object(block) = entry(&mut truncated, "method") else {
            panic!("{name}: the method block is an object");
        };
        let (dropped, _) = block.pop().expect("non-empty method block");
        let detail = snapshot_error(victim.restore(&truncated));
        assert!(
            detail.contains("`method`") && detail.contains(&format!("`{dropped}`")),
            "{name}: {detail}"
        );
        assert!(
            json!(&victim.checkpoint()) == before,
            "{name}: truncated block"
        );

        assert!(
            json!(&victim.run_to(case.rounds).unwrap()) == reference,
            "{name}: the victim must carry on as if nothing was offered"
        );
    }
}

#[test]
fn every_method_rejects_every_other_methods_checkpoint() {
    let _guard = serial();
    let checkpoints: Vec<Value> = CASES
        .iter()
        .map(|case| {
            let mut driver = (case.build)(RunContext::default());
            driver.step().unwrap();
            driver.checkpoint()
        })
        .collect();
    for (case, own) in CASES.iter().zip(&checkpoints) {
        let mut driver = (case.build)(RunContext::default());
        let fresh = json!(&driver.checkpoint());
        for (other, foreign) in CASES.iter().zip(&checkpoints) {
            if other.name == case.name {
                continue;
            }
            let detail = snapshot_error(driver.restore(foreign));
            assert!(
                detail.contains("`kind`")
                    && detail.contains(&format!("`{}`", other.name))
                    && detail.contains(&format!("`{}`", case.name)),
                "{} offered a {} checkpoint: {detail}",
                case.name,
                other.name
            );
            assert!(json!(&driver.checkpoint()) == fresh, "{}", case.name);
        }
        driver.restore(own).unwrap();
        assert_eq!(driver.round(), 1);
    }
}

#[test]
fn every_canned_scenario_rejects_a_version_3_file() {
    let _guard = serial();
    for scenario in registry::canned() {
        let path = std::env::temp_dir().join(format!(
            "ft-battery-stale-{}-{}.json",
            scenario.name,
            std::process::id()
        ));
        // Version 3 had per-method layouts; version 4 decimal tensors;
        // version 5 decimal client times and utilities.
        for version in [3, 4, 5] {
            let stale = serde_json::json!({
                "version": version,
                "scenario": scenario.name,
                "quick": true,
                "target_rounds": scenario.quick_rounds,
                "round": 1,
                "state": {"kind": "fedavg", "round": 1},
            });
            std::fs::write(&path, json!(&stale)).unwrap();
            let result = run_scenario(
                &scenario,
                &RunOptions {
                    quick: true,
                    checkpoint_path: Some(path.clone()),
                    ..Default::default()
                },
            );
            let _ = std::fs::remove_file(&path);
            let message = result
                .expect_err("an older file must not resume")
                .to_string();
            assert!(
                message.contains("version")
                    && message.contains(&format!("{version}.0"))
                    && message.contains("writes version 6"),
                "{}: {message}",
                scenario.name
            );
        }
    }
}

/// A weight of `+inf` (and its neighbours at the edges of `f32`) is
/// the same bits after checkpoint text and restore. Decimal checkpoints
/// wrote non-finite weights as `null` and brought them back as NaN.
#[test]
fn non_finite_and_edge_weights_survive_a_resume_bit_for_bit() {
    let _guard = serial();
    let fedtrans = &CASES[0];
    assert_eq!(fedtrans.name, "fedtrans");
    let edges = [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xff80_0001),
        -0.0,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 2.0,
    ];
    let mut driver = (fedtrans.build)(RunContext::default());
    driver.step().unwrap();
    let mut state = driver.checkpoint();
    let block = first_tensor(entry(entry(&mut state, "method"), "models")).expect("a weight");
    let mut weight: Tensor = serde_json::from_value(block).unwrap();
    assert!(weight.len() >= edges.len());
    weight.data_mut()[..edges.len()].copy_from_slice(&edges);
    *block = serde_json::to_value(&weight);

    let mut resumed = (fedtrans.build)(RunContext::default());
    resumed
        .restore(&serde_json::parse_value(&json!(&state)).unwrap())
        .unwrap();
    let mut again = resumed.checkpoint();
    let block = first_tensor(entry(entry(&mut again, "method"), "models")).unwrap();
    let back: Tensor = serde_json::from_value(block).unwrap();
    assert_eq!(back.data()[0], f32::INFINITY);
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back), bits(&weight));
    assert_eq!(back.shape(), weight.shape());
}

/// A hostile tensor block is a typed snapshot error naming the method
/// field it sits in, and the driver is left as it was.
#[test]
fn a_corrupt_tensor_block_is_refused_naming_models() {
    let _guard = serial();
    let fedtrans = &CASES[0];
    let mut driver = (fedtrans.build)(RunContext::default());
    driver.step().unwrap();
    let before = json!(&driver.checkpoint());
    let mut state = serde_json::parse_value(&before).unwrap();
    let block = first_tensor(entry(entry(&mut state, "method"), "models")).unwrap();
    let text = block.get("data").and_then(Value::as_str).unwrap();
    let corruptions: [(Value, &str); 3] = [
        (
            Value::String(format!("@{}", &text[1..])),
            "0x40 at offset 0",
        ),
        (Value::Array(vec![Value::Number(0.5)]), "base64 string"),
        (Value::String("AAAA".to_owned()), "decodes to 3 bytes"),
    ];
    for (data, expect) in corruptions {
        let mut state = serde_json::parse_value(&before).unwrap();
        let block = first_tensor(entry(entry(&mut state, "method"), "models")).unwrap();
        *entry(block, "data") = data;
        let detail = snapshot_error(driver.restore(&state));
        assert!(
            detail.contains("field `models`")
                && detail.contains("`data`")
                && detail.contains(expect),
            "{detail}"
        );
        assert!(json!(&driver.checkpoint()) == before);
    }
}

/// The work pin for the checkpoint format: a canned FedTrans run's
/// checkpoint file holds every tensor as exactly `4·⌈4·len/3⌉` base64
/// characters, and no decimal array longer than 64 numbers is left
/// under `state.method.models`.
#[test]
fn fedtrans_checkpoint_files_hold_tensors_as_base64() {
    let _guard = serial();
    let scenario = registry::find("iid-small").unwrap();
    let path = std::env::temp_dir().join(format!("ft-battery-b64-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let stopped = run_scenario(
        &scenario,
        &RunOptions {
            quick: true,
            checkpoint_path: Some(path.clone()),
            stop_after: Some(scenario.quick_rounds - 1),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!stopped.finished() && stopped.algorithm == "fedtrans");
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let envelope = serde_json::parse_value(&text).unwrap();
    let models = envelope
        .get("state")
        .and_then(|s| s.get("method"))
        .and_then(|m| m.get("models"))
        .expect("state.method.models");

    let mut names = Vec::new();
    keys(models, &mut names);
    let gradients: Vec<_> = names
        .iter()
        .filter(|k| k.starts_with("grad_") || **k == "grads")
        .collect();
    assert!(
        gradients.is_empty(),
        "gradients under models: {gradients:?}"
    );

    let (mut blocks, mut longest) = (Vec::new(), 0);
    tensor_blocks(models, &mut blocks, &mut longest);
    assert!(blocks.len() >= 6, "{} tensors", blocks.len());
    assert!(longest <= 64, "a {longest}-element array under models");
    let mut weights = 0;
    for block in blocks {
        let tensor: Tensor = serde_json::from_value(block).unwrap();
        let bytes = 4 * tensor.len();
        let data = block
            .get("data")
            .and_then(Value::as_str)
            .expect("string data");
        assert_eq!(data.len(), 4 * bytes.div_ceil(3), "{:?}", tensor.shape());
        weights += tensor.len();
    }
    assert!(weights > 1_000, "{weights} weights");
}

/// A checkpoint as older builds wrote it, with a zero `grad_weight` and
/// `grad_bias` beside every layer's parameters, still restores: the
/// gradient blocks are ignored, and every method's run ends in the
/// report the uninterrupted run gives.
#[test]
fn a_checkpoint_that_carries_zero_gradients_restores_to_the_same_report() {
    let _guard = serial();
    for case in &CASES {
        let name = case.name;
        let mut first = (case.build)(RunContext::default());
        first.run_to(2).unwrap();
        let mut state = serde_json::parse_value(&json!(&first.checkpoint())).unwrap();
        let reference = json!(&first.run_to(case.rounds).unwrap());
        let added = put_back_gradients(entry(&mut state, "method"));
        assert!(added >= 4, "{name}: {added} gradient blocks");

        let mut resumed = (case.build)(RunContext::default());
        resumed.restore(&state).unwrap();
        let report = resumed.run_to(case.rounds).unwrap();
        assert!(
            json!(&report) == reference,
            "{name}: the resumed run diverged"
        );
    }
}

/// The first object under `value` that holds `key`, depth first.
fn holder<'a>(value: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    if value.get(key).is_some() {
        return Some(value);
    }
    match value {
        Value::Object(entries) => entries.iter_mut().find_map(|(_, v)| holder(v, key)),
        Value::Array(items) => items.iter_mut().find_map(|v| holder(v, key)),
        _ => None,
    }
}

/// A layer whose tensors do not fit its geometry deserializes fine, so
/// restore checks every layer before the models are used: a conv bias
/// cut to one entry used to pass restore and then panic on the first
/// evaluation with an index out of bounds. Each corruption is a typed
/// snapshot error naming `models`, and the driver is left as it was.
#[test]
fn a_layer_that_does_not_fit_its_geometry_is_refused_naming_models() {
    let _guard = serial();
    let data = DatasetConfig::cifar_like()
        .with_num_clients(6)
        .with_mean_samples(12)
        .generate();
    let devices = DeviceTraceConfig::default()
        .with_num_devices(6)
        .with_base_capacity(200_000)
        .generate();
    let cfg = FedTransConfig::default()
        .with_clients_per_round(3)
        .with_local(local());
    let mut driver = FedTransRuntime::new(cfg, data, devices).expect("valid config");
    driver.step().unwrap();
    let before = json!(&driver.checkpoint());
    let state = serde_json::parse_value(&before).unwrap();
    let models = state.get("method").and_then(|m| m.get("models")).unwrap();
    let text = serde_json::to_string(models).unwrap();
    assert!(text.contains("\"Conv\""), "a conv seed model: {text:.200}");

    let tensor = |dims: &[usize]| serde_json::to_value(&Tensor::zeros(dims));
    // (layer key, field, replacement, expected detail)
    let corruptions: [(&str, &str, Value, &str); 3] = [
        ("conv", "bias", tensor(&[1]), "bias has shape [1]"),
        ("conv", "kernel", Value::Number(2.0), "kernel 2 is even"),
        ("linear", "weight", tensor(&[4]), "expected a matrix"),
    ];
    for (layer, key, replacement, expect) in corruptions {
        let mut state = serde_json::parse_value(&before).unwrap();
        let models = entry(entry(&mut state, "method"), "models");
        let owner = holder(models, layer).unwrap_or_else(|| panic!("no `{layer}`"));
        *entry(entry(owner, layer), key) = replacement;
        let detail = snapshot_error(driver.restore(&state));
        assert!(
            detail.contains("field `models`") && detail.contains(expect),
            "{layer}.{key}: {detail}"
        );
        assert!(json!(&driver.checkpoint()) == before);
    }
    // The untouched checkpoint still restores, and the models run.
    driver.restore(&state).unwrap();
    driver.step().unwrap();
}

/// A round-2 FedTrans checkpoint whose utility table is replaced by
/// one that does not cover every client and model is refused naming
/// `method` and `utilities`; a `[[0.0]]` table used to restore and then
/// panic on the next step, indexing past its one row.
#[test]
fn a_utility_table_of_the_wrong_shape_is_refused_naming_utilities() {
    let _guard = serial();
    let fedtrans = &CASES[0];
    let mut driver = (fedtrans.build)(RunContext::default());
    driver.run_to(2).unwrap();
    let before = json!(&driver.checkpoint());
    let state = serde_json::parse_value(&before).unwrap();
    let shape: Vec<usize> = serde_json::from_value(
        state
            .get("method")
            .and_then(|m| m.get("utilities"))
            .and_then(|u| u.get("shape"))
            .expect("a utility block"),
    )
    .unwrap();
    let [clients, models] = shape[..] else {
        panic!("a [clients × models] table, got {shape:?}");
    };
    assert_eq!(clients, 12);
    let tensor = |dims: &[usize]| serde_json::to_value(&Tensor::zeros(dims));
    let tables: [(Value, String); 4] = [
        (
            Value::Array(vec![Value::Array(vec![Value::Number(0.0)])]),
            "missing field `shape`".to_owned(),
        ),
        (
            tensor(&[1, 1]),
            format!("shape [1, 1], expected [12, {models}]"),
        ),
        (
            tensor(&[clients, models + 1]),
            format!("expected [12, {models}]"),
        ),
        (tensor(&[clients * models]), "expected [12, ".to_owned()),
    ];
    for (table, expect) in tables {
        let mut state = serde_json::parse_value(&before).unwrap();
        *entry(entry(&mut state, "method"), "utilities") = table;
        let detail = snapshot_error(driver.restore(&state));
        assert!(
            detail.contains("field `method`: field `utilities`") && detail.contains(&expect),
            "{detail}"
        );
        assert!(json!(&driver.checkpoint()) == before);
    }
    driver.restore(&state).unwrap();
    driver.step().unwrap();
}

/// The two series that grow with the fleet — the ledger's
/// per-participant round times and FedTrans's utility table — are
/// `ft_tensor::series` blocks. Each hostile variant (truncated text, a
/// shape the text does not fill, a byte outside the alphabet,
/// non-canonical padding, the decimal array version 5 wrote) is a typed
/// snapshot error naming the series, and the driver is left as it was.
#[test]
fn a_corrupt_fleet_series_is_refused_naming_it() {
    let _guard = serial();
    let fedtrans = &CASES[0];
    let mut driver = (fedtrans.build)(RunContext::default());
    driver.run_to(2).unwrap();
    let before = json!(&driver.checkpoint());
    let state = serde_json::parse_value(&before).unwrap();
    for (outer, key) in [("ledger", "client_times"), ("method", "utilities")] {
        let block = state.get(outer).and_then(|o| o.get(key)).unwrap();
        let text = block.get("data").and_then(Value::as_str).unwrap();
        let mut dims: Vec<usize> = serde_json::from_value(block.get("shape").unwrap()).unwrap();
        assert!(
            dims.iter().product::<usize>() >= 12,
            "{outer}.{key}: {dims:?}"
        );
        let decoded = serde_json::from_value::<Tensor>(block).unwrap();
        *dims.last_mut().unwrap() += 1;
        let series = |shape: &[usize], data: &str| {
            let mut block = block.clone();
            *entry(&mut block, "shape") = serde_json::to_value(shape);
            *entry(&mut block, "data") = Value::String(data.to_owned());
            block
        };
        let corruptions: [(Value, &str); 5] = [
            (
                series(decoded.shape().dims(), &text[..text.len() - 1]),
                "not a multiple of 4",
            ),
            (series(&dims, text), "bytes, shape"),
            (
                series(decoded.shape().dims(), &format!("@{}", &text[1..])),
                "0x40 at offset 0",
            ),
            (series(&[1], "AAAAAB=="), "bad padding"),
            (
                Value::Array(
                    decoded
                        .data()
                        .iter()
                        .map(|&x| Value::Number(f64::from(x)))
                        .collect(),
                ),
                "missing field `shape`",
            ),
        ];
        for (corrupt, expect) in corruptions {
            let mut state = serde_json::parse_value(&before).unwrap();
            *entry(entry(&mut state, outer), key) = corrupt;
            let detail = snapshot_error(driver.restore(&state));
            // The whole path, innermost field last, under one prefix.
            let inner = if expect.starts_with("missing") {
                ""
            } else {
                "field `data`: "
            };
            let chain = format!("field `{outer}`: field `{key}`: {inner}");
            assert!(
                detail.starts_with(&chain)
                    && detail.contains(expect)
                    && !detail.contains("deserialization error"),
                "{outer}.{key}: {detail}"
            );
            assert!(json!(&driver.checkpoint()) == before);
        }
    }
}

/// JSON numbers anywhere under `value`.
fn number_tokens(value: &Value) -> usize {
    match value {
        Value::Number(_) => 1,
        Value::Array(items) => items.iter().map(number_tokens).sum(),
        Value::Object(entries) => entries.iter().map(|(_, v)| number_tokens(v)).sum(),
        _ => 0,
    }
}

/// The checkpoint of `fedavg-1m-stream` scaled to `per_round` clients a
/// round for three rounds: its JSON text and number-token count.
fn million_client_checkpoint(per_round: usize) -> (String, usize) {
    let mut scenario: ft_harness::Scenario =
        serde_json::from_str(include_str!("../benchmark/workloads/fedavg-1m-stream.json")).unwrap();
    scenario.clients_per_round = per_round;
    scenario.rounds = 3;
    scenario.quick_rounds = 3;
    let mut driver = scenario.build().unwrap();
    driver.run_to(3).unwrap();
    let state = driver.checkpoint();
    (json!(&state), number_tokens(&state))
}

/// The checkpoint's size is a count, pinned exactly: on the sparse
/// million-client FedAvg workload at 64 clients × 3 rounds, version 5
/// wrote one number per participant (192 of them) for the ledger's
/// round times. Now doubling the cohort adds no number token, and
/// adds the round times' base64 (4 bytes a participant, 4/3 characters
/// a byte) plus a few digits of counters and losses.
#[test]
fn a_million_client_checkpoint_has_no_number_per_participant() {
    let _guard = serial();
    let (text, tokens) = million_client_checkpoint(64);
    assert_eq!(
        (text.len(), tokens),
        (14_215, 51),
        "the pinned size and count"
    );
    let (doubled, doubled_tokens) = million_client_checkpoint(128);
    assert_eq!(doubled_tokens, tokens);
    let base64 = 4 * 4 * 64 * 3 / 3;
    let grown = doubled.len() - text.len();
    assert!((base64..base64 + 16).contains(&grown), "{grown} bytes");
}
