//! Cross-crate integration tests for the scenario harness: canned
//! registry execution, checkpoint/resume byte-identity for FedTrans
//! and a baseline, golden-digest agreement, and `ft-run`'s startup
//! check of the `FT_*` environment.

use std::path::PathBuf;

use ft_harness::{registry, run_scenario, RunOptions};

fn tmp_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ft-scenario-harness-{tag}-{}.json",
        std::process::id()
    ))
}

/// Runs a canned scenario uninterrupted, then again with a mid-run
/// checkpoint/restart, asserting byte-identical reports.
fn assert_resume_byte_identical(name: &str, stop_after: usize) {
    let scenario = registry::find(name).expect("canned scenario");
    let reference = run_scenario(
        &scenario,
        &RunOptions {
            quick: true,
            ..Default::default()
        },
    )
    .expect("reference run");
    let reference_json = serde_json::to_string(reference.report.as_ref().unwrap()).unwrap();

    let path = tmp_checkpoint(name);
    let _ = std::fs::remove_file(&path);
    let interrupted = run_scenario(
        &scenario,
        &RunOptions {
            quick: true,
            checkpoint_path: Some(path.clone()),
            stop_after: Some(stop_after),
            ..Default::default()
        },
    )
    .expect("interrupted run");
    assert!(!interrupted.finished());

    let resumed = run_scenario(
        &scenario,
        &RunOptions {
            quick: true,
            checkpoint_path: Some(path),
            ..Default::default()
        },
    )
    .expect("resumed run");
    assert_eq!(resumed.resumed_from, Some(stop_after as u32));
    assert_eq!(
        serde_json::to_string(resumed.report.as_ref().unwrap()).unwrap(),
        reference_json,
        "{name}: resumed report must be byte-identical to the uninterrupted run"
    );
    assert_eq!(resumed.digest, reference.digest);
}

#[test]
fn fedtrans_scenario_resumes_byte_identically() {
    // dirichlet-skew is the FedTrans arm with non-trivial skew.
    assert_resume_byte_identical("dirichlet-skew", 3);
}

#[test]
fn baseline_scenario_resumes_byte_identically() {
    // hetero-tiers drives HeteroFL through the same checkpoint path.
    assert_resume_byte_identical("hetero-tiers", 3);
}

#[test]
fn fault_injected_scenario_resumes_byte_identically() {
    // Dropout/straggler hashing must not depend on process history.
    assert_resume_byte_identical("straggler-heavy", 5);
}

#[test]
fn byzantine_scenario_resumes_byte_identically() {
    // Attack injection and the buffering trimmed-mean sink are both
    // stateless across rounds (corruption hashes from (seed, round,
    // client); the sink drains inside each round), so a kill/resume
    // under active attack must replay the defended fold bit for bit.
    assert_resume_byte_identical("byzantine-trimmed-mean", 4);
}

#[test]
fn every_canned_scenario_matches_its_committed_golden() {
    let goldens = registry::load_goldens().expect("goldens.json committed");
    for scenario in registry::canned() {
        let outcome = run_scenario(
            &scenario,
            &RunOptions {
                quick: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert!(outcome.finished(), "{} must finish", scenario.name);
        let digest = outcome.digest.expect("finished");
        let report = outcome.report.expect("finished");
        assert_eq!(
            report.rounds.len(),
            scenario.quick_rounds,
            "{} round count",
            scenario.name
        );
        // eval_clients caps the evaluation sweep (million-device
        // scenarios would otherwise evaluate the whole population).
        let evaluated = scenario
            .eval_clients
            .map_or(scenario.dataset.num_clients, |k| {
                k.min(scenario.dataset.num_clients)
            });
        assert_eq!(
            report.per_client_accuracy.len(),
            evaluated,
            "{} per-client accuracy length",
            scenario.name
        );
        assert_eq!(
            goldens.get(&scenario.name),
            Some(&digest),
            "{}: quick-mode digest drifted from goldens.json — \
             regenerate with `ft-run --update-goldens` if intentional",
            scenario.name
        );
    }
}

#[test]
fn scenario_json_config_round_trips_through_the_runner() {
    // A scenario serialized to JSON (the --config path) runs to the
    // same digest as its in-memory twin.
    let scenario = registry::find("iid-small").unwrap();
    let json = serde_json::to_string_pretty(&scenario).unwrap();
    let parsed: ft_harness::Scenario = serde_json::from_str(&json).unwrap();
    let a = run_scenario(
        &scenario,
        &RunOptions {
            quick: true,
            ..Default::default()
        },
    )
    .unwrap();
    let b = run_scenario(
        &parsed,
        &RunOptions {
            quick: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(a.digest, b.digest);
}

/// `iid-small` with its dataset block edited by `edit` must be refused
/// by validation and by the build, with an error naming `field` — not
/// with a panic inside the generator.
fn assert_bad_dataset(field: &str, edit: impl Fn(&mut ft_data::DatasetConfig)) {
    let mut scenario = registry::find("iid-small").expect("canned scenario");
    edit(&mut scenario.dataset);
    let err = match scenario.validate() {
        Ok(()) => panic!("{field}: validation accepted {:?}", scenario.dataset),
        Err(err) => err,
    };
    assert!(err.contains(field), "{field}: {err}");
    match scenario.build() {
        Ok(_) => panic!("{field}: the build accepted {:?}", scenario.dataset),
        Err(err) => assert!(err.to_string().contains(field), "{field}: {err}"),
    }
}

#[test]
fn zero_classes_or_clients_is_a_typed_error() {
    assert_bad_dataset("num_classes", |d| d.num_classes = 0);
    assert_bad_dataset("num_clients", |d| d.num_clients = 0);
}

#[test]
fn a_non_positive_or_non_finite_dirichlet_alpha_is_a_typed_error() {
    for alpha in [0.0, -1.0, f32::NAN, f32::INFINITY] {
        assert_bad_dataset("dirichlet_alpha", |d| d.dirichlet_alpha = alpha);
    }
}

#[test]
fn mean_samples_below_two_is_a_typed_error() {
    for mean in [0, 1] {
        assert_bad_dataset("mean_samples", |d| d.mean_samples = mean);
    }
}

#[test]
fn a_negative_or_non_finite_sampler_scale_is_a_typed_error() {
    for bad in [-1.0, f32::NAN, f32::INFINITY] {
        assert_bad_dataset("sample_spread", |d| d.sample_spread = bad);
        assert_bad_dataset("class_sep", |d| d.class_sep = bad);
        assert_bad_dataset("noise_std", |d| d.noise_std = bad);
        assert_bad_dataset("shift_std", |d| d.shift_std = bad);
    }
    // `null` in a scenario file parses to NaN.
    let dataset = registry::find("iid-small")
        .expect("canned scenario")
        .dataset;
    let serde_json::Value::Object(mut fields) = serde_json::to_value(&dataset) else {
        panic!("a dataset block encodes as an object");
    };
    for (name, value) in &mut fields {
        if name == "noise_std" {
            *value = serde_json::Value::Null;
        }
    }
    let parsed: ft_data::DatasetConfig =
        serde_json::from_value(&serde_json::Value::Object(fields)).expect("null parses");
    assert!(parsed.noise_std.is_nan());
    assert_bad_dataset("noise_std", |d| *d = parsed.clone());
}

#[test]
fn a_test_fraction_outside_the_unit_interval_is_a_typed_error() {
    for fraction in [-0.1, 1.5, f32::NAN] {
        assert_bad_dataset("test_fraction", |d| d.test_fraction = fraction);
    }
}

#[test]
fn a_zero_input_dimension_is_a_typed_error() {
    for input in [
        ft_data::InputSpec::Flat { dim: 0 },
        ft_data::InputSpec::Image {
            channels: 3,
            height: 0,
            width: 8,
        },
        ft_data::InputSpec::Tokens {
            tokens: 0,
            d_model: 8,
        },
    ] {
        assert_bad_dataset("input", |d| d.input = input);
    }
}

#[test]
fn an_overflowing_size_product_is_a_typed_error() {
    // Each of these used to pass validation: 6 · mean_samples wrapped to
    // 2 and the generator panicked on its count clamp, and the image's
    // channels · height · width wrapped to 2^31.
    for mean in [usize::MAX / 6 + 1, usize::MAX] {
        assert_bad_dataset("mean_samples", |d| d.mean_samples = mean);
    }
    for input in [
        ft_data::InputSpec::Image {
            channels: (1 << 33) + 1,
            height: 1 << 31,
            width: 1,
        },
        ft_data::InputSpec::Image {
            channels: 3,
            height: usize::MAX,
            width: 2,
        },
        ft_data::InputSpec::Tokens {
            tokens: 1 << 40,
            d_model: 1 << 40,
        },
    ] {
        assert_bad_dataset("input", |d| d.input = input);
    }
}

#[test]
fn a_non_finite_difficulty_or_curvature_is_a_typed_error() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        assert_bad_dataset("max_difficulty", |d| d.max_difficulty = bad);
        assert_bad_dataset("manifold_curvature", |d| d.manifold_curvature = bad);
    }
}

/// `ft-run` with every inherited `FT_*` variable scrubbed, then `vars`
/// set.
fn ft_run(vars: &[(&str, &str)], args: &[&str]) -> std::process::Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_ft-run"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("FT_") {
            cmd.env_remove(name);
        }
    }
    cmd.envs(vars.iter().copied())
        .args(args)
        .output()
        .expect("ft-run starts")
}

#[test]
fn ft_run_refuses_unknown_or_malformed_ft_variables() {
    // Each of these used to fall back to a default without a word
    // (`protable` selected AVX2, an empty artifact dir meant the
    // default); `fma` named a tier that is gone.
    for (name, value) in [
        ("FT_TENSOR_SIMD", "protable"),
        ("FT_TENSOR_SIMD", "fma"),
        ("FT_CLIENT_THREADS", "two"),
        ("FT_TENSOR_THREADS", ""),
        ("FT_ARTIFACT_DIR", ""),
        ("FT_TYPO", "1"),
        ("FT_HEARTBEAT_DEADLINE_S", "60"),
    ] {
        let out = ft_run(&[(name, value)], &["--scenario", "iid-small", "--quick"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}={value:?} was accepted");
        assert!(stderr.contains(name), "{name}={value:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{name}={value:?} must fail before any work"
        );
    }
    // Knobs this program read until they were retired: a leftover one
    // in someone's shell is refused like any unknown name.
    for name in [
        "FT_TENSOR_TUNE",
        "FT_SCENARIO_QUICK",
        "FT_MAX_IN_FLIGHT",
        "FT_BENCH_QUICK",
    ] {
        let out = ft_run(&[(name, "1")], &["--scenario", "iid-small", "--quick"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name} was accepted");
        assert!(
            stderr.contains(&format!("{name} is not a variable this program reads")),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} must fail before any work");
    }
}

#[test]
fn ft_run_accepts_a_clean_environment_and_every_surviving_variable() {
    let clean = ft_run(&[], &["--list"]);
    assert!(clean.status.success());

    let artifacts = std::env::temp_dir().join(format!("ft-env-check-{}", std::process::id()));
    let out = ft_run(
        &[
            ("FT_TENSOR_THREADS", "2"),
            ("FT_TENSOR_SIMD", "portable"),
            ("FT_CLIENT_THREADS", "2"),
            (
                "FT_ARTIFACT_DIR",
                artifacts.to_str().expect("utf-8 temp dir"),
            ),
        ],
        &["--scenario", "iid-small", "--quick", "--check-golden"],
    );
    let written = artifacts.join("scenario-iid-small.json").exists();
    let _ = std::fs::remove_dir_all(&artifacts);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(written, "the report lands in FT_ARTIFACT_DIR");
}

#[test]
fn ft_run_fails_naming_the_path_when_the_report_cannot_be_written() {
    // A regular file where the artifact directory should be: the report
    // write fails, and that used to leave only a missing `report` line.
    let blocker = std::env::temp_dir().join(format!("ft-artifact-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "not a directory").expect("temp file");
    let dir = blocker.join("reports");
    let dir = dir.to_str().expect("utf-8 temp dir");
    let out = ft_run(
        &[("FT_ARTIFACT_DIR", dir)],
        &["--scenario", "iid-small", "--quick"],
    );
    let _ = std::fs::remove_file(&blocker);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "an unwritten report exited 0");
    assert!(stderr.contains(dir), "{stderr}");
}
