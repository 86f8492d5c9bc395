//! Cross-crate integration tests for the scenario harness: golden-digest
//! agreement, checkpoint/resume byte-identity for FedTrans, a baseline,
//! fault injection and an attack, the JSON config path, validation of
//! hostile scenario values, and `ft-run`'s startup check of the `FT_*`
//! environment, its report write and its kill/resume flags. Every golden
//! under every kernel tier, thread count and kill/resume is
//! `tests/determinism_matrix.rs`.

use std::path::PathBuf;

#[expect(dead_code, reason = "tests here share the pool, so none pins it")]
#[path = "common/matrix.rs"]
mod matrix;

use ft_fedsim::SimError;
use ft_harness::{registry, run_scenario, AlgorithmSpec, RunOptions, Scenario};

fn tmp_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ft-scenario-harness-{tag}-{}.json",
        std::process::id()
    ))
}

#[test]
fn every_canned_scenario_matches_its_committed_golden() {
    // A drift here is regenerated with `ft-run --update-goldens` only
    // when it is intentional.
    let mut matrix = matrix::Matrix::new();
    for scenario in registry::canned() {
        matrix.run(&scenario.name, None, 4);
    }
    matrix.finish();
}

/// Kills the canned scenario `name` after round `stop_after` and resumes
/// it: the resumed report must land on the golden, byte for byte.
fn assert_resume_byte_identical(name: &str, stop_after: usize) {
    let mut matrix = matrix::Matrix::new();
    matrix.kill_and_resume(name, stop_after, None);
    matrix.finish();
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

/// `iid-small` edited by `edit` must be refused by validation and by
/// the build, with an error naming `field` — not with a panic inside the
/// generator or a run that trains on NaN.
fn assert_bad_scenario(field: &str, edit: impl Fn(&mut Scenario)) {
    let mut scenario = registry::find("iid-small").expect("canned scenario");
    edit(&mut scenario);
    let err = match scenario.validate() {
        Ok(()) => panic!("{field}: validation accepted {scenario:?}"),
        Err(err) => err,
    };
    assert!(err.contains(field), "{field}: {err}");
    match scenario.build() {
        Ok(_) => panic!("{field}: the build accepted {scenario:?}"),
        Err(err @ SimError::BadConfig { .. }) => {
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
        Err(err) => panic!("{field}: refused with an untyped {err:?}"),
    }
}

/// [`assert_bad_scenario`] on the dataset block alone.
fn assert_bad_dataset(field: &str, edit: impl Fn(&mut ft_data::DatasetConfig)) {
    assert_bad_scenario(field, |s| edit(&mut s.dataset));
}

/// The canned scenario `name` read back from its JSON with the value at
/// `path` replaced by `null`, which a scenario file parses to NaN.
fn with_null(name: &str, path: &[&str]) -> Scenario {
    fn set_null(value: &mut serde_json::Value, path: &[&str]) {
        let serde_json::Value::Object(fields) = value else {
            panic!("{path:?} does not lead through objects");
        };
        let (field, value) = fields
            .iter_mut()
            .find(|(field, _)| field == path[0])
            .unwrap_or_else(|| panic!("no field {}", path[0]));
        match path {
            [_] => *value = serde_json::Value::Null,
            [_, rest @ ..] => set_null(value, rest),
            [] => unreachable!("{field}: empty path"),
        }
    }
    let scenario = registry::find(name).expect("canned scenario");
    let mut value = serde_json::to_value(&scenario);
    set_null(&mut value, path);
    serde_json::from_value(&value).expect("null parses")
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
    let parsed = with_null("iid-small", &["dataset", "noise_std"]);
    assert!(parsed.dataset.noise_std.is_nan());
    assert_bad_scenario("noise_std", |s| *s = parsed.clone());
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

#[test]
fn non_finite_or_overflowing_local_training_is_a_typed_error() {
    // Each of these used to validate: a NaN learning rate trained to
    // chance accuracy and exited 0, and the step count multiplied
    // unchecked into the per-client sample count.
    for bad in [f32::NAN, f32::INFINITY] {
        assert_bad_scenario("lr", |s| s.local.lr = bad);
        assert_bad_scenario("momentum", |s| s.local.momentum = bad);
    }
    for bad in [f32::NAN, f32::INFINITY, -0.5] {
        assert_bad_scenario("prox_mu", |s| s.local.prox_mu = Some(bad));
        for (field, yogi_lr, prox_mu) in
            [("yogi_lr", Some(bad), None), ("prox_mu", None, Some(bad))]
        {
            assert_bad_scenario(field, |s| {
                s.algorithm = AlgorithmSpec::FedAvg { yogi_lr, prox_mu }
            });
        }
    }
    assert_bad_scenario("local_steps", |s| s.local.local_steps = 0);
    for steps in [usize::MAX / 2, usize::MAX] {
        assert_bad_scenario("local_steps", |s| s.local.local_steps = steps);
    }
    let parsed = with_null("iid-small", &["local", "lr"]);
    assert!(parsed.local.lr.is_nan());
    assert_bad_scenario("lr", |s| *s = parsed.clone());
}

#[test]
fn a_nan_or_non_positive_fedtrans_beta_is_a_typed_error() {
    let parsed = with_null("dirichlet-skew", &["algorithm", "FedTrans", "beta"]);
    let AlgorithmSpec::FedTrans { beta, .. } = parsed.algorithm else {
        panic!("dirichlet-skew runs FedTrans");
    };
    assert!(beta.is_nan());
    assert_bad_scenario("beta", |s| *s = parsed.clone());
    for bad in [0.0, -1.0] {
        assert_bad_scenario("beta", |s| {
            if let AlgorithmSpec::FedTrans { beta, .. } = &mut s.algorithm {
                *beta = bad;
            }
        });
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
fn ft_run_kills_and_resumes_under_other_settings_onto_the_golden() {
    let path = tmp_checkpoint("ft-run-kill");
    let _ = std::fs::remove_file(&path);
    let artifacts = std::env::temp_dir().join(format!("ft-run-kill-{}", std::process::id()));
    let ck = path.to_str().expect("utf-8 temp dir");
    let dir = artifacts.to_str().expect("utf-8 temp dir");
    let run = ["--scenario", "iid-small", "--quick", "--checkpoint", ck];
    let killed = ft_run(
        &[("FT_CLIENT_THREADS", "4"), ("FT_ARTIFACT_DIR", dir)],
        &[&run[..], &["--stop-after-round", "2"]].concat(),
    );
    let stdout = String::from_utf8_lossy(&killed.stdout);
    assert!(
        killed.status.success(),
        "{}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(
        stdout.contains("stopped `iid-small` at round 2/"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("digest"),
        "a killed run prints no report: {stdout}"
    );
    assert!(!artifacts.exists(), "a killed run writes no report");
    assert!(path.exists(), "the kill leaves its checkpoint");

    let resumed = ft_run(
        &[
            ("FT_CLIENT_THREADS", "1"),
            ("FT_TENSOR_SIMD", "portable"),
            ("FT_ARTIFACT_DIR", dir),
        ],
        &[&run[..], &["--check-golden"]].concat(),
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    let left = path.exists();
    let _ = std::fs::remove_dir_all(&artifacts);
    let _ = std::fs::remove_file(&path);
    assert!(
        resumed.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(
        stdout.contains("resumed `iid-small` from round 2"),
        "{stdout}"
    );
    assert!(stdout.contains("golden     ok"), "{stdout}");
    assert!(!left, "a finished run clears its checkpoint");
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
