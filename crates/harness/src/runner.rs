//! The scenario runner: deterministic execution, per-round metrics,
//! checkpoint/resume.
//!
//! Checkpoints are single JSON files written atomically (temp file +
//! rename). A checkpoint records the scenario name, mode, and target
//! round count alongside the algorithm state, so a resume against the
//! wrong scenario or mode fails loudly instead of silently diverging.
//!
//! Resume is thread-count independent: a run may be killed under one
//! client width and resumed under another and still
//! reproduce the uninterrupted report byte-for-byte, because
//! per-client training RNG streams are derived statelessly from state
//! the checkpoint already carries (base seed + round counter; see
//! `ft_fedsim::trainer::client_seed`).

use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

use ft_fedsim::report::{report_digest, RunReport};
use ft_fedsim::{Algorithm, SimError};

use crate::Scenario;

/// Checkpoint file format version. Version 6 writes the series that
/// grow with the fleet (the ledger's per-participant round times,
/// FedTrans's utility table) as `ft_tensor::series` blocks, where
/// version 5 wrote decimal arrays. Version 5 writes every tensor's
/// data as base64 of its little-endian `f32` bytes, where version 4
/// wrote a decimal array. Version 4 introduced the shared round
/// runner's envelope: `state` is `kind`/`round`/`rng`/`ledger`/
/// `coordinator` plus the method's own block under `method`, where
/// version 3 (the streaming aggregation fold) had one flat per-method
/// layout. Version 2 added the coordinator protocol state; version 1
/// had neither. Older checkpoints are rejected with an explicit error
/// instead of resuming into a layout this build does not read.
const CHECKPOINT_VERSION: u64 = 6;

/// How a scenario run is executed.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Quick (CI) mode: use [`Scenario::quick_rounds`].
    pub quick: bool,
    /// Overrides the scenario's round budget when set.
    pub rounds_override: Option<usize>,
    /// Checkpoint file to resume from (if it exists) and write to.
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every N completed rounds (0: only when
    /// stopping early).
    pub checkpoint_every: usize,
    /// Stop (and checkpoint) after this many completed rounds — the
    /// kill/restart injection point for resume testing.
    pub stop_after: Option<usize>,
}

/// One `FT_*` variable: name, whether a value parses under the function
/// its reader uses, and the accepted forms.
pub type EnvRule = (&'static str, fn(&str) -> bool, &'static str);

/// Every `FT_*` variable this workspace reads.
/// README.md#environment-variables lists exactly these names.
pub const ENV_VARS: [EnvRule; 4] = [
    (
        "FT_TENSOR_THREADS",
        |v| ft_tensor::pool::parse_threads(v).is_some(),
        THREAD_COUNT,
    ),
    (
        "FT_TENSOR_SIMD",
        |v| ft_tensor::simd::parse_env(v).is_some(),
        "`0`/`off`/`portable` or `1`/`on`/`auto`",
    ),
    (
        "FT_CLIENT_THREADS",
        |v| ft_tensor::pool::parse_threads(v).is_some(),
        THREAD_COUNT,
    ),
    (
        "FT_ARTIFACT_DIR",
        |v| ft_fedsim::report::parse_artifact_dir(v).is_some(),
        "a non-empty directory path",
    ),
];

/// The accepted forms of a thread count (`ft_tensor::pool::MAX_THREADS`).
const THREAD_COUNT: &str = "a thread count of at most 256, such as `4`";

/// Startup validation of the process environment, for the program's
/// entry points (`ft-run` and `ft-exp` call it before any work): every
/// `FT_*` variable must be one this workspace reads and must parse under
/// the same function its reader uses. The lazy readers inside the libraries
/// keep their silent defaults; this is what turns a mistyped
/// `FT_TENSOR_SIMD=protable` leg into an error instead of an AVX2 run.
///
/// # Errors
///
/// A message naming the first offending variable, its value, and the
/// accepted forms (or the known names).
#[expect(clippy::disallowed_methods, reason = "validates the env once")]
pub fn check_env() -> Result<(), String> {
    for (name, value) in std::env::vars_os() {
        let (name, value) = (name.to_string_lossy(), value.to_string_lossy());
        if !name.starts_with("FT_") {
            continue;
        }
        return Err(match ENV_VARS.iter().find(|(known, ..)| *known == name) {
            Some((_, parses, _)) if parses(&value) => continue,
            Some((_, _, forms)) => format!("{name}=`{value}` is not valid: expected {forms}"),
            None => {
                let known: Vec<&str> = ENV_VARS.iter().map(|(known, ..)| *known).collect();
                format!(
                    "{name} is not a variable this program reads; known: {}",
                    known.join(", ")
                )
            }
        });
    }
    Ok(())
}

/// The GEMM kernel tier and block sizes this process runs with, as
/// `ft-run` prints them: `avx512 (mc 680, kc 192)`. Neither ever changes
/// a report byte, so the line stays out of every digest.
pub fn kernel_summary() -> String {
    let tune = ft_tensor::tune::active();
    format!(
        "{} (mc {}, kc {})",
        ft_tensor::simd::active().name(),
        tune.mc,
        tune.kc
    )
}

/// What a scenario run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Method name reported by the driver.
    pub algorithm: &'static str,
    /// Rounds completed when the run stopped.
    pub rounds_completed: usize,
    /// The round budget for this mode.
    pub target_rounds: usize,
    /// Round the run resumed from, if it restored a checkpoint.
    pub resumed_from: Option<u32>,
    /// The final report, present only when the run reached the budget.
    pub report: Option<RunReport>,
    /// FNV-1a digest of the report's canonical JSON, when finished.
    pub digest: Option<String>,
}

impl RunOutcome {
    /// Whether the run reached its round budget.
    pub fn finished(&self) -> bool {
        self.report.is_some()
    }
}

/// Executes a scenario.
///
/// # Errors
///
/// Propagates scenario validation, training, and checkpoint I/O
/// errors.
#[expect(
    clippy::missing_panics_doc,
    reason = "`stop_after` without a checkpoint path is rejected before the loop"
)]
pub fn run_scenario(scenario: &Scenario, opts: &RunOptions) -> ft_fedsim::Result<RunOutcome> {
    let quick = opts.quick;
    let target = opts
        .rounds_override
        .unwrap_or_else(|| scenario.rounds_for(quick));
    // A statically invalid option combination must fail before any
    // training happens, not after `stop` rounds of discarded work.
    if opts.stop_after.is_some() && opts.checkpoint_path.is_none() {
        return Err(SimError::BadConfig {
            detail: "stop_after requires a checkpoint path".to_owned(),
        });
    }
    if let Some(stop) = opts.stop_after.filter(|&stop| stop >= target) {
        // The kill would never fire: the run would finish and leave
        // no checkpoint to resume from.
        return Err(SimError::BadConfig {
            detail: format!("stop_after {stop} is not before the round budget {target}"),
        });
    }
    let mut driver = scenario.build()?;

    let mut resumed_from = None;
    if let Some(path) = &opts.checkpoint_path {
        if path.exists() {
            let round = resume_from_file(path, scenario, quick, target, driver.as_mut())?;
            resumed_from = Some(round);
        }
    }

    while (driver.round() as usize) < target {
        if let Some(stop) = opts.stop_after {
            if driver.round() as usize >= stop {
                let path = opts
                    .checkpoint_path
                    .as_ref()
                    .expect("checked before the loop");
                write_checkpoint(path, scenario, quick, target, driver.as_ref())?;
                return Ok(RunOutcome {
                    scenario: scenario.name.clone(),
                    algorithm: driver.name(),
                    rounds_completed: driver.round() as usize,
                    target_rounds: target,
                    resumed_from,
                    report: None,
                    digest: None,
                });
            }
        }
        driver.step()?;
        if opts.checkpoint_every > 0
            && (driver.round() as usize).is_multiple_of(opts.checkpoint_every)
        {
            if let Some(path) = &opts.checkpoint_path {
                write_checkpoint(path, scenario, quick, target, driver.as_ref())?;
            }
        }
    }

    let report = driver.report()?;
    let digest = report_digest(&report);
    // A finished run's checkpoint is stale; remove it so the next
    // invocation starts fresh instead of resuming past the budget.
    if let Some(path) = &opts.checkpoint_path {
        let _ = std::fs::remove_file(path);
    }
    Ok(RunOutcome {
        scenario: scenario.name.clone(),
        algorithm: driver.name(),
        rounds_completed: driver.round() as usize,
        target_rounds: target,
        resumed_from,
        report: Some(report),
        digest: Some(digest),
    })
}

/// Writes the driver's checkpoint to `path` atomically.
fn write_checkpoint(
    path: &Path,
    scenario: &Scenario,
    quick: bool,
    target: usize,
    driver: &dyn Algorithm,
) -> ft_fedsim::Result<()> {
    // The state moves into the envelope; `json!` would copy it.
    let envelope = Value::Object(vec![
        ("version".to_owned(), CHECKPOINT_VERSION.to_value()),
        ("scenario".to_owned(), scenario.name.to_value()),
        ("quick".to_owned(), quick.to_value()),
        ("target_rounds".to_owned(), target.to_value()),
        ("round".to_owned(), driver.round().to_value()),
        ("state".to_owned(), driver.checkpoint()),
    ]);
    let json = serde_json::to_string(&envelope)
        .map_err(|e| SimError::snapshot(format!("serializing checkpoint: {e}")))?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| SimError::snapshot(format!("creating {}: {e}", parent.display())))?;
        }
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, json)
        .map_err(|e| SimError::snapshot(format!("writing {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| SimError::snapshot(format!("renaming into {}: {e}", path.display())))?;
    Ok(())
}

/// Restores a checkpoint file into `driver`, returning the round it
/// resumes from.
fn resume_from_file(
    path: &Path,
    scenario: &Scenario,
    quick: bool,
    target: usize,
    driver: &mut dyn Algorithm,
) -> ft_fedsim::Result<u32> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::snapshot(format!("reading {}: {e}", path.display())))?;
    let envelope = serde_json::parse_value(&text)
        .map_err(|e| SimError::snapshot(format!("parsing {}: {e}", path.display())))?;
    let check = |key: &str, expect: &Value, what: &str| -> ft_fedsim::Result<()> {
        let got = envelope
            .get(key)
            .ok_or_else(|| SimError::snapshot(format!("checkpoint missing `{key}`")))?;
        if got != expect {
            return Err(SimError::snapshot(format!(
                "checkpoint {what} mismatch: {got:?} vs expected {expect:?}"
            )));
        }
        Ok(())
    };
    let version = envelope
        .get("version")
        .ok_or_else(|| SimError::snapshot("checkpoint missing `version`"))?;
    if version != &Value::Number(CHECKPOINT_VERSION as f64) {
        return Err(SimError::snapshot(format!(
            "checkpoint format version {version:?} is not readable by this build, which writes \
             version {CHECKPOINT_VERSION} (the shared runner envelope). Checkpoints from \
             older builds cannot be resumed — delete {} and rerun from round 0",
            path.display()
        )));
    }
    check(
        "scenario",
        &Value::String(scenario.name.clone()),
        "scenario",
    )?;
    check("quick", &Value::Bool(quick), "mode")?;
    check(
        "target_rounds",
        &Value::Number(target as f64),
        "round budget",
    )?;
    let state = envelope
        .get("state")
        .ok_or_else(|| SimError::snapshot("checkpoint missing `state`"))?;
    driver.restore(state)?;
    Ok(driver.round())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ft-harness-test-{tag}-{}.json", std::process::id()))
    }

    /// Kill/resume against a real canned scenario must reproduce the
    /// uninterrupted report byte-identically (fedtrans flavour; the
    /// baseline flavour lives in the workspace integration tests).
    #[test]
    fn interrupted_run_resumes_byte_identically() {
        let scenario = registry::find("iid-small").unwrap();
        let quick = RunOptions {
            quick: true,
            ..Default::default()
        };
        let reference = run_scenario(&scenario, &quick).unwrap();
        let reference_json = serde_json::to_string(reference.report.as_ref().unwrap()).unwrap();

        let path = tmp_path("resume");
        let _ = std::fs::remove_file(&path);
        let interrupted = run_scenario(
            &scenario,
            &RunOptions {
                quick: true,
                checkpoint_path: Some(path.clone()),
                stop_after: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!interrupted.finished());
        assert_eq!(interrupted.rounds_completed, 3);
        assert!(path.exists(), "stop_after must leave a checkpoint behind");

        let resumed = run_scenario(
            &scenario,
            &RunOptions {
                quick: true,
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.resumed_from, Some(3));
        assert!(resumed.finished());
        assert_eq!(
            serde_json::to_string(resumed.report.as_ref().unwrap()).unwrap(),
            reference_json,
            "resumed report must be byte-identical to the uninterrupted run"
        );
        assert_eq!(resumed.digest, reference.digest);
        assert!(!path.exists(), "finished run must clear its checkpoint");
    }

    #[test]
    fn resume_rejects_mismatched_scenario() {
        let a = registry::find("iid-small").unwrap();
        let b = registry::find("dirichlet-skew").unwrap();
        let path = tmp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        run_scenario(
            &a,
            &RunOptions {
                quick: true,
                checkpoint_path: Some(path.clone()),
                stop_after: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        let err = run_scenario(
            &b,
            &RunOptions {
                quick: true,
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            },
        );
        assert!(err.is_err(), "resuming the wrong scenario must fail");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_older_checkpoint_versions() {
        let scenario = registry::find("iid-small").unwrap();
        let path = tmp_path("old-version");
        // Syntactically valid envelopes from older builds: version 3
        // had per-method layouts, version 4 decimal tensors, version 5
        // decimal client times and utilities. Only the version gate
        // should ever look at them.
        for old in [3, 4, 5] {
            let _ = std::fs::remove_file(&path);
            std::fs::write(
                &path,
                format!(
                    r#"{{"version":{old},"scenario":"iid-small","quick":true,"target_rounds":4,"round":1,"state":{{}}}}"#
                ),
            )
            .unwrap();
            let err = run_scenario(
                &scenario,
                &RunOptions {
                    quick: true,
                    checkpoint_path: Some(path.clone()),
                    ..Default::default()
                },
            );
            let msg = err
                .expect_err("an older checkpoint must be rejected")
                .to_string();
            assert!(
                msg.contains("version")
                    && msg.contains(&format!("{old}.0"))
                    && msg.contains("writes version 6"),
                "rejection must name the version gate, got: {msg}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Kill/resume over the sparse million-device scenario: on-demand
    /// shards must regenerate identically after a restart, so the
    /// resumed report matches the uninterrupted one byte for byte.
    #[test]
    fn sparse_scenario_resumes_byte_identically() {
        let scenario = registry::find("large-population-1m").unwrap();
        let quick = RunOptions {
            quick: true,
            ..Default::default()
        };
        let reference = run_scenario(&scenario, &quick).unwrap();
        let reference_json = serde_json::to_string(reference.report.as_ref().unwrap()).unwrap();

        let path = tmp_path("sparse-resume");
        let _ = std::fs::remove_file(&path);
        let interrupted = run_scenario(
            &scenario,
            &RunOptions {
                quick: true,
                checkpoint_path: Some(path.clone()),
                stop_after: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!interrupted.finished());
        let resumed = run_scenario(
            &scenario,
            &RunOptions {
                quick: true,
                checkpoint_path: Some(path),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.resumed_from, Some(1));
        assert_eq!(
            serde_json::to_string(resumed.report.as_ref().unwrap()).unwrap(),
            reference_json,
        );
        assert_eq!(resumed.digest, reference.digest);
    }

    #[test]
    fn stop_after_at_or_past_the_budget_is_refused() {
        let scenario = registry::find("large-population-1m").unwrap();
        let path = tmp_path("unreachable-kill");
        for stop in [scenario.quick_rounds, scenario.quick_rounds + 1] {
            let err = run_scenario(
                &scenario,
                &RunOptions {
                    quick: true,
                    checkpoint_path: Some(path.clone()),
                    stop_after: Some(stop),
                    ..Default::default()
                },
            )
            .expect_err("a kill that cannot fire must be refused");
            let msg = err.to_string();
            assert!(matches!(err, SimError::BadConfig { .. }), "{msg}");
            assert!(
                msg.contains(&format!("stop_after {stop}"))
                    && msg.contains(&format!("budget {}", scenario.quick_rounds)),
                "{msg}"
            );
        }
    }

    #[test]
    fn stop_after_requires_checkpoint_path() {
        let scenario = registry::find("iid-small").unwrap();
        let err = run_scenario(
            &scenario,
            &RunOptions {
                quick: true,
                stop_after: Some(1),
                ..Default::default()
            },
        );
        assert!(err.is_err());
    }
}
