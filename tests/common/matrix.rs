//! The cells of the determinism matrix. A cell replays one canned
//! scenario in quick mode against `goldens.json`, either under one
//! kernel tier and client fan-out width, or killed under one setting and
//! resumed under another. `determinism_matrix.rs` runs every cell;
//! `client_parallelism.rs`, `kernel_tiers.rs` and `scenario_harness.rs`
//! each replay the slice that pins one part of the contract.
//!
//! A cell runs inside its own `ft_tensor::Settings` scope, so cells of
//! two tests run side by side, each on its own tier and width.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Once;

use ft_harness::{registry, run_scenario, RunOptions, RunOutcome, Scenario};
use ft_tensor::simd::Kernel;
use ft_tensor::{pool, Settings};

/// Pins the tensor pool to 4 threads unless `FT_TENSOR_THREADS` is
/// already set. On a small host the client fan-out would otherwise fall
/// back to the serial path and a width comparison would be vacuous. The
/// pool is sized once per process, so this must run before anything in
/// the process reads its size.
#[expect(
    clippy::disallowed_methods,
    reason = "the pool size is a process setting, pinned before first use"
)]
pub fn pin_pool() {
    static PIN: Once = Once::new();
    PIN.call_once(|| {
        if std::env::var_os("FT_TENSOR_THREADS").is_none() {
            std::env::set_var("FT_TENSOR_THREADS", "4");
            assert_eq!(pool::max_parallelism(), 4);
        }
    });
}

/// A sweep of cells. A failing cell does not stop it: [`Matrix::finish`]
/// fails once, naming every (scenario, setting) that drifted, errored or
/// panicked.
pub struct Matrix {
    goldens: BTreeMap<String, String>,
    failures: Vec<String>,
    cells: usize,
}

impl Matrix {
    pub fn new() -> Self {
        Self {
            goldens: registry::load_goldens().expect("goldens.json is committed"),
            failures: Vec::new(),
            cells: 0,
        }
    }

    /// Replays `name` with `threads` client threads on `tier` (`None`:
    /// the auto-detected one).
    pub fn run(&mut self, name: &str, tier: Option<Kernel>, threads: usize) {
        let setting = format!(
            "on {}, {threads} client threads",
            tier.map_or("auto tier", Kernel::name)
        );
        self.cell(name, setting, |scenario, golden| {
            let quick = RunOptions {
                quick: true,
                ..Default::default()
            };
            let outcome = run_cell(scenario, tier, threads, &quick)?;
            check_finished(scenario, golden, &outcome)
        });
    }

    /// Kills `name` at round `kill` under 4 client threads and the
    /// auto-detected tier, then resumes it under 1 client thread and
    /// `resume_tier`.
    pub fn kill_and_resume(&mut self, name: &str, kill: usize, resume_tier: Option<Kernel>) {
        let setting = format!(
            "killed at round {kill} (4 client threads, auto tier), resumed \
             (1 client thread, {})",
            resume_tier.map_or("auto tier", Kernel::name)
        );
        self.cell(name, setting, |scenario, golden| {
            let path = std::env::temp_dir().join(format!(
                "ft-determinism-matrix-{name}-{}.json",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let result = kill_and_resume_at(scenario, golden, kill, resume_tier, &path);
            let _ = std::fs::remove_file(&path);
            result
        });
    }

    fn cell(
        &mut self,
        name: &str,
        setting: String,
        check: impl FnOnce(&Scenario, Option<&String>) -> Result<(), String>,
    ) {
        self.cells += 1;
        let checked = registry::find(name)
            .ok_or_else(|| "not a canned scenario".to_owned())
            .and_then(|scenario| check(&scenario, self.goldens.get(name)));
        if let Err(e) = checked {
            self.failures.push(format!("{name} {setting}: {e}"));
        }
    }

    /// Fails, listing every failed cell, unless all of them held.
    pub fn finish(self) {
        assert!(
            self.failures.is_empty(),
            "{} of {} cells drifted from goldens.json:\n{}",
            self.failures.len(),
            self.cells,
            self.failures.join("\n")
        );
    }
}

/// Runs `scenario` with `threads` client threads on `tier` (`None`: the
/// auto-detected one), turning an error or a panic into a message.
fn run_cell(
    scenario: &Scenario,
    tier: Option<Kernel>,
    threads: usize,
    opts: &RunOptions,
) -> Result<RunOutcome, String> {
    let settings = Settings {
        kernel: tier.unwrap_or(Settings::current().kernel),
        client_threads: threads,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        settings.scope(|| run_scenario(scenario, opts))
    }));
    match outcome {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(_) => Err("panicked".to_owned()),
    }
}

/// Checks a finished run against its golden and the scenario's shape.
fn check_finished(
    scenario: &Scenario,
    golden: Option<&String>,
    outcome: &RunOutcome,
) -> Result<(), String> {
    let (Some(report), Some(digest)) = (&outcome.report, &outcome.digest) else {
        return Err(format!(
            "stopped at round {}/{}",
            outcome.rounds_completed, outcome.target_rounds
        ));
    };
    if report.rounds.len() != scenario.quick_rounds {
        return Err(format!(
            "{} rounds reported, quick_rounds is {}",
            report.rounds.len(),
            scenario.quick_rounds
        ));
    }
    // eval_clients caps the evaluation sweep (million-device scenarios
    // would otherwise evaluate the whole population).
    let evaluated = scenario
        .eval_clients
        .map_or(scenario.dataset.num_clients, |k| {
            k.min(scenario.dataset.num_clients)
        });
    if report.per_client_accuracy.len() != evaluated {
        return Err(format!(
            "{} per-client accuracies, {evaluated} clients evaluated",
            report.per_client_accuracy.len()
        ));
    }
    if golden != Some(digest) {
        return Err(format!("digest {digest}, golden {golden:?}"));
    }
    Ok(())
}

fn kill_and_resume_at(
    scenario: &Scenario,
    golden: Option<&String>,
    kill: usize,
    resume_tier: Option<Kernel>,
    path: &Path,
) -> Result<(), String> {
    let interrupted = run_cell(
        scenario,
        None,
        4,
        &RunOptions {
            quick: true,
            checkpoint_path: Some(path.to_owned()),
            stop_after: Some(kill),
            ..Default::default()
        },
    )?;
    if interrupted.finished() || interrupted.rounds_completed != kill {
        return Err(format!(
            "the kill at round {kill} did not take: {} rounds, finished {}",
            interrupted.rounds_completed,
            interrupted.finished()
        ));
    }
    if !path.exists() {
        return Err(format!("the kill at round {kill} left no checkpoint"));
    }
    let resumed = run_cell(
        scenario,
        resume_tier,
        1,
        &RunOptions {
            quick: true,
            checkpoint_path: Some(path.to_owned()),
            ..Default::default()
        },
    )?;
    if resumed.resumed_from != Some(kill as u32) {
        return Err(format!(
            "resumed from {:?}, killed at {kill}",
            resumed.resumed_from
        ));
    }
    // The digest hashes the whole report JSON, so landing on the golden
    // is the resumed report being byte-identical to an uninterrupted run.
    check_finished(scenario, golden, &resumed)
}
