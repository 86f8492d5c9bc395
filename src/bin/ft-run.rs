//! `ft-run` — the scenario harness CLI.
//!
//! Runs one canned or user-supplied scenario deterministically, writes
//! its JSON report to the workspace `bench_results/` directory, and
//! optionally checks (or regenerates) the committed golden digests
//! (`crates/harness/goldens.json`).
//!
//! ```text
//! ft-run --list
//! ft-run --scenario dirichlet-skew --quick
//! ft-run --config my_scenario.json --rounds 100
//! ft-run --scenario high-dropout --quick --check-golden
//! ft-run --scenario iid-small --quick --checkpoint ck.json --stop-after-round 4
//! ft-run --scenario iid-small --quick --checkpoint ck.json   # resumes
//! ft-run --update-goldens
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use ft_harness::{registry, run_scenario, RunOptions, Scenario};

struct Args {
    scenario: Option<String>,
    config: Option<PathBuf>,
    list: bool,
    quick: bool,
    rounds: Option<usize>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    stop_after: Option<usize>,
    check_golden: bool,
    update_goldens: bool,
    out: Option<String>,
}

const USAGE: &str = "ft-run — config-driven scenario harness

USAGE:
    ft-run --list
    ft-run --scenario <name> [options]
    ft-run --config <scenario.json> [options]
    ft-run --update-goldens

OPTIONS:
    --list                  list canned scenarios and exit
    --scenario <name>       run a canned scenario by name
    --config <file>         run a scenario described by a JSON file
    --quick                 quick (CI) round budget
    --rounds <n>            override the round budget
    --checkpoint <file>     resume from <file> if present; checkpoint there
    --checkpoint-every <n>  write a checkpoint every n rounds (default 0)
    --stop-after-round <n>  stop and checkpoint after n rounds (kill injection)
    --check-golden          compare the quick-mode digest against goldens.json
    --update-goldens        re-run every canned scenario (quick) and rewrite
                            goldens.json
    --out <name>            report artifact name (default scenario-<name>)
    --help                  print this help

ENVIRONMENT:
    FT_CLIENT_THREADS / FT_TENSOR_THREADS / FT_TENSOR_SIMD control
    parallelism and kernels and never change a report byte;
    FT_ARTIFACT_DIR overrides the report directory (a report that
    cannot be written is an error). Protocol timing is set in the
    scenario file's `timing` block. An unknown or malformed FT_*
    variable is an error. Full table: README.md#environment-variables";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: None,
        config: None,
        list: false,
        quick: false,
        rounds: None,
        checkpoint: None,
        checkpoint_every: 0,
        stop_after: None,
        check_golden: false,
        update_goldens: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--list" => args.list = true,
            "--quick" => args.quick = true,
            "--check-golden" => args.check_golden = true,
            "--update-goldens" => args.update_goldens = true,
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--config" => args.config = Some(PathBuf::from(value("--config")?)),
            "--rounds" => {
                args.rounds = Some(
                    value("--rounds")?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?,
                );
            }
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--checkpoint-every" => {
                args.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--stop-after-round" => {
                args.stop_after = Some(
                    value("--stop-after-round")?
                        .parse()
                        .map_err(|e| format!("--stop-after-round: {e}"))?,
                );
            }
            "--out" => args.out = Some(value("--out")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn load_scenario(args: &Args) -> Result<Scenario, String> {
    if let Some(name) = &args.scenario {
        return registry::find(name).ok_or_else(|| {
            let known: Vec<String> = registry::canned().into_iter().map(|s| s.name).collect();
            format!(
                "unknown scenario `{name}`; canned scenarios: {}",
                known.join(", ")
            )
        });
    }
    if let Some(path) = &args.config {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let scenario: Scenario =
            serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        scenario.validate()?;
        return Ok(scenario);
    }
    Err("pass --scenario <name>, --config <file>, --list, or --update-goldens".to_owned())
}

fn list_scenarios() {
    println!(
        "{:<20} {:<10} {:>6} {:>6}  description",
        "name", "method", "rounds", "quick"
    );
    for s in registry::canned() {
        let method = match s.build() {
            Ok(d) => d.name(),
            Err(_) => "?",
        };
        println!(
            "{:<20} {:<10} {:>6} {:>6}  {}",
            s.name, method, s.rounds, s.quick_rounds, s.description
        );
    }
}

fn update_goldens() -> Result<(), String> {
    let mut goldens = BTreeMap::new();
    for scenario in registry::canned() {
        let outcome = run_scenario(
            &scenario,
            &RunOptions {
                quick: true,
                ..Default::default()
            },
        )
        .map_err(|e| format!("{}: {e}", scenario.name))?;
        let digest = outcome.digest.expect("finished run has a digest");
        println!("{:<20} {digest}", scenario.name);
        goldens.insert(scenario.name.clone(), digest);
    }
    registry::save_goldens(&goldens).map_err(|e| e.to_string())?;
    println!("wrote {}", registry::goldens_path().display());
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let scenario = load_scenario(args)?;
    // After validation, so a refused run still prints nothing.
    println!("kernel     {}", ft_harness::runner::kernel_summary());
    let opts = RunOptions {
        quick: args.quick,
        rounds_override: args.rounds,
        checkpoint_path: args.checkpoint.clone(),
        checkpoint_every: args.checkpoint_every,
        stop_after: args.stop_after,
    };
    let quick = opts.quick;
    let outcome = run_scenario(&scenario, &opts).map_err(|e| e.to_string())?;

    if let Some(from) = outcome.resumed_from {
        println!("resumed `{}` from round {from}", outcome.scenario);
    }
    if !outcome.finished() {
        println!(
            "stopped `{}` at round {}/{} (checkpoint written)",
            outcome.scenario, outcome.rounds_completed, outcome.target_rounds
        );
        return Ok(true);
    }

    let report = outcome.report.as_ref().expect("finished");
    let digest = outcome.digest.as_ref().expect("finished");
    let artifact = args
        .out
        .clone()
        .unwrap_or_else(|| format!("scenario-{}", outcome.scenario));
    let path = ft_fedsim::report::dump_json(&artifact, report).map_err(|e| e.to_string())?;
    println!(
        "scenario   {} ({} mode)\nmethod     {}\nrounds     {}\nmean acc   {:.4}\npmacs      {:.3e}\nnetwork    {:.2} MB\ndigest     {digest}",
        outcome.scenario,
        if quick { "quick" } else { "full" },
        outcome.algorithm,
        outcome.rounds_completed,
        report.final_accuracy.mean,
        report.pmacs,
        report.network_mb,
    );
    println!("report     {}", path.display());

    if args.check_golden {
        if !quick || args.rounds.is_some() {
            return Err("--check-golden only applies to unmodified quick-mode runs".to_owned());
        }
        let goldens = registry::load_goldens().map_err(|e| e.to_string())?;
        match goldens.get(&outcome.scenario) {
            Some(expected) if expected == digest => {
                println!("golden     ok ({expected})");
            }
            Some(expected) => {
                eprintln!(
                    "golden     DRIFT: expected {expected}, got {digest}\n\
                     If the change is intentional, regenerate with `ft-run --update-goldens`."
                );
                return Ok(false);
            }
            None => {
                eprintln!(
                    "golden     MISSING for `{}`; run `ft-run --update-goldens`",
                    outcome.scenario
                );
                return Ok(false);
            }
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    if let Err(e) = ft_harness::runner::check_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        list_scenarios();
        return ExitCode::SUCCESS;
    }
    if args.update_goldens {
        return match update_goldens() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
