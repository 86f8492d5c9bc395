//! The repo benchmark. `run` measures the workloads of `spec.rs`, each
//! run in a fresh child process, and prints every metric by name;
//! `compare` applies the bounds table to two result files. See
//! `README.md` in this directory.

mod alloc;
mod child;
mod compare;
mod host;
mod probes;
mod spec;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde::Value;
use serde_json::json;

use ft_harness::Scenario;

use child::{median, ChildArgs, ChildResult};
use spec::{Metric, Workload, END_TO_END, NOMINAL_SECONDS, PER_LAYER, PINNED_ENV};

/// `--quick`: short enough that every workload runs a single pass.
const QUICK_SECONDS: f64 = 1.0;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "ft-benchmark — the repo benchmark

USAGE:
    ft-benchmark run [options]
    ft-benchmark compare <a.json> <b.json>

RUN OPTIONS:
    --workload <name>   measure only this workload (repeatable; default all four)
    --seed <n>          offset every dataset seed by n (default 0, the pinned inputs)
    --seconds <s>       scale every pass count by s/20 (default 20)
    --quick             one pass of each workload
    --repeats <n>       untraced runs per workload (default 3); values are their medians
    --trace <0|1>       0: untraced runs only, result line carries the end-to-end
                        metrics; 1: plus the traced run, result line carries the
                        per-layer metrics; absent: both
    --out <path>        result file (default bench_results/benchmark.json); traces
                        and scratch files go to its directory";

struct RunArgs {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    repeats: usize,
    trace: Option<bool>,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 0,
        seconds: NOMINAL_SECONDS as f64,
        repeats: 3,
        trace: None,
        out: PathBuf::from("bench_results/benchmark.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = spec::workload(name).ok_or_else(|| {
                    let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; workloads: {}", known.join(", "))
                })?;
                parsed.workloads.push(w);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value()?.parse().map_err(|e| bad(&e))?,
            "--quick" => parsed.seconds = QUICK_SECONDS,
            "--repeats" => parsed.repeats = value()?.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err(format!(
            "--seconds must be positive, got {}",
            parsed.seconds
        ));
    }
    if parsed.repeats == 0 {
        return Err("--repeats must be at least 1".to_owned());
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = spec::WORKLOADS.iter().collect();
    }
    Ok(parsed)
}

/// The workload's scenario for this run: the template with its dataset
/// seed offset, so every client's data is regenerated. The device fleet
/// and the algorithm's own random stream (client selection, model
/// assignment) stay the template's: offsetting them too moved the work in
/// a pass by about 5%, which every comparison across seeds would read as
/// noise, while new data alone moves it by under 1%.
fn scenario_for(w: &Workload, seed: u64) -> Result<Scenario, String> {
    let mut s: Scenario = serde_json::from_str(w.template)
        .map_err(|e| format!("workload template {}: {e}", w.name))?;
    s.dataset.seed += seed;
    s.validate()?;
    Ok(s)
}

/// Runs one child on `scenario_path` with every `FT_*` variable scrubbed
/// and the thread counts pinned, and waits for it.
fn spawn_child(
    scenario_path: &Path,
    w: &Workload,
    seed: u64,
    commit: &str,
    passes: usize,
    traced: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(scenario_path)
        .args([w.name, &seed.to_string(), commit, &passes.to_string()])
        .arg(if traced { "1" } else { "0" })
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FT_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(PINNED_ENV);
    let output = cmd
        .output()
        .map_err(|e| format!("starting the child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child for {} failed: {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("child output for {}: {e}", w.name))
}

fn child_main(args: &[String]) -> Result<bool, String> {
    let [scenario, workload, seed, commit, passes, traced] = args else {
        return Err("`child` is run by `run`, not by hand".to_owned());
    };
    let w = spec::workload(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let result = child::run(&ChildArgs {
        scenario: PathBuf::from(scenario),
        workload: workload.clone(),
        seed: seed.parse().map_err(|e| format!("seed: {e}"))?,
        commit: commit.clone(),
        accuracy_floor: w.accuracy_floor,
        passes: passes.parse().map_err(|e| format!("passes: {e}"))?,
        traced: traced == "1",
    })?;
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(true)
}

/// Everything measured for one workload.
struct Measured {
    workload: &'static Workload,
    untraced: Vec<ChildResult>,
    traced: Option<ChildResult>,
    attempted: u64,
    failures: Vec<String>,
}

impl Measured {
    fn runs(&self, metric: &str) -> Vec<f64> {
        self.untraced
            .iter()
            .filter_map(|r| r.end_to_end.get(metric).copied())
            .collect()
    }

    fn per_layer(&self) -> BTreeMap<String, f64> {
        let Some(traced) = &self.traced else {
            return BTreeMap::new();
        };
        let mut layer = traced.per_layer.clone();
        let overhead = traced.end_to_end["run_s"] / median(&self.runs("run_s")) - 1.0;
        layer.insert("trace.overhead_frac".to_owned(), overhead);
        layer
    }
}

fn measure(w: &'static Workload, args: &RunArgs, commit: &str) -> Result<Measured, String> {
    let scenario = scenario_for(w, args.seed)?;
    let passes =
        ((w.passes as f64 * args.seconds / NOMINAL_SECONDS as f64).round() as usize).max(1);
    let dir = args.out.parent().unwrap_or(Path::new(""));
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let scenario_path = dir.join(format!("scenario_{}_{}.json", w.name, std::process::id()));
    let json = serde_json::to_string_pretty(&scenario).map_err(|e| e.to_string())?;
    std::fs::write(&scenario_path, json)
        .map_err(|e| format!("writing {}: {e}", scenario_path.display()))?;

    let spawn = |traced| spawn_child(&scenario_path, w, args.seed, commit, passes, traced);
    let children = (|| {
        let untraced = (0..args.repeats)
            .map(|_| spawn(false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = (args.trace != Some(false))
            .then(|| spawn(true))
            .transpose()?;
        Ok::<_, String>((untraced, traced))
    })();
    let _ = std::fs::remove_file(&scenario_path);
    let (untraced, traced) = children?;

    let mut m = Measured {
        workload: w,
        untraced,
        traced,
        attempted: 0,
        failures: Vec::new(),
    };
    for r in m.untraced.iter().chain(&m.traced) {
        m.attempted += r.attempted;
        m.failures.extend(r.failures.iter().cloned());
    }
    let digest = m.untraced[0].digest.clone();
    let mut check = |ok: bool, what: String| {
        m.attempted += 1;
        if !ok {
            m.failures.push(what);
        }
    };
    let digests: Vec<&str> = m
        .untraced
        .iter()
        .chain(&m.traced)
        .map(|r| r.digest.as_str())
        .collect();
    check(
        digests.iter().all(|d| *d == digest),
        format!("runs of {} disagree on the digest: {digests:?}", w.name),
    );
    if args.seed == 0 {
        let pins = serde_json::parse_value(spec::PINNED_DIGESTS).map_err(|e| e.to_string())?;
        let pin = pins.get(w.name).and_then(Value::as_str);
        check(
            pin == Some(digest.as_str()),
            format!("{} digest {digest}, pinned {pin:?}", w.name),
        );
    }
    if let Some(traced) = &m.traced {
        let trace_path = dir.join(format!("trace_{}.json", w.name));
        let trace = json!({ "header": traced.header, "spans": traced.spans });
        std::fs::write(
            &trace_path,
            serde_json::to_string(&trace).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    }
    Ok(m)
}

fn metric_values(metrics: &[Metric], values: &BTreeMap<String, f64>) -> Result<Value, String> {
    let mut entries = Vec::new();
    for metric in metrics {
        let value = *values
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", metric.name));
        }
        entries.push((
            metric.name.to_owned(),
            json!({ "value": value, "unit": metric.unit }),
        ));
    }
    Ok(Value::Object(entries))
}

fn print_workload(m: &Measured, e2e: &BTreeMap<String, f64>, layer: &BTreeMap<String, f64>) {
    let first = &m.untraced[0];
    println!("\n== {} — {}", m.workload.name, m.workload.why);
    println!("{}", first.header.line());
    println!(
        "digest {} accuracy {:.4} operations {} failed {}",
        first.digest,
        first.accuracy,
        m.attempted,
        m.failures.len()
    );
    for failure in &m.failures {
        println!("FAILED: {failure}");
    }
    println!("end to end (median of {} untraced runs):", m.untraced.len());
    for metric in &END_TO_END {
        let runs: Vec<String> = m
            .runs(metric.name)
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect();
        println!(
            "  {:<44} {:>14.4} {:<8} runs [{}]",
            metric.name,
            e2e[metric.name],
            metric.unit,
            runs.join(", ")
        );
    }
    println!(
        "  {:<44} {:>14.4} {:<8}",
        "failed_frac",
        m.failures.len() as f64 / m.attempted as f64,
        "ratio"
    );
    let Some(traced) = &m.traced else { return };
    println!("per layer (one traced run):");
    for metric in &PER_LAYER {
        if let Some(v) = layer.get(metric.name) {
            println!("  {:<44} {:>14.4} {:<8}", metric.name, v, metric.unit);
        }
    }
    println!("self time by span:");
    for (name, secs) in trace::self_times(&traced.spans).iter().take(12) {
        println!("  {name:<44} {secs:>14.4} s");
    }
}

fn run_main(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let commit = host::git_commit();
    let prefix = args.workloads.len() > 1;
    let mut attempted = 0;
    let mut failed = 0;
    let mut line_metrics = Vec::new();
    let mut file_workloads = Vec::new();
    for w in &args.workloads {
        let m = measure(w, &args, &commit)?;
        let e2e: BTreeMap<String, f64> = END_TO_END
            .iter()
            .map(|metric| (metric.name.to_owned(), median(&m.runs(metric.name))))
            .collect();
        let layer = m.per_layer();
        print_workload(&m, &e2e, &layer);
        attempted += m.attempted;
        failed += m.failures.len() as u64;

        let e2e_values = metric_values(&END_TO_END, &e2e)?;
        let layer_values = match &m.traced {
            Some(_) => metric_values(&PER_LAYER, &layer)?,
            None => Value::Object(Vec::new()),
        };
        let in_line = match args.trace {
            Some(false) => vec![&e2e_values],
            Some(true) => vec![&layer_values],
            None => vec![&e2e_values, &layer_values],
        };
        for (name, value) in in_line
            .into_iter()
            .flat_map(|v| v.as_object().unwrap_or(&[]))
        {
            let name = if prefix {
                format!("{}/{name}", w.name)
            } else {
                name.clone()
            };
            line_metrics.push((name, value.clone()));
        }
        let runs: Vec<(String, Value)> = END_TO_END
            .iter()
            .map(|metric| (metric.name.to_owned(), json!(m.runs(metric.name))))
            .collect();
        file_workloads.push(json!({
            "name": w.name,
            "header": m.untraced[0].header,
            "digest": m.untraced[0].digest,
            "accuracy": m.untraced[0].accuracy,
            "attempted": m.attempted,
            "failed": m.failures.len(),
            "failures": m.failures,
            "end_to_end": e2e_values,
            "end_to_end_runs": Value::Object(runs),
            "per_layer": layer_values,
        }));
    }
    let file = json!({
        "claim": null,
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "workloads": file_workloads,
    });
    std::fs::write(
        &args.out,
        serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("writing {}: {e}", args.out.display()))?;
    println!("\nwrote {}", args.out.display());
    let line = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(line_metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("child") => child_main(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
