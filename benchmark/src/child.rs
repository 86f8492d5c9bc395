//! One measured run of one workload, in a process of its own.
//!
//! Drives the program as `ft-run --config` does — scenario JSON →
//! `Scenario::build()` → `Algorithm::step()` × rounds →
//! `Algorithm::report()` → `report_digest` — and times it from outside.
//! Closed loop, one driver: round `r + 1` starts when round `r` ends.
//!
//! The scenario runs `passes` times, each from a fresh build, and a
//! step's time is its minimum over the passes. On a shared host whole
//! seconds run slow (a register-only loop measured 1.1x to 1.35x its best
//! time, in bursts); the minimum over repeats of the same work is the
//! estimate of the undisturbed time that such bursts move least.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use ft_fedsim::report::{report_digest, RunReport};
use ft_fedsim::Algorithm;
use ft_harness::Scenario;

use crate::host::{self, Header};
use crate::probes;
use crate::trace::{Span, Tracer};

/// After each pass, checkpoint round trips repeat for this long.
const ROUNDTRIP_BUDGET: Duration = Duration::from_millis(300);

pub struct ChildArgs {
    pub scenario: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub commit: String,
    pub accuracy_floor: f64,
    /// Times the whole scenario is run.
    pub passes: usize,
    pub traced: bool,
}

/// What a child prints as its one line of standard output.
#[derive(Debug, Serialize, Deserialize)]
pub struct ChildResult {
    pub header: Header,
    pub digest: String,
    pub accuracy: f64,
    /// Operations: every `step()`, every `report()`, and each check.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<String, f64>,
    /// Empty unless traced.
    pub per_layer: BTreeMap<String, f64>,
    /// Empty unless traced.
    pub spans: Vec<Span>,
}

#[derive(Default)]
struct Ops {
    attempted: u64,
    failures: Vec<String>,
}

impl Ops {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn load_scenario(path: &Path) -> Result<Scenario, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let scenario: Scenario =
        serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    scenario.validate()?;
    Ok(scenario)
}

pub fn run(args: &ChildArgs) -> Result<ChildResult, String> {
    host::check_env()?;
    let scenario = load_scenario(&args.scenario)?;
    let mut tracer = Tracer::new(args.traced, &args.workload);
    let mut result = tracer.time("run", |t| measure(t, &scenario, args)).0?;
    result.spans = tracer.into_spans();
    Ok(result)
}

/// One run of the scenario from a fresh build.
struct Pass {
    driver: Box<dyn Algorithm>,
    report: RunReport,
    digest: String,
    build_s: f64,
    step_s: Vec<f64>,
    report_s: f64,
    participants: usize,
    transforms: usize,
    /// First round after the last transformation: from here on the
    /// model suite no longer changes.
    settled_from: usize,
}

fn run_pass(t: &mut Tracer, scenario: &Scenario, ops: &mut Ops) -> Result<Pass, String> {
    let (driver, build_s) = t.time("harness.build", |_| scenario.build());
    let mut driver = driver.map_err(|e| format!("build: {e}"))?;
    let mut step_s = Vec::with_capacity(scenario.rounds);
    let mut participants = 0;
    let mut transforms = 0;
    let mut settled_from = 0;
    for r in 0..scenario.rounds {
        let (round, secs) = t.time(&format!("harness.step[{r}]"), |_| driver.step());
        ops.check(round.is_ok(), || format!("step {r} failed"));
        let round = round.map_err(|e| format!("step {r}: {e}"))?;
        participants += round.participants;
        if round.transformed {
            transforms += 1;
            settled_from = r + 1;
        }
        step_s.push(secs);
    }
    let (report, report_s) = t.time("harness.report", |_| driver.report());
    ops.check(report.is_ok(), || "report failed".to_owned());
    let report = report.map_err(|e| format!("report: {e}"))?;
    Ok(Pass {
        digest: report_digest(&report),
        driver,
        report,
        build_s,
        step_s,
        report_s,
        participants,
        transforms,
        settled_from,
    })
}

/// Seconds of one `checkpoint → serialize → file → parse → restore`
/// round trip of `driver` into `fresh`: the four named parts, the total,
/// and the checkpoint's size in bytes.
fn roundtrip(
    t: &mut Tracer,
    driver: &dyn Algorithm,
    fresh: &mut dyn Algorithm,
    path: &Path,
) -> Result<([f64; 4], f64, usize), String> {
    let (res, total) = t.time("harness.ckpt", |t| -> Result<_, String> {
        let (state, a) = t.time("harness.ckpt.checkpoint", |_| driver.checkpoint());
        let (json, b) = t.time("harness.ckpt.serialize", |_| serde_json::to_string(&state));
        let json = json.map_err(|e| format!("serializing checkpoint: {e}"))?;
        let (text, _) = t.time("harness.ckpt.file", |_| {
            std::fs::write(path, &json)?;
            std::fs::read_to_string(path)
        });
        let text = text.map_err(|e| format!("{}: {e}", path.display()))?;
        let (parsed, c) = t.time("harness.ckpt.parse", |_| serde_json::parse_value(&text));
        let parsed = parsed.map_err(|e| format!("parsing checkpoint: {e}"))?;
        let (res, d) = t.time("harness.ckpt.restore", |_| fresh.restore(&parsed));
        res.map_err(|e| format!("restore: {e}"))?;
        Ok(([a, b, c, d], text.len()))
    });
    let (parts, bytes) = res?;
    Ok((parts, total, bytes))
}

fn measure(t: &mut Tracer, scenario: &Scenario, args: &ChildArgs) -> Result<ChildResult, String> {
    let mut ops = Ops::default();

    // The builds are the set-up samples. Each pass's driver is dropped
    // before the next build.
    let mut builds = Vec::with_capacity(args.passes);
    let mut step_s = vec![f64::INFINITY; scenario.rounds];
    let mut report_s = f64::INFINITY;
    let mut peak_rss_mb = 0.0;
    // Checkpoint round trips follow every pass, so their samples are
    // spread over the run like the steps'. All restore into one driver,
    // built once the memory high-water mark has been read.
    let ckpt_path = args.scenario.with_extension("ckpt.json");
    let mut restored: Option<Box<dyn Algorithm>> = None;
    let mut trip_s = f64::INFINITY;
    let mut part_s = [f64::INFINITY; 4];
    let mut bytes = 0;
    let mut last: Option<Pass> = None;
    for p in 0..args.passes {
        let first_digest = last.take().map(|pass| pass.digest);
        let pass = t
            .time(&format!("harness.pass[{p}]"), |t| {
                run_pass(t, scenario, &mut ops)
            })
            .0?;
        if let Some(first) = first_digest {
            ops.check(first == pass.digest, || {
                format!("pass {p} digest {}, the pass before {first}", pass.digest)
            });
        }
        builds.push(pass.build_s);
        for (best, secs) in step_s.iter_mut().zip(&pass.step_s) {
            *best = best.min(*secs);
        }
        report_s = report_s.min(pass.report_s);
        if p == 0 {
            // What one `ft-run` of the scenario peaks at; later passes
            // reuse or fragment the allocator's memory, the first cannot.
            peak_rss_mb = host::peak_rss_mb()?;
        }
        let target = match &mut restored {
            Some(target) => target,
            None => restored.insert(scenario.build().map_err(|e| format!("build: {e}"))?),
        };
        let begin = Instant::now();
        loop {
            let (parts, total, len) =
                roundtrip(t, pass.driver.as_ref(), target.as_mut(), &ckpt_path)?;
            for (best, secs) in part_s.iter_mut().zip(parts) {
                *best = best.min(secs);
            }
            trip_s = trip_s.min(total);
            bytes = len;
            if begin.elapsed() >= ROUNDTRIP_BUDGET {
                break;
            }
        }
        last = Some(pass);
    }
    let _ = std::fs::remove_file(&ckpt_path);
    let Pass {
        report,
        digest,
        participants,
        transforms,
        settled_from,
        ..
    } = last.ok_or("no pass was run")?;

    let train_s: f64 = step_s.iter().sum();
    let e2e = BTreeMap::from([
        ("setup_s".to_owned(), median(&builds)),
        // What `ft-run` spends after build, undisturbed.
        ("run_s".to_owned(), train_s + report_s),
        ("updates_per_s".to_owned(), participants as f64 / train_s),
        ("ckpt_roundtrip_s".to_owned(), trip_s),
        ("peak_rss_mb".to_owned(), peak_rss_mb),
    ]);

    let accuracy = f64::from(report.final_accuracy.mean);
    ops.check(accuracy >= args.accuracy_floor, || {
        format!(
            "final mean accuracy {accuracy:.4} below the floor {}",
            args.accuracy_floor
        )
    });
    let restored_digest = restored
        .as_mut()
        .map(|d| d.report().map(|r| report_digest(&r)));
    ops.check(
        matches!(&restored_digest, Some(Ok(d)) if *d == digest),
        || format!("restored driver reports {restored_digest:?}, the run {digest}"),
    );
    drop(restored);

    let mut layer = BTreeMap::new();
    if args.traced {
        let mb = bytes as f64 / 1e6;
        let step_ms: Vec<f64> = step_s.iter().map(|s| s * 1e3).collect();
        let evaluated = report.per_client_accuracy.len().max(1);
        for (name, value) in [
            ("harness.build_first_s", builds[0]),
            ("harness.step_p50_ms", median(&step_ms)),
            ("harness.step_p90_ms", percentile(&step_ms, 0.9)),
            ("harness.step_max_ms", percentile(&step_ms, 1.0)),
            ("harness.rounds", report.rounds.len() as f64),
            ("harness.participants", participants as f64),
            ("harness.ckpt.bytes", bytes as f64),
            ("harness.ckpt.checkpoint_ms", part_s[0] * 1e3),
            ("harness.ckpt.serialize_mbps", mb / part_s[1]),
            ("harness.ckpt.parse_mbps", mb / part_s[2]),
            ("harness.ckpt.restore_ms", part_s[3] * 1e3),
            ("fedsim.eval.report_s", report_s),
            (
                "fedsim.eval.us_per_client",
                report_s * 1e6 / evaluated as f64,
            ),
            ("fedtrans.models", report.model_macs.len() as f64),
            ("fedtrans.transforms", transforms as f64),
            // Nominal training FLOP of one pass: 2 per MAC the cost
            // meter charged (forward plus backward, 3x forward MACs).
            ("tensor.gemm_flop", (2.0 * report.pmacs * 1e15).round()),
        ] {
            layer.insert(name.to_owned(), value);
        }
        // The probes run on the full suite, so they are set against the
        // rounds after the last transformation (all of them when the
        // last round transformed).
        let settled = step_s.get(settled_from..).filter(|s| !s.is_empty());
        let per_round = participants as f64 / scenario.rounds as f64;
        t.time("probes", |t| {
            probes::run(
                t,
                scenario,
                per_round,
                median(settled.unwrap_or(&step_s)),
                &mut layer,
            )
        })
        .0?;
    }

    Ok(ChildResult {
        header: Header::new(
            &args.workload,
            args.seed,
            scenario.rounds,
            args.passes,
            &args.commit,
        ),
        digest,
        accuracy,
        attempted: ops.attempted,
        failed: ops.failures.len() as u64,
        failures: ops.failures,
        end_to_end: e2e,
        per_layer: layer,
        spans: Vec::new(),
    })
}
