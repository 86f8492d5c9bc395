//! `compare <a.json> <b.json>`: applies the bounds table to two result
//! files, `a` the parent and `b` the change (or two sets of runs of one
//! commit). One row per (metric, workload):
//!
//! - `regressed`: `b`'s median is worse than `a`'s by more than the bound,
//!   a count or digest differs, or more operations failed;
//! - `unresolved`: not regressed, but a set's own run-to-run spread is
//!   wider than the bound and `b`'s runs are not all better than `a`'s;
//! - `ok` otherwise.

use serde::Value;

use crate::child::median;
use crate::spec::{Better, END_TO_END, PER_LAYER};

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`.
fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(values).abs()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn workloads(file: &Value) -> &[Value] {
    file.get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

fn runs(workload: &Value, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end_runs")
        .and_then(|r| r.get(metric))
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn number(workload: &Value, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(workload, |v, key| v.get(key))
        .and_then(Value::as_f64)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: ft-benchmark compare <a.json> <b.json>".to_owned());
    };
    let (a_file, b_file) = (load(a_path)?, load(b_path)?);
    let mut regressed = 0usize;
    let mut row = |workload: &str, metric: &str, status: &str, detail: String| {
        regressed += usize::from(status == "regressed");
        println!("{workload:<18} {metric:<40} {status:<11} {detail}");
    };
    println!(
        "{:<18} {:<40} {:<11} detail (b/a, base a)",
        "workload", "metric", "status"
    );
    for a in workloads(&a_file) {
        let name = a.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(b) = workloads(&b_file)
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            row(name, "*", "unresolved", format!("not in {b_path}"));
            continue;
        };
        for metric in &END_TO_END {
            let (ra, rb) = (runs(a, metric.name), runs(b, metric.name));
            if ra.is_empty() || rb.is_empty() {
                row(name, metric.name, "unresolved", "no runs".to_owned());
                continue;
            }
            let (ma, mb) = (median(&ra), median(&rb));
            let worse_by = match metric.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let all_better = match metric.better {
                Better::Lower => rb.iter().all(|b| ra.iter().all(|a| b < a)),
                Better::Higher => rb.iter().all(|b| ra.iter().all(|a| b > a)),
            };
            let (sa, sb) = (spread(&ra), spread(&rb));
            let status = if worse_by > metric.bound {
                "regressed"
            } else if sa.max(sb) > metric.bound && !all_better {
                "unresolved"
            } else {
                "ok"
            };
            row(
                name,
                metric.name,
                status,
                format!(
                    "{:.4} (a = {ma:.4} {}, better {}, bound {:.0}%, spread a {:.1}% b {:.1}%)",
                    mb / ma,
                    metric.unit,
                    metric.better.name(),
                    metric.bound * 100.0,
                    sa * 100.0,
                    sb * 100.0
                ),
            );
        }
        let frac = |w: &Value| Some(number(w, &["failed"])? / number(w, &["attempted"])?);
        match (frac(a), frac(b)) {
            (Some(fa), Some(fb)) => row(
                name,
                "failed_frac",
                if fb > fa { "regressed" } else { "ok" },
                format!("a = {fa}, b = {fb}, any increase regresses"),
            ),
            _ => row(name, "failed_frac", "unresolved", "missing".to_owned()),
        }
        let digest = |w: &Value| w.get("digest").and_then(Value::as_str).map(str::to_owned);
        let (da, db) = (digest(a), digest(b));
        row(
            name,
            "digest",
            if da == db { "ok" } else { "regressed" },
            format!("a = {da:?}, b = {db:?}"),
        );
        for metric in PER_LAYER.iter().filter(|m| m.unit == "count") {
            let path = ["per_layer", metric.name, "value"];
            if let (Some(ca), Some(cb)) = (number(a, &path), number(b, &path)) {
                let status = if ca == cb { "ok" } else { "regressed" };
                row(
                    name,
                    metric.name,
                    status,
                    format!("a = {ca}, b = {cb}, counts must repeat"),
                );
            }
        }
    }
    println!("{regressed} regressed");
    Ok(regressed == 0)
}
