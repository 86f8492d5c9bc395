//! Runs the benchmark in `--quick` mode and holds it to `BENCHMARK.json`:
//! every name there appears in the output with its unit, the names and
//! counts stay within the contract's limits, and two runs of the same
//! inputs agree on digests and counts. One test makes all the runs, so
//! they do not overlap.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::Value;

const EXE: &str = env!("CARGO_BIN_EXE_ft-benchmark");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_owned()
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary starts")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `(name, unit)` of every metric under `key`, checked on the way.
fn declared(spec: &Value, key: &str, cap: usize) -> Vec<(String, String)> {
    let metrics = array(spec, key);
    assert!(
        !metrics.is_empty() && metrics.len() <= cap,
        "{key}: {}",
        metrics.len()
    );
    metrics
        .iter()
        .map(|m| {
            let name = text(m, "name");
            assert!(well_formed(name), "metric name `{name}`");
            assert!(matches!(text(m, "better"), "lower" | "higher"));
            (name.to_owned(), text(m, "unit").to_owned())
        })
        .collect()
}

/// Checks a run's result line: its shape, and that it carries exactly the
/// metrics of `expect`, each with its unit and a finite value.
fn result_line(output: &Output, expect: &[(String, String)]) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "run failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result = serde_json::parse_value(line).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{line}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let got: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: BTreeSet<&str> = expect.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want, "the line carries exactly the declared metrics");
    for (name, unit) in expect {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .expect("declared");
        assert_eq!(text(m, "unit"), unit, "unit of {name}");
        let value = m.get("value").and_then(Value::as_f64).expect("a number");
        assert!(value.is_finite(), "{name} = {value}");
        // The human-readable part names it too.
        assert!(
            stdout.contains(&format!("  {name} ")),
            "{name} is not printed"
        );
    }
}

#[test]
fn quick_run_matches_benchmark_json() {
    let spec_text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = serde_json::parse_value(&spec_text).expect("BENCHMARK.json parses");
    let workloads = array(&spec, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert!(well_formed(text(w, "name")));
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    let end_to_end = declared(&spec, "end_to_end", 16);
    let per_layer = declared(&spec, "per_layer", 128);
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for m in array(&spec, "end_to_end") {
        let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let all: BTreeSet<&str> = workloads
        .iter()
        .map(|w| text(w, "name"))
        .chain(end_to_end.iter().chain(&per_layer).map(|(n, _)| n.as_str()))
        .collect();
    assert_eq!(
        all.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "a name is used twice"
    );

    for w in workloads {
        let name = text(w, "name");
        let common = ["run", "--quick", "--repeats", "1", "--workload", name];
        let with = |extra: &[&str]| run(&[&common[..], extra].concat());
        result_line(&with(&["--trace", "0", "--out", "a.json"]), &end_to_end);
        result_line(&with(&["--trace", "1", "--out", "b.json"]), &per_layer);
        // The same inputs twice: every digest and count repeats, so
        // `compare` finds nothing regressed.
        let compared = run(&["compare", "b.json", "b.json"]);
        let table = String::from_utf8_lossy(&compared.stdout);
        assert!(
            compared.status.success() && table.contains("0 regressed"),
            "{table}"
        );
        let digest = |file: &str| {
            let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
            let v = serde_json::parse_value(&std::fs::read_to_string(path).expect("result file"))
                .expect("result file parses");
            text(&array(&v, "workloads")[0], "digest").to_owned()
        };
        assert_eq!(
            digest("a.json"),
            digest("b.json"),
            "{name} is not deterministic"
        );
    }
}

#[test]
fn child_refuses_a_stray_ft_variable() {
    let out = Command::new(EXE)
        .args([
            "child",
            "none.json",
            "fedtrans-dense",
            "0",
            "unknown",
            "1",
            "0",
        ])
        .env("FT_CLIENT_THREADS", "2")
        .env("FT_TENSOR_THREADS", "2")
        .env("FT_TENSOR_SIMD", "fma")
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("FT_TENSOR_SIMD"), "{stderr}");
}
