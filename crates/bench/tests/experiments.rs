//! `ft-exp` end to end: every paper artifact's stdout is pinned by a
//! digest at `ci` scale, and the binary is as strict about its name and
//! environment as `ft-run`.

use std::path::Path;
use std::process::{Command, Output};

use ft_bench::experiments::EXPERIMENTS;
use ft_fedsim::report::fnv1a64;

/// `(arguments, fnv1a64 of stdout, artifact files written)` at
/// `FEDTRANS_SCALE=ci`. `table2` and `fig7` run their FEMNIST block; the
/// four-dataset runs (20 s each) are diffed by hand against the parent.
/// A deliberate re-pin copies the digest the failure message prints.
const PINNED: [(&str, &str, usize); 15] = [
    ("table1", "660a81e0e5da972d", 1),
    ("table2 femnist", "9e7f2ef151f07453", 1),
    ("table3", "abf9b15884f52f29", 1),
    ("table4", "5a4bd7f386376a7b", 1),
    ("table5", "57fa32a10c0871c4", 1),
    ("table6", "6472179c8c4fd714", 1),
    ("table7", "c077f5ad129c48e0", 0),
    ("fig1", "69096426d78d1653", 1),
    ("fig2", "4b6e8e7aaef437cf", 1),
    ("fig7 femnist", "c506aa1047b50055", 1),
    ("fig8", "68c10984b7e8943d", 1),
    ("fig9", "e042e4b4019e2302", 1),
    ("ablation", "15662e17cddc4568", 6),
    ("robustness", "d9a760fef70d2daa", 1),
    ("assignment", "ecf9a7647f7922a5", 0),
];

/// `ft-exp <args>` with every inherited `FT_*` and `FEDTRANS_*` variable
/// removed, then `vars` set, writing artifacts under `artifacts`.
#[expect(
    clippy::disallowed_methods,
    reason = "lists the inherited variables to scrub from the child"
)]
fn ft_exp(vars: &[(&str, &str)], args: &str, artifacts: &Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ft-exp"));
    for (name, _) in std::env::vars_os() {
        let name = name.to_string_lossy().into_owned();
        if name.starts_with("FT_") || name.starts_with("FEDTRANS_") {
            cmd.env_remove(name);
        }
    }
    cmd.env("FEDTRANS_SCALE", "ci")
        .env("FT_ARTIFACT_DIR", artifacts)
        .envs(vars.iter().copied())
        .args(args.split_whitespace())
        .output()
        .expect("ft-exp starts")
}

#[test]
fn every_experiment_prints_its_pinned_bytes_and_writes_json_artifacts() {
    let pinned = PINNED.map(|(args, ..)| args.split(' ').next().unwrap_or(args));
    assert_eq!(pinned, EXPERIMENTS.map(|(name, ..)| name), "one pin each");
    for (args, digest, artifacts) in PINNED {
        let unique = format!("ft-exp-{}-{}", std::process::id(), args.replace(' ', "-"));
        let dir = std::env::temp_dir().join(unique);
        let out = ft_exp(&[], args, &dir);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args}: {stderr}");
        let actual = fnv1a64(&out.stdout);
        assert_eq!(
            actual, digest,
            "`ft-exp {args}` moved; its stdout is now:\n{stdout}\ndigest {actual}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir).into_iter().flatten().collect();
        assert_eq!(written.len(), artifacts, "{args}: artifact files");
        for file in written {
            let path = file.expect("artifact entry").path();
            let text = std::fs::read_to_string(&path).expect("artifact reads");
            let parsed: Result<serde_json::Value, _> = serde_json::from_str(&text);
            assert!(parsed.is_ok(), "{}: not JSON", path.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_missing_or_unknown_name_lists_the_table_and_a_bad_environment_stops_the_run() {
    let nowhere = Path::new("/nonexistent");
    // The first column of the table's body.
    let listed = |text: &[u8]| -> Vec<String> {
        let text = String::from_utf8_lossy(text);
        let body = text.lines().skip_while(|l| !l.starts_with("|---")).skip(1);
        body.map(|row| row.split('|').nth(1).unwrap_or("").trim().to_owned())
            .collect()
    };
    let names = EXPERIMENTS.map(|(name, ..)| name.to_owned()).to_vec();
    let bare = ft_exp(&[], "", nowhere);
    assert!(bare.status.success());
    assert_eq!(listed(&bare.stdout), names);

    let unknown = ft_exp(&[], "nosuch", nowhere);
    assert!(!unknown.status.success() && unknown.stdout.is_empty());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("`nosuch`"));
    assert_eq!(listed(&unknown.stderr), names);

    // Each of these ran at `ci` scale on AVX2 without a word before.
    for (name, value) in [
        ("FEDTRANS_SCALE", "cii"),
        ("FT_TENSOR_SIMD", "protable"),
        ("FT_TYPO", "1"),
    ] {
        let out = ft_exp(&[(name, value)], "table3", nowhere);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}={value} was accepted");
        assert!(stderr.contains(name), "{name}={value}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{name}={value} must fail before any work"
        );
    }
}
