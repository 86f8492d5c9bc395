//! Shared run-report types, artifact output, and report digests.
//!
//! FedTrans and every baseline produce the same telemetry so the bench
//! harness can print Table 2 rows and Fig. 6/7 series uniformly. The
//! scenario harness additionally serializes these reports to JSON and
//! compares runs by [`report_digest`].
//!
//! # Artifact paths
//!
//! JSON artifacts are anchored at the **workspace root** (like
//! `bench_results/table1.json`), not the process working directory:
//! `cargo run -p <crate>` and `cargo test` set different CWDs, and
//! CWD-relative output used to scatter reports across crate
//! directories. [`artifact_dir`] resolves the root at compile time and
//! honours the `FT_ARTIFACT_DIR` environment variable as an override.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::metrics::BoxStats;

/// Per-round telemetry common to all methods.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: u32,
    /// Mean training loss over this round's participants.
    pub mean_loss: f32,
    /// Number of participants that trained.
    pub participants: usize,
    /// Size of the model suite after this round (1 for single-model
    /// methods).
    pub num_models: usize,
    /// Whether the method changed its model suite this round
    /// (FedTrans transformation; always false for baselines).
    pub transformed: bool,
    /// Cumulative training cost in PMACs.
    pub cumulative_pmacs: f64,
    /// Synchronous round completion time (slowest participant), seconds.
    pub round_time_s: f64,
}

/// Full-run outcome: everything the paper's tables and figures need.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-round telemetry.
    pub rounds: Vec<RoundReport>,
    /// Five-number summary of final per-client accuracy.
    pub final_accuracy: BoxStats,
    /// Final accuracy of every client on its assigned/compatible model.
    pub per_client_accuracy: Vec<f32>,
    /// Which model (suite index / width level) each client evaluated on.
    pub per_client_model: Vec<usize>,
    /// Total training cost in PMACs.
    pub pmacs: f64,
    /// Total network volume in MB.
    pub network_mb: f64,
    /// Server storage footprint in MB.
    pub storage_mb: f64,
    /// Architecture summary of every model/level.
    pub model_archs: Vec<String>,
    /// Forward MACs per sample of every model/level.
    pub model_macs: Vec<u64>,
    /// `(cumulative PMACs, mean accuracy)` checkpoints (Fig. 7 series).
    pub accuracy_curve: Vec<(f64, f32)>,
    /// Every participant-round completion time, seconds (Table 6).
    pub client_times_s: Vec<f32>,
}

/// Parses an `FT_ARTIFACT_DIR` value: any non-empty path. `None` (the
/// empty value) is not a recognised form ([`artifact_dir`] then uses
/// the default; `ft-run` and `ft-exp` refuse to start).
pub fn parse_artifact_dir(value: &str) -> Option<PathBuf> {
    (!value.is_empty()).then(|| PathBuf::from(value))
}

/// The directory JSON artifacts are written to: `FT_ARTIFACT_DIR` if
/// set, otherwise `<workspace root>/bench_results`.
pub fn artifact_dir() -> PathBuf {
    #[expect(clippy::disallowed_methods, reason = "outside every report")]
    let env = std::env::var("FT_ARTIFACT_DIR").ok();
    resolve_artifact_dir(env.as_deref())
}

/// [`artifact_dir`] for the variable's value (`None`: unset).
fn resolve_artifact_dir(value: Option<&str>) -> PathBuf {
    value.and_then(parse_artifact_dir).unwrap_or_else(|| {
        // crates/fedsim/../.. is the workspace root at compile time; the
        // sources do not move between compile and run in this repo's
        // workflows (CI runs from a checkout, local runs from the tree).
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results")
    })
}

/// Writes a pretty-printed JSON artifact as `<artifact_dir>/<name>.json`
/// and returns the path written.
///
/// # Errors
///
/// When the directory cannot be created or the file written (or the
/// value does not serialize); the message names the path.
pub fn dump_json(name: &str, value: &impl Serialize) -> std::io::Result<PathBuf> {
    let path = artifact_dir().join(format!("{name}.json"));
    let named = |e: &dyn std::fmt::Display| {
        std::io::Error::other(format!("writing {}: {e}", path.display()))
    };
    let json = serde_json::to_string_pretty(value).map_err(|e| named(&e))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| named(&e))?;
    }
    std::fs::write(&path, json).map_err(|e| named(&e))?;
    Ok(path)
}

/// FNV-1a 64-bit hash of a byte string, rendered as 16 hex digits.
///
/// Used for golden-digest comparison of scenario reports: collision
/// resistance against adversaries is irrelevant here, bit-stability
/// across platforms and toolchains is what matters.
pub fn fnv1a64(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Digest of a run report: FNV-1a over its compact canonical JSON.
///
/// Two runs digest equal iff their reports serialize byte-identically —
/// the property the checkpoint/resume tests and the CI golden gate
/// assert.
#[expect(
    clippy::missing_panics_doc,
    reason = "an in-memory struct with no map keys always serializes"
)]
pub fn report_digest(report: &RunReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    fnv1a64(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::box_stats;

    fn sample_report() -> RunReport {
        RunReport {
            rounds: vec![RoundReport {
                round: 0,
                mean_loss: 1.25,
                participants: 4,
                num_models: 1,
                transformed: false,
                cumulative_pmacs: 0.5,
                round_time_s: 2.0,
            }],
            final_accuracy: box_stats(&[0.25, 0.5, 0.75]),
            per_client_accuracy: vec![0.25, 0.5, 0.75],
            per_client_model: vec![0, 0, 0],
            pmacs: 0.5,
            network_mb: 1.5,
            storage_mb: 0.25,
            model_archs: vec!["dense(8)+head(2)".to_owned()],
            model_macs: vec![1000],
            accuracy_curve: vec![(0.5, 0.5)],
            client_times_s: vec![1.0, 2.0],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = sample_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(report_digest(&back), report_digest(&r));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let r = sample_report();
        let d1 = report_digest(&r);
        assert_eq!(d1.len(), 16);
        assert_eq!(d1, report_digest(&r.clone()));
        let mut changed = r;
        changed.pmacs += 1.0;
        assert_ne!(d1, report_digest(&changed));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), "cbf29ce484222325");
        assert_eq!(fnv1a64(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn artifact_dir_honours_override() {
        // Unset or empty: the workspace root's `bench_results`, anchored
        // at compile time, not at the working directory.
        for unset in [None, Some("")] {
            let dir = resolve_artifact_dir(unset);
            assert!(dir.is_absolute(), "{dir:?}");
            assert!(dir.ends_with("bench_results"), "{dir:?}");
            assert!(dir.with_file_name("Cargo.toml").exists(), "{dir:?}");
        }
        for set in ["/tmp/ft-artifacts", "relative/dir"] {
            assert_eq!(resolve_artifact_dir(Some(set)), PathBuf::from(set));
        }
    }
}
