//! Cross-thread-count determinism of the parallel client engine.
//!
//! The engine's contract (`ft_fedsim::exec`) is that `FT_CLIENT_THREADS`
//! changes wall-clock only, never a single report byte. These tests run
//! real canned scenarios — one skew-heavy, one fault-heavy, and the
//! byzantine pair behind a streaming sink and behind the buffering
//! trimmed mean, whose order-statistics kernel fans out over the same
//! pool — at thread widths 1 and 4 and require identical digests, with
//! and without a kill/resume in the middle of the round sequence, and
//! additionally pin the digests to the committed goldens so a
//! rescheduling bug cannot hide behind "identical but both wrong". The
//! million-client scenario is replayed across lane counts of the
//! pipelined fold.
//!
//! This file is its own process, so it pins the tensor pool to 4
//! threads (`FT_TENSOR_THREADS`) before first pool use — on a
//! single-core CI runner the engine would otherwise fall back to the
//! serial path and the comparison would be vacuous.

use std::path::PathBuf;
use std::sync::{Mutex, Once, OnceLock};

use ft_harness::{registry, run_scenario, RunOptions};

/// Serializes tests that flip `FT_CLIENT_THREADS` (process-global).
fn env_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Forces a 3-worker pool before anything touches it.
fn pinned_pool() {
    static PIN: Once = Once::new();
    PIN.call_once(|| {
        std::env::set_var("FT_TENSOR_THREADS", "4");
        assert_eq!(ft_tensor::pool::max_parallelism(), 4);
    });
}

fn digest_with_threads(scenario: &str, threads: &str, opts: &RunOptions) -> Option<String> {
    pinned_pool();
    std::env::set_var("FT_CLIENT_THREADS", threads);
    let scenario = registry::find(scenario).expect("canned scenario");
    let outcome = run_scenario(&scenario, opts).expect("scenario runs");
    std::env::remove_var("FT_CLIENT_THREADS");
    outcome.digest
}

const SCENARIOS: [&str; 4] = [
    "dirichlet-skew",
    "high-dropout",
    "byzantine-signflip",
    "byzantine-trimmed-mean",
];

fn quick() -> RunOptions {
    RunOptions {
        quick: true,
        ..Default::default()
    }
}

#[test]
fn digests_identical_across_client_thread_counts() {
    let _guard = env_lock().lock().unwrap();
    let goldens = registry::load_goldens().expect("goldens.json is committed");
    for scenario in SCENARIOS {
        let serial = digest_with_threads(scenario, "1", &quick()).expect("finished");
        let parallel = digest_with_threads(scenario, "4", &quick()).expect("finished");
        assert_eq!(
            serial, parallel,
            "{scenario}: report must be byte-identical across FT_CLIENT_THREADS"
        );
        assert_eq!(
            Some(&serial),
            goldens.get(scenario),
            "{scenario}: digest must match the committed golden"
        );
    }
}

/// The pipelined fold on the sparse population lands on the golden at
/// every lane count, each under the default window of twice the lanes.
/// The window sweep went with the in-flight override knob; `exec`'s
/// `stream_map_*` tests over `WINDOWS = [1, 2, 3, 7, usize::MAX]`
/// remain the window-invariance pin.
#[test]
fn million_client_fold_is_identical_at_every_width_and_window() {
    let _guard = env_lock().lock().unwrap();
    let goldens = registry::load_goldens().expect("goldens.json is committed");
    let scenario = "large-population-1m";
    for threads in ["1", "2", "4"] {
        let digest = digest_with_threads(scenario, threads, &quick());
        assert_eq!(
            digest.as_ref(),
            goldens.get(scenario),
            "{scenario}: FT_CLIENT_THREADS={threads}"
        );
    }
}

#[test]
fn kill_resume_mid_sequence_is_thread_count_independent() {
    let _guard = env_lock().lock().unwrap();
    let goldens = registry::load_goldens().expect("goldens.json is committed");
    for scenario in SCENARIOS {
        let path: PathBuf = std::env::temp_dir().join(format!(
            "ft-client-par-{scenario}-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // Run the first rounds wide, kill, then resume serial: the
        // stitched-together report must still match the golden, which
        // proves the per-client RNG derivation is captured by the
        // checkpoint (it is stateless in (seed, round, client)) rather
        // than by any thread-local state.
        let interrupted = digest_with_threads(
            scenario,
            "4",
            &RunOptions {
                quick: true,
                checkpoint_path: Some(path.clone()),
                stop_after: Some(2),
                ..Default::default()
            },
        );
        assert!(interrupted.is_none(), "{scenario}: run must stop early");
        assert!(path.exists(), "{scenario}: checkpoint must exist");
        let resumed = digest_with_threads(
            scenario,
            "1",
            &RunOptions {
                quick: true,
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            },
        )
        .expect("resumed run finishes");
        assert_eq!(
            Some(&resumed),
            goldens.get(scenario),
            "{scenario}: resumed cross-thread-count digest must match the golden"
        );
        let _ = std::fs::remove_file(&path);
    }
}
