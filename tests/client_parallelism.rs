//! Cross-thread-count determinism of the parallel client engine.
//!
//! The engine's contract (`ft_fedsim::exec`) is that `FT_CLIENT_THREADS`
//! changes wall-clock only, never a single report byte. These tests run
//! real canned scenarios — one skew-heavy, one fault-heavy, and the
//! byzantine pair behind a streaming sink and behind the buffering
//! trimmed mean, whose order-statistics kernel fans out over the same
//! pool — at widths 1 and 4, with and without a kill/resume in the
//! middle of the round sequence, and pin every run to its committed
//! golden, so a rescheduling bug cannot hide behind "identical but both
//! wrong". The million-client scenario is replayed across lane counts of
//! the pipelined fold. `determinism_matrix.rs` runs these cells, and the
//! rest, on every kernel tier.

#[path = "common/matrix.rs"]
mod matrix;

use matrix::{pin_pool, Matrix};

const SCENARIOS: [&str; 4] = [
    "dirichlet-skew",
    "high-dropout",
    "byzantine-signflip",
    "byzantine-trimmed-mean",
];

/// A matrix on a pool pinned before first use; the lock it takes
/// serializes the pinning too.
fn pinned() -> Matrix {
    let matrix = Matrix::new();
    pin_pool();
    matrix
}

#[test]
fn digests_identical_across_client_thread_counts() {
    let mut matrix = pinned();
    for scenario in SCENARIOS {
        for threads in [1, 4] {
            matrix.run(scenario, None, threads);
        }
    }
    matrix.finish();
}

/// The pipelined fold on the sparse population lands on the golden at
/// every lane count, each under the default window of twice the lanes.
/// `exec`'s `stream_map_*` tests over `WINDOWS = [1, 2, 3, 7,
/// usize::MAX]` are the window-invariance pin.
#[test]
fn million_client_fold_is_identical_at_every_width_and_window() {
    let mut matrix = pinned();
    for threads in [1, 2, 4] {
        matrix.run("large-population-1m", None, threads);
    }
    matrix.finish();
}

/// Run the first rounds wide, kill, then resume serial: the stitched
/// report must still match the golden, which proves the per-client RNG
/// derivation is captured by the checkpoint (it is stateless in (seed,
/// round, client)) rather than by any thread-local state.
#[test]
fn kill_resume_mid_sequence_is_thread_count_independent() {
    let mut matrix = pinned();
    for scenario in SCENARIOS {
        matrix.kill_and_resume(scenario, 2, None);
    }
    matrix.finish();
}
