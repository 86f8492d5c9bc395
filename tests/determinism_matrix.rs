//! The determinism contract, in one process: a run's report never
//! depends on the kernel tier, the client fan-out width, or a
//! kill/resume between rounds.
//!
//! Every canned scenario is replayed in quick mode against
//! `goldens.json` in each cell of
//!
//! - every tier `simd::available()` lists (forced through `simd::force`)
//!   × `FT_CLIENT_THREADS` ∈ {1, 4} ({1, 2, 4} for `large-population-1m`,
//!   whose pipelined fold has a lane per client thread);
//! - one kill at round `quick_rounds / 2` under 4 client threads and the
//!   auto-detected tier, resumed under 1 client thread and the portable
//!   tier.
//!
//! `exec::client_threads()` reads `FT_CLIENT_THREADS` on every call, so
//! flipping it between runs is enough. The tensor pool is sized once per
//! process: this test pins it to 4 threads unless `FT_TENSOR_THREADS` is
//! already set. `FT_TENSOR_THREADS=1` runs the same matrix with every
//! pool fan-out inline.
//!
//! A failing cell does not stop the sweep: the test fails once, naming
//! every (scenario, setting) that drifted, errored or panicked. The
//! cells live in `common/matrix.rs`.

#[path = "common/matrix.rs"]
mod matrix;

use ft_harness::registry;
use ft_tensor::simd::{self, Kernel};

#[test]
fn every_golden_holds_in_every_cell() {
    matrix::pin_pool();
    let mut matrix = matrix::Matrix::new();
    for scenario in registry::canned() {
        let name = &scenario.name;
        let widths: &[usize] = if name == "large-population-1m" {
            &[1, 2, 4]
        } else {
            &[1, 4]
        };
        for tier in simd::available() {
            for &threads in widths {
                matrix.run(name, Some(tier), threads);
            }
        }
        matrix.kill_and_resume(name, scenario.quick_rounds / 2, Some(Kernel::Portable));
    }
    matrix.finish();
}
