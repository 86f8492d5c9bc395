//! Golden digests under every kernel tier, in one process.
//!
//! This file runs each tier `ft_tensor::simd::available()` lists in an
//! `ft_tensor::Settings` scope (which reaches the pool workers too) and
//! replays a conv and a dense canned scenario against
//! `goldens.json`, so an AVX2 register tile is exercised end to end even
//! on an AVX-512 host. `determinism_matrix.rs` runs every canned
//! scenario on every tier.

#[expect(dead_code, reason = "no kill/resume cell here")]
#[path = "common/matrix.rs"]
mod matrix;

use ft_tensor::simd;

#[test]
fn conv_and_dense_goldens_hold_on_every_kernel_tier() {
    matrix::pin_pool();
    let mut matrix = matrix::Matrix::new();
    for tier in simd::available() {
        for name in ["conv-small", "iid-small"] {
            matrix.run(name, Some(tier), 4);
        }
    }
    matrix.finish();
}
