//! Golden digests under every kernel tier, in one process.
//!
//! The CI scenario legs run the auto-detected tier and the portable one
//! (`FT_TENSOR_SIMD=0`), so on an AVX-512 host the AVX2 register tile
//! would otherwise never reproduce a golden end to end. This file
//! forces each tier `ft_tensor::simd::available()` lists through
//! `simd::force` — a process-global switch that reaches the pool
//! workers too, which is why it lives in a test binary of its own —
//! and replays a conv and a dense canned scenario against
//! `goldens.json`.

use ft_harness::{registry, run_scenario, RunOptions};
use ft_tensor::simd;

#[test]
fn conv_and_dense_goldens_hold_on_every_kernel_tier() {
    let goldens = registry::load_goldens().expect("goldens.json committed");
    for tier in simd::available() {
        simd::force(Some(tier));
        for name in ["conv-small", "iid-small"] {
            let scenario = registry::find(name).expect("canned scenario");
            let outcome = run_scenario(
                &scenario,
                &RunOptions {
                    quick: true,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{name} on {tier:?}: {e}"));
            assert_eq!(
                outcome.digest.as_ref(),
                goldens.get(name),
                "{name}: the digest on {tier:?} drifted from goldens.json"
            );
        }
    }
    simd::force(None);
}
