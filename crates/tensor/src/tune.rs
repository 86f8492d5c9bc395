//! The GEMM cache-block sizes: two constants and a test hook.
//!
//! The micro-kernel's register tile (`MR × NR`) is fixed, and so are
//! the two outer block sizes, derived for the benchmark host (L1d
//! 48 KiB, L2 2 MiB; docs/ARCHITECTURE.md, "Verdicts", says why they
//! are no longer probed).
//!
//! # Digest neutrality
//!
//! Block sizes are *digest-neutral by construction*: blocking decides
//! which `(i, j, k-range)` sub-problems run when, never the arithmetic
//! inside one. Every output element still accumulates its dot product
//! in ascending-`k` order with a single `f32` accumulator — a k-block
//! boundary merely round-trips that accumulator through an exact `f32`
//! store in `out` — so any `(mc, kc)` choice produces bit-identical
//! results, which `proptest_simd` pins by sweeping tile sizes through
//! [`force`].

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::matmul::MR;

/// Hard upper bound on `kc`: caps a packed B slab (`KC_MAX × NR × 4`
/// bytes = 64 KiB) whatever [`force`] asks for.
pub const KC_MAX: usize = 512;
/// Depth of one k-block: the packed `KC × NR` B slab every row tile of
/// a block re-reads stays L1-resident in half of L1d, next to one
/// tile's `MR` rows of A (48 KiB / 2 / (`NR` × 4 B) = 192).
pub const KC: usize = 192;
/// Rows of A per block: the `MC × KC` block the register tile reads in
/// place stays L2-resident in a quarter of L2 while every column
/// window streams past it (2 MiB / 4 / (`KC` × 4 B) = 682, rounded
/// down to a multiple of `MR`).
pub const MC: usize = 680;

const _: () = assert!(KC <= KC_MAX && KC.is_multiple_of(8) && MC.is_multiple_of(MR));

/// Where the active tile configuration came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneSource {
    /// The [`MC`] / [`KC`] constants.
    Constant,
    /// A [`force`] override.
    Forced,
}

impl TuneSource {
    /// Stable lowercase name used in benchmark headers.
    pub fn name(self) -> &'static str {
        match self {
            TuneSource::Constant => "constant",
            TuneSource::Forced => "forced",
        }
    }
}

/// The GEMM block sizes in effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    /// Rows of A per L2-resident block (multiple of `MR`).
    pub mc: usize,
    /// Depth of one k-block; the B slab is `kc × NR` (multiple of 8,
    /// at most [`KC_MAX`]).
    pub kc: usize,
    /// Provenance, printed in benchmark headers.
    pub source: TuneSource,
}

/// Test override slots: 0 = unforced.
static FORCED_MC: AtomicUsize = AtomicUsize::new(0);
static FORCED_KC: AtomicUsize = AtomicUsize::new(0);

/// Overrides the tile configuration for subsequent [`active`] calls
/// (`None` restores the constants) — the test hook `proptest_simd`
/// sweeps `(mc, kc)` through. `mc` rounds down to a multiple of `MR`
/// and `kc` to a multiple of 8 within `8..=KC_MAX`, the bounds the
/// GEMM core needs.
pub fn force(cfg: Option<(usize, usize)>) {
    let (mc, kc) = cfg.map_or((0, 0), |(mc, kc)| {
        ((mc / MR * MR).max(MR), (kc / 8 * 8).clamp(8, KC_MAX))
    });
    FORCED_MC.store(mc, Ordering::SeqCst);
    FORCED_KC.store(kc, Ordering::SeqCst);
}

/// The tile configuration the GEMM core uses for this call: the
/// [`force`] override when set, otherwise [`MC`] / [`KC`].
pub fn active() -> TuneConfig {
    let (mc, kc) = (
        FORCED_MC.load(Ordering::SeqCst),
        FORCED_KC.load(Ordering::SeqCst),
    );
    // A concurrent `force(None)` may have cleared only one slot yet.
    let (mc, kc, source) = if mc == 0 || kc == 0 {
        (MC, KC, TuneSource::Constant)
    } else {
        (mc, kc, TuneSource::Forced)
    };
    TuneConfig { mc, kc, source }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_overrides_clamped_then_restores() {
        force(Some((100, 100_000)));
        let forced = (active().mc, active().kc, active().source);
        force(Some((66, 3)));
        let rounded = (active().mc, active().kc);
        force(None);
        assert_eq!(forced, (100, KC_MAX, TuneSource::Forced));
        assert_eq!(rounded, (64, 8));
        assert_eq!((active().mc, active().kc), (MC, KC));
        assert_eq!(active().source.name(), "constant");
    }
}
