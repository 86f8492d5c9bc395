//! The GEMM cache-block sizes: two constants.
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
//! results, which a `matmul` unit test pins by sweeping block sizes
//! through the GEMM core.

use crate::matmul::MR;

/// Depth of one k-block: the packed `KC × NR` B slab every row tile of
/// a block re-reads stays L1-resident in half of L1d, next to one
/// tile's `MR` rows of A (48 KiB / 2 / (`NR` × 4 B) = 192).
pub const KC: usize = 192;
/// Rows of A per block: the `MC × KC` block the register tile reads in
/// place stays L2-resident in a quarter of L2 while every column
/// window streams past it (2 MiB / 4 / (`KC` × 4 B) = 682, rounded
/// down to a multiple of `MR`).
pub const MC: usize = 680;

const _: () = assert!(KC.is_multiple_of(8) && MC.is_multiple_of(MR));

/// Where the block sizes come from: the [`MC`] / [`KC`] constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneSource {
    /// The constants.
    Constant,
}

impl TuneSource {
    /// Stable lowercase name used in benchmark headers.
    pub fn name(self) -> &'static str {
        "constant"
    }
}

/// The GEMM block sizes in effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    /// Rows of A per L2-resident block (multiple of `MR`).
    pub mc: usize,
    /// Depth of one k-block; the B slab is `kc × NR` (multiple of 8).
    pub kc: usize,
    /// Provenance, printed in benchmark headers.
    pub source: TuneSource,
}

/// The block sizes the GEMM core uses: [`MC`] / [`KC`], as the
/// benchmark header and `ft-run` print them.
pub fn active() -> TuneConfig {
    TuneConfig {
        mc: MC,
        kc: KC,
        source: TuneSource::Constant,
    }
}
