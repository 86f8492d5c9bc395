//! Runtime-dispatched SIMD tiers: intrinsic register tiles for the
//! GEMM core, and AVX2 builds of the fused element-wise loops.
//!
//! # Dispatch
//!
//! The kernel tier is decided once per process by [`active`]:
//!
//! 1. `FT_TENSOR_SIMD=0` (or `off`, `portable`) forces the portable
//!    fallback (the plain Rust loops, exactly the pre-SIMD code path).
//! 2. Otherwise (unset, or `1`/`on`/`auto`) the best tier the CPU has:
//!    [`Kernel::Avx512`] where `is_x86_feature_detected!` reports
//!    `avx512f` (and `avx2`), [`Kernel::Avx2`] where it reports `avx2`
//!    only, [`Kernel::Portable`] everywhere else.
//!
//! The AVX-512 tier differs from the AVX2 tier in the GEMM register
//! tile only: the fused element-wise kernels are bandwidth-bound and
//! run their AVX2 build under it. Tests reach each tier through
//! [`force`]; there is no environment value that picks one.
//!
//! The element-wise kernels have no intrinsic copies. Each loop is
//! written once, in [`crate::fused`] or [`crate::order_stats`] (whose
//! lanes are 32 adjacent coordinates), and `elementwise` runs it either
//! as is (the portable tier) or inside a function compiled with
//! `target_feature(enable = "avx2")`, where the compiler vectorises the
//! same source eight lanes wide. Rust never fuses a `mul` and an `add`
//! into one FMA, so both builds perform the same operations.
//!
//! There is no FMA tier: contracting `mul`+`add` into one rounding
//! would move every digest.
//!
//! # Why the SIMD tiers keep results bit-identical
//!
//! Every SIMD kernel performs exactly the scalar kernels' arithmetic —
//! the same IEEE-754 single-precision `mul`/`add`/`sub`/`div`/`sqrt`
//! operations, on the same operands, in the same per-element order —
//! merely eight or sixteen lanes at a time. Vectorizing runs across
//! *independent* output elements (the `NR` column dimension in GEMM,
//! disjoint indices element-wise), so no accumulation order changes and
//! no reduction is split: each output element keeps its single
//! accumulator and ascending-`k` order. `x86` vector `mulps`/`addps`
//! lanes round exactly like their scalar `mulss`/`addss` counterparts
//! at any vector width, so the results are 0 ULP from the portable
//! fallback — pinned by `crates/tensor/tests/proptest_simd.rs` and by
//! the workspace's `tests/determinism_matrix.rs` (every golden digest
//! under every tier).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A micro-kernel implementation tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Plain Rust loops — the reference semantics on every platform.
    Portable,
    /// The AVX2 GEMM register tile and AVX2 builds of the element-wise
    /// loops, bit-identical to [`Kernel::Portable`].
    Avx2,
    /// The AVX-512 GEMM register tile (the element-wise loops run their
    /// AVX2 build), bit-identical to [`Kernel::Portable`].
    Avx512,
}

impl Kernel {
    /// Stable lowercase name used in bench emitters and logs.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        }
    }
}

/// Parses an `FT_TENSOR_SIMD` value: `Some(false)` forces the portable
/// fallback, `Some(true)` asks for CPU auto-detection, `None` is not a
/// recognised form ([`active`] then auto-detects; `ft-run` refuses to
/// start).
pub fn parse_env(value: &str) -> Option<bool> {
    match value.trim() {
        "0" | "off" | "portable" => Some(false),
        "1" | "on" | "auto" => Some(true),
        _ => None,
    }
}

/// Pure decision function behind [`active`], separated so the env/CPU
/// matrix is unit-testable without touching process state: `best` is
/// the best tier the CPU has.
fn decide(env: Option<&str>, best: Kernel) -> Kernel {
    if env.and_then(parse_env).unwrap_or(true) {
        best
    } else {
        Kernel::Portable
    }
}

/// Whether this host's CPU can execute `k` at all (independent of the
/// `FT_TENSOR_SIMD` setting).
pub fn supported(k: Kernel) -> bool {
    match k {
        Kernel::Portable => true,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        // The tier runs the element-wise loops' AVX2 build.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// Every kernel tier this host can execute, portable first and best
/// last. Hardware capability only — `FT_TENSOR_SIMD` does not narrow
/// this list, so equivalence tests can always compare the tiers side
/// by side.
pub fn available() -> Vec<Kernel> {
    [Kernel::Portable, Kernel::Avx2, Kernel::Avx512]
        .into_iter()
        .filter(|&k| supported(k))
        .collect()
}

/// The env- and CPU-derived kernel choice, computed once per process.
fn detected() -> Kernel {
    static DETECTED: OnceLock<Kernel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let env = std::env::var("FT_TENSOR_SIMD").ok();
        let best = available().last().copied().unwrap_or(Kernel::Portable);
        decide(env.as_deref(), best)
    })
}

/// Test/bench override: 0 = none, otherwise `Kernel as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Overrides the kernel tier for subsequent calls (`None` restores
/// the `FT_TENSOR_SIMD`/CPU auto-detection). A bench/test hook:
/// production code never calls it, and callers must not flip it while
/// kernels are running on other threads.
///
/// # Panics
///
/// Panics when `k` is a tier this host's CPU cannot execute
/// ([`supported`] is false) — forcing it would be undefined behavior.
pub fn force(k: Option<Kernel>) {
    let v = match k {
        None => 0,
        Some(k) => {
            assert!(
                supported(k),
                "cannot force {:?}: not supported by this host's CPU",
                k
            );
            k as u8 + 1
        }
    };
    FORCED.store(v, Ordering::SeqCst);
}

/// The kernel tier every dispatch site uses for this call.
pub fn active() -> Kernel {
    match FORCED.load(Ordering::SeqCst) {
        1 => Kernel::Portable,
        2 => Kernel::Avx2,
        3 => Kernel::Avx512,
        _ => detected(),
    }
}

/// Runs `f` on the active tier: compiled for AVX2 on the AVX2 and
/// AVX-512 tiers, as portable code otherwise. `f` must be an
/// element-wise loop whose lanes are independent IEEE operations with
/// no FMA contraction; such a loop rounds the same at any vector width,
/// so both builds give the same bits.
///
/// `f` is generic, so each closure gets its own trampoline instance,
/// but its body is compiled in the AVX2 context only if the compiler
/// inlines it there. Nothing guarantees that for a large body: the
/// instance can be a bare jump into the closure's portable build. Every
/// caller therefore marks its closure `#[inline(always)]` (and every
/// helper the closure calls), and the emitted assembly of each instance
/// is checked for `ymm` registers. Through a `&dyn` the body would
/// never be inlined.
pub(crate) fn elementwise(f: impl FnOnce()) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 | Kernel::Avx512 => {
            // SAFETY: `active` only returns tiers `supported` reports,
            // and both of these need AVX2.
            unsafe { on_avx2(f) }
        }
        _ => f(),
    }
}

/// The AVX2 trampoline behind [`elementwise`]: an AVX2-enabled function
/// that calls `f`, so the compiler may vectorise an inlined `f` with
/// `ymm` registers.
///
/// # Safety
///
/// The caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn on_avx2(f: impl FnOnce()) {
    f();
}

/// The intrinsic AVX2 and AVX-512 GEMM register tiles. Each function is
/// `unsafe` because of the `target_feature` contract — the caller must
/// have verified the feature, which every dispatch site does by
/// construction ([`active`] only returns a tier [`supported`] reports
/// true for) — and because they read their operands through raw
/// pointers whose extents the caller checks.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use std::arch::x86_64::*;

    use crate::matmul::{MR, NR};

    /// AVX2 GEMM register tile: `c[r][j] = (load ? c[r][j] : +0.0) +
    /// Σ_p a[r][p·a_step] · b[p·b_step + j]`, ascending `p`, one `mul` +
    /// one `add` per term — the portable tile's arithmetic exactly,
    /// eight `j` lanes per instruction. Sixteen `__m256` accumulators
    /// would fill the whole register file, so the `MR × NR` tile runs as
    /// 4 × 16 blocks of eight independent accumulators each (two
    /// `__m256` per row), one k-sweep per block. Blocks that start at or
    /// past column `jw` are skipped (an edge tile's dead lanes); the
    /// caller drops the last block's lanes past `jw`. `a[r]` points at
    /// row `r` of A in place (`a_step` = 1 row-major, the stored row
    /// length column-major); `b` at a packed slab (`b_step` = `NR`) or at
    /// B in place (`b_step` = its row length); `c` holds the tile's
    /// output rows, in the product or in a local edge buffer.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support, and for every
    /// `p < kc`, `r < MR`, `j < NR` the elements `a[r] + p·a_step` and
    /// `b + p·b_step + j` must be readable.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_tile_avx2(
        a: [*const f32; MR],
        a_step: usize,
        b: *const f32,
        b_step: usize,
        c: &mut [&mut [f32; NR]; MR],
        kc: usize,
        load: bool,
        jw: usize,
    ) {
        const { assert!(MR.is_multiple_of(4) && NR.is_multiple_of(16)) };
        for rb in (0..MR).step_by(4) {
            for cb in (0..jw.min(NR)).step_by(16) {
                let mut acc = [[_mm256_setzero_ps(); 2]; 4];
                if load {
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let row = c[rb + r].as_ptr();
                        // SAFETY: cb + 16 ≤ NR, so both vectors lie
                        // inside the NR-element c row.
                        unsafe {
                            accr[0] = _mm256_loadu_ps(row.add(cb));
                            accr[1] = _mm256_loadu_ps(row.add(cb + 8));
                        }
                    }
                }
                for p in 0..kc {
                    // SAFETY: p < kc and cb + 16 ≤ NR, so b + p·b_step +
                    // cb..cb + 16 is readable (the caller's contract).
                    let (b0, b1) = unsafe {
                        let row = b.add(p * b_step + cb);
                        (_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8)))
                    };
                    for (r, accr) in acc.iter_mut().enumerate() {
                        // SAFETY: p < kc, so a[rb + r] + p·a_step is
                        // readable (the caller's contract).
                        let av = unsafe { _mm256_set1_ps(*a[rb + r].add(p * a_step)) };
                        accr[0] = _mm256_add_ps(accr[0], _mm256_mul_ps(av, b0));
                        accr[1] = _mm256_add_ps(accr[1], _mm256_mul_ps(av, b1));
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let row = c[rb + r].as_mut_ptr();
                    // SAFETY: cb + 16 ≤ NR, so both vectors lie inside
                    // the NR-element c row.
                    unsafe {
                        _mm256_storeu_ps(row.add(cb), accr[0]);
                        _mm256_storeu_ps(row.add(cb + 8), accr[1]);
                    }
                }
            }
        }
    }

    /// Width of one `__m512` in `f32` lanes.
    const LANES512: usize = 16;

    /// AVX-512 GEMM register tile: the same sums as
    /// [`gemm_tile_avx2`], sixteen `j` lanes per instruction, over the
    /// first `V · 16` columns of the tile. `V = NR / 16` holds the whole
    /// `MR × NR` tile in 8 independent `__m512` accumulators through one
    /// k-sweep; `V = 1` computes a window at most 16 wide (`dWᵀ` of a
    /// 16-channel conv layer) in 4, at the same rate per kept lane,
    /// instead of computing and dropping 16 dead lanes. Lanes past
    /// `V · 16` are neither read nor written. Per lane a 512-bit
    /// `mulps`/`addps` rounds exactly as the 256-bit and scalar forms
    /// do, so the tier is 0 ULP from the other two.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F support, and for every
    /// `p < kc`, `r < MR`, `j < NR` the elements `a[r] + p·a_step` and
    /// `b + p·b_step + j` must be readable.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_tile_avx512<const V: usize>(
        a: [*const f32; MR],
        a_step: usize,
        b: *const f32,
        b_step: usize,
        c: &mut [&mut [f32; NR]; MR],
        kc: usize,
        load: bool,
    ) {
        const { assert!(V >= 1 && V * LANES512 <= NR) };
        let mut acc = [[_mm512_setzero_ps(); V]; MR];
        if load {
            for (accr, cr) in acc.iter_mut().zip(c.iter()) {
                for (v, x) in accr.iter_mut().enumerate() {
                    // SAFETY: (v + 1)·16 ≤ V·16 ≤ NR: inside the c row.
                    *x = unsafe { _mm512_loadu_ps(cr.as_ptr().add(v * LANES512)) };
                }
            }
        }
        for p in 0..kc {
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, x) in bv.iter_mut().enumerate() {
                // SAFETY: p < kc and (v + 1)·16 ≤ V·16 ≤ NR, so these 16
                // lanes of b + p·b_step are readable (the caller's
                // contract).
                *x = unsafe { _mm512_loadu_ps(b.add(p * b_step + v * LANES512)) };
            }
            for (accr, &ar) in acc.iter_mut().zip(&a) {
                // SAFETY: p < kc, so ar + p·a_step is readable (the
                // caller's contract).
                let av = unsafe { _mm512_set1_ps(*ar.add(p * a_step)) };
                for (x, &bx) in accr.iter_mut().zip(&bv) {
                    *x = _mm512_add_ps(*x, _mm512_mul_ps(av, bx));
                }
            }
        }
        for (accr, cr) in acc.iter().zip(c.iter_mut()) {
            for (v, &x) in accr.iter().enumerate() {
                // SAFETY: (v + 1)·16 ≤ V·16 ≤ NR: inside the c row.
                unsafe { _mm512_storeu_ps(cr.as_mut_ptr().add(v * LANES512), x) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_honors_the_env_override() {
        for best in [Kernel::Avx2, Kernel::Avx512] {
            assert_eq!(decide(Some("0"), best), Kernel::Portable);
            assert_eq!(decide(Some("off"), best), Kernel::Portable);
            assert_eq!(decide(Some("portable"), best), Kernel::Portable);
            assert_eq!(decide(Some(" 0 "), best), Kernel::Portable);
        }
    }

    #[test]
    fn decide_auto_detects_from_cpu_features() {
        assert_eq!(decide(None, Kernel::Avx512), Kernel::Avx512);
        assert_eq!(decide(None, Kernel::Avx2), Kernel::Avx2);
        assert_eq!(decide(None, Kernel::Portable), Kernel::Portable);
        assert_eq!(decide(Some("1"), Kernel::Avx512), Kernel::Avx512);
        assert_eq!(decide(Some("auto"), Kernel::Portable), Kernel::Portable);
    }

    #[test]
    fn unrecognised_values_do_not_parse_and_auto_detect() {
        for bad in ["fma", "protable", "", "2", "avx2", "avx512"] {
            assert_eq!(parse_env(bad), None, "{bad:?}");
            for best in [Kernel::Portable, Kernel::Avx2, Kernel::Avx512] {
                assert_eq!(decide(Some(bad), best), best);
            }
        }
    }

    #[test]
    fn available_starts_portable_and_only_lists_supported() {
        let tiers = available();
        assert_eq!(tiers[0], Kernel::Portable);
        for k in tiers {
            assert!(supported(k));
        }
        // Every AVX-512 host runs the tier's AVX2 element-wise kernels.
        if supported(Kernel::Avx512) {
            assert!(supported(Kernel::Avx2));
        }
    }

    #[test]
    fn force_overrides_and_restores() {
        force(Some(Kernel::Portable));
        assert_eq!(active(), Kernel::Portable);
        force(None);
        // Back to the env/CPU decision, whatever it is on this host.
        let _ = active();
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Kernel::Portable.name(), "portable");
        assert_eq!(Kernel::Avx2.name(), "avx2");
        assert_eq!(Kernel::Avx512.name(), "avx512");
    }
}
