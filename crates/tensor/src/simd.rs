//! Runtime-dispatched SIMD tiers: intrinsic register tiles for the
//! GEMM core, and AVX2 builds of the fused element-wise loops.
//!
//! # Dispatch
//!
//! The kernel tier is a per-run setting ([`crate::Settings`]); [`active`]
//! reads it. Its process default:
//!
//! 1. `FT_TENSOR_SIMD=0` (or `off`, `portable`) selects the portable
//!    fallback (the plain Rust loops, exactly the pre-SIMD code path).
//! 2. Otherwise (unset, or `1`/`on`/`auto`) the best tier the CPU has:
//!    [`Kernel::Avx512`] where `is_x86_feature_detected!` reports
//!    `avx512f` and `avx512dq` (and `avx2`), [`Kernel::Avx2`] where it
//!    reports `avx2` only, [`Kernel::Portable`] everywhere else.
//!
//! The AVX-512 tier differs from the AVX2 tier in the GEMM register
//! tile, in the robust sinks' rank search (compare-bound) and in the
//! bulk normal fill (arithmetic-bound), which run their AVX-512 builds
//! there; the fused element-wise kernels are bandwidth-bound and run
//! their AVX2 build under it. Tests reach each
//! tier through [`crate::Settings::scope`]; there is no environment
//! value that picks one.
//!
//! The element-wise kernels have no intrinsic copies. Each loop is
//! written once, in [`crate::fused`], [`crate::order_stats`] (whose
//! lanes are adjacent coordinates) or [`crate::normals`], and
//! `elementwise` runs it either as is (the portable tier) or inside a
//! function compiled with `target_feature(enable = "avx2")`, where the
//! compiler vectorises the same source eight lanes wide; `widest` does
//! the same with `avx512f` and `avx512dq` on the AVX-512 tier, sixteen
//! lanes wide. Rust never fuses a `mul`
//! and an `add` into one FMA, so every build performs the same
//! operations.
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
//! under every tier). The one kernel whose SIMD lanes compute something
//! else is the normal fill: its polynomial `ln`/`cos` lanes are kept
//! only where a guard proves they round to the portable tier's `f32`
//! ([`crate::normals`]; pinned by `crates/tensor/tests/normals_exact.rs`).

/// A micro-kernel implementation tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Plain Rust loops — the reference semantics on every platform.
    Portable,
    /// The AVX2 GEMM register tile and AVX2 builds of the element-wise
    /// loops, bit-identical to [`Kernel::Portable`].
    Avx2,
    /// The AVX-512 GEMM register tile and rank search (the fused
    /// element-wise loops run their AVX2 build), bit-identical to
    /// [`Kernel::Portable`].
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
/// recognised form (the process default then auto-detects; `ft-run`
/// refuses to start).
pub fn parse_env(value: &str) -> Option<bool> {
    match value.trim() {
        "0" | "off" | "portable" => Some(false),
        "1" | "on" | "auto" => Some(true),
        _ => None,
    }
}

/// The tier an `FT_TENSOR_SIMD` value selects when `best` is the best
/// tier the CPU has: the process default of [`crate::Settings`].
pub(crate) fn decide(env: Option<&str>, best: Kernel) -> Kernel {
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
                && std::arch::is_x86_feature_detected!("avx512dq")
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

/// The kernel tier every dispatch site uses for this call.
pub fn active() -> Kernel {
    crate::Settings::current().kernel
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

/// [`elementwise`] for a compute-bound loop: compiled for AVX-512 on the
/// AVX-512 tier (32 vector registers, 16 `i32` or 8 `f64` lanes each),
/// as [`elementwise`] does otherwise. The same contract and the same
/// `#[inline(always)]` discipline hold. The rank search of
/// [`crate::order_stats`] and the normal fill of [`crate::normals`] are
/// its callers; the bandwidth-bound fused kernels keep their AVX2 build
/// on every tier.
pub(crate) fn widest(f: impl FnOnce()) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => {
            // SAFETY: `active` only returns tiers `supported` reports,
            // and this one needs AVX-512F and AVX-512DQ.
            unsafe { on_avx512(f) }
        }
        _ => elementwise(f),
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

/// The AVX-512 trampoline behind [`widest`]. `avx512dq` adds the
/// 64-bit integer ↔ `f64` conversions the normal fill's lanes use.
///
/// # Safety
///
/// The caller must have verified AVX-512F and AVX-512DQ support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn on_avx512(f: impl FnOnce()) {
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

    use crate::matmul::{BRows, Sum, MR, NR};

    /// AVX2 GEMM register tile: the sums `Σ_p a[r][p·a_step] ·
    /// b.row(p)[j]`, ascending `p` in one accumulator, one `mul` + one
    /// `add` per term, met with `c` as `sum` says — the portable tile's
    /// arithmetic exactly,
    /// eight `j` lanes per instruction. Sixteen `__m256` accumulators
    /// would fill the whole register file, so the `MR × NR` tile runs as
    /// 4 × 16 blocks of eight independent accumulators each (two
    /// `__m256` per row), one k-sweep per block. Blocks that start at or
    /// past column `jw` are skipped (an edge tile's dead lanes); the
    /// caller drops the last block's lanes past `jw`. `a[r]` points at
    /// row `r` of A in place (`a_step` = 1 row-major, the stored row
    /// length column-major); `b` finds B's lanes at each k-step (a
    /// packed slab, B in place, or a patch row through its offset
    /// table); `c` holds the tile's output rows, in the product or in a
    /// local edge buffer. A masked add blends `c + sum` into the lanes
    /// whose bit is set and stores `c` back unchanged elsewhere; it is
    /// compiled only into the `MASKED` instantiation, so a stored
    /// product's tile carries no masked-store code.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support and `b.covers(kc)`,
    /// and for every `p < kc`, `r < MR` the element `a[r] + p·a_step`
    /// must be readable.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_tile_avx2<B: BRows, const MASKED: bool>(
        a: [*const f32; MR],
        a_step: usize,
        b: B,
        c: &mut [&mut [f32; NR]; MR],
        kc: usize,
        sum: Sum,
        jw: usize,
    ) {
        const { assert!(MR.is_multiple_of(4) && NR.is_multiple_of(16)) };
        for rb in (0..MR).step_by(4) {
            for cb in (0..jw.min(NR)).step_by(16) {
                let mut acc = [[_mm256_setzero_ps(); 2]; 4];
                if let Sum::Continue = sum {
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
                    // SAFETY: p < kc and cb + 16 ≤ NR, so lanes
                    // cb..cb + 16 of step p are readable (the caller's
                    // contract).
                    let (b0, b1) = unsafe {
                        let row = b.row(p).add(cb);
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
                let keep = match sum {
                    Sum::AddMasked(mask) if MASKED => {
                        Some([lane_mask(mask >> cb), lane_mask(mask >> (cb + 8))])
                    }
                    _ => None,
                };
                for (r, accr) in acc.iter().enumerate() {
                    let row = c[rb + r].as_mut_ptr();
                    for (h, &x) in accr.iter().enumerate() {
                        // SAFETY: cb + 16 ≤ NR, so both vectors lie
                        // inside the NR-element c row.
                        unsafe {
                            let at = row.add(cb + 8 * h);
                            let x = match keep {
                                Some(masks) => {
                                    let old = _mm256_loadu_ps(at);
                                    _mm256_blendv_ps(old, _mm256_add_ps(old, x), masks[h])
                                }
                                None => x,
                            };
                            _mm256_storeu_ps(at, x);
                        }
                    }
                }
            }
        }
    }

    /// Transposes one 8 × 8 block: the eight floats at `src[c·ld..]`
    /// (`c < 8`) become lane `c` of the eight runs at `dst[p·NR..]`
    /// (`p < 8`). Each register is loaded as two 4-float halves, rows
    /// `c` and `c + 4`, so the two 4 × 4 transposes that follow (32-bit
    /// interleaves, then 64-bit pair selects) run in both halves at
    /// once and leave whole columns: 16 shuffles, no cross-half
    /// permute. Every element is moved once; nothing is combined.
    ///
    /// # Panics
    ///
    /// Panics if the last run of either block leaves its slice: `src`
    /// shorter than `7·ld + 8` or `dst` than `7·NR + 8`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose_8x8(src: &[f32], ld: usize, dst: &mut [f32]) {
        assert!(
            src.len() >= 7 * ld + 8 && dst.len() >= 7 * NR + 8,
            "transpose block leaves its operands"
        );
        for run in 0..8 {
            debug_assert!(run * ld + 8 <= src.len() && run * NR + 8 <= dst.len());
        }
        let (src, dst) = (src.as_ptr(), dst.as_mut_ptr());
        for half in 0..2 {
            // x[c] = elements 4·half.. of rows c (low) and c + 4 (high).
            let mut x = [_mm256_setzero_ps(); 4];
            for (c, xc) in x.iter_mut().enumerate() {
                // SAFETY: the assert above puts rows `c` and `c + 4`
                // (< 8) inside `src` from element `4·half` for four
                // floats: `(c + 4)·ld + 4·half + 4 <= 7·ld + 8`.
                *xc = unsafe {
                    let lo = _mm_loadu_ps(src.add(c * ld + 4 * half));
                    let hi = _mm_loadu_ps(src.add((c + 4) * ld + 4 * half));
                    _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
                };
            }
            // Rows c, c + 1 interleaved: elements 0, 1 and 2, 3 of each half.
            let t = [
                _mm256_unpacklo_ps(x[0], x[1]),
                _mm256_unpackhi_ps(x[0], x[1]),
                _mm256_unpacklo_ps(x[2], x[3]),
                _mm256_unpackhi_ps(x[2], x[3]),
            ];
            let cols = [
                _mm256_shuffle_ps::<0x44>(t[0], t[2]),
                _mm256_shuffle_ps::<0xee>(t[0], t[2]),
                _mm256_shuffle_ps::<0x44>(t[1], t[3]),
                _mm256_shuffle_ps::<0xee>(t[1], t[3]),
            ];
            for (e, &col) in cols.iter().enumerate() {
                // SAFETY: the assert above puts run `4·half + e` (< 8)
                // inside `dst`: `7·NR + 8 <= dst.len()`.
                unsafe { _mm256_storeu_ps(dst.add((4 * half + e) * NR), col) };
            }
        }
    }

    /// The lanes set in the low eight bits of `bits`, as an all-ones /
    /// all-zeros `__m256` blend mask.
    ///
    /// # Safety
    ///
    /// None beyond the target feature: the function is safe, and the
    /// compiler lets only AVX2-enabled code (the AVX2 tile) call it.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_mask(bits: u32) -> __m256 {
        let sel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let hit = _mm256_and_si256(_mm256_set1_epi32((bits & 0xff) as i32), sel);
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(hit, sel))
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
    /// do (a masked add included), so the tier is 0 ULP from the other
    /// two.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F support and
    /// `b.covers(kc)`, and for every `p < kc`, `r < MR` the element
    /// `a[r] + p·a_step` must be readable.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_tile_avx512<const V: usize, B: BRows, const MASKED: bool>(
        a: [*const f32; MR],
        a_step: usize,
        b: B,
        c: &mut [&mut [f32; NR]; MR],
        kc: usize,
        sum: Sum,
    ) {
        const { assert!(V >= 1 && V * LANES512 <= NR) };
        let mut acc = [[_mm512_setzero_ps(); V]; MR];
        if let Sum::Continue = sum {
            for (accr, cr) in acc.iter_mut().zip(c.iter()) {
                for (v, x) in accr.iter_mut().enumerate() {
                    // SAFETY: (v + 1)·16 ≤ V·16 ≤ NR: inside the c row.
                    *x = unsafe { _mm512_loadu_ps(cr.as_ptr().add(v * LANES512)) };
                }
            }
        }
        for p in 0..kc {
            // SAFETY: p < kc (the caller's contract).
            let row = unsafe { b.row(p) };
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, x) in bv.iter_mut().enumerate() {
                // SAFETY: (v + 1)·16 ≤ V·16 ≤ NR, so these 16 lanes of
                // step p are readable (the caller's contract).
                *x = unsafe { _mm512_loadu_ps(row.add(v * LANES512)) };
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
        let keep = match sum {
            Sum::AddMasked(mask) if MASKED => Some(mask),
            _ => None,
        };
        for (accr, cr) in acc.iter().zip(c.iter_mut()) {
            for (v, &x) in accr.iter().enumerate() {
                // SAFETY: (v + 1)·16 ≤ V·16 ≤ NR: inside the c row.
                unsafe {
                    let at = cr.as_mut_ptr().add(v * LANES512);
                    let x = match keep {
                        Some(mask) => {
                            let old = _mm512_loadu_ps(at);
                            let lanes = (mask >> (v * LANES512) & 0xffff) as u16;
                            _mm512_mask_add_ps(old, lanes, old, x)
                        }
                        None => x,
                    };
                    _mm512_storeu_ps(at, x);
                }
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
    fn kernel_names_are_stable() {
        assert_eq!(Kernel::Portable.name(), "portable");
        assert_eq!(Kernel::Avx2.name(), "avx2");
        assert_eq!(Kernel::Avx512.name(), "avx512");
    }
}
