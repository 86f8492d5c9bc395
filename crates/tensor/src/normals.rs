//! Bulk normal draws, bit for bit what the `rand_distr` shim's
//! `Normal::<f32>::sample` returns, several lanes at a time.
//!
//! # What is computed
//!
//! A normal of mean `μ` and deviation `σ` takes the stream's next two
//! words `w1, w2`, in that order ([`WORDS_PER_NORMAL`]), and is
//!
//! ```text
//! f32(μ + σ·(√(−2·ln u1) · cos(τ·u2)))   in f64, with u = ((w >> 11) + 1)·2⁻⁵³ ∈ (0, 1]
//! ```
//!
//! The portable tier computes exactly that, one normal at a time, with
//! libm's `ln` and `cos`.
//!
//! # Fast path and guard
//!
//! The SIMD tiers draw the words of a batch first, in stream order, and
//! then compute eight normals at a time through `simd::widest`
//! (`avx512f` + `avx512dq` on the AVX-512 tier, AVX2 below it), with
//! `ln u1` and `cos(τ·u2)` from branch-free polynomials: fdlibm's `log`
//! kernel on `u1 = 2ᵏ·m`, `m ∈ [√½, √2)`, and its `sin`/`cos` kernels
//! on `τ·u2 − n·π/2` reduced with a two-part `π/2`. Those kernels are
//! within 1 ULP of the true value, and so are glibc's `log` and `cos`;
//! measured against glibc they stay under 2⁻⁵⁰ relative
//! (`tests::the_polynomials_stay_inside_their_budget`). With the
//! roundings of `sqrt` and the product, the fast
//! `z = √(−2·ln u1)·cos(τ·u2)` is then within `δ ≤ 2⁻⁴⁶` of libm's,
//! relative, with room to spare. A lane keeps its fast value only when
//! that error cannot move the `f32`; all of these must hold:
//!
//! - `|r| ≥ 2⁻²⁰` for the reduced cos argument `r`, so a cos near a zero
//!   keeps its relative accuracy;
//! - `u1 ≤ 1 − 2⁻¹⁰`, so `ln u1` is not near zero;
//! - `v = μ + σ·z` is finite with `2⁻¹⁰⁰ < |v| < 2¹⁰⁰`, a normal `f32`
//!   range;
//! - `|σ·z| ≤ 2⁶·|v|`: the add of `μ` does not cancel, so `v`'s error is
//!   at most `2⁶·(δ + 2⁻⁵²)·|v| < 2⁻³⁹·|v|`, under 2¹⁴ of `v`'s ULPs;
//! - the low 29 mantissa bits of `v` (the bits an `f32` drops) lie more
//!   than 2¹⁴ f64 ULPs from 2²⁸, the `f32` rounding midpoint. Then no
//!   midpoint lies between the fast `v` and libm's, and both round to the
//!   same `f32`.
//!
//! Any other lane is recomputed from its two words with libm's `ln` and
//! `cos`. For the generator's deviations that is about one lane in a
//! thousand. The fill therefore returns the portable tier's bits on every
//! tier, for every mean and deviation (negative, zero and non-finite
//! ones included), which `tests/normals_exact.rs` checks against the
//! shim itself.
//!
//! Every operation of the fast path is an independent IEEE `f64`
//! operation with no FMA contraction, so both SIMD builds compute the
//! same fast values and fall back on the same lanes.
#![forbid(unsafe_code)]

use std::f64::consts::TAU;

use rand::RngCore;

use crate::simd::{self, Kernel};
use crate::work;

/// RNG words one normal consumes: the two uniforms of its Box–Muller
/// pair, one `next_u64` each. A caller that skips normals without
/// computing them steps the stream by this many words a normal.
pub const WORDS_PER_NORMAL: usize = 2;

/// Normals per SIMD block: eight `f64` lanes, one AVX-512 register (two
/// AVX2 ones) per value.
const LANES: usize = 8;

/// Normals whose words are drawn before a trampoline call computes
/// them.
const BATCH: usize = 64;

/// `((w >> 11) + 1)·2⁻⁵³`: the shim's uniform in `(0, 1]`.
#[inline(always)]
fn unit_open(word: u64) -> f64 {
    ((word >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The normal of words `w1, w2` through libm, as the shim computes it.
#[inline(always)]
fn exact(w1: u64, w2: u64, mean: f64, sd: f64) -> f32 {
    let (u1, u2) = (unit_open(w1), unit_open(w2));
    (mean + sd * ((-2.0 * u1.ln()).sqrt() * (TAU * u2).cos())) as f32
}

/// Fills `out` with normals of mean `mean` and deviation `sd`, drawing
/// [`WORDS_PER_NORMAL`] words of `rng` per element in order: the same
/// words and the same bits as `out.len()` calls of the shim's
/// `Normal::<f32>::sample`, on every tier (see the module docs).
pub fn fill<R: RngCore + ?Sized>(rng: &mut R, mean: f32, sd: f32, out: &mut [f32]) {
    let (mean, sd) = (f64::from(mean), f64::from(sd));
    let exact_lanes = if simd::active() == Kernel::Portable {
        for x in out.iter_mut() {
            let w1 = rng.next_u64();
            *x = exact(w1, rng.next_u64(), mean, sd);
        }
        out.len()
    } else {
        let mut words = [0u64; BATCH * WORDS_PER_NORMAL];
        let mut exact_lanes = 0;
        for out in out.chunks_mut(BATCH) {
            let drawn = out.len() * WORDS_PER_NORMAL;
            words[..drawn].fill_with(|| rng.next_u64());
            // A short last block reads stale words into lanes it drops.
            let blocks = out.len().div_ceil(LANES) * LANES * WORDS_PER_NORMAL;
            exact_lanes += batch(&words[..blocks], mean, sd, out);
        }
        exact_lanes
    };
    work::count(|w| {
        w.normals += out.len();
        w.exact_normals += exact_lanes;
    });
}

/// The normals of `words` (two per element of `out`, padded to whole
/// blocks) into `out`, a block of [`LANES`] at a time on the widest
/// tier; returns how many took libm's path. Not generic, so its
/// trampoline instances live in this crate.
fn batch(words: &[u64], mean: f64, sd: f64, out: &mut [f32]) -> usize {
    let mut exact_lanes = 0;
    simd::widest(
        #[inline(always)]
        || {
            let (blocks, _) = words.as_chunks::<{ LANES * WORDS_PER_NORMAL }>();
            for (out, pair) in out.chunks_mut(LANES).zip(blocks) {
                let (fast, miss) = block(pair, mean, sd);
                let exact_at = |l: usize| exact(pair[2 * l], pair[2 * l + 1], mean, sd);
                if let Ok(out) = <&mut [f32; LANES]>::try_from(&mut *out) {
                    *out = fast;
                    let mut miss = miss;
                    while miss != 0 {
                        let l = miss.trailing_zeros() as usize;
                        out[l] = exact_at(l);
                        exact_lanes += 1;
                        miss &= miss - 1;
                    }
                } else {
                    for (l, x) in out.iter_mut().enumerate() {
                        let missed = miss >> l & 1 != 0;
                        *x = if missed { exact_at(l) } else { fast[l] };
                        exact_lanes += usize::from(missed);
                    }
                }
            }
        },
    );
    exact_lanes
}

/// One block's fast normals, and the lanes the guard refuses (bit `l`
/// set: lane `l` must take libm's path).
#[inline(always)]
fn block(words: &[u64; LANES * WORDS_PER_NORMAL], mean: f64, sd: f64) -> ([f32; LANES], u32) {
    let mut fast = [0.0f32; LANES];
    let mut miss = 0;
    for l in 0..LANES {
        let (u1, u2) = (unit_open(words[2 * l]), unit_open(words[2 * l + 1]));
        let (cos, r) = cos_reduced(TAU * u2);
        let p = sd * ((-2.0 * ln(u1)).sqrt() * cos);
        let v = mean + p;
        let dropped = v.to_bits() & ((1 << 29) - 1);
        let keep = (r.abs() >= TWO_M20)
            & (u1 <= 1.0 - TWO_M10)
            & (v.abs() > TWO_M100)
            & (v.abs() < TWO_100)
            & (p.abs() <= 64.0 * v.abs())
            & (dropped.abs_diff(MIDPOINT) > MARGIN);
        miss |= u32::from(!keep) << l;
        fast[l] = v as f32;
    }
    (fast, miss)
}

/// Where the 29 mantissa bits an `f32` drops round half-way, and the
/// distance from it, in f64 ULPs, a kept lane must exceed.
const MIDPOINT: u64 = 1 << 28;
const MARGIN: u64 = 1 << 14;
/// 2⁻¹⁰, 2⁻²⁰, 2⁻¹⁰⁰ and 2¹⁰⁰.
const TWO_M10: f64 = 1.0 / 1024.0;
const TWO_M20: f64 = 1.0 / (1u64 << 20) as f64;
const TWO_M100: f64 = f64::from_bits((1023 - 100) << 52);
const TWO_100: f64 = f64::from_bits((1023 + 100) << 52);

/// The bits of `√½`, the bottom of the log kernel's mantissa range.
const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
/// 2⁵² as the bits of an `f64`: OR-ing a small integer into the low
/// bits adds it.
const TWO_52: u64 = 0x4330_0000_0000_0000;

/// `ln x` for `x ∈ (0, 1]` a normal `f64`, fdlibm's kernel without its
/// special cases: `x = 2ᵏ·m` with `m ∈ [√½, √2)`, `f = m − 1`,
/// `s = f / (2 + f)`, and `ln m = f − s·(f − R(s²))`.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    const LG: [f64; 7] = [
        6.666_666_666_666_735e-1,
        3.999_999_999_940_942e-1,
        2.857_142_874_366_239e-1,
        2.222_219_843_214_978_4e-1,
        1.818_357_216_161_805e-1,
        1.531_383_769_920_937_3e-1,
        1.479_819_860_511_658_6e-1,
    ];
    // Shifting the bits by `1 − √½`'s puts `m ≥ √½` in the exponent
    // field's next binade: the field is then `k + 1023`.
    let bits = x.to_bits() + (1.0f64.to_bits() - SQRT_HALF);
    let k = f64::from_bits(TWO_52 | bits >> 52) - f64::from_bits(TWO_52 | 1023);
    let m = f64::from_bits((bits & ((1 << 52) - 1)) + SQRT_HALF);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r =
        z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6]))) + w * (LG[1] + w * (LG[3] + w * LG[5]));
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// `cos x` for `x ∈ [0, 2π]`, and the reduced argument `r`: `x = n·π/2
/// + r` with `|r| ≤ π/4`, and `cos x` is `±cos r` or `±sin r` by the
/// quadrant `n`. fdlibm's `sin` and `cos` kernels on `r`.
#[inline(always)]
fn cos_reduced(x: f64) -> (f64, f64) {
    /// 1.5·2⁵²: adding it rounds an `f64` in `[0, 2⁵¹)` to an integer,
    /// which its low mantissa bits then hold.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    /// The first 33 bits of `π/2` (`n·PIO2_1` is exact for `n ≤ 4`), and
    /// the rest.
    const PIO2_1: f64 = 1.570_796_326_734_125_6;
    const PIO2_1T: f64 = 6.077_100_506_506_192e-11;
    const S: [f64; 6] = [
        -1.666_666_666_666_663_2e-1,
        8.333_333_333_322_49e-3,
        -1.984_126_982_985_795e-4,
        2.755_731_370_707_006_8e-6,
        -2.505_076_025_340_686_3e-8,
        1.589_690_995_211_55e-10,
    ];
    const C: [f64; 6] = [
        4.166_666_666_666_66e-2,
        -1.388_888_888_887_411e-3,
        2.480_158_728_947_673e-5,
        -2.755_731_435_139_066_3e-7,
        2.087_572_321_298_175e-9,
        -1.135_964_755_778_819_5e-11,
    ];
    let shifted = x * std::f64::consts::FRAC_2_PI + ROUND;
    let n = shifted - ROUND;
    let quadrant = shifted.to_bits();
    let r = (x - n * PIO2_1) - n * PIO2_1T;
    let z = r * r;
    let w = z * z;
    let sin = {
        let p = S[1] + z * (S[2] + z * S[3]) + z * w * (S[4] + z * S[5]);
        r + z * r * (S[0] + z * p)
    };
    let cos = {
        let p = z * (C[0] + z * (C[1] + z * C[2])) + w * w * (C[3] + z * (C[4] + z * C[5]));
        let hz = 0.5 * z;
        let one_hz = 1.0 - hz;
        one_hz + (((1.0 - one_hz) - hz) + z * p)
    };
    // Quadrants 0..3 give cos, −sin, −cos, sin.
    let magnitude = if quadrant & 1 == 0 { cos } else { sin };
    let negate = (quadrant + 1) & 2;
    (f64::from_bits(magnitude.to_bits() ^ negate << 62), r)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    /// `|a − b| / |b|`.
    fn rel(a: f64, b: f64) -> f64 {
        ((a - b) / b).abs()
    }

    #[test]
    fn the_polynomials_stay_inside_their_budget() {
        let mut rng = StdRng::seed_from_u64(45);
        let (mut worst_ln, mut worst_cos) = (0.0f64, 0.0f64);
        let ends = [0u64, 1, 2, u64::MAX >> 1, u64::MAX - (1 << 11), u64::MAX];
        let words = ends.into_iter().chain((0..1 << 18).map(|_| rng.next_u64()));
        for w in words {
            let u = unit_open(w);
            if u <= 1.0 - TWO_M10 {
                worst_ln = worst_ln.max(rel(ln(u), u.ln()));
            }
            let (cos, r) = cos_reduced(TAU * u);
            if r.abs() >= TWO_M20 {
                worst_cos = worst_cos.max(rel(cos, (TAU * u).cos()));
            }
        }
        // A few ULPs each; the guard's budget for `z` is 2⁻⁴⁶.
        let budget = 1.0 / (1u64 << 50) as f64;
        assert!(worst_ln < budget, "ln: {worst_ln:e}");
        assert!(worst_cos < budget, "cos: {worst_cos:e}");
    }
}
