//! Per-coordinate order statistics of a cohort: the kernel behind the
//! buffering robust aggregation rules (trimmed mean, coordinate median).
//!
//! A tile is [`LANES`] adjacent coordinates of every update in a cohort
//! of `k`. For each coordinate the kernel trims the `g` smallest and the
//! `g` largest of its `k` values — ordered by [`f32::total_cmp`], ties
//! broken by position in the cohort — and reduces the `k − 2g ≥ 1`
//! survivors (see [`Survivors`]).
//!
//! # Rank search
//!
//! The cut points are found by counting, not by partitioning. Each value
//! becomes a signed key whose integer order is `total_cmp`'s order, and
//! the key of rank `r` is built bit by bit from the top: a candidate
//! `t | bit` is kept while fewer than `r + 1` keys lie below it. That is
//! 32 passes of `k` compares per rank, and every pass compares all
//! [`LANES`] coordinates of a row at once with no data-dependent branch,
//! so the compiler vectorises it across coordinates — which a
//! `select_nth_unstable` per coordinate cannot be.
//!
//! With `T` the key of rank `g` and `U` that of rank `k − g − 1`, the
//! trimmed set is every key below `T` or above `U`, the first
//! `g − #(key < T)` keys equal to `T` by position, and every key equal
//! to `U` past the first `k − g − #(key < U)` by position. That is
//! exactly the set a full `(key, position)` sort puts in its first and
//! last `g` places, also when `T = U`.
//!
//! # Determinism
//!
//! The survivors fold in cohort order, never sorted order, as
//! `acc = keep ? acc + w·v : acc` — the same IEEE operations, in the
//! same order, as a scalar loop over the survivors. Lanes never mix, so
//! the loop runs through `simd::elementwise` and gives the same bits on
//! every tier.
#![forbid(unsafe_code)]

use crate::scratch::ScratchVec;
use crate::simd;

/// Coordinates per tile. 32 `i32` lanes are four AVX2 registers: a
/// rank pass keeps its candidates and counts in eight, so nothing
/// spills, while a narrower tile leaves the compiler vectorising across
/// the cohort instead of across coordinates.
pub const LANES: usize = 32;

/// What [`reduce_tile`] makes of a coordinate's survivors.
#[derive(Clone, Copy, Debug)]
pub enum Survivors<'a> {
    /// The survivors' mean weighted by each update's sample count,
    /// folded in cohort order; `samples[p]` is update `p`'s count.
    /// Survivors without samples average uniformly.
    WeightedMean(&'a [u64]),
    /// The midpoint of the two cut points: the central value of an odd
    /// cohort, the mean of the two central values of an even one, when
    /// `g = (k − 1) / 2`.
    Midpoint,
}

/// The key of the value whose bits are `bits`: a signed integer whose
/// order is `f32::total_cmp`'s (a negative value has its magnitude bits
/// flipped). The map is its own inverse.
#[inline(always)]
fn key(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The key of a padding row: no candidate of the rank search exceeds
/// it.
const PAD: i32 = i32::MAX;

/// The key stored in a scratch lane (or a value's bits), and back.
#[inline(always)]
fn load(lane: f32) -> i32 {
    lane.to_bits() as i32
}

#[inline(always)]
fn store(key: i32) -> f32 {
    f32::from_bits(key as u32)
}

/// The value whose key is `k`.
#[inline(always)]
fn value(k: i32) -> f32 {
    f32::from_bits(key(k) as u32)
}

/// `[f(0), …, f(LANES − 1)]`, built in the caller's context (an
/// `array::map` can stay an out-of-line call, compiled without AVX2).
#[inline(always)]
fn per_lane<T: Copy + Default>(f: impl Fn(usize) -> T) -> [T; LANES] {
    let mut out = [T::default(); LANES];
    for (l, x) in out.iter_mut().enumerate() {
        *x = f(l);
    }
    out
}

/// Per lane, the key of rank `rank` among `keys` (0 = smallest) and how
/// many keys lie strictly below it. Rows padded with [`PAD`] are never
/// below a candidate, so they do not count.
#[inline(always)]
fn rank_search(keys: &[[[f32; LANES]; 4]], rank: i32) -> ([i32; LANES], [i32; LANES]) {
    // `t` is the largest key with at most `rank` keys below it, found
    // from the top bit down; `i32::MIN` has nothing below it. Offset by
    // `i32::MIN` the keys are unsigned, `t` starts at 0 and `t ^ flip`
    // is `t | bit` there.
    let mut t = [i32::MIN; LANES];
    let mut below = [0i32; LANES];
    for bit in (0..32).rev() {
        let flip = (1u32 << bit) as i32;
        let candidate = per_lane(|l| t[l] ^ flip);
        let is_below = |row: &[f32; LANES], l: usize| i32::from(load(row[l]) < candidate[l]);
        // Four rows per step: their compares sum before they accumulate,
        // and the compiler vectorises across lanes. A one-row loop is a
        // reduction per lane, which it vectorises across rows instead,
        // over strided loads, several times slower.
        let mut count = [0i32; LANES];
        for [a, b, c, d] in keys {
            for l in 0..LANES {
                count[l] += is_below(a, l) + is_below(b, l) + is_below(c, l) + is_below(d, l);
            }
        }
        for l in 0..LANES {
            let take = count[l] <= rank;
            t[l] = if take { candidate[l] } else { t[l] };
            below[l] = if take { count[l] } else { below[l] };
        }
    }
    (t, below)
}

/// Reduces one tile: `runs` yields each update's values at the tile's
/// coordinates, in cohort order, and `out[j]` receives coordinate `j`'s
/// reduction after the `g` smallest and `g` largest values are trimmed.
///
/// Scratch is about `2 · k · LANES · 4 B` (keys and survivor mask),
/// from the calling thread's [`crate::scratch`] pool.
///
/// # Panics
///
/// Panics if `out` is wider than [`LANES`], a run's length differs from
/// `out`'s, `2g ≥ k`, or a weighted mean's `samples` are not one per
/// update.
pub fn reduce_tile<'a>(
    runs: impl ExactSizeIterator<Item = &'a [f32]>,
    g: usize,
    survivors: Survivors<'_>,
    out: &mut [f32],
) {
    let k = runs.len();
    let width = out.len();
    assert!(
        width <= LANES,
        "a tile is at most {LANES} coordinates, got {width}"
    );
    assert!(2 * g < k, "trimming {g} per end leaves no survivor of {k}");
    let rank = |r: usize| i32::try_from(r).expect("a cohort below 2^31 updates");
    let (lo_rank, hi_rank) = (rank(g), rank(k - g - 1));
    // Key rows padded to a multiple of four, then the mask rows.
    let padded = k.next_multiple_of(4);
    let mut scratch = ScratchVec::take((padded + k) * LANES);
    let (keys, mask) = scratch.as_chunks_mut::<LANES>().0.split_at_mut(padded);
    let mut reduced = [0.0f32; LANES];
    simd::elementwise(
        #[inline(always)]
        || {
            // Gather: row `p` is update `p`'s run, as keys; the lanes
            // past a narrow tile's width hold key 0 and are dropped.
            for (row, run) in keys.iter_mut().zip(runs) {
                assert_eq!(run.len(), width, "run length differs from the tile width");
                for (lane, &v) in row.iter_mut().zip(run) {
                    *lane = store(key(load(v)));
                }
                row[width..].fill(store(0));
            }
            keys[k..].fill([store(PAD); LANES]);
            let quads = keys.as_chunks::<4>().0;
            let keys = &keys[..k];
            let (lo, lo_below) = rank_search(quads, lo_rank);
            match survivors {
                Survivors::Midpoint if lo_rank == hi_rank => {
                    reduced = per_lane(|l| value(lo[l]));
                }
                Survivors::Midpoint => {
                    let (hi, _) = rank_search(quads, hi_rank);
                    for l in 0..LANES {
                        reduced[l] = (value(lo[l]) + value(hi[l])) * 0.5;
                    }
                }
                Survivors::WeightedMean(samples) => {
                    assert_eq!(samples.len(), k, "one sample count per update");
                    let (hi, hi_below) = rank_search(quads, hi_rank);
                    // Keys equal to `lo` are trimmed while fewer than
                    // `cut_lo` of them were seen; keys equal to `hi` once
                    // `keep_hi` of them were.
                    let cut_lo = per_lane(|l| lo_rank - lo_below[l]);
                    let keep_hi = per_lane(|l| (hi_rank + 1) - hi_below[l]);
                    let (mut seen_lo, mut seen_hi) = ([0i32; LANES], [0i32; LANES]);
                    let mut total = [0u64; LANES];
                    for ((row, keep), &s) in keys.iter().zip(mask.iter_mut()).zip(samples) {
                        for l in 0..LANES {
                            let x = load(row[l]);
                            let (eq_lo, eq_hi) = (x == lo[l], x == hi[l]);
                            let trim = (x < lo[l])
                                | (x > hi[l])
                                | (eq_lo & (seen_lo[l] < cut_lo[l]))
                                | (eq_hi & (seen_hi[l] >= keep_hi[l]));
                            seen_lo[l] += i32::from(eq_lo);
                            seen_hi[l] += i32::from(eq_hi);
                            keep[l] = store(-i32::from(!trim));
                            total[l] += if trim { 0 } else { s };
                        }
                    }
                    // Totals convert once per lane, outside the fold.
                    let uniform = 1.0 / (k - 2 * g) as f32;
                    let total_f = per_lane(|l| total[l] as f32);
                    let mut acc = [0.0f32; LANES];
                    for ((row, keep), &s) in keys.iter().zip(mask.iter()).zip(samples) {
                        let s = s as f32;
                        for l in 0..LANES {
                            let w = if total[l] > 0 {
                                s / total_f[l]
                            } else {
                                uniform
                            };
                            let sum = acc[l] + w * value(load(row[l]));
                            acc[l] = if load(keep[l]) != 0 { sum } else { acc[l] };
                        }
                    }
                    reduced = acc;
                }
            }
        },
    );
    out.copy_from_slice(&reduced[..width]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_like_total_cmp_and_invert() {
        let specials = [
            -f32::NAN,
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0,
            -f32::MIN_POSITIVE,
            -1e-45, // negative subnormal
            -0.0,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        let key_of = |v: f32| key(v.to_bits() as i32);
        for a in specials {
            assert_eq!(value(key_of(a)).to_bits(), a.to_bits(), "{a}");
            for b in specials {
                assert_eq!(key_of(a).cmp(&key_of(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn rank_search_finds_every_rank_and_its_count_below() {
        // One lane per pattern: distinct, all tied, and a tie run in the
        // middle, across the sign boundary.
        let columns: [&[i32]; 3] = [
            &[5, -3, 9, 0, -7, 2],
            &[4, 4, 4, 4, 4, 4],
            &[-1, 3, 3, -8, 3, i32::MAX],
        ];
        // Six rows and two of padding.
        let keys: Vec<[f32; LANES]> = (0..8)
            .map(|p| {
                let key = |l: usize| columns.get(l).map_or(0, |c| c[p]);
                std::array::from_fn(|l| store(if p < 6 { key(l) } else { PAD }))
            })
            .collect();
        let keys = keys.as_chunks::<4>().0;
        for (l, column) in columns.iter().enumerate() {
            let mut sorted = column.to_vec();
            sorted.sort_unstable();
            for (r, &want) in sorted.iter().enumerate() {
                let (t, below) = rank_search(keys, r as i32);
                assert_eq!(t[l], want, "lane {l} rank {r}");
                assert_eq!(
                    below[l],
                    column.iter().filter(|&&x| x < want).count() as i32
                );
            }
        }
    }

    #[test]
    fn ties_at_both_cuts_trim_by_position() {
        // Values 1 1 1 1 1 at g = 2: positions 0, 1 go low, 3, 4 high,
        // and position 2's weight alone survives.
        let runs: Vec<[f32; 1]> = vec![[1.0], [1.0], [1.0], [1.0], [1.0]];
        let samples = [1, 1, 7, 1, 1];
        let mut out = [0.0];
        reduce_tile(
            runs.iter().map(|r| &r[..]),
            2,
            Survivors::WeightedMean(&samples),
            &mut out,
        );
        assert_eq!(out, [1.0]);
        // 2 0 2 2 0 2 at g = 2: T = 0 (both zeros cut), U = 2 with the
        // last two of four twos cut, so positions 0 and 2 survive.
        let runs: Vec<[f32; 1]> = [2.0, 0.0, 2.0, 2.0, 0.0, 2.0].map(|v| [v]).to_vec();
        let samples = [1, 100, 3, 100, 100, 100];
        reduce_tile(
            runs.iter().map(|r| &r[..]),
            2,
            Survivors::WeightedMean(&samples),
            &mut out,
        );
        assert_eq!(out, [(1.0 / 4.0) * 2.0 + (3.0 / 4.0) * 2.0]);
    }

    #[test]
    fn narrow_tiles_and_the_midpoint() {
        let runs = [
            [1.0f32, -4.0, 8.0],
            [3.0, -2.0, 8.0],
            [2.0, 6.0, -0.0],
            [10.0, 0.0, 0.0],
        ];
        let mut out = [0.0; 3];
        reduce_tile(
            runs.iter().map(|r| &r[..]),
            1,
            Survivors::Midpoint,
            &mut out,
        );
        assert_eq!(out, [2.5, -1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "no survivor")]
    fn trimming_everything_is_refused() {
        let runs = [[1.0f32], [2.0]];
        reduce_tile(
            runs.iter().map(|r| &r[..]),
            1,
            Survivors::Midpoint,
            &mut [0.0],
        );
    }
}
