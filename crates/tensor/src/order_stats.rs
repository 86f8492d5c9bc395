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
//! `t | bit` is kept while fewer than `r + 1` keys lie below it. Both
//! cut points come out of one sweep of 32 bit passes: each pass reads
//! every key row once and compares it against both candidates (one, when
//! the two ranks meet in an odd cohort's median), so a tile reads
//! `32 · k` key rows, not twice that. Every compare covers a row's
//! coordinates at once with no data-dependent branch, so the compiler
//! vectorises it across coordinates — which a `select_nth_unstable` per
//! coordinate cannot be. The tile runs as two halves of 16 coordinates,
//! which keeps a pass's candidates and counts in registers: eight of
//! AVX2's sixteen, four of AVX-512's 32.
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
//! same order, as a scalar loop over the survivors. The search is
//! integer compares and lanes never mix, so the kernel runs through
//! `simd::widest` (its AVX-512 build on the AVX-512 tier) and gives the
//! same bits on every tier.
#![forbid(unsafe_code)]

use crate::scratch::ScratchVec;
use crate::simd;

/// Coordinates per tile: one lane of the rank search per coordinate.
pub const LANES: usize = 32;

/// Lanes per sweep: a tile runs as two halves of 16 coordinates. A lane
/// array of a half is two AVX2 registers or one AVX-512 register, so a
/// sweep for both cut points keeps its candidates and counts in eight
/// or four.
const HALF: usize = LANES / 2;

/// Half a key row: one update's keys at a half tile's coordinates.
type Row = [f32; HALF];

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

/// `[f(0), …, f(W − 1)]`, built in the caller's context (an
/// `array::map` can stay an out-of-line call, compiled without AVX2).
#[inline(always)]
fn per_lane<T: Copy + Default, const W: usize>(f: impl Fn(usize) -> T) -> [T; W] {
    let mut out = [T::default(); W];
    for (l, x) in out.iter_mut().enumerate() {
        *x = f(l);
    }
    out
}

/// A cut point per lane: the key of its rank and how many keys lie
/// strictly below it.
#[derive(Clone, Copy)]
struct Cut {
    key: [i32; HALF],
    below: [i32; HALF],
}

/// One rank search per entry of `ranks` (0 = smallest), all in one
/// sweep over a half tile's key rows: each of the 32 bit passes reads
/// every row once and compares it against all `N` candidates. Rows
/// padded with [`PAD`] are never below a candidate, so they do not
/// count.
///
/// # Panics
///
/// Panics if there are no rows.
#[inline(always)]
fn sweep<const N: usize>(quads: &[[Row; 4]], ranks: [i32; N]) -> [Cut; N] {
    // `t` is the largest key with at most `rank` keys below it, found
    // from the top bit down; `i32::MIN` has nothing below it. Offset by
    // `i32::MIN` the keys are unsigned, `t` starts at 0 and `t ^ flip`
    // is `t | bit` there.
    let mut cuts = [Cut {
        key: [i32::MIN; HALF],
        below: [0; HALF],
    }; N];
    // Compiled with a zero-row case, the counts live in memory.
    assert!(!quads.is_empty(), "a sweep reads at least one row");
    for bit in (0..32).rev() {
        let flip = (1u32 << bit) as i32;
        let candidate: [[i32; HALF]; N] = per_lane(|i| per_lane(|l| cuts[i].key[l] ^ flip));
        // Four rows per step, each lane's count taking their compares
        // in turn: the compiler vectorises across lanes, one compare and
        // one subtract per row and candidate. A one-row loop is a
        // reduction per lane, which it vectorises across rows instead,
        // over strided loads, several times slower.
        let mut count = [[0i32; HALF]; N];
        for [a, b, c, d] in quads {
            for (count, candidate) in count.iter_mut().zip(&candidate) {
                for l in 0..HALF {
                    for row in [a, b, c, d] {
                        count[l] += i32::from(load(row[l]) < candidate[l]);
                    }
                }
            }
        }
        for (i, (cut, &rank)) in cuts.iter_mut().zip(&ranks).enumerate() {
            for l in 0..HALF {
                let take = count[i][l] <= rank;
                cut.key[l] = if take { candidate[i][l] } else { cut.key[l] };
                cut.below[l] = if take { count[i][l] } else { cut.below[l] };
            }
        }
    }
    cuts
}

/// The tie rule, row by row: which keys of each row survive, given the
/// cut points `lo` of rank `lo_rank` and `hi` of rank `hi_rank`.
#[derive(Clone, Copy)]
struct Trim {
    lo: [i32; HALF],
    hi: [i32; HALF],
    /// Keys equal to `lo` still to be trimmed.
    lo_ties: [i32; HALF],
    /// Keys equal to `hi` still to be kept.
    hi_ties: [i32; HALF],
}

impl Trim {
    #[inline(always)]
    fn new((lo, lo_rank): (Cut, i32), (hi, hi_rank): (Cut, i32)) -> Trim {
        Trim {
            lo: lo.key,
            hi: hi.key,
            lo_ties: per_lane(|l| lo_rank - lo.below[l]),
            hi_ties: per_lane(|l| (hi_rank + 1) - hi.below[l]),
        }
    }

    /// Per lane, whether the next row's key survives: all ones if it
    /// does, zero if not (a lane-wide mask, where a `bool` array would be
    /// packed to bytes and back).
    #[inline(always)]
    fn keeps(&mut self, row: &Row) -> [i32; HALF] {
        let mut kept = [0; HALF];
        for l in 0..HALF {
            let x = load(row[l]);
            let (eq_lo, eq_hi) = (x == self.lo[l], x == self.hi[l]);
            let above_lo = (x > self.lo[l]) | (eq_lo & (self.lo_ties[l] <= 0));
            let below_hi = (x < self.hi[l]) | (eq_hi & (self.hi_ties[l] > 0));
            kept[l] = -i32::from(above_lo & below_hi);
            self.lo_ties[l] -= i32::from(eq_lo);
            self.hi_ties[l] -= i32::from(eq_hi);
        }
        kept
    }
}

/// The weighted mean of each lane's `survivors` survivors in a half
/// tile, in two passes that each apply `trim` afresh: the sample
/// totals, then the fold.
///
/// Every loop here works on 32-bit lanes only, so the compiler runs it
/// at the full vector width: the `u64` sample totals are kept as two
/// `u32` halves with a carry, and converted once per lane.
#[inline(always)]
fn weighted_mean(keys: &[Row], samples: &[u64], trim: Trim, survivors: f32) -> [f32; HALF] {
    let (mut total_lo, mut total_hi) = ([0u32; HALF], [0u32; HALF]);
    let mut rows = trim;
    for (row, &s) in keys.iter().zip(samples) {
        let (s_lo, s_hi) = (s as u32, (s >> 32) as u32);
        let kept = rows.keeps(row);
        for l in 0..HALF {
            let sum = total_lo[l].wrapping_add(s_lo & kept[l] as u32);
            let carry = u32::from(sum < total_lo[l]);
            total_lo[l] = sum;
            total_hi[l] = total_hi[l].wrapping_add((s_hi & kept[l] as u32) + carry);
        }
    }
    // A survivor's weight is `s / total`, or `1 / survivors` where the
    // survivors carry no samples: as `(s + add) / denominator` either
    // way, since there every survivor's `s` is 0 and `add` is 1, and
    // elsewhere `add` is +0.0 and `s + 0.0 = s`.
    let total: [u64; HALF] = per_lane(|l| u64::from(total_hi[l]) << 32 | u64::from(total_lo[l]));
    let add: [f32; HALF] = per_lane(|l| if total[l] > 0 { 0.0 } else { 1.0 });
    let denominator: [f32; HALF] = per_lane(|l| {
        if total[l] > 0 {
            total[l] as f32
        } else {
            survivors
        }
    });
    let mut acc = [0.0f32; HALF];
    let mut rows = trim;
    for (row, &s) in keys.iter().zip(samples) {
        let s = s as f32;
        let kept = rows.keeps(row);
        for l in 0..HALF {
            let sum = acc[l] + (s + add[l]) / denominator[l] * value(load(row[l]));
            acc[l] = if kept[l] != 0 { sum } else { acc[l] };
        }
    }
    acc
}

/// Reduces one tile: `runs` yields each update's values at the tile's
/// coordinates, in cohort order, and `out[j]` receives coordinate `j`'s
/// reduction after the `g` smallest and `g` largest values are trimmed.
///
/// Scratch is the key rows, `⌈k/4⌉·4 · LANES · 4 B`, from the calling
/// thread's [`crate::scratch`] pool.
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
    if let Survivors::WeightedMean(samples) = survivors {
        assert_eq!(samples.len(), k, "one sample count per update");
    }
    let rank = |r: usize| i32::try_from(r).expect("a cohort below 2^31 updates");
    let (lo_rank, hi_rank) = (rank(g), rank(k - g - 1));
    // Each half's key rows, padded to a multiple of four.
    let padded = k.next_multiple_of(4);
    let mut scratch = ScratchVec::take(2 * padded * HALF);
    let keys = scratch.as_chunks_mut::<HALF>().0;
    // The one sweep reads every key row once per bit pass.
    crate::work::count(|w| w.key_rows += 32 * padded);
    let mut reduced = [0.0f32; LANES];
    simd::widest(
        #[inline(always)]
        || {
            // Gather: row `p` of each half is update `p`'s run, as keys,
            // and the rows past the cohort are padding; the lanes past a
            // narrow tile's width hold key 0 and are dropped. (A
            // separate fill of the padding compiles to scatters.)
            let (left, right) = keys.split_at_mut(padded);
            let mut runs = runs;
            for (left, right) in left.iter_mut().zip(right.iter_mut()) {
                let mut row = [store(PAD); LANES];
                if let Some(run) = runs.next() {
                    assert_eq!(run.len(), width, "run length differs from the tile width");
                    row = [store(0); LANES];
                    for (lane, &v) in row.iter_mut().zip(run) {
                        *lane = store(key(load(v)));
                    }
                }
                left.copy_from_slice(&row[..HALF]);
                right.copy_from_slice(&row[HALF..]);
            }
            let halves = reduced.as_chunks_mut::<HALF>().0;
            for (keys, reduced) in keys.chunks_exact(padded).zip(halves) {
                let quads = keys.as_chunks::<4>().0;
                let keys = &keys[..k];
                // One cut point when both ranks meet (an odd cohort's
                // median), else both in the one sweep. Each arm reduces
                // with its own cut points: merged into one value, they
                // would pass through memory.
                *reduced = if lo_rank == hi_rank {
                    let [lo] = sweep(quads, [lo_rank]);
                    match survivors {
                        Survivors::Midpoint => per_lane(|l| value(lo.key[l])),
                        Survivors::WeightedMean(samples) => {
                            let trim = Trim::new((lo, lo_rank), (lo, hi_rank));
                            weighted_mean(keys, samples, trim, 1.0)
                        }
                    }
                } else {
                    let [lo, hi] = sweep(quads, [lo_rank, hi_rank]);
                    match survivors {
                        Survivors::Midpoint => {
                            per_lane(|l| (value(lo.key[l]) + value(hi.key[l])) * 0.5)
                        }
                        Survivors::WeightedMean(samples) => {
                            let trim = Trim::new((lo, lo_rank), (hi, hi_rank));
                            weighted_mean(keys, samples, trim, (k - 2 * g) as f32)
                        }
                    }
                };
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
        let keys: Vec<Row> = (0..8)
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
                let [cut] = sweep(keys, [r as i32]);
                assert_eq!(cut.key[l], want, "lane {l} rank {r}");
                assert_eq!(
                    cut.below[l],
                    column.iter().filter(|&&x| x < want).count() as i32
                );
            }
        }
    }

    /// Runs `f` inside the kernel's trampoline on `tier`, checking that
    /// the tier reached it.
    fn on_tier<R>(tier: simd::Kernel, f: impl FnOnce() -> R) -> R {
        let settings = crate::Settings {
            kernel: tier,
            ..crate::Settings::current()
        };
        settings.scope(|| {
            let mut out = None;
            simd::widest(
                #[inline(always)]
                || {
                    assert_eq!(simd::active(), tier);
                    out = Some(f());
                },
            );
            out.expect("the trampoline runs its closure")
        })
    }

    /// Lane `l`'s value in row `p` of a `k`-row edge cohort: distinct
    /// values, one tie throughout, signed zeros and infinities and both
    /// NaN signs, two values, and a few values with ties everywhere.
    fn edge_value(k: usize, p: usize, l: usize) -> f32 {
        const SPECIALS: [f32; 6] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let mix = (p * 7_919 + l * 104_729) % 1_009;
        match l % 5 {
            0 => (mix as f32 - 504.0) * 0.25,
            1 => 3.5,
            2 => SPECIALS[(p + l) % SPECIALS.len()],
            3 if p < k / 2 => -1.0,
            3 => 1.0,
            _ => (mix % 4) as f32 - 1.5,
        }
    }

    #[test]
    fn one_sweep_for_two_cuts_is_two_sweeps_and_a_sort() {
        for tier in simd::available() {
            for k in [1usize, 2, 3, 5, 199, 200] {
                let padded = k.next_multiple_of(4);
                let rows: Vec<Row> = (0..padded)
                    .map(|p| {
                        std::array::from_fn(|l| {
                            let bits = edge_value(k, p, l).to_bits() as i32;
                            store(if p < k { key(bits) } else { PAD })
                        })
                    })
                    .collect();
                let quads = rows.as_chunks::<4>().0;
                let sorted: Vec<Vec<i32>> = (0..HALF)
                    .map(|l| {
                        let mut lane: Vec<i32> = rows[..k].iter().map(|r| load(r[l])).collect();
                        lane.sort_unstable();
                        lane
                    })
                    .collect();
                // Every trim of the cohort, the median ranks among them,
                // and every rank paired with itself.
                let pairs = (0..k.div_ceil(2))
                    .map(|g| (g, k - g - 1))
                    .chain((0..k).map(|r| (r, r)));
                for (lo, hi) in pairs {
                    let (lo, hi) = (lo as i32, hi as i32);
                    let ([lo_cut, hi_cut], [one_lo], [one_hi]) = on_tier(tier, || {
                        (
                            sweep(quads, [lo, hi]),
                            sweep(quads, [lo]),
                            sweep(quads, [hi]),
                        )
                    });
                    for (cut, one, rank) in [(lo_cut, one_lo, lo), (hi_cut, one_hi, hi)] {
                        assert_eq!((cut.key, cut.below), (one.key, one.below), "{tier:?} k {k}");
                        for (l, lane) in sorted.iter().enumerate() {
                            let want = lane[rank as usize];
                            let below = lane.partition_point(|&x| x < want) as i32;
                            assert_eq!(
                                (cut.key[l], cut.below[l]),
                                (want, below),
                                "{tier:?} k {k} rank {rank} lane {l}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_tile_reads_every_key_row_once_per_bit_pass() {
        let tile = |k: usize| -> Vec<[f32; LANES]> {
            (0..k)
                .map(|p| std::array::from_fn(|l| edge_value(k, p, l)))
                .collect()
        };
        let samples = vec![3u64; 200];
        let cohort = tile(200);
        // Both trim cuts of 200 updates in one sweep: 32 passes over 200
        // rows, where one search per cut read 12 800.
        let weighted = crate::work::measure(&|| {
            let mut out = [0.0; LANES];
            reduce_tile(
                cohort.iter().map(|r| &r[..]),
                60,
                Survivors::WeightedMean(&samples),
                &mut out,
            );
        });
        assert_eq!(weighted.key_rows, 6_400);
        // An odd cohort's median is one cut: 199 rows padded to 200.
        let odd = tile(199);
        let median = crate::work::measure(&|| {
            let mut out = [0.0; LANES];
            reduce_tile(
                odd.iter().map(|r| &r[..]),
                99,
                Survivors::Midpoint,
                &mut out,
            );
        });
        assert_eq!(median.key_rows, 6_400);
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
