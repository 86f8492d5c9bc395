//! The bulk normal fill against the `rand_distr` shim's
//! `Normal::<f32>::sample`, bit for bit and word for word, on every
//! kernel tier this host has, on the calling thread and in a pool task.
//!
//! The SIMD tiers keep a polynomial `ln`/`cos` value only where their
//! guard proves it rounds to libm's `f32`. Random draws exercise the
//! common lanes; boundary words put `u1` at the ends of `(0, 1]` and
//! `τ·u2` next to each multiple of `π/2`; and a table of word pairs
//! whose libm value lies next to an `f32` rounding midpoint must each
//! take libm's path.

use ft_tensor::normals::{self, WORDS_PER_NORMAL};
use ft_tensor::simd::{self, Kernel};
use ft_tensor::{pool, work, Settings};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rand_distr::{Distribution, Normal};

/// `(mean, deviation)`: the generator's four deviations, a unit one, a
/// zero one, a mean the values can cancel against, and a deviation that
/// carries many values past the guard's `2¹⁰⁰`.
const CASES: [(f32, f32); 7] = [
    (0.0, 0.8),
    (0.0, 0.35),
    (0.0, 1.0),
    (0.0, 2.2),
    (0.0, 0.0),
    (3.0, 2.0),
    (0.0, 1e30),
];

/// Random draws per case.
const DRAWS: usize = 1 << 20;

/// Word pairs whose libm value lies within 64 f64 ULPs of an `f32`
/// rounding midpoint (the distance is in each comment), as
/// `(mean, deviation, w1, w2)`. The fast value of each is as close, so
/// the guard must send every one to libm. The pairs marked `flips` are
/// ones whose fast value rounds to the other `f32`.
const NEAR_MIDPOINT: [(f32, f32, u64, u64); 22] = [
    (0.0, 0.8, 0x0616_917d_61ac_fdb1, 0xfa5d_9b8a_ca31_aef5), // 21
    (0.0, 0.8, 0x2e8a_dffc_ef5d_7a46, 0x9be0_4a86_c7ec_0bdc), // 64
    (0.0, 0.8, 0x675f_e4b7_3a36_dd05, 0xe69b_0bd5_0250_6504), // 63
    (0.0, 0.8, 0x491c_e329_dfe9_a49c, 0x0156_1c0a_9f0f_8e87), // 29
    (0.0, 0.35, 0x68f9_fbd4_316d_f169, 0x67c2_2c75_cdba_e088), // 47
    (0.0, 0.35, 0xfb4c_b2e6_f34e_f044, 0x9467_30ae_f671_da10), // 29
    (0.0, 0.35, 0xa1db_15fd_ab54_259f, 0x2ffc_3f8b_3986_d59f), // 33
    (0.0, 0.35, 0xfc68_09ea_936e_0581, 0x438e_3ac7_0a4a_196a), // 9
    (0.0, 1.0, 0x0dda_3443_4c65_54d6, 0x67da_e120_0a0d_0e1d), // 46
    (0.0, 1.0, 0x0fdc_9e78_afcb_67c2, 0xecd2_7dbd_c473_b2a7), // 31
    (0.0, 1.0, 0x973e_6a49_a62b_9820, 0x5d98_d317_308f_1c39), // 28
    (0.0, 1.0, 0x3f14_9860_7146_9058, 0x7df4_8b25_b95e_fb2f), // 30
    (0.0, 2.2, 0xb720_ba6f_eca7_986f, 0x9275_3e78_8040_7684), // 36
    (0.0, 2.2, 0x4029_50ae_4846_a290, 0xa917_1e77_25d1_5078), // 3
    (0.0, 2.2, 0x2921_d885_a8ac_60b2, 0xea69_bf42_fb87_578b), // 46
    (0.0, 2.2, 0x4443_48e1_72d5_3aea, 0xb27c_b10c_f923_b37a), // 5
    (3.0, 2.0, 0x2373_4fab_7019_04e8, 0x91c7_b6b5_fa15_5c19), // 16
    (3.0, 2.0, 0x0f72_0141_8042_26cd, 0xf9f2_4098_25d5_11b0), // 58
    (3.0, 2.0, 0x47bd_838a_cb8f_bf14, 0xe053_b5f6_7116_98c3), // 60
    (3.0, 2.0, 0xf3f5_45e6_4c30_e459, 0x4391_296a_7589_897f), // 18
    (0.0, 0.8, 0x28e8_39c4_1fb7_f999, 0xb345_8350_de1e_0ae7), // 1, flips
    (0.0, 1.0, 0x0045_f64a_6a7f_8771, 0xcb2c_c720_687b_afc0), // 1, flips
];

/// Replays a fixed sequence of words.
struct Replay {
    words: Vec<u64>,
    at: usize,
}

fn replay(words: &[u64]) -> Replay {
    Replay {
        words: words.to_vec(),
        at: 0,
    }
}

impl RngCore for Replay {
    fn next_u64(&mut self) -> u64 {
        let w = self.words[self.at];
        self.at += 1;
        w
    }
}

/// The word whose uniform is `q·2⁻⁵³`, `1 ≤ q ≤ 2⁵³`.
fn word(q: u64) -> u64 {
    (q - 1) << 11
}

/// `n` normals drawn one by one through the shim.
fn reference(rng: &mut impl RngCore, mean: f32, sd: f32, n: usize) -> Vec<u32> {
    let normal = Normal::new(mean, sd).expect("a finite, non-negative deviation");
    (0..n).map(|_| normal.sample(rng).to_bits()).collect()
}

/// `n` normals through the fill, in calls whose lengths cycle through
/// block and batch edges.
fn filled(rng: &mut impl RngCore, mean: f32, sd: f32, n: usize) -> Vec<u32> {
    let lengths = [1, 7, 8, 9, 48, 63, 64, 65, 130, 768];
    let mut out = vec![0.0f32; n];
    let mut rest = &mut out[..];
    for len in lengths.into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at_mut(len.min(rest.len()));
        normals::fill(rng, mean, sd, head);
        rest = tail;
    }
    out.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` under every tier this host has, on this thread and as one
/// task of a pool fan-out.
fn on_every_tier(f: impl Fn(Kernel) + Sync) {
    for kernel in simd::available() {
        let settings = Settings {
            kernel,
            ..Settings::current()
        };
        settings.scope(|| {
            f(kernel);
            pool::parallel_for(2, &|i| {
                if i == 0 {
                    f(kernel);
                }
            });
        });
    }
}

/// The first index where `got` and `want` differ, for the message.
fn first_difference(got: &[u32], want: &[u32]) -> Option<(usize, f32, f32)> {
    let i = got.iter().zip(want).position(|(a, b)| a != b)?;
    Some((i, f32::from_bits(got[i]), f32::from_bits(want[i])))
}

#[test]
fn random_draws_match_the_shim() {
    for (case, &(mean, sd)) in CASES.iter().enumerate() {
        let stream = StdRng::seed_from_u64(45 + case as u64);
        let mut shim = stream.clone();
        let want = reference(&mut shim, mean, sd, DRAWS);
        let next = shim.next_u64();
        on_every_tier(|kernel| {
            let mut rng = stream.clone();
            let got = filled(&mut rng, mean, sd, DRAWS);
            assert_eq!(
                first_difference(&got, &want),
                None,
                "{kernel:?}, mean {mean}, sd {sd}: (index, fill, shim)"
            );
            assert_eq!(rng.next_u64(), next, "{kernel:?}: the words drawn");
        });
    }
}

#[test]
fn boundary_words_match_the_shim() {
    let mut rng = StdRng::seed_from_u64(2);
    // u1 = 2⁻⁵³, 1 − 2⁻⁵³ and 1; and 1 − 2⁻¹⁰ on either side.
    let top = 1u64 << 53;
    let u1s = [1, top - 1, top, top - (1 << 43), top - (1 << 43) + 1];
    // τ·u2 within 2⁻³⁰ of k·π/2: u2 = k/4 + d·2⁻⁵³, |d| ≤ 2²⁰.
    let offsets = [
        0i64,
        1,
        -1,
        2,
        -2,
        5,
        -5,
        1 << 10,
        -(1 << 10),
        1 << 20,
        -(1 << 20),
    ];
    let u2s: Vec<u64> = (0..=4i64)
        .flat_map(|k| offsets.map(|d| k * (1 << 51) + d))
        .filter(|&q| (1..=top as i64).contains(&q))
        .map(|q| q as u64)
        .collect();
    let mut words = Vec::new();
    for &q1 in &u1s {
        for _ in 0..16 {
            words.extend([word(q1), rng.next_u64()]);
        }
    }
    for &q2 in &u2s {
        for q1 in u1s {
            words.extend([word(q1), word(q2)]);
        }
        for _ in 0..16 {
            words.extend([rng.next_u64(), word(q2)]);
        }
    }
    let n = words.len() / WORDS_PER_NORMAL;
    for (mean, sd) in CASES {
        let want = reference(&mut replay(&words), mean, sd, n);
        on_every_tier(|kernel| {
            let mut replay = replay(&words);
            let got = filled(&mut replay, mean, sd, n);
            assert_eq!(
                first_difference(&got, &want),
                None,
                "{kernel:?}, mean {mean}, sd {sd}: (index, fill, shim)"
            );
            assert_eq!(replay.at, words.len(), "{kernel:?}: the words drawn");
        });
    }
}

#[test]
fn values_next_to_a_midpoint_take_the_exact_path() {
    for (mean, sd, w1, w2) in NEAR_MIDPOINT {
        let want = reference(&mut replay(&[w1, w2]), mean, sd, 1);
        for kernel in simd::available() {
            let settings = Settings {
                kernel,
                ..Settings::current()
            };
            // `measure` runs the fill as a pool task; the check of the
            // bits runs on this thread.
            let counts = settings.scope(|| {
                work::measure(&|| normals::fill(&mut replay(&[w1, w2]), mean, sd, &mut [0.0]))
            });
            let mut got = [0.0f32];
            settings.scope(|| normals::fill(&mut replay(&[w1, w2]), mean, sd, &mut got));
            assert_eq!(got[0].to_bits(), want[0], "{kernel:?}: {w1:#x}, {w2:#x}");
            assert_eq!(
                (counts.normals, counts.exact_normals),
                (1, 1),
                "{kernel:?}: {w1:#x}, {w2:#x} kept its fast value"
            );
        }
    }
}
