//! Property battery: robust aggregation sinks are completion-order
//! invariant to the bit.
//!
//! The coordinator absorbs uploads in ascending task order behind a
//! reorder buffer, no matter when each upload physically completes.
//! These tests replay that dispatch discipline against every
//! [`RobustSink`] variant and pin the determinism contract from the
//! module docs: for any cohort, any completion-order permutation, and
//! any `max_in_flight` window, the aggregate is 0-ULP identical to a
//! straight task-order fold — and `TrimmedMean { trim: 0 }` replays
//! the plain [`FedAvgSink`] exactly, bit for bit.
//!
//! Those compare the sinks with themselves. The second half holds the
//! buffering sinks to an independent reference: the naive
//! sort-everything rule, kept here as the oracle, over cohorts, tensor
//! lengths and values chosen to hit tile edges, ties, signed zeros and
//! non-finite uploads, on every kernel tier.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ft_fedsim::sink::{
    ClientUpdate, FedAvgSink, RobustAggregation, RobustSink, RoundManifest, TaskSpec, UpdateSink,
};
use ft_tensor::simd::{self, Kernel};
use ft_tensor::{pool, Settings, Tensor};

/// Per-task weights + sample counts.
type Cohort = Vec<(Vec<Tensor>, u64)>;

fn manifest_specs(updates: &Cohort) -> Vec<TaskSpec> {
    updates
        .iter()
        .enumerate()
        .map(|(i, (_, n))| TaskSpec {
            task: i,
            client: i,
            samples: *n,
        })
        .collect()
}

/// Streams a cohort through `sink`, replaying the engine's dispatch
/// discipline: tasks run in windows of `max_in_flight`; within a
/// window, uploads *complete* in the given permutation order and sit
/// in a reorder buffer until the contiguous task-order prefix can be
/// absorbed (every sink rejects anything else).
fn stream_through(
    sink: &mut RobustSink,
    updates: &Cohort,
    completion: &[usize],
    max_in_flight: usize,
) -> Option<Vec<Tensor>> {
    let specs = manifest_specs(updates);
    sink.begin_round(&RoundManifest {
        round: 0,
        tasks: &specs,
    })
    .unwrap();

    let mut buffered: BTreeMap<usize, ClientUpdate> = BTreeMap::new();
    let mut cursor = 0usize;
    let window_of = |task: usize| task / max_in_flight;
    for wnd in 0..updates.len().div_ceil(max_in_flight) {
        for &task in completion.iter().filter(|&&t| window_of(t) == wnd) {
            buffered.insert(
                task,
                ClientUpdate {
                    task,
                    client: task,
                    samples: updates[task].1,
                    weights: updates[task].0.clone(),
                    delta: Vec::new(),
                },
            );
            while let Some(u) = buffered.remove(&cursor) {
                sink.absorb(u).unwrap();
                cursor += 1;
            }
        }
    }
    assert!(buffered.is_empty(), "every upload must have been absorbed");
    sink.finish().unwrap();
    sink.take_average()
}

/// The reference fold: the same sink family, absorbed in plain task
/// order with an unbounded window.
fn task_order_fold(spec: RobustAggregation, updates: &Cohort) -> Option<Vec<Tensor>> {
    let identity: Vec<usize> = (0..updates.len()).collect();
    let mut sink = RobustSink::new(spec);
    stream_through(&mut sink, updates, &identity, updates.len().max(1))
}

fn bits(tensors: &[Tensor]) -> Vec<u32> {
    tensors
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// A cohort, a completion-order permutation of it, and an in-flight
/// cap — same generator shape as `streaming_fold.rs`.
fn cohort() -> impl Strategy<Value = (Cohort, Vec<usize>, usize)> {
    (1usize..=10).prop_flat_map(|n| {
        let one_update = (proptest::collection::vec(-1000i32..1000, 3 + 4), 0u64..500).prop_map(
            |(vals, samples)| {
                // Eighth-steps keep values exact in f32 while still
                // exercising non-trivial rounding in the fold itself.
                let f: Vec<f32> = vals.iter().map(|&v| v as f32 * 0.125).collect();
                let t1 = Tensor::from_vec(f[..3].to_vec(), &[3]).unwrap();
                let t2 = Tensor::from_vec(f[3..].to_vec(), &[4]).unwrap();
                (vec![t1, t2], samples)
            },
        );
        (
            proptest::collection::vec(one_update, n),
            proptest::collection::vec(0u64..u64::MAX, n),
            1usize..=n + 2,
        )
            .prop_map(|(updates, keys, max_in_flight)| {
                // Argsort of random keys: a uniform completion-order
                // permutation (the vendored proptest has no shuffle).
                let mut perm: Vec<usize> = (0..keys.len()).collect();
                perm.sort_by_key(|&i| (keys[i], i));
                (updates, perm, max_in_flight)
            })
    })
}

/// Every sink family plus a swept parameter: 0 = FedAvg, 1 = NormClip
/// (tau in quarter-steps), 2 = TrimmedMean (trim in hundredths,
/// including the 0 degenerate case), 3 = CoordinateMedian. The vendored
/// proptest has no `prop_oneof`, so the variant is an index.
fn spec() -> impl Strategy<Value = RobustAggregation> {
    (0usize..4, 1u32..=64, 0u32..50).prop_map(|(variant, tau_q, trim_pct)| match variant {
        0 => RobustAggregation::FedAvg,
        1 => RobustAggregation::NormClip {
            tau: f64::from(tau_q) * 0.25,
        },
        2 => RobustAggregation::TrimmedMean {
            trim: f64::from(trim_pct) / 100.0,
        },
        _ => RobustAggregation::CoordinateMedian,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline invariant: for every sink family and parameter,
    /// the aggregate is independent of upload completion order and of
    /// the in-flight window size — 0 ULP, same NaN/zero signs.
    #[test]
    fn robust_sinks_are_completion_order_invariant(
        (updates, completion, max_in_flight) in cohort(),
        spec in spec(),
    ) {
        let reference = task_order_fold(spec, &updates);
        let mut sink = RobustSink::new(spec);
        let streamed = stream_through(&mut sink, &updates, &completion, max_in_flight);
        match (reference, streamed) {
            (None, None) => {}
            (Some(r), Some(s)) => prop_assert_eq!(bits(&r), bits(&s)),
            (r, s) => prop_assert!(
                false,
                "presence mismatch under {:?}: task-order {:?} vs streamed {:?}",
                spec,
                r.is_some(),
                s.is_some()
            ),
        }
    }

    /// `TrimmedMean { trim: 0 }` is not merely close to FedAvg — it
    /// replays the exact `axpy(samples/total)` sequence, so the result
    /// is bitwise identical to [`FedAvgSink`] under any completion
    /// order.
    #[test]
    fn trim_zero_replays_fedavg_exactly(
        (updates, completion, max_in_flight) in cohort(),
    ) {
        let specs = manifest_specs(&updates);
        let mut plain = FedAvgSink::single();
        plain
            .begin_round(&RoundManifest { round: 0, tasks: &specs })
            .unwrap();
        for (task, (weights, samples)) in updates.iter().enumerate() {
            plain
                .absorb(ClientUpdate {
                    task,
                    client: task,
                    samples: *samples,
                    weights: weights.clone(),
                    delta: Vec::new(),
                })
                .unwrap();
        }
        plain.finish().unwrap();
        let reference = plain.take_average();

        let mut trimmed = RobustSink::new(RobustAggregation::TrimmedMean { trim: 0.0 });
        let streamed = stream_through(&mut trimmed, &updates, &completion, max_in_flight);
        match (reference, streamed) {
            (None, None) => {}
            (Some(r), Some(s)) => prop_assert_eq!(bits(&r), bits(&s)),
            (r, s) => prop_assert!(
                false,
                "presence mismatch: fedavg {:?} vs trim-0 {:?}",
                r.is_some(),
                s.is_some()
            ),
        }
    }
}

/// All four sink families, with representative parameters, for the
/// edge-case sweeps below.
fn all_specs() -> Vec<RobustAggregation> {
    vec![
        RobustAggregation::FedAvg,
        RobustAggregation::NormClip { tau: 2.0 },
        RobustAggregation::TrimmedMean { trim: 0.25 },
        RobustAggregation::CoordinateMedian,
    ]
}

#[test]
fn empty_round_yields_no_aggregate_for_every_sink() {
    for spec in all_specs() {
        let mut sink = RobustSink::new(spec);
        let out = stream_through(&mut sink, &Vec::new(), &[], 1);
        assert!(out.is_none(), "{spec:?} must yield None on an empty round");
    }
}

#[test]
fn single_client_round_passes_the_lone_update_through() {
    let w = vec![Tensor::from_vec(vec![0.5, -1.25, 3.0], &[3]).unwrap()];
    let updates: Cohort = vec![(w.clone(), 10)];
    // NormClip with a generous tau, trimmed mean (k=1 forces g=0), and
    // the median of one value all degenerate to that single update.
    for spec in [
        RobustAggregation::FedAvg,
        RobustAggregation::NormClip { tau: 1e9 },
        RobustAggregation::TrimmedMean { trim: 0.4 },
        RobustAggregation::CoordinateMedian,
    ] {
        let mut sink = RobustSink::new(spec);
        let out = stream_through(&mut sink, &updates, &[0], 1).expect("one update");
        assert_eq!(bits(&out), bits(&w), "{spec:?} must return the lone update");
    }
}

#[test]
fn unanimous_byzantine_cohort_is_deterministic_not_magical() {
    // When *every* client is corrupted the same way, no aggregation
    // rule can recover the honest value — robustness only bounds the
    // damage a minority can do. What the sinks still owe us is a
    // deterministic, completion-order-invariant answer: here, the
    // corrupted value itself.
    let poisoned = vec![Tensor::from_vec(vec![-8.0, -8.0], &[2]).unwrap()];
    let updates: Cohort = (0..5).map(|_| (poisoned.clone(), 7)).collect();
    for spec in [
        RobustAggregation::TrimmedMean { trim: 0.3 },
        RobustAggregation::CoordinateMedian,
    ] {
        let reference = task_order_fold(spec, &updates);
        let out = reference.expect("non-empty round");
        assert_eq!(
            bits(&out),
            bits(&poisoned),
            "{spec:?} must converge on the unanimous (poisoned) value"
        );
        // Reversed completion order lands on the same bits.
        let mut sink = RobustSink::new(spec);
        let reversed: Vec<usize> = (0..5).rev().collect();
        let streamed = stream_through(&mut sink, &updates, &reversed, 5).expect("non-empty");
        assert_eq!(bits(&streamed), bits(&out));
    }
}

// ---------------------------------------------------------------------
// Independent oracle for the buffering sinks
// ---------------------------------------------------------------------

/// Per-coordinate order of a cohort's values: ascending by `total_cmp`,
/// ties by task position. A full sort of indices — the rule the
/// sinks' selection kernel must be indistinguishable from.
fn naive_order(column: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..column.len()).collect();
    order.sort_by(|&a, &b| column[a].total_cmp(&column[b]).then(a.cmp(&b)));
    order
}

fn naive_trimmed_mean(column: &[f32], samples: &[u64], g: usize) -> f32 {
    let order = naive_order(column);
    let mut survivors = order[g..column.len() - g].to_vec();
    // Survivors fold in task order, never sorted order.
    survivors.sort_unstable();
    let total: u64 = survivors.iter().map(|&p| samples[p]).sum();
    let mut acc = 0.0f32;
    if total > 0 {
        for &p in &survivors {
            acc += (samples[p] as f32 / total as f32) * column[p];
        }
    } else {
        let inv = 1.0 / survivors.len() as f32;
        for &p in &survivors {
            acc += inv * column[p];
        }
    }
    acc
}

fn naive_median(column: &[f32]) -> f32 {
    let order = naive_order(column);
    let k = column.len();
    let hi = column[order[k / 2]];
    if k % 2 == 1 {
        hi
    } else {
        (column[order[k / 2 - 1]] + hi) * 0.5
    }
}

fn trim_count(trim: f64, k: usize) -> usize {
    ((trim * k as f64).floor() as usize).min((k - 1) / 2)
}

/// The reference aggregate of a buffering rule, coordinate by
/// coordinate. `None` where the sinks owe none: the empty round, and
/// the untrimmed zero-weight round (the FedAvg contract `trim = 0`
/// replays).
fn oracle(spec: RobustAggregation, updates: &Cohort) -> Option<Vec<Tensor>> {
    let (first, _) = updates.first()?;
    let k = updates.len();
    let samples: Vec<u64> = updates.iter().map(|(_, n)| *n).collect();
    let g = match spec {
        RobustAggregation::TrimmedMean { trim } => trim_count(trim, k),
        _ => 0,
    };
    if matches!(spec, RobustAggregation::TrimmedMean { .. })
        && g == 0
        && samples.iter().sum::<u64>() == 0
    {
        return None;
    }
    let reduced = first.iter().enumerate().map(|(ti, t)| {
        let data: Vec<f32> = (0..t.len())
            .map(|j| {
                let column: Vec<f32> = updates.iter().map(|(w, _)| w[ti].data()[j]).collect();
                match spec {
                    RobustAggregation::TrimmedMean { .. } => {
                        naive_trimmed_mean(&column, &samples, g)
                    }
                    RobustAggregation::CoordinateMedian => naive_median(&column),
                    other => panic!("{other:?} is not a buffering rule"),
                }
            })
            .collect();
        Tensor::from_vec(data, t.shape().dims()).unwrap()
    });
    Some(reduced.collect())
}

/// Bit patterns with every NaN collapsed to one: Rust leaves the sign
/// and payload of a NaN *produced by arithmetic* unspecified (the
/// compiler may commute `a + b`), so two correct folds may differ
/// there and nowhere else.
fn bits_nan_canonical(tensors: &[Tensor]) -> Vec<u32> {
    bits(tensors)
        .into_iter()
        .map(|b| {
            if f32::from_bits(b).is_nan() {
                f32::NAN.to_bits()
            } else {
                b
            }
        })
        .collect()
}

fn assert_matches_oracle(spec: RobustAggregation, updates: &Cohort) -> Option<Vec<Tensor>> {
    let got = task_order_fold(spec, updates);
    let want = oracle(spec, updates);
    match (&got, &want) {
        (None, None) => {}
        (Some(g), Some(w)) => assert_eq!(
            bits_nan_canonical(g),
            bits_nan_canonical(w),
            "{spec:?} over {} updates",
            updates.len()
        ),
        _ => panic!(
            "{spec:?}: sink aggregate present = {}, oracle present = {}",
            got.is_some(),
            want.is_some()
        ),
    }
    got
}

/// Tensor lengths straddling the kernel's 32-coordinate tile: a lone
/// coordinate, one short of a tile, exactly one, one over, two and one
/// over, and the 64-coordinate tile's edges.
const ORACLE_LENS: [usize; 7] = [1, 31, 32, 33, 64, 65, 129];

const NEG_NAN: f32 = f32::from_bits(0xffc0_0000);
const SPECIALS: [f32; 6] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    NEG_NAN,
];

/// One uploaded value. `mode` picks the case's flavour: 0 = finite
/// eighth-steps, 1 = five distinct values and signed zeros (heavy
/// ties), 2 = eighth-steps with a sprinkle of specials (a non-finite
/// minority), 3 = ties with a third specials (non-finite survivors).
fn oracle_value(mode: u32, pick: u32, raw: i32) -> f32 {
    let eighths = raw as f32 * 0.125;
    let tied = (raw.rem_euclid(5) - 2) as f32 * 0.5;
    let special = SPECIALS[raw.rem_euclid(6) as usize];
    match mode {
        0 => eighths,
        1 if pick < 12 => SPECIALS[(pick % 2) as usize],
        1 => tied,
        2 if pick < 3 => special,
        2 => eighths,
        _ if pick < 16 => special,
        _ => tied,
    }
}

/// Cohorts of 1..=48 updates of five tensors each ([`ORACLE_LENS`]),
/// with sample counts all zero, mixed zero/non-zero, or all non-zero.
fn oracle_cohort() -> impl Strategy<Value = Cohort> {
    let coords: usize = ORACLE_LENS.iter().sum();
    (1usize..=48, 0u32..4, 0u32..3).prop_flat_map(move |(n, value_mode, sample_mode)| {
        let one_update = (
            proptest::collection::vec((0u32..48, -1000i32..1000), coords),
            0u32..2,
            1u64..500,
        )
            .prop_map(move |(draws, coin, count)| {
                let mut values = draws
                    .iter()
                    .map(|&(pick, raw)| oracle_value(value_mode, pick, raw));
                let tensors = ORACLE_LENS
                    .iter()
                    .map(|&len| {
                        Tensor::from_vec(values.by_ref().take(len).collect(), &[len]).unwrap()
                    })
                    .collect();
                let samples = match sample_mode {
                    0 => 0,
                    1 => count * u64::from(coin),
                    _ => count,
                };
                (tensors, samples)
            });
        proptest::collection::vec(one_update, n)
    })
}

/// Runs `f` on `tier`, first checking that the tier reached this
/// thread and a pool task.
fn on_tier<R>(tier: Kernel, f: impl FnOnce() -> R) -> R {
    let settings = Settings {
        kernel: tier,
        ..Settings::current()
    };
    settings.scope(|| {
        assert_eq!(simd::active(), tier);
        pool::parallel_for(2, &|_| assert_eq!(simd::active(), tier));
        f()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The rank-search kernel is the naive rule, to the bit, for every
    /// trim fraction and for the median, on every kernel tier.
    #[test]
    fn buffering_sinks_match_the_naive_oracle(
        updates in oracle_cohort(),
        trim_pct in 0u32..50,
    ) {
        let trim = f64::from(trim_pct) / 100.0;
        for tier in simd::available() {
            on_tier(tier, || {
                assert_matches_oracle(RobustAggregation::TrimmedMean { trim }, &updates);
                assert_matches_oracle(RobustAggregation::CoordinateMedian, &updates);
            });
        }
    }
}

/// Updates in the benchmark's cohort: `trim = 0.3` cuts at ranks 60
/// and 139, the median at 99 and 100.
const FLEET: usize = 200;

/// Update `p`'s value at coordinate `j` of the [`fleet`] cohort. Each
/// coordinate places its values by a permutation of the positions
/// (`slot`), so tied values sit at scattered positions, and takes one
/// of five shapes:
///
/// 0. runs of ties straddling both trim cuts (`T` among 30 tied keys at
///    ranks 50–79, `U` among 50 at ranks 120–169);
/// 1. `T = U`: 150 tied keys at ranks 25–174, so both cuts and both
///    median ranks land in one run;
/// 2. the 60 weighted updates all at one end, so every survivor has
///    zero samples and the mean is uniform;
/// 3. signed zeros and specials, tied across both cuts;
/// 4. eighth-steps over a narrow range: ties everywhere.
fn fleet_value(j: usize, p: usize) -> f32 {
    let slot = (p * 77 + j * 31) % FLEET;
    let eighths = ((p * 37 + j * 11) % 23) as f32 * 0.125 - 1.0;
    match j % 5 {
        0 => match slot {
            0..50 => -2.0,
            50..80 => -1.0,
            80..120 => eighths,
            120..170 => 1.0,
            _ => 2.0,
        },
        1 => match slot {
            0..25 => -8.0 - eighths,
            25..175 => 0.5,
            _ => 8.0 + eighths,
        },
        2 if fleet_samples(p) > 0 => -1000.0,
        2 => p as f32 * 0.25,
        3 => SPECIALS[slot * SPECIALS.len() / FLEET],
        _ => eighths,
    }
}

/// Sample counts of the [`fleet`] cohort: 140 updates carry none.
fn fleet_samples(p: usize) -> u64 {
    if p % 10 < 7 {
        0
    } else {
        (p % 13 + 1) as u64
    }
}

/// A deterministic cohort of the benchmark's size, over every
/// [`ORACLE_LENS`] tensor.
fn fleet() -> Cohort {
    (0..FLEET)
        .map(|p| {
            let mut j = 0;
            let tensors = ORACLE_LENS
                .iter()
                .map(|&len| {
                    let values = (j..j + len).map(|j| fleet_value(j, p)).collect();
                    j += len;
                    Tensor::from_vec(values, &[len]).unwrap()
                })
                .collect();
            (tensors, fleet_samples(p))
        })
        .collect()
}

/// The proptest stops at 48 updates; the benchmark aggregates 200. Its
/// cuts fall inside tie runs, and which tied positions survive decides
/// the weighted mean.
#[test]
fn a_benchmark_sized_cohort_with_ties_at_both_cuts_matches_the_oracle() {
    let updates = fleet();
    for tier in simd::available() {
        on_tier(tier, || {
            assert_matches_oracle(RobustAggregation::TrimmedMean { trim: 0.3 }, &updates);
            assert_matches_oracle(RobustAggregation::CoordinateMedian, &updates);
        });
    }
}

/// Ten clients, one coordinate, 10 samples each; `trim = 0.2` drops
/// two values per end.
fn ten_clients(values: [f32; 10]) -> Cohort {
    values
        .iter()
        .map(|&v| (vec![Tensor::from_vec(vec![v], &[1]).unwrap()], 10))
        .collect()
}

#[test]
fn a_non_finite_minority_is_trimmed_and_a_surviving_one_propagates() {
    let trimmed = RobustAggregation::TrimmedMean { trim: 0.2 };
    let scalar = |spec, values| {
        let out = assert_matches_oracle(spec, &ten_clients(values)).expect("non-empty round");
        out[0].data()[0]
    };
    const INF: f32 = f32::INFINITY;
    const NAN: f32 = f32::NAN;
    // Non-finite uploads sort to the ends under `total_cmp` (-NaN and
    // -Inf lowest, +Inf and +NaN highest) and are the first to go: up
    // to g = 2 per end leave the mean finite.
    for minority in [
        [1.0, NAN, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], // fewer than g
        [1.0, NAN, 2.0, 3.0, INF, 5.0, 6.0, 7.0, 8.0, 9.0], // g, one end
        [NEG_NAN, -INF, 2.0, 3.0, INF, NAN, 6.0, 7.0, 8.0, 9.0], // g at each end
    ] {
        let mean = scalar(trimmed, minority);
        assert!(mean.is_finite(), "{minority:?} -> {mean}");
    }
    // One more than g at one end: the innermost survives the trim and
    // the mean is whatever IEEE makes of it — still the oracle's value.
    let poisoned = [1.0, INF, 2.0, NAN, INF, 5.0, 6.0, 7.0, 8.0, 9.0];
    assert_eq!(scalar(trimmed, poisoned), INF);
    let poisoned = [1.0, NAN, 2.0, NAN, NAN, 5.0, 6.0, 7.0, 8.0, 9.0];
    assert!(scalar(trimmed, poisoned).is_nan());
    // The median is the g = (k - 1) / 2 case: four non-finite uploads
    // on one side cannot reach the two central values, five can.
    let minority = [INF, NAN, 2.0, 3.0, INF, 5.0, 6.0, 7.0, NAN, 9.0];
    assert_eq!(scalar(RobustAggregation::CoordinateMedian, minority), 8.0);
    let half = [INF, NAN, 2.0, 3.0, INF, 5.0, INF, 7.0, NAN, 9.0];
    assert_eq!(scalar(RobustAggregation::CoordinateMedian, half), INF);
}
