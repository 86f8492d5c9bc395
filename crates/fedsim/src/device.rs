//! Synthetic client device traces.
//!
//! The paper samples hardware capacities from FedScale's trace of 500k
//! real mobile devices, where "the disparity between the most capable
//! and least capable devices exceeds 29×" (§5.1). This module generates
//! a log-uniform capacity spread with the same disparity, plus compute
//! speed and bandwidth figures for the latency model used by Fig. 1a
//! (inference latency distributions) and Table 6 (round times).
//!
//! # Replay, not storage
//!
//! A trace is one `StdRng` stream seeded from the config, consumed
//! device by device in index order, and every device draws a fixed
//! number of words from it (see [`DeviceTrace`]). So a trace holds no
//! profiles: [`DeviceTraceConfig::generate`] walks the stream once,
//! keeping the stream position before every 16th device and the
//! capacity extremes, and [`DeviceTrace::profile`] replays a device
//! from the nearest mark through the same per-device draw the walk
//! stepped over. The profiles are those of one sequential pass, bit
//! for bit.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Devices between two saved stream positions. A mark is 32 bytes, so
/// the trace holds 2 bytes per device, and a lookup replays at most 15
/// devices' words before its own draw.
const MARK_STRIDE: usize = 16;

/// RNG words one normal draw consumes: the `rand_distr` shim's
/// Box–Muller takes two uniforms of one `next_u64` each. The walk skips
/// the speed and bandwidth normals by this count, so it is part of the
/// trace's RNG contract.
const WORDS_PER_NORMAL: usize = 2;

/// One client device's capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Largest model (in MACs per sample) this device will accept.
    /// Models above this are incompatible (§4.2's hard constraint).
    pub capacity_macs: u64,
    /// Compute speed in MACs per second.
    pub speed_macs_per_s: f64,
    /// Network bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl DeviceProfile {
    /// Inference latency in milliseconds for a model of `macs` MACs.
    pub fn inference_latency_ms(&self, macs: u64) -> f64 {
        macs as f64 / self.speed_macs_per_s * 1e3
    }

    /// Whether a model of `macs` MACs is compatible with this device.
    pub fn is_compatible(&self, macs: u64) -> bool {
        macs <= self.capacity_macs
    }
}

/// A population of device profiles, indexed by client id.
///
/// Device `i` draws its capacity, then a speed-jitter normal, then a
/// bandwidth normal. The capacity takes one uniform word under the
/// log-uniform generator (none at the two pinned ends) and one normal
/// under the tiered one, so a device is 4, 5 or 6 words of the stream.
/// The trace keeps the generator's parameters, the stream position
/// before every 16th device (shared, so `Clone` is O(1)) and the exact
/// capacity extremes; [`DeviceTrace::profile`] derives a device on
/// demand, by value.
#[derive(Debug, Clone)]
pub struct DeviceTrace {
    draw: Draw,
    /// `StdRng` state before devices 0, 16, 32, ….
    marks: Arc<[[u64; 4]]>,
    min_capacity: u64,
    max_capacity: u64,
}

/// The per-device draw of both generators, its distributions built
/// (and so validated) once, when the trace is generated.
#[derive(Debug, Clone)]
struct Draw {
    num_devices: usize,
    /// Least capable device's capacity; the tiers' base.
    lo: f64,
    /// Most capable device's capacity (log-uniform generator).
    hi: f64,
    /// `ln(lo)` and `ln(hi) - ln(lo)`: the log-uniform draw's range.
    ln_lo: f64,
    ln_span: f64,
    /// Empty for the log-uniform generator.
    tiers: Arc<[DeviceTier]>,
    tier_jitter: LogNormal<f64>,
    speed_jitter: LogNormal<f64>,
    bandwidth: LogNormal<f64>,
}

impl Draw {
    /// # Panics
    ///
    /// Panics if `cfg.speed_jitter_sigma` is not finite and
    /// non-negative (see [`DeviceTraceConfig::generate`]).
    fn new(cfg: &DeviceTraceConfig, tiers: &[DeviceTier]) -> Self {
        let lo = cfg.base_capacity_macs as f64;
        let hi = lo * cfg.disparity;
        Draw {
            num_devices: cfg.num_devices,
            lo,
            hi,
            ln_lo: lo.ln(),
            ln_span: hi.ln() - lo.ln(),
            tiers: tiers.into(),
            tier_jitter: LogNormal::new(0.0, 0.1).expect("sigma finite"),
            speed_jitter: LogNormal::new(0.0, cfg.speed_jitter_sigma).expect("sigma finite"),
            bandwidth: LogNormal::new(cfg.median_bandwidth.ln(), 0.6).expect("bw finite"),
        }
    }

    /// Words of the stream device `i` draws.
    fn words(&self, i: usize) -> usize {
        let capacity = if !self.tiers.is_empty() {
            WORDS_PER_NORMAL
        } else if i == 0 || i + 1 == self.num_devices {
            0
        } else {
            1
        };
        capacity + 2 * WORDS_PER_NORMAL
    }

    /// Device `i`'s capacity, the first of its draws. Tiered: device
    /// `i` lands in the tier covering position `(i + ½)/n` of the
    /// cumulative weights (normalized; all-zero weights count as 1),
    /// jittered ±10% (log-normal). Log-uniform: the first and last
    /// devices are pinned to the extremes.
    fn capacity(&self, i: usize, rng: &mut StdRng) -> f64 {
        if let Some(last) = self.tiers.last() {
            let total: f64 = self.tiers.iter().map(|t| t.weight.max(0.0)).sum();
            let total = if total > 0.0 { total } else { 1.0 };
            let position = (i as f64 + 0.5) / self.num_devices as f64 * total;
            let mut acc = 0.0f64;
            let tier = self
                .tiers
                .iter()
                .find(|t| {
                    acc += t.weight.max(0.0);
                    position <= acc
                })
                .unwrap_or(last);
            (self.lo * tier.capacity_mult.max(1e-6) * self.tier_jitter.sample(rng)).max(1.0)
        } else if i == 0 {
            self.lo
        } else if i + 1 == self.num_devices {
            self.hi
        } else {
            let u: f64 = rng.gen();
            (self.ln_lo + u * self.ln_span).exp()
        }
    }

    /// Device `i`'s profile, drawn from `rng` positioned at its start.
    fn device(&self, i: usize, rng: &mut StdRng) -> DeviceProfile {
        #[cfg(test)]
        DERIVED.set(DERIVED.get() + 1);
        let capacity = self.capacity(i, rng);
        // Speed scales sub-linearly with capacity plus jitter:
        // capable devices are faster but not proportionally so.
        let speed = capacity.powf(0.85) * 50.0 * self.speed_jitter.sample(rng);
        DeviceProfile {
            capacity_macs: capacity.round() as u64,
            speed_macs_per_s: speed,
            bandwidth_bytes_per_s: self.bandwidth.sample(rng),
        }
    }
}

fn skip(rng: &mut StdRng, words: usize) {
    for _ in 0..words {
        rng.next_u64();
    }
}

impl DeviceTrace {
    /// The walk: one pass over the stream that saves the marks and the
    /// capacity extremes. It draws each capacity (one `exp`, or one
    /// normal when tiered) and skips the speed and bandwidth normals.
    fn walk(draw: Draw, seed: u64) -> Self {
        let n = draw.num_devices;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut marks = Vec::with_capacity(n.div_ceil(MARK_STRIDE));
        let (mut min_capacity, mut max_capacity) = (u64::MAX, 0);
        for i in 0..n {
            if i % MARK_STRIDE == 0 {
                marks.push(rng.state());
            }
            let capacity = draw.capacity(i, &mut rng).round() as u64;
            skip(&mut rng, 2 * WORDS_PER_NORMAL);
            min_capacity = min_capacity.min(capacity);
            max_capacity = max_capacity.max(capacity);
        }
        DeviceTrace {
            draw,
            marks: marks.into(),
            min_capacity: if n == 0 { 0 } else { min_capacity },
            max_capacity,
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.draw.num_devices
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The profile of client `index`, by value: replayed from the
    /// nearest saved stream position.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range. In debug builds, also when
    /// the device's draw leaves the walk: a draw was added to it
    /// without the word count learning about it.
    pub fn profile(&self, index: usize) -> DeviceProfile {
        assert!(
            index < self.len(),
            "device index {index} out of range for fleet of {}",
            self.len()
        );
        let first = index - index % MARK_STRIDE;
        let mut rng = StdRng::from_state(self.marks[index / MARK_STRIDE]);
        for i in first..index {
            skip(&mut rng, self.draw.words(i));
        }
        let walked = cfg!(debug_assertions).then(|| {
            let mut next = rng.clone();
            skip(&mut next, self.draw.words(index));
            next.state()
        });
        let profile = self.draw.device(index, &mut rng);
        if let Some(next) = walked {
            assert_eq!(rng.state(), next, "device {index}: the draw left the walk");
        }
        profile
    }

    /// Smallest capacity in the trace (the seed model's complexity
    /// budget per §5.1); 0 when empty.
    pub fn min_capacity(&self) -> u64 {
        self.min_capacity
    }

    /// Largest capacity in the trace (the maximum model's complexity
    /// budget per §5.1); 0 when empty.
    pub fn max_capacity(&self) -> u64 {
        self.max_capacity
    }

    /// Ratio of the most to least capable device.
    pub fn capacity_disparity(&self) -> f64 {
        let min = self.min_capacity();
        if min == 0 {
            return 0.0;
        }
        self.max_capacity() as f64 / min as f64
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only count of profiles derived on this thread, so a test
    /// can see that generating a trace derives none.
    static DERIVED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One device-heterogeneity tier: a cluster of similar hardware.
///
/// Real fleets are not log-uniform — they cluster into generations
/// (flagship / mid-range / budget). A tier list carves the population
/// into such clusters; [`DeviceTraceConfig::generate_tiered`] assigns
/// devices to tiers by weight and samples capacities tightly around
/// each tier's level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceTier {
    /// Relative share of the population in this tier (weights are
    /// normalized over the tier list).
    pub weight: f64,
    /// Tier capacity as a multiple of
    /// [`DeviceTraceConfig::base_capacity_macs`].
    pub capacity_mult: f64,
}

/// Configuration for the synthetic trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceTraceConfig {
    /// Number of devices to generate.
    pub num_devices: usize,
    /// Capacity of the least capable device, in MACs per sample.
    pub base_capacity_macs: u64,
    /// Ratio between the most and least capable device (paper: > 29).
    pub disparity: f64,
    /// Seconds a device needs per unit of its own capacity; ties speed
    /// to capacity so capable devices are also fast, with jitter.
    pub speed_jitter_sigma: f64,
    /// Median bandwidth in bytes per second.
    pub median_bandwidth: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeviceTraceConfig {
    fn default() -> Self {
        DeviceTraceConfig {
            num_devices: 100,
            base_capacity_macs: 20_000,
            disparity: 30.0,
            speed_jitter_sigma: 0.3,
            median_bandwidth: 1e6,
            seed: 7,
        }
    }
}

impl DeviceTraceConfig {
    /// Sets the device count.
    pub fn with_num_devices(mut self, n: usize) -> Self {
        self.num_devices = n;
        self
    }

    /// Sets the minimum capacity.
    pub fn with_base_capacity(mut self, macs: u64) -> Self {
        self.base_capacity_macs = macs;
        self
    }

    /// Sets the max/min capacity ratio.
    pub fn with_disparity(mut self, disparity: f64) -> Self {
        self.disparity = disparity;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the trace. Deterministic in the seed. The first and
    /// last devices are pinned to the extremes so the configured
    /// disparity is always realized exactly.
    ///
    /// # Panics
    ///
    /// Panics if `speed_jitter_sigma` or `median_bandwidth` is not
    /// finite and positive (they parameterize log-normal draws).
    pub fn generate(&self) -> DeviceTrace {
        self.generate_tiered(&[])
    }

    /// Generates a tiered trace: device `i` lands in the tier covering
    /// position `(i + ½)/n` of the normalized cumulative weights, with
    /// capacity jittered ±10% (log-normal) around the tier level so
    /// ties never mask tier structure. Deterministic in the seed.
    ///
    /// Falls back to [`DeviceTraceConfig::generate`] when `tiers` is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `speed_jitter_sigma` or `median_bandwidth` is not
    /// finite and positive (they parameterize log-normal draws).
    pub fn generate_tiered(&self, tiers: &[DeviceTier]) -> DeviceTrace {
        DeviceTrace::walk(Draw::new(self, tiers), self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The retired sequential generator, both loops in one, kept as the
    /// reference every replayed profile must equal.
    fn reference(cfg: &DeviceTraceConfig, tiers: &[DeviceTier]) -> Vec<DeviceProfile> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let jitter = LogNormal::new(0.0, 0.1).unwrap();
        let speed_jitter = LogNormal::new(0.0, cfg.speed_jitter_sigma).unwrap();
        let bw = LogNormal::new(cfg.median_bandwidth.ln(), 0.6).unwrap();
        let total_weight: f64 = tiers.iter().map(|t| t.weight.max(0.0)).sum();
        let total_weight = if total_weight > 0.0 {
            total_weight
        } else {
            1.0
        };
        let n = cfg.num_devices;
        let lo = cfg.base_capacity_macs as f64;
        let hi = lo * cfg.disparity;
        let mut profiles = Vec::new();
        for i in 0..n {
            let capacity = if tiers.is_empty() {
                if i == 0 {
                    lo
                } else if i + 1 == n && n > 1 {
                    hi
                } else {
                    let u: f64 = rng.gen();
                    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
                }
            } else {
                let position = (i as f64 + 0.5) / n as f64 * total_weight;
                let mut acc = 0.0f64;
                let mut tier = tiers[tiers.len() - 1];
                for t in tiers {
                    acc += t.weight.max(0.0);
                    if position <= acc {
                        tier = *t;
                        break;
                    }
                }
                (lo * tier.capacity_mult.max(1e-6) * jitter.sample(&mut rng)).max(1.0)
            };
            let speed = capacity.powf(0.85) * 50.0 * speed_jitter.sample(&mut rng);
            profiles.push(DeviceProfile {
                capacity_macs: capacity.round() as u64,
                speed_macs_per_s: speed,
                bandwidth_bytes_per_s: bw.sample(&mut rng),
            });
        }
        profiles
    }

    fn profiles(t: &DeviceTrace) -> Vec<DeviceProfile> {
        (0..t.len()).map(|i| t.profile(i)).collect()
    }

    /// Every profile of the trace equals the reference's, `f64` fields
    /// by their bits, and the extremes equal the reference's scan.
    fn assert_replays(cfg: &DeviceTraceConfig, tiers: &[DeviceTier]) {
        let bits = |p: &DeviceProfile| {
            (
                p.capacity_macs,
                p.speed_macs_per_s.to_bits(),
                p.bandwidth_bytes_per_s.to_bits(),
            )
        };
        let want = reference(cfg, tiers);
        let t = cfg.generate_tiered(tiers);
        let got: Vec<_> = profiles(&t).iter().map(bits).collect();
        assert_eq!(
            got,
            want.iter().map(bits).collect::<Vec<_>>(),
            "{cfg:?} {tiers:?}"
        );
        let caps = want.iter().map(|p| p.capacity_macs);
        let scan = (caps.clone().min().unwrap_or(0), caps.max().unwrap_or(0));
        assert_eq!(
            (t.min_capacity(), t.max_capacity()),
            scan,
            "{cfg:?} {tiers:?}"
        );
    }

    fn three_tiers() -> [DeviceTier; 3] {
        [
            DeviceTier {
                weight: 0.5,
                capacity_mult: 1.0,
            },
            DeviceTier {
                weight: 0.3,
                capacity_mult: 8.0,
            },
            DeviceTier {
                weight: 0.2,
                capacity_mult: 30.0,
            },
        ]
    }

    #[test]
    fn replay_equals_the_sequential_generator_at_every_stride_edge() {
        for n in [0, 1, 2, 15, 16, 17, 1_000] {
            let cfg = DeviceTraceConfig::default().with_num_devices(n);
            assert_replays(&cfg, &[]);
            assert_replays(&cfg, &three_tiers());
        }
    }

    #[test]
    fn generating_derives_no_profile_and_a_clone_shares_the_marks() {
        let before = DERIVED.get();
        let t = DeviceTraceConfig::default()
            .with_num_devices(1_000_000)
            .generate();
        assert_eq!(DERIVED.get() - before, 0, "the walk derives none");
        assert_eq!(t.marks.len(), 1_000_000 / MARK_STRIDE);
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.marks, &c.marks), "a clone shares the marks");
        let p = c.profile(999_999);
        assert_eq!(DERIVED.get() - before, 1, "one lookup, one profile");
        assert_eq!(
            p.capacity_macs,
            t.max_capacity(),
            "the last device is pinned"
        );
    }

    #[test]
    #[should_panic(expected = "sigma finite")]
    fn a_bad_config_panics_in_generate() {
        let cfg = DeviceTraceConfig {
            speed_jitter_sigma: f64::NAN,
            ..DeviceTraceConfig::default()
        };
        let _ = cfg.generate();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DeviceTraceConfig::default().generate();
        let b = DeviceTraceConfig::default().generate();
        assert_eq!(profiles(&a), profiles(&b));
    }

    #[test]
    fn disparity_is_realized() {
        let t = DeviceTraceConfig::default().with_disparity(29.0).generate();
        assert!(
            (t.capacity_disparity() - 29.0).abs() < 1.0,
            "{}",
            t.capacity_disparity()
        );
    }

    #[test]
    fn capacities_stay_in_range() {
        let cfg = DeviceTraceConfig::default().with_num_devices(500);
        let t = cfg.generate();
        for p in profiles(&t) {
            assert!(p.capacity_macs >= cfg.base_capacity_macs);
            assert!(p.capacity_macs as f64 <= cfg.base_capacity_macs as f64 * cfg.disparity * 1.01);
        }
    }

    #[test]
    fn latency_scales_with_macs() {
        let t = DeviceTraceConfig::default().generate();
        let p = t.profile(0);
        assert!(p.inference_latency_ms(2_000_000) > p.inference_latency_ms(1_000_000));
    }

    #[test]
    fn tiered_trace_clusters_by_weight() {
        let tiers = three_tiers();
        let cfg = DeviceTraceConfig::default().with_num_devices(100);
        let t = cfg.generate_tiered(&tiers);
        assert_eq!(t.len(), 100);
        // First half sits near base capacity, tail near 30x.
        let base = cfg.base_capacity_macs as f64;
        for i in 0..45 {
            let c = t.profile(i).capacity_macs as f64;
            assert!(c < base * 2.0, "device {i} capacity {c}");
        }
        for i in 85..100 {
            let c = t.profile(i).capacity_macs as f64;
            assert!(c > base * 15.0, "device {i} capacity {c}");
        }
        // Deterministic in the seed.
        let again = cfg.generate_tiered(&tiers);
        assert_eq!(profiles(&t), profiles(&again));
    }

    #[test]
    fn tiered_with_no_tiers_falls_back() {
        let cfg = DeviceTraceConfig::default().with_num_devices(10);
        assert_eq!(
            profiles(&cfg.generate_tiered(&[])),
            profiles(&cfg.generate())
        );
    }

    #[test]
    fn compatibility_respects_capacity() {
        let p = DeviceProfile {
            capacity_macs: 1000,
            speed_macs_per_s: 1e6,
            bandwidth_bytes_per_s: 1e6,
        };
        assert!(p.is_compatible(1000));
        assert!(!p.is_compatible(1001));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn replay_equals_the_sequential_generator(
            base in 1u64..1_000_000,
            disparity in 1.0f64..100.0,
            seed in 0u64..u64::MAX,
            tiers in proptest::collection::vec((0.0f64..5.0, 0.01f64..50.0), 0..4),
            n in 0usize..=300,
        ) {
            let cfg = DeviceTraceConfig::default()
                .with_num_devices(n)
                .with_base_capacity(base)
                .with_disparity(disparity)
                .with_seed(seed);
            let tiers: Vec<DeviceTier> = tiers
                .into_iter()
                .map(|(weight, capacity_mult)| DeviceTier { weight, capacity_mult })
                .collect();
            assert_replays(&cfg, &tiers);
        }
    }
}
