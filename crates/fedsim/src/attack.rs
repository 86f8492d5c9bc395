//! Deterministic adversarial and non-stationary fleet models.
//!
//! Three orthogonal configs, all **stateless** like
//! [`crate::faults::FaultConfig`] — whether a `(round, client)` pair is
//! byzantine, offline, or departing is a pure hash of the run seed
//! under a fresh salt, so the adversarial landscape is deterministic,
//! checkpoint-free, parallel-safe, and identical before and after a
//! resume:
//!
//! * [`AttackConfig`] — marks clients byzantine and corrupts what they
//!   do: label flips in the shard they train on and sign-flipped /
//!   scaled / Gaussian-noise updates at the sink boundary;
//! * [`AvailabilityConfig`] — diurnal availability traces (a periodic
//!   per-round online probability) and mid-round departures, which
//!   churn the rendezvous path and the heartbeat reaper respectively;
//! * [`AdversityConfig`] — the bundle the coordinator installs (it also
//!   carries the [`ft_data::DriftConfig`] concept-drift schedule).
//!
//! The noise corruption is the only consumer of an RNG, and its stream
//! is seeded statelessly per `(seed, round, client)` — no shared RNG
//! state exists on any adversarial path.

use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use ft_tensor::Tensor;

use crate::faults::{mix, unit};
use crate::Result;

/// Salt decorrelating byzantine marking from the dropout/straggler
/// hashes (`0x5EED_D120`, `0x51AC_C42A`).
const BYZANTINE_SALT: u64 = 0xB12A_47E5_0B5E_55ED;
/// Salt for the Gaussian-noise corruption's per-client RNG seed.
const NOISE_SALT: u64 = 0x0153_CAFE_D00D_1E55;
/// Salt for the diurnal availability trace draw.
const AVAILABILITY_SALT: u64 = 0xD1A7_7A1C_E0FF_11E5;
/// Salt deciding whether an admitted client departs mid-round.
const DEPART_SALT: u64 = 0xDE9A_27E0_5EED_5A17;
/// Salt placing a departing client's exit within its round span.
const DEPART_AT_SALT: u64 = 0xDE9A_27A7_F2AC_7105;

/// How a byzantine client corrupts the update it uploads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Corruption {
    /// Upload the negated pseudo-gradient: `w' = g − δ` (equivalently
    /// `δ' = −δ`), the classic sign-flipping attack.
    #[default]
    SignFlip,
    /// Scale the pseudo-gradient by `factor` (model-boosting for
    /// `factor > 1`, a stealthier shrink for `factor < 1`).
    Scale {
        /// Multiplier applied to the client's delta.
        factor: f64,
    },
    /// Replace the pseudo-gradient with zero-mean Gaussian noise of
    /// the given standard deviation.
    Noise {
        /// Noise standard deviation.
        std: f64,
    },
}

/// Deterministic byzantine-client model. The default is inert.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct AttackConfig {
    /// Probability that a participant behaves byzantine in a round.
    pub byzantine_prob: f64,
    /// What a byzantine participant uploads.
    pub corruption: Corruption,
    /// Whether byzantine participants also flip the labels of the
    /// shard they train on (`y → C−1−y`), poisoning their local
    /// gradient direction itself.
    pub flip_labels: bool,
}

impl AttackConfig {
    /// Whether any attack is enabled.
    pub fn is_active(&self) -> bool {
        self.byzantine_prob > 0.0
    }

    /// Whether `client` behaves byzantine in `round` — a pure hash of
    /// the arguments, like [`crate::faults::FaultConfig::drops`].
    pub fn is_byzantine(&self, seed: u64, round: u32, client: usize) -> bool {
        self.byzantine_prob > 0.0
            && unit(seed, u64::from(round), client as u64, BYZANTINE_SALT) < self.byzantine_prob
    }

    /// Applies this attack's corruption to one update in place, at the
    /// sink boundary. `weights` are the client's uploaded local
    /// weights and `delta` its pseudo-gradient `w − g` (empty when the
    /// algorithm does not track deltas); both views are corrupted
    /// consistently, so `weights − delta` still reconstructs the same
    /// round-start global model.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape mismatches (impossible for updates
    /// produced by the trainer).
    ///
    /// # Panics
    ///
    /// Panics when a `Noise` corruption carries an infinite `std`; the
    /// scenario schema rejects such a value before a run starts.
    pub fn corrupt(
        &self,
        seed: u64,
        round: u32,
        client: usize,
        weights: &mut [Tensor],
        delta: &mut [Tensor],
    ) -> Result<()> {
        match self.corruption {
            Corruption::SignFlip => scale_delta(weights, delta, -1.0)?,
            Corruption::Scale { factor } => scale_delta(weights, delta, factor as f32)?,
            Corruption::Noise { std } => {
                let h = mix(seed ^ mix(u64::from(round) ^ mix(client as u64 ^ NOISE_SALT)));
                let mut rng = rand::rngs::StdRng::seed_from_u64(h);
                let dist = Normal::new(0.0f64, std.max(0.0)).expect("finite std");
                if delta.is_empty() {
                    for w in weights.iter_mut() {
                        for v in w.data_mut() {
                            *v += dist.sample(&mut rng) as f32;
                        }
                    }
                } else {
                    // δ' = noise; w' = g + δ' = (w − δ) + noise.
                    for (w, d) in weights.iter_mut().zip(delta.iter_mut()) {
                        w.sub_assign(d).map_err(ft_model::ModelError::from)?;
                        for v in d.data_mut() {
                            *v = dist.sample(&mut rng) as f32;
                        }
                        w.add_assign(d).map_err(ft_model::ModelError::from)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Rescales the delta view by `factor`, keeping the weight view
/// consistent: `w' = g + factor·δ = w + (factor−1)·δ`. Without a delta
/// the weights themselves are scaled (the only gradient proxy there
/// is).
fn scale_delta(weights: &mut [Tensor], delta: &mut [Tensor], factor: f32) -> Result<()> {
    if delta.is_empty() {
        for w in weights.iter_mut() {
            w.scale_mut(factor);
        }
    } else {
        for (w, d) in weights.iter_mut().zip(delta.iter_mut()) {
            w.axpy(factor - 1.0, d)
                .map_err(ft_model::ModelError::from)?;
            d.scale_mut(factor);
        }
    }
    Ok(())
}

/// Diurnal availability and mid-round departure. The default (empty
/// trace, zero departure probability) is inert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AvailabilityConfig {
    /// Per-round online probability, cycled (`trace[round % len]`).
    /// Empty means every device is always reachable — the pre-existing
    /// behaviour.
    pub trace: Vec<f64>,
    /// Probability that an *admitted* client departs mid-round (its
    /// later messages are lost; the heartbeat deadline reaps it).
    pub departure_prob: f64,
}

impl AvailabilityConfig {
    /// Whether this config changes anything at all.
    pub fn is_active(&self) -> bool {
        !self.trace.is_empty() || self.departure_prob > 0.0
    }

    /// Whether `client` is reachable in `round` under the trace.
    pub fn online(&self, seed: u64, round: u32, client: usize) -> bool {
        if self.trace.is_empty() {
            return true;
        }
        let p = self.trace[round as usize % self.trace.len()];
        unit(seed, u64::from(round), client as u64, AVAILABILITY_SALT) < p
    }

    /// If `client` departs mid-round, the fraction of its round span
    /// (in `[0, 1)`) at which it goes dark.
    pub fn departure_frac(&self, seed: u64, round: u32, client: usize) -> Option<f64> {
        let r = u64::from(round);
        let c = client as u64;
        (self.departure_prob > 0.0 && unit(seed, r, c, DEPART_SALT) < self.departure_prob)
            .then(|| unit(seed, r, c, DEPART_AT_SALT))
    }
}

/// Everything adversarial or non-stationary a coordinator can be asked
/// to simulate, as one installable bundle. Every part defaults inert,
/// so scenarios written before this existed keep their exact behaviour
/// (and golden digests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AdversityConfig {
    /// Byzantine clients and their corruption.
    pub attack: AttackConfig,
    /// Diurnal availability and mid-round departures.
    pub availability: AvailabilityConfig,
    /// Temporal concept drift (label rotation).
    pub drift: ft_data::DriftConfig,
}

impl AdversityConfig {
    /// Whether any adversity is enabled.
    pub fn is_active(&self) -> bool {
        self.attack.is_active() || self.availability.is_active() || self.drift.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(vals: &[f32]) -> Tensor {
        Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap()
    }

    #[test]
    fn default_is_inert() {
        let adv = AdversityConfig::default();
        assert!(!adv.is_active());
        assert!(!adv.attack.is_byzantine(7, 3, 1));
        assert!(adv.availability.online(7, 3, 1));
        assert!(adv.availability.departure_frac(7, 3, 1).is_none());
    }

    #[test]
    fn byzantine_marking_is_deterministic_and_rate_respecting() {
        let a = AttackConfig {
            byzantine_prob: 0.3,
            ..Default::default()
        };
        let mut marked = 0usize;
        for round in 0..100u32 {
            for client in 0..100usize {
                let b = a.is_byzantine(42, round, client);
                assert_eq!(b, a.is_byzantine(42, round, client));
                marked += usize::from(b);
            }
        }
        let rate = marked as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "byzantine rate {rate}");
    }

    #[test]
    fn byzantine_hash_decorrelates_from_dropout_hash() {
        let a = AttackConfig {
            byzantine_prob: 0.5,
            ..Default::default()
        };
        let f = crate::faults::FaultConfig {
            dropout_prob: 0.5,
            ..Default::default()
        };
        let agree = (0..1000)
            .filter(|&c| a.is_byzantine(1, 0, c) == f.drops(1, 0, c))
            .count();
        assert!(
            (350..650).contains(&agree),
            "salts should decorrelate, agreement {agree}/1000"
        );
    }

    #[test]
    fn sign_flip_negates_the_delta_and_keeps_views_consistent() {
        let a = AttackConfig {
            byzantine_prob: 1.0,
            corruption: Corruption::SignFlip,
            ..Default::default()
        };
        // g = 1, δ = 2, w = 3.
        let mut w = vec![tensor(&[3.0])];
        let mut d = vec![tensor(&[2.0])];
        a.corrupt(1, 0, 0, &mut w, &mut d).unwrap();
        assert_eq!(d[0].data(), &[-2.0]);
        assert_eq!(w[0].data(), &[-1.0], "w' = g − δ = 1 − 2");
        // Consistency: w' − δ' reconstructs g.
        assert_eq!(w[0].data()[0] - d[0].data()[0], 1.0);
    }

    #[test]
    fn scale_boosts_the_delta() {
        let a = AttackConfig {
            byzantine_prob: 1.0,
            corruption: Corruption::Scale { factor: 10.0 },
            ..Default::default()
        };
        let mut w = vec![tensor(&[3.0])];
        let mut d = vec![tensor(&[2.0])];
        a.corrupt(1, 0, 0, &mut w, &mut d).unwrap();
        assert_eq!(d[0].data(), &[20.0]);
        assert_eq!(w[0].data(), &[21.0], "w' = g + 10δ = 1 + 20");
    }

    #[test]
    fn sign_flip_without_delta_negates_weights() {
        let a = AttackConfig {
            byzantine_prob: 1.0,
            corruption: Corruption::SignFlip,
            ..Default::default()
        };
        let mut w = vec![tensor(&[3.0, -1.5])];
        let mut d = Vec::new();
        a.corrupt(1, 0, 0, &mut w, &mut d).unwrap();
        assert_eq!(w[0].data(), &[-3.0, 1.5]);
    }

    #[test]
    fn noise_is_deterministic_per_tuple_and_replaces_the_delta() {
        let a = AttackConfig {
            byzantine_prob: 1.0,
            corruption: Corruption::Noise { std: 0.5 },
            ..Default::default()
        };
        let run = |round: u32, client: usize| {
            let mut w = vec![tensor(&[3.0, 3.0])];
            let mut d = vec![tensor(&[2.0, 2.0])];
            a.corrupt(9, round, client, &mut w, &mut d).unwrap();
            (w[0].data().to_vec(), d[0].data().to_vec())
        };
        let (w1, d1) = run(0, 0);
        let (w2, d2) = run(0, 0);
        assert_eq!(w1, w2);
        assert_eq!(d1, d2);
        let (_, d3) = run(0, 1);
        assert_ne!(d1, d3, "different clients draw different noise");
        // w' − δ' still reconstructs g = 1 for every coordinate.
        for (w, d) in w1.iter().zip(&d1) {
            assert!((w - d - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn availability_trace_cycles_and_respects_rates() {
        let av = AvailabilityConfig {
            trace: vec![1.0, 0.0],
            departure_prob: 0.0,
        };
        for client in 0..50 {
            assert!(av.online(3, 0, client), "p=1.0 round");
            assert!(!av.online(3, 1, client), "p=0.0 round");
            assert!(av.online(3, 2, client), "trace cycles");
        }
        let partial = AvailabilityConfig {
            trace: vec![0.4],
            departure_prob: 0.0,
        };
        let online = (0..10_000).filter(|&c| partial.online(3, 0, c)).count();
        let rate = online as f64 / 10_000.0;
        assert!((rate - 0.4).abs() < 0.02, "online rate {rate}");
    }

    #[test]
    fn departures_are_deterministic_with_in_range_fractions() {
        let av = AvailabilityConfig {
            trace: Vec::new(),
            departure_prob: 0.25,
        };
        let mut departing = 0usize;
        for client in 0..4000usize {
            let d = av.departure_frac(11, 2, client);
            assert_eq!(d, av.departure_frac(11, 2, client));
            if let Some(frac) = d {
                assert!((0.0..1.0).contains(&frac));
                departing += 1;
            }
        }
        let rate = departing as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "departure rate {rate}");
    }

    #[test]
    fn adversity_serde_round_trips() {
        let adv = AdversityConfig {
            attack: AttackConfig {
                byzantine_prob: 0.3,
                corruption: Corruption::Scale { factor: 5.0 },
                flip_labels: true,
            },
            availability: AvailabilityConfig {
                trace: vec![0.9, 0.5],
                departure_prob: 0.1,
            },
            drift: ft_data::DriftConfig {
                period: 2,
                rotation: 1,
            },
        };
        let json = serde_json::to_string(&adv).unwrap();
        let back: AdversityConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, adv);
    }
}
