//! Multi-model soft aggregation (§4.3, Eq. 5).
//!
//! Each round the streaming fold
//! ([`ft_fedsim::sink::FedAvgSink::grouped`]) FedAvg's every model
//! over its own participants as updates land; this module then blends
//! the per-model averages *across* models:
//!
//! ```text
//! w_j = Σ_{i ≤ j} η^{1(i≠j)·t} · sim(M_i, M_j) · w_i
//!       ─────────────────────────────────────────────
//!       Σ_{i ≤ j} η^{1(i≠j)·t} · sim(M_i, M_j)
//! ```
//!
//! Deviations from the paper's literal formula, documented here:
//! the denominator uses the same decayed coefficients as the numerator
//! (the paper's as-printed denominator omits `η^t`, which would shrink
//! `w_j` toward zero as `t` grows instead of converging to pure `w_j`);
//! the sum over `i ≤ j` (creation order) is what disables
//! large-to-small sharing, which Table 1 shows is essential — the `l2s`
//! switch re-enables `i > j` terms to reproduce that ablation.
//!
//! Tensors are aligned **per cell** (by [`CellId`]) rather than
//! positionally, because a deepen operation shifts every subsequent
//! cell's position; shape mismatches from widening are handled by
//! corner cropping as in HeteroFL.

use std::collections::BTreeMap;

use ft_model::crop::{finalize_overlap, overlap_add};
use ft_model::{CellId, CellModel};
use ft_tensor::Tensor;

use crate::FedTransConfig;

/// The soft-aggregation engine.
#[derive(Debug, Clone)]
pub struct ModelAggregator {
    eta: f32,
    soft: bool,
    decayed: bool,
    l2s: bool,
}

impl ModelAggregator {
    /// Creates an aggregator from the runtime configuration.
    pub fn new(cfg: &FedTransConfig) -> Self {
        ModelAggregator {
            eta: cfg.eta,
            soft: cfg.soft_aggregation,
            decayed: cfg.decayed_sharing,
            l2s: cfg.large_to_small_sharing,
        }
    }

    /// Soft aggregation across the model suite.
    ///
    /// `models` is the suite in creation order; `per_model` holds each
    /// model's FedAvg result (or `None` if it had no participants);
    /// `similarity` is the pairwise matrix; `ages[j]` is the number of
    /// rounds model `j` has trained — the `t` in the decay term `η^t`.
    /// Using the *target model's* age (rather than the global round)
    /// realizes the paper's intent that "as the model converges over
    /// rounds, η progressively reduces the impact of other models":
    /// a freshly spawned model leans heavily on its relatives and weans
    /// itself off as it matures. Returns the new weights for every
    /// model, aligned with each model's own snapshot layout.
    pub fn soft_aggregate(
        &self,
        models: &[CellModel],
        per_model: &[Option<Vec<Tensor>>],
        similarity: &[Vec<f32>],
        ages: &[u32],
    ) -> Vec<Vec<Tensor>> {
        debug_assert_eq!(models.len(), per_model.len());
        debug_assert_eq!(models.len(), ages.len());
        // Source weights: a model's FedAvg if it trained, else its
        // current weights.
        let sources: Vec<Vec<Tensor>> = models
            .iter()
            .zip(per_model)
            .map(|(m, avg)| avg.clone().unwrap_or_else(|| m.snapshot()))
            .collect();
        // Layouts are a function of each model alone — compute them
        // once per call instead of rebuilding the source layout inside
        // the O(models²) pair loop.
        let layouts: Vec<Vec<(Option<CellId>, usize, usize)>> =
            models.iter().map(CellModel::param_layout).collect();
        // `BTreeMap` rather than `HashMap`: the pair loop below looks
        // cells up by id, and every digest-relevant iteration in this
        // workspace must be over a deterministic order (docs/LINTS.md).
        let layout_maps: Vec<BTreeMap<Option<CellId>, (usize, usize)>> = layouts
            .iter()
            .map(|layout| {
                layout
                    .iter()
                    .map(|&(id, start, len)| (id, (start, len)))
                    .collect()
            })
            .collect();
        let mut results = Vec::with_capacity(models.len());
        for j in 0..models.len() {
            let decay = if self.decayed {
                self.eta.powf(ages[j] as f32)
            } else {
                1.0
            };
            let base = &sources[j];
            if !self.soft {
                results.push(base.clone());
                continue;
            }
            let layout_j = &layouts[j];
            let mut acc: Vec<Tensor> = base
                .iter()
                .map(|t| Tensor::zeros(t.shape().dims()))
                .collect();
            let mut counts: Vec<Tensor> = base
                .iter()
                .map(|t| Tensor::zeros(t.shape().dims()))
                .collect();

            for i in 0..models.len() {
                if i > j && !self.l2s {
                    continue; // no large-to-small sharing by default
                }
                let coeff = if i == j {
                    1.0
                } else {
                    decay * similarity[i][j]
                };
                if coeff < 1e-6 {
                    continue;
                }
                let layout_i = &layout_maps[i];
                for (id, start_j, len_j) in layout_j {
                    let Some(&(start_i, len_i)) = layout_i.get(id) else {
                        continue; // cell absent in source (e.g. inserted later)
                    };
                    let len = (*len_j).min(len_i);
                    for o in 0..len {
                        overlap_add(
                            &mut acc[start_j + o],
                            &mut counts[start_j + o],
                            &sources[i][start_i + o],
                            coeff,
                        );
                    }
                }
            }
            for ((a, c), orig) in acc.iter_mut().zip(&counts).zip(base) {
                finalize_overlap(a, c, orig);
            }
            results.push(acc);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_model::transform::{deepen_cell, widen_cell};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn constant_weights(m: &CellModel, v: f32) -> Vec<Tensor> {
        m.snapshot()
            .into_iter()
            .map(|t| Tensor::full(t.shape().dims(), v))
            .collect()
    }

    fn make_family() -> (CellModel, CellModel, Vec<Vec<f32>>) {
        let parent = CellModel::dense(&mut rng(1), 4, &[6], 2);
        let child = widen_cell(&parent, 0, 2.0, &mut rng(2)).unwrap();
        let sims = ft_model::similarity::similarity_matrix(&[&parent, &child]);
        (parent, child, sims)
    }

    #[test]
    fn small_flows_into_large_not_back() {
        let (parent, child, sims) = make_family();
        let agg = ModelAggregator::new(&FedTransConfig::default());
        let models = vec![parent.clone(), child.clone()];
        let pw = constant_weights(&parent, 5.0);
        let cw = constant_weights(&child, 1.0);
        let out = agg.soft_aggregate(&models, &[Some(pw), Some(cw)], &sims, &[0, 0]);
        // Parent (index 0) receives nothing from the child: stays 5.0.
        assert!(out[0]
            .iter()
            .all(|t| t.data().iter().all(|&v| (v - 5.0).abs() < 1e-6)));
        // Child's overlap region moved toward the parent's 5.0.
        let mixed = out[1][0].data()[0];
        assert!(mixed > 1.0 && mixed < 5.0, "mixed {mixed}");
    }

    #[test]
    fn l2s_lets_large_update_small() {
        let (parent, child, sims) = make_family();
        let cfg = FedTransConfig::default().with_large_to_small(true);
        let agg = ModelAggregator::new(&cfg);
        let models = vec![parent.clone(), child.clone()];
        let pw = constant_weights(&parent, 5.0);
        let cw = constant_weights(&child, 1.0);
        let out = agg.soft_aggregate(&models, &[Some(pw), Some(cw)], &sims, &[0, 0]);
        let mixed = out[0][0].data()[0];
        assert!(
            mixed < 5.0,
            "parent should have moved toward child, got {mixed}"
        );
    }

    #[test]
    fn decay_phases_out_sharing() {
        let (parent, child, sims) = make_family();
        let agg = ModelAggregator::new(&FedTransConfig::default());
        let models = vec![parent.clone(), child.clone()];
        let pw = constant_weights(&parent, 5.0);
        let cw = constant_weights(&child, 1.0);
        let early = agg.soft_aggregate(
            &models,
            &[Some(pw.clone()), Some(cw.clone())],
            &sims,
            &[0, 0],
        );
        let late = agg.soft_aggregate(&models, &[Some(pw), Some(cw)], &sims, &[500, 500]);
        let drift_early = (early[1][0].data()[0] - 1.0).abs();
        let drift_late = (late[1][0].data()[0] - 1.0).abs();
        assert!(
            drift_late < drift_early * 0.1,
            "{drift_late} vs {drift_early}"
        );
    }

    #[test]
    fn no_decay_keeps_sharing_constant() {
        let (parent, child, sims) = make_family();
        let cfg = FedTransConfig::default().ablate_decay();
        let agg = ModelAggregator::new(&cfg);
        let models = vec![parent.clone(), child.clone()];
        let pw = constant_weights(&parent, 5.0);
        let cw = constant_weights(&child, 1.0);
        let early = agg.soft_aggregate(
            &models,
            &[Some(pw.clone()), Some(cw.clone())],
            &sims,
            &[0, 0],
        );
        let late = agg.soft_aggregate(&models, &[Some(pw), Some(cw)], &sims, &[500, 500]);
        assert!((early[1][0].data()[0] - late[1][0].data()[0]).abs() < 1e-6);
    }

    #[test]
    fn disabled_soft_aggregation_is_identity() {
        let (parent, child, sims) = make_family();
        let cfg = FedTransConfig::default().ablate_soft_aggregation();
        let agg = ModelAggregator::new(&cfg);
        let models = vec![parent.clone(), child.clone()];
        let pw = constant_weights(&parent, 5.0);
        let cw = constant_weights(&child, 1.0);
        let out = agg.soft_aggregate(
            &models,
            &[Some(pw.clone()), Some(cw.clone())],
            &sims,
            &[0, 0],
        );
        assert_eq!(out[0], pw);
        assert_eq!(out[1], cw);
    }

    #[test]
    fn idle_model_keeps_weights_as_source() {
        let (parent, child, sims) = make_family();
        let agg = ModelAggregator::new(&FedTransConfig::default());
        let models = vec![parent.clone(), child.clone()];
        let cw = constant_weights(&child, 1.0);
        // Parent idle: its current snapshot is the source.
        let out = agg.soft_aggregate(&models, &[None, Some(cw)], &sims, &[0, 0]);
        assert_eq!(out[0], parent.snapshot());
        // Child still blends with the parent's snapshot.
        assert_ne!(out[1][0].data()[0], 1.0);
    }

    #[test]
    fn deepened_models_align_by_cell_identity() {
        let parent = CellModel::dense(&mut rng(5), 4, &[6, 6], 2);
        let child = deepen_cell(&parent, 0, 1, &mut rng(6)).unwrap();
        let sims = ft_model::similarity::similarity_matrix(&[&parent, &child]);
        let agg = ModelAggregator::new(&FedTransConfig::default());
        let models = vec![parent.clone(), child.clone()];
        let pw = constant_weights(&parent, 2.0);
        let cw = constant_weights(&child, 0.0);
        let out = agg.soft_aggregate(&models, &[Some(pw), Some(cw)], &sims, &[0, 0]);
        // The child's *inserted* cell (index 1) gets no parent
        // contribution; inherited cells (0 and 2) do.
        let layout = child.param_layout();
        let (_, ins_start, _) = layout[1];
        let (_, inh_start, _) = layout[2];
        assert_eq!(
            out[1][ins_start].data()[0],
            0.0,
            "inserted cell must not borrow"
        );
        assert!(
            out[1][inh_start].data()[0] > 0.0,
            "inherited cell must borrow"
        );
    }
}
