//! Per-cell activeness tracking (§4.1).
//!
//! Cell activeness is the normalized aggregate-gradient norm
//! `‖∇w_l‖ / ‖w_l‖`, averaged over the last `T` rounds (Table 7's
//! "number of consecutive gradients to calculate activeness", default
//! 5). Only aggregate updates reach the coordinator — never individual
//! client gradients — matching the paper's privacy posture.

use std::collections::{BTreeMap, VecDeque};

use ft_model::{CellId, CellModel};
use ft_tensor::Tensor;

/// Rolling per-cell activeness history for one model.
#[derive(Debug, Clone, Default)]
pub struct ActivenessTracker {
    window: usize,
    history: BTreeMap<CellId, VecDeque<f32>>,
}

impl ActivenessTracker {
    /// Creates a tracker averaging over `window` rounds.
    pub fn new(window: usize) -> Self {
        ActivenessTracker {
            window: window.max(1),
            history: BTreeMap::new(),
        }
    }

    /// Records one round's aggregate update for `model`.
    ///
    /// `aggregate_delta` must be aligned with `model.snapshot()` (one
    /// tensor per parameter tensor). Per cell, activeness is the norm of
    /// the cell's delta tensors over the norm of its weights.
    #[expect(
        clippy::missing_panics_doc,
        reason = "`param_layout` only yields this model's cell ids"
    )]
    pub fn record_round(&mut self, model: &CellModel, aggregate_delta: &[Tensor]) {
        for (cell_id, start, len) in model.param_layout() {
            let Some(id) = cell_id else { continue };
            if start + len > aggregate_delta.len() {
                continue;
            }
            let grad_sq: f32 = aggregate_delta[start..start + len]
                .iter()
                .map(|t| {
                    let n = t.norm();
                    n * n
                })
                .sum();
            let cell = model
                .cells()
                .iter()
                .find(|c| c.id() == id)
                .expect("layout ids come from this model");
            let w = cell.weight_norm();
            let act = if w <= f32::EPSILON {
                0.0
            } else {
                grad_sq.sqrt() / w
            };
            let entry = self.history.entry(id).or_default();
            entry.push_back(act);
            while entry.len() > self.window {
                entry.pop_front();
            }
        }
    }

    /// Mean activeness of a cell over its recorded window, or 0 when the
    /// cell has no history yet.
    pub fn activeness(&self, id: CellId) -> f32 {
        match self.history.get(&id) {
            Some(h) if !h.is_empty() => h.iter().sum::<f32>() / h.len() as f32,
            _ => 0.0,
        }
    }

    /// Activeness of every cell of `model`, in body order.
    pub fn model_activeness(&self, model: &CellModel) -> Vec<f32> {
        model
            .cells()
            .iter()
            .map(|c| self.activeness(c.id()))
            .collect()
    }

    /// Number of rounds of history the given cell has.
    pub fn history_len(&self, id: CellId) -> usize {
        self.history.get(&id).map_or(0, VecDeque::len)
    }

    /// Checkpoint view of the full history: `(cell id, oldest→newest)`
    /// entries sorted by id. The history lives in a `BTreeMap`, so the
    /// id order falls out of iteration and serialization is stable by
    /// construction.
    pub fn export_history(&self) -> Vec<(u64, Vec<f32>)> {
        self.history
            .iter()
            .map(|(id, h)| (id.0, h.iter().copied().collect()))
            .collect()
    }

    /// Replaces the history from a checkpoint produced by
    /// [`ActivenessTracker::export_history`]. The window is unchanged
    /// (it comes from configuration, not state).
    pub fn import_history(&mut self, entries: Vec<(u64, Vec<f32>)>) {
        self.history = entries
            .into_iter()
            .map(|(id, h)| (CellId(id), h.into_iter().collect()))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn model() -> CellModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        CellModel::dense(&mut rng, 4, &[8, 8], 2)
    }

    fn delta_like(m: &CellModel, scale: f32) -> Vec<Tensor> {
        m.snapshot()
            .into_iter()
            .map(|t| Tensor::full(t.shape().dims(), scale))
            .collect()
    }

    #[test]
    fn records_per_cell_history() {
        let m = model();
        let mut t = ActivenessTracker::new(3);
        t.record_round(&m, &delta_like(&m, 0.1));
        for c in m.cells() {
            assert_eq!(t.history_len(c.id()), 1);
            assert!(t.activeness(c.id()) > 0.0);
        }
    }

    #[test]
    fn window_bounds_history() {
        let m = model();
        let mut t = ActivenessTracker::new(2);
        for _ in 0..5 {
            t.record_round(&m, &delta_like(&m, 0.1));
        }
        assert_eq!(t.history_len(m.cells()[0].id()), 2);
    }

    #[test]
    fn larger_updates_mean_higher_activeness() {
        let m = model();
        let mut quiet = ActivenessTracker::new(3);
        let mut busy = ActivenessTracker::new(3);
        quiet.record_round(&m, &delta_like(&m, 0.01));
        busy.record_round(&m, &delta_like(&m, 1.0));
        let id = m.cells()[0].id();
        assert!(busy.activeness(id) > quiet.activeness(id));
    }

    #[test]
    fn unknown_cell_has_zero_activeness() {
        let t = ActivenessTracker::new(3);
        assert_eq!(t.activeness(ft_model::CellId(9999)), 0.0);
    }

    #[test]
    fn model_activeness_is_ordered() {
        let m = model();
        let mut t = ActivenessTracker::new(3);
        t.record_round(&m, &delta_like(&m, 0.5));
        let acts = t.model_activeness(&m);
        assert_eq!(acts.len(), m.cells().len());
    }
}
