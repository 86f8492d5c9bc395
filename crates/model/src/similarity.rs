//! Cell-wise architectural similarity (§4.2 of the paper).
//!
//! The Client Manager's joint utility learning and the Model
//! Aggregator's soft aggregation both weight cross-model information by
//! `sim(M_i, M_j) ∈ [0, 1]`. The paper defines a per-cell matching
//! degree `mc(l)` relative to the parent model:
//!
//! * `1` for a cell inherited unchanged,
//! * `#param(l') / #param(l)` for a widened cell (the inherited weight
//!   fraction),
//! * `0` for a cell inserted by deepening,
//!
//! and accumulates `mc` over all cells. We generalize parent/child
//! matching to *any* pair in the model family via persistent
//! [`CellId`]s: a cell keeps its id through inheritance and widening, so
//! the inherited-fraction rule applies between arbitrary relatives, and
//! cells private to one model contribute zero. The cumulative score is
//! normalized by the larger cell count to land in `[0, 1]`.

use crate::{Cell, CellId, CellModel};

/// Matching degree between two cells that share a [`CellId`].
///
/// Equal parameter counts give 1.0 (inherited unchanged); otherwise the
/// smaller count over the larger is the fraction of inherited weights.
pub fn cell_match(a: &Cell, b: &Cell) -> f32 {
    debug_assert_eq!(a.id(), b.id(), "cell_match requires matching identities");
    let pa = a.param_count() as f32;
    let pb = b.param_count() as f32;
    if pa == 0.0 || pb == 0.0 {
        return 0.0;
    }
    (pa.min(pb)) / (pa.max(pb))
}

/// Architectural similarity `sim(M_a, M_b) ∈ [0, 1]`.
///
/// Identical models (including a model with itself) score 1.0; models
/// with no shared lineage score 0.0.
///
/// ```
/// use ft_model::{similarity::model_similarity, CellModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let m = CellModel::dense(&mut rng, 4, &[8], 2);
/// assert_eq!(model_similarity(&m, &m), 1.0);
/// ```
pub fn model_similarity(a: &CellModel, b: &CellModel) -> f32 {
    #[expect(
        clippy::disallowed_types,
        reason = "point lookups only, never iterated"
    )]
    let index_b: std::collections::HashMap<CellId, &Cell> =
        b.cells().iter().map(|c| (c.id(), c)).collect();
    let mut score = 0.0f32;
    for cell_a in a.cells() {
        if let Some(cell_b) = index_b.get(&cell_a.id()) {
            score += cell_match(cell_a, cell_b);
        }
    }
    let denom = a.cells().len().max(b.cells().len()).max(1) as f32;
    (score / denom).clamp(0.0, 1.0)
}

/// Pairwise similarity matrix for a model suite, reused every round by
/// the aggregator instead of recomputing per pair.
pub fn similarity_matrix(models: &[&CellModel]) -> Vec<Vec<f32>> {
    let n = models.len();
    let mut m = vec![vec![0.0f32; n]; n];
    for i in 0..n {
        m[i][i] = 1.0;
        for j in (i + 1)..n {
            let s = model_similarity(models[i], models[j]);
            m[i][j] = s;
            m[j][i] = s;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{deepen_cell, widen_cell};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn self_similarity_is_one() {
        let m = CellModel::dense(&mut rng(0), 4, &[8, 8], 2);
        assert_eq!(model_similarity(&m, &m), 1.0);
    }

    #[test]
    fn unrelated_models_score_zero() {
        let a = CellModel::dense(&mut rng(1), 4, &[8], 2);
        let b = CellModel::dense(&mut rng(2), 4, &[8], 2);
        assert_eq!(model_similarity(&a, &b), 0.0);
    }

    #[test]
    fn widened_child_scores_between_zero_and_one() {
        let parent = CellModel::dense(&mut rng(3), 4, &[8, 8], 2);
        let child = widen_cell(&parent, 0, 2.0, &mut rng(4)).unwrap();
        let s = model_similarity(&parent, &child);
        assert!(s > 0.0 && s < 1.0, "similarity {s}");
        // Symmetric.
        assert!((model_similarity(&child, &parent) - s).abs() < 1e-6);
    }

    #[test]
    fn deepened_child_scores_less_than_one() {
        let parent = CellModel::dense(&mut rng(5), 4, &[8], 2);
        let child = deepen_cell(&parent, 0, 1, &mut rng(6)).unwrap();
        let s = model_similarity(&parent, &child);
        // One inherited cell of two total: 1/2.
        assert!((s - 0.5).abs() < 1e-6, "similarity {s}");
    }

    #[test]
    fn similarity_decays_with_distance() {
        let gen0 = CellModel::dense(&mut rng(7), 4, &[8, 8], 2);
        let gen1 = widen_cell(&gen0, 0, 2.0, &mut rng(8)).unwrap();
        let gen2 = deepen_cell(&gen1, 1, 1, &mut rng(9)).unwrap();
        let near = model_similarity(&gen1, &gen2);
        let far = model_similarity(&gen0, &gen2);
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let m0 = CellModel::dense(&mut rng(10), 4, &[8], 2);
        let m1 = widen_cell(&m0, 0, 2.0, &mut rng(11)).unwrap();
        let m2 = deepen_cell(&m1, 0, 1, &mut rng(12)).unwrap();
        let mat = similarity_matrix(&[&m0, &m1, &m2]);
        for i in 0..3 {
            assert_eq!(mat[i][i], 1.0);
            for j in 0..3 {
                assert!((mat[i][j] - mat[j][i]).abs() < 1e-6);
            }
        }
    }
}
