//! Function-preserving model transformations (§4.1 of the paper).
//!
//! Two operations grow a model:
//!
//! * **Widen** a cell by a factor: new units are copies of randomly
//!   chosen existing units, and every fan-out weight of a copied unit is
//!   divided by its replication multiplicity (Net2WiderNet, Chen et al.
//!   2015). The transformed model computes exactly the same function as
//!   its parent.
//! * **Deepen** a cell: insert identity-initialized cells after it
//!   (Net2DeeperNet). With ReLU bodies the inserted cell is the identity
//!   on the (non-negative) activations flowing between cells; attention
//!   cells use zeroed output projections, which is exact for any input.
//!
//! New units are appended at the end of their axis, so a child model's
//! parameter tensors always contain the parent's tensors as their
//! top-left block — the invariant [`crate::crop`] relies on for
//! HeteroFL-style weight sharing.

use rand::Rng;
use serde::{Deserialize, Serialize};

use ft_nn::{AttentionBlock, Conv2d, Linear, Relu};
use ft_tensor::Tensor;

use crate::{Cell, CellId, CellModel, CellOrigin, ModelError, Result};

/// A single architecture-changing operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransformOp {
    /// Widen the cell at `cell_index` by `factor` (> 1).
    Widen {
        /// Index of the transformed cell in the body.
        cell_index: usize,
        /// Width multiplier (the paper's default is 2).
        factor: f32,
    },
    /// Insert `count` identity cells after `cell_index`.
    Deepen {
        /// Index of the transformed cell in the body.
        cell_index: usize,
        /// Number of identity cells to insert (the paper's default is 1).
        count: usize,
    },
}

/// Record of a transformation, kept for experiment reporting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransformRecord {
    /// The operation applied.
    pub op: TransformOp,
    /// Identity of the parent model.
    pub parent: crate::ModelId,
    /// Identity of the produced child model.
    pub child: crate::ModelId,
}

/// Builds the replication map for widening `old` units to `new` units.
///
/// Index `j < old` maps to itself; each new unit copies a uniformly
/// random existing unit. Returns `(mapping, multiplicity)`.
fn replication_map(rng: &mut impl Rng, old: usize, new: usize) -> (Vec<usize>, Vec<usize>) {
    let mut mapping = Vec::with_capacity(new);
    let mut multiplicity = vec![1usize; old];
    for j in 0..new {
        if j < old {
            mapping.push(j);
        } else {
            let src = rng.gen_range(0..old);
            multiplicity[src] += 1;
            mapping.push(src);
        }
    }
    (mapping, multiplicity)
}

/// Widens the columns of `w` (`[in, out]`) according to `mapping`.
fn widen_columns(w: &Tensor, mapping: &[usize]) -> Tensor {
    let rows = w.shape().dims()[0];
    let old_cols = w.shape().dims()[1];
    let new_cols = mapping.len();
    let mut out = Tensor::zeros(&[rows, new_cols]);
    for r in 0..rows {
        for (j, &src) in mapping.iter().enumerate() {
            out.data_mut()[r * new_cols + j] = w.data()[r * old_cols + src];
        }
    }
    out
}

/// Widens the rows of `w` (`[in, out]`), dividing by multiplicity —
/// the fan-out correction that preserves the function.
fn widen_rows_scaled(w: &Tensor, mapping: &[usize], multiplicity: &[usize]) -> Tensor {
    let old_rows = w.shape().dims()[0];
    let cols = w.shape().dims()[1];
    let new_rows = mapping.len();
    let mut out = Tensor::zeros(&[new_rows, cols]);
    for (j, &src) in mapping.iter().enumerate() {
        debug_assert!(src < old_rows);
        let scale = 1.0 / multiplicity[src] as f32;
        for c in 0..cols {
            out.data_mut()[j * cols + c] = w.data()[src * cols + c] * scale;
        }
    }
    out
}

/// Widens a vector (bias) according to `mapping`.
#[expect(
    clippy::missing_panics_doc,
    reason = "one element is gathered per mapping slot"
)]
fn widen_vector(v: &Tensor, mapping: &[usize]) -> Tensor {
    let data: Vec<f32> = mapping.iter().map(|&src| v.data()[src]).collect();
    Tensor::from_vec(data, &[mapping.len()]).expect("length matches mapping")
}

/// Widens the input-channel blocks of a conv weight
/// (`[out_c, in_c·k·k]`), dividing each copied block by multiplicity.
fn widen_conv_in_channels(
    w: &Tensor,
    mapping: &[usize],
    multiplicity: &[usize],
    kernel: usize,
) -> Tensor {
    let out_c = w.shape().dims()[0];
    let kk = kernel * kernel;
    let old_cols = w.shape().dims()[1];
    let new_cols = mapping.len() * kk;
    let mut out = Tensor::zeros(&[out_c, new_cols]);
    for oc in 0..out_c {
        for (j, &src) in mapping.iter().enumerate() {
            let scale = 1.0 / multiplicity[src] as f32;
            for p in 0..kk {
                out.data_mut()[oc * new_cols + j * kk + p] =
                    w.data()[oc * old_cols + src * kk + p] * scale;
            }
        }
    }
    out
}

/// Produces a new model whose `cell_index`-th cell is widened by
/// `factor`, warm-started from the parent's weights so that parent and
/// child compute the same function.
///
/// # Errors
///
/// Returns [`ModelError::NoSuchCell`] for a bad index and
/// [`ModelError::InvalidTransform`] when `factor <= 1` or the cell's
/// successor cannot absorb the widening.
pub fn widen_cell(
    parent: &CellModel,
    cell_index: usize,
    factor: f32,
    rng: &mut impl Rng,
) -> Result<CellModel> {
    if factor <= 1.0 {
        return Err(ModelError::InvalidTransform {
            detail: format!("widen factor must exceed 1, got {factor}"),
        });
    }
    if cell_index >= parent.cells().len() {
        return Err(ModelError::NoSuchCell {
            index: cell_index,
            cells: parent.cells().len(),
        });
    }
    let parent_id = parent.id();
    let generation = parent.generation() + 1;
    let (mut cells, mut head, input_width, _, _) = parent.clone().into_parts();
    for cell in &mut cells {
        cell.set_origin(CellOrigin::Inherited);
    }

    match &mut cells[cell_index] {
        Cell::Dense { linear, origin, .. } => {
            let old_out = linear.out_features();
            let new_out = ((old_out as f32 * factor).round() as usize).max(old_out + 1);
            let (mapping, mult) = replication_map(rng, old_out, new_out);
            let w = widen_columns(linear.weight(), &mapping);
            let b = widen_vector(linear.bias(), &mapping);
            linear.set_params(w, b);
            *origin = CellOrigin::Widened;
            // Patch the successor's input rows.
            if cell_index + 1 < cells.len() {
                match &mut cells[cell_index + 1] {
                    Cell::Dense { linear: next, .. } => {
                        let w2 = widen_rows_scaled(next.weight(), &mapping, &mult);
                        let b2 = next.bias().clone();
                        next.set_params(w2, b2);
                    }
                    other => {
                        return Err(ModelError::InvalidTransform {
                            detail: format!(
                                "dense cell followed by {} cell cannot be widened",
                                other.kind()
                            ),
                        })
                    }
                }
            } else {
                let w2 = widen_rows_scaled(head.linear().weight(), &mapping, &mult);
                let b2 = head.linear().bias().clone();
                head.linear_mut().set_params(w2, b2);
            }
        }
        Cell::Conv { conv, origin, .. } => {
            let old_out = conv.out_channels();
            let new_out = ((old_out as f32 * factor).round() as usize).max(old_out + 1);
            let (mapping, mult) = replication_map(rng, old_out, new_out);
            let kernel = conv.kernel();
            let (h, wdim) = conv.spatial();
            // New output channels copy source channel rows.
            let mut w = Tensor::zeros(&[new_out, conv.weight().shape().dims()[1]]);
            let cols = conv.weight().shape().dims()[1];
            for (j, &src) in mapping.iter().enumerate() {
                for c in 0..cols {
                    w.data_mut()[j * cols + c] = conv.weight().data()[src * cols + c];
                }
            }
            let b = widen_vector(conv.bias(), &mapping);
            let in_c = conv.in_channels();
            *conv = Conv2d::from_params(w, b, in_c, kernel, h, wdim);
            *origin = CellOrigin::Widened;
            if cell_index + 1 < cells.len() {
                match &mut cells[cell_index + 1] {
                    Cell::Conv { conv: next, .. } => {
                        let kernel2 = next.kernel();
                        let (h2, w2dim) = next.spatial();
                        let w2 = widen_conv_in_channels(next.weight(), &mapping, &mult, kernel2);
                        let b2 = next.bias().clone();
                        *next = Conv2d::from_params(w2, b2, new_out, kernel2, h2, w2dim);
                    }
                    other => {
                        return Err(ModelError::InvalidTransform {
                            detail: format!(
                                "conv cell followed by {} cell cannot be widened",
                                other.kind()
                            ),
                        })
                    }
                }
            } else {
                head.set_input_channels(new_out);
                let w2 = widen_rows_scaled(head.linear().weight(), &mapping, &mult);
                let b2 = head.linear().bias().clone();
                head.linear_mut().set_params(w2, b2);
            }
        }
        Cell::Attention { block, origin, .. } => {
            // Widening is self-contained: grow the residual MLP width.
            let old_ff = block.d_ff();
            let new_ff = ((old_ff as f32 * factor).round() as usize).max(old_ff + 1);
            let (mapping, mult) = replication_map(rng, old_ff, new_ff);
            let [_, _, _, _, w1, w2] = block.weights();
            let new_w1 = widen_columns(w1, &mapping);
            let new_w2 = widen_rows_scaled(w2, &mapping, &mult);
            block.set_mlp(new_w1, new_w2);
            *origin = CellOrigin::Widened;
        }
    }

    Ok(CellModel::from_parts(
        cells,
        head,
        input_width,
        Some(parent_id),
        generation,
    ))
}

/// Produces a new model with `count` identity cells inserted after
/// `cell_index`, warm-started so parent and child compute the same
/// function.
///
/// # Errors
///
/// Returns [`ModelError::NoSuchCell`] for a bad index and
/// [`ModelError::InvalidTransform`] when `count == 0`.
pub fn deepen_cell(
    parent: &CellModel,
    cell_index: usize,
    count: usize,
    rng: &mut impl Rng,
) -> Result<CellModel> {
    if count == 0 {
        return Err(ModelError::InvalidTransform {
            detail: "deepen count must be at least 1".to_owned(),
        });
    }
    if cell_index >= parent.cells().len() {
        return Err(ModelError::NoSuchCell {
            index: cell_index,
            cells: parent.cells().len(),
        });
    }
    let parent_id = parent.id();
    let generation = parent.generation() + 1;
    let (mut cells, head, input_width, _, _) = parent.clone().into_parts();
    for cell in &mut cells {
        cell.set_origin(CellOrigin::Inherited);
    }

    let template = &cells[cell_index];
    let mut inserted: Vec<Cell> = Vec::with_capacity(count);
    for _ in 0..count {
        let new_cell = match template {
            Cell::Dense { linear, .. } => Cell::Dense {
                id: CellId::fresh(),
                origin: CellOrigin::Inserted,
                linear: Linear::identity(linear.out_features()),
                relu: Relu::new(),
            },
            Cell::Conv { conv, .. } => {
                let (h, w) = conv.spatial();
                Cell::Conv {
                    id: CellId::fresh(),
                    origin: CellOrigin::Inserted,
                    conv: Conv2d::identity(conv.out_channels(), conv.kernel(), h, w),
                    relu: Relu::new(),
                }
            }
            Cell::Attention { block, .. } => Cell::Attention {
                id: CellId::fresh(),
                origin: CellOrigin::Inserted,
                block: AttentionBlock::identity(rng, block.tokens(), block.d_model(), block.d_ff()),
            },
        };
        inserted.push(new_cell);
    }
    // Insert after cell_index, preserving order.
    let tail = cells.split_off(cell_index + 1);
    cells.extend(inserted);
    cells.extend(tail);

    Ok(CellModel::from_parts(
        cells,
        head,
        input_width,
        Some(parent_id),
        generation,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn assert_function_preserved(parent: &mut CellModel, child: &mut CellModel, input_dim: usize) {
        let mut r = rng(99);
        let x = ft_tensor::uniform(&mut r, &[4, input_dim], -1.0, 1.0);
        let yp = parent.forward(&x).unwrap();
        let yc = child.forward(&x).unwrap();
        assert_eq!(yp.shape(), yc.shape());
        for (a, b) in yp.data().iter().zip(yc.data()) {
            assert!(
                (a - b).abs() < 1e-3,
                "transform changed the function: {a} vs {b}"
            );
        }
    }

    #[test]
    fn widen_dense_preserves_function() {
        let mut parent = CellModel::dense(&mut rng(1), 6, &[10, 10], 4);
        for idx in 0..2 {
            let mut child = widen_cell(&parent, idx, 2.0, &mut rng(2)).unwrap();
            assert_function_preserved(&mut parent, &mut child, 6);
            assert!(child.param_count() > parent.param_count());
            assert_eq!(child.parent(), Some(parent.id()));
        }
    }

    #[test]
    fn widen_last_dense_patches_head() {
        let parent = CellModel::dense(&mut rng(3), 5, &[8], 3);
        let mut p = parent.clone();
        let mut child = widen_cell(&parent, 0, 2.0, &mut rng(4)).unwrap();
        assert_function_preserved(&mut p, &mut child, 5);
        assert_eq!(child.cells()[0].out_width(), 16);
        assert_eq!(child.head().linear().in_features(), 16);
    }

    #[test]
    fn widen_conv_preserves_function() {
        let mut parent = CellModel::conv(&mut rng(5), 1, 5, 5, &[3, 5], 3, 4);
        for idx in 0..2 {
            let mut child = widen_cell(&parent, idx, 2.0, &mut rng(6)).unwrap();
            assert_function_preserved(&mut parent, &mut child, 25);
        }
    }

    #[test]
    fn widen_attention_preserves_function() {
        let mut parent = CellModel::vit(&mut rng(7), 4, 4, 2, 8, 3);
        let mut child = widen_cell(&parent, 1, 2.0, &mut rng(8)).unwrap();
        assert_function_preserved(&mut parent, &mut child, 16);
    }

    #[test]
    fn widen_fractional_factor() {
        let parent = CellModel::dense(&mut rng(9), 4, &[10], 3);
        let mut p = parent.clone();
        let mut child = widen_cell(&parent, 0, 1.5, &mut rng(10)).unwrap();
        assert_eq!(child.cells()[0].out_width(), 15);
        assert_function_preserved(&mut p, &mut child, 4);
    }

    #[test]
    fn widen_rejects_bad_args() {
        let parent = CellModel::dense(&mut rng(11), 4, &[8], 3);
        assert!(widen_cell(&parent, 0, 1.0, &mut rng(12)).is_err());
        assert!(widen_cell(&parent, 5, 2.0, &mut rng(12)).is_err());
    }

    #[test]
    fn deepen_dense_preserves_function() {
        let mut parent = CellModel::dense(&mut rng(13), 6, &[10], 4);
        let mut child = deepen_cell(&parent, 0, 1, &mut rng(14)).unwrap();
        assert_eq!(child.cells().len(), 2);
        assert_function_preserved(&mut parent, &mut child, 6);
    }

    #[test]
    fn deepen_conv_preserves_function() {
        let mut parent = CellModel::conv(&mut rng(15), 1, 5, 5, &[4], 3, 3);
        let mut child = deepen_cell(&parent, 0, 2, &mut rng(16)).unwrap();
        assert_eq!(child.cells().len(), 3);
        assert_function_preserved(&mut parent, &mut child, 25);
    }

    #[test]
    fn deepen_attention_preserves_function() {
        let mut parent = CellModel::vit(&mut rng(17), 3, 4, 1, 8, 3);
        let mut child = deepen_cell(&parent, 0, 1, &mut rng(18)).unwrap();
        assert_function_preserved(&mut parent, &mut child, 12);
    }

    #[test]
    fn deepen_marks_origins() {
        let parent = CellModel::dense(&mut rng(19), 4, &[8], 3);
        let child = deepen_cell(&parent, 0, 1, &mut rng(20)).unwrap();
        assert_eq!(child.cells()[0].origin(), CellOrigin::Inherited);
        assert_eq!(child.cells()[1].origin(), CellOrigin::Inserted);
        // Inherited cell keeps its identity; inserted cell gets a new one.
        assert_eq!(child.cells()[0].id(), parent.cells()[0].id());
        assert_ne!(child.cells()[1].id(), parent.cells()[0].id());
    }

    #[test]
    fn deepen_rejects_bad_args() {
        let parent = CellModel::dense(&mut rng(21), 4, &[8], 3);
        assert!(deepen_cell(&parent, 0, 0, &mut rng(22)).is_err());
        assert!(deepen_cell(&parent, 3, 1, &mut rng(22)).is_err());
    }

    #[test]
    fn widened_child_can_train() {
        let parent = CellModel::dense(&mut rng(23), 4, &[8], 2);
        let mut child = widen_cell(&parent, 0, 2.0, &mut rng(24)).unwrap();
        let x = ft_tensor::uniform(&mut rng(25), &[4, 4], -1.0, 1.0);
        let labels = [0usize, 1, 0, 1];
        let mut opt = ft_nn::Sgd::new(0.1);
        let (first, _) = child.loss_and_grad(&x, &labels).unwrap();
        for _ in 0..30 {
            child.zero_grad();
            child.loss_and_grad(&x, &labels).unwrap();
            let grads: Vec<Tensor> = child.grad_tensors().into_iter().cloned().collect();
            let refs: Vec<&Tensor> = grads.iter().collect();
            let mut params = child.param_tensors_mut();
            opt.step(&mut params, &refs).unwrap();
        }
        let (last, _) = child.evaluate(&x, &labels).unwrap();
        assert!(last < first);
    }

    #[test]
    fn repeated_transforms_compose() {
        let mut m = CellModel::dense(&mut rng(26), 4, &[6], 3);
        let mut r = rng(27);
        for step in 0..4 {
            let mut orig = m.clone();
            let mut next = if step % 2 == 0 {
                widen_cell(&m, 0, 2.0, &mut r).unwrap()
            } else {
                deepen_cell(&m, 0, 1, &mut r).unwrap()
            };
            assert_function_preserved(&mut orig, &mut next, 4);
            assert_eq!(next.generation(), m.generation() + 1);
            m = next;
        }
        assert!(m.cells().len() >= 3);
    }
}
