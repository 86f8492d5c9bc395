//! Shape adaptation for cross-model weight sharing.
//!
//! FedTrans's soft aggregation (Eq. 5) combines weights of models with
//! different architectures, cropping a tensor "if necessary to fit the
//! shape of `w_j` as in HeteroFL". Because the transform engine appends
//! new units at the end of every axis, the top-left block of a child's
//! tensor corresponds position-for-position to its ancestor's tensor, so
//! plain corner cropping and corner overlap-adds are semantically
//! aligned for every layer type in this workspace.

use ft_tensor::Tensor;

/// Crops `src` to `dims`, taking the top-left corner. Axes where `src`
/// is smaller than `dims` keep the source extent (no padding).
///
/// Supports rank-1 and rank-2 tensors, which covers every parameter
/// tensor in the workspace.
///
/// ```
/// use ft_model::crop::crop_to;
/// use ft_tensor::Tensor;
///
/// let big = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
/// let small = crop_to(&big, &[2, 2]);
/// assert_eq!(small.data(), &[0.0, 1.0, 3.0, 4.0]);
/// ```
#[expect(
    clippy::missing_panics_doc,
    reason = "each arm builds exactly as many elements as the shape it names"
)]
pub fn crop_to(src: &Tensor, dims: &[usize]) -> Tensor {
    match (src.shape().rank(), dims.len()) {
        (1, 1) => {
            let n = dims[0].min(src.len());
            Tensor::from_vec(src.data()[..n].to_vec(), &[n]).expect("length matches")
        }
        (2, 2) => {
            let src_rows = src.shape().dims()[0];
            let src_cols = src.shape().dims()[1];
            let rows = dims[0].min(src_rows);
            let cols = dims[1].min(src_cols);
            let mut out = Vec::with_capacity(rows * cols);
            for r in 0..rows {
                out.extend_from_slice(&src.data()[r * src_cols..r * src_cols + cols]);
            }
            Tensor::from_vec(out, &[rows, cols]).expect("length matches")
        }
        _ => src.clone(),
    }
}

/// Adds `weight · src` into the top-left overlap of `acc`, recording the
/// contribution weight per element in `counts`.
///
/// After accumulating every contributor, call [`finalize_overlap`] to
/// divide by the accumulated weights; elements never touched keep the
/// destination's original value.
///
/// # Panics
///
/// Panics if `acc` and `counts` have different shapes.
pub fn overlap_add(acc: &mut Tensor, counts: &mut Tensor, src: &Tensor, weight: f32) {
    assert_eq!(
        acc.shape(),
        counts.shape(),
        "acc and counts must share a shape"
    );
    match (acc.shape().rank(), src.shape().rank()) {
        (1, 1) => {
            let n = acc.len().min(src.len());
            for i in 0..n {
                acc.data_mut()[i] += weight * src.data()[i];
                counts.data_mut()[i] += weight;
            }
        }
        (2, 2) => {
            let acc_cols = acc.shape().dims()[1];
            let src_cols = src.shape().dims()[1];
            let rows = acc.shape().dims()[0].min(src.shape().dims()[0]);
            let cols = acc_cols.min(src_cols);
            for r in 0..rows {
                for c in 0..cols {
                    acc.data_mut()[r * acc_cols + c] += weight * src.data()[r * src_cols + c];
                    counts.data_mut()[r * acc_cols + c] += weight;
                }
            }
        }
        _ => {}
    }
}

/// Divides accumulated sums by accumulated weights, falling back to
/// `original` where nothing was accumulated.
///
/// # Panics
///
/// Panics if the three tensors do not share a shape.
pub fn finalize_overlap(acc: &mut Tensor, counts: &Tensor, original: &Tensor) {
    assert_eq!(acc.shape(), counts.shape());
    assert_eq!(acc.shape(), original.shape());
    for i in 0..acc.len() {
        let w = counts.data()[i];
        if w > 0.0 {
            acc.data_mut()[i] /= w;
        } else {
            acc.data_mut()[i] = original.data()[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crop_vector() {
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let c = crop_to(&v.unwrap(), &[2]);
        assert_eq!(c.data(), &[1.0, 2.0]);
    }

    #[test]
    fn crop_matrix_corner() {
        let m = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let c = crop_to(&m, &[2, 2]);
        assert_eq!(c.data(), &[0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn crop_larger_than_source_keeps_source() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = crop_to(&m, &[4, 4]);
        assert_eq!(c.shape().dims(), &[2, 2]);
    }

    #[test]
    fn overlap_add_and_finalize_average() {
        let original = Tensor::full(&[2, 2], 9.0);
        let mut acc = Tensor::zeros(&[2, 2]);
        let mut counts = Tensor::zeros(&[2, 2]);
        let small = Tensor::from_vec(vec![2.0], &[1, 1]).unwrap();
        let full = Tensor::ones(&[2, 2]);
        overlap_add(&mut acc, &mut counts, &small, 1.0);
        overlap_add(&mut acc, &mut counts, &full, 1.0);
        finalize_overlap(&mut acc, &counts, &original);
        // Top-left got (2+1)/2; others got 1/1.
        assert_eq!(acc.data(), &[1.5, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn untouched_elements_keep_original() {
        let original = Tensor::full(&[2], 7.0);
        let mut acc = Tensor::zeros(&[2]);
        let mut counts = Tensor::zeros(&[2]);
        let small = Tensor::from_vec(vec![3.0], &[1]).unwrap();
        overlap_add(&mut acc, &mut counts, &small, 2.0);
        finalize_overlap(&mut acc, &counts, &original);
        assert_eq!(acc.data(), &[3.0, 7.0]);
    }
}
