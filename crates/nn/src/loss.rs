//! Softmax cross-entropy loss and classification accuracy.
//!
//! The loss path is part of the steady-state train step, so it works
//! entirely in scratch-pooled buffers: no per-row temporaries, no
//! materialized prediction vector for accuracy.

use ft_tensor::{scratch, Tensor};

use crate::{NnError, Result};

/// Row-wise softmax with the usual max-subtraction for stability.
///
/// The exponentials are written straight into the output buffer and
/// normalized in place — same values, same summation order as the
/// former collect-then-divide implementation, without the per-row
/// temporary vector.
///
/// # Errors
///
/// Returns an error for non-matrix inputs.
pub fn softmax(logits: &Tensor) -> Result<Tensor> {
    let rows = logits.rows()?;
    let cols = logits.cols()?;
    // Every slot is written before being read, so unzeroed scratch is safe.
    let mut out = scratch::take(rows * cols);
    for r in 0..rows {
        let row = &logits.data()[r * cols..(r + 1) * cols];
        let orow = &mut out[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = (v - m).exp();
        }
        let sum: f32 = orow.iter().sum();
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
    Ok(Tensor::from_vec(out, &[rows, cols])?)
}

/// Mean softmax cross-entropy over a batch, returning `(loss, dlogits)`.
///
/// The gradient is already divided by the batch size, so it can be fed
/// straight into a backward pass.
///
/// # Errors
///
/// Returns [`NnError::LabelMismatch`] when the label count differs from
/// the batch size and [`NnError::LabelOutOfRange`] for invalid labels.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let rows = logits.rows()?;
    let cols = logits.cols()?;
    if labels.len() != rows {
        return Err(NnError::LabelMismatch {
            batch: rows,
            labels: labels.len(),
        });
    }
    for &l in labels {
        if l >= cols {
            return Err(NnError::LabelOutOfRange {
                label: l,
                classes: cols,
            });
        }
    }
    let probs = softmax(logits)?;
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    let inv_batch = 1.0 / rows as f32;
    for (r, &label) in labels.iter().enumerate() {
        let p = probs.data()[r * cols + label].max(1e-12);
        loss -= p.ln();
        grad.data_mut()[r * cols + label] -= 1.0;
    }
    grad.scale_mut(inv_batch);
    Ok((loss * inv_batch, grad))
}

/// Number of rows whose argmax matches the label.
///
/// Allocation-free: compares row argmaxes against labels on the fly
/// instead of materializing a prediction vector. Counts are integers,
/// so a shard scored chunk by chunk sums to exactly the count of one
/// whole-shard pass.
///
/// # Errors
///
/// Returns [`NnError::LabelMismatch`] when the label count differs from
/// the batch size and [`NnError::LabelOutOfRange`] for a label the
/// logits have no column for.
pub fn correct_count(logits: &Tensor, labels: &[usize]) -> Result<usize> {
    let rows = logits.rows()?;
    let cols = logits.cols()?;
    if labels.len() != rows {
        return Err(NnError::LabelMismatch {
            batch: rows,
            labels: labels.len(),
        });
    }
    if let Some(&label) = labels.iter().find(|&&l| l >= cols) {
        return Err(NnError::LabelOutOfRange {
            label,
            classes: cols,
        });
    }
    Ok(logits.argmax_hits(labels)?)
}

/// Fraction of rows whose argmax matches the label; `0.0` for an empty
/// batch.
///
/// # Errors
///
/// As [`correct_count`].
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let correct = correct_count(logits, labels)?;
    Ok(if labels.is_empty() {
        0.0
    } else {
        correct as f32 / labels.len() as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = softmax(&logits).unwrap();
        for r in 0..2 {
            let s: f32 = p.row(r).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let b = a.map(|x| x + 100.0);
        let pa = softmax(&a).unwrap();
        let pb = softmax(&b).unwrap();
        for (x, y) in pa.data().iter().zip(pb.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn perfect_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 1e-3);
    }

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[1, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[2]).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(vec![0.3, -0.2, 1.5, 0.0], &[2, 2]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1]).unwrap();
        for r in 0..2 {
            let s: f32 = grad.row(r).unwrap().iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn loss_gradient_check() {
        let logits = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[1]).unwrap();
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &[1]).unwrap();
            let (fm, _) = softmax_cross_entropy(&lm, &[1]).unwrap();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - grad.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn label_validation() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 3]).is_err());
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1]).unwrap(), 1.0);
        assert_eq!(accuracy(&logits, &[1, 0]).unwrap(), 0.0);
        assert_eq!(accuracy(&logits, &[0, 0]).unwrap(), 0.5);
        assert_eq!(correct_count(&logits, &[0, 0]).unwrap(), 1);
        assert!(correct_count(&logits, &[0, 2]).is_err());
        assert!(correct_count(&logits, &[0]).is_err());
    }
}
