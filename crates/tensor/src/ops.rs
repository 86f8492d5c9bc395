//! Element-wise arithmetic, broadcasting helpers, and reductions.
//!
//! Out-of-place operators draw their result buffers from the
//! per-thread scratch pool ([`crate::scratch`]); the in-place
//! `*_assign` family delegates to the fused kernels in
//! [`crate::fused`], which large call sites across the workspace use
//! to keep the steady-state train step allocation-free.

use crate::{fused, scratch, Result, Tensor, TensorError};

impl Tensor {
    fn check_same_shape(&self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let mut data = scratch::take(self.len());
        for ((o, &a), &b) in data.iter_mut().zip(self.data()).zip(other.data()) {
            *o = a + b;
        }
        Ok(Tensor::from_parts(*self.shape(), data))
    }

    /// In-place element-wise sum, `self += other`.
    ///
    /// Bit-identical to [`Tensor::add`] without the result buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other)?;
        fused::add_assign(self.data_mut(), other.data());
        Ok(())
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let mut data = scratch::take(self.len());
        for ((o, &a), &b) in data.iter_mut().zip(self.data()).zip(other.data()) {
            *o = a - b;
        }
        Ok(Tensor::from_parts(*self.shape(), data))
    }

    /// In-place element-wise difference, `self -= other`.
    ///
    /// Bit-identical to [`Tensor::sub`] without the result buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other)?;
        fused::sub_assign(self.data_mut(), other.data());
        Ok(())
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let mut data = scratch::take(self.len());
        for ((o, &a), &b) in data.iter_mut().zip(self.data()).zip(other.data()) {
            *o = a * b;
        }
        Ok(Tensor::from_parts(*self.shape(), data))
    }

    /// In-place Hadamard product, `self *= other`.
    ///
    /// Bit-identical to [`Tensor::mul`] without the result buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other)?;
        fused::mul_assign(self.data_mut(), other.data());
        Ok(())
    }

    /// In-place `self += alpha * other`, the axpy primitive used by every
    /// aggregation rule in the workspace.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other)?;
        fused::axpy(self.data_mut(), alpha, other.data());
        Ok(())
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let mut data = scratch::take(self.len());
        for (o, &a) in data.iter_mut().zip(self.data()) {
            *o = a * alpha;
        }
        Tensor::from_parts(*self.shape(), data)
    }

    /// Scales in place by `alpha`.
    pub fn scale_mut(&mut self, alpha: f32) {
        fused::scale_assign(self.data_mut(), alpha);
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = scratch::take(self.len());
        for (o, &a) in data.iter_mut().zip(self.data()) {
            *o = f(a);
        }
        Tensor::from_parts(*self.shape(), data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements; zero for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Largest element; `None` when empty.
    pub fn max(&self) -> Option<f32> {
        self.data().iter().copied().fold(None, |acc, x| {
            Some(match acc {
                Some(m) if m >= x => m,
                _ => x,
            })
        })
    }

    /// Index of the largest element in each row of a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        let rows = self.rows()?;
        let cols = self.cols()?;
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            out.push(self.argmax_row(r, cols));
        }
        Ok(out)
    }

    /// Argmax of one row (allocation-free helper behind
    /// [`Tensor::argmax_rows`] and [`Tensor::argmax_hits`]).
    pub(crate) fn argmax_row(&self, r: usize, cols: usize) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (c, &v) in self.data()[r * cols..(r + 1) * cols].iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = c;
            }
        }
        best
    }

    /// Number of rows whose argmax equals the paired label.
    /// Allocation-free (no materialized prediction vector) — the
    /// accuracy inner loop of every evaluation pass. An integer, so the
    /// counts of a batch evaluated in chunks add up to the count of the
    /// whole batch exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn argmax_hits(&self, labels: &[usize]) -> Result<usize> {
        let rows = self.rows()?;
        let cols = self.cols()?;
        Ok(labels
            .iter()
            .take(rows)
            .enumerate()
            .filter(|&(r, &label)| self.argmax_row(r, cols) == label)
            .count())
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[0.5, 0.5, 0.5, 0.5], &[2, 2]);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0], &[1, 2]);
        assert!(a.add(&b).is_err());
        assert!(a.clone().add_assign(&b).is_err());
        assert!(a.clone().sub_assign(&b).is_err());
        assert!(a.clone().mul_assign(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0], &[2]);
        let b = t(&[2.0, 4.0], &[2]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn assign_ops_match_out_of_place() {
        let a = t(&[1.5, -2.0, 0.25, 8.0], &[4]);
        let b = t(&[0.3, 7.0, -1.5, 0.125], &[4]);
        let mut ip = a.clone();
        ip.add_assign(&b).unwrap();
        assert_eq!(ip, a.add(&b).unwrap());
        let mut ip = a.clone();
        ip.sub_assign(&b).unwrap();
        assert_eq!(ip, a.sub(&b).unwrap());
        let mut ip = a.clone();
        ip.mul_assign(&b).unwrap();
        assert_eq!(ip, a.mul(&b).unwrap());
    }

    #[test]
    fn row_broadcast_adds_bias() {
        // The bias reaches every row of a product in its store.
        let a = t(&[0.0, 0.0, 0.0, 0.0], &[2, 2]);
        let bias = t(&[1.0, 2.0], &[2]);
        let out = a.matmul_bias(&Tensor::eye(2), &bias).unwrap();
        assert_eq!(out.data(), &[1.0, 2.0, 1.0, 2.0]);
        assert!(a.matmul_bias(&Tensor::eye(2), &t(&[1.0], &[1])).is_err());
    }

    #[test]
    fn sum_rows_reduces_columns() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let mut s = t(&[0.0, 0.0], &[2]);
        a.sum_rows_into(&mut s).unwrap();
        assert_eq!(s.data(), &[4.0, 6.0]);
        a.sum_rows_into(&mut s).unwrap();
        assert_eq!(s.data(), &[4.0, 6.0], "a second call stores over the first");
        assert!(a.sum_rows_into(&mut t(&[0.0], &[1])).is_err());
    }

    #[test]
    fn argmax_rows_finds_maxima() {
        let a = t(&[1.0, 5.0, 2.0, 9.0, 0.0, -1.0], &[2, 3]);
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn argmax_hits_counts_matches() {
        let a = t(&[0.9, 0.1, 0.2, 0.8], &[2, 2]);
        assert_eq!(a.argmax_hits(&[0, 1]).unwrap(), 2);
        assert_eq!(a.argmax_hits(&[1, 0]).unwrap(), 0);
        assert_eq!(a.argmax_hits(&[0, 0]).unwrap(), 1);
        assert_eq!(Tensor::zeros(&[0, 3]).argmax_hits(&[]).unwrap(), 0);
    }

    #[test]
    fn norm_is_euclidean() {
        let a = t(&[3.0, 4.0], &[2]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }
}
