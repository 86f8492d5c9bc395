use serde::{DeError, Deserialize, Serialize, Value};

use crate::{scratch, series, Result, Shape, TensorError};

/// A dense, row-major, owned `f32` tensor.
///
/// `Tensor` is the common currency between the NN substrate, the model
/// transformation code, and the aggregation logic. It is intentionally
/// simple: contiguous storage, explicit shape, no views. Model surgery
/// (widening/deepening cells, cropping for HeteroFL-style aggregation)
/// manipulates `Tensor`s through the safe accessors here.
///
/// # Storage lifecycle
///
/// Data buffers are checked out of the per-thread scratch pool
/// ([`crate::scratch`]) on construction and returned to it on drop, so
/// steady-state loops that create and destroy same-shaped tensors every
/// iteration stop touching the allocator once warm. This is invisible
/// to callers: contents and semantics are exactly those of a
/// `Vec<f32>`-backed tensor.
///
/// ```
/// use ft_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
///
/// # Wire format
///
/// A tensor serializes through [`crate::series`] as `{"shape":[…],"data":"…"}`,
/// where `data` is the standard (RFC 4648, padded) base64 of the
/// elements' little-endian `f32` bytes. Every bit pattern — NaN
/// payloads, ±inf, −0.0, subnormals — survives the round trip, at about
/// 5.3 characters an element instead of up to 17 decimal digits.
#[derive(Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Assembles a tensor from parts without validation (crate-internal
    /// fast path; callers guarantee `data.len() == shape.volume()`).
    pub(crate) fn from_parts(shape: Shape, data: Vec<f32>) -> Self {
        debug_assert_eq!(shape.volume(), data.len());
        Tensor { shape, data }
    }

    /// Creates a tensor from a buffer and shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.volume() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = scratch::take_zeroed(shape.volume());
        Tensor { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let mut data = scratch::take(shape.volume());
        data.fill(value);
        Tensor { shape, data }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Reshapes in place without moving data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if volumes differ.
    pub fn reshape(&mut self, dims: &[usize]) -> Result<()> {
        let new_shape = Shape::new(dims);
        if new_shape.volume() != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.data.len(),
                to: new_shape.volume(),
            });
        }
        self.shape = new_shape;
        Ok(())
    }

    /// Returns a reshaped copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if volumes differ.
    pub fn reshaped(&self, dims: &[usize]) -> Result<Self> {
        let mut out = self.clone();
        out.reshape(dims)?;
        Ok(out)
    }

    /// Number of rows, treating the tensor as a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn rows(&self) -> Result<usize> {
        self.shape.expect_rank(2)?;
        self.shape.dim(0)
    }

    /// Number of columns, treating the tensor as a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn cols(&self) -> Result<usize> {
        self.shape.expect_rank(2)?;
        self.shape.dim(1)
    }

    /// Element access for a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the indices are out of range;
    /// this accessor is meant for test and surgery code where the shape is
    /// established beforehand.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let cols = self.shape.dims()[1];
        self.data[r * cols + c]
    }

    /// Mutable element access for a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::at`].
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        let cols = self.shape.dims()[1];
        &mut self.data[r * cols + c]
    }

    /// Copies row `r` of a rank-2 tensor into a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `r` exceeds the row
    /// count, or [`TensorError::RankMismatch`] for non-matrices.
    pub fn row(&self, r: usize) -> Result<Vec<f32>> {
        let rows = self.rows()?;
        let cols = self.cols()?;
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds {
                axis: 0,
                index: r,
                len: rows,
            });
        }
        Ok(self.data[r * cols..(r + 1) * cols].to_vec())
    }

    /// Builds a matrix from an iterator of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] when no rows are supplied and
    /// [`TensorError::ShapeMismatch`] when row lengths disagree.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let first = rows.first().ok_or(TensorError::Empty)?;
        let cols = first.len();
        for row in rows {
            if row.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    left: vec![rows.len(), cols],
                    right: vec![rows.len(), row.len()],
                });
            }
        }
        let mut data = scratch::take(rows.len() * cols);
        for (row, dst) in rows.iter().zip(data.chunks_exact_mut(cols.max(1))) {
            dst.copy_from_slice(row);
        }
        Tensor::from_vec(data, &[rows.len(), cols])
    }

    /// Extracts rows `[start, end)` of a rank-2 tensor as a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the range is invalid.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Self> {
        let rows = self.rows()?;
        let cols = self.cols()?;
        if start > end || end > rows {
            return Err(TensorError::IndexOutOfBounds {
                axis: 0,
                index: end,
                len: rows,
            });
        }
        let mut data = scratch::take((end - start) * cols);
        data.copy_from_slice(&self.data[start * cols..end * cols]);
        Ok(Tensor::from_parts(Shape::new(&[end - start, cols]), data))
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Self> {
        let rows = self.rows()?;
        let cols = self.cols()?;
        // Every slot is written exactly once, so unzeroed scratch is safe.
        let mut out = scratch::take(self.data.len());
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Ok(Tensor::from_parts(Shape::new(&[cols, rows]), out))
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = scratch::take(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Copies in place, reusing the existing buffer when it is large
    /// enough (same-shaped tensors always are) — the allocation-free
    /// path for refreshing persistent gradient/weight snapshots.
    fn clone_from(&mut self, source: &Self) {
        self.shape = source.shape;
        self.data.clear();
        self.data.extend_from_slice(&source.data);
    }
}

impl Drop for Tensor {
    /// Returns the data buffer to the per-thread scratch pool.
    fn drop(&mut self) {
        scratch::recycle(std::mem::take(&mut self.data));
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor; its `Debug` form is never empty of content.
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl Serialize for Tensor {
    fn to_value(&self) -> Value {
        series::to_value(self.shape.dims(), &self.data)
    }
}

impl Deserialize for Tensor {
    /// [`series::from_value`]: a hostile block costs an error, never a
    /// huge allocation or a panic.
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let (shape, data) = series::from_value(value)?;
        Ok(Tensor { shape, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        assert_eq!(t.at(0, 0), 1.0);
        assert_eq!(t.at(0, 1), 0.0);
        assert_eq!(t.at(2, 2), 1.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn slice_rows_extracts_contiguous_block() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]).unwrap();
        let s = t.slice_rows(1, 3).unwrap();
        assert_eq!(s.shape().dims(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        t.reshape(&[4]).unwrap();
        assert_eq!(t.shape().dims(), &[4]);
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn from_rows_checks_lengths() {
        assert!(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(t.shape().dims(), &[2, 2]);
    }

    #[test]
    fn recycled_buffers_never_leak_contents() {
        // A dropped tensor's buffer may be reused; fresh constructors
        // must still observe fully initialized contents.
        drop(Tensor::full(&[64], 7.0));
        let z = Tensor::zeros(&[64]);
        assert!(z.data().iter().all(|&v| v == 0.0));
        drop(Tensor::full(&[64], 3.0));
        let o = Tensor::ones(&[64]);
        assert!(o.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn clone_from_reuses_capacity() {
        let src = Tensor::full(&[128], 2.0);
        let mut dst = Tensor::zeros(&[128]);
        let ptr = dst.data().as_ptr();
        dst.clone_from(&src);
        assert_eq!(
            dst.data().as_ptr(),
            ptr,
            "same-size clone_from must not realloc"
        );
        assert_eq!(dst, src);
    }

    #[test]
    fn into_vec_hands_off_storage() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert_eq!(t.into_vec(), vec![1.0, 2.0]);
    }
}
