//! Row-major `f32` matrix with the handful of BLAS-like operations the
//! transformer substrate needs.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::gemm::{self, GemmScratch};
use crate::TensorError;

/// A dense, row-major matrix of `f32` values.
///
/// The matrix is deliberately simple: it owns a flat `Vec<f32>` and exposes
/// only the operations used by the inference engine (GEMM, transposed GEMM,
/// row views, element-wise helpers). Parallelism is applied across rows via
/// rayon once the problem size crosses a small threshold.
///
/// # Example
///
/// ```
/// use million_tensor::Matrix;
///
/// let identity = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
/// let x = Matrix::from_vec(3, 3, (0..9).map(|v| v as f32).collect()).unwrap();
/// let y = x.matmul(&identity);
/// assert_eq!(x.as_slice(), y.as_slice());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Problem sizes (rows * cols) below this stay single-threaded.
const PAR_THRESHOLD: usize = 64 * 64;

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidArgument(format!(
                "buffer of length {} cannot back a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a single-row matrix from a slice.
    pub fn from_row(row: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Immutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies one column into a fresh vector.
    ///
    /// Hot paths should prefer [`Matrix::column_iter`] (no materialisation)
    /// or [`Matrix::column_into`] (caller-owned buffer): this variant
    /// allocates a new `Vec` on every call.
    pub fn column(&self, col: usize) -> Vec<f32> {
        self.column_iter(col).collect()
    }

    /// Strided iterator over one column, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols` (on a non-empty matrix).
    #[inline]
    pub fn column_iter(&self, col: usize) -> impl ExactSizeIterator<Item = f32> + '_ {
        assert!(
            col < self.cols || self.rows == 0,
            "column index out of bounds"
        );
        self.data
            .iter()
            .skip(col)
            .step_by(self.cols.max(1))
            .copied()
    }

    /// Copies one column into a caller-provided buffer of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols` or `out.len() != rows`.
    pub fn column_into(&self, col: usize, out: &mut [f32]) {
        assert!(col < self.cols, "column index out of bounds");
        assert_eq!(out.len(), self.rows, "column buffer length mismatch");
        for (slot, value) in out.iter_mut().zip(self.column_iter(col)) {
            *slot = value;
        }
    }

    /// Reshapes the matrix in place to `rows x cols`, zero-filling the
    /// contents. The backing allocation is kept whenever its capacity
    /// suffices — the buffer-reuse counterpart of [`Matrix::zeros`] used by
    /// scratch owners (no allocation once the buffer has grown to the
    /// largest shape seen).
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `other`, keeping the backing allocation whenever
    /// its capacity suffices — the buffer-reuse counterpart of `clone`.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Returns a new matrix containing rows `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Matrix {
        assert!(range.end <= self.rows, "row range out of bounds");
        Matrix {
            rows: range.len(),
            cols: self.cols,
            data: self.data[range.start * self.cols..range.end * self.cols].to_vec(),
        }
    }

    /// Appends the rows of `other` below `self`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if column counts differ.
    pub fn append_rows(&mut self, other: &Matrix) -> Result<(), TensorError> {
        if self.cols != other.cols && !self.is_empty() {
            return Err(TensorError::ShapeMismatch {
                op: "append_rows",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if self.is_empty() {
            self.cols = other.cols;
        }
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
        Ok(())
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Dense GEMM: `self (m x k) * other (k x n) -> (m x n)`.
    ///
    /// Allocates the result and a one-shot pack buffer; loops multiplying
    /// many activations by the same shapes should hold a [`GemmScratch`] and
    /// use [`Matrix::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree. Use [`Matrix::try_matmul`]
    /// for a fallible variant.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.try_matmul(other).expect("matmul shape mismatch")
    }

    /// Fallible dense GEMM.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn try_matmul(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::default();
        self.matmul_into(other, &mut GemmScratch::new(), &mut out);
        Ok(out)
    }

    /// Dense GEMM into a caller-owned result, packing `other` into a
    /// caller-owned [`GemmScratch`]: allocation-free once both have grown to
    /// the shapes in use. Every output entry folds `self[i][k] * other[k][j]`
    /// for `k = 0..K` in order, so each row of the result is bit-identical to
    /// [`crate::ops::vec_matmul_into`] on that row (see [`crate::gemm`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, scratch: &mut GemmScratch, out: &mut Matrix) {
        gemm::gemm_into(self, other, scratch, out);
    }

    /// GEMM with the right-hand side transposed: `self (m x k) * other^T` where
    /// `other` is `(n x k)`, producing `(m x n)`.
    ///
    /// This is the layout used for attention scores (`Q * K^T`) because keys
    /// are stored row-per-token.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed requires equal inner dimensions"
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        let k = self.cols;
        let n = other.rows;
        let compute_row = |(r, out_row): (usize, &mut [f32])| {
            let a_row = &self.data[r * k..(r + 1) * k];
            for (c, o) in out_row.iter_mut().enumerate() {
                let b_row = &other.data[c * k..(c + 1) * k];
                *o = crate::ops::dot(a_row, b_row);
            }
        };
        if self.rows * n * k >= PAR_THRESHOLD * 8 {
            out.data.par_chunks_mut(n).enumerate().for_each(compute_row);
        } else {
            out.data.chunks_mut(n).enumerate().for_each(compute_row);
        }
        out
    }

    /// Element-wise addition of a broadcast row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length must equal cols");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, b) in row.iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place scaling of every element.
    pub fn scale(&mut self, factor: f32) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Mean of `(self - other)^2` over all elements.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "mse shape mismatch");
        if self.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                let d = (*a - *b) as f64;
                d * d
            })
            .sum();
        sum / self.data.len() as f64
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl FromIterator<Vec<f32>> for Matrix {
    /// Builds a matrix from row vectors. All rows must have equal length;
    /// otherwise the constructor panics.
    fn from_iter<T: IntoIterator<Item = Vec<f32>>>(iter: T) -> Self {
        let mut rows = 0;
        let mut cols = 0;
        let mut data = Vec::new();
        for row in iter {
            if rows == 0 {
                cols = row.len();
            }
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(&row);
            rows += 1;
        }
        Matrix { rows, cols, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_has_right_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn try_matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.try_matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_transposed_equals_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let b = Matrix::from_fn(5, 4, |r, c| (r * c) as f32 * 0.25 - 1.0);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_transposed(&b);
        for (x, y) in via_t.as_slice().iter().zip(direct.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn append_rows_grows_matrix() {
        let mut a = Matrix::zeros(0, 0);
        let b = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        a.append_rows(&b).unwrap();
        a.append_rows(&b).unwrap();
        assert_eq!(a.shape(), (4, 3));
        assert_eq!(a.row(3), b.row(1));
    }

    #[test]
    fn append_rows_rejects_mismatched_cols() {
        let mut a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(a.append_rows(&b).is_err());
    }

    #[test]
    fn resize_zeroed_reuses_capacity_and_zero_fills() {
        let mut m = Matrix::from_fn(4, 4, |_, _| 7.0);
        let ptr = m.as_slice().as_ptr();
        m.resize_zeroed(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        // Shrinking reuses the original allocation.
        assert_eq!(m.as_slice().as_ptr(), ptr);
        m.resize_zeroed(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn copy_from_reuses_capacity() {
        let src = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let mut dst = Matrix::from_fn(4, 4, |_, _| 7.0);
        let ptr = dst.as_slice().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn slice_rows_returns_copy() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let s = m.slice_rows(1..3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), m.row(1));
    }

    #[test]
    fn add_row_bias_and_scale() {
        let mut m = Matrix::from_fn(2, 2, |_, _| 1.0);
        m.add_row_bias(&[1.0, 2.0]);
        m.scale(2.0);
        assert_eq!(m.as_slice(), &[4.0, 6.0, 4.0, 6.0]);
    }

    #[test]
    fn mse_and_norm() {
        let a = Matrix::from_fn(2, 2, |_, _| 1.0);
        let b = Matrix::from_fn(2, 2, |_, _| 3.0);
        assert!((a.mse(&b) - 4.0).abs() < 1e-9);
        assert!((a.frobenius_norm() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn from_iterator_of_rows() {
        let m: Matrix = vec![vec![1.0, 2.0], vec![3.0, 4.0]].into_iter().collect();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn column_extracts_values() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.column(1), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn column_iter_and_column_into_match_column() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 7 + c * 3) as f32 - 4.0);
        for c in 0..3 {
            let owned = m.column(c);
            let iterated: Vec<f32> = m.column_iter(c).collect();
            assert_eq!(iterated, owned);
            assert_eq!(m.column_iter(c).len(), 5);
            let mut buf = vec![0.0f32; 5];
            m.column_into(c, &mut buf);
            assert_eq!(buf, owned);
        }
    }

    #[test]
    #[should_panic(expected = "column buffer length mismatch")]
    fn column_into_rejects_wrong_buffer() {
        let m = Matrix::zeros(3, 2);
        let mut buf = vec![0.0f32; 2];
        m.column_into(0, &mut buf);
    }

    proptest! {
        #[test]
        fn matmul_identity_is_noop(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let m = Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 - 6.0);
            let eye = Matrix::from_fn(cols, cols, |r, c| if r == c { 1.0 } else { 0.0 });
            let out = m.matmul(&eye);
            prop_assert_eq!(out.as_slice(), m.as_slice());
        }

        #[test]
        fn transpose_twice_is_identity(rows in 1usize..8, cols in 1usize..8) {
            let m = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn parallel_and_serial_matmul_agree(n in 1usize..5) {
            // Exercise both code paths by scaling problem size.
            let big = 70;
            let a = Matrix::from_fn(big, big, |r, c| ((r + c * n) % 7) as f32 * 0.5 - 1.0);
            let b = Matrix::from_fn(big, big, |r, c| ((r * 3 + c) % 5) as f32 * 0.25);
            let small_a = a.slice_rows(0..4);
            let full = a.matmul(&b);
            let partial = small_a.matmul(&b);
            for r in 0..4 {
                for c in 0..big {
                    prop_assert!((full.get(r, c) - partial.get(r, c)).abs() < 1e-4);
                }
            }
        }
    }
}
