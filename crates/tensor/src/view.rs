//! Borrowed strided views over row-major activation buffers.
//!
//! Per-head attention kernels read one head's slice of a packed
//! `[tokens, n_heads * head_dim]` activation matrix. The seed prefill path
//! materialised each head with `Matrix::from_fn` copies; a [`StridedRows`]
//! view walks the same rows in place — no copy, no allocation — which is what
//! the tiled prefill kernel iterates over.

use crate::Matrix;

/// A borrowed view of one column band of a row-major `[rows, stride]` buffer:
/// row `t` of the view is `data[t * stride + offset .. t * stride + offset +
/// width]` — or, once [`StridedRows::starting_at`] re-indexed it to begin at
/// row `first`, row `t` is the buffer's row `t - first`.
///
/// # Example
///
/// ```
/// use million_tensor::{Matrix, StridedRows};
///
/// // Two tokens, two heads of width 2 packed side by side.
/// let qkv = Matrix::from_vec(2, 4, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).unwrap();
/// let head1 = StridedRows::from_matrix(&qkv, 2, 2);
/// assert_eq!(head1.row(0), &[2.0, 3.0]);
/// assert_eq!(head1.row(1), &[6.0, 7.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StridedRows<'a> {
    data: &'a [f32],
    stride: usize,
    offset: usize,
    width: usize,
    rows: usize,
    /// Index of the buffer's first row.
    first: usize,
}

impl<'a> StridedRows<'a> {
    /// Creates a view over `data` interpreted as `[data.len() / stride,
    /// stride]`, selecting columns `offset..offset + width` of every row.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero, the band does not fit in a row, or `data`
    /// is not a whole number of rows.
    pub fn new(data: &'a [f32], stride: usize, offset: usize, width: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(
            offset + width <= stride,
            "column band {offset}..{} exceeds stride {stride}",
            offset + width
        );
        assert!(
            data.len().is_multiple_of(stride),
            "buffer of length {} is not a whole number of {stride}-wide rows",
            data.len()
        );
        Self {
            data,
            stride,
            offset,
            width,
            rows: data.len() / stride,
            first: 0,
        }
    }

    /// View of columns `offset..offset + width` of every row of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the band exceeds the matrix width.
    pub fn from_matrix(m: &'a Matrix, offset: usize, width: usize) -> Self {
        Self::new(m.as_slice(), m.cols().max(1), offset, width)
    }

    /// The same rows re-indexed so the buffer's first row is row `first`:
    /// how a chunk's activations are addressed by their absolute positions
    /// in a sequence whose earlier rows live elsewhere. Rows below `first`
    /// do not exist.
    ///
    /// # Example
    ///
    /// ```
    /// use million_tensor::{Matrix, StridedRows};
    ///
    /// let chunk = Matrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 3.0]).unwrap();
    /// let at_40 = StridedRows::from_matrix(&chunk, 0, 2).starting_at(40);
    /// assert_eq!(at_40.rows(), 42);
    /// assert_eq!(at_40.row(41), &[2.0, 3.0]);
    /// ```
    #[must_use]
    pub fn starting_at(self, first: usize) -> Self {
        Self { first, ..self }
    }

    /// One past the index of the view's last row (its row count, unless it
    /// was re-indexed by [`Self::starting_at`]).
    pub fn rows(&self) -> usize {
        self.first + self.rows
    }

    /// Width of the column band.
    pub fn width(&self) -> usize {
        self.width
    }

    /// One row of the band.
    ///
    /// # Panics
    ///
    /// Panics if `t` is below the first row or not below [`Self::rows`].
    #[inline]
    pub fn row(&self, t: usize) -> &'a [f32] {
        let t = t
            .checked_sub(self.first)
            .expect("row below the view's first row");
        let base = t * self.stride + self.offset;
        &self.data[base..base + self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_selects_band_of_every_row() {
        let m = Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as f32);
        let band = StridedRows::from_matrix(&m, 2, 3);
        assert_eq!(band.rows(), 4);
        assert_eq!(band.width(), 3);
        for t in 0..4 {
            assert_eq!(band.row(t), &m.row(t)[2..5]);
        }
    }

    #[test]
    fn full_width_view_matches_rows() {
        let m = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let all = StridedRows::from_matrix(&m, 0, 4);
        for t in 0..3 {
            assert_eq!(all.row(t), m.row(t));
        }
    }

    #[test]
    fn a_view_starting_at_a_row_reads_the_buffer_from_there() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let band = StridedRows::from_matrix(&m, 1, 2).starting_at(5);
        assert_eq!(band.rows(), 8);
        for t in 5..8 {
            assert_eq!(band.row(t), &m.row(t - 5)[1..3]);
        }
    }

    #[test]
    #[should_panic(expected = "below the view's first row")]
    fn a_row_below_the_first_panics() {
        let m = Matrix::zeros(2, 4);
        let _ = StridedRows::from_matrix(&m, 0, 4).starting_at(3).row(2);
    }

    #[test]
    #[should_panic(expected = "exceeds stride")]
    fn band_outside_row_panics() {
        let m = Matrix::zeros(2, 4);
        let _ = StridedRows::from_matrix(&m, 3, 2);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_buffer_panics() {
        let data = [0.0f32; 7];
        let _ = StridedRows::new(&data, 4, 0, 4);
    }
}
