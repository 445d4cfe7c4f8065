//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the single tensor type used throughout the DiagNet
//! reproduction. Samples are stored as rows (one row = one feature vector),
//! which keeps per-sample operations cache-friendly and lets rayon
//! parallelise over rows without any synchronisation.

use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32` values.
///
/// Invariant: `data.len() == rows * cols` at all times.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// An `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer of {} elements cannot be {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    /// Panics if the rows do not all have the same length, or if `rows` is
    /// empty (an empty matrix has no well-defined column count).
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has length {} != {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A 1×n row matrix wrapping `row`.
    pub fn from_row(row: Vec<f32>) -> Self {
        let cols = row.len();
        Matrix {
            rows: 1,
            cols,
            data: row,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshape to `rows × cols` in place, reusing the allocation.
    ///
    /// Newly exposed elements are zeroed; surviving elements keep whatever
    /// values they held (callers are expected to overwrite them). After the
    /// buffer has grown to its steady-state size once, further `resize`
    /// calls never touch the allocator — this is the primitive behind the
    /// reusable forward/backward workspaces.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrite `self` with `other`'s shape and contents, reusing the
    /// existing allocation when capacity allows.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// A new matrix holding only the rows selected by `indices`
    /// (in the given order; duplicates allowed).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::select_rows`] into a caller-provided buffer (reused across
    /// mini-batches by the training loop).
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
    }

    /// A new matrix holding only the columns selected by `indices`.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (j, &c) in indices.iter().enumerate() {
                dst[j] = src[c];
            }
        }
        out
    }

    /// The transpose of `self` (allocating wrapper around
    /// [`crate::linalg::transpose_into`]).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        crate::linalg::transpose_into(self, &mut out);
        out
    }

    /// In-place element-wise addition: `self += other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "add_assign: row mismatch");
        assert_eq!(self.cols, other.cols, "add_assign: col mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// In-place scaling: `self *= factor`.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Fill with zeros (keeps the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Appends the rows of `other` below `self`'s rows.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: col mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Concatenates columns of `other` to the right of `self`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Maximum absolute difference to `other`; `f32::INFINITY` on shape
    /// mismatch. Useful in tests and gradient checking.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        if self.rows != other.rows || self.cols != other.cols {
            return f32::INFINITY;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Index of the maximum value in row `r` (first occurrence on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        argmax(self.row(r))
    }

    /// True iff any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// Index of the maximum element of a slice (first occurrence on ties).
///
/// # Panics
/// Panics if `xs` is empty.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut best_v = xs[0];
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Indices that would sort `xs` in *descending* order (stable).
pub fn argsort_desc(xs: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| {
        xs[b]
            .partial_cmp(&xs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_layout() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_ragged_panics() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    /// `transpose` is the tiled kernel behind a wrapper: on shapes that end
    /// inside a tile, on single rows and columns and on empty matrices it
    /// must still be the definition, `t[c][r] = m[r][c]`.
    #[test]
    fn transpose_matches_its_definition() {
        for (rows, cols) in [(317, 512), (512, 128), (1, 45), (45, 1), (0, 9), (9, 0)] {
            let data = (0..rows * cols).map(|i| i as f32 * 0.5 - 7.0).collect();
            let m = Matrix::from_vec(rows, cols, data);
            let t = m.transpose();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            let mut expected = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    expected[c * rows + r] = m.data()[r * cols + c];
                }
            }
            assert_eq!(t.data(), expected.as_slice(), "{rows}x{cols}");
        }
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(r.row(1), &[1.0, 2.0, 3.0]);
        let c = m.select_cols(&[1]);
        assert_eq!(c.cols(), 1);
        assert_eq!(c.get(2, 0), 8.0);
    }

    #[test]
    fn stack_operations() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let v = a.vstack(&b);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = a.hstack(&b);
        assert_eq!(h.cols(), 4);
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn argmax_ties_take_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }

    #[test]
    fn argsort_desc_orders() {
        assert_eq!(argsort_desc(&[0.1, 0.9, 0.5]), vec![1, 2, 0]);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![10.0, 20.0]]);
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.row(0), &[5.5, 11.0]);
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert!(a.max_abs_diff(&b).is_infinite());
    }

    #[test]
    fn resize_reuses_allocation_and_zeros_growth() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.resize(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.row(2), &[0.0, 0.0]);
        let cap_before = m.data.capacity();
        m.resize(1, 2);
        m.resize(3, 2);
        assert_eq!(
            m.data.capacity(),
            cap_before,
            "shrink/regrow must not realloc"
        );
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let mut dst = Matrix::zeros(4, 4);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn select_rows_into_matches_select_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut out = Matrix::zeros(0, 0);
        m.select_rows_into(&[2, 0, 2], &mut out);
        assert_eq!(out, m.select_rows(&[2, 0, 2]));
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
