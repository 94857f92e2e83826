//! Row-major dense matrices and reference linear algebra.
//!
//! [`Matrix`] is the lingua franca of the workspace: sparse encodings are
//! built from it, kernels verify their functional results against
//! [`Matrix::matmul`], and the synthetic workload generators produce it.

use crate::half::f16;
use crate::random::{RandomMatrixBuilder, SparsityPattern};

/// A dense row-major `rows x cols` matrix of `f32` values.
///
/// # Example
/// ```
/// use dsstc_tensor::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let show_cols = self.cols.min(8);
            let row: Vec<String> = (0..show_cols).map(|c| format!("{:.3}", self[(r, c)])).collect();
            let ellipsis = if self.cols > show_cols { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", row.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "at least one row is required");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Convenience wrapper around [`RandomMatrixBuilder`] producing a matrix
    /// with the given target `sparsity` (fraction of zeros, in `[0, 1]`).
    pub fn random_sparse(
        rows: usize,
        cols: usize,
        sparsity: f64,
        pattern: SparsityPattern,
        seed: u64,
    ) -> Self {
        RandomMatrixBuilder::new(rows, cols).sparsity(sparsity).pattern(pattern).seed(seed).build()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns element `(row, col)`, or `None` when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Returns a view of one row.
    ///
    /// # Panics
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns one column as an owned vector.
    ///
    /// # Panics
    /// Panics if `col >= self.cols()`.
    pub fn column(&self, col: usize) -> Vec<f32> {
        assert!(col < self.cols, "column {col} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, col)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Reference (inner-product, f32) matrix multiplication `self * rhs`.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix multiplication with operands rounded through FP16 storage and
    /// accumulated in FP32, matching the Tensor Core datapath.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_f16(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = f16::round_f32(self[(i, k)]);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * f16::round_f32(rhs[(k, j)]);
                }
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Applies ReLU (`max(x, 0)`) element-wise, the source of activation
    /// sparsity in the paper's CNN workloads.
    pub fn relu(&self) -> Matrix {
        let data = self.data.iter().map(|&x| x.max(0.0)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// [`Self::relu`] applied in place — no second matrix for a caller that
    /// owns its activations.
    pub fn relu_in_place(&mut self) {
        for x in &mut self.data {
            *x = x.max(0.0);
        }
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Fraction of elements that are exactly zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Fraction of elements that are non-zero, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Extracts the `tile_rows x tile_cols` sub-matrix whose top-left corner
    /// is `(row0, col0)`, padding with zeros when it overhangs the edge.
    pub fn tile(&self, row0: usize, col0: usize, tile_rows: usize, tile_cols: usize) -> Matrix {
        let mut out = Matrix::zeros(tile_rows, tile_cols);
        let copy_rows = tile_rows.min(self.rows.saturating_sub(row0));
        let copy_cols = tile_cols.min(self.cols.saturating_sub(col0));
        for r in 0..copy_rows {
            let src = &self.data[(row0 + r) * self.cols + col0..][..copy_cols];
            out.data[r * tile_cols..r * tile_cols + copy_cols].copy_from_slice(src);
        }
        out
    }

    /// Writes `tile` into this matrix at `(row0, col0)`, ignoring any part
    /// that would fall outside the bounds.
    pub fn set_tile(&mut self, row0: usize, col0: usize, tile: &Matrix) {
        let copy_rows = tile.rows.min(self.rows.saturating_sub(row0));
        let copy_cols = tile.cols.min(self.cols.saturating_sub(col0));
        for r in 0..copy_rows {
            let src = &tile.data[r * tile.cols..][..copy_cols];
            self.data[(row0 + r) * self.cols + col0..][..copy_cols].copy_from_slice(src);
        }
    }

    /// Returns the maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// Whether every element matches `other` within `tol` (see
    /// [`crate::approx_eq`]).
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.data.iter().zip(&other.data).all(|(&a, &b)| crate::approx_eq(a, b, tol))
    }

    /// Rounds every element through FP16 storage (see
    /// [`round_f32`](crate::f16::round_f32)).
    pub fn to_f16_precision(&self) -> Matrix {
        let data = self.data.iter().map(|&x| f16::round_f32(x)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (row, col): (usize, usize)) -> &f32 {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f32 {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 0);
        m[(2, 3)] = 5.0;
        assert_eq!(m[(2, 3)], 5.0);
        assert_eq!(m.get(2, 3), Some(5.0));
        assert_eq!(m.get(3, 0), None);
        assert_eq!(m.get(0, 4), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zeros(0, 4);
    }

    #[test]
    fn from_rows_and_row_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_mismatched_lengths_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let d = a.matmul(&b);
        assert_eq!(d, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[5.0, 5.0], &[2.0, 3.0]]);
        let d = a.matmul(&b);
        assert_eq!(d, Matrix::from_rows(&[&[5.0, 7.0]]));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn relu_produces_activation_sparsity() {
        let a = Matrix::from_rows(&[&[-1.0, 2.0], &[0.5, -3.0]]);
        let r = a.relu();
        assert_eq!(r, Matrix::from_rows(&[&[0.0, 2.0], &[0.5, 0.0]]));
        assert_eq!(r.nnz(), 2);
        assert!((r.sparsity() - 0.5).abs() < 1e-9);
        let mut in_place = a;
        in_place.relu_in_place();
        assert_eq!(in_place, r);
    }

    #[test]
    fn tile_extraction_with_padding() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let t = a.tile(1, 1, 2, 2);
        assert_eq!(t, Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 0.0]]));
    }

    #[test]
    fn set_tile_clips_to_bounds() {
        let mut a = Matrix::zeros(2, 2);
        let t = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.set_tile(1, 1, &t);
        assert_eq!(a, Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]));
    }

    #[test]
    fn tiles_roundtrip_full_matrix() {
        let a = Matrix::random_sparse(10, 14, 0.4, SparsityPattern::Uniform, 7);
        let mut rebuilt = Matrix::zeros(10, 14);
        let tile = 4;
        for r0 in (0..10).step_by(tile) {
            for c0 in (0..14).step_by(tile) {
                let t = a.tile(r0, c0, tile, tile);
                rebuilt.set_tile(r0, c0, &t);
            }
        }
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn add_and_max_abs_diff() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.5, -2.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[1.5, 0.0]]));
        assert_eq!(a.max_abs_diff(&b), 4.0);
    }

    #[test]
    fn f16_matmul_is_close_to_f32() {
        let a = Matrix::random_sparse(16, 16, 0.5, SparsityPattern::Uniform, 1);
        let b = Matrix::random_sparse(16, 16, 0.5, SparsityPattern::Uniform, 2);
        let exact = a.matmul(&b);
        let half = a.matmul_f16(&b);
        assert!(exact.approx_eq(&half, 1e-2));
    }

    #[test]
    fn sparsity_and_density_sum_to_one() {
        let a = Matrix::random_sparse(32, 32, 0.75, SparsityPattern::Uniform, 3);
        assert!((a.sparsity() + a.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn debug_output_is_truncated_but_nonempty() {
        let a = Matrix::zeros(100, 100);
        let s = format!("{a:?}");
        assert!(s.contains("Matrix 100x100"));
        assert!(s.contains("..."));
    }
}
