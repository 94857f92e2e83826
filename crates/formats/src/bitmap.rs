//! The bitmap two-tuple encoding `(bitmap, condensed values)`.
//!
//! This is the paper's core sparse format (Fig. 2b): the bitmap carries the
//! positions of non-zeros, and the value array stores only the non-zeros in
//! *condensed* order — column-major for an outer-product A operand (each
//! column's non-zeros pushed to the top, Fig. 4c) and row-major for a B
//! operand (each row's non-zeros pushed to the left).

use dsstc_tensor::Matrix;

use crate::bit_matrix::BitMatrix;
use crate::StorageFootprint;

/// Which axis the condensed value vectors run along.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VectorLayout {
    /// Values stored column by column — the A operand of an outer product
    /// (each outer-product step consumes one column of A).
    ColumnMajor,
    /// Values stored row by row — the B operand of an outer product.
    RowMajor,
}

/// A sparse matrix in bitmap encoding.
///
/// # Example
/// ```
/// use dsstc_tensor::Matrix;
/// use dsstc_formats::{BitmapMatrix, VectorLayout};
///
/// let dense = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]);
/// let a = BitmapMatrix::encode(&dense, VectorLayout::ColumnMajor);
/// // Column 0 holds [3.0], column 1 holds [2.0].
/// assert_eq!(a.vector_values(0), &[3.0]);
/// assert_eq!(a.vector_values(1), &[2.0]);
/// assert_eq!(a.decode(), dense);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BitmapMatrix {
    rows: usize,
    cols: usize,
    layout: VectorLayout,
    bitmap: BitMatrix,
    /// Non-zero values in condensed layout order.
    values: Vec<f32>,
    /// Start offset of each condensed vector in `values`; length is
    /// `cols + 1` for column-major and `rows + 1` for row-major.
    offsets: Vec<usize>,
}

impl BitmapMatrix {
    /// Encodes a dense matrix.
    pub fn encode(dense: &Matrix, layout: VectorLayout) -> Self {
        let bitmap = BitMatrix::from_matrix(dense);
        let (rows, cols) = (dense.rows(), dense.cols());
        let vector_count = match layout {
            VectorLayout::ColumnMajor => cols,
            VectorLayout::RowMajor => rows,
        };
        let mut values = Vec::with_capacity(bitmap.count_ones());
        let mut offsets = Vec::with_capacity(vector_count + 1);
        offsets.push(0);
        let data = dense.as_slice();
        for v in 0..vector_count {
            match layout {
                VectorLayout::ColumnMajor => {
                    for r in 0..rows {
                        let x = data[r * cols + v];
                        if x != 0.0 {
                            values.push(x);
                        }
                    }
                }
                VectorLayout::RowMajor => {
                    for &x in &data[v * cols..(v + 1) * cols] {
                        if x != 0.0 {
                            values.push(x);
                        }
                    }
                }
            }
            offsets.push(values.len());
        }
        BitmapMatrix { rows, cols, layout, bitmap, values, offsets }
    }

    /// Number of rows of the logical (dense) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical (dense) matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The condensed-vector layout.
    pub fn layout(&self) -> VectorLayout {
        self.layout
    }

    /// The position bitmap.
    pub fn bitmap(&self) -> &BitMatrix {
        &self.bitmap
    }

    /// Total number of non-zero values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of zero elements.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Number of condensed vectors (columns for column-major, rows for
    /// row-major).
    pub fn vector_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The condensed non-zero values of vector `v` (column `v` or row `v`
    /// depending on layout).
    ///
    /// # Panics
    /// Panics if `v >= vector_count()`.
    #[inline]
    pub fn vector_values(&self, v: usize) -> &[f32] {
        assert!(v < self.vector_count(), "vector index out of bounds");
        &self.values[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Number of non-zeros in vector `v` — what a `POPC` over that vector's
    /// bitmap returns.
    pub fn vector_nnz(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The bit pattern of vector `v` as booleans (length `rows` for
    /// column-major, `cols` for row-major).
    pub fn vector_bits(&self, v: usize) -> Vec<bool> {
        assert!(v < self.vector_count(), "vector index out of bounds");
        match self.layout {
            VectorLayout::ColumnMajor => (0..self.rows).map(|r| self.bitmap.get(r, v)).collect(),
            VectorLayout::RowMajor => (0..self.cols).map(|c| self.bitmap.get(v, c)).collect(),
        }
    }

    /// The bit pattern of vector `v` packed into a single `u64` (bit `i` set
    /// iff position `i` of the vector is a non-zero). This is the
    /// word-parallel sibling of [`Self::vector_bits`]: a step's A-column and
    /// B-row words feed the bitmap AND + `count_ones` gather of the
    /// functional SpGEMM without materialising positions.
    ///
    /// # Panics
    /// Panics if `v >= vector_count()` or the vector is longer than 64
    /// elements (tile encodings of warp tilings up to 64x64 always fit).
    #[inline]
    pub fn vector_word(&self, v: usize) -> u64 {
        assert!(v < self.vector_count(), "vector index out of bounds");
        match self.layout {
            VectorLayout::ColumnMajor => self.bitmap.col_word(v),
            VectorLayout::RowMajor => self.bitmap.row_word(v),
        }
    }

    /// The dense positions (row indices for column-major, column indices for
    /// row-major) of vector `v`'s non-zeros, in the same order as
    /// [`Self::vector_values`].
    pub fn vector_positions(&self, v: usize) -> Vec<usize> {
        assert!(v < self.vector_count(), "vector index out of bounds");
        match self.layout {
            VectorLayout::ColumnMajor => self.bitmap.col_set_bits(v),
            VectorLayout::RowMajor => self.bitmap.row_set_bits(v),
        }
    }

    /// All non-zero values in condensed order.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Reads the logical element `(row, col)` (zero when the bit is clear).
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        if !self.bitmap.get(row, col) {
            return 0.0;
        }
        match self.layout {
            VectorLayout::ColumnMajor => {
                // Rank of `row` within column `col`.
                let rank = (0..row).filter(|&r| self.bitmap.get(r, col)).count();
                self.values[self.offsets[col] + rank]
            }
            VectorLayout::RowMajor => {
                let rank = self.bitmap.rank(row, col);
                self.values[self.offsets[row] + rank]
            }
        }
    }

    /// Reconstructs the dense matrix.
    pub fn decode(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for v in 0..self.vector_count() {
            let positions = self.vector_positions(v);
            let values = self.vector_values(v);
            for (&p, &x) in positions.iter().zip(values) {
                match self.layout {
                    VectorLayout::ColumnMajor => m[(p, v)] = x,
                    VectorLayout::RowMajor => m[(v, p)] = x,
                }
            }
        }
        m
    }

    /// Storage footprint: 2 bytes per FP16 value plus the packed bitmap.
    pub fn storage(&self) -> StorageFootprint {
        StorageFootprint {
            value_bytes: self.nnz() as u64 * 2,
            metadata_bytes: self.bitmap.storage_bytes(),
        }
    }

    /// Rebuilds an encoding from a bitmap and the condensed values (the
    /// serialiser's constructor). The per-vector offsets are recomputed from
    /// the bitmap; fails if the value count disagrees with the bitmap's
    /// population count.
    pub(crate) fn from_parts(
        layout: VectorLayout,
        bitmap: BitMatrix,
        values: Vec<f32>,
    ) -> Result<Self, &'static str> {
        if bitmap.count_ones() != values.len() {
            return Err("condensed value count does not match the bitmap population");
        }
        let (rows, cols) = (bitmap.rows(), bitmap.cols());
        let vector_count = match layout {
            VectorLayout::ColumnMajor => cols,
            VectorLayout::RowMajor => rows,
        };
        let mut offsets = Vec::with_capacity(vector_count + 1);
        offsets.push(0);
        let mut total = 0usize;
        for v in 0..vector_count {
            total += match layout {
                VectorLayout::ColumnMajor => bitmap.col_count_ones(v),
                VectorLayout::RowMajor => bitmap.row_count_ones(v),
            };
            offsets.push(total);
        }
        Ok(BitmapMatrix { rows, cols, layout, bitmap, values, offsets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_tensor::{f16, SparsityPattern};

    fn paper_matrix_a() -> Matrix {
        // The 6x6 sparse matrix A from paper Fig. 2b (values 1..9, letters
        // replaced by numbers): non-zeros at the positions of the bitmap.
        Matrix::from_rows(&[
            &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 3.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 4.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 5.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 6.0, 0.0, 0.0],
        ])
    }

    #[test]
    fn encode_decode_roundtrip_column_major() {
        let dense = Matrix::random_sparse(37, 53, 0.8, SparsityPattern::Uniform, 11);
        let enc = BitmapMatrix::encode(&dense, VectorLayout::ColumnMajor);
        assert_eq!(enc.decode(), dense);
        assert_eq!(enc.nnz(), dense.nnz());
    }

    #[test]
    fn encode_decode_roundtrip_row_major() {
        let dense = Matrix::random_sparse(53, 37, 0.9, SparsityPattern::Uniform, 12);
        let enc = BitmapMatrix::encode(&dense, VectorLayout::RowMajor);
        assert_eq!(enc.decode(), dense);
    }

    #[test]
    fn column_major_vectors_are_condensed_columns() {
        let a = paper_matrix_a();
        let enc = BitmapMatrix::encode(&a, VectorLayout::ColumnMajor);
        assert_eq!(enc.vector_count(), 6);
        assert_eq!(enc.vector_values(1), &[1.0, 2.0]);
        assert_eq!(enc.vector_values(3), &[3.0, 4.0, 5.0, 6.0]);
        assert!(enc.vector_values(0).is_empty());
        assert_eq!(enc.vector_nnz(3), 4);
        assert_eq!(enc.vector_positions(3), vec![2, 3, 4, 5]);
    }

    #[test]
    fn row_major_vectors_are_condensed_rows() {
        let b = Matrix::from_rows(&[
            &[0.0, 7.0, 8.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[9.0, 0.0, 0.0, 1.5],
        ]);
        let enc = BitmapMatrix::encode(&b, VectorLayout::RowMajor);
        assert_eq!(enc.vector_values(0), &[7.0, 8.0]);
        assert!(enc.vector_values(1).is_empty());
        assert_eq!(enc.vector_values(2), &[9.0, 1.5]);
        assert_eq!(enc.vector_positions(2), vec![0, 3]);
        assert_eq!(enc.vector_bits(0), vec![false, true, true, false]);
    }

    #[test]
    fn vector_word_agrees_with_vector_bits_in_both_layouts() {
        let dense = Matrix::random_sparse(32, 16, 0.55, SparsityPattern::Uniform, 23);
        for layout in [VectorLayout::ColumnMajor, VectorLayout::RowMajor] {
            let enc = BitmapMatrix::encode(&dense, layout);
            for v in 0..enc.vector_count() {
                let word = enc.vector_word(v);
                let bits = enc.vector_bits(v);
                for (i, &bit) in bits.iter().enumerate() {
                    assert_eq!((word >> i) & 1 == 1, bit, "vector {v} bit {i} ({layout:?})");
                }
                assert_eq!(word.count_ones() as usize, enc.vector_nnz(v));
            }
        }
    }

    #[test]
    fn get_matches_dense_elementwise() {
        let dense = Matrix::random_sparse(20, 24, 0.6, SparsityPattern::Uniform, 4);
        for layout in [VectorLayout::ColumnMajor, VectorLayout::RowMajor] {
            let enc = BitmapMatrix::encode(&dense, layout);
            for r in 0..dense.rows() {
                for c in 0..dense.cols() {
                    assert_eq!(enc.get(r, c), dense[(r, c)], "({r},{c}) layout {layout:?}");
                }
            }
        }
    }

    #[test]
    fn sparsity_reported() {
        let dense = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let enc = BitmapMatrix::encode(&dense, VectorLayout::ColumnMajor);
        assert!((enc.sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fully_dense_and_fully_empty() {
        let dense = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let enc = BitmapMatrix::encode(&dense, VectorLayout::ColumnMajor);
        assert_eq!(enc.nnz(), 4);
        assert_eq!(enc.vector_values(0), &[1.0, 3.0]);

        let empty = Matrix::zeros(4, 4);
        let enc = BitmapMatrix::encode(&empty, VectorLayout::RowMajor);
        assert_eq!(enc.nnz(), 0);
        assert_eq!(enc.decode(), empty);
    }

    #[test]
    fn f16_survival_threshold_agrees_with_the_rounding_impl() {
        let tiny = 2.0f32.powi(-24);
        let probes = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f32::from_bits(tiny.to_bits() - 1),
            f32::from_bits(tiny.to_bits() + 1),
            2.0f32.powi(-25),
            2.0f32.powi(-26),
            1.0e-7,
            1.0e-8,
            1.0,
            -3.5,
            70000.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE, // smallest normal f32, far below f16 range
        ];
        for &x in &probes {
            let rounded = f16::round_f32(x);
            assert_eq!(
                f16::survives(x),
                rounded != 0.0,
                "f16::survives({x}) disagrees with round_f32 -> {rounded}"
            );
        }
    }

    #[test]
    fn storage_footprint_scales_with_nnz() {
        let dense = Matrix::random_sparse(64, 64, 0.9, SparsityPattern::Uniform, 8);
        let enc = BitmapMatrix::encode(&dense, VectorLayout::ColumnMajor);
        let s = enc.storage();
        assert_eq!(s.value_bytes, enc.nnz() as u64 * 2);
        assert_eq!(s.metadata_bytes, 64 * 8); // one u64 word per row
                                              // Bitmap metadata stays fixed as sparsity changes; CSR's would not.
        let denser = Matrix::random_sparse(64, 64, 0.1, SparsityPattern::Uniform, 8);
        let enc2 = BitmapMatrix::encode(&denser, VectorLayout::ColumnMajor);
        assert_eq!(enc2.storage().metadata_bytes, s.metadata_bytes);
    }
}
