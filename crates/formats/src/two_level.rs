//! The hierarchical two-level bitmap encoding (paper Fig. 9).
//!
//! The matrix is partitioned into warp tiles (`TM x TK` for the A operand,
//! `TK x TN` for B). The **warp-bitmap** holds one bit per tile — a `0`
//! means the whole tile is empty so the corresponding warp-level SpGEMM step
//! can be skipped outright. Each non-empty tile stores its own
//! **element-bitmap** plus condensed values, so every non-zero of a partial
//! matrix produced from that tile lands inside the Tensor Core's local
//! accumulation buffer rather than scattering across global memory
//! (Fig. 8b).

use dsstc_tensor::Matrix;

use crate::bit_matrix::BitMatrix;
use crate::bitmap::{BitmapMatrix, VectorLayout};
use crate::StorageFootprint;

/// A sparse matrix in two-level (warp-bitmap + element-bitmap) encoding.
///
/// # Example
/// ```
/// use dsstc_tensor::{Matrix, SparsityPattern};
/// use dsstc_formats::{TwoLevelBitmapMatrix, VectorLayout};
///
/// let dense = Matrix::random_sparse(64, 64, 0.95, SparsityPattern::BlockUneven, 3);
/// let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
/// assert_eq!(enc.decode(), dense);
/// // With block-uneven sparsity some warp tiles are usually empty.
/// assert!(enc.empty_tiles() <= enc.tile_count());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TwoLevelBitmapMatrix {
    rows: usize,
    cols: usize,
    tile_rows: usize,
    tile_cols: usize,
    layout: VectorLayout,
    /// One bit per warp tile; set = tile contains at least one non-zero.
    warp_bitmap: BitMatrix,
    /// Element-level encodings for non-empty tiles only, in row-major tile
    /// order. `tile_index[t]` gives the position in `tiles` (or `None`).
    tiles: Vec<BitmapMatrix>,
    tile_index: Vec<Option<usize>>,
}

impl TwoLevelBitmapMatrix {
    /// Encodes a dense matrix using `tile_rows x tile_cols` warp tiles.
    ///
    /// # Panics
    /// Panics if either tile dimension is zero.
    pub fn encode(
        dense: &Matrix,
        tile_rows: usize,
        tile_cols: usize,
        layout: VectorLayout,
    ) -> Self {
        Self::encode_impl(dense, tile_rows, tile_cols, layout, false)
    }

    /// Encodes a dense matrix with FP16 value rounding fused into the tile
    /// encoder: bit-identical to `encode(&dense.to_f16_precision(), ..)`
    /// without materialising the rounded matrix. Weights (row-major) are
    /// encoded with it once, at load time; the kernel encodes activations
    /// in a format of its own, which is held bit-identical to this one's
    /// column-major encoding.
    ///
    /// Cost: a few significance tests per element and one rounding per kept
    /// value (see `BitmapMatrix::encode_tile`), three allocations per tile
    /// plus a constant few for the tile grid.
    ///
    /// # Panics
    /// Panics if either tile dimension is zero.
    pub fn encode_f16(
        dense: &Matrix,
        tile_rows: usize,
        tile_cols: usize,
        layout: VectorLayout,
    ) -> Self {
        Self::encode_impl(dense, tile_rows, tile_cols, layout, true)
    }

    fn encode_impl(
        dense: &Matrix,
        tile_rows: usize,
        tile_cols: usize,
        layout: VectorLayout,
        round_f16: bool,
    ) -> Self {
        assert!(tile_rows > 0 && tile_cols > 0, "tile dimensions must be non-zero");
        let rows = dense.rows();
        let cols = dense.cols();
        let grid_rows = rows.div_ceil(tile_rows);
        let grid_cols = cols.div_ceil(tile_cols);
        let mut warp_bitmap = BitMatrix::new(grid_rows, grid_cols);
        let mut tiles = Vec::new();
        let mut tile_index = vec![None; grid_rows * grid_cols];
        for tr in 0..grid_rows {
            for tc in 0..grid_cols {
                // Encode straight out of the parent rows; no dense tile is
                // materialised (see `BitmapMatrix::encode_tile`).
                let encode_tile = if round_f16 {
                    BitmapMatrix::encode_tile_f16
                } else {
                    BitmapMatrix::encode_tile
                };
                let tile = encode_tile(
                    dense,
                    tr * tile_rows,
                    tc * tile_cols,
                    tile_rows,
                    tile_cols,
                    layout,
                );
                if tile.nnz() > 0 {
                    warp_bitmap.set(tr, tc, true);
                    tile_index[tr * grid_cols + tc] = Some(tiles.len());
                    tiles.push(tile);
                }
            }
        }
        TwoLevelBitmapMatrix {
            rows,
            cols,
            tile_rows,
            tile_cols,
            layout,
            warp_bitmap,
            tiles,
            tile_index,
        }
    }

    /// Logical (dense) row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical (dense) column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Warp-tile height.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Warp-tile width.
    pub fn tile_cols(&self) -> usize {
        self.tile_cols
    }

    /// The condensed-vector layout of the per-tile encodings.
    pub fn layout(&self) -> VectorLayout {
        self.layout
    }

    /// Number of tile rows in the warp-bitmap grid.
    pub fn grid_rows(&self) -> usize {
        self.warp_bitmap.rows()
    }

    /// Number of tile columns in the warp-bitmap grid.
    pub fn grid_cols(&self) -> usize {
        self.warp_bitmap.cols()
    }

    /// Total number of warp tiles.
    pub fn tile_count(&self) -> usize {
        self.grid_rows() * self.grid_cols()
    }

    /// Number of warp tiles with no non-zeros (skippable as a whole).
    pub fn empty_tiles(&self) -> usize {
        self.tile_count() - self.tiles.len()
    }

    /// The warp-level bitmap (one bit per tile).
    pub fn warp_bitmap(&self) -> &BitMatrix {
        &self.warp_bitmap
    }

    /// The element-level encoding of tile `(tile_row, tile_col)`, or `None`
    /// if that tile is empty.
    ///
    /// # Panics
    /// Panics if the tile coordinates are outside the grid.
    pub fn tile(&self, tile_row: usize, tile_col: usize) -> Option<&BitmapMatrix> {
        assert!(
            tile_row < self.grid_rows() && tile_col < self.grid_cols(),
            "tile index out of bounds"
        );
        self.tile_index[tile_row * self.grid_cols() + tile_col].map(|i| &self.tiles[i])
    }

    /// Total number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.tiles.iter().map(BitmapMatrix::nnz).sum()
    }

    /// Fraction of zero elements.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Reconstructs the dense matrix.
    pub fn decode(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for tr in 0..self.grid_rows() {
            for tc in 0..self.grid_cols() {
                if let Some(tile) = self.tile(tr, tc) {
                    let dense_tile = tile.decode();
                    // set_tile clips to bounds, trimming tile padding.
                    m.set_tile(tr * self.tile_rows, tc * self.tile_cols, &dense_tile);
                }
            }
        }
        m
    }

    /// Rebuilds an encoding from its warp bitmap and the non-empty tiles in
    /// row-major set-bit order (the serialiser's constructor). The tile
    /// index is recomputed from the warp bitmap; fails on any
    /// inconsistency between the grid, the bitmap and the tiles.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        tile_rows: usize,
        tile_cols: usize,
        layout: VectorLayout,
        warp_bitmap: BitMatrix,
        tiles: Vec<BitmapMatrix>,
    ) -> Result<Self, &'static str> {
        if rows == 0 || cols == 0 {
            return Err("matrix dimensions must be non-zero");
        }
        if tile_rows == 0 || tile_cols == 0 {
            return Err("tile dimensions must be non-zero");
        }
        let grid_rows = rows.div_ceil(tile_rows);
        let grid_cols = cols.div_ceil(tile_cols);
        if (warp_bitmap.rows(), warp_bitmap.cols()) != (grid_rows, grid_cols) {
            return Err("warp bitmap does not match the tile grid");
        }
        if warp_bitmap.count_ones() != tiles.len() {
            return Err("tile count does not match the warp bitmap population");
        }
        let mut tile_index = vec![None; grid_rows * grid_cols];
        let mut next = 0usize;
        for tr in 0..grid_rows {
            for tc in 0..grid_cols {
                if !warp_bitmap.get(tr, tc) {
                    continue;
                }
                let tile = &tiles[next];
                if (tile.rows(), tile.cols()) != (tile_rows, tile_cols) {
                    return Err("tile shape does not match the declared tiling");
                }
                if tile.layout() != layout {
                    return Err("tile layout does not match the declared layout");
                }
                if tile.nnz() == 0 {
                    return Err("warp bitmap marks an empty tile as non-empty");
                }
                // Edge tiles are padded to the full tile shape; the padding
                // past the logical matrix bound must stay empty or nnz()
                // would disagree with decode().
                let valid_r = tile_rows.min(rows - tr * tile_rows);
                let valid_c = tile_cols.min(cols - tc * tile_cols);
                if valid_r < tile_rows || valid_c < tile_cols {
                    for r in 0..tile_rows {
                        for c in 0..tile_cols {
                            if (r >= valid_r || c >= valid_c) && tile.bitmap().get(r, c) {
                                return Err("tile has non-zeros past the matrix bound");
                            }
                        }
                    }
                }
                tile_index[tr * grid_cols + tc] = Some(next);
                next += 1;
            }
        }
        Ok(TwoLevelBitmapMatrix {
            rows,
            cols,
            tile_rows,
            tile_cols,
            layout,
            warp_bitmap,
            tiles,
            tile_index,
        })
    }

    /// The non-empty tiles in row-major set-bit order of the warp bitmap —
    /// exposed for the binary serialiser.
    pub(crate) fn tiles(&self) -> &[BitmapMatrix] {
        &self.tiles
    }

    /// Storage footprint: per-tile values and element bitmaps, plus the
    /// warp-bitmap (1 bit per tile, padded to words).
    pub fn storage(&self) -> StorageFootprint {
        let mut total =
            StorageFootprint { value_bytes: 0, metadata_bytes: self.warp_bitmap.storage_bytes() };
        for t in &self.tiles {
            let s = t.storage();
            total.value_bytes += s.value_bytes;
            total.metadata_bytes += s.metadata_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_tensor::SparsityPattern;

    #[test]
    fn encode_decode_roundtrip_exact_tiles() {
        let dense = Matrix::random_sparse(64, 96, 0.7, SparsityPattern::Uniform, 21);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
        assert_eq!(enc.grid_rows(), 2);
        assert_eq!(enc.grid_cols(), 3);
        assert_eq!(enc.decode(), dense);
        assert_eq!(enc.nnz(), dense.nnz());
    }

    #[test]
    fn encode_decode_roundtrip_ragged_tiles() {
        // 50x70 with 32x32 tiles: ragged right and bottom edges.
        let dense = Matrix::random_sparse(50, 70, 0.8, SparsityPattern::Uniform, 22);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::RowMajor);
        assert_eq!(enc.grid_rows(), 2);
        assert_eq!(enc.grid_cols(), 3);
        assert_eq!(enc.decode(), dense);
    }

    #[test]
    fn empty_tiles_are_skipped_in_storage() {
        // Only the top-left 16x16 corner is non-zero.
        let mut dense = Matrix::zeros(64, 64);
        for r in 0..16 {
            for c in 0..16 {
                dense[(r, c)] = 1.0;
            }
        }
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
        assert_eq!(enc.tile_count(), 4);
        assert_eq!(enc.empty_tiles(), 3);
        assert!(enc.warp_bitmap().get(0, 0));
        assert!(!enc.warp_bitmap().get(1, 1));
        assert!(enc.tile(1, 1).is_none());
        assert!(enc.tile(0, 0).is_some());
        // Storage only pays element bitmaps for the single non-empty tile.
        let one_tile_bitmap_bytes = 32 * 8; // 32 rows x 1 word
        assert_eq!(
            enc.storage().metadata_bytes,
            enc.warp_bitmap().storage_bytes() + one_tile_bitmap_bytes
        );
    }

    #[test]
    fn all_zero_matrix_has_all_empty_tiles() {
        let dense = Matrix::zeros(64, 64);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
        assert_eq!(enc.empty_tiles(), 4);
        assert_eq!(enc.nnz(), 0);
        assert_eq!(enc.decode(), dense);
        assert!((enc.sparsity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tile_encoding_matches_direct_tile_encode() {
        let dense = Matrix::random_sparse(64, 64, 0.5, SparsityPattern::Uniform, 30);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
        let direct = BitmapMatrix::encode(&dense.tile(32, 0, 32, 32), VectorLayout::ColumnMajor);
        assert_eq!(enc.tile(1, 0), Some(&direct));
    }

    #[test]
    fn fused_f16_encode_matches_rounding_then_encoding() {
        // Random values at mixed magnitudes, plus every boundary the fused
        // threshold has to get right: exactly 2^-24 (smallest FP16
        // subnormal, kept), just below (flushed to zero, bit must clear),
        // 2^-25 (flushed), negatives of each, signed zeros, values past the
        // FP16 normal range (round to inf, kept), and NaN (kept).
        let tiny = 2.0f32.powi(-24);
        let mut dense = Matrix::random_sparse(40, 24, 0.6, SparsityPattern::Uniform, 77);
        let specials: &[f32] = &[
            tiny,
            -tiny,
            f32::from_bits(tiny.to_bits() - 1),
            2.0f32.powi(-25),
            -2.0f32.powi(-25),
            0.0,
            -0.0,
            1.0e-7,
            70000.0,
            -70000.0,
            f32::NAN,
            1.5,
        ];
        for (i, &x) in specials.iter().enumerate() {
            dense[(i, 3)] = x;
        }
        for layout in [VectorLayout::ColumnMajor, VectorLayout::RowMajor] {
            let fused = TwoLevelBitmapMatrix::encode_f16(&dense, 16, 16, layout);
            let reference = TwoLevelBitmapMatrix::encode(&dense.to_f16_precision(), 16, 16, layout);
            // NaN breaks PartialEq on values; compare structure and bits.
            assert_eq!(fused.warp_bitmap(), reference.warp_bitmap(), "{layout:?}");
            for tr in 0..fused.grid_rows() {
                for tc in 0..fused.grid_cols() {
                    match (fused.tile(tr, tc), reference.tile(tr, tc)) {
                        (None, None) => {}
                        (Some(f), Some(r)) => {
                            assert_eq!(f.bitmap(), r.bitmap(), "tile ({tr},{tc}) {layout:?}");
                            assert_eq!(f.values().len(), r.values().len());
                            for (a, b) in f.values().iter().zip(r.values()) {
                                assert!(
                                    a == b || (a.is_nan() && b.is_nan()),
                                    "tile ({tr},{tc}) {layout:?}: {a} vs {b}"
                                );
                            }
                        }
                        _ => panic!("tile presence mismatch at ({tr},{tc}) {layout:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn block_uneven_distribution_produces_skippable_tiles_at_high_sparsity() {
        let dense = Matrix::random_sparse(256, 256, 0.99, SparsityPattern::BlockUneven, 5);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
        // Not a strict guarantee, but at 99% sparsity with uneven blocks some
        // whole 32x32 tiles should be empty with overwhelming probability.
        assert!(enc.empty_tiles() > 0, "expected some empty warp tiles");
        assert_eq!(enc.decode(), dense);
    }

    #[test]
    #[should_panic(expected = "tile dimensions")]
    fn zero_tile_size_panics() {
        let dense = Matrix::zeros(4, 4);
        let _ = TwoLevelBitmapMatrix::encode(&dense, 0, 32, VectorLayout::ColumnMajor);
    }

    #[test]
    #[should_panic(expected = "tile index out of bounds")]
    fn tile_out_of_bounds_panics() {
        let dense = Matrix::zeros(4, 4);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 4, 4, VectorLayout::ColumnMajor);
        let _ = enc.tile(1, 0);
    }
}
