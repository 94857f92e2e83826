//! Sparse matrix encodings for the dual-side sparse Tensor Core.
//!
//! The paper's central encoding is the **bitmap two-tuple**: a bit per matrix
//! element (1 = non-zero) plus the non-zero values stored in a condensed
//! order — column-major for the A operand and row-major for the B operand of
//! an outer-product GEMM (paper Fig. 2b). On top of that sits the
//! **two-level bitmap** (paper Fig. 9) which adds a warp-bitmap that marks
//! entirely-empty warp tiles so the device-level SpGEMM can skip them, and
//! keeps every element bitmap local to its tile so partial-matrix non-zeros
//! stay inside the Tensor Core accumulation buffer (Fig. 8b).
//!
//! [`CsrMatrix`] implements the compressed-sparse-row baseline the paper
//! compares against (cuSparse-style), and [`BitmapFeatureMap`] is the
//! bitmap/values/row-offset encoding of convolution inputs consumed by the
//! bitmap-based sparse im2col (Fig. 11b).
//!
//! # Example
//!
//! ```
//! use dsstc_tensor::{Matrix, SparsityPattern};
//! use dsstc_formats::{BitmapMatrix, VectorLayout};
//!
//! let dense = Matrix::random_sparse(32, 32, 0.8, SparsityPattern::Uniform, 1);
//! let a = BitmapMatrix::encode(&dense, VectorLayout::ColumnMajor);
//! assert_eq!(a.decode(), dense);
//! assert_eq!(a.nnz(), dense.nnz());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod bit_matrix;
pub mod bitmap;
pub mod csr;
pub mod feature_map;
pub mod serialize;
pub mod two_level;

pub use crate::bit_matrix::BitMatrix;
pub use crate::bitmap::{BitmapMatrix, VectorLayout};
pub use crate::csr::CsrMatrix;
pub use crate::feature_map::BitmapFeatureMap;
pub use crate::serialize::{CodecError, FORMAT_VERSION};
pub use crate::two_level::{BandView, TileView, TwoLevelBitmapMatrix};

/// Storage cost in bytes of one encoded matrix, used by the memory-traffic
/// model, the encoding-comparison benches and the serving layer's memory
/// budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageFootprint {
    /// Bytes spent on non-zero values (2 bytes per FP16 value). For a
    /// `TwoLevelBitmapMatrix` this is its value array's size in memory,
    /// which holds the halves; the baseline formats, which hold `f32`
    /// (`BitmapMatrix`, `BitmapFeatureMap`, `CsrMatrix`), are billed the
    /// paper's 2 bytes too.
    pub value_bytes: u64,
    /// Bytes spent on index metadata (bitmaps, row pointers, column indices).
    pub metadata_bytes: u64,
}

impl StorageFootprint {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.value_bytes + self.metadata_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_footprint_total() {
        let f = StorageFootprint { value_bytes: 10, metadata_bytes: 5 };
        assert_eq!(f.total(), 15);
    }
}
