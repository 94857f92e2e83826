//! GEMM / SpGEMM / im2col / convolution kernels for the dual-side sparse
//! Tensor Core reproduction.
//!
//! Every kernel comes in two flavours that are kept consistent by tests:
//!
//! * **functional execution** (`execute*`) computes the actual numerical
//!   result so correctness can be checked against dense references, and
//! * **profiling** (`profile*`) counts the architectural events — tensor
//!   core instructions after sparsity skipping, scalar/POPC work, DRAM
//!   traffic under the tiling/L2-reuse model, merge and bank-conflict
//!   cycles — that [`dsstc_sim::GpuTimingModel`] turns into time. The
//!   dual-side kernel reads its per-step non-zero counts off the operands'
//!   encodings, as the hardware's `POPC`s read them off the bitmaps.
//!
//! The kernels implemented are exactly the schemes the paper evaluates:
//!
//! | module | paper scheme |
//! |---|---|
//! | [`dense_gemm`] | CUTLASS dense GEMM (baseline of Fig. 21/22) |
//! | [`vector_sparse`] | Sparse Tensor Core \[72\] (single-side, fixed-ratio) |
//! | [`csr_spgemm`] | cuSparse CSR SpGEMM |
//! | [`bitmap_spgemm`] | **this paper**: bitmap outer-product dual-side SpGEMM |
//! | [`im2col`] | dense / CSR / bitmap im2col (Table III) |
//! | [`conv`] | the five convolution schemes of Fig. 22 |

#![deny(missing_docs)]
// One module may say `unsafe`: `bitmap_spgemm::simd`, which runs the MAC
// step under `#[target_feature]`. CI greps for a second.
#![deny(unsafe_code)]
// A kernel call runs on the thread that makes it: no non-test code here says
// `std::thread` or `available_parallelism` (a serve device worker is the unit
// of parallelism, as an SM is on the device). CI greps for it.

pub mod bitmap_spgemm;
pub mod conv;
pub mod csr_spgemm;
pub mod dense_gemm;
pub mod encoding;
pub mod im2col;
pub mod vector_sparse;

pub use crate::bitmap_spgemm::BitmapSpGemm;
pub use crate::conv::{ConvScheme, ConvWorkload};
pub use crate::csr_spgemm::CsrSpGemm;
pub use crate::dense_gemm::DenseGemm;
pub use crate::encoding::EncodingSpec;
pub use crate::vector_sparse::VectorSparseGemm;
pub use dsstc_sim::tiling::GemmTiling;
