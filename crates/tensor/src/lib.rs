//! Dense matrix / tensor primitives for the dual-side sparse Tensor Core
//! reproduction.
//!
//! The crates above this one (formats, simulator, kernels) operate on plain
//! dense data produced here: row-major [`Matrix`] values, NCHW
//! [`FeatureMap`]s, IEEE-754 half-precision storage emulation ([`struct@f16`]), and
//! synthetic sparse data generators that mimic the weight/activation sparsity
//! distributions reported in the paper.
//!
//! # Example
//!
//! ```
//! use dsstc_tensor::{Matrix, SparsityPattern};
//!
//! // A 64x64 matrix with ~70% zeros, uniformly scattered.
//! let a = Matrix::random_sparse(64, 64, 0.7, SparsityPattern::Uniform, 42);
//! assert!((a.sparsity() - 0.7).abs() < 0.1);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod half;
pub mod matrix;
pub mod random;
pub mod shape;
pub mod tensor4;

pub use crate::half::f16;
pub use crate::matrix::Matrix;
pub use crate::random::{RandomMatrixBuilder, SparsityPattern};
pub use crate::shape::{ConvShape, GemmShape};
pub use crate::tensor4::FeatureMap;

/// Relative/absolute tolerance used across the workspace when comparing
/// floating-point results produced via different accumulation orders
/// (outer-product vs inner-product GEMM).
pub const DEFAULT_TOLERANCE: f32 = 1e-3;

/// Returns `true` when two floats are equal within a combined
/// absolute/relative tolerance.
///
/// The comparison is symmetric in its arguments and treats two NaNs as
/// unequal (as IEEE does).
///
/// # Example
/// ```
/// assert!(dsstc_tensor::approx_eq(1.0, 1.0 + 1e-6, 1e-3));
/// assert!(!dsstc_tensor::approx_eq(1.0, 1.1, 1e-3));
/// ```
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    if a == b {
        return true;
    }
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_exact() {
        assert!(approx_eq(0.0, 0.0, 1e-6));
        assert!(approx_eq(1.5, 1.5, 0.0));
    }

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(100.0, 100.05, 1e-3));
        assert!(!approx_eq(100.0, 101.0, 1e-3));
    }

    #[test]
    fn approx_eq_nan_is_unequal() {
        assert!(!approx_eq(f32::NAN, f32::NAN, 1e-3));
        assert!(!approx_eq(f32::NAN, 1.0, 1e-3));
    }

    #[test]
    fn approx_eq_small_values_use_absolute_tolerance() {
        assert!(approx_eq(1e-9, 2e-9, 1e-6));
    }
}
