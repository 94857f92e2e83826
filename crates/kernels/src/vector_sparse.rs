//! The single-side Sparse Tensor Core baseline (Zhu et al., MICRO'19,
//! reference \[72\] of the paper).
//!
//! That design applies **vector-wise pruning with a fixed 75 % ratio** to the
//! weight operand only. The hardware skips the pruned weight positions but
//! (a) cannot exploit any activation sparsity and (b) pays an offset-decoding
//! cost for every surviving 4-element group, which caps its practical gain:
//! the paper measures a flat ~1.86x over CUTLASS on large GEMMs regardless of
//! the other operand's sparsity (Fig. 21).

use dsstc_models::prune_n_of_m;
use dsstc_sim::tiling::{GemmTiling, TrafficInputs};
use dsstc_sim::{GpuConfig, WorkloadProfile};
use dsstc_tensor::{GemmShape, Matrix};

/// The fixed pruning ratio the baseline enforces on the weight operand.
pub const VECTOR_WISE_PRUNING_RATIO: f64 = 0.75;

/// Single-side sparse GEMM model (Sparse Tensor Core \[72\]).
#[derive(Clone, Debug)]
pub struct VectorSparseGemm {
    config: GpuConfig,
    tiling: GemmTiling,
}

impl VectorSparseGemm {
    /// Creates the baseline model for the given GPU.
    pub fn new(config: GpuConfig) -> Self {
        VectorSparseGemm { config, tiling: GemmTiling::cutlass_dense() }
    }

    /// Builds the workload profile for an `M x N x K` GEMM whose weight
    /// operand (B) was vector-wise pruned to 75 % sparsity. The activation
    /// operand's sparsity is irrelevant to this design.
    ///
    /// `weight_sparsity` is clamped to the design's fixed 75 % ratio: the
    /// hardware prunes to exactly that ratio, so a denser weight matrix is
    /// pruned down and a sparser one gains nothing extra.
    pub fn profile(&self, shape: &GemmShape, weight_sparsity: f64) -> WorkloadProfile {
        let _ = weight_sparsity; // fixed-ratio design: see doc comment
        let retained = 1.0 - VECTOR_WISE_PRUNING_RATIO;
        let mut p = WorkloadProfile::new(format!("vector-sparse-gemm-{shape}"));
        let macs_per_instruction =
            (self.config.macs_per_tc_instruction * self.config.tensor_cores_per_sub_core) as u64;
        let dense_hmma = shape.macs().div_ceil(macs_per_instruction);
        // Only the surviving 25 % of weight positions are multiplied.
        p.hmma_instructions = ((dense_hmma as f64) * retained).ceil() as u64;
        // Offset decode + operand select for every surviving 4-element group
        // of the condensed weight vector (the "Indices / Select" path of
        // paper Fig. 3b).
        let retained_macs = (shape.macs() as f64 * retained) as u64;
        p.popc_instructions = retained_macs / 16;
        p.scalar_ops = retained_macs / 4;
        p.thread_blocks = self.tiling.grid_blocks(shape);

        // A (activations) stays dense; B ships 25 % of values plus 2-bit
        // position metadata per surviving element.
        let a_bytes = (shape.m * shape.k) as u64 * 2;
        let b_values = ((shape.k * shape.n) as f64 * retained) as u64 * 2;
        let b_meta = ((shape.k * shape.n) as f64 * retained / 4.0) as u64;
        let d_bytes = (shape.m * shape.n) as u64 * 4;
        let traffic = self.tiling.dram_traffic(&TrafficInputs {
            a_bytes,
            b_bytes: b_values + b_meta,
            d_bytes,
            shape: *shape,
            l2_bytes: self.config.l2_bytes as u64,
            concurrent_blocks: (self.config.num_sms * self.config.max_blocks_per_sm) as u64,
        });
        p.dram_bytes_read = traffic.read_bytes;
        p.dram_bytes_written = traffic.write_bytes;

        let k_iters = shape.k.div_ceil(self.tiling.block_k) as u64;
        let tile_bytes = ((self.tiling.block_m * self.tiling.block_k) * 2) as u64
            + (((self.tiling.block_k * self.tiling.block_n) as f64 * retained) as u64 * 2);
        p.shared_bytes = p.thread_blocks * k_iters * tile_bytes;
        p
    }

    /// Functionally computes `A * B_pruned` where the weight matrix is first
    /// vector-wise pruned to the fixed 75 % ratio (largest-magnitude 8 of
    /// every 32 row elements survive), and returns the result, the pruned
    /// weights and the profile.
    pub fn execute(&self, a: &Matrix, b: &Matrix) -> (Matrix, Matrix, WorkloadProfile) {
        let b_pruned = prune_vector_wise(b, 32, 8);
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let out = a.matmul_f16(&b_pruned);
        (out, b_pruned, self.profile(&shape, VECTOR_WISE_PRUNING_RATIO))
    }
}

/// Vector-wise magnitude pruning: within every group of `group` consecutive
/// elements of a row, only the `keep` largest-magnitude values survive —
/// [`prune_n_of_m`] with `n = keep`, `m = group`.
///
/// # Panics
/// Panics if `keep > group` or `group == 0`.
pub fn prune_vector_wise(m: &Matrix, group: usize, keep: usize) -> Matrix {
    assert!(group > 0 && keep <= group, "invalid pruning group");
    prune_n_of_m(m, keep, group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_gemm::DenseGemm;
    use dsstc_sim::GpuTimingModel;
    use dsstc_tensor::SparsityPattern;

    #[test]
    fn prune_vector_wise_keeps_largest() {
        let m = Matrix::from_rows(&[&[1.0, -5.0, 2.0, 0.5, 3.0, -0.1, 0.2, 4.0]]);
        let p = prune_vector_wise(&m, 4, 2);
        assert_eq!(p.row(0), &[0.0, -5.0, 2.0, 0.0, 3.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn prune_vector_wise_keeps_a_nan_like_the_largest_magnitude() {
        let mut m = Matrix::random_sparse(4, 64, 0.0, SparsityPattern::Uniform, 7);
        m[(2, 9)] = f32::INFINITY;
        let with_inf = prune_vector_wise(&m, 32, 8);
        m[(2, 9)] = f32::NAN;
        let with_nan = prune_vector_wise(&m, 32, 8);
        assert!(with_nan[(2, 9)].is_nan());
        for (i, (x, y)) in with_nan.as_slice().iter().zip(with_inf.as_slice()).enumerate() {
            assert!(i == 2 * 64 + 9 || x.to_bits() == y.to_bits(), "weight {i}");
        }
    }

    #[test]
    fn prune_fixed_ratio_yields_75_percent_sparsity() {
        let m = Matrix::random_sparse(64, 128, 0.0, SparsityPattern::Uniform, 3);
        let p = prune_vector_wise(&m, 32, 8);
        assert!((p.sparsity() - 0.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid pruning group")]
    fn prune_invalid_group_panics() {
        let _ = prune_vector_wise(&Matrix::zeros(2, 2), 2, 3);
    }

    #[test]
    fn baseline_speedup_over_cutlass_is_about_1_9x_and_flat() {
        let model = GpuTimingModel::v100();
        let shape = GemmShape::new(4096, 4096, 4096);
        let dense = model.estimate(&DenseGemm::new(GpuConfig::v100()).profile(&shape));
        let sparse_kernel = VectorSparseGemm::new(GpuConfig::v100());
        let t_low = model.estimate(&sparse_kernel.profile(&shape, 0.75));
        let speedup = t_low.speedup_over(&dense);
        assert!(speedup > 1.5 && speedup < 2.5, "got {speedup}x");
        // Flat: the activation sparsity argument changes nothing.
        let t_same = model.estimate(&sparse_kernel.profile(&shape, 0.99));
        assert!((t_same.time_us() - t_low.time_us()).abs() < 1e-9);
    }

    #[test]
    fn execute_is_consistent_with_pruned_reference() {
        let a = Matrix::random_sparse(32, 64, 0.5, SparsityPattern::Uniform, 5);
        let b = Matrix::random_sparse(64, 32, 0.0, SparsityPattern::Uniform, 6);
        let kernel = VectorSparseGemm::new(GpuConfig::v100());
        let (out, b_pruned, profile) = kernel.execute(&a, &b);
        assert!((b_pruned.sparsity() - 0.75).abs() < 1e-9);
        assert!(out.approx_eq(&a.matmul(&b_pruned), 1e-2));
        assert!(profile.hmma_instructions < (32u64 * 32 * 64) / 128 + 2);
    }

    #[test]
    fn profile_reads_less_weight_traffic_than_dense() {
        let shape = GemmShape::new(2048, 2048, 2048);
        let dense = DenseGemm::new(GpuConfig::v100()).profile(&shape);
        let sparse = VectorSparseGemm::new(GpuConfig::v100()).profile(&shape, 0.75);
        assert!(sparse.dram_bytes_read < dense.dram_bytes_read);
        assert_eq!(sparse.dram_bytes_written, dense.dram_bytes_written);
    }
}
