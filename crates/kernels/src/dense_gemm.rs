//! CUTLASS-style dense GEMM on the inner-product Tensor Core.
//!
//! This is the baseline every figure of the paper normalises against. The
//! profile charges one warp-level `HMMA` issue slot per 128 MACs (two Tensor
//! Cores of 64 FP16 MACs each work on one warp instruction), stages operand
//! tiles through shared memory, and estimates DRAM traffic with the
//! wave-based L2-reuse model of [`dsstc_sim::tiling`].

use dsstc_sim::tiling::{GemmTiling, TrafficInputs};
use dsstc_sim::{GpuConfig, WorkloadProfile};
use dsstc_tensor::{GemmShape, Matrix};

/// Dense GEMM kernel model (CUTLASS / cuBLAS stand-in).
#[derive(Clone, Debug)]
pub struct DenseGemm {
    config: GpuConfig,
    tiling: GemmTiling,
}

impl DenseGemm {
    /// Creates a dense GEMM model for the given GPU.
    pub fn new(config: GpuConfig) -> Self {
        DenseGemm { config, tiling: GemmTiling::cutlass_dense() }
    }

    /// Overrides the tiling (used by ablation benches).
    pub fn with_tiling(mut self, tiling: GemmTiling) -> Self {
        self.tiling = tiling;
        self
    }

    /// The tiling in use.
    pub fn tiling(&self) -> &GemmTiling {
        &self.tiling
    }

    /// MACs retired per issued warp-level tensor instruction.
    pub fn macs_per_instruction(&self) -> u64 {
        (self.config.macs_per_tc_instruction * self.config.tensor_cores_per_sub_core) as u64
    }

    /// Builds the workload profile of a dense `M x N x K` GEMM. The operand
    /// contents do not matter for a dense kernel — only the shape does.
    pub fn profile(&self, shape: &GemmShape) -> WorkloadProfile {
        let a_bytes = (shape.m * shape.k) as u64 * 2;
        let b_bytes = (shape.k * shape.n) as u64 * 2;
        self.profile_with_operand_bytes(shape, a_bytes, b_bytes)
    }

    /// Like [`Self::profile`] but with explicit operand footprints in DRAM.
    ///
    /// The implicit-im2col convolution schemes use this: the GEMM's logical A
    /// operand is the lowered feature map, but what is actually resident in
    /// DRAM (and therefore read) is the original, non-expanded feature map.
    pub fn profile_with_operand_bytes(
        &self,
        shape: &GemmShape,
        a_bytes: u64,
        b_bytes: u64,
    ) -> WorkloadProfile {
        let mut p = WorkloadProfile::new(format!("dense-gemm-{shape}"));
        p.hmma_instructions = shape.macs().div_ceil(self.macs_per_instruction());
        p.thread_blocks = self.tiling.grid_blocks(shape);

        let d_bytes = (shape.m * shape.n) as u64 * 4;
        let traffic = self.tiling.dram_traffic(&TrafficInputs {
            a_bytes,
            b_bytes,
            d_bytes,
            shape: *shape,
            l2_bytes: self.config.l2_bytes as u64,
            concurrent_blocks: (self.config.num_sms * self.config.max_blocks_per_sm) as u64,
        });
        p.dram_bytes_read = traffic.read_bytes;
        p.dram_bytes_written = traffic.write_bytes;

        // Every k-slice of every block stages its A and B tiles through
        // shared memory once.
        let k_iters = shape.k.div_ceil(self.tiling.block_k) as u64;
        let tile_bytes = ((self.tiling.block_m * self.tiling.block_k
            + self.tiling.block_k * self.tiling.block_n)
            * 2) as u64;
        p.shared_bytes = p.thread_blocks * k_iters * tile_bytes;
        // Address generation and ld/st issue: a handful of scalar ops per
        // staged tile row.
        p.scalar_ops =
            p.thread_blocks * k_iters * (self.tiling.block_m + self.tiling.block_n) as u64;
        p
    }

    /// Functionally computes `A * B` (FP16 operands, FP32 accumulation) and
    /// returns the result together with the profile.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn execute(&self, a: &Matrix, b: &Matrix) -> (Matrix, WorkloadProfile) {
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let out = a.matmul_f16(b);
        (out, self.profile(&shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_sim::GpuTimingModel;
    use dsstc_tensor::SparsityPattern;

    fn kernel() -> DenseGemm {
        DenseGemm::new(GpuConfig::v100())
    }

    #[test]
    fn macs_per_instruction_is_128() {
        assert_eq!(kernel().macs_per_instruction(), 128);
    }

    #[test]
    fn profile_counts_match_shape() {
        let p = kernel().profile(&GemmShape::new(4096, 4096, 4096));
        assert_eq!(p.hmma_instructions, 4096u64 * 4096 * 4096 / 128);
        assert_eq!(p.thread_blocks, 32 * 32);
        assert_eq!(p.ohmma_instructions, 0);
        assert!(p.dram_bytes_read >= 2 * 4096 * 4096 * 2);
        assert_eq!(p.dram_bytes_written, 4096 * 4096 * 4);
    }

    #[test]
    fn v100_runs_4096_gemm_near_peak() {
        let model = GpuTimingModel::v100();
        let est = model.estimate(&kernel().profile(&GemmShape::new(4096, 4096, 4096)));
        let tflops = 2.0 * 4096f64.powi(3) / (est.time_us() * 1e-6) / 1e12;
        assert!(tflops > 60.0 && tflops < 130.0, "got {tflops} TFLOPS ({} us)", est.time_us());
    }

    #[test]
    fn small_gemm_is_overhead_dominated() {
        let model = GpuTimingModel::v100();
        let est = model.estimate(&kernel().profile(&GemmShape::new(64, 64, 64)));
        // A 64^3 GEMM should take only a few microseconds, dominated by
        // launch overhead rather than math.
        assert!(est.time_us() < 10.0);
    }

    #[test]
    fn execute_matches_reference_matmul() {
        let a = Matrix::random_sparse(48, 32, 0.3, SparsityPattern::Uniform, 1);
        let b = Matrix::random_sparse(32, 40, 0.3, SparsityPattern::Uniform, 2);
        let (out, profile) = kernel().execute(&a, &b);
        let reference = a.matmul(&b);
        assert!(out.approx_eq(&reference, 1e-2));
        assert_eq!(profile.hmma_instructions, (48u64 * 40 * 32).div_ceil(128));
    }

    #[test]
    fn profile_scales_linearly_in_k() {
        let k = kernel();
        let p1 = k.profile(&GemmShape::new(1024, 1024, 1024));
        let p2 = k.profile(&GemmShape::new(1024, 1024, 2048));
        assert_eq!(p2.hmma_instructions, 2 * p1.hmma_instructions);
        assert_eq!(p2.thread_blocks, p1.thread_blocks);
    }
}
