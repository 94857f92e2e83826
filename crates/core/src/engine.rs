//! The top-level façade: run and estimate dual-side sparse operations.

use dsstc_formats::CsrMatrix;
use dsstc_hwmodel::DsstcOverhead;
use dsstc_kernels::bitmap_spgemm::{BitmapSpGemm, BitmapSpGemmOptions, SyntheticGemmSpec};
use dsstc_kernels::conv::{ConvKernel, ConvScheme, ConvWorkload};
use dsstc_kernels::csr_spgemm::CsrSpGemm;
use dsstc_kernels::dense_gemm::DenseGemm;
use dsstc_kernels::vector_sparse::VectorSparseGemm;
use dsstc_sim::{GpuConfig, GpuTimingModel, KernelEstimate};
use dsstc_tensor::{FeatureMap, GemmShape, Matrix};

/// Result of running one dual-side sparse GEMM.
#[derive(Clone, Debug)]
pub struct SpGemmResult {
    /// The product matrix (FP16 operands, FP32 accumulation).
    pub output: Matrix,
    /// Modelled execution time of the dual-side sparse kernel, in µs.
    pub time_us: f64,
    /// Modelled execution time of the dense Tensor Core baseline, in µs.
    pub dense_time_us: f64,
    /// Speedup of the dual-side kernel over the dense baseline.
    pub speedup_over_dense: f64,
}

/// Modelled times of one GEMM under every scheme of Fig. 21.
#[derive(Clone, Debug)]
pub struct SparsityComparison {
    /// GEMM shape.
    pub shape: GemmShape,
    /// Sparsity of the A (activation) operand.
    pub a_sparsity: f64,
    /// Sparsity of the B (weight) operand.
    pub b_sparsity: f64,
    /// CUTLASS-style dense GEMM time, µs.
    pub dense_us: f64,
    /// cuSparse-style CSR SpGEMM time, µs (present only when CSR operands
    /// were supplied or synthesised).
    pub cusparse_us: Option<f64>,
    /// Single-side Sparse Tensor Core time, µs.
    pub vector_sparse_us: f64,
    /// This paper's dual-side SpGEMM time, µs.
    pub dual_side_us: f64,
}

impl SparsityComparison {
    /// Speedup of the dual-side kernel over the dense baseline.
    pub fn dual_side_speedup(&self) -> f64 {
        self.dense_us / self.dual_side_us
    }
}

/// The dual-side sparse Tensor Core: configuration plus timing model.
#[derive(Clone, Debug)]
pub struct DualSideSparseTensorCore {
    config: GpuConfig,
    model: GpuTimingModel,
    options: BitmapSpGemmOptions,
}

impl DualSideSparseTensorCore {
    /// Creates the engine for an arbitrary GPU configuration.
    pub fn new(config: GpuConfig) -> Self {
        let model = GpuTimingModel::new(config.clone());
        DualSideSparseTensorCore { config, model, options: BitmapSpGemmOptions::default() }
    }

    /// Creates the engine for the paper's V100 configuration.
    pub fn v100() -> Self {
        Self::new(GpuConfig::v100())
    }

    /// Overrides the SpGEMM ablation options (operand collector, two-level
    /// encoding).
    pub fn with_options(mut self, options: BitmapSpGemmOptions) -> Self {
        self.options = options;
        self
    }

    /// The GPU configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The timing model in use.
    pub fn timing_model(&self) -> &GpuTimingModel {
        &self.model
    }

    fn spgemm_kernel(&self) -> BitmapSpGemm {
        BitmapSpGemm::new(self.config.clone()).with_options(self.options)
    }

    /// Runs a dual-side sparse GEMM functionally and reports its modelled
    /// time alongside the dense baseline's.
    ///
    /// # Panics
    /// Panics if the inner dimensions of `a` and `b` disagree.
    pub fn spgemm(&self, a: &Matrix, b: &Matrix) -> SpGemmResult {
        let (output, profile) = self.spgemm_kernel().execute(a, b);
        let est = self.model.estimate(&profile);
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let dense = self.model.estimate(&DenseGemm::new(self.config.clone()).profile(&shape));
        SpGemmResult {
            output,
            time_us: est.time_us(),
            dense_time_us: dense.time_us(),
            speedup_over_dense: dense.time_us() / est.time_us(),
        }
    }

    /// Estimates (without materialising matrices) the dual-side SpGEMM time
    /// for a problem described by shape and operand sparsities. The sparser
    /// operand is automatically mapped to the column-condensed A side of the
    /// outer product (the side with the finer skip granularity).
    pub fn estimate_spgemm(
        &self,
        shape: GemmShape,
        a_sparsity: f64,
        b_sparsity: f64,
    ) -> KernelEstimate {
        let spec = SyntheticGemmSpec::oriented(shape, a_sparsity, b_sparsity, None, None);
        let (profile, _) = self.spgemm_kernel().profile_synthetic(&spec);
        self.model.estimate(&profile)
    }

    /// Compares every Fig. 21 scheme on one synthetic GEMM problem.
    ///
    /// The cuSparse entry is only produced for problems up to 1024 on a side
    /// (larger CSR operands are expensive to materialise); `None` otherwise.
    pub fn compare_schemes(
        &self,
        shape: GemmShape,
        a_sparsity: f64,
        b_sparsity: f64,
    ) -> SparsityComparison {
        let dense = self.model.estimate(&DenseGemm::new(self.config.clone()).profile(&shape));
        let vector = self
            .model
            .estimate(&VectorSparseGemm::new(self.config.clone()).profile(&shape, b_sparsity));
        let dual = self.estimate_spgemm(shape, a_sparsity, b_sparsity);
        let cusparse_us = if shape.m <= 1024 && shape.n <= 1024 && shape.k <= 1024 {
            let a = Matrix::random_sparse(
                shape.m,
                shape.k,
                a_sparsity,
                dsstc_tensor::SparsityPattern::Uniform,
                91,
            );
            let b = Matrix::random_sparse(
                shape.k,
                shape.n,
                b_sparsity,
                dsstc_tensor::SparsityPattern::Uniform,
                92,
            );
            let profile = CsrSpGemm::new(self.config.clone())
                .profile(&CsrMatrix::encode(&a), &CsrMatrix::encode(&b));
            Some(self.model.estimate(&profile).time_us())
        } else {
            None
        };
        SparsityComparison {
            shape,
            a_sparsity,
            b_sparsity,
            dense_us: dense.time_us(),
            cusparse_us,
            vector_sparse_us: vector.time_us(),
            dual_side_us: dual.time_us(),
        }
    }

    /// Runs a dual-side sparse convolution functionally (bitmap implicit
    /// im2col + dual-side SpGEMM). The output matrix has one row per output
    /// pixel and one column per output channel.
    pub fn spconv(
        &self,
        input: &FeatureMap,
        weights: &[FeatureMap],
        shape: &dsstc_tensor::ConvShape,
    ) -> (Matrix, f64) {
        let driver = ConvKernel::new(self.config.clone());
        let (output, profile) = driver.execute_dual_sparse(input, weights, shape);
        (output, self.model.estimate(&profile).time_us())
    }

    /// Estimates a convolution layer's time under one of the five Fig. 22
    /// schemes.
    pub fn estimate_conv(&self, workload: &ConvWorkload, scheme: ConvScheme) -> f64 {
        ConvKernel::new(self.config.clone()).estimate_us(&self.model, workload, scheme)
    }

    /// The hardware overhead estimate (Table IV) for this configuration.
    pub fn hardware_overhead(&self) -> DsstcOverhead {
        DsstcOverhead::for_configuration(
            dsstc_hwmodel::TechnologyNode::Nm12,
            self.config.num_sms as u64,
            self.config.sub_cores_per_sm as u64,
            self.config.tensor_cores_per_sub_core as u64,
            self.config.clock_ghz,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_tensor::{ConvShape, SparsityPattern};

    fn engine() -> DualSideSparseTensorCore {
        DualSideSparseTensorCore::v100()
    }

    #[test]
    fn spgemm_is_functionally_correct_and_faster_when_sparse() {
        let a = Matrix::random_sparse(128, 128, 0.8, SparsityPattern::Uniform, 3);
        let b = Matrix::random_sparse(128, 128, 0.8, SparsityPattern::Uniform, 4);
        let result = engine().spgemm(&a, &b);
        assert!(result.output.approx_eq(&a.matmul(&b), 1e-2));
        assert!(result.speedup_over_dense > 0.5);
        assert!(result.time_us > 0.0 && result.dense_time_us > 0.0);
    }

    #[test]
    fn estimate_spgemm_speedup_grows_with_sparsity() {
        let e = engine();
        let shape = GemmShape::new(2048, 2048, 2048);
        let dense = e.estimate_spgemm(shape, 0.0, 0.0).time_us();
        let sparse = e.estimate_spgemm(shape, 0.9, 0.9).time_us();
        assert!(sparse < dense / 2.0, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn compare_schemes_orders_match_figure_21() {
        let e = engine();
        let shape = GemmShape::new(1024, 1024, 1024);
        // Moderately sparse A, very sparse B: dual-side should win, the
        // fixed-ratio single-side baseline should sit between it and dense.
        let cmp = e.compare_schemes(shape, 0.5, 0.99);
        assert!(cmp.dual_side_us < cmp.dense_us);
        assert!(cmp.vector_sparse_us < cmp.dense_us);
        assert!(cmp.dual_side_us < cmp.vector_sparse_us);
        assert!(cmp.dual_side_speedup() > 1.0);
        assert!(cmp.cusparse_us.is_some());
    }

    #[test]
    fn compare_schemes_skips_cusparse_for_large_problems() {
        let cmp = engine().compare_schemes(GemmShape::new(2048, 2048, 2048), 0.5, 0.5);
        assert!(cmp.cusparse_us.is_none());
    }

    #[test]
    fn spconv_matches_direct_convolution() {
        let shape = ConvShape::square(8, 2, 3, 3, 1, 1);
        let input = FeatureMap::random_sparse(&shape, 0.5, 5);
        let weights: Vec<FeatureMap> = (0..3)
            .map(|n| {
                let mut w = FeatureMap::zeros(2, 3, 3);
                w.set(0, 1, 1, 1.0 + n as f32);
                w.set(1, 0, 2, -0.5);
                w
            })
            .collect();
        let (out, time_us) = engine().spconv(&input, &weights, &shape);
        let reference = input.conv2d_reference(&weights, &shape);
        for n in 0..3 {
            for oy in 0..shape.out_h() {
                for ox in 0..shape.out_w() {
                    assert!(
                        (out[(oy * shape.out_w() + ox, n)] - reference.get(n, oy, ox)).abs() < 1e-2
                    );
                }
            }
        }
        assert!(time_us > 0.0);
    }

    #[test]
    fn estimate_conv_dual_beats_dense_implicit_on_sparse_layer() {
        let e = engine();
        let w = ConvWorkload::new(ConvShape::square(28, 256, 256, 3, 1, 1), 0.7, 0.8);
        let dense = e.estimate_conv(&w, ConvScheme::DenseImplicit);
        let dual = e.estimate_conv(&w, ConvScheme::DualSparseImplicit);
        assert!(dual < dense);
    }

    #[test]
    fn hardware_overhead_is_small() {
        let o = engine().hardware_overhead();
        assert!(o.area_fraction_of_v100() < 0.02);
        assert!(o.power_fraction_of_v100() < 0.025);
    }

    #[test]
    fn estimates_are_deterministic() {
        let e = engine();
        let shape = GemmShape::new(512, 512, 512);
        let a = e.estimate_spgemm(shape, 0.6, 0.7).time_us();
        let b = e.estimate_spgemm(shape, 0.6, 0.7).time_us();
        assert_eq!(a, b);
    }
}
