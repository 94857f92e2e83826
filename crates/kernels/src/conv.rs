//! Convolution drivers: the five schemes compared in Fig. 22 for CNN layers.
//!
//! A convolution layer is lowered to a GEMM via im2col; the scheme decides
//! which im2col (explicit/implicit, dense/bitmap) and which GEMM kernel
//! (dense, single-side sparse, dual-side sparse) are composed:
//!
//! | scheme | im2col | GEMM | exploits |
//! |---|---|---|---|
//! | `DenseExplicit` | dense, explicit | CUTLASS dense | nothing |
//! | `DenseImplicit` | dense, implicit (cuDNN) | CUTLASS dense | nothing |
//! | `SingleSparseExplicit` | dense, explicit | Sparse Tensor Core \[72\] | weight sparsity (fixed 75 %) |
//! | `SingleSparseImplicit` | bitmap, implicit | dual-side SpGEMM | weight sparsity |
//! | `DualSparseImplicit` | bitmap, implicit | dual-side SpGEMM | weight **and** activation sparsity |

use dsstc_sim::{GpuConfig, GpuTimingModel, WorkloadProfile};
use dsstc_tensor::{ConvShape, FeatureMap, GemmShape, Matrix};

use crate::bitmap_spgemm::{BitmapSpGemm, SyntheticGemmSpec};
use crate::dense_gemm::DenseGemm;
use crate::im2col::{flatten_weights, BitmapIm2col, DenseIm2col};
use crate::vector_sparse::VectorSparseGemm;

/// The convolution execution schemes of Fig. 22.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConvScheme {
    /// Explicit dense im2col followed by CUTLASS dense GEMM.
    DenseExplicit,
    /// cuDNN-style implicit dense im2col fused into a dense GEMM.
    DenseImplicit,
    /// Explicit dense im2col followed by the single-side Sparse Tensor Core.
    SingleSparseExplicit,
    /// Bitmap implicit im2col + dual-side SpGEMM, but only the weight side
    /// is sparse (activations treated dense).
    SingleSparseImplicit,
    /// Bitmap implicit im2col + dual-side SpGEMM on both sparse sides —
    /// the paper's full method.
    DualSparseImplicit,
}

impl ConvScheme {
    /// All five schemes in the order Fig. 22 plots them.
    pub const ALL: [ConvScheme; 5] = [
        ConvScheme::DenseExplicit,
        ConvScheme::DenseImplicit,
        ConvScheme::SingleSparseExplicit,
        ConvScheme::SingleSparseImplicit,
        ConvScheme::DualSparseImplicit,
    ];
}

impl std::fmt::Display for ConvScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ConvScheme::DenseExplicit => "Dense Explicit",
            ConvScheme::DenseImplicit => "Dense Implicit",
            ConvScheme::SingleSparseExplicit => "Single Sparse Explicit",
            ConvScheme::SingleSparseImplicit => "Single Sparse Implicit",
            ConvScheme::DualSparseImplicit => "Dual Sparse Implicit",
        };
        f.write_str(s)
    }
}

/// A convolution layer workload: its shape plus the measured sparsity of its
/// input feature map and pruned weights.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvWorkload {
    /// Layer shape.
    pub shape: ConvShape,
    /// Fraction of zero activations in the input feature map.
    pub activation_sparsity: f64,
    /// Fraction of zero weights after pruning.
    pub weight_sparsity: f64,
}

impl ConvWorkload {
    /// Creates a workload.
    ///
    /// # Panics
    /// Panics if either sparsity is outside `[0, 1]`.
    pub fn new(shape: ConvShape, activation_sparsity: f64, weight_sparsity: f64) -> Self {
        assert!((0.0..=1.0).contains(&activation_sparsity), "activation sparsity must be in [0,1]");
        assert!((0.0..=1.0).contains(&weight_sparsity), "weight sparsity must be in [0,1]");
        ConvWorkload { shape, activation_sparsity, weight_sparsity }
    }

    /// The GEMM the layer lowers to.
    pub fn lowered_gemm(&self) -> GemmShape {
        self.shape.lowered_gemm()
    }
}

/// Byte footprints of the layer's operands under different encodings.
fn feature_map_bytes_dense(shape: &ConvShape) -> u64 {
    shape.input_elements() * 2
}

fn feature_map_bytes_bitmap(shape: &ConvShape, sparsity: f64) -> u64 {
    let elems = shape.input_elements();
    let nnz = (elems as f64 * (1.0 - sparsity)) as u64;
    nnz * 2 + elems.div_ceil(8) + (shape.c * shape.h) as u64 * 4
}

fn weight_bytes_dense(gemm: &GemmShape) -> u64 {
    (gemm.k * gemm.n) as u64 * 2
}

fn weight_bytes_bitmap(gemm: &GemmShape, sparsity: f64) -> u64 {
    let elems = (gemm.k * gemm.n) as u64;
    let nnz = (elems as f64 * (1.0 - sparsity)) as u64;
    nnz * 2 + elems.div_ceil(8)
}

/// Composes im2col and GEMM kernels into per-scheme convolution profiles.
#[derive(Clone, Debug)]
pub struct ConvKernel {
    config: GpuConfig,
}

impl ConvKernel {
    /// Creates the driver for the given GPU.
    pub fn new(config: GpuConfig) -> Self {
        ConvKernel { config }
    }

    /// The sequence of kernel launches (their profiles) the scheme needs for
    /// this layer. Explicit schemes run im2col as a separate kernel;
    /// implicit schemes fold it into the GEMM.
    pub fn profiles(&self, workload: &ConvWorkload, scheme: ConvScheme) -> Vec<WorkloadProfile> {
        let shape = &workload.shape;
        let gemm = workload.lowered_gemm();
        let dense_im2col = DenseIm2col::new();
        match scheme {
            ConvScheme::DenseExplicit => {
                let im2col =
                    dense_im2col.explicit_cost(shape).into_profile("explicit-im2col", shape);
                // The GEMM reads the materialised lowered matrix (default
                // operand bytes of the dense profile).
                let gemm_profile = DenseGemm::new(self.config.clone()).profile(&gemm);
                vec![im2col, gemm_profile]
            }
            ConvScheme::DenseImplicit => {
                let mut gemm_profile = DenseGemm::new(self.config.clone())
                    .profile_with_operand_bytes(
                        &gemm,
                        feature_map_bytes_dense(shape),
                        weight_bytes_dense(&gemm),
                    );
                dense_im2col.implicit_cost(shape).fold_into(&mut gemm_profile);
                vec![gemm_profile]
            }
            ConvScheme::SingleSparseExplicit => {
                let im2col =
                    dense_im2col.explicit_cost(shape).into_profile("explicit-im2col", shape);
                let gemm_profile = VectorSparseGemm::new(self.config.clone())
                    .profile(&gemm, workload.weight_sparsity);
                vec![im2col, gemm_profile]
            }
            ConvScheme::SingleSparseImplicit | ConvScheme::DualSparseImplicit => {
                let activation_sparsity = if scheme == ConvScheme::DualSparseImplicit {
                    workload.activation_sparsity
                } else {
                    0.0
                };
                let a_bytes = feature_map_bytes_bitmap(shape, activation_sparsity);
                let b_bytes = weight_bytes_bitmap(&gemm, workload.weight_sparsity);
                let spec = SyntheticGemmSpec::oriented(
                    gemm,
                    activation_sparsity,
                    workload.weight_sparsity,
                    Some(a_bytes),
                    Some(b_bytes),
                );
                let (mut gemm_profile, _) =
                    BitmapSpGemm::new(self.config.clone()).profile_synthetic(&spec);
                // Implicit bitmap im2col is fused into the GEMM main loop.
                let encoded_cost_input =
                    FeatureMapCostProxy { sparsity: activation_sparsity, shape: *shape };
                encoded_cost_input.implicit_cost().fold_into(&mut gemm_profile);
                vec![gemm_profile]
            }
        }
    }

    /// Modelled execution time of the layer under the scheme, in µs.
    pub fn estimate_us(
        &self,
        model: &GpuTimingModel,
        workload: &ConvWorkload,
        scheme: ConvScheme,
    ) -> f64 {
        model.estimate_sequence(&self.profiles(workload, scheme))
    }

    /// Functional dual-side sparse convolution: bitmap im2col of the input
    /// feature map, bitmap SpGEMM against the flattened weights, output
    /// returned as a `out_h*out_w x N` matrix (row = output pixel).
    ///
    /// # Panics
    /// Panics if the weights do not match the shape.
    pub fn execute_dual_sparse(
        &self,
        input: &FeatureMap,
        weights: &[FeatureMap],
        shape: &ConvShape,
    ) -> (Matrix, WorkloadProfile) {
        let im2col = BitmapIm2col::new();
        let lowered = im2col.lower(&im2col.encode(input), shape);
        let flat_weights = flatten_weights(weights, shape);
        BitmapSpGemm::new(self.config.clone()).execute(&lowered, &flat_weights)
    }
}

/// Cost proxy for the implicit bitmap im2col when only the sparsity ratio
/// (not the actual feature map) is known.
struct FeatureMapCostProxy {
    sparsity: f64,
    shape: ConvShape,
}

impl FeatureMapCostProxy {
    fn implicit_cost(&self) -> crate::im2col::Im2colCost {
        let lowered = self.shape.lowered_elements();
        let lowered_words = lowered.div_ceil(32);
        let touched_nnz = (lowered as f64 * (1.0 - self.sparsity)) as u64;
        crate::im2col::Im2colCost {
            scalar_ops: lowered_words * 3 + touched_nnz,
            popc_ops: lowered_words,
            dram_bytes_read: 0,
            dram_bytes_written: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_sim::GpuTimingModel;

    fn resnet_layer() -> ConvWorkload {
        // The ResNet-18 layer used in Table III: 56x56, 3x3, 128 -> 128.
        ConvWorkload::new(ConvShape::square(56, 128, 128, 3, 1, 1), 0.6, 0.8)
    }

    fn driver() -> ConvKernel {
        ConvKernel::new(GpuConfig::v100())
    }

    #[test]
    fn explicit_schemes_launch_two_kernels_implicit_one() {
        let w = resnet_layer();
        let d = driver();
        assert_eq!(d.profiles(&w, ConvScheme::DenseExplicit).len(), 2);
        assert_eq!(d.profiles(&w, ConvScheme::SingleSparseExplicit).len(), 2);
        assert_eq!(d.profiles(&w, ConvScheme::DenseImplicit).len(), 1);
        assert_eq!(d.profiles(&w, ConvScheme::SingleSparseImplicit).len(), 1);
        assert_eq!(d.profiles(&w, ConvScheme::DualSparseImplicit).len(), 1);
    }

    #[test]
    fn dense_implicit_beats_dense_explicit() {
        let model = GpuTimingModel::v100();
        let w = resnet_layer();
        let d = driver();
        let explicit = d.estimate_us(&model, &w, ConvScheme::DenseExplicit);
        let implicit = d.estimate_us(&model, &w, ConvScheme::DenseImplicit);
        assert!(implicit < explicit, "implicit {implicit} vs explicit {explicit}");
    }

    #[test]
    fn dual_sparse_implicit_is_fastest_scheme_on_a_sparse_layer() {
        let model = GpuTimingModel::v100();
        let w = resnet_layer();
        let d = driver();
        let times: Vec<f64> =
            ConvScheme::ALL.iter().map(|&s| d.estimate_us(&model, &w, s)).collect();
        let dual = times[4];
        for (i, &t) in times.iter().enumerate().take(4) {
            assert!(dual <= t, "dual ({dual}) should beat {} ({t})", ConvScheme::ALL[i]);
        }
    }

    #[test]
    fn dual_sparse_beats_single_sparse_when_activations_are_sparse() {
        let model = GpuTimingModel::v100();
        let d = driver();
        let w = ConvWorkload::new(ConvShape::square(28, 256, 256, 3, 1, 1), 0.7, 0.7);
        let single = d.estimate_us(&model, &w, ConvScheme::SingleSparseImplicit);
        let dual = d.estimate_us(&model, &w, ConvScheme::DualSparseImplicit);
        assert!(dual < single, "dual {dual} vs single {single}");
    }

    #[test]
    fn dense_activations_make_single_and_dual_equivalent() {
        let model = GpuTimingModel::v100();
        let d = driver();
        let w = ConvWorkload::new(ConvShape::square(28, 64, 64, 3, 1, 1), 0.0, 0.8);
        let single = d.estimate_us(&model, &w, ConvScheme::SingleSparseImplicit);
        let dual = d.estimate_us(&model, &w, ConvScheme::DualSparseImplicit);
        let ratio = dual / single;
        assert!((0.9..=1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn execute_dual_sparse_matches_direct_convolution() {
        let shape = ConvShape::square(8, 3, 4, 3, 1, 1);
        let input = FeatureMap::random_sparse(&shape, 0.5, 31);
        let weights: Vec<FeatureMap> = (0..shape.n)
            .map(|n| {
                let mut w = FeatureMap::zeros(shape.c, shape.k, shape.k);
                for c in 0..shape.c {
                    for ky in 0..shape.k {
                        for kx in 0..shape.k {
                            // A mix of zeros and non-zeros.
                            let v = ((n * 7 + c * 5 + ky * 3 + kx) % 5) as f32 - 2.0;
                            w.set(c, ky, kx, v);
                        }
                    }
                }
                w
            })
            .collect();
        let (out, _) = driver().execute_dual_sparse(&input, &weights, &shape);
        let reference = input.conv2d_reference(&weights, &shape);
        for n in 0..shape.n {
            for oy in 0..shape.out_h() {
                for ox in 0..shape.out_w() {
                    let got = out[(oy * shape.out_w() + ox, n)];
                    let expect = reference.get(n, oy, ox);
                    assert!(
                        (got - expect).abs() < 1e-2,
                        "n={n} oy={oy} ox={ox}: {got} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn scheme_display_names() {
        assert_eq!(ConvScheme::DualSparseImplicit.to_string(), "Dual Sparse Implicit");
        assert_eq!(ConvScheme::ALL.len(), 5);
    }

    #[test]
    #[should_panic(expected = "activation sparsity")]
    fn invalid_sparsity_panics() {
        let _ = ConvWorkload::new(ConvShape::square(8, 1, 1, 3, 1, 1), 1.5, 0.0);
    }
}
