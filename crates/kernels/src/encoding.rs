//! The explicit identity of a two-level bitmap encoding.
//!
//! The paper encodes pruned weights offline because weight sparsity is
//! static — but an encoded artifact is only executable on a kernel whose
//! warp tiling and condensed-vector layouts it was built for. An
//! [`EncodingSpec`] names that contract explicitly: the [`GemmTiling`] the
//! warp tiles follow plus the [`VectorLayout`] of each operand's condensed
//! vectors. Two encodings of the same pruned weights under different specs
//! are **different artifacts**: a serving layer caching encoded weights per
//! device keys its cache (and its on-disk store) by the spec, and a
//! heterogeneous device pool carries one spec per device.

use dsstc_formats::{TwoLevelBitmapMatrix, VectorLayout};
use dsstc_sim::tiling::GemmTiling;
use dsstc_sim::GpuConfig;

/// Identity of a two-level bitmap encoding: the warp tiling plus the
/// condensed-vector layout of each operand.
///
/// `Eq + Hash`, so it composes directly into cache keys, and
/// [`EncodingSpec::id`] gives a stable filesystem-safe name for persisted
/// artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EncodingSpec {
    /// The GEMM tiling whose warp tiles the encoding is partitioned into.
    pub tiling: GemmTiling,
    /// Condensed-vector layout of the A (activation) operand.
    pub a_layout: VectorLayout,
    /// Condensed-vector layout of the B (weight) operand.
    pub b_layout: VectorLayout,
}

impl EncodingSpec {
    /// The encoding of the paper's SpGEMM: 32x32x16 warp tiles,
    /// column-major condensed A, row-major condensed B.
    pub fn paper() -> Self {
        EncodingSpec::for_tiling(GemmTiling::paper_spgemm())
    }

    /// The encoding `gpu`'s native kernel tiling expects (see
    /// [`GpuConfig::native_tiling`]). Operand layouts are fixed by the
    /// outer-product formulation: column-major A, row-major B.
    pub fn for_gpu(gpu: &GpuConfig) -> Self {
        EncodingSpec::for_tiling(gpu.native_tiling())
    }

    /// The outer-product encoding for an explicit tiling.
    pub fn for_tiling(tiling: GemmTiling) -> Self {
        EncodingSpec {
            tiling,
            a_layout: VectorLayout::ColumnMajor,
            b_layout: VectorLayout::RowMajor,
        }
    }

    /// Warp-tile shape of the A operand: `warp_m x warp_k`.
    pub fn a_tile(&self) -> (usize, usize) {
        self.tiling.a_tile()
    }

    /// Warp-tile shape of the B operand: `warp_k x warp_n`.
    pub fn b_tile(&self) -> (usize, usize) {
        self.tiling.b_tile()
    }

    /// Whether `enc` is a B operand under this spec (tile shape and layout
    /// both match).
    pub fn matches_b(&self, enc: &TwoLevelBitmapMatrix) -> bool {
        (enc.tile_rows(), enc.tile_cols()) == self.b_tile() && enc.layout() == self.b_layout
    }

    /// Stable, filesystem-safe identifier (`<tiling-id>-<a>-<b>` with `cm` /
    /// `rm` layout suffixes), used to name persisted encoded artifacts.
    pub fn id(&self) -> String {
        let tag = |l: VectorLayout| match l {
            VectorLayout::ColumnMajor => "cm",
            VectorLayout::RowMajor => "rm",
        };
        format!("{}-{}-{}", self.tiling.id(), tag(self.a_layout), tag(self.b_layout))
    }
}

impl Default for EncodingSpec {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_tensor::{Matrix, SparsityPattern};

    #[test]
    fn paper_spec_matches_paper_tiling_operands() {
        let spec = EncodingSpec::paper();
        assert_eq!(spec.a_tile(), (32, 16));
        assert_eq!(spec.b_tile(), (16, 32));
        assert_eq!(spec, EncodingSpec::default());
        assert_eq!(spec, EncodingSpec::for_gpu(&GpuConfig::v100()));
    }

    #[test]
    fn heterogeneous_gpus_produce_distinct_specs_and_ids() {
        let v100 = EncodingSpec::for_gpu(&GpuConfig::v100());
        let a100 = EncodingSpec::for_gpu(&GpuConfig::a100());
        assert_ne!(v100, a100);
        assert_ne!(v100.id(), a100.id());
        assert_eq!(v100.id(), "b128x128x16-w32x32x16-cm-rm");
        assert!(a100.id().chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
    }

    #[test]
    fn matches_checks_tile_shape_and_layout() {
        let spec = EncodingSpec::paper();
        let dense = Matrix::random_sparse(64, 64, 0.7, SparsityPattern::Uniform, 5);
        let b = TwoLevelBitmapMatrix::encode(&dense, 16, 32, VectorLayout::RowMajor);
        assert!(spec.matches_b(&b));
        assert_ne!(spec.a_tile(), spec.b_tile(), "B tiling is not the A tiling");
        let wrong_layout = TwoLevelBitmapMatrix::encode(&dense, 16, 32, VectorLayout::ColumnMajor);
        assert!(!spec.matches_b(&wrong_layout));
        let a100 = EncodingSpec::for_gpu(&GpuConfig::a100());
        assert!(!a100.matches_b(&b), "V100 artifact must not pass as an A100 one");
    }
}
