//! Warp-level bitmap outer-product SpGEMM (paper Section III-B).
//!
//! One warp owns a `32 x 32` output tile held in the OTC accumulation
//! buffer and iterates over `K` in steps of one condensed A column and one
//! condensed B row. Functionally each step is a sparse outer product merged
//! into the tile (gather–accumulate–scatter, Fig. 7); architecturally each
//! step costs a `BOHMMA`, two `POPC`s, the predicated `OHMMA`s and the merge
//! cycles counted by [`dsstc_sim::otc`].

use dsstc_formats::{BitmapMatrix, VectorLayout};
use dsstc_sim::{AccumulationBuffer, OtcConfig, WarpTileCost};
use dsstc_tensor::Matrix;

/// Cost summary of one warp tile including accumulation-buffer conflicts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WarpTileProfile {
    /// Instruction/merge counts from the OTC model.
    pub cost: WarpTileCost,
    /// Extra cycles lost to accumulation-buffer bank conflicts.
    pub conflict_cycles: u64,
}

/// Architectural cost of one warp tile given the per-step non-zero counts.
///
/// `use_collector` selects whether the accumulation buffer's operand
/// collector is present; without it, scatter conflicts inflate the merge.
pub fn warp_tile_profile(
    a_nnz: &[usize],
    b_nnz: &[usize],
    warp_dim: usize,
    otc: &OtcConfig,
    use_collector: bool,
) -> WarpTileProfile {
    let cost = WarpTileCost::from_step_nnz(a_nnz, b_nnz, warp_dim, otc);
    let buffer = AccumulationBuffer::from_otc(otc);
    // Each issued OHMMA delivers up to 16 scattered outputs to the banks.
    let factor = buffer.conflict_factor_estimate(16, use_collector);
    let conflict_cycles = ((factor - 1.0) * cost.steps.merge_cycles as f64).round() as u64;
    WarpTileProfile { cost, conflict_cycles }
}

/// Functional warp-level SpGEMM: accumulates `A_tile * B_tile` into `acc`
/// using the outer-product / gather-scatter formulation.
///
/// `a_tile` must be column-major encoded (`M x K`), `b_tile` row-major
/// (`K x N`), and `acc` sized `M x N`.
///
/// # Panics
/// Panics if the layouts or shapes are inconsistent.
pub fn warp_spgemm(a_tile: &BitmapMatrix, b_tile: &BitmapMatrix, acc: &mut Matrix) {
    assert_eq!(a_tile.layout(), VectorLayout::ColumnMajor, "A tile must be column-major");
    assert_eq!(b_tile.layout(), VectorLayout::RowMajor, "B tile must be row-major");
    assert_eq!(a_tile.cols(), b_tile.rows(), "inner dimensions must agree");
    assert_eq!(acc.rows(), a_tile.rows(), "accumulator rows mismatch");
    assert_eq!(acc.cols(), b_tile.cols(), "accumulator cols mismatch");

    for k in 0..a_tile.cols() {
        // Multiply-value: cross product of the condensed vectors.
        let a_positions = a_tile.vector_positions(k);
        let a_values = a_tile.vector_values(k);
        let b_positions = b_tile.vector_positions(k);
        let b_values = b_tile.vector_values(k);
        // Merge: gather the previous partials, accumulate, scatter back. On
        // a dense accumulator the gather/scatter is the indexing itself.
        for (ai, &row) in a_positions.iter().enumerate() {
            let av = a_values[ai];
            for (bi, &col) in b_positions.iter().enumerate() {
                acc[(row, col)] += av * b_values[bi];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_tensor::SparsityPattern;

    fn encode_pair(
        sparsity_a: f64,
        sparsity_b: f64,
        k: usize,
    ) -> (Matrix, Matrix, BitmapMatrix, BitmapMatrix) {
        let a = Matrix::random_sparse(32, k, sparsity_a, SparsityPattern::Uniform, 7);
        let b = Matrix::random_sparse(k, 32, sparsity_b, SparsityPattern::Uniform, 8);
        let a_enc = BitmapMatrix::encode(&a, VectorLayout::ColumnMajor);
        let b_enc = BitmapMatrix::encode(&b, VectorLayout::RowMajor);
        (a, b, a_enc, b_enc)
    }

    #[test]
    fn warp_spgemm_matches_dense_matmul() {
        for (sa, sb) in [(0.0, 0.0), (0.5, 0.5), (0.9, 0.2), (0.99, 0.99)] {
            let (a, b, a_enc, b_enc) = encode_pair(sa, sb, 16);
            let mut acc = Matrix::zeros(32, 32);
            warp_spgemm(&a_enc, &b_enc, &mut acc);
            assert!(acc.approx_eq(&a.matmul(&b), 1e-3), "sparsity ({sa},{sb})");
        }
    }

    #[test]
    fn warp_spgemm_accumulates_into_existing_tile() {
        let (a, b, a_enc, b_enc) = encode_pair(0.6, 0.6, 16);
        let bias = Matrix::random_sparse(32, 32, 0.0, SparsityPattern::Uniform, 9);
        let mut acc = bias.clone();
        warp_spgemm(&a_enc, &b_enc, &mut acc);
        assert!(acc.approx_eq(&bias.add(&a.matmul(&b)), 1e-3));
    }

    #[test]
    fn profile_dense_tile_issues_all_ohmmas_without_conflicts_when_collected() {
        let otc = OtcConfig::paper();
        let p = warp_tile_profile(&[32; 16], &[32; 16], 32, &otc, true);
        assert_eq!(p.cost.steps.ohmma_issued, 16 * 8);
        assert_eq!(p.conflict_cycles, 0);
    }

    #[test]
    fn removing_the_operand_collector_costs_conflict_cycles() {
        let otc = OtcConfig::paper();
        let with = warp_tile_profile(&[20; 16], &[20; 16], 32, &otc, true);
        let without = warp_tile_profile(&[20; 16], &[20; 16], 32, &otc, false);
        assert_eq!(with.cost, without.cost);
        assert!(without.conflict_cycles > with.conflict_cycles);
    }

    #[test]
    fn sparse_tile_skips_ohmmas() {
        let otc = OtcConfig::paper();
        // Paper Fig. 5: a 20-nnz column and 11-nnz row skip 5 of 8 OHMMAs.
        let p = warp_tile_profile(&[20], &[11], 32, &otc, true);
        assert_eq!(p.cost.steps.ohmma_issued, 3);
        assert_eq!(p.cost.steps.ohmma_skipped, 5);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn warp_spgemm_validates_shapes() {
        let a = BitmapMatrix::encode(&Matrix::zeros(32, 16), VectorLayout::ColumnMajor);
        let b = BitmapMatrix::encode(&Matrix::zeros(8, 32), VectorLayout::RowMajor);
        let mut acc = Matrix::zeros(32, 32);
        warp_spgemm(&a, &b, &mut acc);
    }
}
