//! Warp-level bitmap outer-product SpGEMM (paper Section III-B).
//!
//! One warp owns a `32 x 32` output tile held in the OTC accumulation
//! buffer and iterates over `K` in steps of one condensed A column and one
//! condensed B row. Functionally each step is a sparse outer product merged
//! into the tile (gather–accumulate–scatter, Fig. 7); architecturally each
//! step costs a `BOHMMA`, two `POPC`s, the predicated `OHMMA`s and the merge
//! cycles counted by [`dsstc_sim::otc`]; the kernel's profiles price a warp
//! tile from the step counts its bitmaps hold.

use dsstc_formats::TileView;
use dsstc_tensor::{f16, Matrix};

/// Functional warp-level SpGEMM: accumulates `A_tile * B_tile` into `acc`
/// using the outer-product / gather-scatter formulation.
///
/// `a_tile` is a tile of condensed columns (`M x K`: `K` steps of `M`
/// bits), `b_tile` one of condensed rows (`K x N`), and `acc` is `M x N`.
/// The tiles' values are halves, each step's widened once before its
/// products (FP16 multiply, FP32 accumulate).
///
/// # Panics
/// Panics if the shapes are inconsistent.
pub fn warp_spgemm(a_tile: TileView<'_>, b_tile: TileView<'_>, acc: &mut Matrix) {
    assert_eq!(a_tile.words().len(), b_tile.words().len(), "inner dimensions must agree");
    assert_eq!(acc.rows(), a_tile.height(), "accumulator rows mismatch");
    assert_eq!(acc.cols(), b_tile.height(), "accumulator cols mismatch");

    let (mut a_row, mut b_row) = ([0.0f32; 64], [0.0f32; 64]);
    for (k, (&a_word, &b_word)) in a_tile.words().iter().zip(b_tile.words()).enumerate() {
        // Multiply-value: cross product of the condensed vectors.
        let a_values = widened(a_tile.step_values(k), &mut a_row);
        let b_values = widened(b_tile.step_values(k), &mut b_row);
        // Merge: gather the previous partials, accumulate, scatter back. On
        // a dense accumulator the gather/scatter is the indexing itself.
        for (row, &av) in set_bits(a_word).zip(a_values) {
            for (col, &bv) in set_bits(b_word).zip(b_values) {
                acc[(row, col)] += av * bv;
            }
        }
    }
}

/// `halves` widened into the front of `row`.
fn widened<'r>(halves: &[f16], row: &'r mut [f32; 64]) -> &'r [f32] {
    let row = &mut row[..halves.len()];
    for (x, h) in row.iter_mut().zip(halves) {
        *x = h.to_f32();
    }
    row
}

/// The positions of `word`'s set bits, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize);
        word &= word.wrapping_sub(1);
        bit
    })
}

#[cfg(test)]
mod tests {
    use super::super::{BitmapSpGemm, BitmapSpGemmOptions, SpGemmStats};
    use super::*;
    use dsstc_formats::{TwoLevelBitmapMatrix, VectorLayout};
    use dsstc_sim::{GpuConfig, WorkloadProfile};
    use dsstc_tensor::{GemmShape, SparsityPattern};

    /// One warp tile of each operand: `32 x k` and `k x 32`, dense (every
    /// value a half, as stored), and as the two-level encoder stores them.
    fn encode_pair(
        sparsity_a: f64,
        sparsity_b: f64,
        k: usize,
    ) -> (Matrix, Matrix, TwoLevelBitmapMatrix, TwoLevelBitmapMatrix) {
        let a = Matrix::random_sparse(32, k, sparsity_a, SparsityPattern::Uniform, 7);
        let b = Matrix::random_sparse(k, 32, sparsity_b, SparsityPattern::Uniform, 8);
        let (a, b) = (a.to_f16_precision(), b.to_f16_precision());
        let a_enc = TwoLevelBitmapMatrix::encode(&a, 32, k, VectorLayout::ColumnMajor);
        let b_enc = TwoLevelBitmapMatrix::encode(&b, k, 32, VectorLayout::RowMajor);
        (a, b, a_enc, b_enc)
    }

    /// `warp_spgemm` of the pair's tiles into `acc`; an empty tile adds
    /// nothing.
    fn accumulate(a_enc: &TwoLevelBitmapMatrix, b_enc: &TwoLevelBitmapMatrix, acc: &mut Matrix) {
        if let (Some(a_tile), Some(b_tile)) = (a_enc.tile(0, 0), b_enc.tile(0, 0)) {
            warp_spgemm(a_tile, b_tile, acc);
        }
    }

    #[test]
    fn warp_spgemm_matches_dense_matmul() {
        for (sa, sb) in [(0.0, 0.0), (0.5, 0.5), (0.9, 0.2), (0.99, 0.99)] {
            let (a, b, a_enc, b_enc) = encode_pair(sa, sb, 16);
            let mut acc = Matrix::zeros(32, 32);
            accumulate(&a_enc, &b_enc, &mut acc);
            assert!(acc.approx_eq(&a.matmul(&b), 1e-3), "sparsity ({sa},{sb})");
        }
    }

    #[test]
    fn warp_spgemm_accumulates_into_existing_tile() {
        let (a, b, a_enc, b_enc) = encode_pair(0.6, 0.6, 16);
        let bias = Matrix::random_sparse(32, 32, 0.0, SparsityPattern::Uniform, 9);
        let mut acc = bias.clone();
        accumulate(&a_enc, &b_enc, &mut acc);
        assert!(acc.approx_eq(&bias.add(&a.matmul(&b)), 1e-3));
    }

    /// The model's cost of one warp tile of the paper's tiling whose steps
    /// hold `a` and `b` non-zeros, as the exact walk and the profiles' tail price it.
    fn tile_cost(a: &[u16], b: &[u16], use_collector: bool) -> (WorkloadProfile, SpGemmStats) {
        let options = BitmapSpGemmOptions { operand_collector: use_collector, two_level: true };
        let kernel = BitmapSpGemm::new(GpuConfig::v100()).with_options(options);
        let shape = GemmShape::new(32, 32, 16);
        let events = kernel.walk(1, &[a.to_vec()], &[b.to_vec()]);
        kernel.finish(String::new(), shape, &events, (0, 0))
    }

    #[test]
    fn profile_dense_tile_issues_all_ohmmas_without_conflicts_when_collected() {
        let (p, stats) = tile_cost(&[32; 16], &[32; 16], true);
        assert_eq!(p.ohmma_instructions, 16 * 8);
        assert_eq!((stats.skipped_ohmma, stats.dense_ohmma), (0, 16 * 8));
        assert_eq!(p.accum_conflict_cycles, 0);
    }

    #[test]
    fn removing_the_operand_collector_costs_conflict_cycles() {
        let (with, _) = tile_cost(&[20; 16], &[20; 16], true);
        let (without, _) = tile_cost(&[20; 16], &[20; 16], false);
        assert_eq!(with.ohmma_instructions, without.ohmma_instructions);
        assert_eq!(with.merge_cycles, without.merge_cycles);
        assert!(without.accum_conflict_cycles > with.accum_conflict_cycles);
    }

    #[test]
    fn sparse_tile_skips_ohmmas() {
        // Paper Fig. 5: a 20-nnz column and 11-nnz row skip 5 of 8 OHMMAs.
        let (p, stats) = tile_cost(&[20], &[11], true);
        assert_eq!(p.ohmma_instructions, 3);
        assert_eq!(stats.skipped_ohmma, 5);
        // A tile's steps add up, an empty step skipping all 8: 8 + 3 + 0 + 1
        // of 32 issued.
        let (p, stats) = tile_cost(&[32, 20, 0, 8], &[32, 11, 16, 16], true);
        assert_eq!(p.ohmma_instructions, 12);
        assert_eq!((stats.skipped_ohmma, stats.dense_ohmma), (20, 32));
        assert_eq!(stats.skipped_warp_tiles, 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn warp_spgemm_validates_shapes() {
        let (_, _, a, _) = encode_pair(0.0, 0.0, 16);
        let (_, _, _, b) = encode_pair(0.0, 0.0, 8);
        let mut acc = Matrix::zeros(32, 32);
        warp_spgemm(a.tile(0, 0).unwrap(), b.tile(0, 0).unwrap(), &mut acc);
    }
}
