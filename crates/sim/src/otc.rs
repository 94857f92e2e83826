//! Cost model of the Outer-product Tensor Core (OTC) warp step.
//!
//! A warp-level SpWMMA covers a `32 x 32 x K` tile. Each `k` step consumes
//! one condensed column of Av and one condensed row of Bv; the 32x32 output
//! is covered by `ceil(32/8) x ceil(32/16) = 8` OHMMA instructions in dense
//! mode (paper Fig. 5/15). In sparse mode, population counts of the two
//! bitmap vectors decide how many of those eight instructions must actually
//! be issued — the rest are skipped by predication. The partial-matrix
//! non-zeros produced by the step then have to be merged into the
//! accumulation buffer.

use crate::config::OtcConfig;

/// Cost of one `32 x 32 x 1` outer-product step on condensed operands.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OtcStepCost {
    /// OHMMA instructions issued.
    pub ohmma_issued: u64,
    /// OHMMA instructions skipped through predication.
    pub ohmma_skipped: u64,
    /// Binary (bitmap) outer-product instructions issued.
    pub bohmma: u64,
    /// Population-count instructions issued.
    pub popc: u64,
    /// Non-zero elements of the produced partial matrix that the merge
    /// stage must accumulate.
    pub partial_nnz: u64,
    /// Cycles the 128-way merge pipeline needs for those non-zeros
    /// (excluding bank conflicts).
    pub merge_cycles: u64,
}

impl OtcStepCost {
    /// Computes the cost of one outer-product step given the non-zero counts
    /// of the condensed A column (`a_nnz`, out of `warp_dim`) and B row
    /// (`b_nnz`), for the given OTC configuration and warp-tile dimension.
    ///
    /// # Panics
    /// Panics if `a_nnz` or `b_nnz` exceeds `warp_dim`.
    pub fn for_vectors(a_nnz: usize, b_nnz: usize, warp_dim: usize, otc: &OtcConfig) -> Self {
        assert!(a_nnz <= warp_dim && b_nnz <= warp_dim, "nnz cannot exceed the warp dimension");
        let dense_total = Self::dense_ohmma_count(warp_dim, otc);
        if a_nnz == 0 || b_nnz == 0 {
            // The whole step is skipped; only the POPC that discovered the
            // empty vector is charged.
            return OtcStepCost {
                ohmma_issued: 0,
                ohmma_skipped: dense_total,
                bohmma: 0,
                popc: 2,
                partial_nnz: 0,
                merge_cycles: 0,
            };
        }
        let a_groups = a_nnz.div_ceil(otc.tile_m) as u64;
        let b_groups = b_nnz.div_ceil(otc.tile_n) as u64;
        let issued = a_groups * b_groups;
        let partial_nnz = (a_nnz * b_nnz) as u64;
        OtcStepCost {
            ohmma_issued: issued,
            ohmma_skipped: dense_total - issued,
            bohmma: 1,
            popc: 2,
            partial_nnz,
            merge_cycles: partial_nnz.div_ceil(otc.accum_parallelism as u64),
        }
    }

    /// OHMMA instructions a fully dense step needs.
    pub fn dense_ohmma_count(warp_dim: usize, otc: &OtcConfig) -> u64 {
        (warp_dim.div_ceil(otc.tile_m) * warp_dim.div_ceil(otc.tile_n)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn otc() -> OtcConfig {
        OtcConfig::paper()
    }

    #[test]
    fn dense_step_needs_eight_ohmmas() {
        assert_eq!(OtcStepCost::dense_ohmma_count(32, &otc()), 8);
        let step = OtcStepCost::for_vectors(32, 32, 32, &otc());
        assert_eq!(step.ohmma_issued, 8);
        assert_eq!(step.ohmma_skipped, 0);
        assert_eq!(step.bohmma, 1);
        assert_eq!(step.partial_nnz, 1024);
        assert_eq!(step.merge_cycles, 8);
    }

    #[test]
    fn paper_figure5_example_skips_five_of_eight() {
        // Av column has 20 non-zeros, Bv row has 11 (paper Fig. 5).
        let step = OtcStepCost::for_vectors(20, 11, 32, &otc());
        assert_eq!(step.ohmma_issued, 3);
        assert_eq!(step.ohmma_skipped, 5);
    }

    #[test]
    fn paper_figure15_example_set4() {
        // POPC results 20 (A) and 12 (B): 3 x 1 OHMMAs enabled.
        let step = OtcStepCost::for_vectors(20, 12, 32, &otc());
        assert_eq!(step.ohmma_issued, 3);
    }

    #[test]
    fn empty_vector_skips_whole_step() {
        let step = OtcStepCost::for_vectors(0, 17, 32, &otc());
        assert_eq!(step.ohmma_issued, 0);
        assert_eq!(step.ohmma_skipped, 8);
        assert_eq!(step.bohmma, 0);
        assert_eq!(step.partial_nnz, 0);
        let step = OtcStepCost::for_vectors(17, 0, 32, &otc());
        assert_eq!(step.ohmma_issued, 0);
    }

    #[test]
    fn sparsity_quantisation_levels() {
        // The A side benefits at 25% granularity, the B side at 50%
        // (paper Section III-B3).
        let full = OtcStepCost::for_vectors(32, 32, 32, &otc()).ohmma_issued;
        assert_eq!(OtcStepCost::for_vectors(24, 32, 32, &otc()).ohmma_issued, full / 4 * 3);
        assert_eq!(OtcStepCost::for_vectors(16, 32, 32, &otc()).ohmma_issued, full / 2);
        assert_eq!(OtcStepCost::for_vectors(8, 32, 32, &otc()).ohmma_issued, full / 4);
        assert_eq!(OtcStepCost::for_vectors(32, 16, 32, &otc()).ohmma_issued, full / 2);
        // 17 non-zeros on the B side still needs both column groups.
        assert_eq!(OtcStepCost::for_vectors(32, 17, 32, &otc()).ohmma_issued, full);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn nnz_larger_than_warp_dim_panics() {
        let _ = OtcStepCost::for_vectors(33, 0, 32, &otc());
    }

    #[test]
    fn merge_cycles_track_partial_nnz() {
        let step = OtcStepCost::for_vectors(16, 16, 32, &otc());
        assert_eq!(step.partial_nnz, 256);
        assert_eq!(step.merge_cycles, 2); // 256 / 128-way accumulators
    }
}
