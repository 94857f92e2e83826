//! Property-based tests (proptest) on the core invariants that hold across
//! crates: encodings are lossless, the outer-product SpGEMM computes the
//! same product as the dense reference, im2col variants agree, and the OTC
//! skip model is consistent with the ISA predicate masks.

use dsstc_formats::{BitmapMatrix, CsrMatrix, TwoLevelBitmapMatrix, VectorLayout};
use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
use dsstc_kernels::im2col::{BitmapIm2col, CsrIm2col, DenseIm2col};
use dsstc_sim::{predicate_mask, GpuConfig, OtcConfig, OtcStepCost};
use dsstc_tensor::{f16, ConvShape, FeatureMap, Matrix, RandomMatrixBuilder, SparsityPattern};
use proptest::prelude::*;

/// Strategy: a random sparse matrix with bounded dimensions.
fn sparse_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, 0u8..=10, any::<u64>()).prop_map(|(rows, cols, tenths, seed)| {
        RandomMatrixBuilder::new(rows, cols)
            .sparsity(f64::from(tenths) / 10.0)
            .pattern(SparsityPattern::Uniform)
            .seed(seed)
            .build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_encoding_roundtrips(m in sparse_matrix(48), col_major in any::<bool>()) {
        let layout = if col_major { VectorLayout::ColumnMajor } else { VectorLayout::RowMajor };
        let enc = BitmapMatrix::encode(&m, layout);
        prop_assert_eq!(enc.nnz(), m.nnz());
        prop_assert_eq!(enc.decode(), m);
    }

    #[test]
    fn csr_encoding_roundtrips(m in sparse_matrix(48)) {
        let enc = CsrMatrix::encode(&m);
        prop_assert_eq!(enc.nnz(), m.nnz());
        prop_assert_eq!(enc.decode(), m);
    }

    #[test]
    fn two_level_encoding_roundtrips_for_any_tile_size(
        m in sparse_matrix(40),
        tile_rows in 1usize..=33,
        tile_cols in 1usize..=33,
    ) {
        // The encoding stores halves, so a matrix of halves round-trips.
        let m = m.to_f16_precision();
        let enc = TwoLevelBitmapMatrix::encode(&m, tile_rows, tile_cols, VectorLayout::ColumnMajor);
        prop_assert_eq!(enc.nnz(), m.nnz());
        prop_assert_eq!(enc.decode(), m);
        // The warp bitmap never under-reports: empty tiles + non-empty tiles
        // cover the whole grid.
        prop_assert_eq!(enc.warp_bitmap().count_ones() + enc.empty_tiles(), enc.tile_count());
    }

    #[test]
    fn bitmap_spgemm_matches_dense_reference(
        m in 1usize..=40,
        n in 1usize..=40,
        k in 1usize..=40,
        sa in 0u8..=10,
        sb in 0u8..=10,
        seed in any::<u64>(),
    ) {
        let a = RandomMatrixBuilder::new(m, k).sparsity(f64::from(sa) / 10.0).seed(seed).build();
        let b = RandomMatrixBuilder::new(k, n).sparsity(f64::from(sb) / 10.0).seed(seed ^ 0xABCD).build();
        let (out, profile) = BitmapSpGemm::new(GpuConfig::v100()).execute(&a, &b);
        prop_assert!(out.approx_eq(&a.matmul(&b), 1e-2));
        // Never more OHMMAs than the dense outer-product execution needs.
        let otc = OtcConfig::paper();
        let dense_steps = m.div_ceil(32) as u64 * n.div_ceil(32) as u64 * k as u64;
        prop_assert!(profile.ohmma_instructions <= dense_steps * OtcStepCost::dense_ohmma_count(32, &otc));
    }

    #[test]
    fn im2col_variants_agree(
        hw in 3usize..=12,
        c in 1usize..=4,
        n in 1usize..=3,
        k in 1usize..=3,
        stride in 1usize..=2,
        sparsity in 0u8..=10,
        seed in any::<u64>(),
    ) {
        prop_assume!(hw >= k);
        let padding = k / 2;
        let shape = ConvShape::square(hw, c, n, k, stride, padding);
        let mut fm = FeatureMap::random_sparse(&shape, f64::from(sparsity) / 10.0, seed);
        // Ensure at least the shape exercises zero and non-zero paths.
        fm.set(0, 0, 0, 1.5);
        let dense = DenseIm2col::new().lower(&fm, &shape);
        let csr = CsrIm2col::new();
        let bitmap = BitmapIm2col::new();
        prop_assert_eq!(csr.lower(&csr.encode(&fm), &shape), dense.clone());
        prop_assert_eq!(bitmap.lower(&bitmap.encode(&fm), &shape), dense);
    }

    #[test]
    fn predicate_mask_enables_exactly_the_issued_ohmmas(a_nnz in 0usize..=32, b_nnz in 0usize..=32) {
        let otc = OtcConfig::paper();
        let step = OtcStepCost::for_vectors(a_nnz, b_nnz, 32, &otc);
        let mask = predicate_mask(a_nnz, b_nnz, 32, &otc);
        let enabled = mask.iter().filter(|&&p| p).count() as u64;
        prop_assert_eq!(enabled, step.ohmma_issued);
        prop_assert_eq!(mask.len() as u64, step.ohmma_issued + step.ohmma_skipped);
    }

    #[test]
    fn otc_step_cost_is_monotone_in_nnz(a1 in 0usize..=32, a2 in 0usize..=32, b in 0usize..=32) {
        let otc = OtcConfig::paper();
        let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
        let c_lo = OtcStepCost::for_vectors(lo, b, 32, &otc);
        let c_hi = OtcStepCost::for_vectors(hi, b, 32, &otc);
        prop_assert!(c_lo.ohmma_issued <= c_hi.ohmma_issued);
        prop_assert!(c_lo.partial_nnz <= c_hi.partial_nnz);
    }

    #[test]
    fn f16_roundtrip_preserves_order_and_zero(x in -60000.0f32..60000.0, y in -60000.0f32..60000.0) {
        let rx = f16::round_f32(x);
        let ry = f16::round_f32(y);
        // Rounding is monotone.
        if x <= y {
            prop_assert!(rx <= ry);
        }
        // Relative error of a single rounding stays within half precision.
        if x.abs() > 1e-3 {
            prop_assert!(((rx - x) / x).abs() < 1e-3);
        }
        prop_assert_eq!(f16::round_f32(0.0), 0.0);
    }

    #[test]
    fn matrix_sparsity_survives_every_encoding(m in sparse_matrix(40)) {
        let nnz = m.nnz();
        prop_assert_eq!(CsrMatrix::encode(&m).nnz(), nnz);
        prop_assert_eq!(BitmapMatrix::encode(&m, VectorLayout::ColumnMajor).nnz(), nnz);
        prop_assert_eq!(TwoLevelBitmapMatrix::encode(&m, 32, 16, VectorLayout::RowMajor).nnz(), nnz);
    }

    #[test]
    fn two_level_serialisation_roundtrips_across_tilings_and_layouts(
        m in sparse_matrix(40),
        tile_rows in 1usize..=33,
        tile_cols in 1usize..=33,
        row_major in any::<bool>(),
    ) {
        // encode -> serialise -> deserialise -> decode == dense, for any
        // warp-tile shape and both condensed-vector layouts (a matrix of
        // halves, which is what the encoding stores).
        let m = m.to_f16_precision();
        let layout = if row_major { VectorLayout::RowMajor } else { VectorLayout::ColumnMajor };
        let enc = TwoLevelBitmapMatrix::encode(&m, tile_rows, tile_cols, layout);
        let back = TwoLevelBitmapMatrix::from_bytes(&enc.to_bytes()).expect("roundtrip decodes");
        prop_assert_eq!(&back, &enc, "deserialised encoding differs structurally");
        prop_assert_eq!(back.decode(), m);
    }

    #[test]
    fn bitmap_serialisation_roundtrips(m in sparse_matrix(48), col_major in any::<bool>()) {
        let layout = if col_major { VectorLayout::ColumnMajor } else { VectorLayout::RowMajor };
        let enc = BitmapMatrix::encode(&m, layout);
        let back = BitmapMatrix::from_bytes(&enc.to_bytes()).expect("roundtrip decodes");
        prop_assert_eq!(&back, &enc);
        prop_assert_eq!(back.decode(), m);
    }

    #[test]
    fn serialised_corruption_never_panics_and_never_false_decodes(
        m in sparse_matrix(24),
        cut_tenths in 0u8..=9,
        flip_tenths in 0u8..=9,
    ) {
        // Truncation at an arbitrary point and a bit flip at an arbitrary
        // point must both surface as clean errors (or, for the flip, a
        // decode that still structurally validates) — never a panic.
        let enc = TwoLevelBitmapMatrix::encode(&m, 16, 16, VectorLayout::RowMajor);
        let bytes = enc.to_bytes();
        let cut = bytes.len() * usize::from(cut_tenths) / 10;
        prop_assert!(TwoLevelBitmapMatrix::from_bytes(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        let at = bytes.len() * usize::from(flip_tenths) / 10;
        let at = at.min(bytes.len() - 1);
        flipped[at] ^= 0x10;
        // Any outcome but a panic is acceptable only if it is an error —
        // the checksum (or a structural check) must catch the flip.
        prop_assert!(TwoLevelBitmapMatrix::from_bytes(&flipped).is_err(),
            "a corrupted artifact decoded successfully (flip at byte {})", at);
    }
}
