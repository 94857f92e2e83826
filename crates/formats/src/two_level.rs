//! The hierarchical two-level bitmap encoding (paper Fig. 9).
//!
//! The matrix is partitioned into warp tiles (`TM x TK` for the A operand,
//! `TK x TN` for B). The **warp-bitmap** holds one bit per tile — a `0`
//! means the whole tile is empty so the corresponding warp-level SpGEMM step
//! can be skipped outright. Each non-empty tile stores its own
//! **element-bitmap** plus condensed values, so every non-zero of a partial
//! matrix produced from that tile lands inside the Tensor Core's local
//! accumulation buffer rather than scattering across global memory
//! (Fig. 8b).
//!
//! The tiles lie band-major in four flat arrays, whatever the tile count.
//! A **band** is one vector-length strip of tiles: a tile row when the
//! condensed vectors are columns ([`VectorLayout::ColumnMajor`]), a tile
//! column when they are rows ([`VectorLayout::RowMajor`]). A band's
//! **steps** are its condensed vectors in order through all its tiles,
//! padded to whole tiles; each is one `u64` word (bit `i` set when position
//! `i` of the vector is kept) and one `u32` start, counted from the band's
//! base in the one value array. A tile is empty when its first and last
//! starts are equal, so the warp bitmap is read off the starts. The values
//! are FP16 ([`f16`](struct@f16)), what the paper's Tensor Core takes: the encoder
//! rounds every kept value to a half and stores its bits, two bytes a
//! value, which widen exactly to the rounded `f32`. The kernel's activation
//! operand has the same layout, and the kernel reads either through a
//! [`BandView`].

use dsstc_tensor::{f16, Matrix};

use crate::bit_matrix::{mask_word, BitMatrix};
use crate::bitmap::VectorLayout;
use crate::StorageFootprint;

/// A sparse matrix in two-level (warp-bitmap + element-bitmap) encoding.
///
/// # Example
/// ```
/// use dsstc_tensor::{Matrix, SparsityPattern};
/// use dsstc_formats::{TwoLevelBitmapMatrix, VectorLayout};
///
/// let dense = Matrix::random_sparse(64, 64, 0.95, SparsityPattern::BlockUneven, 3);
/// let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
/// // The values are stored as halves.
/// assert_eq!(enc.decode(), dense.to_f16_precision());
/// // With block-uneven sparsity some warp tiles are usually empty.
/// assert!(enc.empty_tiles() <= enc.tile_count());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TwoLevelBitmapMatrix {
    rows: usize,
    cols: usize,
    tile_rows: usize,
    tile_cols: usize,
    layout: VectorLayout,
    /// Step `s` of band `b` at `b * steps + s`. The steps that pad the last
    /// tile, and the bits past the matrix in a ragged last band, are zero.
    words: Vec<u64>,
    /// `steps + 1` per band: step `s`'s values are `starts[s]..starts[s + 1]`
    /// of the band's segment.
    starts: Vec<u32>,
    /// Band `b`'s segment starts at `bases[b]`.
    bases: Vec<usize>,
    /// Every kept value, band by band and step by step.
    values: Vec<f16>,
}

/// How a matrix lies in bands: its layout, its dense length across the
/// bands (the vectors' axis) and along them (the steps' axis), a vector's
/// bits and a tile's steps.
#[derive(Clone, Copy)]
struct Geometry {
    layout: VectorLayout,
    across: usize,
    along: usize,
    height: usize,
    depth: usize,
}

impl Geometry {
    /// The bands of a `rows x cols` matrix in `tile_rows x tile_cols` tiles.
    /// Fails unless every dimension is non-zero, a vector fits one word and
    /// the arrays' lengths and a band's `u32` starts do not overflow.
    fn of(
        (rows, cols): (usize, usize),
        (tile_rows, tile_cols): (usize, usize),
        layout: VectorLayout,
    ) -> Result<Self, &'static str> {
        if rows == 0 || cols == 0 {
            return Err("matrix dimensions must be non-zero");
        }
        if tile_rows == 0 || tile_cols == 0 {
            return Err("tile dimensions must be non-zero");
        }
        let ((across, height), (along, depth)) = match layout {
            VectorLayout::ColumnMajor => ((rows, tile_rows), (cols, tile_cols)),
            VectorLayout::RowMajor => ((cols, tile_cols), (rows, tile_rows)),
        };
        let g = Geometry { layout, across, along, height, depth };
        if g.height > 64 {
            return Err("a condensed vector is longer than one 64-bit word");
        }
        g.fits().map(|_| g).ok_or("a band holds more values than its u32 starts count")
    }

    /// `Some` when a band's values count in `u32` starts and every array's
    /// length fits a `usize`.
    fn fits(self) -> Option<usize> {
        let steps = self.along.div_ceil(self.depth).checked_mul(self.depth)?;
        let band = steps.checked_add(1)?.checked_mul(self.height)?;
        u32::try_from(band).ok()?;
        band.checked_mul(self.bands())
    }

    fn bands(self) -> usize {
        self.across.div_ceil(self.height)
    }

    fn steps(self) -> usize {
        self.along.div_ceil(self.depth) * self.depth
    }

    /// Derives the starts and bases of `words` (steps laid out as this
    /// geometry's) and counts the values they keep. Fails if a word has a
    /// bit past the matrix: past a ragged last band, or in a padding step.
    fn index(self, words: &[u64]) -> Result<(Vec<u32>, Vec<usize>, usize), &'static str> {
        let (bands, steps) = (self.bands(), self.steps());
        if words.len() != bands * steps {
            return Err("step word count does not match the tile grid");
        }
        let (mut starts, mut bases) = (Vec::with_capacity(bands * (steps + 1)), vec![0; bands]);
        let (mut total, mut stray) = (0, 0);
        for (b, band) in words.chunks_exact(steps).enumerate() {
            let live = u64::MAX >> (64 - self.height.min(self.across - b * self.height));
            let (inside, padding) = band.split_at(self.along);
            let mut kept = 0;
            starts.push(0);
            for &word in inside {
                stray |= word & !live;
                kept += word.count_ones();
                starts.push(kept);
            }
            for &word in padding {
                stray |= word;
                starts.push(kept);
            }
            bases[b] = total;
            total += kept as usize;
        }
        if stray != 0 {
            return Err("a step word has bits past the matrix bound");
        }
        Ok((starts, bases, total))
    }

    /// Calls `f(row, col)` for every set bit of `words` (steps laid out as
    /// this geometry's), in the order of the values.
    fn for_each_kept(self, words: &[u64], mut f: impl FnMut(usize, usize)) {
        for (b, band) in words.chunks_exact(self.steps()).enumerate() {
            for (s, &word) in band.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let at = b * self.height + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    match self.layout {
                        VectorLayout::ColumnMajor => f(at, s),
                        VectorLayout::RowMajor => f(s, at),
                    }
                }
            }
        }
    }
}

impl TwoLevelBitmapMatrix {
    /// Encodes a dense matrix using `tile_rows x tile_cols` warp tiles, each
    /// value rounded to FP16 storage as it is encoded: a value is kept when
    /// its half is non-zero
    /// ([`f16::survives`](dsstc_tensor::f16::survives), NaN included) and
    /// stored as that half ([`f16::from_f32`](dsstc_tensor::f16::from_f32)),
    /// so the encoding decodes to `dense.to_f16_precision()`. The kernel encodes activations in a
    /// format of its own, which is held bit-identical to this one's
    /// column-major encoding.
    ///
    /// Two passes: the first walks the dense rows in order and sets every
    /// step's word, the second reads each kept value off its word, in
    /// order, in the four arrays' allocations whatever the tile count.
    ///
    /// # Panics
    /// Panics if a dimension of the matrix or the tiles is zero, or a
    /// condensed vector (a tile column for `ColumnMajor`, a tile row for
    /// `RowMajor`) is longer than 64.
    pub fn encode(
        dense: &Matrix,
        tile_rows: usize,
        tile_cols: usize,
        layout: VectorLayout,
    ) -> Self {
        let (rows, cols, tile) = (dense.rows(), dense.cols(), (tile_rows, tile_cols));
        let g = Geometry::of((rows, cols), tile, layout).unwrap_or_else(|why| panic!("{why}"));
        let (steps, height) = (g.steps(), g.height);
        let mut words = vec![0u64; g.bands() * steps];
        for r in 0..rows {
            match layout {
                VectorLayout::RowMajor => {
                    for (b, chunk) in dense.row(r).chunks(height).enumerate() {
                        words[b * steps + r] = mask_word(chunk, f16::survives);
                    }
                }
                VectorLayout::ColumnMajor => {
                    let band = &mut words[r / height * steps..][..cols];
                    for (word, &x) in band.iter_mut().zip(dense.row(r)) {
                        *word |= u64::from(f16::survives(x)) << (r % height);
                    }
                }
            }
        }
        let mut values = Vec::with_capacity(words.iter().map(|w| w.count_ones() as usize).sum());
        g.for_each_kept(&words, |r, c| values.push(f16::from_f32(dense[(r, c)])));
        Self::from_parts((rows, cols), tile, layout, words, values)
            .expect("the encoder's invariants")
    }

    /// Rebuilds an encoding from its step words and values (the
    /// serialiser's constructor). The starts and band bases are recomputed
    /// from the words; fails on any inconsistency between the shape, the
    /// words and the values, and on a NaN the encoder does not write.
    pub(crate) fn from_parts(
        (rows, cols): (usize, usize),
        (tile_rows, tile_cols): (usize, usize),
        layout: VectorLayout,
        words: Vec<u64>,
        values: Vec<f16>,
    ) -> Result<Self, &'static str> {
        let g = Geometry::of((rows, cols), (tile_rows, tile_cols), layout)?;
        let (starts, bases, nnz) = g.index(&words)?;
        if nnz != values.len() {
            return Err("condensed value count does not match the words' population");
        }
        // The encoder writes one NaN, `f16::from_f32`'s quiet `±0x7E00`.
        // `f16::to_f32` keeps any other payload, a signalling NaN
        // signalling, where a vector widen quiets it: refusing the rest is
        // what makes every vector level widen an accepted operand to the
        // same bits. A fold, not `any`, so that it vectorises.
        let odd_nan = values
            .iter()
            .fold(false, |odd, v| odd | (v.is_nan() & (v.to_bits() & 0x7FFF != 0x7E00)));
        if odd_nan {
            return Err("a NaN value other than the encoder's quiet NaN");
        }
        Ok(TwoLevelBitmapMatrix {
            rows,
            cols,
            tile_rows,
            tile_cols,
            layout,
            words,
            starts,
            bases,
            values,
        })
    }

    fn geometry(&self) -> Geometry {
        let tile = (self.tile_rows, self.tile_cols);
        Geometry::of((self.rows, self.cols), tile, self.layout).expect("valid at construction")
    }

    /// Logical (dense) row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical (dense) column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Warp-tile height.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Warp-tile width.
    pub fn tile_cols(&self) -> usize {
        self.tile_cols
    }

    /// The condensed-vector layout of the per-tile encodings.
    pub fn layout(&self) -> VectorLayout {
        self.layout
    }

    /// Number of tile rows in the warp-bitmap grid.
    pub fn grid_rows(&self) -> usize {
        self.rows.div_ceil(self.tile_rows)
    }

    /// Number of tile columns in the warp-bitmap grid.
    pub fn grid_cols(&self) -> usize {
        self.cols.div_ceil(self.tile_cols)
    }

    /// Total number of warp tiles.
    pub fn tile_count(&self) -> usize {
        self.grid_rows() * self.grid_cols()
    }

    /// Number of warp tiles with no non-zeros (skippable as a whole).
    pub fn empty_tiles(&self) -> usize {
        self.tile_count() - self.warp_bitmap().count_ones()
    }

    /// The warp-level bitmap (one bit per tile), read off the tiles' starts.
    pub fn warp_bitmap(&self) -> BitMatrix {
        let mut bitmap = BitMatrix::new(self.grid_rows(), self.grid_cols());
        let bands = self.bands();
        for (b, t) in (0..bands.count()).flat_map(|b| (0..bands.tiles()).map(move |t| (b, t))) {
            let (tr, tc) = match self.layout {
                VectorLayout::ColumnMajor => (b, t),
                VectorLayout::RowMajor => (t, b),
            };
            bitmap.set(tr, tc, bands.tile(b, t).is_some());
        }
        bitmap
    }

    /// The bands, as the kernel reads them.
    #[inline]
    pub fn bands(&self) -> BandView<'_> {
        let g = self.geometry();
        let shape = ((g.across, g.height), (g.steps(), g.depth));
        BandView::new(shape.0, shape.1, &self.words, &self.starts, &self.bases, &self.values)
    }

    /// Tile `(tile_row, tile_col)`, or `None` if it is empty.
    ///
    /// # Panics
    /// Panics if the tile coordinates are outside the grid.
    pub fn tile(&self, tile_row: usize, tile_col: usize) -> Option<TileView<'_>> {
        assert!(
            tile_row < self.grid_rows() && tile_col < self.grid_cols(),
            "tile index out of bounds"
        );
        match self.layout {
            VectorLayout::ColumnMajor => self.bands().tile(tile_row, tile_col),
            VectorLayout::RowMajor => self.bands().tile(tile_col, tile_row),
        }
    }

    /// Total number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of zero elements.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Reconstructs the dense matrix.
    pub fn decode(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        let mut values = self.values.iter();
        self.geometry().for_each_kept(&self.words, |r, c| {
            m[(r, c)] = values.next().expect("one value per set bit").to_f32();
        });
        m
    }

    /// Every step word, band by band, and every kept value, in order — what
    /// the binary serialiser writes.
    pub(crate) fn arrays(&self) -> (&[u64], &[f16]) {
        (&self.words, &self.values)
    }

    /// Storage footprint: per non-empty tile its values (the halves held)
    /// and element bitmap (a word per tile row per 64 columns), plus the
    /// warp-bitmap (1 bit per tile, padded to words).
    pub fn storage(&self) -> StorageFootprint {
        let live = (self.tile_count() - self.empty_tiles()) as u64;
        let tile_bitmap = (self.tile_rows * self.tile_cols.div_ceil(64) * 8) as u64;
        StorageFootprint {
            value_bytes: std::mem::size_of_val(self.values.as_slice()) as u64,
            metadata_bytes: self.warp_bitmap().storage_bytes() + live * tile_bitmap,
        }
    }
}

/// A borrowed band-major operand: per band and step one word and one start,
/// and the values the starts point into (the module docs' layout). The
/// weights lend one ([`TwoLevelBitmapMatrix::bands`]), and so does the
/// kernel's activation operand, so one loop reads either where it lies.
#[derive(Clone, Copy, Debug)]
pub struct BandView<'a> {
    /// Dense positions across the bands, and a band's (a vector's) bits.
    across: usize,
    height: usize,
    /// Steps per band, and per tile.
    steps: usize,
    depth: usize,
    words: &'a [u64],
    starts: &'a [u32],
    bases: &'a [usize],
    values: &'a [f16],
}

impl<'a> BandView<'a> {
    /// The view of `across` dense positions in bands of `height` bits, each
    /// band `steps` steps in tiles of `depth`: step `s` of band `b` is
    /// `words[b * steps + s]`, its values
    /// `values[bases[b] + starts[b * (steps + 1) + s]..]` up to the next
    /// start. The arrays may be longer than that (a reused buffer).
    ///
    /// # Panics
    /// Panics if `height` is not `1..=64`, `depth` does not divide `steps`,
    /// or an array is shorter than the shape needs.
    #[inline]
    pub fn new(
        (across, height): (usize, usize),
        (steps, depth): (usize, usize),
        words: &'a [u64],
        starts: &'a [u32],
        bases: &'a [usize],
        values: &'a [f16],
    ) -> Self {
        assert!((1..=64).contains(&height) && depth > 0 && steps % depth == 0, "a band's shape");
        let bands = across.div_ceil(height);
        BandView {
            across,
            height,
            steps,
            depth,
            words: &words[..bands * steps],
            starts: &starts[..bands * (steps + 1)],
            bases: &bases[..bands],
            values,
        }
    }

    /// Bands (`across / height`, rounded up).
    #[inline(always)]
    pub fn count(&self) -> usize {
        self.bases.len()
    }

    /// Live positions of band `b`: `height`, fewer in a ragged last band.
    #[inline(always)]
    pub fn band_rows(&self, b: usize) -> usize {
        self.height.min(self.across - b * self.height)
    }

    /// Tiles per band (`steps / depth`).
    #[inline(always)]
    pub fn tiles(&self) -> usize {
        self.steps / self.depth
    }

    /// `(height, depth)`: a vector's bits and a tile's steps.
    #[inline(always)]
    pub fn tile_shape(&self) -> (usize, usize) {
        (self.height, self.depth)
    }

    /// The word of every step of band `b`; an empty tile's are all zero.
    #[inline(always)]
    pub fn words(&self, b: usize) -> &'a [u64] {
        &self.words[b * self.steps..][..self.steps]
    }

    /// Every kept value of band `b`, step by step: its tiles' steps index
    /// into it ([`TileView::step_range`]).
    #[inline(always)]
    pub fn band_values(&self, b: usize) -> &'a [f16] {
        let end = self.starts[b * (self.steps + 1) + self.steps] as usize;
        &self.values[self.bases[b]..][..end]
    }

    /// Tile `t` of band `b`, or `None` if it is empty.
    #[inline(always)]
    pub fn tile(&self, b: usize, t: usize) -> Option<TileView<'a>> {
        let starts = &self.starts[b * (self.steps + 1) + t * self.depth..][..self.depth + 1];
        (starts[0] != starts[self.depth]).then(|| TileView {
            height: self.height,
            words: &self.words(b)[t * self.depth..][..self.depth],
            starts,
            values: &self.values[self.bases[b]..],
        })
    }
}

/// One non-empty tile of a [`BandView`]: its steps' words and starts, and
/// the band's values they point into.
#[derive(Clone, Copy, Debug)]
pub struct TileView<'a> {
    height: usize,
    words: &'a [u64],
    starts: &'a [u32],
    values: &'a [f16],
}

impl<'a> TileView<'a> {
    /// A vector's bits: the tile's rows for column vectors, its columns for
    /// row vectors.
    pub fn height(self) -> usize {
        self.height
    }

    /// The word of every step (condensed vector) of the tile.
    #[inline(always)]
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// The kept values of step `k`, one per set bit of its word, ascending,
    /// as stored: halves.
    #[inline(always)]
    pub fn step_values(self, k: usize) -> &'a [f16] {
        &self.values[self.step_range(k)]
    }

    /// Where step `k`'s values lie in its band's
    /// ([`BandView::band_values`]).
    #[inline(always)]
    pub fn step_range(self, k: usize) -> std::ops::Range<usize> {
        self.starts[k] as usize..self.starts[k + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::BitmapMatrix;
    use dsstc_tensor::SparsityPattern;

    /// A random operand its encoding holds exactly: every value a half.
    fn halves(
        rows: usize,
        cols: usize,
        sparsity: f64,
        pattern: SparsityPattern,
        seed: u64,
    ) -> Matrix {
        Matrix::random_sparse(rows, cols, sparsity, pattern, seed).to_f16_precision()
    }

    #[test]
    fn encode_decode_roundtrip_exact_tiles() {
        let dense = halves(64, 96, 0.7, SparsityPattern::Uniform, 21);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
        assert_eq!(enc.grid_rows(), 2);
        assert_eq!(enc.grid_cols(), 3);
        assert_eq!(enc.decode(), dense);
        assert_eq!(enc.nnz(), dense.nnz());
    }

    #[test]
    fn encode_decode_roundtrip_ragged_tiles() {
        // 50x70 with 32x32 tiles: ragged right and bottom edges.
        let dense = halves(50, 70, 0.8, SparsityPattern::Uniform, 22);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::RowMajor);
        assert_eq!(enc.grid_rows(), 2);
        assert_eq!(enc.grid_cols(), 3);
        assert_eq!(enc.decode(), dense);
    }

    #[test]
    fn empty_tiles_are_skipped_in_storage() {
        // Only the top-left 16x16 corner is non-zero.
        let mut dense = Matrix::zeros(64, 64);
        for r in 0..16 {
            for c in 0..16 {
                dense[(r, c)] = 1.0;
            }
        }
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
        assert_eq!(enc.tile_count(), 4);
        assert_eq!(enc.empty_tiles(), 3);
        assert!(enc.warp_bitmap().get(0, 0));
        assert!(!enc.warp_bitmap().get(1, 1));
        assert!(enc.tile(1, 1).is_none());
        assert!(enc.tile(0, 0).is_some());
        // Storage only pays element bitmaps for the single non-empty tile.
        let one_tile_bitmap_bytes = 32 * 8; // 32 rows x 1 word
        assert_eq!(
            enc.storage().metadata_bytes,
            enc.warp_bitmap().storage_bytes() + one_tile_bitmap_bytes
        );
    }

    #[test]
    fn all_zero_matrix_has_all_empty_tiles() {
        let dense = Matrix::zeros(64, 64);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
        assert_eq!(enc.empty_tiles(), 4);
        assert_eq!(enc.nnz(), 0);
        assert_eq!(enc.decode(), dense);
        assert!((enc.sparsity() - 1.0).abs() < 1e-12);
    }

    /// `tile`'s step words and values against `want`, the single-matrix
    /// encoding of the same tile (of halves), each half widened.
    fn assert_tile_is(tile: TileView<'_>, want: &BitmapMatrix, context: &str) {
        assert_eq!(tile.words().len(), want.vector_count(), "{context}");
        for (k, &word) in tile.words().iter().enumerate() {
            assert_eq!(word, want.vector_word(k), "{context}: word {k}");
            let (got, want) = (tile.step_values(k), want.vector_values(k));
            let same = got.len() == want.len()
                && got
                    .iter()
                    .map(|g| g.to_f32())
                    .zip(want)
                    .all(|(g, &w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()));
            assert!(same, "{context}: values {k}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn tile_encoding_matches_direct_tile_encode() {
        // Every tile of both layouts, the ragged edge tiles zero-padded, is
        // what the single-matrix encoder stores for that tile alone.
        let dense = halves(70, 50, 0.5, SparsityPattern::Uniform, 30);
        for layout in [VectorLayout::ColumnMajor, VectorLayout::RowMajor] {
            let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 16, layout);
            for (tr, tc) in (0..3).flat_map(|tr| (0..4).map(move |tc| (tr, tc))) {
                let direct = BitmapMatrix::encode(&dense.tile(32 * tr, 16 * tc, 32, 16), layout);
                let tile = enc.tile(tr, tc).expect("no tile is empty at 50 %");
                assert_tile_is(tile, &direct, &format!("tile ({tr},{tc}) {layout:?}"));
            }
        }
    }

    #[test]
    fn fused_f16_encode_matches_rounding_then_encoding() {
        // The encoder's rounding against rounding the matrix first: random
        // values at mixed magnitudes, plus every boundary the fused
        // threshold has to get right: exactly 2^-24 (smallest FP16
        // subnormal, kept), just below (flushed to zero, bit must clear),
        // 2^-25 (flushed), negatives of each, signed zeros, values past the
        // FP16 normal range (round to inf, kept), and NaN (kept).
        let tiny = 2.0f32.powi(-24);
        let mut dense = Matrix::random_sparse(40, 24, 0.6, SparsityPattern::Uniform, 77);
        let specials: &[f32] = &[
            tiny,
            -tiny,
            f32::from_bits(tiny.to_bits() - 1),
            2.0f32.powi(-25),
            -2.0f32.powi(-25),
            0.0,
            -0.0,
            1.0e-7,
            70000.0,
            -70000.0,
            f32::NAN,
            1.5,
        ];
        for (i, &x) in specials.iter().enumerate() {
            dense[(i, 3)] = x;
        }
        let rounded = dense.to_f16_precision();
        for layout in [VectorLayout::ColumnMajor, VectorLayout::RowMajor] {
            let fused = TwoLevelBitmapMatrix::encode(&dense, 16, 16, layout);
            let reference = TwoLevelBitmapMatrix::encode(&rounded, 16, 16, layout);
            // NaN breaks PartialEq on values; compare structure and bits.
            assert_eq!(fused.warp_bitmap(), reference.warp_bitmap(), "{layout:?}");
            for tr in 0..fused.grid_rows() {
                for tc in 0..fused.grid_cols() {
                    let context = format!("tile ({tr},{tc}) {layout:?}");
                    let want =
                        BitmapMatrix::encode(&rounded.tile(16 * tr, 16 * tc, 16, 16), layout);
                    match (fused.tile(tr, tc), reference.tile(tr, tc)) {
                        (None, None) => assert_eq!(want.nnz(), 0, "{context}"),
                        (Some(f), Some(r)) => {
                            assert_tile_is(f, &want, &context);
                            assert_tile_is(r, &want, &context);
                        }
                        _ => panic!("tile presence mismatch at {context}"),
                    }
                }
            }
        }
    }

    #[test]
    fn block_uneven_distribution_produces_skippable_tiles_at_high_sparsity() {
        let dense = halves(256, 256, 0.99, SparsityPattern::BlockUneven, 5);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 32, 32, VectorLayout::ColumnMajor);
        // Not a strict guarantee, but at 99% sparsity with uneven blocks some
        // whole 32x32 tiles should be empty with overwhelming probability.
        assert!(enc.empty_tiles() > 0, "expected some empty warp tiles");
        assert_eq!(enc.decode(), dense);
    }

    #[test]
    fn bands_are_the_tile_rows_or_the_tile_columns() {
        // 70 x 50 in 32 x 16 tiles: three tile rows (the last 6 rows high)
        // and four tile columns (the last 2 wide).
        let dense = Matrix::random_sparse(70, 50, 0.5, SparsityPattern::Uniform, 31);
        let column = TwoLevelBitmapMatrix::encode(&dense, 32, 16, VectorLayout::ColumnMajor);
        let bands = column.bands();
        assert_eq!((bands.count(), bands.tiles(), bands.tile_shape()), (3, 4, (32, 16)));
        assert_eq!((bands.band_rows(0), bands.band_rows(2), bands.words(2).len()), (32, 6, 64));
        let row = TwoLevelBitmapMatrix::encode(&dense, 32, 16, VectorLayout::RowMajor);
        let bands = row.bands();
        assert_eq!((bands.count(), bands.tiles(), bands.tile_shape()), (4, 3, (16, 32)));
        assert_eq!((bands.band_rows(0), bands.band_rows(3), bands.words(3).len()), (16, 2, 96));
        // Row 69 of tile column 3 holds columns 48 and 49; rows 70..96 pad.
        let want = (dense[(69, 48)] != 0.0) as u64 | ((dense[(69, 49)] != 0.0) as u64) << 1;
        assert_eq!(bands.words(3)[69], want);
        assert!(bands.words(3)[70..].iter().all(|&w| w == 0));
    }

    #[test]
    #[should_panic(expected = "tile dimensions")]
    fn zero_tile_size_panics() {
        let dense = Matrix::zeros(4, 4);
        let _ = TwoLevelBitmapMatrix::encode(&dense, 0, 32, VectorLayout::ColumnMajor);
    }

    #[test]
    #[should_panic(expected = "longer than one 64-bit word")]
    fn a_vector_past_one_word_is_refused() {
        let dense = Matrix::zeros(4, 65);
        let _ = TwoLevelBitmapMatrix::encode(&dense, 4, 65, VectorLayout::RowMajor);
    }

    #[test]
    #[should_panic(expected = "tile index out of bounds")]
    fn tile_out_of_bounds_panics() {
        let dense = Matrix::zeros(4, 4);
        let enc = TwoLevelBitmapMatrix::encode(&dense, 4, 4, VectorLayout::ColumnMajor);
        let _ = enc.tile(1, 0);
    }
}
