//! A packed 2-D bit matrix.
//!
//! This is the "bitmap" half of the paper's two-tuple encoding. Bits are
//! packed into 64-bit words per row so that the operations the hardware
//! performs on bitmaps — population counts (`POPC`), row shifts for the
//! sparse im2col (Fig. 11b), and 1-bit outer products (`BOHMMA`) — map to a
//! handful of word operations.

use dsstc_tensor::Matrix;

/// A dense `rows x cols` matrix of bits, packed row-major into `u64` words.
///
/// # Example
/// ```
/// use dsstc_formats::BitMatrix;
/// let mut b = BitMatrix::new(4, 70);
/// b.set(3, 69, true);
/// assert!(b.get(3, 69));
/// assert_eq!(b.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let bits: String =
                (0..self.cols.min(64)).map(|c| if self.get(r, c) { '1' } else { '0' }).collect();
            writeln!(f, "  {bits}{}", if self.cols > 64 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// The mask of `values` (at most 64 of them) under `keep`: bit `i` set when
/// `keep(values[i])`. The encoders' mask generation, a word at a time —
/// no per-bit indexing.
#[inline(always)]
pub(crate) fn mask_word(values: &[f32], keep: impl Fn(f32) -> bool) -> u64 {
    debug_assert!(values.len() <= 64);
    let mut word = 0u64;
    for (i, &x) in values.iter().enumerate() {
        word |= u64::from(keep(x)) << i;
    }
    word
}

impl BitMatrix {
    /// Creates an all-zero bit matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "bit matrix dimensions must be non-zero");
        let words_per_row = cols.div_ceil(64);
        BitMatrix { rows, cols, words_per_row, words: vec![0; rows * words_per_row] }
    }

    /// Builds the non-zero mask of a dense matrix, packing each row's bits
    /// a word at a time (the software analogue of the encoder's word-wide
    /// mask generation — no per-bit indexing).
    pub fn from_matrix(m: &Matrix) -> Self {
        let mut b = BitMatrix::new(m.rows(), m.cols());
        for r in 0..m.rows() {
            b.fill_row_mask(r, m.row(r));
        }
        b
    }

    /// Packs the non-zero mask of `values` into row `row` starting at bit 0,
    /// a word at a time; bits past `values.len()` stay clear.
    fn fill_row_mask(&mut self, row: usize, values: &[f32]) {
        debug_assert!(row < self.rows && values.len() <= self.cols);
        let words = &mut self.words[row * self.words_per_row..(row + 1) * self.words_per_row];
        for (word, chunk) in words.iter_mut().zip(values.chunks(64)) {
            *word = mask_word(chunk, |x| x != 0.0);
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads bit `(row, col)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "bit index out of bounds");
        let word = self.words[row * self.words_per_row + col / 64];
        (word >> (col % 64)) & 1 == 1
    }

    /// Writes bit `(row, col)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows && col < self.cols, "bit index out of bounds");
        let idx = row * self.words_per_row + col / 64;
        let mask = 1u64 << (col % 64);
        if value {
            self.words[idx] |= mask;
        } else {
            self.words[idx] &= !mask;
        }
    }

    /// Total number of set bits (a matrix-wide `POPC`).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits in one row.
    ///
    /// # Panics
    /// Panics if `row >= rows()`.
    pub fn row_count_ones(&self, row: usize) -> usize {
        assert!(row < self.rows, "row out of bounds");
        self.row_words(row).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits in one column.
    ///
    /// # Panics
    /// Panics if `col >= cols()`.
    pub fn col_count_ones(&self, col: usize) -> usize {
        assert!(col < self.cols, "column out of bounds");
        (0..self.rows).filter(|&r| self.get(r, col)).count()
    }

    /// The packed words of one row.
    ///
    /// # Panics
    /// Panics if `row >= rows()`.
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        assert!(row < self.rows, "row out of bounds");
        &self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// The whole of row `row` packed into a single word (bit `c` is
    /// `get(row, c)`), for matrices at most 64 columns wide — the
    /// word-parallel accessor the functional SpGEMM hot path uses so a row's
    /// bitmap participates in AND/`count_ones` operations without per-bit
    /// indexing.
    ///
    /// # Panics
    /// Panics if `row >= rows()` or `cols() > 64`.
    #[inline]
    pub fn row_word(&self, row: usize) -> u64 {
        assert!(row < self.rows, "row out of bounds");
        assert!(self.cols <= 64, "row_word requires at most 64 columns");
        self.words[row * self.words_per_row]
    }

    /// Column `col` gathered into a single packed word (bit `r` is
    /// `get(r, col)`), for matrices at most 64 rows tall. Bits are packed
    /// row-major, so this gathers one bit per row; callers that need it
    /// repeatedly (the SpGEMM tile preparation) hoist it out of their inner
    /// loops.
    ///
    /// # Panics
    /// Panics if `col >= cols()` or `rows() > 64`.
    #[inline]
    pub fn col_word(&self, col: usize) -> u64 {
        assert!(col < self.cols, "column out of bounds");
        assert!(self.rows <= 64, "col_word requires at most 64 rows");
        let (word_idx, shift) = (col / 64, col % 64);
        let mut out = 0u64;
        for r in 0..self.rows {
            out |= ((self.words[r * self.words_per_row + word_idx] >> shift) & 1) << r;
        }
        out
    }

    /// Number of set bits in row `row` strictly before column `col` — the
    /// prefix popcount used to turn a bit position into a condensed value
    /// offset (paper Fig. 11b, step S3).
    ///
    /// # Panics
    /// Panics if `row >= rows()` or `col > cols()`.
    pub fn rank(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col <= self.cols, "rank index out of bounds");
        let words = self.row_words(row);
        let full_words = col / 64;
        let mut count: usize = words[..full_words].iter().map(|w| w.count_ones() as usize).sum();
        let rem = col % 64;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            count += (words[full_words] & mask).count_ones() as usize;
        }
        count
    }

    /// Column indices of the set bits of one row, ascending.
    pub fn row_set_bits(&self, row: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.row_count_ones(row));
        for (wi, &word) in self.row_words(row).iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                let col = wi * 64 + bit;
                if col < self.cols {
                    out.push(col);
                }
                w &= w - 1;
            }
        }
        out
    }

    /// Row indices of the set bits of one column, ascending.
    pub fn col_set_bits(&self, col: usize) -> Vec<usize> {
        (0..self.rows).filter(|&r| self.get(r, col)).collect()
    }

    /// 1-bit outer product of a column of `a_bits` with a row of `b_bits`:
    /// the resulting `rows x cols` bitmap has bit `(i, j)` set iff
    /// `a_col[i] && b_row[j]`. This is what the `BOHMMA` instruction computes
    /// for the multiply-bitmap step (paper Fig. 2c).
    pub fn outer_product(a_col: &[bool], b_row: &[bool]) -> BitMatrix {
        assert!(!a_col.is_empty() && !b_row.is_empty(), "operands must be non-empty");
        let mut out = BitMatrix::new(a_col.len(), b_row.len());
        for (i, &a) in a_col.iter().enumerate() {
            if !a {
                continue;
            }
            for (j, &b) in b_row.iter().enumerate() {
                if b {
                    out.set(i, j, true);
                }
            }
        }
        out
    }

    /// Bitwise OR with another bitmap of the same shape (accumulating the
    /// sparsity pattern of merged partial matrices).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn or_assign(&mut self, other: &BitMatrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Extracts a `tile_rows x tile_cols` sub-bitmap at `(row0, col0)`,
    /// padded with zeros past the edges.
    pub fn tile(&self, row0: usize, col0: usize, tile_rows: usize, tile_cols: usize) -> BitMatrix {
        let mut out = BitMatrix::new(tile_rows, tile_cols);
        for r in 0..tile_rows {
            for c in 0..tile_cols {
                let (rr, cc) = (row0 + r, col0 + c);
                if rr < self.rows && cc < self.cols && self.get(rr, cc) {
                    out.set(r, c, true);
                }
            }
        }
        out
    }

    /// Storage size of this bitmap in bytes (1 bit per element, rounded up to
    /// whole words per row), as charged by the memory-traffic model.
    pub fn storage_bytes(&self) -> u64 {
        (self.rows * self.words_per_row * 8) as u64
    }

    /// The packed words, row-major (`rows * cols.div_ceil(64)` of them) —
    /// exposed for the binary serialiser.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from its packed words (the serialiser's inverse of
    /// [`Self::words`]). Fails on a word-count mismatch or a set bit in the
    /// padding past `cols`.
    pub(crate) fn from_words(
        rows: usize,
        cols: usize,
        words: Vec<u64>,
    ) -> Result<Self, &'static str> {
        if rows == 0 || cols == 0 {
            return Err("bit matrix dimensions must be non-zero");
        }
        let words_per_row = cols.div_ceil(64);
        if words.len() != rows * words_per_row {
            return Err("bitmap word count does not match its dimensions");
        }
        let tail_bits = cols % 64;
        if tail_bits > 0 {
            let pad_mask = !((1u64 << tail_bits) - 1);
            for row in 0..rows {
                if words[(row + 1) * words_per_row - 1] & pad_mask != 0 {
                    return Err("bitmap has bits set past its column bound");
                }
            }
        }
        Ok(BitMatrix { rows, cols, words_per_row, words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_tensor::SparsityPattern;

    #[test]
    fn new_is_all_zero() {
        let b = BitMatrix::new(5, 100);
        assert_eq!(b.count_ones(), 0);
        assert!(b.is_empty());
        assert!(!b.get(4, 99));
    }

    #[test]
    fn set_get_across_word_boundaries() {
        let mut b = BitMatrix::new(2, 130);
        for &c in &[0usize, 63, 64, 127, 128, 129] {
            b.set(1, c, true);
            assert!(b.get(1, c), "column {c}");
        }
        assert_eq!(b.row_count_ones(1), 6);
        assert_eq!(b.row_count_ones(0), 0);
        b.set(1, 64, false);
        assert!(!b.get(1, 64));
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn from_matrix_matches_nnz() {
        let m = Matrix::random_sparse(33, 65, 0.7, SparsityPattern::Uniform, 5);
        let b = BitMatrix::from_matrix(&m);
        assert_eq!(b.count_ones(), m.nnz());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                assert_eq!(b.get(r, c), m[(r, c)] != 0.0);
            }
        }
    }

    #[test]
    fn row_and_col_words_pack_the_right_bits() {
        let m = Matrix::random_sparse(33, 61, 0.6, SparsityPattern::Uniform, 17);
        let b = BitMatrix::from_matrix(&m);
        for r in 0..b.rows() {
            let w = b.row_word(r);
            for c in 0..b.cols() {
                assert_eq!((w >> c) & 1 == 1, b.get(r, c), "row {r} col {c}");
            }
            assert_eq!(w.count_ones() as usize, b.row_count_ones(r));
        }
        for c in 0..b.cols() {
            let w = b.col_word(c);
            for r in 0..b.rows() {
                assert_eq!((w >> r) & 1 == 1, b.get(r, c), "row {r} col {c}");
            }
            assert_eq!(w.count_ones() as usize, b.col_count_ones(c));
        }
    }

    #[test]
    fn col_word_reaches_past_the_first_word() {
        // 70 columns: column 69 lives in the second packed word per row.
        let mut b = BitMatrix::new(3, 70);
        b.set(0, 69, true);
        b.set(2, 69, true);
        assert_eq!(b.col_word(69), 0b101);
        assert_eq!(b.col_word(68), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 columns")]
    fn row_word_rejects_wide_matrices() {
        let _ = BitMatrix::new(2, 65).row_word(0);
    }

    #[test]
    #[should_panic(expected = "at most 64 rows")]
    fn col_word_rejects_tall_matrices() {
        let _ = BitMatrix::new(65, 2).col_word(0);
    }

    #[test]
    fn rank_counts_prefix_ones() {
        let mut b = BitMatrix::new(1, 200);
        for c in [3usize, 64, 70, 150] {
            b.set(0, c, true);
        }
        assert_eq!(b.rank(0, 0), 0);
        assert_eq!(b.rank(0, 3), 0);
        assert_eq!(b.rank(0, 4), 1);
        assert_eq!(b.rank(0, 65), 2);
        assert_eq!(b.rank(0, 151), 4);
        assert_eq!(b.rank(0, 200), 4);
    }

    #[test]
    fn rank_is_consistent_with_row_set_bits() {
        let m = Matrix::random_sparse(4, 150, 0.5, SparsityPattern::Uniform, 9);
        let b = BitMatrix::from_matrix(&m);
        for r in 0..4 {
            let set = b.row_set_bits(r);
            for (i, &c) in set.iter().enumerate() {
                assert_eq!(b.rank(r, c), i, "row {r} col {c}");
            }
            assert_eq!(b.rank(r, 150), set.len());
        }
    }

    #[test]
    fn row_and_col_set_bits() {
        let mut b = BitMatrix::new(3, 3);
        b.set(0, 1, true);
        b.set(2, 1, true);
        b.set(2, 2, true);
        assert_eq!(b.row_set_bits(2), vec![1, 2]);
        assert_eq!(b.col_set_bits(1), vec![0, 2]);
        assert_eq!(b.col_count_ones(1), 2);
        assert_eq!(b.col_count_ones(0), 0);
    }

    #[test]
    fn outer_product_bitmap() {
        let a = [true, false, true];
        let b = [false, true];
        let p = BitMatrix::outer_product(&a, &b);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.cols(), 2);
        assert!(p.get(0, 1));
        assert!(p.get(2, 1));
        assert!(!p.get(1, 1));
        assert!(!p.get(0, 0));
        assert_eq!(p.count_ones(), 2);
    }

    #[test]
    fn or_assign_unions_patterns() {
        let mut a = BitMatrix::new(2, 2);
        a.set(0, 0, true);
        let mut b = BitMatrix::new(2, 2);
        b.set(1, 1, true);
        a.or_assign(&b);
        assert!(a.get(0, 0) && a.get(1, 1));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn tile_extraction_pads_with_zeros() {
        let mut b = BitMatrix::new(4, 4);
        b.set(3, 3, true);
        let t = b.tile(2, 2, 4, 4);
        assert!(t.get(1, 1));
        assert_eq!(t.count_ones(), 1);
    }

    #[test]
    fn storage_bytes_rounds_to_words() {
        let b = BitMatrix::new(4, 65);
        // 2 words per row * 4 rows * 8 bytes.
        assert_eq!(b.storage_bytes(), 64);
    }

    #[test]
    fn debug_format_is_nonempty() {
        let b = BitMatrix::new(2, 4);
        assert!(format!("{b:?}").contains("BitMatrix 2x4"));
    }
}
