//! Word-parallel functional execution of the two-level bitmap SpGEMM.
//!
//! This is the software analogue of what the paper's hardware does in one
//! cycle per step: the per-step A-column and B-row bitmaps live in single
//! `u64` words, the AND/empty test is one integer op, and the gather walks
//! set bits with `trailing_zeros` while consuming the condensed values
//! sequentially — no per-step `Vec` allocations and no per-bit bounds
//! checks, unlike the scalar reference ([`super::warp::warp_spgemm`],
//! retained for differential testing). What "bit-identical to the
//! reference" means, and why the shortcuts below keep it, is stated once, in
//! `docs/ARCHITECTURE.md` ("Bit-identity contract").
//!
//! One call runs three phases:
//!
//! * **B expansion** ([`expand_b`]): every condensed B row is decoded into
//!   one zero-padded dense row-major buffer (two allocations per call,
//!   whatever the tile count) — with the level's expand instruction where it
//!   has one, a bit-walk scatter elsewhere. A step's accumulation is then a
//!   contiguous `axpy`, while the step's packed word still short-circuits
//!   empty steps and empty tiles. The expansion is shared read-only across
//!   worker threads.
//! * **A column words** ([`col_words`]), per band: the step words of the
//!   band's A tiles, transposed out of the tiles' row words eight columns
//!   at a time.
//! * **Band loop** ([`run_bands`]): each output band (one `warp_m`-row
//!   strip) walks `jn` in blocks of tile columns with `kk` innermost, and
//!   one body ([`block_steps`]) runs every surviving step of a block: it
//!   holds the block's B rows in registers, decodes each A non-zero once and
//!   updates that row of a row-major block accumulator. The block width is
//!   the lane type's ([`BlockRow`]); remainders run one-tile blocks, and
//!   tilings that are not [`NATIVE_WN`] wide run one-tile blocks whose row
//!   stays in memory.
//!
//! All three are compiled once per vector level (baseline, AVX2, AVX-512;
//! [`super::simd`]) and the level is picked from CPUID once per call. Output
//! bands are distributed over scoped [`std::thread`]s; each thread owns a
//! disjoint row range of the output, so the result is deterministic and
//! bit-identical at any thread count.

use std::ops::Range;

use dsstc_formats::{BitMatrix, BitmapMatrix, TwoLevelBitmapMatrix};
use dsstc_tensor::Matrix;

use super::simd::{self, Lanes, Level};

/// Minimum number of warp tiles in the output grid before spawning threads
/// pays for itself (thread startup is ~10 µs; a tile step chain is ~1 µs).
const MIN_TILES_FOR_THREADS: usize = 64;

/// The device-native `warp_n` (V100 and A100 both): the only tile width
/// whose block rows are held in registers.
pub(super) const NATIVE_WN: usize = 32;

/// Values per cache line.
const LINE: usize = 64 / std::mem::size_of::<f32>();

/// A zeroed `f32` buffer whose first value sits on a cache-line boundary, so
/// that rows a whole number of lines long never straddle one: a 64-byte
/// vector load or store that does costs two, and an allocator promises 16
/// bytes (measured on the 64x256x256 layer at AVX-512: band loop 140 -> 82 µs).
struct CacheAligned {
    buf: Vec<f32>,
    start: usize,
    len: usize,
}

impl CacheAligned {
    fn zeros(len: usize) -> Self {
        let buf = vec![0.0f32; len + LINE - 1];
        // `align_offset` may decline (`usize::MAX`); alignment is only speed.
        let start = buf.as_ptr().align_offset(64).min(LINE - 1);
        CacheAligned { buf, start, len }
    }

    fn as_slice(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// The B operand decoded to a dense row-major matrix, zero-padded to whole
/// tiles, plus every step's packed bitmap.
pub(super) struct ExpandedB {
    /// `grid_k * warp_k` rows of `grid_n * warp_n` values: step `k` of tile
    /// row `kk` is row `kk * warp_k + k`, each tile's condensed values at
    /// their dense columns and zeros elsewhere, so the B rows of a block of
    /// adjacent tiles are one contiguous slice.
    rows: CacheAligned,
    /// One packed step bitmap per row and tile column (`grid_n` per row); a
    /// zero word short-circuits the step, and an empty tile is simply
    /// `warp_k` zero words.
    words: Vec<u64>,
    /// Tile columns of the B grid, and the width of one.
    grid_n: usize,
    wn: usize,
}

impl ExpandedB {
    /// Step row `row` (`kk * warp_k + k`) of the `tiles` tile columns from
    /// `jn` on: their packed bitmaps and their values, `tiles * warp_n` of
    /// them.
    #[inline(always)]
    fn block_row(&self, row: usize, jn: usize, tiles: usize) -> (&[u64], &[f32]) {
        let cell = row * self.grid_n + jn;
        let values = &self.rows.as_slice()[cell * self.wn..][..tiles * self.wn];
        (&self.words[cell..cell + tiles], values)
    }
}

/// What every band of one call shares: the operands, the output shape and
/// the warp tile `(warp_m, warp_n, warp_k)`.
pub(super) struct Gemm<'a> {
    a_enc: &'a TwoLevelBitmapMatrix,
    b: &'a ExpandedB,
    out_rows: usize,
    out_cols: usize,
    dims: (usize, usize, usize),
}

impl Gemm<'_> {
    /// `warp_n`.
    pub(super) fn tile_width(&self) -> usize {
        self.dims.1
    }
}

/// Decodes `b_enc` (row-major tiles at most 64 wide) with `L`'s
/// [`Lanes::expand_row`]. `inline(always)`, like everything below that is
/// generic over a lane type: the body has to land inside the
/// `#[target_feature]` callers of [`super::simd`] to be compiled at their
/// level.
#[inline(always)]
pub(super) fn expand_b<L: Lanes>(b_enc: &TwoLevelBitmapMatrix) -> ExpandedB {
    let (wk, wn) = (b_enc.tile_rows(), b_enc.tile_cols());
    let (grid_k, grid_n) = (b_enc.grid_rows(), b_enc.grid_cols());
    let mut rows = CacheAligned::zeros(grid_k * wk * grid_n * wn);
    let mut words = vec![0u64; grid_k * wk * grid_n];
    let values = rows.as_mut_slice();
    for kk in 0..grid_k {
        for jn in 0..grid_n {
            let Some(tile) = b_enc.tile(kk, jn) else { continue };
            for k in 0..wk {
                let cell = (kk * wk + k) * grid_n + jn;
                let word = tile.bitmap().row_word(k);
                words[cell] = word;
                L::expand_row(word, tile.vector_values(k), &mut values[cell * wn..][..wn]);
            }
        }
    }
    ExpandedB { rows, words, grid_n, wn }
}

/// Every column of `bits` (at most 64 rows) packed into one word each: bit
/// `r` of `out[c]` is `bits.get(r, c)`, what [`BitMatrix::col_word`] gathers
/// a bit at a time. Each row word is read once; eight columns at a time are
/// then built in one register block by shifting the rows in, last first — a
/// lane-parallel shift-mask-or with constant trip counts, compiled at the
/// caller's vector width.
#[inline(always)]
fn col_words(bits: &BitMatrix, out: &mut [u64]) {
    assert!(bits.rows() <= 64 && out.len() == bits.cols(), "one word per column");
    for (word, out) in out.chunks_mut(64).enumerate() {
        let mut rows = [0u64; 64];
        for (r, row) in rows.iter_mut().enumerate().take(bits.rows()) {
            *row = bits.row_words(r)[word];
        }
        for (j, chunk) in out.chunks_mut(8).enumerate() {
            let mut cols = [0u64; 8];
            for row in rows[..bits.rows()].iter().rev() {
                for (i, col) in cols.iter_mut().enumerate() {
                    *col = (*col << 1) | ((row >> (8 * j + i)) & 1);
                }
            }
            chunk.copy_from_slice(&cols[..chunk.len()]);
        }
    }
}

/// Refills `words` (`grid_k * warp_k` of them) with the packed column word
/// of every step of band `im`'s A tiles; an empty tile is all-zero words.
#[inline(always)]
fn prepare_a_band(a_enc: &TwoLevelBitmapMatrix, im: usize, wk: usize, words: &mut [u64]) {
    for (kk, tile_words) in words.chunks_exact_mut(wk).enumerate() {
        match a_enc.tile(im, kk) {
            Some(tile) => col_words(tile.bitmap(), tile_words),
            None => tile_words.fill(0),
        }
    }
}

/// The B rows of one block step — a block being adjacent tile columns that
/// share an accumulator — held while the step's A column streams past.
pub(super) trait BlockRow: Sized {
    /// Values per held row, or `0` to take one tile's width from the
    /// operand at run time.
    const WIDTH: usize;

    /// Values per held row when tiles are `wn` wide. A constant wherever
    /// [`Self::WIDTH`] is one, so the loops over a row unroll.
    #[inline(always)]
    fn width(wn: usize) -> usize {
        if Self::WIDTH == 0 {
            wn
        } else {
            Self::WIDTH
        }
    }

    /// Takes hold of `b_row`, [`Self::WIDTH`] (or one tile) wide.
    fn hold(b_row: &[f32]) -> Self;

    /// `acc_row[c] += av * b_row[c]` over the block, the product rounded
    /// before the add. `b_row` is what [`Self::hold`] was given.
    fn axpy(&self, av: f32, b_row: &[f32], acc_row: &mut [f32]);
}

/// `V` registers of `L`: loaded once per step, so each A non-zero costs one
/// decode, one broadcast and `V` multiply / load-add / store triples.
impl<L: Lanes, const V: usize> BlockRow for [L; V] {
    const WIDTH: usize = V * L::N;

    #[inline(always)]
    fn hold(b_row: &[f32]) -> Self {
        let mut held = [L::splat(0.0); V];
        for (reg, src) in held.iter_mut().zip(b_row.chunks_exact(L::N)) {
            *reg = L::load(src);
        }
        held
    }

    #[inline(always)]
    fn axpy(&self, av: f32, _b_row: &[f32], acc_row: &mut [f32]) {
        let av = L::splat(av);
        for (reg, dst) in self.iter().zip(acc_row.chunks_exact_mut(L::N)) {
            reg.mac(av, L::load(dst)).store(dst);
        }
    }
}

/// One tile of a width known only at run time: nothing is held, the `axpy`
/// is a runtime-trip-count loop over the row where it lies.
pub(super) struct InMemory;

impl BlockRow for InMemory {
    const WIDTH: usize = 0;

    #[inline(always)]
    fn hold(_b_row: &[f32]) -> Self {
        InMemory
    }

    #[inline(always)]
    fn axpy(&self, av: f32, b_row: &[f32], acc_row: &mut [f32]) {
        for (o, &bv) in acc_row.iter_mut().zip(b_row) {
            *o += av * bv;
        }
    }
}

/// One A tile (`a_tile`, its step words in `a_words`) against the block of B
/// tiles as wide as `R` that starts at tile `(kk, jn)`: for every step whose
/// A word and block of B words are both non-empty, hold the block's B rows,
/// walk the set A bits and `axpy` the rows into that row of `acc`
/// (row-major, as wide as `R`).
///
/// A B row that is empty inside a surviving block contributes `av * 0.0`,
/// which leaves every accumulator bit as it was; a non-finite `av` must not
/// meet those zeros and takes the masked path (see the bit-identity
/// contract the module docs point to).
#[inline(always)]
fn block_steps<R: BlockRow>(
    a_words: &[u64],
    a_tile: &BitmapMatrix,
    b: &ExpandedB,
    (kk, jn): (usize, usize),
    acc: &mut [f32],
) {
    let width = R::width(b.wn);
    let tiles = width / b.wn;
    for (k, &aw) in a_words.iter().enumerate() {
        if aw == 0 {
            continue; // whole-step skip: one word test, as in hardware
        }
        let (b_words, b_row) = b.block_row(kk * a_words.len() + k, jn, tiles);
        if b_words.iter().all(|&bw| bw == 0) {
            continue;
        }
        let held = R::hold(b_row);
        let mut bits = aw;
        for &av in a_tile.vector_values(k) {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let acc_row = &mut acc[r * width..(r + 1) * width];
            if av.is_finite() {
                held.axpy(av, b_row, acc_row);
                continue;
            }
            // `inf * 0.0` over the zero-filled columns would plant NaNs the
            // hardware never computes (it issues no MAC there); walk only
            // the set B bits, like the scalar reference.
            for (t, &bw) in b_words.iter().enumerate() {
                let mut b_bits = bw;
                while b_bits != 0 {
                    let c = t * b.wn + b_bits.trailing_zeros() as usize;
                    b_bits &= b_bits - 1;
                    acc_row[c] += av * b_row[c];
                }
            }
        }
    }
}

/// Executes `bands` into `out_chunk`, which must cover exactly the dense
/// rows `bands.start * warp_m ..` of the output. Tile columns are taken
/// `Wide` at a time while that many remain and `One` (a single tile) at a
/// time after that; when `Wide` is itself one tile the two are the same
/// type.
#[inline(always)]
pub(super) fn run_bands<Wide: BlockRow, One: BlockRow>(
    gemm: &Gemm<'_>,
    bands: Range<usize>,
    out_chunk: &mut [f32],
) {
    let &Gemm { a_enc, b, out_rows, out_cols, dims: (wm, wn, wk) } = gemm;
    let (grid_k, grid_n) = (a_enc.grid_cols(), b.grid_n);
    assert!(Wide::width(wn) % wn == 0 && One::width(wn) == wn, "blocks are whole tiles");
    let wide_tiles = Wide::width(wn) / wn;
    let chunk_row0 = bands.start * wm;
    let mut accs = CacheAligned::zeros(wm * Wide::width(wn));
    let mut a_words = vec![0u64; grid_k * wk];
    for im in bands {
        prepare_a_band(a_enc, im, wk, &mut a_words);
        let row0 = im * wm;
        let valid_r = wm.min(out_rows - row0);
        let mut jb = 0;
        while jb < grid_n {
            let wide = grid_n - jb >= wide_tiles;
            let (tiles, width) = if wide { (wide_tiles, Wide::width(wn)) } else { (1, wn) };
            let acc = &mut accs.as_mut_slice()[..wm * width];
            acc.fill(0.0);
            for kk in 0..grid_k {
                let Some(a_tile) = a_enc.tile(im, kk) else { continue };
                let a_words = &a_words[kk * wk..(kk + 1) * wk];
                if wide {
                    block_steps::<Wide>(a_words, a_tile, b, (kk, jb), acc);
                } else {
                    block_steps::<One>(a_words, a_tile, b, (kk, jb), acc);
                }
            }
            let col0 = jb * wn;
            let valid_c = width.min(out_cols - col0);
            for (r, acc_row) in acc.chunks_exact(width).take(valid_r).enumerate() {
                let dst_off = (row0 - chunk_row0 + r) * out_cols + col0;
                out_chunk[dst_off..dst_off + valid_c].copy_from_slice(&acc_row[..valid_c]);
            }
            jb += tiles;
        }
    }
}

/// Word-parallel `A * B` over two-level bitmap operands. `threads` is the
/// resolved worker count (>= 1); small grids stay single-threaded
/// regardless. `level` is the vector level every phase runs at; every level
/// gives the same bits. The caller has already validated layouts and
/// tilings and that `warp_m`/`warp_n` fit in a word.
pub(crate) fn execute(
    a_enc: &TwoLevelBitmapMatrix,
    b_enc: &TwoLevelBitmapMatrix,
    threads: usize,
    level: Level,
) -> Matrix {
    let (wm, wk) = (a_enc.tile_rows(), a_enc.tile_cols());
    let wn = b_enc.tile_cols();
    let (out_rows, out_cols) = (a_enc.rows(), b_enc.cols());
    let (grid_m, grid_n) = (a_enc.grid_rows(), b_enc.grid_cols());

    // Dense-expand B once per call; the serve path replays one pre-encoded
    // weight operand against many activation batches, and each expanded
    // row is reused `grid_m` times within a single call.
    let b = simd::expand_b(level, b_enc);

    let mut out = Matrix::zeros(out_rows, out_cols);
    let gemm = Gemm { a_enc, b: &b, out_rows, out_cols, dims: (wm, wn, wk) };
    let run = |bands: Range<usize>, out_chunk: &mut [f32]| {
        simd::run_bands(level, &gemm, bands, out_chunk)
    };
    let threads = if grid_m * grid_n < MIN_TILES_FOR_THREADS { 1 } else { threads.min(grid_m) };
    if threads <= 1 {
        run(0..grid_m, out.as_mut_slice());
        return out;
    }

    // Distribute bands contiguously; each thread gets a disjoint row range
    // of the output, so no synchronisation is needed and the result is
    // bit-identical at any thread count.
    let bands_per_thread = grid_m.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = out.as_mut_slice();
        let mut band_lo = 0;
        while band_lo < grid_m {
            let band_hi = (band_lo + bands_per_thread).min(grid_m);
            let chunk_rows = (band_hi * wm).min(out_rows) - band_lo * wm;
            let (chunk, tail) = rest.split_at_mut(chunk_rows * out_cols);
            rest = tail;
            let run = &run;
            scope.spawn(move || run(band_lo..band_hi, chunk));
            band_lo = band_hi;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_formats::VectorLayout;
    use dsstc_tensor::SparsityPattern;

    #[test]
    fn col_words_agree_with_col_word_for_every_shape_up_to_64x64() {
        // Every row count up to a full word, every column count up to one
        // row word (partial last chunks of eight included), plus widths whose
        // rows take two and three words.
        let wide = [(1, 65), (33, 70), (64, 130)];
        let shapes = (1..=64).flat_map(|r| (1..=64).map(move |c| (r, c))).chain(wide);
        for (rows, cols) in shapes {
            let seed = (rows * 131 + cols) as u64;
            let dense = Matrix::random_sparse(rows, cols, 0.5, SparsityPattern::Uniform, seed);
            let bits = BitMatrix::from_matrix(&dense);
            let mut words = vec![u64::MAX; cols]; // stale contents must not survive
            col_words(&bits, &mut words);
            for (c, &word) in words.iter().enumerate() {
                assert_eq!(word, bits.col_word(c), "{rows}x{cols}, column {c}");
            }
        }
    }

    #[test]
    fn expanded_b_is_the_padded_dense_operand_at_every_level() {
        // Rows 0..3 of every tile are an all-zero word, an all-one word and a
        // single bit at either end; the rest are random. Widths cover one
        // expand chunk, a partial one, the native two and the full four.
        for wn in [5, 16, 24, 32, 33, 64] {
            let (wk, k, n) = (8, 21, 3 * wn - 2);
            let mut dense = Matrix::random_sparse(k, n, 0.6, SparsityPattern::Uniform, wn as u64);
            for c in 0..n {
                dense[(0, c)] = 0.0;
                dense[(1, c)] = 1.0 + c as f32;
                dense[(2, c)] = if c % wn == 0 { 2.0 } else { 0.0 };
                dense[(3, c)] = if c % wn == wn - 1 { 3.0 } else { 0.0 };
            }
            let b_enc = TwoLevelBitmapMatrix::encode(&dense, wk, wn, VectorLayout::RowMajor);
            let (rows, ld) = (b_enc.grid_rows() * wk, b_enc.grid_cols() * wn);
            for level in Level::available() {
                let b = simd::expand_b(level, &b_enc);
                assert_eq!(b.rows.as_slice().len(), rows * ld);
                assert_eq!(b.words.len(), rows * b.grid_n);
                for r in 0..rows {
                    for c in 0..ld {
                        let want = if r < k && c < n { dense[(r, c)] } else { 0.0 };
                        let got = b.rows.as_slice()[r * ld + c];
                        assert_eq!(got.to_bits(), want.to_bits(), "wn {wn} {level:?} ({r},{c})");
                        let bit = b.words[r * b.grid_n + c / wn] >> (c % wn) & 1;
                        assert_eq!(bit == 1, want != 0.0, "wn {wn} {level:?} bit ({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn cache_aligned_buffers_start_on_a_line_and_have_the_asked_length() {
        for len in [0, 1, 15, 16, 1000] {
            let mut buf = CacheAligned::zeros(len);
            let start = buf.as_slice().as_ptr();
            assert_eq!(start as usize % 64, 0);
            assert_eq!(buf.as_slice().len(), len);
            assert_eq!(buf.as_mut_slice().len(), len);
            assert_eq!(buf.as_mut_slice().as_ptr(), start);
        }
    }
}
