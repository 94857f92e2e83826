//! The A operand: the one encoding of activations the band loop reads.
//!
//! An [`Arena`] holds a column-condensed operand the way
//! [`super::word::run_bands`] consumes it, in four buffers whatever the tile
//! count: per band (`warp_m` rows) and outer-product step one packed column
//! word and one `u32` start, the values rounded to FP16 storage precision,
//! and per band the base offset of its value segment. A step's starts count
//! from its band's base, so bands are independent, and any producer that can
//! hand [`Emitter`] row-major blocks of columns in ascending order can write
//! one — the output pass of a layer, and a dense matrix. A row-major B
//! operand is one already, transposed: [`Arena::transpose_b`] copies it in
//! tile by tile for a call that runs `D^T = B^T * A^T`.
//!
//! The emitter writes the bands in turn, each band's values where the
//! previous band's end, and records every base as it starts the band. Only
//! the room behind them differs: a fused forward's two workspace arenas hold
//! the dense bound, `warp_m * cols` per band, so any operand of their shape
//! fits uncounted; an [`EncodedA`], the owned operand
//! [`BitmapSpGemm::encode_a`] returns, counts its survivors first and holds
//! exactly those, plus one tile column of slack.
//!
//! A dense operand reaches the emitter through [`Emitter::encode`], which
//! [`super::simd`] compiles per vector level; a layer's output pass reaches
//! it as the band loop's sink, at the band loop's level.
//!
//! [`BitmapSpGemm::encode_a`]: super::BitmapSpGemm::encode_a

use dsstc_formats::TwoLevelBitmapMatrix;
use dsstc_tensor::{f16, Matrix};

use super::simd::{self, Lanes, Level};
use super::word::{grow, Sink};

/// The block the emitter transposes at a time: a native tile's rows by a
/// cache line of columns.
pub(super) const TILE_ROWS: usize = 32;
const TILE_COLS: usize = 16;

/// A column-condensed A operand in bands of `wm` rows and tiles of `wk`
/// steps. A workspace arena's buffers outlive one operand and one shape:
/// [`Arena::reset`] re-shapes them, growing only past what they have held,
/// and an emitter writes every cell a reader then reads. The default holds
/// nothing.
#[derive(Default)]
pub(super) struct Arena {
    /// The operand's rows, band height and tile depth, and the most columns
    /// it may have.
    rows: usize,
    wm: usize,
    wk: usize,
    max_cols: usize,
    /// Its dense columns, and steps per band (`cols` padded to whole tiles):
    /// the offsets below are in terms of them.
    cols: usize,
    steps: usize,
    /// Step `c` of band `im` at `im * steps + c`: bit `r` is set when dense
    /// element `(im * wm + r, c)` is kept. Steps past `cols` pad the last
    /// tile and are empty.
    words: Vec<u64>,
    /// `steps + 1` per band: step `c`'s values are `starts[c]..starts[c + 1]`
    /// of the band's segment. A tile is empty when its first and last starts
    /// are equal.
    starts: Vec<u32>,
    /// Band `im`'s segment starts at `bases[im]`.
    bases: Vec<usize>,
    values: Vec<f32>,
}

impl Arena {
    /// Takes the shape of operands of `rows` rows and up to `max_cols`
    /// columns in `wm x wk` tiles, and returns their band count.
    ///
    /// # Panics
    /// Panics if a band's rows do not fit one word or its values a `u32`.
    fn shape(&mut self, rows: usize, max_cols: usize, (wm, wk): (usize, usize)) -> usize {
        assert!((1..=64).contains(&wm) && wk > 0, "a band's rows are the bits of one word");
        assert!(u32::try_from(wm * max_cols).is_ok(), "a band's starts are u32");
        (self.rows, self.wm, self.wk, self.max_cols) = (rows, wm, wk, max_cols);
        (self.cols, self.steps) = (0, 0);
        rows.div_ceil(wm)
    }

    /// Makes this an arena for operands of `rows` rows and up to `max_cols`
    /// columns in `wm x wk` tiles, whatever it was before.
    ///
    /// # Panics
    /// As [`Arena::shape`].
    pub(super) fn reset(&mut self, rows: usize, max_cols: usize, tile: (usize, usize)) {
        let grid_m = self.shape(rows, max_cols, tile);
        let max_steps = max_cols.div_ceil(self.wk) * self.wk;
        grow(&mut self.words, grid_m * max_steps);
        grow(&mut self.starts, grid_m * (max_steps + 1));
        grow(&mut self.bases, grid_m);
        grow(&mut self.values, grid_m * self.wm * max_cols);
    }

    /// Makes this a `cols`-wide operand and returns the writer of its bands.
    /// With `relu`, what is emitted is `max(x, 0)`.
    ///
    /// # Panics
    /// Panics if `cols` is past what the arena was reset for.
    pub(super) fn emitter(&mut self, cols: usize, relu: bool) -> Emitter<'_> {
        assert!(cols <= self.max_cols, "the arena was reset for narrower operands");
        (self.cols, self.steps) = (cols, cols.div_ceil(self.wk) * self.wk);
        Emitter::new(self, relu)
    }

    /// Encodes `dense` (this arena's row count) at `level`.
    pub(super) fn encode(&mut self, dense: &Matrix, level: Level) {
        assert_eq!(dense.rows(), self.rows, "the arena was reset for another batch");
        simd::encode(level, &mut self.emitter(dense.cols(), false), dense);
    }

    /// Makes this `b_enc` (a row-major B operand) transposed, whatever it
    /// was before: band `jn` is B's tile column `jn` and step `k` B's row
    /// `k`, so a step's column word is B's row word and its values are B's
    /// condensed row, as B stores them — one copy per tile. The values take
    /// exactly `b_enc.nnz()` cells.
    pub(super) fn transpose_b(&mut self, b_enc: &TwoLevelBitmapMatrix) {
        let (wk, wn) = (b_enc.tile_rows(), b_enc.tile_cols());
        let grid_n = self.shape(b_enc.cols(), b_enc.rows(), (wn, wk));
        let steps = b_enc.grid_rows() * wk;
        (self.cols, self.steps) = (b_enc.rows(), steps);
        grow(&mut self.words, grid_n * steps);
        grow(&mut self.starts, grid_n * (steps + 1));
        grow(&mut self.bases, grid_n);
        grow(&mut self.values, b_enc.nnz());
        let mut base = 0;
        for jn in 0..grid_n {
            self.bases[jn] = base;
            let words = &mut self.words[jn * steps..][..steps];
            let starts = &mut self.starts[jn * (steps + 1)..][..steps + 1];
            let mut kept = 0;
            starts[0] = 0;
            for (kk, (words, starts)) in
                words.chunks_exact_mut(wk).zip(starts[1..].chunks_exact_mut(wk)).enumerate()
            {
                let Some(tile) = b_enc.tile(kk, jn) else {
                    words.fill(0);
                    starts.fill(kept);
                    continue;
                };
                let values = tile.values();
                self.values[base + kept as usize..][..values.len()].copy_from_slice(values);
                for (k, (word, start)) in words.iter_mut().zip(starts).enumerate() {
                    *word = tile.bitmap().row_word(k);
                    kept += word.count_ones();
                    *start = kept;
                }
            }
            base += kept as usize;
        }
    }

    /// Bands of the operand (`rows / wm`, rounded up).
    pub(super) fn grid_m(&self) -> usize {
        self.rows.div_ceil(self.wm)
    }

    /// Rows of band `im`: `warp_m`, fewer in a ragged last band.
    #[inline(always)]
    pub(super) fn band_rows(&self, im: usize) -> usize {
        self.wm.min(self.rows - im * self.wm)
    }

    /// Tile columns of the operand (`cols / wk`, rounded up).
    #[inline(always)]
    pub(super) fn grid_k(&self) -> usize {
        self.steps / self.wk
    }

    /// `(warp_m, warp_k)`.
    pub(super) fn tile_shape(&self) -> (usize, usize) {
        (self.wm, self.wk)
    }

    /// The column word of every step of band `im`, `grid_k * warp_k` of
    /// them; an empty tile is all-zero words.
    #[inline(always)]
    pub(super) fn band_words(&self, im: usize) -> &[u64] {
        &self.words[im * self.steps..][..self.steps]
    }

    /// Tile `(im, kk)`, or `None` if it is empty.
    #[inline(always)]
    pub(super) fn tile(&self, im: usize, kk: usize) -> Option<ArenaTile<'_>> {
        let starts = &self.starts[im * (self.steps + 1) + kk * self.wk..][..self.wk + 1];
        (starts[0] != starts[self.wk])
            .then(|| ArenaTile { starts, values: &self.values[self.bases[im]..] })
    }
}

/// One non-empty tile of an [`Arena`]: its `wk + 1` starts and the segment
/// they point into.
#[derive(Clone, Copy)]
pub(super) struct ArenaTile<'a> {
    starts: &'a [u32],
    values: &'a [f32],
}

impl<'a> ArenaTile<'a> {
    /// The condensed values of step `k`, one per set bit of its column word,
    /// ascending.
    #[inline(always)]
    pub(super) fn step_values(self, k: usize) -> &'a [f32] {
        &self.values[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

/// An encoded A (activation) operand, as
/// [`BitmapSpGemm::encode_a`](super::BitmapSpGemm::encode_a) builds it and
/// [`BitmapSpGemm::execute_encoded`](super::BitmapSpGemm::execute_encoded)
/// reads it: per `warp_m`-row band and outer-product step one packed column
/// word, the column-condensed non-zeros rounded to FP16 storage precision,
/// in a handful of buffers whatever the tile count. It owns its buffers and
/// shares none with the kernel, so it can be kept, executed any number of
/// times and sent to another thread.
///
/// It is an A operand and nothing else: a B encoding does not stand in for
/// one, even where the tiles are square.
///
/// ```compile_fail
/// # use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
/// # use dsstc_sim::GpuConfig;
/// # use dsstc_tensor::Matrix;
/// let kernel = BitmapSpGemm::for_device(GpuConfig::a100()); // 32 x 32 x 32
/// let b = kernel.encode_b(&Matrix::zeros(32, 32));
/// let _ = kernel.execute_encoded(&b, &b);
/// ```
pub struct EncodedA {
    arena: Arena,
}

impl EncodedA {
    /// `dense` in `(wm, wk)` tiles at `level`: what the workspace arena's
    /// emitter writes, into buffers sized for it. A first pass counts the
    /// survivors, so each buffer is allocated once at its final size and the
    /// emitter writes the values in place.
    pub(super) fn encode(dense: &Matrix, tile: (usize, usize), level: Level) -> EncodedA {
        let (rows, cols) = (dense.rows(), dense.cols());
        let mut a = Arena::default();
        let grid_m = a.shape(rows, cols, tile);
        (a.cols, a.steps) = (cols, cols.div_ceil(a.wk) * a.wk);
        let nnz = simd::survivors(level, dense.as_slice());
        a.words = vec![0; grid_m * a.steps];
        a.starts = vec![0; grid_m * (a.steps + 1)];
        a.bases = vec![0; grid_m];
        // Slack for what the tile compaction stores past the last kept value.
        a.values = vec![0.0; nnz + TILE_ROWS];
        simd::encode(level, &mut Emitter::new(&mut a, false), dense);
        a.values.truncate(nnz);
        debug_assert!(
            (a.bases.iter().zip(a.bases.iter().skip(1).chain([&nnz])))
                .zip(a.starts.chunks_exact(a.steps + 1))
                .all(|((&base, &end), starts)| base + starts[a.steps] as usize == end),
            "the count pass keeps what the emitter does"
        );
        EncodedA { arena: a }
    }

    /// Rows of the dense operand.
    pub fn rows(&self) -> usize {
        self.arena.rows
    }

    /// Columns of the dense operand.
    pub fn cols(&self) -> usize {
        self.arena.cols
    }

    /// Kept (non-zero after FP16 rounding) values.
    pub fn nnz(&self) -> usize {
        self.arena.values.len()
    }

    /// The dense operand it encodes, values as stored (FP16-rounded).
    pub fn decode(&self) -> Matrix {
        let a = &self.arena;
        let mut dense = Matrix::zeros(a.rows, a.cols);
        for im in 0..a.grid_m() {
            let words = a.band_words(im);
            for kk in 0..a.grid_k() {
                let Some(tile) = a.tile(im, kk) else { continue };
                for k in 0..a.wk {
                    let (c, mut bits) = (kk * a.wk + k, words[kk * a.wk + k]);
                    for &v in tile.step_values(k) {
                        dense[(im * a.wm + bits.trailing_zeros() as usize, c)] = v;
                        bits &= bits - 1;
                    }
                }
            }
        }
        dense
    }

    /// What the band loop reads.
    pub(super) fn arena(&self) -> &Arena {
        &self.arena
    }
}

/// Writes the bands of an [`Arena`], in turn: a band is `block`s of adjacent
/// columns from column 0 up, then `end_band`. What it keeps, and what it
/// stores for a kept value, is the formats encoder's
/// (`TwoLevelBitmapMatrix::encode_f16`) of the (ReLU'd) block, bit for bit:
/// the keep test is [`f16::survives`], the stored value [`f16::round_f32`].
pub(super) struct Emitter<'a> {
    arena: &'a mut Arena,
    relu: bool,
    /// The band being written: its next step and the values it holds so far.
    step: usize,
    kept: usize,
    /// What the bands before it hold: where its values start.
    base: usize,
}

impl Sink for Emitter<'_> {
    #[inline(always)]
    fn block<L: Lanes>(&mut self, band: usize, col0: usize, width: usize, acc: &[f32]) {
        if self.relu {
            self.emit::<L, true>(band, col0, width, acc);
        } else {
            self.emit::<L, false>(band, col0, width, acc);
        }
    }

    #[inline(always)]
    fn end_band(&mut self, band: usize) {
        // The columns that pad the last tile are empty steps.
        let (step, kept) = (self.step, self.kept as u32);
        let (words, starts, _) = self.band_mut(band);
        words[step..].fill(0);
        starts[step + 1..].fill(kept);
        self.base += self.kept;
    }
}

impl<'a> Emitter<'a> {
    /// The writer of `arena`'s bands, as shaped and as wide as the arena is.
    /// Behind the bands' values must be room for what they keep, and past a
    /// band's last kept value room for [`TILE_ROWS`] more, which the next
    /// band overwrites.
    fn new(arena: &'a mut Arena, relu: bool) -> Self {
        Emitter { arena, relu, step: 0, kept: 0, base: 0 }
    }

    /// Band `band`'s steps, starts (one more) and values from its base on.
    #[inline(always)]
    fn band_mut(&mut self, band: usize) -> (&mut [u64], &mut [u32], &mut [f32]) {
        let Arena { steps, words, starts, bases, values, .. } = &mut *self.arena;
        let steps = *steps;
        (
            &mut words[band * steps..][..steps],
            &mut starts[band * (steps + 1)..][..steps + 1],
            &mut values[bases[band]..],
        )
    }

    /// Emits `dense`, the whole operand, a band at a time. `inline(always)`:
    /// the body has to land inside the `#[target_feature]` callers of
    /// [`super::simd`] to be compiled at their level.
    #[inline(always)]
    pub(super) fn encode<L: Lanes>(&mut self, dense: &Matrix) {
        let (wm, cols) = (self.arena.wm, self.arena.cols);
        assert_eq!(dense.cols(), cols, "the emitter is for operands of another width");
        for (band, rows) in dense.as_slice().chunks(wm * cols).enumerate() {
            self.block::<L>(band, 0, cols, rows);
            self.end_band(band);
        }
    }

    /// Appends columns `col0..` of the band as steps: `acc` is row-major,
    /// `width` values per row, at most `wm` rows. Columns past the operand's
    /// width (the zero padding of the producer's last tile) are dropped.
    #[inline(always)]
    fn emit<L: Lanes, const RELU: bool>(
        &mut self,
        band: usize,
        col0: usize,
        width: usize,
        acc: &[f32],
    ) {
        if col0 == 0 {
            (self.step, self.kept) = (0, 0);
            self.arena.bases[band] = self.base;
        }
        assert_eq!(col0, self.step, "a band's blocks arrive in column order");
        let end = (col0 + width).min(self.arena.cols);
        // A ragged last band (a small batch) takes the tile path too, its
        // missing rows the tile's zeros. Bands of another height do not: a
        // 16-row band's dense bound has no room for a 32-row column stored
        // past its last value.
        let tiled = self.arena.wm == TILE_ROWS;
        // Every tile of the block writes the same live rows of it, so the
        // rows past them stay the zeros they start as.
        let mut tile = [[0.0f32; TILE_ROWS]; TILE_COLS];
        let mut kept = self.kept;
        let (words, starts, values) = self.band_mut(band);
        starts[col0] = kept as u32;
        let mut c = col0;
        while c < end {
            let chunk = TILE_COLS.min(end - c);
            let done = tiled && chunk == TILE_COLS && {
                let (words, starts) = (&mut words[c..c + chunk], &mut starts[c + 1..=c + chunk]);
                let out = (words, starts, &mut *values);
                emit_tile::<L, RELU>(acc, (width, c - col0), &mut tile, out, &mut kept)
            };
            if !done {
                for c in c..c + chunk {
                    words[c] = emit_column::<RELU>(acc, width, c - col0, values, &mut kept);
                    starts[c + 1] = kept as u32;
                }
            }
            c += chunk;
        }
        (self.step, self.kept) = (end, kept);
    }
}

/// One column the plain way: walk it with the row stride, test, round and
/// push each kept value. Returns the column word.
#[inline(always)]
fn emit_column<const RELU: bool>(
    acc: &[f32],
    width: usize,
    c: usize,
    values: &mut [f32],
    kept: &mut usize,
) -> u64 {
    let mut word = 0u64;
    for (r, row) in acc.chunks_exact(width).enumerate() {
        let x = if RELU { row[c].max(0.0) } else { row[c] };
        if f16::survives(x) {
            values[*kept] = f16::round_f32(x);
            *kept += 1;
            word |= 1 << r;
        }
    }
    word
}

/// [`TILE_COLS`] columns of a block of at most [`TILE_ROWS`] rows at once,
/// from column `c0` of `acc` (`width` values a row): moved transposed into
/// `tile`, whose rows past the live ones must be zeros, and rounded without
/// a branch, then each column compacted with the level's
/// [`Lanes::compress`]. Whole `L::N`-row groups go through the level's
/// in-register [`Lanes::transpose`] and are rounded a register of a column
/// at a time; the rows past them (all of a small batch's band) are rounded a
/// row at a time and stored a value at a time, so the work scales with the
/// live rows. The strided walk of [`emit_column`] with a rounding call per
/// element made the fused forward slower than the unfused one; this is what
/// pays for the fusion.
///
/// Returns `false`, having written nothing to the arena, when the tile holds
/// a magnitude the branch-free rounding does not cover (overflow, infinity,
/// NaN): the caller redoes it the plain way.
#[inline(always)]
fn emit_tile<L: Lanes, const RELU: bool>(
    acc: &[f32],
    (width, c0): (usize, usize),
    tile: &mut [[f32; TILE_ROWS]; TILE_COLS],
    (words, starts, values): (&mut [u64], &mut [u32], &mut [f32]),
    kept: &mut usize,
) -> bool {
    let live = acc.len() / width;
    // The level's squares tile the block's columns at every level but the
    // baseline, whose register is a whole native tile wide.
    let whole = if TILE_COLS.is_multiple_of(L::N) { live - live % L::N } else { 0 };
    for r in (0..whole).step_by(L::N) {
        for c in (0..TILE_COLS).step_by(L::N) {
            let dst = &mut tile.as_flattened_mut()[c * TILE_ROWS + r..];
            L::transpose(&acc[r * width + c0 + c..], width, dst, TILE_ROWS);
        }
    }
    // The widest magnitude per row of a group and per column of the rest,
    // kept apart so that each loop's maximum stays in its lanes.
    let mut widest_rows = [0u32; TILE_ROWS];
    for column in tile.iter_mut() {
        let rows = column[..whole].chunks_exact_mut(L::N);
        for (lanes, widest) in rows.zip(widest_rows.chunks_exact_mut(L::N)) {
            for (x, widest) in lanes.iter_mut().zip(widest) {
                *x = round::<RELU>(*x, widest);
            }
        }
    }
    let mut widest_cols = [0u32; TILE_COLS];
    for (r, row) in acc.chunks_exact(width).enumerate().skip(whole) {
        let row = &row[c0..c0 + TILE_COLS];
        for ((column, &x), widest) in tile.iter_mut().zip(row).zip(&mut widest_cols) {
            column[r] = round::<RELU>(x, widest);
        }
    }
    let widest = widest_rows.into_iter().chain(widest_cols).fold(0, u32::max);
    if !f16::fits_finite(f32::from_bits(widest)) {
        return false;
    }
    let mut n = *kept;
    for ((column, word), start) in tile.iter().zip(words).zip(starts) {
        // A kept value rounds to a non-zero and everything else was stored
        // as `+0.0` above, so "not zero" is the keep test. The column has
        // room for all its rows: in a workspace arena it starts at most
        // `TILE_ROWS` values per earlier column past a base no further than
        // the earlier bands' dense bounds, and an `EncodedA` has a column of
        // slack past its last value. What a band spills the next overwrites.
        let bits = L::compress(column, &mut values[n..]);
        n += bits.count_ones() as usize;
        (*word, *start) = (bits, n as u32);
    }
    *kept = n;
    true
}

/// What [`emit_tile`] stores for `x`, without a branch: `x` (through ReLU
/// with `RELU`) rounded to FP16 storage precision, or `+0.0` if it does not
/// survive. Raises `widest` to the bit pattern of its magnitude, which the
/// rounding covers while [`f16::fits_finite`] holds for it (NaN's pattern
/// is above every finite one's).
#[inline(always)]
fn round<const RELU: bool>(x: f32, widest: &mut u32) -> f32 {
    let x = if RELU { x.max(0.0) } else { x };
    *widest = (*widest).max(x.to_bits() & 0x7FFF_FFFF);
    if f16::survives(x) {
        f16::round_f32_in_pattern(x)
    } else {
        0.0
    }
}
