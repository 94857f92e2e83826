//! The A operand: the one encoding of activations the band loop reads.
//!
//! An [`Arena`] holds a column-condensed operand the way
//! [`super::word::run_bands`] consumes it, in four buffers whatever the tile
//! count: per band (`warp_m` rows) and outer-product step one packed column
//! word and one `u32` start, the values as FP16 halves, and per band the
//! base offset of its value segment. A step's starts count
//! from its band's base, so bands are independent, and any producer that can
//! hand [`Emitter`] row-major blocks of columns in ascending order can write
//! one — the output pass of a layer, and a dense matrix. It is the weights'
//! layout too (`dsstc_formats::TwoLevelBitmapMatrix`): the band loop reads
//! either through a [`BandView`], so a call that runs `D^T = B^T * A^T`
//! reads a row-major B's bands as its condensed `B^T`, where they lie.
//!
//! The emitter writes the bands in turn, each band's values where the
//! previous band's end, and records every base as it starts the band, into
//! an arena that holds the dense bound, `warp_m * cols` values per band, so
//! any operand of its shape fits uncounted. The arenas are a thread's
//! workspace ([`super::word`]): a fused forward's two, and the first of them
//! for [`BitmapSpGemm::encode_a`], which copies what the emitter wrote out
//! at its exact length into an [`EncodedA`], the owned operand it returns.
//!
//! A dense operand reaches the emitter through [`Emitter::encode`], which
//! [`super::simd`] compiles per vector level; a layer's output pass reaches
//! it as the band loop's sink, at the band loop's level.
//!
//! [`BitmapSpGemm::encode_a`]: super::BitmapSpGemm::encode_a

use dsstc_formats::BandView;
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
    /// Every kept value, rounded to a half as it is emitted.
    values: Vec<f16>,
}

impl Arena {
    /// Makes this an arena for operands of `rows` rows and up to `max_cols`
    /// columns in `wm x wk` tiles, whatever it was before: room for the
    /// dense bound.
    ///
    /// # Panics
    /// Panics if a band's rows do not fit one word or its values a `u32`.
    pub(super) fn reset(&mut self, rows: usize, max_cols: usize, (wm, wk): (usize, usize)) {
        assert!((1..=64).contains(&wm) && wk > 0, "a band's rows are the bits of one word");
        assert!(u32::try_from(wm * max_cols).is_ok(), "a band's starts are u32");
        (self.rows, self.wm, self.wk, self.max_cols) = (rows, wm, wk, max_cols);
        (self.cols, self.steps) = (0, 0);
        let (grid_m, max_steps) = (rows.div_ceil(wm), max_cols.div_ceil(wk) * wk);
        grow(&mut self.words, grid_m * max_steps);
        grow(&mut self.starts, grid_m * (max_steps + 1));
        grow(&mut self.bases, grid_m);
        grow(&mut self.values, grid_m * wm * max_cols);
    }

    /// Makes this a `cols`-wide operand and returns the writer of its bands.
    /// With `relu`, what is emitted is `max(x, 0)`.
    ///
    /// # Panics
    /// Panics if `cols` is past what the arena was reset for.
    pub(super) fn emitter(&mut self, cols: usize, relu: bool) -> Emitter<'_> {
        assert!(cols <= self.max_cols, "the arena was reset for narrower operands");
        (self.cols, self.steps) = (cols, cols.div_ceil(self.wk) * self.wk);
        Emitter { arena: self, relu, step: 0, kept: 0, base: 0 }
    }

    /// Encodes `dense` (this arena's row count) at `level`.
    pub(super) fn encode(&mut self, dense: &Matrix, level: Level) {
        assert_eq!(dense.rows(), self.rows, "the arena was reset for another batch");
        simd::encode(level, &mut self.emitter(dense.cols(), false), dense);
    }

    /// The operand, as the band loop reads it: `rows` in bands of `wm`, each
    /// `steps` steps in tiles of `wk`.
    #[inline(always)]
    pub(super) fn bands(&self) -> BandView<'_> {
        let Arena { rows, wm, wk, steps, .. } = *self;
        BandView::new((rows, wm), (steps, wk), &self.words, &self.starts, &self.bases, &self.values)
    }

    /// The operand as an [`EncodedA`] of its own: each buffer copied out at
    /// the length the operand uses of it (the bands' values lie back to
    /// back).
    pub(super) fn packed(&self) -> EncodedA {
        let a = self.bands();
        let grid_m = a.count();
        let nnz = (0..grid_m).map(|im| a.band_values(im).len()).sum();
        let arena = Arena {
            max_cols: self.cols,
            words: self.words[..grid_m * self.steps].to_vec(),
            starts: self.starts[..grid_m * (self.steps + 1)].to_vec(),
            bases: self.bases[..grid_m].to_vec(),
            values: self.values[..nnz].to_vec(),
            ..*self
        };
        EncodedA { arena }
    }
}

/// An encoded A (activation) operand, as
/// [`BitmapSpGemm::encode_a`](super::BitmapSpGemm::encode_a) builds it and
/// [`BitmapSpGemm::execute_encoded`](super::BitmapSpGemm::execute_encoded)
/// reads it: per `warp_m`-row band and outer-product step one packed column
/// word, the column-condensed non-zeros stored as FP16 halves, in a handful
/// of buffers whatever the tile count. It owns its buffers and
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

    /// The dense operand it encodes, values as stored (halves, widened).
    pub fn decode(&self) -> Matrix {
        let a = self.bands();
        let (wm, wk) = a.tile_shape();
        let mut dense = Matrix::zeros(self.rows(), self.cols());
        for im in 0..a.count() {
            for kk in 0..a.tiles() {
                let Some(tile) = a.tile(im, kk) else { continue };
                for (k, &word) in tile.words().iter().enumerate() {
                    let (c, mut bits) = (kk * wk + k, word);
                    for &v in tile.step_values(k) {
                        dense[(im * wm + bits.trailing_zeros() as usize, c)] = v.to_f32();
                        bits &= bits - 1;
                    }
                }
            }
        }
        dense
    }

    /// What the band loop reads.
    pub(super) fn bands(&self) -> BandView<'_> {
        self.arena.bands()
    }
}

/// Writes the bands of an [`Arena`], in turn: a band is `block`s of adjacent
/// columns from column 0 up, then `end_band`. What it keeps, and what it
/// stores for a kept value, is the formats encoder's
/// (`TwoLevelBitmapMatrix::encode`) of the (ReLU'd) block, bit for bit: the
/// keep test is [`f16::survives`], the stored value [`f16::from_f32`].
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

impl Emitter<'_> {
    /// Band `band`'s steps, starts (one more) and values from its base on.
    #[inline(always)]
    fn band_mut(&mut self, band: usize) -> (&mut [u64], &mut [u32], &mut [f16]) {
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
    values: &mut [f16],
    kept: &mut usize,
) -> u64 {
    let mut word = 0u64;
    for (r, row) in acc.chunks_exact(width).enumerate() {
        let x = if RELU { row[c].max(0.0) } else { row[c] };
        if f16::survives(x) {
            values[*kept] = f16::from_f32(x);
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
/// pays for the fusion. The compaction narrows the rounded values to the
/// halves the arena stores, which is exact.
///
/// Returns `false`, having written nothing to the arena, when the tile holds
/// a magnitude the branch-free rounding does not cover (overflow, infinity,
/// NaN): the caller redoes it the plain way.
#[inline(always)]
fn emit_tile<L: Lanes, const RELU: bool>(
    acc: &[f32],
    (width, c0): (usize, usize),
    tile: &mut [[f32; TILE_ROWS]; TILE_COLS],
    (words, starts, values): (&mut [u64], &mut [u32], &mut [f16]),
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
        // room for all its rows: it starts at most `TILE_ROWS` values per
        // earlier column past a base no further than the earlier bands'
        // dense bounds, which the arena holds. What a band spills the next
        // overwrites.
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
