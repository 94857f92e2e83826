//! The A operand: the one encoding of activations the band loop reads.
//!
//! An [`Arena`] holds a column-condensed operand the way
//! [`super::word::run_bands`] consumes it, in four buffers whatever the tile
//! count: per band (`warp_m` rows) and outer-product step one packed column
//! word and one `u32` start, the values rounded to FP16 storage precision,
//! and per band the base offset of its value segment. A step's starts count
//! from its band's base, so bands are independent, and any producer that can
//! hand [`Emitter`] row-major blocks of columns in ascending order can write
//! one — the output pass of a layer, and a dense matrix.
//!
//! The segments come two ways. A fused forward's two workspace arenas size
//! every band at the dense bound `warp_m * cols` (bases at fixed offsets), so
//! threads can emit bands side by side without knowing what the others keep.
//! An [`EncodedA`], the owned operand [`BitmapSpGemm::encode_a`] returns,
//! packs them: a count pass places every band's base, and the emitter
//! writes only the non-zeros, in place.
//!
//! A dense operand reaches the emitter through [`Emitter::encode`], which
//! [`super::simd`] compiles per vector level; a layer's output pass reaches
//! it as the band loop's sink, at the band loop's level.
//!
//! [`BitmapSpGemm::encode_a`]: super::BitmapSpGemm::encode_a

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

    /// Makes this a `cols`-wide operand at the dense bound and returns the
    /// writer of its bands. With `relu`, what is emitted is `max(x, 0)`.
    ///
    /// # Panics
    /// Panics if `cols` is past what the arena was reset for.
    pub(super) fn emitter(&mut self, cols: usize, relu: bool) -> Emitter<'_> {
        assert!(cols <= self.max_cols, "the arena was reset for narrower operands");
        (self.cols, self.steps) = (cols, cols.div_ceil(self.wk) * self.wk);
        let (grid_m, steps, segment) = (self.grid_m(), self.steps, self.wm * cols);
        for (im, base) in self.bases[..grid_m].iter_mut().enumerate() {
            *base = im * segment;
        }
        Emitter::new(
            &mut self.words[..grid_m * steps],
            &mut self.starts[..grid_m * (steps + 1)],
            &self.bases[..grid_m],
            &mut self.values[..grid_m * segment],
            (self.wm, steps, cols),
            relu,
        )
    }

    /// Encodes `dense` (this arena's row count) at `level`.
    pub(super) fn encode(&mut self, dense: &Matrix, level: Level) {
        assert_eq!(dense.rows(), self.rows, "the arena was reset for another batch");
        simd::encode(level, &mut self.emitter(dense.cols(), false), dense);
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
    /// emitter writes, but with each band's values packed behind the
    /// previous band's. A first pass counts every band's survivors, so each
    /// buffer is allocated once at its final size and every band's base is
    /// known before the emitter writes its values there, in place.
    pub(super) fn encode(dense: &Matrix, tile: (usize, usize), level: Level) -> EncodedA {
        let (rows, cols) = (dense.rows(), dense.cols());
        let mut a = Arena::default();
        let grid_m = a.shape(rows, cols, tile);
        (a.cols, a.steps) = (cols, cols.div_ceil(a.wk) * a.wk);
        // A `u32` sum vectorises where a `usize` count does not, and a band's
        // survivors fit one (`Arena::shape`).
        let mut nnz = 0;
        a.bases = (dense.as_slice().chunks(a.wm * cols))
            .map(|band| {
                let base = nnz;
                nnz += band.iter().map(|&x| u32::from(f16::survives(x))).sum::<u32>() as usize;
                base
            })
            .collect();
        a.words = vec![0; grid_m * a.steps];
        a.starts = vec![0; grid_m * (a.steps + 1)];
        // Slack for what the tile compaction stores past the last kept value.
        a.values = vec![0.0; nnz + TILE_ROWS];
        let shape = (a.wm, a.steps, cols);
        let mut emitter =
            Emitter::new(&mut a.words, &mut a.starts, &a.bases, &mut a.values, shape, false);
        simd::encode(level, &mut emitter, dense);
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

/// Writes the bands of an [`Arena`] (all of them, or a thread's share after
/// [`Sink::split_at_band`]): a band is `block`s of adjacent columns from
/// column 0 up, then `end_band`. What it keeps, and what it stores for a
/// kept value, is the formats encoder's (`TwoLevelBitmapMatrix::encode_f16`)
/// of the (ReLU'd) block, bit for bit: the keep test is [`f16::survives`],
/// the stored value [`f16::round_f32`].
pub(super) struct Emitter<'a> {
    words: &'a mut [u64],
    starts: &'a mut [u32],
    /// Where each band's values start, counted from the arena's first; the
    /// first band's is the start of `values`.
    bases: &'a [usize],
    values: &'a mut [f32],
    wm: usize,
    steps: usize,
    cols: usize,
    relu: bool,
    /// The band being written: its next step and the values it holds so far.
    step: usize,
    kept: usize,
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
    }

    fn split_at_band(self, bands: usize) -> (Self, Self) {
        let (words, words_tail) = self.words.split_at_mut(bands * self.steps);
        let (starts, starts_tail) = self.starts.split_at_mut(bands * (self.steps + 1));
        let (bases, bases_tail) = self.bases.split_at(bands);
        let mid = bases_tail.first().map_or(self.values.len(), |&base| base - self.bases[0]);
        let (values, values_tail) = self.values.split_at_mut(mid);
        let tail = Emitter {
            words: words_tail,
            starts: starts_tail,
            bases: bases_tail,
            values: values_tail,
            ..self
        };
        (Emitter { words, starts, bases, values, ..tail }, tail)
    }
}

impl<'a> Emitter<'a> {
    /// The writer of bands of `wm` rows and `steps` steps, `cols` of them
    /// dense: per band `steps` of `words`, `steps + 1` of `starts` and the
    /// `values` from its base on. Between a band's base and the next must be
    /// room for what the band keeps, and past a band's last kept value room
    /// for [`TILE_ROWS`] more, which a dense-bound segment has.
    fn new(
        words: &'a mut [u64],
        starts: &'a mut [u32],
        bases: &'a [usize],
        values: &'a mut [f32],
        (wm, steps, cols): (usize, usize, usize),
        relu: bool,
    ) -> Self {
        Emitter { words, starts, bases, values, wm, steps, cols, relu, step: 0, kept: 0 }
    }

    /// Band `band`'s steps, starts (one more) and values from its base on.
    /// Bands are emitted in turn, so what a band stores past its own values
    /// the next overwrites.
    #[inline(always)]
    fn band_mut(&mut self, band: usize) -> (&mut [u64], &mut [u32], &mut [f32]) {
        let steps = self.steps;
        (
            &mut self.words[band * steps..][..steps],
            &mut self.starts[band * (steps + 1)..][..steps + 1],
            &mut self.values[self.bases[band] - self.bases[0]..],
        )
    }

    /// Emits `dense`, the whole operand, a band at a time. `inline(always)`:
    /// the body has to land inside the `#[target_feature]` callers of
    /// [`super::simd`] to be compiled at their level.
    #[inline(always)]
    pub(super) fn encode<L: Lanes>(&mut self, dense: &Matrix) {
        assert_eq!(dense.cols(), self.cols, "the emitter is for operands of another width");
        for (band, rows) in dense.as_slice().chunks(self.wm * self.cols).enumerate() {
            self.block::<L>(band, 0, self.cols, rows);
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
        }
        assert_eq!(col0, self.step, "a band's blocks arrive in column order");
        let end = (col0 + width).min(self.cols);
        // A ragged last band (a small batch) takes the tile path too, its
        // missing rows the tile's zeros. Bands of another height do not: a
        // 16-row band's dense bound has no room for a 32-row column stored
        // past its last value.
        let tiled = self.wm == TILE_ROWS;
        let mut kept = self.kept;
        let (words, starts, values) = self.band_mut(band);
        starts[col0] = kept as u32;
        let mut c = col0;
        while c < end {
            let chunk = TILE_COLS.min(end - c);
            let done = tiled && chunk == TILE_COLS && {
                let (words, starts) = (&mut words[c..c + chunk], &mut starts[c + 1..=c + chunk]);
                emit_tile::<L, RELU>(acc, width, c - col0, words, starts, values, &mut kept)
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

/// [`TILE_COLS`] columns of a block of at most [`TILE_ROWS`] rows at once:
/// round every element without a branch while transposing the tile onto the
/// stack, then compact each column with the level's [`Lanes::compress`]. The
/// strided walk of [`emit_column`] with a rounding call per element made the
/// fused forward slower than the unfused one; this is what pays for the
/// fusion.
///
/// Returns `false`, having written nothing, when the tile holds a magnitude
/// the branch-free rounding does not cover (overflow, infinity, NaN): the
/// caller redoes it the plain way.
#[inline(always)]
fn emit_tile<L: Lanes, const RELU: bool>(
    acc: &[f32],
    width: usize,
    c0: usize,
    words: &mut [u64],
    starts: &mut [u32],
    values: &mut [f32],
    kept: &mut usize,
) -> bool {
    let mut tile = [[0.0f32; TILE_ROWS]; TILE_COLS];
    let mut in_pattern = true;
    for (r, row) in acc.chunks_exact(width).enumerate() {
        for (c, &x) in row[c0..c0 + TILE_COLS].iter().enumerate() {
            let x = if RELU { x.max(0.0) } else { x };
            in_pattern &= f16::fits_finite(x);
            tile[c][r] = if f16::survives(x) { f16::round_f32_in_pattern(x) } else { 0.0 };
        }
    }
    if !in_pattern {
        return false;
    }
    let mut n = *kept;
    for ((column, word), start) in tile.iter().zip(words).zip(starts) {
        // A kept value rounds to a non-zero and everything else was stored
        // as `+0.0` above, so "not zero" is the keep test. The column has
        // room for all its rows: it starts at most `TILE_ROWS` values per
        // earlier column into the band's dense bound, and a packed band's
        // spill is the next band's to overwrite or the arena's slack.
        let bits = L::compress(column, &mut values[n..]);
        n += bits.count_ones() as usize;
        (*word, *start) = (bits, n as u32);
    }
    *kept = n;
    true
}
