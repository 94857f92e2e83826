//! The flat A operand a fused forward keeps between its layers.
//!
//! [`TwoLevelBitmapMatrix`](dsstc_formats::TwoLevelBitmapMatrix) is three
//! allocations per tile and stores row words, which the band loop has to
//! transpose back into the column words it reads. An [`Arena`] is the same
//! encoding laid out the way [`super::word::run_bands`] consumes it, in three
//! buffers whatever the tile count: per outer-product step one packed column
//! word and one `u32` start into a value buffer, the values
//! column-condensed and rounded to FP16 storage precision exactly as
//! [`BitmapSpGemm::encode_a`](super::BitmapSpGemm::encode_a) stores them.
//!
//! Every band (`warp_m` rows) is independent: its steps, its starts (which
//! count from the band's own segment) and its value segment, sized at the
//! dense bound `warp_m * cols`, sit at offsets the shape alone fixes. Bands
//! can therefore be written by different threads, and by any builder that
//! can hand [`Emitter`] row-major blocks of columns in ascending order — the
//! output pass of the previous layer and the forward's dense input here.

use dsstc_tensor::{f16, Matrix};

use super::word::{grow, AView, Sink};

/// The block the emitter transposes at a time: a native tile's rows by a
/// cache line of columns.
const TILE_ROWS: usize = 32;
const TILE_COLS: usize = 16;

/// A column-condensed A operand in bands of `wm` rows and tiles of `wk`
/// steps. The buffers outlive one operand and one shape: [`Arena::reset`]
/// re-shapes them, growing only past what they have held, and an emitter
/// writes every cell a reader then reads. The default holds nothing.
#[derive(Default)]
pub(super) struct Arena {
    /// What the last [`Arena::reset`] shaped this for: the operand's rows,
    /// band height and tile depth, and the most columns it may have.
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
    /// Band `im`'s segment is `wm * cols` long from `im * wm * cols`.
    values: Vec<f32>,
}

impl Arena {
    /// Makes this an arena for operands of `rows` rows and up to `max_cols`
    /// columns in `wm x wk` tiles, whatever it was before.
    ///
    /// # Panics
    /// Panics if a band's rows do not fit one word or its values a `u32`.
    pub(super) fn reset(&mut self, rows: usize, max_cols: usize, (wm, wk): (usize, usize)) {
        assert!((1..=64).contains(&wm) && wk > 0, "a band's rows are the bits of one word");
        assert!(u32::try_from(wm * max_cols).is_ok(), "a band's starts are u32");
        let grid_m = rows.div_ceil(wm);
        let max_steps = max_cols.div_ceil(wk) * wk;
        (self.rows, self.wm, self.wk, self.max_cols) = (rows, wm, wk, max_cols);
        (self.cols, self.steps) = (0, 0);
        grow(&mut self.words, grid_m * max_steps);
        grow(&mut self.starts, grid_m * (max_steps + 1));
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
        let (grid_m, steps) = (self.rows.div_ceil(self.wm), self.steps);
        Emitter {
            words: &mut self.words[..grid_m * steps],
            starts: &mut self.starts[..grid_m * (steps + 1)],
            values: &mut self.values[..grid_m * self.wm * cols],
            wm: self.wm,
            steps,
            cols,
            relu,
            step: 0,
            kept: 0,
        }
    }

    /// Encodes `dense` (this arena's row count).
    pub(super) fn encode(&mut self, dense: &Matrix) {
        assert_eq!(dense.rows(), self.rows, "the arena was reset for another batch");
        let (wm, cols) = (self.wm, dense.cols());
        let mut emitter = self.emitter(cols, false);
        for (band, rows) in dense.as_slice().chunks(wm * cols).enumerate() {
            emitter.block(band, 0, cols, rows);
            emitter.end_band(band);
        }
    }
}

/// One non-empty tile of an [`Arena`]: its `wk + 1` starts and the segment
/// they point into.
#[derive(Clone, Copy)]
pub(super) struct ArenaTile<'a> {
    starts: &'a [u32],
    values: &'a [f32],
}

impl<'a> AView<'a> for &'a Arena {
    type Tile = ArenaTile<'a>;

    #[inline(always)]
    fn grid_k(self) -> usize {
        self.steps / self.wk
    }

    #[inline(always)]
    fn band_words<'s>(self, im: usize, _scratch: &'s mut Vec<u64>) -> &'s [u64]
    where
        'a: 's,
    {
        &self.words[im * self.steps..][..self.steps]
    }

    #[inline(always)]
    fn tile(self, im: usize, kk: usize) -> Option<ArenaTile<'a>> {
        let starts = &self.starts[im * (self.steps + 1) + kk * self.wk..][..self.wk + 1];
        let segment = self.wm * self.cols;
        (starts[0] != starts[self.wk])
            .then(|| ArenaTile { starts, values: &self.values[im * segment..][..segment] })
    }

    #[inline(always)]
    fn step_values(tile: ArenaTile<'a>, k: usize) -> &'a [f32] {
        &tile.values[tile.starts[k] as usize..tile.starts[k + 1] as usize]
    }
}

/// Writes the bands of an [`Arena`] (all of them, or a thread's share after
/// [`Sink::split_at_band`]): a band is `block`s of adjacent columns from
/// column 0 up, then `end_band`. What it keeps, and what it stores for a kept
/// value, is `encode_a` of the (ReLU'd) block, bit for bit: the keep test is
/// [`f16::survives`], the stored value [`f16::round_f32`].
pub(super) struct Emitter<'a> {
    words: &'a mut [u64],
    starts: &'a mut [u32],
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
    fn block(&mut self, band: usize, col0: usize, width: usize, acc: &[f32]) {
        if self.relu {
            self.emit::<true>(band, col0, width, acc);
        } else {
            self.emit::<false>(band, col0, width, acc);
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
        let (values, values_tail) = self.values.split_at_mut(bands * self.wm * self.cols);
        let tail = Emitter { words: words_tail, starts: starts_tail, values: values_tail, ..self };
        (Emitter { words, starts, values, ..tail }, tail)
    }
}

impl Emitter<'_> {
    /// Band `band`'s steps, starts (one more) and value segment.
    #[inline(always)]
    fn band_mut(&mut self, band: usize) -> (&mut [u64], &mut [u32], &mut [f32]) {
        let (steps, segment) = (self.steps, self.wm * self.cols);
        (
            &mut self.words[band * steps..][..steps],
            &mut self.starts[band * (steps + 1)..][..steps + 1],
            &mut self.values[band * segment..][..segment],
        )
    }

    /// Appends columns `col0..` of the band as steps: `acc` is row-major,
    /// `width` values per row, at most `wm` rows. Columns past the operand's
    /// width (the zero padding of the producer's last tile) are dropped.
    #[inline(always)]
    fn emit<const RELU: bool>(&mut self, band: usize, col0: usize, width: usize, acc: &[f32]) {
        if col0 == 0 {
            (self.step, self.kept) = (0, 0);
        }
        assert_eq!(col0, self.step, "a band's blocks arrive in column order");
        let end = (col0 + width).min(self.cols);
        let full_rows = acc.len() == TILE_ROWS * width;
        let mut kept = self.kept;
        let (words, starts, values) = self.band_mut(band);
        starts[col0] = kept as u32;
        let mut c = col0;
        while c < end {
            let chunk = TILE_COLS.min(end - c);
            let done = full_rows && chunk == TILE_COLS && {
                let (words, starts) = (&mut words[c..c + chunk], &mut starts[c + 1..=c + chunk]);
                emit_tile::<RELU>(acc, width, c - col0, words, starts, values, &mut kept)
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

/// [`TILE_COLS`] columns of a [`TILE_ROWS`]-row block at once: round every
/// element without a branch while transposing the tile onto the stack, then
/// compact each column with an unconditional store and a conditional
/// advance. The strided walk of [`emit_column`] with a rounding call per
/// element made the fused forward slower than the unfused one; this is what
/// pays for the fusion.
///
/// Returns `false`, having written nothing that counts, when the tile holds
/// a magnitude the branch-free rounding does not cover (overflow, infinity,
/// NaN): the caller redoes it the plain way.
#[inline(always)]
fn emit_tile<const RELU: bool>(
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
        // as zero above. The column has room for all its rows: it starts at
        // most `TILE_ROWS` values per earlier column into the segment.
        let dst = &mut values[n..n + TILE_ROWS];
        let (mut bits, mut k) = (0u64, 0usize);
        for (r, &v) in column.iter().enumerate() {
            let keep = v != 0.0;
            dst[k] = v;
            k += usize::from(keep);
            bits |= u64::from(keep) << r;
        }
        n += k;
        (*word, *start) = (bits, n as u32);
    }
    *kept = n;
    true
}
