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
//! One GEMM runs two phases over a condensed operand the loop reads where
//! it lies, through a [`BandView`] (per band and step one word and one
//! start): an [`Arena`]'s, or the weights' own. Both operands store their
//! values as FP16 halves; every product and sum is `f32`, so a value is
//! widened once, where it is first read — never per MAC.
//!
//! * **Expansion** ([`expand`]): every condensed row of the other operand is
//!   widened and decoded into one zero-padded dense `f32` row-major buffer
//!   (values and step words: two buffers, whatever the tile count) — with
//!   the level's expand instruction where it has one, a bit-walk scatter
//!   elsewhere. A step's accumulation is then a contiguous `axpy`, while the
//!   step's packed word still short-circuits empty steps and empty tiles.
//! * **Band loop** ([`run_bands`]): each output band (one `warp_m`-row
//!   strip) walks `jn` in blocks of tile columns with `kk` innermost, and
//!   one body ([`block_steps`]) runs every surviving step of a block: it
//!   holds the block's B rows in registers, decodes each A non-zero once and
//!   updates that row of a row-major block accumulator. The block width is
//!   the lane type's ([`BlockRow`]); remainders run one-tile blocks, and
//!   tilings that are not [`NATIVE_WN`] wide run one-tile blocks whose row
//!   stays in memory. A finished block goes to the loop's [`Sink`], which
//!   takes the bands in turn or, if it asks to ([`Sink::BLOCKS_IN_TURN`]),
//!   the blocks in turn, every band of a block before the next block.
//!
//! The band loop is one body, generic only over the sink it writes:
//! [`execute`] reads an [`EncodedA`](super::EncodedA)'s arena and writes
//! dense rows; [`forward`] reads a workspace arena and, between layers,
//! writes the next one (the arena's emitter is the sink), so activations
//! never leave the encoding. A dense operand is encoded one way, into a
//! workspace arena: [`forward`]'s input, and [`encode_a`]'s, which it then
//! copies out.
//!
//! A forward whose batch is one band of at most [`simd::small_rows`] live
//! rows (a serve worker's batch of one or two requests) runs each layer
//! through a second body instead, [`run_small_band`], at the levels that
//! have one. Expanding B costs the same whatever the batch, and a few rows
//! meet few of its rows: the body skips the expansion, decodes only the B
//! rows of steps that survive both words, and keeps the whole block
//! accumulator (8 rows of a tile at AVX-512) in registers across every step,
//! where the band loop streams an accumulator row through memory per A
//! non-zero. Taller bands reuse each expanded row often enough to pay for
//! the expansion and keep the band loop.
//!
//! Only the condensed operand skips a whole step when its word is empty,
//! so [`execute`] condenses the sparser one, as the paper's library does:
//! when B keeps fewer values per output element and that costs no more
//! block passes ([`transposes`]), it runs `D^T = B^T * A^T` — a row-major
//! B's bands are `B^T`'s, read in place, A's bands are expanded as the
//! rows of `A^T` by the same [`expand`], and each block is written out
//! transposed ([`TransposedRows`], which takes the blocks in turn, so that
//! it can append the output a block of rows at a time instead of zeroing
//! it first). Same loop, same bits.
//!
//! All of it is compiled once per vector level (baseline, AVX2, AVX-512;
//! [`super::simd`]) and the level is picked from CPUID once per call. A call
//! runs on the thread that makes it, every band in turn: the paper's
//! parallelism is one device per serve worker, not threads inside a GEMM.
//!
//! What a call stages — the expansion, the block accumulator, a forward's
//! two arenas (the first also `encode_a`'s), a transposed call's block of
//! output rows — it borrows from
//! its thread's [`Workspace`], so after a thread's first call the only
//! allocation is the result.

use std::cell::RefCell;

use dsstc_formats::{BandView, TileView, TwoLevelBitmapMatrix};
use dsstc_tensor::Matrix;

use super::arena::{Arena, EncodedA};
use super::simd::{self, Lanes, Level, Portable};

/// The device-native `warp_n` (V100 and A100 both): the only tile width
/// whose block rows are held in registers.
pub(super) const NATIVE_WN: usize = 32;

/// Values per cache line.
const LINE: usize = 64 / std::mem::size_of::<f32>();

/// An `f32` buffer whose first value sits on a cache-line boundary, so that
/// rows a whole number of lines long never straddle one: a 64-byte vector
/// load or store that does costs two, and an allocator promises 16 bytes
/// (measured on the 64x256x256 layer at AVX-512: band loop 140 -> 82 µs).
/// The default is empty and unallocated.
#[derive(Default)]
pub(super) struct CacheAligned {
    buf: Vec<f32>,
    start: usize,
    len: usize,
}

impl CacheAligned {
    /// Makes this `len` values long, allocating only when that is more than
    /// it has ever been. The values are whatever the last use left: the user
    /// writes every one it reads.
    fn reset(&mut self, len: usize) {
        if self.buf.len() < len + LINE - 1 {
            self.buf = Vec::new(); // freed before, not beside, its successor
            self.buf = vec![0.0f32; len + LINE - 1];
            // `align_offset` may decline (`usize::MAX`); alignment is only speed.
            self.start = self.buf.as_ptr().align_offset(64).min(LINE - 1);
        }
        self.len = len;
    }

    fn as_slice(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// The expanded operand (B, or `A^T` in a transposed call) decoded to a
/// dense row-major matrix, zero-padded to whole tiles, plus every step's
/// packed bitmap. The buffers outlive one operand: every GEMM of a thread
/// expands into the same two, which grow to the largest operand they have
/// held.
#[derive(Default)]
pub(super) struct ExpandedB {
    /// `grid_k * warp_k` rows of `grid_n * wn` values: step `k` of tile row
    /// `kk` is row `kk * warp_k + k`, each tile's condensed values at their
    /// dense columns and zeros elsewhere, so the B rows of a block of
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
    /// Makes room for `rows` step rows of `grid_n` tiles `wn` wide.
    fn reserve(&mut self, rows: usize, grid_n: usize, wn: usize) {
        (self.grid_n, self.wn) = (grid_n, wn);
        self.rows.reset(rows * grid_n * wn);
        grow(&mut self.words, rows * grid_n);
    }

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

/// Lengthens `buf` to `len` if it is shorter; a longer one keeps its length,
/// and either way its contents — a reused buffer's user writes every cell it
/// reads.
pub(super) fn grow<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

/// What every band of one call shares: the operands and the warp tile
/// `(warp_m, warp_n, warp_k)`.
pub(super) struct Gemm<'g> {
    a: BandView<'g>,
    b: &'g ExpandedB,
    dims: (usize, usize, usize),
}

impl Gemm<'_> {
    /// `warp_n`.
    pub(super) fn tile_width(&self) -> usize {
        self.dims.1
    }
}

/// Decodes `src` into `b` with `L`'s [`Lanes::expand_row`]: step `k` of
/// band `jn` (its word and values) is row `k` of tile column `jn`. A
/// row-major B's bands give B itself; an A operand's give `A^T`, the
/// expanded operand of `D^T = B^T * A^T`. `inline(always)`, like everything
/// below that is generic over a lane type: the body has to land inside the
/// `#[target_feature]` callers of [`super::simd`] to be compiled at their
/// level.
#[inline(always)]
pub(super) fn expand<L: Lanes>(src: BandView<'_>, b: &mut ExpandedB) {
    let (wn, wk) = src.tile_shape();
    let (grid_k, grid_n) = (src.tiles(), src.count());
    b.reserve(grid_k * wk, grid_n, wn);
    // Every cell in use is written, so nothing of the previous operand
    // survives and nothing has to be cleared first.
    let values = b.rows.as_mut_slice();
    for kk in 0..grid_k {
        for jn in 0..grid_n {
            let tile = src.tile(jn, kk);
            for (k, &word) in src.words(jn)[kk * wk..][..wk].iter().enumerate() {
                let cell = (kk * wk + k) * grid_n + jn;
                let dst = &mut values[cell * wn..][..wn];
                b.words[cell] = word;
                match tile {
                    Some(tile) => L::expand_row(word, tile.step_values(k), dst),
                    None => dst.fill(0.0), // an empty tile's words are zero
                }
            }
        }
    }
}

/// Where a band's finished accumulator blocks go.
pub(super) trait Sink {
    /// Whether the sink takes the blocks in turn — every band of one block,
    /// in band order, before the next block — rather than the bands in turn,
    /// each band's blocks in ascending column order.
    const BLOCKS_IN_TURN: bool = false;

    /// Columns `col0..col0 + width` of `band`: `acc` is row-major, one row of
    /// `width` per live row of the band (`warp_m`, fewer in a ragged last
    /// band), zero in whatever pads the last tile column. The blocks arrive
    /// in the order [`Self::BLOCKS_IN_TURN`] asks for. `L` is the vector
    /// level's lane type, for a sink whose work has a vector form.
    fn block<L: Lanes>(&mut self, band: usize, col0: usize, width: usize, acc: &[f32]);

    /// `band` has had all its blocks.
    #[inline(always)]
    fn end_band(&mut self, _band: usize) {}
}

/// The dense output rows, optionally through ReLU.
struct DenseRows<'o> {
    rows: &'o mut [f32],
    cols: usize,
    wm: usize,
    relu: bool,
}

impl Sink for DenseRows<'_> {
    #[inline(always)]
    fn block<L: Lanes>(&mut self, band: usize, col0: usize, width: usize, acc: &[f32]) {
        let valid_c = width.min(self.cols - col0);
        let rows = self.rows[band * self.wm * self.cols..].chunks_exact_mut(self.cols);
        for (dst, acc_row) in rows.zip(acc.chunks_exact(width)) {
            let (dst, src) = (&mut dst[col0..col0 + valid_c], &acc_row[..valid_c]);
            if self.relu {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = x.max(0.0);
                }
            } else {
                dst.copy_from_slice(src);
            }
        }
    }
}

/// The dense output rows of `D = A * B`, written from the blocks of `D^T`:
/// a band is `wm` columns of `D` and a block's columns are rows of `D`, so
/// every block goes out transposed. It takes the blocks in turn, so that
/// once a block's last band is in, that block's rows of `D` are whole: it
/// stages them in `staged` (a workspace buffer, which stays in cache) and
/// appends them to `out`, which is therefore built in row order and never
/// zeroed first.
struct TransposedRows<'o> {
    out: Vec<f32>,
    staged: &'o mut CacheAligned,
    /// `D`'s rows and columns, `D^T`'s band height and band count.
    rows: usize,
    cols: usize,
    wm: usize,
    bands: usize,
}

impl<'o> TransposedRows<'o> {
    /// The sink of a `rows x cols` output whose `D^T` has `bands` bands of
    /// `wm` rows, staging in `staged`.
    fn new(
        staged: &'o mut CacheAligned,
        (rows, cols): (usize, usize),
        (wm, bands): (usize, usize),
    ) -> Self {
        TransposedRows { out: Vec::with_capacity(rows * cols), staged, rows, cols, wm, bands }
    }

    /// `D`, once every block has been in.
    fn into_matrix(self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.out)
    }
}

impl Sink for TransposedRows<'_> {
    const BLOCKS_IN_TURN: bool = true;

    /// Whole `L::N`-square pieces with the level's [`Lanes::transpose`], the
    /// ragged rest (a ragged band, the padding of `D`'s last rows) a value
    /// at a time. Every band of a block writes its own columns of the
    /// block's staged rows, and together they write all of them.
    #[inline(always)]
    fn block<L: Lanes>(&mut self, band: usize, col0: usize, width: usize, acc: &[f32]) {
        let (live, cols) = (acc.len() / width, self.cols);
        let height = width.min(self.rows - col0);
        self.staged.reset(width * cols);
        let dst = &mut self.staged.as_mut_slice()[band * self.wm..];
        let (whole_r, whole_c) = (live - live % L::N, height - height % L::N);
        for r in (0..whole_r).step_by(L::N) {
            for c in (0..whole_c).step_by(L::N) {
                L::transpose(&acc[r * width + c..], width, &mut dst[c * cols + r..], cols);
            }
        }
        for c in 0..height {
            let rest = if c < whole_c { whole_r } else { 0 };
            for r in rest..live {
                dst[c * cols + r] = acc[r * width + c];
            }
        }
        if band + 1 == self.bands {
            self.out.extend_from_slice(&self.staged.as_slice()[..height * cols]);
        }
    }
}

/// The B rows of one block step — a block being adjacent tile columns that
/// share an accumulator — held while the step's A column streams past.
pub(super) trait BlockRow: Sized {
    /// Values per held row, or `0` to take one tile's width from the
    /// operand at run time.
    const WIDTH: usize;

    /// The lane type of the level the block runs at, which the band loop
    /// hands on to its sink.
    type Lanes: Lanes;

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
    type Lanes = L;

    #[inline(always)]
    fn hold(b_row: &[f32]) -> Self {
        // Sliced to the block first, so that the loop's trip count is `V`:
        // LLVM then loads the registers, where over a trip count it cannot
        // see it stages them through a `memcpy` call per step.
        let b_row = &b_row[..V * L::N];
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
/// is a runtime-trip-count loop over the row where it lies, at the baseline.
pub(super) struct InMemory;

impl BlockRow for InMemory {
    const WIDTH: usize = 0;
    type Lanes = Portable;

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

/// One A tile (`a_tile`) against the block of B tiles as wide as `R` that
/// starts at tile `(kk, jn)`: for every step whose A word and block of B
/// words are both non-empty, hold the block's B rows, walk the set A bits
/// and `axpy` the rows into that row of `acc` (row-major, as wide as `R`).
/// The step's A values are read from `a_values`, its band's values widened
/// ([`TileView::step_range`]).
///
/// A B row that is empty inside a surviving block contributes `av * 0.0`,
/// which leaves every accumulator bit as it was; a non-finite `av` must not
/// meet those zeros and takes the masked path (see the bit-identity
/// contract the module docs point to).
#[inline(always)]
fn block_steps<R: BlockRow>(
    a_tile: TileView<'_>,
    a_values: &[f32],
    b: &ExpandedB,
    (kk, jn): (usize, usize),
    acc: &mut [f32],
) {
    let (a_words, width) = (a_tile.words(), R::width(b.wn));
    let tiles = width / b.wn;
    // Whole-step skip, one word test as in hardware, made for 64 steps at a
    // time: the loop visits only the steps whose A word is non-empty and
    // branches on none of the others (a transposed `gemm_extreme` call has
    // 27.5 % of them non-empty, at random, which a branch per step
    // mispredicts).
    for (group, words) in a_words.chunks(64).enumerate() {
        let mut live =
            (words.iter().enumerate()).fold(0u64, |live, (k, &aw)| live | u64::from(aw != 0) << k);
        while live != 0 {
            let k = 64 * group + live.trailing_zeros() as usize;
            live &= live - 1;
            let (b_words, b_row) = b.block_row(kk * a_words.len() + k, jn, tiles);
            if b_words.iter().all(|&bw| bw == 0) {
                continue;
            }
            let held = R::hold(b_row);
            let mut bits = a_words[k];
            for &av in &a_values[a_tile.step_range(k)] {
                let r = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let acc_row = &mut acc[r * width..(r + 1) * width];
                if av.is_finite() {
                    held.axpy(av, b_row, acc_row);
                    continue;
                }
                // `inf * 0.0` over the zero-filled columns would plant NaNs
                // the hardware never computes (it issues no MAC there); walk
                // only the set B bits, like the scalar reference.
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
}

/// Executes every band of `gemm` into `sink`, with `accs` as the block
/// accumulator and, behind it, the room for a band's values widened: the
/// bands in turn, or, for a sink that takes the blocks in turn
/// ([`Sink::BLOCKS_IN_TURN`]), every band of one block before the next.
/// Tile columns are taken `Wide` at a time while that many remain and `One`
/// (a single tile) at a time after that; when `Wide` is itself one tile the
/// two are the same type.
#[inline(always)]
pub(super) fn run_bands<S: Sink, Wide: BlockRow, One: BlockRow>(
    gemm: &Gemm<'_>,
    sink: &mut S,
    accs: &mut CacheAligned,
) {
    let (wm, wn, _) = gemm.dims;
    assert!(Wide::width(wn) % wn == 0 && One::width(wn) == wn, "blocks are whole tiles");
    let (bands, grid_n) = (gemm.a.count(), gemm.b.grid_n);
    let wide_tiles = Wide::width(wn) / wn;
    // Block `b` starts at tile column `block(b).0`: the first `wide` blocks
    // are `Wide`, the rest one tile each.
    let wide = grid_n / wide_tiles;
    let blocks = wide + grid_n % wide_tiles;
    let block = |b: usize| {
        if b < wide {
            (b * wide_tiles, true)
        } else {
            (b + wide * (wide_tiles - 1), false)
        }
    };
    // The band's values, widened at the level before its blocks run:
    // streaming, so that no step waits on a conversion of its own.
    let widest = (0..bands).map(|im| gemm.a.band_values(im).len()).max().unwrap_or(0);
    let acc_len = wm * Wide::width(wn);
    accs.reset(acc_len + widest.next_multiple_of(<Wide::Lanes as Lanes>::N));
    let (accs, values) = accs.as_mut_slice().split_at_mut(acc_len);
    let widen = |im: usize, values: &mut [f32]| {
        let halves = gemm.a.band_values(im);
        let values = &mut values[..halves.len().next_multiple_of(<Wide::Lanes as Lanes>::N)];
        Wide::Lanes::widen(halves, values);
    };
    if S::BLOCKS_IN_TURN {
        for b in 0..blocks {
            for im in 0..bands {
                widen(im, values);
                block_pass::<S, Wide, One>(gemm, sink, (accs, values), im, block(b));
            }
        }
        (0..bands).for_each(|im| sink.end_band(im));
    } else {
        for im in 0..bands {
            widen(im, values);
            for b in 0..blocks {
                block_pass::<S, Wide, One>(gemm, sink, (accs, values), im, block(b));
            }
            sink.end_band(im);
        }
    }
}

/// One block of [`run_bands`]: band `im`, its values widened in
/// `a_values`, against the tile columns from `jb` on (`Wide` ones if
/// `wide`, else one tile), accumulated in `accs` and handed to `sink`.
#[inline(always)]
fn block_pass<S: Sink, Wide: BlockRow, One: BlockRow>(
    gemm: &Gemm<'_>,
    sink: &mut S,
    (accs, a_values): (&mut [f32], &[f32]),
    im: usize,
    (jb, wide): (usize, bool),
) {
    let &Gemm { a, b, dims: (_, wn, _) } = gemm;
    let width = if wide { Wide::width(wn) } else { wn };
    // Only the band's live rows: a ragged last band (a small batch) has no
    // padding rows to zero, and its sink none to walk.
    let acc = &mut accs[..a.band_rows(im) * width];
    acc.fill(0.0);
    for kk in 0..a.tiles() {
        let Some(a_tile) = a.tile(im, kk) else { continue };
        if wide {
            block_steps::<Wide>(a_tile, a_values, b, (kk, jb), acc);
        } else {
            block_steps::<One>(a_tile, a_values, b, (kk, jb), acc);
        }
    }
    sink.block::<Wide::Lanes>(im, jb * wn, width, acc);
}

/// [`run_bands`] for an A operand that is one band of at most `ROWS` live
/// rows, with a row-major B's bands `b`, tiles `V` registers of `L` wide,
/// read where they lie.
/// Per tile column the block accumulator is `ROWS` rows of `V` registers,
/// held across every step; a step that survives both words decodes its B
/// row with [`Lanes::expand_row`] into one row on the stack, and the row
/// loop, a constant trip count over the A word's bits, unrolls, so each
/// accumulator stays the register it is. A step has at most `ROWS` A
/// values, each broadcast once: it is widened as it is broadcast
/// ([`Lanes::splat_half`]), which costs less than a round trip through a
/// stack row (≈ 8 % of a 2-row forward at AVX-512). Same products, added in the same
/// `k` order as [`block_steps`], so the same bits; a step with a non-finite
/// `av` puts the block in memory for [`block_steps`]' walk.
#[inline(always)]
pub(super) fn run_small_band<S: Sink, L: Lanes, const V: usize, const ROWS: usize>(
    a: BandView<'_>,
    b: BandView<'_>,
    sink: &mut S,
) {
    let (wn, _) = b.tile_shape();
    assert!(wn == NATIVE_WN && V * L::N == wn, "a tile row is the held registers");
    assert!(a.count() == 1 && a.band_rows(0) <= ROWS, "one band of at most ROWS rows");
    let rows = a.band_rows(0);
    let mut b_row = [0.0f32; NATIVE_WN];
    let mut out = [[0.0f32; NATIVE_WN]; ROWS];
    let spill = |acc: &[[L; V]; ROWS], out: &mut [[f32; NATIVE_WN]; ROWS]| {
        for (acc_row, row) in acc.iter().zip(out) {
            for (v, acc) in acc_row.iter().enumerate() {
                acc.store(&mut row[v * L::N..]);
            }
        }
    };
    for jn in 0..b.count() {
        let mut acc = [[L::splat(0.0); V]; ROWS];
        for kk in 0..a.tiles() {
            let (Some(a_tile), Some(b_tile)) = (a.tile(0, kk), b.tile(jn, kk)) else {
                continue;
            };
            for (k, (&aw, &bw)) in a_tile.words().iter().zip(b_tile.words()).enumerate() {
                if aw == 0 || bw == 0 {
                    continue;
                }
                L::expand_row(bw, b_tile.step_values(k), &mut b_row);
                let halves = a_tile.step_values(k);
                if halves.iter().all(|h| h.is_finite()) {
                    let mut held = [L::splat(0.0); V];
                    for (v, reg) in held.iter_mut().enumerate() {
                        *reg = L::load(&b_row[v * L::N..]);
                    }
                    let mut next = 0;
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        if aw >> r & 1 != 0 {
                            let av = L::splat_half(halves[next]);
                            next += 1;
                            for (acc, reg) in acc_row.iter_mut().zip(&held) {
                                *acc = reg.mac(av, *acc);
                            }
                        }
                    }
                } else {
                    // `block_steps`' walk, on the block in memory: a
                    // non-finite `av` meets only the set B bits.
                    spill(&acc, &mut out);
                    let mut bits = aw;
                    for av in halves.iter().map(|h| h.to_f32()) {
                        let row = &mut out[bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                        let mut cols = if av.is_finite() { u64::MAX >> (64 - wn) } else { bw };
                        while cols != 0 {
                            let c = cols.trailing_zeros() as usize;
                            cols &= cols - 1;
                            row[c] += av * b_row[c];
                        }
                    }
                    for (acc_row, row) in acc.iter_mut().zip(&out) {
                        for (v, acc) in acc_row.iter_mut().enumerate() {
                            *acc = L::load(&row[v * L::N..]);
                        }
                    }
                }
            }
        }
        spill(&acc, &mut out);
        sink.block::<L>(0, jn * wn, wn, out[..rows].as_flattened());
    }
    sink.end_band(0);
}

/// Everything a kernel call stages besides its result: the software stand-in
/// for the Tensor Core's fixed operand staging and accumulation buffer. One
/// per thread, so a serve device worker owns its own without a lock. Every
/// buffer grows to the largest call the thread has run and is reused by
/// capacity — rows, widths and tiling may all change from call to call — and
/// every cell a call reads it has written first, so nothing carries over but
/// the memory, which thread exit frees.
///
/// Keeping it is also what keeps the *result* cheap: a 512-cubed call that
/// frees a 1 MiB expansion and, later, its 1 MiB output at the top of the
/// heap crosses glibc's trim threshold, and the next call page-faults all of
/// it back in (≈ 500 minor faults per GEMM; none with the expansion held).
#[derive(Default)]
struct Workspace {
    b: ExpandedB,
    /// The band loop's block accumulator, and behind it a band of the
    /// condensed operand's values, widened.
    accs: CacheAligned,
    /// A forward's source and destination operands, swapped per layer.
    arenas: [Arena; 2],
    /// A transposed call's staged output rows, one block's worth.
    staged: CacheAligned,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// Whether a call runs as `D^T = B^T * A^T`, given how many values each
/// operand keeps, the output's `(rows, cols)` and the `(warp_m, warp_n)` of
/// its bands and tiles. It does when B keeps strictly fewer values per
/// output element — the transposed loop runs one `axpy` per B value over
/// `rows` where the plain one runs one per A value over `cols` — and the
/// transposed loop makes no more block passes, each a test of every step,
/// than the plain one. Only the operands' counts and shapes decide it.
pub(super) fn transposes(
    (a_nnz, b_nnz): (usize, usize),
    (m, n): (usize, usize),
    (wm, wn): (usize, usize),
) -> bool {
    let fewer_macs = (b_nnz as u128) * (m as u128) < (a_nnz as u128) * (n as u128);
    fewer_macs && block_passes(n, m, (wn, wm)) <= block_passes(m, n, (wm, wn))
}

/// The block passes the band loop makes over a `rows x cols` output in
/// `band`-row bands of `tile`-wide tiles, at the widest block any level
/// holds: per band, one per whole block and one per remainder tile.
fn block_passes(rows: usize, cols: usize, (band, tile): (usize, usize)) -> usize {
    let block = if tile == NATIVE_WN { simd::WIDEST_BLOCK_TILES } else { 1 };
    let tiles = cols.div_ceil(tile);
    rows.div_ceil(band) * (tiles / block + tiles % block)
}

/// Word-parallel `A * B`: `a` an encoded A operand, `b_enc` a two-level
/// bitmap B, in the orientation [`transposes`] picks. `level` is the vector
/// level every phase runs at; every level gives the same bits. The caller
/// has already validated the tilings and that `warp_m`/`warp_n` fit in a
/// word.
pub(crate) fn execute(a_enc: &EncodedA, b_enc: &TwoLevelBitmapMatrix, level: Level) -> Matrix {
    let (wm, _) = a_enc.bands().tile_shape();
    let counts = (a_enc.nnz(), b_enc.nnz());
    let transposed = transposes(counts, (a_enc.rows(), b_enc.cols()), (wm, b_enc.tile_cols()));
    execute_as(a_enc, b_enc, level, transposed)
}

/// [`execute`] in the orientation given: `A`'s bands against `B` expanded,
/// or, `transposed`, B's bands as the condensed `B^T`, read in place,
/// against `A^T` expanded, each product `b * a` where the plain loop has
/// `a * b` and the block written out transposed. Either way every output element adds the
/// same rounded products in the same `k` order, so both give the same bits.
pub(super) fn execute_as(
    a_enc: &EncodedA,
    b_enc: &TwoLevelBitmapMatrix,
    level: Level,
    transposed: bool,
) -> Matrix {
    let (a, bt) = (a_enc.bands(), b_enc.bands());
    let (wm, wk) = a.tile_shape();
    let (rows, cols, wn) = (a_enc.rows(), b_enc.cols(), b_enc.tile_cols());
    WORKSPACE.with_borrow_mut(|Workspace { b, accs, staged, .. }| {
        // The expanded operand is staged once per call; each expanded row is
        // reused by every band of the condensed one.
        if transposed {
            simd::expand(level, a, b);
            let mut sink = TransposedRows::new(staged, (rows, cols), (wn, bt.count()));
            simd::run_bands(level, &Gemm { a: bt, b, dims: (wn, wm, wk) }, &mut sink, accs);
            sink.into_matrix()
        } else {
            let mut out = Matrix::zeros(rows, cols);
            simd::expand(level, bt, b);
            let mut sink = DenseRows { rows: out.as_mut_slice(), cols, wm, relu: false };
            simd::run_bands(level, &Gemm { a, b, dims: (wm, wn, wk) }, &mut sink, accs);
            out
        }
    })
}

/// `dense` in `(warp_m, warp_k)` tiles at `level`, as an owned operand:
/// [`forward`]'s input encode, into the thread's first arena, whose four
/// arrays are then copied out at their exact length. Staging at the dense
/// bound costs a copy of what is kept; sizing exact buffers first would
/// cost a second read of `dense`, which is more.
pub(crate) fn encode_a(dense: &Matrix, tile: (usize, usize), level: Level) -> EncodedA {
    WORKSPACE.with_borrow_mut(|Workspace { arenas: [arena, _], .. }| {
        arena.reset(dense.rows(), dense.cols(), tile);
        arena.encode(dense, level);
        arena.packed()
    })
}

/// One layer of [`forward`], `a * weights` into `sink`. A band of at most
/// [`simd::small_rows`] rows pays more for expanding all of B than for
/// decoding the rows its steps meet, so it runs [`run_small_band`]; any
/// other runs [`expand`] and [`run_bands`] with `b` and `accs`.
fn layer<S: Sink>(
    level: Level,
    a: BandView<'_>,
    weights: BandView<'_>,
    b: &mut ExpandedB,
    dims: (usize, usize, usize),
    sink: &mut S,
    accs: &mut CacheAligned,
) {
    let small = a.count() == 1 && a.band_rows(0) <= simd::small_rows(level);
    if small && dims.1 == NATIVE_WN {
        simd::run_small_band(level, a, weights, sink);
    } else {
        simd::expand(level, weights, b);
        simd::run_bands(level, &Gemm { a, b, dims }, sink, accs);
    }
}

/// `input` through `layers` (`(weights, relu)`, at least one, dimensions
/// chained and tilings validated by the caller; `a_tile` is the A operand's
/// `(warp_m, warp_k)`): bit for bit what `encode_a`, [`execute`] and `relu`
/// per layer give, without the dense activations in between. The input and
/// every inner layer's output pass are emitted straight into one of two
/// [`Arena`]s, which the next layer's band loop reads; only the last layer
/// writes dense rows.
pub(crate) fn forward(
    input: &Matrix,
    layers: &[(&TwoLevelBitmapMatrix, bool)],
    a_tile: (usize, usize),
    level: Level,
) -> Matrix {
    let (&(last, last_relu), inner) = layers.split_last().expect("at least one layer");
    let (wm, wk) = a_tile;
    let dims = (wm, last.tile_cols(), wk);
    let widest = layers.iter().map(|(w, _)| w.rows()).max().expect("at least one layer");

    WORKSPACE.with_borrow_mut(|Workspace { b, accs, arenas: [src, dst], .. }| {
        let (mut src, mut dst) = (src, dst);
        src.reset(input.rows(), widest, a_tile);
        dst.reset(input.rows(), widest, a_tile);

        src.encode(input, level);
        for &(weights, relu) in inner {
            let mut sink = dst.emitter(weights.cols(), relu);
            layer(level, src.bands(), weights.bands(), b, dims, &mut sink, accs);
            std::mem::swap(&mut src, &mut dst);
        }
        let mut out = Matrix::zeros(input.rows(), last.cols());
        let mut sink =
            DenseRows { rows: out.as_mut_slice(), cols: last.cols(), wm, relu: last_relu };
        layer(level, src.bands(), last.bands(), b, dims, &mut sink, accs);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_formats::VectorLayout;
    use dsstc_tensor::SparsityPattern;

    #[test]
    fn expanded_b_is_the_padded_dense_operand_at_every_level() {
        // Rows 0..3 of every tile are an all-zero word, an all-one word and a
        // single bit at either end; the rest are random halves, which the
        // expansion widens back exactly. Widths cover one
        // expand chunk, a partial one, the native two and the full four.
        for wn in [5, 16, 24, 32, 33, 64] {
            let (wk, k, n) = (8, 21, 3 * wn - 2);
            let dense = Matrix::random_sparse(k, n, 0.6, SparsityPattern::Uniform, wn as u64);
            let mut dense = dense.to_f16_precision();
            for c in 0..n {
                dense[(0, c)] = 0.0;
                dense[(1, c)] = 1.0 + c as f32;
                dense[(2, c)] = if c % wn == 0 { 2.0 } else { 0.0 };
                dense[(3, c)] = if c % wn == wn - 1 { 3.0 } else { 0.0 };
            }
            for (r, c) in (0..wk).flat_map(|r| (wn..2 * wn).map(move |c| (r, c))) {
                dense[(r, c)] = 0.0;
            }
            let b_enc = TwoLevelBitmapMatrix::encode(&dense, wk, wn, VectorLayout::RowMajor);
            // A denser, taller operand goes through the same buffers first:
            // nothing of it may survive the second expansion, whose tile
            // (0, 1) is empty.
            let stale = Matrix::random_sparse(k + 9, n, 0.1, SparsityPattern::Uniform, 7);
            let stale = TwoLevelBitmapMatrix::encode(&stale, wk, wn, VectorLayout::RowMajor);
            let (rows, ld) = (b_enc.grid_rows() * wk, b_enc.grid_cols() * wn);
            for level in Level::available() {
                let mut b = ExpandedB::default();
                simd::expand(level, stale.bands(), &mut b);
                simd::expand(level, b_enc.bands(), &mut b);
                assert_eq!((b.grid_n, b.wn), (b_enc.grid_cols(), wn));
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

    /// `arena` against the formats encoder's column-major encoding of the
    /// same operand: every step's column word and every step's halves, bit
    /// for bit (both write one NaN).
    fn assert_arena_is(arena: BandView<'_>, want: &TwoLevelBitmapMatrix, context: &str) {
        let wk = want.tile_cols();
        assert_eq!((arena.count(), arena.tiles()), (want.grid_rows(), want.grid_cols()));
        for im in 0..want.grid_rows() {
            let words = arena.words(im);
            assert_eq!(words.len(), want.grid_cols() * wk, "{context}");
            for kk in 0..want.grid_cols() {
                let (got, want) = (arena.tile(im, kk), want.tile(im, kk));
                assert_eq!(got.is_some(), want.is_some(), "{context}: tile ({im},{kk})");
                for k in 0..wk {
                    let word = want.map_or(0, |tile| tile.words()[k]);
                    assert_eq!(words[kk * wk + k], word, "{context}: word ({im},{kk},{k})");
                    let (Some(got), Some(want)) = (got, want) else { continue };
                    let (got, want) = (got.step_values(k), want.step_values(k));
                    assert_eq!(got, want, "{context}: values ({im},{kk},{k})");
                }
            }
        }
    }

    /// [`assert_arena_is`] for an owned operand, which also has to decode to
    /// what the formats encoder's encoding does.
    fn assert_encoded_a_is(a_enc: &EncodedA, want: &TwoLevelBitmapMatrix, context: &str) {
        assert_arena_is(a_enc.bands(), want, context);
        assert_eq!(
            (a_enc.rows(), a_enc.cols(), a_enc.nnz()),
            (want.rows(), want.cols(), want.nnz())
        );
        let (got, want) = (a_enc.decode(), want.decode());
        assert!(got.as_slice().iter().zip(want.as_slice()).all(same_value), "{context}: decode");
    }

    /// Bit equality, any NaN matching any NaN.
    fn same_value((g, w): (&f32, &f32)) -> bool {
        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())
    }

    #[test]
    fn emitted_arena_equals_encode_a_of_the_relu_of_the_dense_output() {
        // Ragged in M, K and N; the input carries values FP16 storage flushes,
        // rounds to subnormals and turns infinite, so the output pass meets
        // NaN, infinities and negative zero-crossings. The dense-input encode
        // of a workspace arena, `encode_a` and the output-pass emit are all
        // held to the formats encoder, on the native tiling (transposed
        // tiles) and a 24-wide one (plain walk from in-memory blocks,
        // `warp_n` not a multiple of `warp_k`).
        let (m, kd, n) = (70, 45, 150);
        let mut x = Matrix::random_sparse(m, kd, 0.4, SparsityPattern::Uniform, 31);
        let tiny = 2.0f32.powi(-24);
        let specials =
            [f32::INFINITY, -7.0e4, tiny, tiny / 2.0, -1.5 * tiny, 2.0f32.powi(-15), -0.0];
        for (i, v) in specials.into_iter().enumerate() {
            x[(i * 9 % m, i * 7 % kd)] = v;
        }
        let w = Matrix::random_sparse(kd, n, 0.6, SparsityPattern::Uniform, 32);
        for (wm, wn, wk) in [(32, 32, 16), (32, 24, 16), (16, 64, 8)] {
            let x_want = TwoLevelBitmapMatrix::encode(&x, wm, wk, VectorLayout::ColumnMajor);
            let w_enc = TwoLevelBitmapMatrix::encode(&w, wk, wn, VectorLayout::RowMajor);
            for level in Level::available() {
                let x_enc = encode_a(&x, (wm, wk), level);
                let context = format!("{wm}x{wn}x{wk} {level:?}");
                assert_encoded_a_is(&x_enc, &x_want, &format!("encode_a, {context}"));
                let mut src = Arena::default();
                src.reset(m, kd.max(n), (wm, wk));
                src.encode(&x, level);
                assert_arena_is(src.bands(), &x_want, &format!("input, {context}"));
                let y = execute(&x_enc, &w_enc, level);
                for relu in [true, false] {
                    let y = if relu { y.relu() } else { y.clone() };
                    let want = TwoLevelBitmapMatrix::encode(&y, wm, wk, VectorLayout::ColumnMajor);
                    let mut b = ExpandedB::default();
                    simd::expand(level, w_enc.bands(), &mut b);
                    let mut dst = Arena::default();
                    dst.reset(m, kd.max(n), (wm, wk));
                    let gemm = Gemm { a: src.bands(), b: &b, dims: (wm, wn, wk) };
                    let mut accs = CacheAligned::default();
                    simd::run_bands(level, &gemm, &mut dst.emitter(n, relu), &mut accs);
                    let context = format!("{context} relu {relu}");
                    assert_arena_is(dst.bands(), &want, &context);
                    assert_encoded_a_is(&encode_a(&y, (wm, wk), level), &want, &context);
                }
            }
        }
    }

    #[test]
    fn one_arena_holds_batches_of_any_height_width_and_tiling_in_turn() {
        // A serve worker's batch height changes on every batch and a mixed
        // device pool changes the tiling: 64 rows, then 4, then 64 again, a
        // wider and a narrower operand, 16-row bands — each reset has to
        // leave exactly the formats encoding of the new operand, whatever the
        // buffers held, and so does `encode_a`, whose workspace arena each
        // batch before it reset to its own shape.
        let mut arena = Arena::default();
        let batches = [
            (64, 100, (32, 16)),
            (4, 100, (32, 16)),
            (64, 100, (32, 16)),
            (4, 37, (32, 32)),
            (70, 130, (16, 8)),
            (1, 1, (32, 16)),
            (64, 100, (32, 32)),
        ];
        for (i, (rows, cols, (wm, wk))) in batches.into_iter().enumerate() {
            let x = Matrix::random_sparse(rows, cols, 0.5, SparsityPattern::Uniform, 40 + i as u64);
            let want = TwoLevelBitmapMatrix::encode(&x, wm, wk, VectorLayout::ColumnMajor);
            for level in Level::available() {
                arena.reset(rows, cols, (wm, wk));
                arena.encode(&x, level);
                let context = format!("batch {i}: {rows}x{cols}, {wm}x{wk} tiles, {level:?}");
                assert_arena_is(arena.bands(), &want, &context);
                assert_encoded_a_is(&encode_a(&x, (wm, wk), level), &want, &context);
            }
        }
    }

    #[test]
    #[should_panic(expected = "the arena was reset for another batch")]
    fn an_arena_refuses_a_batch_it_was_not_reset_for() {
        let mut arena = Arena::default();
        arena.reset(64, 8, (32, 16));
        arena.encode(&Matrix::zeros(4, 8), Level::detect());
    }

    #[test]
    fn cache_aligned_buffers_start_on_a_line_and_have_the_asked_length() {
        // One buffer through growing and shrinking lengths, as a workspace's
        // are: shrinking and re-growing within the capacity must not move it.
        let mut buf = CacheAligned::default();
        for len in [0, 1, 15, 16, 1000, 16, 999, 1001] {
            let held = buf.buf.as_ptr();
            let fits = buf.buf.len() >= len + LINE - 1;
            buf.reset(len);
            let start = buf.as_slice().as_ptr();
            assert_eq!(start as usize % 64, 0);
            assert_eq!(buf.as_slice().len(), len);
            assert_eq!(buf.as_mut_slice().len(), len);
            assert_eq!(buf.as_mut_slice().as_ptr(), start);
            assert!(!fits || buf.buf.as_ptr() == held, "length {len} fits and reallocated");
        }
    }
}
