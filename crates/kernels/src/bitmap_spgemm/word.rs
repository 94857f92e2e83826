//! Word-parallel functional execution of the two-level bitmap SpGEMM.
//!
//! This is the software analogue of what the paper's hardware does in one
//! cycle per step: the per-step A-column and B-row bitmaps live in single
//! `u64` words ([`dsstc_formats::BitmapMatrix::vector_word`]), the
//! AND/empty test is one integer op, and the gather walks set bits with
//! `trailing_zeros` while consuming the condensed values sequentially —
//! no per-step `Vec` allocations and no per-bit bounds checks, unlike the
//! scalar reference ([`super::warp::warp_spgemm`], retained for
//! differential testing).
//!
//! Layout of one GEMM:
//!
//! * **B expansion** (once per call): every B tile's condensed rows are
//!   scattered into dense `warp_k x warp_n` step rows inside one flat
//!   tile-major buffer (two allocations per call, whatever the tile count).
//!   A step's accumulation is then a contiguous `axpy` over the tile row,
//!   while the step's packed word still short-circuits empty steps and
//!   empty tiles. The expansion is shared read-only across worker threads.
//! * **Width-specialised MAC step**: the step body is instantiated with the
//!   tile width as a compile-time constant for the native `warp_n` (32), so
//!   the `axpy` is straight-line SIMD; other tilings run the same body with
//!   a runtime width.
//! * **Runtime vector width**: the native-width band body is compiled once
//!   per vector level (baseline, AVX2, AVX-512; [`super::simd`]) and the
//!   level is picked from CPUID once per call. No level fuses the multiply
//!   and the add, so all of them produce the same bits.
//! * **Non-finite A values** take a masked path that touches only the set
//!   B bits: `inf * 0.0` over the zero-filled columns would otherwise plant
//!   NaNs the scalar reference (and the hardware) never computes.
//! * **Cache-blocked tile grid**: each output band (one `warp_m`-row strip)
//!   walks `jn` in blocks of [`JN_BLOCK`] tiles with `kk` innermost, so the
//!   block's accumulators stay L1-resident and the band's A-tile words
//!   (one buffer per call, refilled per band) are reused across the whole
//!   block.
//! * **Within-GEMM parallelism**: output bands are distributed over scoped
//!   [`std::thread`]s; each thread owns a disjoint row range of the output,
//!   so the result is deterministic and bit-identical at any thread count.

use std::ops::Range;

use dsstc_formats::{BitmapMatrix, TwoLevelBitmapMatrix};
use dsstc_tensor::Matrix;

use super::simd::{self, Level};

/// Output-tile columns accumulated together per band pass. Four 32x32 f32
/// accumulators are 16 KiB — comfortably L1-resident next to one prepared
/// B tile row.
const JN_BLOCK: usize = 4;

/// Minimum number of warp tiles in the output grid before spawning threads
/// pays for itself (thread startup is ~10 µs; a tile step chain is ~1 µs).
const MIN_TILES_FOR_THREADS: usize = 64;

/// The device-native `warp_n` (V100 and A100 both): the width the MAC step
/// is monomorphised for, and the only one that runs above the baseline
/// vector level.
pub(super) const NATIVE_WN: usize = 32;

/// Every B tile with its condensed rows scattered into dense step rows, in
/// two flat tile-major buffers (tile `(kk, jn)` is cell `kk * grid_n + jn`).
struct ExpandedB {
    /// `warp_k * warp_n` values per cell: row `k` of a cell holds step `k`'s
    /// condensed values scattered to their dense columns, zeros elsewhere,
    /// so a tile's step rows stay contiguous.
    rows: Vec<f32>,
    /// `warp_k` packed step bitmaps per cell; a zero word short-circuits
    /// the step, and an empty tile is simply `warp_k` zero words.
    words: Vec<u64>,
    /// Tile columns of the B grid (the cell stride of one `kk`).
    grid_n: usize,
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

fn expand_b(b_enc: &TwoLevelBitmapMatrix, wk: usize, wn: usize) -> ExpandedB {
    let (grid_k, grid_n) = (b_enc.grid_rows(), b_enc.grid_cols());
    let mut rows = vec![0.0f32; grid_k * grid_n * wk * wn];
    let mut words = vec![0u64; grid_k * grid_n * wk];
    let cells = rows.chunks_exact_mut(wk * wn).zip(words.chunks_exact_mut(wk));
    for (cell, (tile_rows, tile_words)) in cells.enumerate() {
        let Some(tile) = b_enc.tile(cell / grid_n, cell % grid_n) else { continue };
        for (k, (dst, word)) in tile_rows.chunks_exact_mut(wn).zip(tile_words).enumerate() {
            let w = tile.vector_word(k);
            *word = w;
            let mut bits = w;
            for &v in tile.vector_values(k) {
                dst[bits.trailing_zeros() as usize] = v;
                bits &= bits - 1;
            }
        }
    }
    ExpandedB { rows, words, grid_n }
}

/// Refills `words` (`grid_k * warp_k` of them) with the packed column word
/// of every step of band `im`'s A tiles; an empty tile is all-zero words.
fn prepare_a_band(a_enc: &TwoLevelBitmapMatrix, im: usize, wk: usize, words: &mut [u64]) {
    for (kk, tile_words) in words.chunks_exact_mut(wk).enumerate() {
        match a_enc.tile(im, kk) {
            Some(t) => {
                for (k, word) in tile_words.iter_mut().enumerate() {
                    *word = t.vector_word(k);
                }
            }
            None => tile_words.fill(0),
        }
    }
}

/// Accumulates one surviving warp tile: for every step whose A and B words
/// are both non-empty, gather the set A bits and `axpy` the expanded B row
/// into the corresponding accumulator rows.
///
/// `WN` is the tile width as a compile-time constant, or `0` to take it
/// from `wn` at run time: a constant width lets the `axpy` compile to
/// straight-line SIMD instead of a runtime-trip-count loop.
///
/// `inline(always)`, like [`run_bands`]: the body has to land inside the
/// `#[target_feature]` callers of [`super::simd`] to be compiled at their
/// vector width.
#[inline(always)]
fn tile_steps<const WN: usize>(
    a_words: &[u64],
    a_tile: &BitmapMatrix,
    b_words: &[u64],
    b_rows: &[f32],
    acc: &mut [f32],
    wn: usize,
) {
    let wn = if WN == 0 { wn } else { WN };
    for (k, (&aw, &bw)) in a_words.iter().zip(b_words).enumerate() {
        if aw == 0 || bw == 0 {
            continue; // whole-step skip: one word test, as in hardware
        }
        let b_row = &b_rows[k * wn..(k + 1) * wn];
        let mut bits = aw;
        for &av in a_tile.vector_values(k) {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let acc_row = &mut acc[r * wn..(r + 1) * wn];
            if !av.is_finite() {
                // `inf * 0.0` over the zero-filled columns would plant NaNs
                // the hardware never computes (it issues no MAC there); walk
                // only the set B bits, like the scalar reference.
                let mut b_bits = bw;
                while b_bits != 0 {
                    let c = b_bits.trailing_zeros() as usize;
                    b_bits &= b_bits - 1;
                    acc_row[c] += av * b_row[c];
                }
            } else if WN == 0 {
                for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            } else {
                // Accumulate in a local copy: updating `acc_row` in place
                // gets fully unrolled into scalar multiplies instead of
                // vectorised.
                let acc_row: &mut [f32; WN] = acc_row.try_into().expect("row is WN wide");
                let b_row: &[f32; WN] = b_row.try_into().expect("row is WN wide");
                let mut t = *acc_row;
                for c in 0..WN {
                    t[c] += av * b_row[c];
                }
                *acc_row = t;
            }
        }
    }
}

/// Executes `bands` into `out_chunk`, which must cover exactly the dense
/// rows `bands.start * warp_m ..` of the output. `WN` as in [`tile_steps`].
#[inline(always)]
pub(super) fn run_bands<const WN: usize>(
    gemm: &Gemm<'_>,
    bands: Range<usize>,
    out_chunk: &mut [f32],
) {
    let &Gemm { a_enc, b, out_rows, out_cols, dims: (wm, wn, wk) } = gemm;
    let (grid_k, grid_n) = (a_enc.grid_cols(), b.grid_n);
    let chunk_row0 = bands.start * wm;
    let mut accs = vec![0.0f32; JN_BLOCK * wm * wn];
    let mut a_words = vec![0u64; grid_k * wk];
    for im in bands {
        prepare_a_band(a_enc, im, wk, &mut a_words);
        let row0 = im * wm;
        let valid_r = wm.min(out_rows - row0);
        let mut jb = 0;
        while jb < grid_n {
            let jend = (jb + JN_BLOCK).min(grid_n);
            accs.fill(0.0);
            for kk in 0..grid_k {
                let Some(a_tile) = a_enc.tile(im, kk) else { continue };
                let a_words = &a_words[kk * wk..(kk + 1) * wk];
                for jn in jb..jend {
                    let cell = kk * grid_n + jn;
                    let b_words = &b.words[cell * wk..(cell + 1) * wk];
                    let b_rows = &b.rows[cell * wk * wn..(cell + 1) * wk * wn];
                    let acc = &mut accs[(jn - jb) * wm * wn..(jn - jb + 1) * wm * wn];
                    tile_steps::<WN>(a_words, a_tile, b_words, b_rows, acc, wn);
                }
            }
            for jn in jb..jend {
                let col0 = jn * wn;
                let valid_c = wn.min(out_cols - col0);
                let acc = &accs[(jn - jb) * wm * wn..];
                for r in 0..valid_r {
                    let dst_off = (row0 - chunk_row0 + r) * out_cols + col0;
                    out_chunk[dst_off..dst_off + valid_c]
                        .copy_from_slice(&acc[r * wn..r * wn + valid_c]);
                }
            }
            jb = jend;
        }
    }
}

/// Word-parallel `A * B` over two-level bitmap operands. `threads` is the
/// resolved worker count (>= 1); small grids stay single-threaded
/// regardless. `level` is the vector level the native-width MAC step runs
/// at; every level gives the same bits. The caller has already validated
/// layouts and tilings and that `warp_m`/`warp_n` fit in a word.
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
    // tile is reused `grid_m` times within a single call.
    let b = expand_b(b_enc, wk, wn);

    let mut out = Matrix::zeros(out_rows, out_cols);
    let gemm = Gemm { a_enc, b: &b, out_rows, out_cols, dims: (wm, wn, wk) };
    let run = |bands: Range<usize>, out_chunk: &mut [f32]| {
        if wn == NATIVE_WN {
            simd::run_native_bands(level, &gemm, bands, out_chunk)
        } else {
            run_bands::<0>(&gemm, bands, out_chunk)
        }
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
