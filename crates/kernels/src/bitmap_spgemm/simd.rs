//! Runs the hot loops of [`super::word`] at the widest vector level the CPU
//! has, picked at run time from CPUID.
//!
//! [`super::word`] writes the band loop and the two expansions (of B, and
//! of A transposed) once, and [`super::arena`] the emitter (the A encode),
//! over a small lane type ([`Lanes`]: one vector register of `f32`s). This
//! module owns the lane types — a plain array for the baseline, `__m256`
//! for AVX2, `__m512` for AVX-512F+VL — and instantiates the loops per
//! level under `#[target_feature]`: the band loop (whose sink may be the
//! emitter or the transposed rows, which it hands its lane type), the
//! expansions, the dense-operand encode and the survivor count that sizes
//! an owned A operand before it. AVX-512 overrides three lane ops with an
//! instruction the other levels lack: a row is decoded with `vexpandps`, an
//! emitter column compacted with `vcompressps`, survivors counted with a
//! compare mask and `popcnt`; AVX2 and AVX-512 transpose a square of lanes
//! in registers (the transposing sink's blocks, the emitter's tiles). Lane
//! helpers that only shuffle registers loop a constant number of times
//! rather than build arrays with `std::array::from_fn`, whose closure LLVM
//! may outline, intrinsics and all, into a function compiled without the
//! level's features. **FMA is never enabled** and [`Lanes::mac`] is a
//! multiply then an add: a step stays a rounded multiply then a rounded add
//! at every level, which is what keeps the word kernel bit-identical to the
//! scalar reference (CI greps the emitted code for `vfmadd`, see
//! `ci/check_mac_asm.sh`).
//!
//! This is the only file in `dsstc-kernels`, `dsstc-formats` and
//! `dsstc-tensor` that contains `unsafe` code — the crate roots deny it and
//! `dsstc-kernels` allows it back on this module alone. The one obligation
//! beyond pointer validity is that an AVX2 / AVX-512 instruction runs only
//! on a CPU that has it; [`Level`] carries that proof: its field is private,
//! and the only constructor ([`Level::available`]) hands out a level only
//! after `is_x86_feature_detected!` confirmed it. The two vector lane types
//! are private to this module and named only by the `#[target_feature]`
//! functions below, which run only under such a level.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use dsstc_formats::TwoLevelBitmapMatrix;
use dsstc_tensor::{f16, Matrix};

use super::arena::{Arena, Emitter, TILE_ROWS};
use super::word::{self, BlockRow, CacheAligned, ExpandedB, Gemm, InMemory, Sink, NATIVE_WN};

/// The instruction sets the loops are compiled for, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// The target's baseline features (SSE2 on x86-64).
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    const ALL: &'static [Isa] = &[
        Isa::Baseline,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
    ];

    fn supported(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("popcnt")
            }
        }
    }
}

/// A vector level this CPU is known to support. Exists outside this module
/// only as a value [`Level::available`] returned, so holding one proves the
/// feature check passed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Level(Isa);

impl Level {
    /// Every level this CPU can run, narrowest first; the portable baseline
    /// is always among them. Tests and benches iterate over this.
    pub fn available() -> impl Iterator<Item = Level> {
        Isa::ALL.iter().filter(|isa| isa.supported()).map(|&isa| Level(isa))
    }

    /// The widest available level — what production calls run at. A few
    /// cached-CPUID loads; taken once per GEMM, not per band or tile.
    pub(super) fn detect() -> Level {
        Level::available().last().expect("the baseline level is always available")
    }

    /// `"baseline"`, `"avx2"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
        }
    }
}

/// One vector register of `f32` lanes, and what a level does with it. Every
/// method is `#[inline(always)]`: the generic loops of [`super::word`] have
/// to land, lanes and all, inside the `#[target_feature]` functions below.
pub(super) trait Lanes: Copy {
    /// `f32` lanes per register.
    const N: usize;

    fn splat(x: f32) -> Self;

    /// The first [`Self::N`] values of `src`.
    ///
    /// # Panics
    /// Panics if `src` is shorter.
    fn load(src: &[f32]) -> Self;

    /// Overwrites the first [`Self::N`] values of `dst`.
    ///
    /// # Panics
    /// Panics if `dst` is shorter.
    fn store(self, dst: &mut [f32]);

    /// `acc + self * x` per lane, the product rounded before the add —
    /// never a fused multiply-add.
    fn mac(self, x: Self, acc: Self) -> Self;

    /// Decodes one condensed B row: `dst[c]` becomes the next of `vals` for
    /// every set bit `c` of `word`, ascending, and `0.0` for every clear
    /// one.
    ///
    /// # Panics
    /// Panics if `vals` holds more values than `word` has set bits or a set
    /// bit is at or past `dst.len()`.
    #[inline(always)]
    fn expand_row(word: u64, vals: &[f32], dst: &mut [f32]) {
        dst.fill(0.0);
        let mut bits = word;
        for &v in vals {
            dst[bits.trailing_zeros() as usize] = v;
            bits &= bits - 1;
        }
    }

    /// Transposes the `N x N` square at the front of `src`, whose rows are
    /// `src_stride` values apart, into `dst`, whose rows are `dst_stride`
    /// apart: `dst[c * dst_stride + r]` becomes `src[r * src_stride + c]`.
    ///
    /// # Panics
    /// Panics if either slice ends inside its square.
    #[inline(always)]
    fn transpose(src: &[f32], src_stride: usize, dst: &mut [f32], dst_stride: usize) {
        for r in 0..Self::N {
            for c in 0..Self::N {
                dst[c * dst_stride + r] = src[r * src_stride + c];
            }
        }
    }

    /// How many of `values` [`f16::survives`] keeps, NaN included.
    #[inline(always)]
    fn survivors(values: &[f32]) -> usize {
        // A `u32` sum per chunk vectorises where a `usize` count does not.
        (values.chunks(u32::MAX as usize))
            .map(|chunk| chunk.iter().map(|&x| u32::from(f16::survives(x))).sum::<u32>() as usize)
            .sum()
    }

    /// Compacts one column of an emitter tile: the values of `column` that
    /// are not `0.0` go, in order, to the front of `dst`, and the returned
    /// word has bit `r` set when `column[r]` was one of them. What `dst`
    /// holds past them is unspecified.
    ///
    /// # Panics
    /// Panics if `dst` is shorter than `column`.
    #[inline(always)]
    fn compress(column: &[f32; TILE_ROWS], dst: &mut [f32]) -> u64 {
        let dst = &mut dst[..TILE_ROWS];
        let (mut bits, mut k) = (0u64, 0usize);
        for (r, &v) in column.iter().enumerate() {
            let keep = v != 0.0;
            dst[k] = v;
            k += usize::from(keep);
            bits |= u64::from(keep) << r;
        }
        bits
    }
}

/// The portable lane type: a plain array one native tile wide, which LLVM
/// legalises into however many baseline registers that takes (eight SSE2 /
/// NEON ones) — narrower arrays tempt it into shuffling across them.
#[derive(Clone, Copy)]
pub(super) struct Portable([f32; NATIVE_WN]);

impl Lanes for Portable {
    const N: usize = NATIVE_WN;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        Portable([x; NATIVE_WN])
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        Portable(src[..NATIVE_WN].try_into().expect("a full register"))
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..NATIVE_WN].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn mac(self, x: Self, acc: Self) -> Self {
        let mut out = acc.0;
        for ((o, b), a) in out.iter_mut().zip(self.0).zip(x.0) {
            *o += a * b;
        }
        Portable(out)
    }
}

/// Eight lanes in a `ymm` register. Private: see the module docs.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Ymm(__m256);

#[cfg(target_arch = "x86_64")]
impl Lanes for Ymm {
    const N: usize = 8;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        // SAFETY: needs AVX. `Ymm` is named only by the `*_avx2` functions
        // below, which run only under a `Level` that `Level::available()`
        // built after `is_x86_feature_detected!("avx2")` returned true.
        Ymm(unsafe { _mm256_set1_ps(x) })
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let src = &src[..8];
        // SAFETY: the slice above is eight readable `f32`s and the load is
        // unaligned; AVX as in `splat` (`Level::available()`).
        Ymm(unsafe { _mm256_loadu_ps(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        let dst = &mut dst[..8];
        // SAFETY: the slice above is eight writable `f32`s and the store is
        // unaligned; AVX as in `splat` (`Level::available()`).
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn mac(self, x: Self, acc: Self) -> Self {
        // SAFETY: AVX as in `splat` (`Level::available()`); register-only.
        Ymm(unsafe { _mm256_add_ps(acc.0, _mm256_mul_ps(x.0, self.0)) })
    }

    /// Eight row loads, the 24 shuffles of an 8 x 8 transpose in registers,
    /// eight column stores.
    #[inline(always)]
    fn transpose(src: &[f32], src_stride: usize, dst: &mut [f32], dst_stride: usize) {
        let mut rows = [Ymm::splat(0.0).0; 8];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = Ymm::load(&src[r * src_stride..]).0;
        }
        // SAFETY: AVX as in `splat` (`Level::available()`); register-only.
        let cols = unsafe { transpose_8x8(rows) };
        for (c, col) in cols.into_iter().enumerate() {
            Ymm(col).store(&mut dst[c * dst_stride..]);
        }
    }
}

/// `r` (eight rows) transposed. Each step interleaves what the one before
/// paired: rows, then pairs of rows, so that `u[4 * q + j]` holds column
/// `4 * l + j` of rows `4 * q..4 * q + 4` in 128-bit lane `l`; the lanes then
/// gather into columns.
///
/// # Safety
/// Needs AVX.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose_8x8(r: [__m256; 8]) -> [__m256; 8] {
    // SAFETY: AVX is the caller's obligation, which `Ymm::transpose` meets
    // as in `splat` (`Level::available()`); every operation is
    // register-only.
    unsafe {
        let mut t = r;
        for i in (0..8).step_by(2) {
            t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
            t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
        }
        let mut u = [_mm256_setzero_pd(); 8];
        for q in 0..2 {
            for p in 0..2 {
                let x = _mm256_castps_pd(t[4 * q + p]);
                let y = _mm256_castps_pd(t[4 * q + p + 2]);
                u[4 * q + 2 * p] = _mm256_unpacklo_pd(x, y);
                u[4 * q + 2 * p + 1] = _mm256_unpackhi_pd(x, y);
            }
        }
        let mut out = r;
        for j in 0..4 {
            let (x, y) = (_mm256_castpd_ps(u[j]), _mm256_castpd_ps(u[4 + j]));
            out[j] = _mm256_permute2f128_ps::<0x20>(x, y);
            out[4 + j] = _mm256_permute2f128_ps::<0x31>(x, y);
        }
        out
    }
}

/// Sixteen lanes in a `zmm` register. Private: see the module docs.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Zmm(__m512);

#[cfg(target_arch = "x86_64")]
impl Lanes for Zmm {
    const N: usize = 16;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        // SAFETY: needs AVX-512F. `Zmm` is named only by the `*_avx512`
        // functions below (and compile-time width checks), which run only
        // under a `Level` that `Level::available()` built after
        // `is_x86_feature_detected!` returned true for `avx512f`, `avx512vl`
        // and `popcnt`.
        Zmm(unsafe { _mm512_set1_ps(x) })
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let src = &src[..16];
        // SAFETY: the slice above is sixteen readable `f32`s and the load is
        // unaligned; AVX-512F as in `splat` (`Level::available()`).
        Zmm(unsafe { _mm512_loadu_ps(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        let dst = &mut dst[..16];
        // SAFETY: the slice above is sixteen writable `f32`s and the store
        // is unaligned; AVX-512F as in `splat` (`Level::available()`).
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn mac(self, x: Self, acc: Self) -> Self {
        // SAFETY: AVX-512F as in `splat` (`Level::available()`);
        // register-only.
        Zmm(unsafe { _mm512_add_ps(acc.0, _mm512_mul_ps(x.0, self.0)) })
    }

    /// `vexpandps`: sixteen columns per masked expand-load, zeros in the
    /// clear lanes, so the row is written whole.
    #[inline(always)]
    fn expand_row(word: u64, vals: &[f32], dst: &mut [f32]) {
        assert_eq!(vals.len(), word.count_ones() as usize, "one value per set bit");
        let used = 64 - word.leading_zeros() as usize;
        assert!((used..=64).contains(&dst.len()), "a row holds every set bit, in one word");
        let mut rest = vals;
        for (i, chunk) in dst.chunks_mut(16).enumerate() {
            let mask = (word >> (16 * i)) as u16;
            let (src, tail) = rest.split_at(mask.count_ones() as usize);
            rest = tail;
            let keep = u16::MAX >> (16 - chunk.len());
            // SAFETY: `src` is one `f32` per set bit of `mask` (the
            // `split_at` above), which is all the expand-load reads — it
            // does not access masked-off lanes; the masked store writes the
            // `chunk.len()` low lanes, which is all of `chunk` and no more.
            // AVX-512F as in `splat` (`Level::available()`).
            unsafe {
                let row = _mm512_maskz_expandloadu_ps(mask, src.as_ptr());
                _mm512_mask_storeu_ps(chunk.as_mut_ptr(), keep, row);
            }
        }
    }

    /// Sixteen row loads, the 64 shuffles of a 16 x 16 transpose in
    /// registers, sixteen column stores.
    #[inline(always)]
    fn transpose(src: &[f32], src_stride: usize, dst: &mut [f32], dst_stride: usize) {
        let mut rows = [Zmm::splat(0.0).0; 16];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = Zmm::load(&src[r * src_stride..]).0;
        }
        // SAFETY: AVX-512F as in `splat` (`Level::available()`);
        // register-only.
        let cols = unsafe { transpose_16x16(rows) };
        for (c, col) in cols.into_iter().enumerate() {
            Zmm(col).store(&mut dst[c * dst_stride..]);
        }
    }

    /// `vcompressps`: per sixteen rows one compare against zero (`!=` as
    /// the default body has it, NaN included) and one masked compress-store.
    #[inline(always)]
    fn compress(column: &[f32; TILE_ROWS], dst: &mut [f32]) -> u64 {
        let dst = &mut dst[..TILE_ROWS];
        let (mut bits, mut n) = (0u64, 0usize);
        for (i, rows) in column.chunks_exact(16).enumerate() {
            let dst = &mut dst[n..];
            // SAFETY: `rows` is sixteen readable `f32`s (`chunks_exact`) and
            // the load is unaligned. The compress-store writes one `f32` per
            // set bit of `keep`, at most sixteen, contiguously from the start
            // of `dst`; every earlier chunk kept at most sixteen, so `n` is
            // at most `16 * i` and `dst`, which runs to the end of the
            // `TILE_ROWS`-long slice above, has at least sixteen writable
            // `f32`s. AVX-512F as in `splat` (`Level::available()`).
            let keep = unsafe {
                let v = _mm512_loadu_ps(rows.as_ptr());
                let keep = _mm512_cmpneq_ps_mask(v, _mm512_setzero_ps());
                _mm512_mask_compressstoreu_ps(dst.as_mut_ptr(), keep, v);
                keep
            };
            bits |= u64::from(keep) << (16 * i);
            n += keep.count_ones() as usize;
        }
        bits
    }

    /// Per sixteen values one compare of their magnitudes against the least
    /// kept one, not-less-than and unordered so that NaN counts as
    /// [`f16::survives`] has it, and one popcount of the mask; the ragged
    /// tail through a masked load.
    #[inline(always)]
    fn survivors(values: &[f32]) -> usize {
        let least = Zmm::splat(LEAST_KEPT).0;
        let chunks = values.chunks_exact(16);
        let tail = chunks.remainder();
        let mut n = 0;
        for chunk in chunks {
            // SAFETY: `chunk` is sixteen readable `f32`s (`chunks_exact`)
            // and the load is unaligned. AVX-512F as in `splat`
            // (`Level::available()`).
            let kept = unsafe {
                let v = _mm512_loadu_ps(chunk.as_ptr());
                _mm512_cmp_ps_mask::<_CMP_NLT_UQ>(_mm512_abs_ps(v), least)
            };
            n += kept.count_ones() as usize;
        }
        let live = ((1u32 << tail.len()) - 1) as u16;
        // SAFETY: the masked load reads the lanes set in `live`, the
        // `tail.len()` (fewer than sixteen) low ones, which are `tail`; it
        // does not access masked-off lanes. AVX-512F as in `splat`
        // (`Level::available()`).
        let kept = unsafe {
            let v = _mm512_maskz_loadu_ps(live, tail.as_ptr());
            _mm512_mask_cmp_ps_mask::<_CMP_NLT_UQ>(live, _mm512_abs_ps(v), least)
        };
        n + kept.count_ones() as usize
    }
}

/// The least magnitude [`f16::survives`] keeps: 2^-24, FP16's least
/// subnormal.
#[cfg(target_arch = "x86_64")]
const LEAST_KEPT: f32 = 1.0 / 16_777_216.0;

/// `r` (sixteen rows) transposed: [`transpose_8x8`]'s two interleaving
/// steps, after which `u[4 * q + j]` holds column `4 * l + j` of rows
/// `4 * q..4 * q + 4` in 128-bit lane `l`, then two rounds of 128-bit lane
/// shuffles that gather each column's four lanes.
///
/// # Safety
/// Needs AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose_16x16(r: [__m512; 16]) -> [__m512; 16] {
    // SAFETY: AVX-512F is the caller's obligation, which `Zmm::transpose`
    // meets as in `splat` (`Level::available()`); every operation is
    // register-only.
    unsafe {
        let mut t = r;
        for i in (0..16).step_by(2) {
            t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
            t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
        }
        let mut u = r;
        for q in 0..4 {
            for p in 0..2 {
                let x = _mm512_castps_pd(t[4 * q + p]);
                let y = _mm512_castps_pd(t[4 * q + p + 2]);
                u[4 * q + 2 * p] = _mm512_castpd_ps(_mm512_unpacklo_pd(x, y));
                u[4 * q + 2 * p + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(x, y));
            }
        }
        // Lanes 0-1 and 2-3 of rows 0-7, then of rows 8-15; then lane `l`
        // of all four quarters.
        let mut w = r;
        for h in 0..2 {
            for j in 0..4 {
                let (x, y) = (u[8 * h + j], u[8 * h + 4 + j]);
                w[8 * h + j] = _mm512_shuffle_f32x4::<0x44>(x, y);
                w[8 * h + 4 + j] = _mm512_shuffle_f32x4::<0xee>(x, y);
            }
        }
        let mut out = r;
        for g in 0..2 {
            for j in 0..4 {
                let (x, y) = (w[4 * g + j], w[8 + 4 * g + j]);
                out[8 * g + j] = _mm512_shuffle_f32x4::<0x88>(x, y);
                out[8 * g + 4 + j] = _mm512_shuffle_f32x4::<0xdd>(x, y);
            }
        }
        out
    }
}

// The band body holds a block step's B rows in eight registers whatever the
// level — what the smallest register file (sixteen) leaves once the
// accumulator row streaming past them has its share — so a block is 4
// native-width tiles at AVX-512, 2 at AVX2 and 1 at the baseline; the second
// type is the one-tile block that remainders run. `fma` is deliberately
// absent from both feature lists (see the module docs); `popcnt` is there
// for the expand-load's value cursor and the compress-store's, which are
// otherwise fifteen instructions of bit-twiddling per sixteen lanes.

/// Native tiles in the widest block any level holds: AVX-512's.
pub(super) const WIDEST_BLOCK_TILES: usize = 4;

#[cfg(target_arch = "x86_64")]
const _: () = assert!(<[Zmm; 8] as BlockRow>::WIDTH == WIDEST_BLOCK_TILES * NATIVE_WN);

/// [`word::run_bands`] compiled for `level`: register-held blocks at the
/// native tile width, the row left in memory at any other.
pub(super) fn run_bands<S: Sink>(
    level: Level,
    gemm: &Gemm<'_>,
    sink: &mut S,
    accs: &mut CacheAligned,
) {
    if gemm.tile_width() != NATIVE_WN {
        return word::run_bands::<S, InMemory, InMemory>(gemm, sink, accs);
    }
    match level.0 {
        Isa::Baseline => word::run_bands::<S, [Portable; 1], [Portable; 1]>(gemm, sink, accs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_bands_avx2` requires AVX2. A `Level` holding
        // `Isa::Avx2` is built only by `Level::available()`, and only after
        // `is_x86_feature_detected!("avx2")` returned true on this CPU.
        Isa::Avx2 => unsafe { run_bands_avx2(gemm, sink, accs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_bands_avx512` requires AVX-512F, AVX-512VL and
        // POPCNT. A `Level` holding `Isa::Avx512` is built only by
        // `Level::available()`, and only after `is_x86_feature_detected!`
        // returned true for `avx512f`, `avx512vl` and `popcnt` on this CPU.
        Isa::Avx512 => unsafe { run_bands_avx512(gemm, sink, accs) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_bands_avx2<S: Sink>(gemm: &Gemm<'_>, sink: &mut S, accs: &mut CacheAligned) {
    word::run_bands::<S, [Ymm; 8], [Ymm; 4]>(gemm, sink, accs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
fn run_bands_avx512<S: Sink>(gemm: &Gemm<'_>, sink: &mut S, accs: &mut CacheAligned) {
    word::run_bands::<S, [Zmm; 8], [Zmm; 2]>(gemm, sink, accs)
}

/// Live rows [`word::run_small_band`] holds at AVX-512: 8 rows of one
/// native tile, 2 `zmm` each, are 16 of its 32 registers, which leaves the
/// decoded B row, the broadcast and the loop's own. At the narrower levels a
/// tile row is 4 or 8 of 16 registers, too few rows to pay for the body.
pub(super) const SMALL_ROWS: usize = 8;

#[cfg(target_arch = "x86_64")]
const _: () = assert!(SMALL_ROWS * NATIVE_WN / <Zmm as Lanes>::N == 16);

/// Rows at or under which a forward's band runs [`word::run_small_band`] at
/// `level`: [`SMALL_ROWS`] at AVX-512, none elsewhere.
pub(super) fn small_rows(level: Level) -> usize {
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => SMALL_ROWS,
        _ => 0,
    }
}

/// [`word::run_small_band`] compiled for `level`.
///
/// # Panics
/// Panics if `level` has no small-band body ([`small_rows`] is 0).
pub(super) fn run_small_band<S: Sink>(
    level: Level,
    a: &Arena,
    b_enc: &TwoLevelBitmapMatrix,
    sink: &mut S,
) {
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_small_band_avx512` requires AVX-512F, AVX-512VL and
        // POPCNT; as in `run_bands`, an `Isa::Avx512` level comes only from
        // `Level::available()`, after all three feature checks passed.
        Isa::Avx512 => unsafe { run_small_band_avx512(a, b_enc, sink) },
        _ => panic!("{} has no small-band body", level.name()),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
fn run_small_band_avx512<S: Sink>(a: &Arena, b_enc: &TwoLevelBitmapMatrix, sink: &mut S) {
    word::run_small_band::<S, Zmm, 2, SMALL_ROWS>(a, b_enc, sink)
}

/// [`word::expand_b`] compiled for `level`. Only AVX-512 has an expand
/// instruction; the other levels share the bit-walk scatter, which no vector
/// width helps.
pub(super) fn expand_b(level: Level, b_enc: &TwoLevelBitmapMatrix, b: &mut ExpandedB) {
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `expand_b_avx512` requires AVX-512F, AVX-512VL and POPCNT;
        // as in `run_bands`, an `Isa::Avx512` level comes only from
        // `Level::available()`, after all three feature checks passed.
        Isa::Avx512 => unsafe { expand_b_avx512(b_enc, b) },
        _ => word::expand_b::<Portable>(b_enc, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
fn expand_b_avx512(b_enc: &TwoLevelBitmapMatrix, b: &mut ExpandedB) {
    word::expand_b::<Zmm>(b_enc, b)
}

/// [`word::expand_at`] compiled for `level`, with the same split as
/// [`expand_b`].
pub(super) fn expand_at(level: Level, a: &Arena, b: &mut ExpandedB) {
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `expand_at_avx512` requires AVX-512F, AVX-512VL and
        // POPCNT; as in `run_bands`, an `Isa::Avx512` level comes only from
        // `Level::available()`, after all three feature checks passed.
        Isa::Avx512 => unsafe { expand_at_avx512(a, b) },
        _ => word::expand_at::<Portable>(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
fn expand_at_avx512(a: &Arena, b: &mut ExpandedB) {
    word::expand_at::<Zmm>(a, b)
}

/// [`Emitter::encode`] compiled for `level`: the rounding and the transpose
/// at the level's width, and at AVX-512 the compaction as compress-stores.
pub(super) fn encode(level: Level, emitter: &mut Emitter<'_>, dense: &Matrix) {
    match level.0 {
        Isa::Baseline => emitter.encode::<Portable>(dense),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `encode_avx2` requires AVX2; as in `run_bands`, an
        // `Isa::Avx2` level comes only from `Level::available()`, after the
        // feature check passed.
        Isa::Avx2 => unsafe { encode_avx2(emitter, dense) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `encode_avx512` requires AVX-512F, AVX-512VL and POPCNT;
        // as in `run_bands`, an `Isa::Avx512` level comes only from
        // `Level::available()`, after all three feature checks passed.
        Isa::Avx512 => unsafe { encode_avx512(emitter, dense) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn encode_avx2(emitter: &mut Emitter<'_>, dense: &Matrix) {
    emitter.encode::<Ymm>(dense)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
fn encode_avx512(emitter: &mut Emitter<'_>, dense: &Matrix) {
    emitter.encode::<Zmm>(dense)
}

/// [`Lanes::survivors`] of `values` at `level`: how many an [`EncodedA`]
/// keeps, which it counts before [`encode`] writes them. At AVX-512 a
/// compare mask and a popcount per sixteen values.
///
/// [`EncodedA`]: super::EncodedA
pub(super) fn survivors(level: Level, values: &[f32]) -> usize {
    match level.0 {
        Isa::Baseline => Portable::survivors(values),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `survivors_avx2` requires AVX2; as in `run_bands`, an
        // `Isa::Avx2` level comes only from `Level::available()`, after the
        // feature check passed.
        Isa::Avx2 => unsafe { survivors_avx2(values) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `survivors_avx512` requires AVX-512F, AVX-512VL and
        // POPCNT; as in `run_bands`, an `Isa::Avx512` level comes only from
        // `Level::available()`, after all three feature checks passed.
        Isa::Avx512 => unsafe { survivors_avx512(values) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn survivors_avx2(values: &[f32]) -> usize {
    Ymm::survivors(values)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
fn survivors_avx512(values: &[f32]) -> usize {
    Zmm::survivors(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_levels_start_at_the_baseline_and_end_at_the_detected_one() {
        let levels: Vec<Level> = Level::available().collect();
        assert_eq!(levels[0].name(), "baseline");
        assert_eq!(*levels.last().unwrap(), Level::detect());
    }

    #[test]
    fn every_level_counts_the_values_f16_survives_keeps() {
        // The keep threshold 2^-24 and its two f32 neighbours, signed zeros,
        // f32 subnormals, infinities and NaN, in every position of every
        // length up to past four sixteen-lane chunks, so that every level's
        // whole chunks and ragged tail both meet each of them.
        let tiny = 2.0f32.powi(-24);
        let specials = [
            tiny,
            -tiny,
            f32::from_bits(tiny.to_bits() - 1),
            -f32::from_bits(tiny.to_bits() - 1),
            f32::from_bits(tiny.to_bits() + 1),
            -f32::from_bits(tiny.to_bits() + 1),
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            1.0,
            -7.0e4,
        ];
        for len in 0..=70 {
            for shift in 0..specials.len() {
                let values: Vec<f32> =
                    (0..len).map(|i| specials[(i * 7 + shift) % specials.len()]).collect();
                let want = values.iter().filter(|&&x| f16::survives(x)).count();
                for level in Level::available() {
                    let got = survivors(level, &values);
                    assert_eq!(got, want, "{level:?}, {len} values from {shift}");
                }
            }
        }
    }
}
