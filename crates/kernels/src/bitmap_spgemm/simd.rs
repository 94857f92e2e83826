//! Runs the hot loops of [`super::word`] at the widest vector level the CPU
//! has, picked at run time from CPUID.
//!
//! [`super::word`] writes the band loop and the B expansion once, and
//! [`super::arena`] the emitter (the A encode), over a small lane type
//! ([`Lanes`]: one vector register of `f32`s). This module owns the lane
//! types — a plain array for the baseline, `__m256` for AVX2, `__m512` for
//! AVX-512F+VL — and instantiates the loops per level under
//! `#[target_feature]`: the band loop (whose sink may be the emitter, which
//! it hands its lane type), the B expansion and the dense-operand encode.
//! AVX-512 overrides two lane ops with an instruction the other levels lack:
//! a B row is decoded with `vexpandps`, an emitter column compacted with
//! `vcompressps`. **FMA is never enabled** and [`Lanes::mac`] is a
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
use std::ops::Range;

use dsstc_formats::TwoLevelBitmapMatrix;
use dsstc_tensor::Matrix;

use super::arena::{Emitter, TILE_ROWS};
use super::word::{self, ExpandedB, Gemm, InMemory, Scratch, Sink, NATIVE_WN};

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
        // SAFETY: needs AVX. `Ymm` is named only by `run_bands_avx2` and
        // `encode_avx2`, which run only under a `Level` that
        // `Level::available()` built after `is_x86_feature_detected!("avx2")`
        // returned true.
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
        // SAFETY: needs AVX-512F. `Zmm` is named only by `run_bands_avx512`,
        // `expand_b_avx512` and `encode_avx512`, which run only under a
        // `Level` that `Level::available()` built after
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
}

// The band body holds a block step's B rows in eight registers whatever the
// level — what the smallest register file (sixteen) leaves once the
// accumulator row streaming past them has its share — so a block is 4
// native-width tiles at AVX-512, 2 at AVX2 and 1 at the baseline; the second
// type is the one-tile block that remainders run. `fma` is deliberately
// absent from both feature lists (see the module docs); `popcnt` is there
// for the expand-load's value cursor and the compress-store's, which are
// otherwise fifteen instructions of bit-twiddling per sixteen lanes.

/// [`word::run_bands`] compiled for `level`: register-held blocks at the
/// native tile width, the row left in memory at any other.
pub(super) fn run_bands<S: Sink>(
    level: Level,
    gemm: &Gemm<'_>,
    bands: Range<usize>,
    sink: &mut S,
    scratch: &mut Scratch,
) {
    if gemm.tile_width() != NATIVE_WN {
        return word::run_bands::<S, InMemory, InMemory>(gemm, bands, sink, scratch);
    }
    match level.0 {
        Isa::Baseline => {
            word::run_bands::<S, [Portable; 1], [Portable; 1]>(gemm, bands, sink, scratch)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_bands_avx2` requires AVX2. A `Level` holding
        // `Isa::Avx2` is built only by `Level::available()`, and only after
        // `is_x86_feature_detected!("avx2")` returned true on this CPU.
        Isa::Avx2 => unsafe { run_bands_avx2(gemm, bands, sink, scratch) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_bands_avx512` requires AVX-512F, AVX-512VL and
        // POPCNT. A `Level` holding `Isa::Avx512` is built only by
        // `Level::available()`, and only after `is_x86_feature_detected!`
        // returned true for `avx512f`, `avx512vl` and `popcnt` on this CPU.
        Isa::Avx512 => unsafe { run_bands_avx512(gemm, bands, sink, scratch) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_bands_avx2<S: Sink>(
    gemm: &Gemm<'_>,
    bands: Range<usize>,
    sink: &mut S,
    scratch: &mut Scratch,
) {
    word::run_bands::<S, [Ymm; 8], [Ymm; 4]>(gemm, bands, sink, scratch)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
fn run_bands_avx512<S: Sink>(
    gemm: &Gemm<'_>,
    bands: Range<usize>,
    sink: &mut S,
    scratch: &mut Scratch,
) {
    word::run_bands::<S, [Zmm; 8], [Zmm; 2]>(gemm, bands, sink, scratch)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_levels_start_at_the_baseline_and_end_at_the_detected_one() {
        let levels: Vec<Level> = Level::available().collect();
        assert_eq!(levels[0].name(), "baseline");
        assert_eq!(*levels.last().unwrap(), Level::detect());
    }
}
