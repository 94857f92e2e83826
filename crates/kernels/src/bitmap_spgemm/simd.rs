//! Runs the hot loops of [`super::word`] at the widest vector level the CPU
//! has, picked at run time from CPUID.
//!
//! [`super::word`] writes the band loop and the expansion (of B, or of A
//! transposed) once, and [`super::arena`] the emitter (the A encode),
//! over a small lane type ([`Lanes`]: one vector register of `f32`s). This
//! module owns the lane types — a plain array for the baseline, `__m256`
//! for AVX2+F16C, `__m512` for AVX-512F+VL+BW — and instantiates the loops
//! per level under `#[target_feature]`: the band loop (whose sink may be
//! the emitter or the transposed rows, which it hands its lane type), the
//! expansion and the dense-operand encode. The operands' values are stored
//! as FP16 halves and computed on as `f32`: a lane type widens them
//! ([`Lanes::widen`], [`Lanes::expand_row`]) and the emitter narrows the
//! halves it keeps ([`Lanes::compress`]), with the conversion instructions
//! (`vcvtph2ps` / `vcvtps2ph`) at AVX2 and AVX-512, and [`f16`]'s own at
//! the baseline. AVX-512 overrides two lane ops with an instruction the
//! other levels lack: a row is decoded with `vexpandps`, an emitter column
//! compacted with `vcompressps`; AVX2 and AVX-512 transpose a square of
//! lanes in registers (the transposing sink's blocks, the emitter's
//! tiles). Lane helpers that only shuffle registers loop a constant number
//! of times rather than build arrays with `std::array::from_fn`, whose
//! closure LLVM may outline, intrinsics and all, into a function compiled
//! without the level's features. **FMA is never enabled** and
//! [`Lanes::mac`] is a multiply then an add: a step stays a rounded
//! multiply then a rounded add at every level, which is what keeps the word
//! kernel bit-identical to the scalar reference (CI greps the emitted code
//! for `vfmadd`, see `ci/check_mac_asm.sh`).
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

use dsstc_formats::BandView;
use dsstc_tensor::{f16, Matrix};

use super::arena::{Emitter, TILE_ROWS};
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
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx512bw")
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

    /// [`Self::splat`] of `h` widened, for a loop that broadcasts a step's
    /// few values one at a time: the widen rides on the broadcast.
    #[inline(always)]
    fn splat_half(h: f16) -> Self {
        Self::splat(h.to_f32())
    }

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

    /// Widens the halves of `src` into the front of `dst`, exactly
    /// ([`f16::to_f32`]): a band's values into the row its steps then read.
    /// What `dst` holds past them is unspecified: a level may store a whole
    /// register over the last of them.
    ///
    /// # Panics
    /// Panics if `dst` is shorter than `src` or its length is not a
    /// multiple of [`Self::N`].
    #[inline(always)]
    fn widen(src: &[f16], dst: &mut [f32]) {
        assert!(
            src.len() <= dst.len() && dst.len().is_multiple_of(Self::N),
            "whole registers of room"
        );
        for (d, h) in dst.iter_mut().zip(src) {
            *d = h.to_f32();
        }
    }

    /// Decodes one condensed B row: `dst[c]` becomes the next of `vals`,
    /// widened, for every set bit `c` of `word`, ascending, and `0.0` for
    /// every clear one.
    ///
    /// # Panics
    /// Panics if `vals` holds more values than `word` has set bits or a set
    /// bit is at or past `dst.len()`.
    #[inline(always)]
    fn expand_row(word: u64, vals: &[f16], dst: &mut [f32]) {
        dst.fill(0.0);
        let mut bits = word;
        for &v in vals {
            dst[bits.trailing_zeros() as usize] = v.to_f32();
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

    /// Compacts one column of an emitter tile, whose values are all halves
    /// (rounded already, so narrowing them is exact) or `+0.0`: the values
    /// of `column` that are not `0.0` go, narrowed and in order, to the
    /// front of `dst`, and the returned word has bit `r` set when
    /// `column[r]` was one of them. What `dst` holds past them is
    /// unspecified.
    ///
    /// # Panics
    /// Panics if `dst` is shorter than `column`.
    #[inline(always)]
    fn compress(column: &[f32; TILE_ROWS], dst: &mut [f16]) -> u64 {
        compact(column, |r| f16::from_f32(column[r]), dst)
    }
}

/// [`Lanes::compress`] a value at a time, `half(r)` being `column[r]`
/// narrowed.
#[inline(always)]
fn compact(column: &[f32; TILE_ROWS], half: impl Fn(usize) -> f16, dst: &mut [f16]) -> u64 {
    let dst = &mut dst[..TILE_ROWS];
    let (mut bits, mut k) = (0u64, 0usize);
    for (r, &v) in column.iter().enumerate() {
        let keep = v != 0.0;
        dst[k] = half(r);
        k += usize::from(keep);
        bits |= u64::from(keep) << r;
    }
    bits
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
        // built after `is_x86_feature_detected!` returned true for `avx2`
        // and `f16c`.
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

    /// `vcvtph2ps` per eight halves, and per half of the ragged tail.
    #[inline(always)]
    fn widen(src: &[f16], dst: &mut [f32]) {
        assert!(src.len() <= dst.len() && dst.len().is_multiple_of(8), "whole registers of room");
        let dst = &mut dst[..src.len()];
        let chunks = src.chunks_exact(8);
        let (tail, whole) = (chunks.remainder(), src.len() / 8 * 8);
        for (halves, out) in chunks.zip(dst.chunks_exact_mut(8)) {
            // SAFETY: `halves` is eight readable halves (`chunks_exact`),
            // which `#[repr(transparent)]` lays out as eight `u16`s, and
            // `out` eight writable `f32`s; both accesses are unaligned.
            // F16C and AVX as in `splat` (`Level::available()`).
            unsafe {
                let h = _mm_loadu_si128(halves.as_ptr().cast());
                _mm256_storeu_ps(out.as_mut_ptr(), _mm256_cvtph_ps(h));
            }
        }
        for (d, &h) in dst[whole..].iter_mut().zip(tail) {
            *d = widen_one(h);
        }
    }

    /// The bit-walk scatter, its values widened eight at a time by one
    /// `vcvtph2ps` into a register's worth of stack, the ragged tail a half
    /// at a time.
    #[inline(always)]
    fn expand_row(word: u64, vals: &[f16], dst: &mut [f32]) {
        dst.fill(0.0);
        let mut bits = word;
        let mut put = |v: f32| {
            dst[bits.trailing_zeros() as usize] = v;
            bits &= bits - 1;
        };
        let chunks = vals.chunks_exact(8);
        let tail = chunks.remainder();
        for halves in chunks {
            let mut wide = [0.0f32; 8];
            // SAFETY: `halves` is eight readable halves (`chunks_exact`),
            // laid out as `u16`s (`#[repr(transparent)]`), and `wide` eight
            // writable `f32`s; both accesses are unaligned. F16C and AVX as
            // in `splat` (`Level::available()`).
            unsafe {
                let h = _mm_loadu_si128(halves.as_ptr().cast());
                _mm256_storeu_ps(wide.as_mut_ptr(), _mm256_cvtph_ps(h));
            }
            wide.into_iter().for_each(&mut put);
        }
        tail.iter().for_each(|&h| put(widen_one(h)));
    }

    /// The column narrowed with `vcvtps2ph` onto the stack, exactly (every
    /// value is a half), then compacted a value at a time.
    #[inline(always)]
    fn compress(column: &[f32; TILE_ROWS], dst: &mut [f16]) -> u64 {
        let mut halves = [f16::ZERO; TILE_ROWS];
        for (rows, out) in column.chunks_exact(8).zip(halves.chunks_exact_mut(8)) {
            // SAFETY: `rows` is eight readable `f32`s and `out` eight
            // writable halves (`chunks_exact`), laid out as `u16`s
            // (`#[repr(transparent)]`); both accesses are unaligned. F16C
            // and AVX as in `splat` (`Level::available()`).
            unsafe {
                let h = _mm256_cvtps_ph::<NEAREST>(_mm256_loadu_ps(rows.as_ptr()));
                _mm_storeu_si128(out.as_mut_ptr().cast(), h);
            }
        }
        compact(column, |r| halves[r], dst)
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

/// `h` widened by F16C's `vcvtph2ps` on the low lane of an `xmm` register:
/// the branch-free [`f16::to_f32`] for a lone value.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn widen_one(h: f16) -> f32 {
    // SAFETY: needs F16C, which every caller, a `Ymm` lane op, has as in
    // `Ymm::splat` (`Level::available()`); register-only.
    unsafe { _mm_cvtss_f32(_mm_cvtph_ps(_mm_cvtsi32_si128(i32::from(h.to_bits())))) }
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
        // `is_x86_feature_detected!` returned true for `avx512f`, `avx512vl`,
        // `avx512bw` and `popcnt`.
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

    /// `vpbroadcastw` and `vcvtph2ps`, register to register.
    #[inline(always)]
    fn splat_half(h: f16) -> Self {
        // SAFETY: AVX-512F, -VL and -BW as above (`Level::available()`);
        // register-only.
        Zmm(unsafe { _mm512_cvtph_ps(_mm256_set1_epi16(h.to_bits() as i16)) })
    }

    /// Per sixteen halves a load, `vcvtph2ps` and a store; the ragged tail
    /// through a masked load (`vmovdqu16`), so that no half past `src` is
    /// read, and a whole-register store.
    #[inline(always)]
    fn widen(src: &[f16], dst: &mut [f32]) {
        assert!(src.len() <= dst.len() && dst.len().is_multiple_of(16), "whole registers of room");
        let chunks = src.chunks_exact(16);
        let tail = chunks.remainder();
        let (whole, rest) = dst.split_at_mut(src.len() - tail.len());
        for (halves, out) in chunks.zip(whole.chunks_exact_mut(16)) {
            // SAFETY: `halves` is sixteen readable halves (`chunks_exact`),
            // laid out as `u16`s (`#[repr(transparent)]`), and `out` sixteen
            // writable `f32`s; both accesses are unaligned. AVX-512F as in
            // `splat` (`Level::available()`).
            unsafe {
                let h = _mm256_loadu_si256(halves.as_ptr().cast());
                _mm512_storeu_ps(out.as_mut_ptr(), _mm512_cvtph_ps(h));
            }
        }
        if !tail.is_empty() {
            let out = &mut rest[..16];
            // SAFETY: the masked load reads the `tail.len()` low lanes,
            // which are `tail`, and does not access the others; `out` is
            // sixteen writable `f32`s (the slice above: `dst`'s length is a
            // multiple of sixteen, and `tail` starts one) and the store is
            // unaligned. AVX-512F, -VL and -BW as in `splat`
            // (`Level::available()`).
            unsafe {
                let h = _mm256_maskz_loadu_epi16(low_lanes(tail.len()), tail.as_ptr().cast());
                _mm512_storeu_ps(out.as_mut_ptr(), _mm512_cvtph_ps(h));
            }
        }
    }

    /// Per sixteen columns a masked load of their halves, `vcvtph2ps`, then
    /// the register form of `vexpandps`, zeros in the clear lanes, so the
    /// row is written whole.
    #[inline(always)]
    fn expand_row(word: u64, vals: &[f16], dst: &mut [f32]) {
        assert_eq!(vals.len(), word.count_ones() as usize, "one value per set bit");
        let used = 64 - word.leading_zeros() as usize;
        assert!((used..=64).contains(&dst.len()), "a row holds every set bit, in one word");
        let mut rest = vals;
        for (i, chunk) in dst.chunks_mut(16).enumerate() {
            let mask = (word >> (16 * i)) as u16;
            let (src, tail) = rest.split_at(mask.count_ones() as usize);
            rest = tail;
            let keep = u16::MAX >> (16 - chunk.len());
            // SAFETY: the masked load reads the `src.len()` low lanes, one
            // half per set bit of `mask` (the `split_at` above, laid out as
            // `u16`s, `#[repr(transparent)]`), and does not access the
            // others; the expand is register-only; the masked store writes
            // the `chunk.len()` low lanes, which is all of `chunk` and no
            // more. AVX-512F, -VL and -BW as in `splat`
            // (`Level::available()`).
            unsafe {
                let h = _mm256_maskz_loadu_epi16(low_lanes(src.len()), src.as_ptr().cast());
                let row = _mm512_maskz_expand_ps(mask, _mm512_cvtph_ps(h));
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
    /// the default body has it, NaN included), the register form of the
    /// compress, `vcvtps2ph` (exact: every value is a half) and a masked
    /// store of the kept halves.
    #[inline(always)]
    fn compress(column: &[f32; TILE_ROWS], dst: &mut [f16]) -> u64 {
        let dst = &mut dst[..TILE_ROWS];
        let (mut bits, mut n) = (0u64, 0usize);
        for (i, rows) in column.chunks_exact(16).enumerate() {
            let dst = &mut dst[n..];
            // SAFETY: `rows` is sixteen readable `f32`s (`chunks_exact`) and
            // the load is unaligned. The masked store writes one half per
            // set bit of `keep`, at most sixteen, contiguously from the
            // start of `dst` (halves are `u16`s, `#[repr(transparent)]`);
            // every earlier chunk kept at most sixteen, so `n` is at most
            // `16 * i` and `dst`, which runs to the end of the
            // `TILE_ROWS`-long slice above, has at least sixteen writable
            // halves. AVX-512F, -VL and -BW as in `splat`
            // (`Level::available()`).
            let keep = unsafe {
                let v = _mm512_loadu_ps(rows.as_ptr());
                let keep = _mm512_cmpneq_ps_mask(v, _mm512_setzero_ps());
                let h = _mm512_cvtps_ph::<NEAREST>(_mm512_maskz_compress_ps(keep, v));
                let kept = low_lanes(keep.count_ones() as usize);
                _mm256_mask_storeu_epi16(dst.as_mut_ptr().cast(), kept, h);
                keep
            };
            bits |= u64::from(keep) << (16 * i);
            n += keep.count_ones() as usize;
        }
        bits
    }
}

/// `vcvtps2ph`'s rounding: to nearest even. The emitter narrows only
/// values that are halves already, which any rounding leaves as they are.
#[cfg(target_arch = "x86_64")]
const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT;

/// The lane mask of the `n` (at most sixteen) low lanes.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn low_lanes(n: usize) -> u16 {
    ((1u32 << n) - 1) as u16
}

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
// for the expand's value cursor and the compress's, which are otherwise
// fifteen instructions of bit-twiddling per sixteen lanes; `f16c` for the
// AVX2 conversions, and `avx512bw` for the masked loads and stores of
// sixteen halves that keep the AVX-512 ones inside their slices.

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
        // SAFETY: `run_bands_avx2` requires AVX2 and F16C. A `Level`
        // holding `Isa::Avx2` is built only by `Level::available()`, and
        // only after `is_x86_feature_detected!` returned true for `avx2` and
        // `f16c` on this CPU.
        Isa::Avx2 => unsafe { run_bands_avx2(gemm, sink, accs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_bands_avx512` requires AVX-512F, AVX-512VL,
        // AVX-512BW and POPCNT. A `Level` holding `Isa::Avx512` is built
        // only by `Level::available()`, and only after
        // `is_x86_feature_detected!` returned true for `avx512f`,
        // `avx512vl`, `avx512bw` and `popcnt` on this CPU.
        Isa::Avx512 => unsafe { run_bands_avx512(gemm, sink, accs) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
fn run_bands_avx2<S: Sink>(gemm: &Gemm<'_>, sink: &mut S, accs: &mut CacheAligned) {
    word::run_bands::<S, [Ymm; 8], [Ymm; 4]>(gemm, sink, accs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512bw,popcnt")]
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
    a: BandView<'_>,
    b: BandView<'_>,
    sink: &mut S,
) {
    match level.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_small_band_avx512` requires AVX-512F, AVX-512VL,
        // AVX-512BW and POPCNT; as in `run_bands`, an `Isa::Avx512` level
        // comes only from `Level::available()`, after all four feature
        // checks passed.
        Isa::Avx512 => unsafe { run_small_band_avx512(a, b, sink) },
        _ => panic!("{} has no small-band body", level.name()),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512bw,popcnt")]
fn run_small_band_avx512<S: Sink>(a: BandView<'_>, b: BandView<'_>, sink: &mut S) {
    word::run_small_band::<S, Zmm, 2, SMALL_ROWS>(a, b, sink)
}

/// [`word::expand`] compiled for `level`. Only AVX-512 has an expand
/// instruction; the other levels scatter a row's values a bit at a time,
/// widened a register at a time at AVX2 and a value at a time at the
/// baseline.
pub(super) fn expand(level: Level, src: BandView<'_>, b: &mut ExpandedB) {
    match level.0 {
        Isa::Baseline => word::expand::<Portable>(src, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `expand_avx2` requires AVX2 and F16C; as in `run_bands`,
        // an `Isa::Avx2` level comes only from `Level::available()`, after
        // both feature checks passed.
        Isa::Avx2 => unsafe { expand_avx2(src, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `expand_avx512` requires AVX-512F, AVX-512VL,
        // AVX-512BW and POPCNT; as in `run_bands`, an `Isa::Avx512` level
        // comes only from `Level::available()`, after all four feature
        // checks passed.
        Isa::Avx512 => unsafe { expand_avx512(src, b) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
fn expand_avx2(src: BandView<'_>, b: &mut ExpandedB) {
    word::expand::<Ymm>(src, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512bw,popcnt")]
fn expand_avx512(src: BandView<'_>, b: &mut ExpandedB) {
    word::expand::<Zmm>(src, b)
}

/// [`Emitter::encode`] compiled for `level`: the rounding and the transpose
/// at the level's width, and at AVX-512 the compaction as compress-stores.
pub(super) fn encode(level: Level, emitter: &mut Emitter<'_>, dense: &Matrix) {
    match level.0 {
        Isa::Baseline => emitter.encode::<Portable>(dense),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `encode_avx2` requires AVX2 and F16C; as in
        // `run_bands`, an `Isa::Avx2` level comes only from
        // `Level::available()`, after both feature checks passed.
        Isa::Avx2 => unsafe { encode_avx2(emitter, dense) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `encode_avx512` requires AVX-512F, AVX-512VL,
        // AVX-512BW and POPCNT; as in `run_bands`, an `Isa::Avx512` level
        // comes only from `Level::available()`, after all four feature
        // checks passed.
        Isa::Avx512 => unsafe { encode_avx512(emitter, dense) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
fn encode_avx2(emitter: &mut Emitter<'_>, dense: &Matrix) {
    emitter.encode::<Ymm>(dense)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512bw,popcnt")]
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
