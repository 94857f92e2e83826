//! Minimal IEEE-754 binary16 (half precision) emulation.
//!
//! The Tensor Core multiplies FP16 operands and accumulates in FP32. The
//! timing model never needs real half-precision arithmetic, but the
//! functional model rounds operand values through FP16 storage so that the
//! numerical behaviour (and the tolerance needed when checking outer-product
//! vs inner-product results) matches what the hardware would produce.

use std::fmt;

/// A 16-bit IEEE-754 binary16 value stored as its bit pattern.
///
/// Only the conversions to/from `f32` needed by the functional GEMM model are
/// provided; arithmetic is always carried out in `f32` after widening, which
/// is exactly what the FP16-multiply / FP32-accumulate datapath does.
///
/// `#[repr(transparent)]`: a slice of halves is laid out as the `u16` bit
/// patterns, which is what a vector load of stored halves reads.
///
/// # Example
/// ```
/// use dsstc_tensor::f16;
/// let x = f16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[allow(non_camel_case_types)]
#[repr(transparent)]
pub struct f16(u16);

/// `f32` magnitudes (bit patterns, sign cleared) at which FP16 rounding
/// changes regime: the smallest half-subnormal 2^-24, the smallest normalised
/// half 2^-14, and 65520, the first value that rounds to infinity.
const MIN_SUBNORMAL: u32 = 0x3380_0000;
const MIN_NORMAL: u32 = 0x3880_0000;
const OVERFLOW: u32 = 0x477F_F000;

impl f16 {
    /// Positive zero.
    pub const ZERO: f16 = f16(0);
    /// One.
    pub const ONE: f16 = f16(0x3C00);
    /// Largest finite value (65504.0).
    pub const MAX: f16 = f16(0x7BFF);

    /// Creates a half from its raw bit pattern.
    pub const fn from_bits(bits: u16) -> Self {
        f16(bits)
    }

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to the nearest representable half (round to nearest
    /// even), saturating to infinity on overflow. A NaN becomes the quiet
    /// `±0x7E00`.
    ///
    /// Where the half is finite and non-zero this is [`Self::round_f32`]'s
    /// in-pattern rounding and a shift; everything else takes the general
    /// conversion. The two agree on every bit pattern (tested
    /// exhaustively).
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let magnitude = value.to_bits() & 0x7FFF_FFFF;
        if (MIN_SUBNORMAL..OVERFLOW).contains(&magnitude) {
            return half_in_pattern(Self::round_f32_in_pattern(value));
        }
        Self::convert(value)
    }

    /// [`Self::from_f32`] by field arithmetic on every input: the reference
    /// its fast path and [`Self::round_f32`] are held to.
    fn convert(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            let payload = if mantissa != 0 { 0x0200 } else { 0 };
            return f16(sign | 0x7C00 | payload);
        }

        // Re-bias exponent: f32 bias 127, f16 bias 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity.
            return f16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normalised half.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let shifted = mantissa >> 13;
            let round_bit = (mantissa >> 12) & 1;
            let sticky = (mantissa & 0x0FFF) != 0;
            let mut half = sign | half_exp | shifted as u16;
            if round_bit == 1 && (sticky || (shifted & 1) == 1) {
                half = half.wrapping_add(1);
            }
            return f16(half);
        }
        if unbiased >= -24 {
            // Subnormal half.
            let full_mantissa = mantissa | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let shifted = full_mantissa >> shift;
            let round_mask = 1u32 << (shift - 1);
            let mut half = sign | shifted as u16;
            let remainder = full_mantissa & ((1u32 << shift) - 1);
            if remainder > round_mask || (remainder == round_mask && (shifted & 1) == 1) {
                half = half.wrapping_add(1);
            }
            return f16(half);
        }
        // Underflow to signed zero.
        f16(sign)
    }

    /// Widens the half to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & 0x8000) << 16;
        let exp = u32::from(self.0 >> 10) & 0x1F;
        let mantissa = u32::from(self.0 & 0x03FF);

        let bits = if exp == 0 {
            if mantissa == 0 {
                sign
            } else {
                // Subnormal: normalise.
                let mut e = 0i32;
                let mut m = mantissa;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                let exp32 = (127 - 15 + e + 1) as u32;
                sign | (exp32 << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mantissa << 13)
        } else {
            let exp32 = exp + 127 - 15;
            sign | (exp32 << 23) | (mantissa << 13)
        };
        f32::from_bits(bits)
    }

    /// Rounds an `f32` through half precision and back, emulating storage of
    /// an FP16 operand.
    ///
    /// Magnitudes whose half is finite and non-zero (2^-24 up to, but not
    /// including, 65520) never leave the `f32` bit pattern. Where the half
    /// is normalised (from 2^-14) that is round to nearest even on the 13
    /// mantissa bits a half drops, the carry rippling into the exponent.
    /// Below, the half is subnormal, a multiple of 2^-24: adding 0.5 puts
    /// the `f32` unit in the last place at 2^-24, so the hardware's own
    /// round-to-nearest-even does the rounding, and subtracting 0.5 again is
    /// exact. Everything else (zeros, magnitudes that flush to zero,
    /// overflow, infinities, NaN) goes through the general conversion and
    /// [`Self::to_f32`]; the two agree on every bit pattern (tested
    /// exhaustively).
    #[inline]
    pub fn round_f32(value: f32) -> f32 {
        let magnitude = value.to_bits() & 0x7FFF_FFFF;
        if (MIN_NORMAL..OVERFLOW).contains(&magnitude) {
            return round_normalised(value);
        }
        if (MIN_SUBNORMAL..MIN_NORMAL).contains(&magnitude) {
            return round_subnormal(value);
        }
        Self::convert(value).to_f32()
    }

    /// [`Self::round_f32`] without a branch, for callers that round a block
    /// at a time: exact for 2^-24 <= |value| < 65520, the two ranges that
    /// stay in the bit pattern; unspecified outside.
    #[inline(always)]
    pub fn round_f32_in_pattern(value: f32) -> f32 {
        if value.to_bits() & 0x7FFF_FFFF < MIN_NORMAL {
            round_subnormal(value)
        } else {
            round_normalised(value)
        }
    }

    /// Whether `value` is still a non-zero after [`Self::round_f32`], without
    /// rounding it: [`Self::from_f32`] flushes every |value| < 2^-24 to a
    /// signed zero (its subnormal path never rounds \[2^-25, 2^-24) up), so
    /// this is one compare. Written negated so that NaN, which rounding
    /// preserves, counts as surviving.
    #[inline(always)]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `>=` would drop NaN
    pub fn survives(value: f32) -> bool {
        !(value.abs() < f32::from_bits(MIN_SUBNORMAL))
    }

    /// Whether `value` is finite and small enough for its half to be finite
    /// too (|value| < 65520; false for NaN).
    #[inline(always)]
    pub fn fits_finite(value: f32) -> bool {
        value.to_bits() & 0x7FFF_FFFF < OVERFLOW
    }

    /// Whether the value is exactly zero (either sign).
    pub fn is_zero(self) -> bool {
        self.0 & 0x7FFF == 0
    }

    /// Whether the value is a NaN, of either sign and any payload.
    #[inline(always)]
    pub fn is_nan(self) -> bool {
        self.0 & 0x7FFF > 0x7C00
    }

    /// Whether the value is neither infinite nor NaN.
    #[inline(always)]
    pub fn is_finite(self) -> bool {
        self.0 & 0x7C00 != 0x7C00
    }
}

/// The half whose value is `rounded`, which is one (as
/// [`f16::round_f32_in_pattern`] returns), finite and non-zero: for a
/// normalised half the `f32` pattern shifted and its exponent re-biased
/// (127 to 15), for a subnormal one its multiple of 2^-24.
#[inline(always)]
fn half_in_pattern(rounded: f32) -> f16 {
    let bits = rounded.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let magnitude = bits & 0x7FFF_FFFF;
    let half = if magnitude >= MIN_NORMAL {
        (magnitude >> 13) - ((127 - 15) << 10)
    } else {
        (rounded.abs() * 16_777_216.0) as u32
    };
    f16(sign | half as u16)
}

/// [`f16::round_f32`] where the half is normalised and finite.
#[inline(always)]
fn round_normalised(value: f32) -> f32 {
    let bits = value.to_bits();
    f32::from_bits((bits + 0x0FFF + ((bits >> 13) & 1)) & !0x1FFF)
}

/// [`f16::round_f32`] where the half is subnormal and non-zero.
#[inline(always)]
fn round_subnormal(value: f32) -> f32 {
    ((value.abs() + 0.5) - 0.5).copysign(value)
}

impl fmt::Debug for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f16({})", self.to_f32())
    }
}

impl fmt::Display for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for f16 {
    fn from(value: f32) -> Self {
        f16::from_f32(value)
    }
}

impl From<f16> for f32 {
    fn from(value: f16) -> Self {
        value.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_roundtrip() {
        assert_eq!(f16::from_f32(0.0).to_bits(), 0);
        assert_eq!(f16::from_f32(-0.0).to_bits(), 0x8000);
        assert!(f16::from_f32(0.0).is_zero());
        assert!(f16::from_f32(-0.0).is_zero());
    }

    #[test]
    fn one_and_small_integers_are_exact() {
        for v in [1.0f32, 2.0, 3.0, 4.0, 0.5, 0.25, -1.0, -17.0, 2048.0] {
            assert_eq!(f16::round_f32(v), v, "value {v} should be exact in f16");
        }
    }

    #[test]
    fn max_value() {
        assert_eq!(f16::MAX.to_f32(), 65504.0);
        assert_eq!(f16::from_f32(65504.0).to_bits(), f16::MAX.to_bits());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(f16::from_f32(1e9).to_f32().is_infinite());
        assert!(f16::from_f32(-1e9).to_f32().is_infinite());
    }

    #[test]
    fn nan_propagates() {
        assert!(f16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn subnormal_roundtrip() {
        // Smallest positive subnormal half = 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16::from_f32(tiny).to_f32(), tiny);
        // Values below half the smallest subnormal flush to zero.
        assert_eq!(f16::from_f32(2.0f32.powi(-26)).to_f32(), 0.0);
    }

    #[test]
    fn rounding_is_to_nearest_even() {
        // 1.0 + 2^-11 is exactly between 1.0 and the next representable half
        // (1.0 + 2^-10); round-to-nearest-even keeps 1.0.
        let v = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16::round_f32(v), 1.0);
        // Slightly above the midpoint rounds up.
        let v = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-16);
        assert_eq!(f16::round_f32(v), 1.0 + 2.0f32.powi(-10));
    }

    /// `round_f32` against the conversion pair it short-cuts, bit for bit
    /// (NaNs included: both sides produce the same quiet pattern), its two
    /// companions against it, and `from_f32`'s short cut against the
    /// general conversion.
    fn assert_round_matches_conversions(bits: u32) {
        let x = f32::from_bits(bits);
        let (fast, slow) = (f16::round_f32(x), f16::convert(x).to_f32());
        assert_eq!(fast.to_bits(), slow.to_bits(), "input bits {bits:#010x}");
        assert_eq!(f16::from_f32(x), f16::convert(x), "from_f32, bits {bits:#010x}");
        // The branch-free variant wherever it promises to agree, and the
        // keep test everywhere.
        if f16::survives(x) && f16::fits_finite(x) {
            let in_pattern = f16::round_f32_in_pattern(x);
            assert_eq!(in_pattern.to_bits(), slow.to_bits(), "in pattern, bits {bits:#010x}");
        }
        assert_eq!(f16::survives(x), slow != 0.0, "survives, bits {bits:#010x}");
    }

    #[test]
    fn round_f32_fast_path_matches_the_conversions_at_every_edge_and_on_a_sweep() {
        // Every pattern within 4 ulp of each place the behaviour changes:
        // zero, the flush threshold 2^-25 / 2^-24 (the in-pattern range's
        // lower edge), 2^-14 where it switches from the subnormal to the
        // normalised rounding, its upper edge 65520 (and 65504 just inside
        // it), the top of the finite range, infinity and both kinds of NaN.
        let edges: [u32; 10] = [
            0x0000_0000, // +0
            0x3300_0000, // 2^-25
            0x3380_0000, // 2^-24
            0x3880_0000, // 2^-14
            0x477F_E000, // 65504
            0x477F_F000, // 65520
            0x7F7F_FFFF, // f32::MAX
            0x7F80_0000, // +inf
            0x7FC0_0000, // quiet NaN
            0x7FA0_0000, // signalling NaN
        ];
        for edge in edges {
            for delta in -4i64..=4 {
                let Ok(magnitude) = u32::try_from(i64::from(edge) + delta) else { continue };
                if magnitude > 0x7FFF_FFFF {
                    continue;
                }
                assert_round_matches_conversions(magnitude);
                assert_round_matches_conversions(magnitude | 0x8000_0000);
            }
        }
        // 4099 is prime, so the stride visits every low-bit residue.
        for bits in (0..=u32::MAX).step_by(4099) {
            assert_round_matches_conversions(bits);
        }
    }

    #[test]
    #[ignore = "all 2^32 bit patterns: ~25 s in release, run by CI"]
    fn round_f32_fast_path_matches_the_conversions_exhaustively() {
        for bits in 0..=u32::MAX {
            assert_round_matches_conversions(bits);
        }
    }

    #[test]
    fn ordering_of_magnitudes_is_preserved() {
        let mut prev = 0.0;
        for i in 1..100 {
            let v = i as f32 * 0.37;
            let r = f16::round_f32(v);
            assert!(r >= prev, "rounded sequence must be monotone");
            prev = r;
        }
    }

    #[test]
    fn classification_agrees_with_the_widened_value_on_every_half() {
        for bits in 0..=u16::MAX {
            let (h, x) = (f16::from_bits(bits), f16::from_bits(bits).to_f32());
            assert_eq!(h.is_nan(), x.is_nan(), "{bits:#06x}");
            assert_eq!(h.is_finite(), x.is_finite(), "{bits:#06x}");
        }
    }

    #[test]
    fn display_and_debug() {
        let x = f16::from_f32(1.5);
        assert_eq!(format!("{x}"), "1.5");
        assert_eq!(format!("{x:?}"), "f16(1.5)");
    }
}
