//! Runs the native-width band body of [`super::word`] at the widest vector
//! level the CPU has, picked at run time from CPUID.
//!
//! The body is one `#[inline(always)]` function; this module instantiates
//! it under `#[target_feature]` for AVX2 and for AVX-512F+VL, so LLVM
//! vectorises the same 32-wide `axpy` with 8 or 16 lanes instead of the
//! baseline's 4. **FMA is never enabled**: a step stays a rounded multiply
//! then a rounded add at every level, which is what keeps the word kernel
//! bit-identical to the scalar reference (CI greps the emitted code for
//! `vfmadd`, see `ci/check_mac_asm.sh`).
//!
//! This is the only file in `dsstc-kernels`, `dsstc-formats` and
//! `dsstc-tensor` that contains `unsafe` code — the crate roots deny it and
//! `dsstc-kernels` allows it back on this module alone. The one obligation
//! is that a `#[target_feature]` function runs only on a CPU that has the
//! feature; [`Level`] carries that proof: its field is private, and the only
//! constructor ([`Level::available`]) hands out a level only after
//! `is_x86_feature_detected!` confirmed it.

use std::ops::Range;

use super::word::{self, Gemm, NATIVE_WN};

/// The instruction sets the band body is compiled for, narrowest first.
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
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
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

    /// The widest available level — what production calls run at. Three
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

/// [`word::run_bands`] at the native tile width, compiled for `level`.
pub(super) fn run_native_bands(
    level: Level,
    gemm: &Gemm<'_>,
    bands: Range<usize>,
    out_chunk: &mut [f32],
) {
    match level.0 {
        Isa::Baseline => word::run_bands::<NATIVE_WN>(gemm, bands, out_chunk),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_bands_avx2` requires AVX2. A `Level` holding
        // `Isa::Avx2` is built only by `Level::available`, and only after
        // `is_x86_feature_detected!("avx2")` returned true on this CPU.
        Isa::Avx2 => unsafe { run_bands_avx2(gemm, bands, out_chunk) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `run_bands_avx512` requires AVX-512F and AVX-512VL. A
        // `Level` holding `Isa::Avx512` is built only by `Level::available`,
        // and only after `is_x86_feature_detected!("avx512f")` and
        // `is_x86_feature_detected!("avx512vl")` both returned true on this
        // CPU.
        Isa::Avx512 => unsafe { run_bands_avx512(gemm, bands, out_chunk) },
    }
}

// `fma` is deliberately absent from both feature lists; see the module docs.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_bands_avx2(gemm: &Gemm<'_>, bands: Range<usize>, out_chunk: &mut [f32]) {
    word::run_bands::<NATIVE_WN>(gemm, bands, out_chunk)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn run_bands_avx512(gemm: &Gemm<'_>, bands: Range<usize>, out_chunk: &mut [f32]) {
    word::run_bands::<NATIVE_WN>(gemm, bands, out_chunk)
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
