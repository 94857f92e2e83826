//! Shared helpers for the table/figure harness binaries and Criterion
//! benches.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | binary | artifact |
//! |---|---|
//! | `table3_im2col` | Table III — im2col encoding comparison |
//! | `fig21_spgemm` | Figure 21 — SpGEMM sparsity sweep |
//! | `fig22_models` | Figure 22 — layer-wise model-inference speedups |
//! | `table4_overhead` | Table IV — hardware area/power overhead |

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::time::Instant;

/// Measures the wall-clock time of `f` in milliseconds, repeating it
/// `repeats` times and returning the minimum (the standard way to suppress
/// noise in micro-benchmarks run outside Criterion).
pub fn time_min_ms<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    assert!(repeats > 0, "at least one repeat is required");
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Formats a row of right-aligned cells for the plain-text tables the
/// harness binaries print.
pub fn format_row(label: &str, cells: &[String], width: usize) -> String {
    let mut out = format!("{label:<26}");
    for c in cells {
        out.push_str(&format!("{c:>width$}"));
    }
    out
}

/// The sparsity grid used by the Table III and Figure 21 sweeps.
pub fn sparsity_grid() -> Vec<f64> {
    vec![0.0, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_min_ms_returns_positive_duration() {
        let ms = time_min_ms(3, || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
        });
        assert!(ms >= 0.0);
        assert!(ms.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn zero_repeats_panics() {
        let _ = time_min_ms(0, || {});
    }

    #[test]
    fn format_row_aligns_cells() {
        let row = format_row("label", &["1.0".to_string(), "2.0".to_string()], 8);
        assert!(row.starts_with("label"));
        assert!(row.ends_with("     2.0"));
    }

    #[test]
    fn sparsity_grid_is_sorted_and_in_range() {
        let grid = sparsity_grid();
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert!(grid.iter().all(|&s| (0.0..1.0).contains(&s)));
    }
}
