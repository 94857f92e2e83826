//! Weight pruning schemes (paper Table II).
//!
//! * **AGP** (Automated Gradual Pruning, Zhu & Gupta): the cubic sparsity
//!   schedule used to prune the CNN and RNN models.
//! * **Magnitude pruning** to an exact target sparsity (the per-step action
//!   AGP takes, and a stand-in for movement pruning's final mask since only
//!   the resulting sparsity pattern matters to the accelerator).
//! * **N:M structured pruning** (2:4 Ampere-style, 8:32 vector-wise) used by
//!   the single-side baselines.

use dsstc_tensor::Matrix;

/// The AGP cubic sparsity schedule.
///
/// Between `begin_step` and `end_step` the target sparsity ramps from
/// `initial` to `final_sparsity` following
/// `s_t = s_f + (s_i - s_f) * (1 - (t - t0)/(t1 - t0))^3`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgpSchedule {
    /// Sparsity at the start of pruning.
    pub initial: f64,
    /// Sparsity at the end of pruning.
    pub final_sparsity: f64,
    /// First pruning step.
    pub begin_step: u64,
    /// Last pruning step.
    pub end_step: u64,
}

impl AgpSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    /// Panics if the sparsities are outside `[0, 1]` or the step range is
    /// empty.
    pub fn new(initial: f64, final_sparsity: f64, begin_step: u64, end_step: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&initial) && (0.0..=1.0).contains(&final_sparsity),
            "sparsity must be in [0,1]"
        );
        assert!(end_step > begin_step, "end_step must be after begin_step");
        AgpSchedule { initial, final_sparsity, begin_step, end_step }
    }

    /// Target sparsity at training step `step`.
    pub fn sparsity_at(&self, step: u64) -> f64 {
        if step <= self.begin_step {
            return self.initial;
        }
        if step >= self.end_step {
            return self.final_sparsity;
        }
        let progress = (step - self.begin_step) as f64 / (self.end_step - self.begin_step) as f64;
        self.final_sparsity + (self.initial - self.final_sparsity) * (1.0 - progress).powi(3)
    }
}

/// Target sparsity of the default AGP schedule (initial 0, given final) at a
/// fractional training `progress` in `[0, 1]`.
pub fn agp_target_sparsity(final_sparsity: f64, progress: f64) -> f64 {
    let schedule = AgpSchedule::new(0.0, final_sparsity, 0, 1_000);
    schedule.sparsity_at((progress.clamp(0.0, 1.0) * 1_000.0) as u64)
}

/// Magnitude pruning: zeroes the smallest-magnitude weights until the matrix
/// reaches `target_sparsity`.
///
/// Exactly `round(len * target_sparsity)` weights are zeroed: the threshold
/// is that many-th smallest magnitude, found by linear-time selection
/// (`O(n)`, no sort), and the weights whose magnitude is at most the
/// threshold are zeroed in storage (row-major) order until the count is
/// reached, so among weights tied at the threshold the earliest go. `±0.0`
/// have the same magnitude. Magnitudes are ranked by their bit patterns,
/// which order every non-NaN magnitude numerically and rank a NaN above
/// `+inf` (so a NaN weight is the last to be pruned).
///
/// # Panics
/// Panics if `target_sparsity` is outside `[0, 1]`.
pub fn prune_magnitude(weights: &Matrix, target_sparsity: f64) -> Matrix {
    assert!((0.0..=1.0).contains(&target_sparsity), "sparsity must be in [0,1]");
    let total = weights.rows() * weights.cols();
    let prune_count = (total as f64 * target_sparsity).round() as usize;
    if prune_count == 0 {
        return weights.clone();
    }
    let mut ranks: Vec<u32> = weights.as_slice().iter().map(|&x| magnitude_rank(x)).collect();
    let threshold = *ranks.select_nth_unstable(prune_count - 1).1;
    let mut out = weights.clone();
    let mut pruned = 0usize;
    for v in out.as_mut_slice() {
        if pruned >= prune_count {
            break;
        }
        if magnitude_rank(*v) <= threshold {
            *v = 0.0;
            pruned += 1;
        }
    }
    out
}

/// The rank of `|x|`: its bit pattern, which for non-NaN values orders the
/// same as the magnitude (`±0.0` both rank 0) and puts a NaN above `+inf`.
fn magnitude_rank(x: f32) -> u32 {
    x.to_bits() & 0x7fff_ffff
}

/// N:M structured pruning: within every group of `m` consecutive row
/// elements only the `n` largest-magnitude values survive. `n = 2, m = 4`
/// gives Ampere's 2:4 pattern; `n = 8, m = 32` gives the vector-wise pattern
/// of the Sparse Tensor Core baseline. A ragged last group of `g` elements
/// keeps `ceil(n * g / m)`. Magnitudes are ordered by [`f32::total_cmp`], so
/// a NaN ranks above `+inf`, and ties keep the earlier element.
///
/// # Panics
/// Panics if `m == 0` or `n > m`.
pub fn prune_n_of_m(weights: &Matrix, n: usize, m: usize) -> Matrix {
    assert!(m > 0 && n <= m, "invalid N:M pruning parameters");
    let mut out = Matrix::zeros(weights.rows(), weights.cols());
    for r in 0..weights.rows() {
        for g0 in (0..weights.cols()).step_by(m) {
            let glen = m.min(weights.cols() - g0);
            let gkeep = (n * glen).div_ceil(m).min(glen);
            let mut idx: Vec<usize> = (0..glen).collect();
            idx.sort_by(|&i, &j| weights[(r, g0 + j)].abs().total_cmp(&weights[(r, g0 + i)].abs()));
            for &i in idx.iter().take(gkeep) {
                out[(r, g0 + i)] = weights[(r, g0 + i)];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_tensor::SparsityPattern;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The comparison-sort pruner [`prune_magnitude`] replaced, kept as its
    /// reference: the same threshold read off fully sorted magnitudes, the
    /// same storage-order zeroing. Defined for inputs without NaN.
    fn prune_magnitude_by_sort(weights: &Matrix, target_sparsity: f64) -> Matrix {
        assert!((0.0..=1.0).contains(&target_sparsity), "sparsity must be in [0,1]");
        let total = weights.rows() * weights.cols();
        let prune_count = (total as f64 * target_sparsity).round() as usize;
        if prune_count == 0 {
            return weights.clone();
        }
        let mut magnitudes: Vec<f32> = weights.as_slice().iter().map(|x| x.abs()).collect();
        magnitudes.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let threshold = magnitudes[(prune_count - 1).min(total - 1)];
        let mut out = weights.clone();
        let mut pruned = 0usize;
        for v in out.as_mut_slice() {
            if pruned >= prune_count {
                break;
            }
            if v.abs() <= threshold {
                *v = 0.0;
                pruned += 1;
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// A `rows x cols` matrix built to collide: each weight is one of a few
    /// per-matrix magnitudes with either sign, a special value (`±0.0`,
    /// subnormals, `±inf`, `±MAX`) or a fresh uniform draw.
    fn colliding_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        const SPECIALS: [f32; 10] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE / 2.0,
            1.0e-45,
            -1.0e-45,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
        ];
        let repeated: Vec<f32> =
            (0..rng.random_range(1usize..5)).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let data = (0..rows * cols)
            .map(|_| match rng.random_range(0u32..10) {
                0..=3 => {
                    let x = repeated[rng.random_range(0..repeated.len())];
                    if rng.random_bool(0.5) {
                        -x
                    } else {
                        x
                    }
                }
                4 => SPECIALS[rng.random_range(0..SPECIALS.len())],
                _ => rng.random_range(-1.0f32..1.0),
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    proptest! {
        #[test]
        fn prune_magnitude_matches_the_sort_bit_for_bit(
            rows in 1usize..=70,
            cols in 1usize..=70,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = colliding_matrix(rows, cols, &mut rng);
            let total = (rows * cols) as f64;
            // 0 and 1, a uniform draw, and either side of the half-way
            // points where `round(total * s)` steps from k to k + 1.
            let k = rng.random_range(0..rows * cols) as f64;
            let edge = (k + 0.5) / total;
            let mut targets = vec![0.0, 1.0, rng.random_range(0.0..1.0), edge.min(1.0)];
            targets.extend([edge.next_down(), edge.next_up()].map(|t| t.clamp(0.0, 1.0)));
            for target in targets {
                prop_assert_eq!(
                    bits(&prune_magnitude(&w, target)),
                    bits(&prune_magnitude_by_sort(&w, target)),
                    "{}x{} at sparsity {}", rows, cols, target
                );
            }
        }
    }

    #[test]
    fn magnitude_pruning_ranks_nan_above_infinity() {
        // A NaN weight is kept like the largest magnitude: swapping it for
        // +inf changes no other weight's fate, and it survives.
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (rows, cols) = (rng.random_range(2usize..25), rng.random_range(2usize..25));
            let mut w = colliding_matrix(rows, cols, &mut rng);
            let at = rng.random_range(0..rows * cols);
            let target = rng.random_range(0.0..0.9);
            w.as_mut_slice()[at] = f32::INFINITY;
            let with_inf = prune_magnitude(&w, target);
            w.as_mut_slice()[at] = f32::NAN;
            let with_nan = prune_magnitude(&w, target);
            assert!(with_nan.as_slice()[at].is_nan(), "seed {seed}: the NaN was pruned");
            for (i, (x, y)) in with_nan.as_slice().iter().zip(with_inf.as_slice()).enumerate() {
                assert!(i == at || x.to_bits() == y.to_bits(), "seed {seed}, weight {i}");
            }
        }
    }

    #[test]
    fn n_of_m_pruning_ranks_nan_above_infinity() {
        // Under `total_cmp` a NaN is the largest magnitude, so no group
        // holding one trips the sort's total-order check (groups of more
        // than 20 elements are sorted by code that panics on an inconsistent
        // comparator), and every finite weight keeps its fate. 80 columns
        // leave a ragged last group of 16.
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w = Matrix::random_sparse(4, 80, 0.2, SparsityPattern::Uniform, seed);
            let (r, c) = (rng.random_range(0usize..4), rng.random_range(0usize..80));
            w[(r, c)] = f32::INFINITY;
            let with_inf = prune_n_of_m(&w, 8, 32);
            w[(r, c)] = f32::NAN;
            let with_nan = prune_n_of_m(&w, 8, 32);
            assert!(with_nan[(r, c)].is_nan(), "seed {seed}: the NaN was pruned");
            for (i, (x, y)) in with_nan.as_slice().iter().zip(with_inf.as_slice()).enumerate() {
                assert!(i == r * 80 + c || x.to_bits() == y.to_bits(), "seed {seed}, weight {i}");
            }
        }
    }

    #[test]
    fn agp_schedule_endpoints_and_monotonicity() {
        let s = AgpSchedule::new(0.0, 0.9, 100, 1100);
        assert_eq!(s.sparsity_at(0), 0.0);
        assert_eq!(s.sparsity_at(100), 0.0);
        assert_eq!(s.sparsity_at(1100), 0.9);
        assert_eq!(s.sparsity_at(5000), 0.9);
        let mut prev = 0.0;
        for step in (100..=1100).step_by(100) {
            let v = s.sparsity_at(step);
            assert!(v >= prev, "schedule must be non-decreasing");
            prev = v;
        }
    }

    #[test]
    fn agp_schedule_is_cubic_front_loaded() {
        // AGP prunes aggressively early: by half the schedule more than half
        // the final sparsity is reached.
        let s = AgpSchedule::new(0.0, 0.8, 0, 1000);
        assert!(s.sparsity_at(500) > 0.4 + 0.8 / 4.0);
        assert!((agp_target_sparsity(0.8, 0.5) - s.sparsity_at(500)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "end_step")]
    fn agp_invalid_steps_panic() {
        let _ = AgpSchedule::new(0.0, 0.5, 10, 10);
    }

    #[test]
    fn magnitude_pruning_hits_target_sparsity() {
        let w = Matrix::random_sparse(64, 64, 0.0, SparsityPattern::Uniform, 1);
        for &target in &[0.25, 0.5, 0.9] {
            let pruned = prune_magnitude(&w, target);
            assert!(
                (pruned.sparsity() - target).abs() < 0.02,
                "target {target}, got {}",
                pruned.sparsity()
            );
        }
    }

    #[test]
    fn magnitude_pruning_keeps_largest_values() {
        let w = Matrix::from_rows(&[&[0.1, -5.0, 0.2, 3.0]]);
        let pruned = prune_magnitude(&w, 0.5);
        assert_eq!(pruned.row(0), &[0.0, -5.0, 0.0, 3.0]);
    }

    #[test]
    fn magnitude_pruning_zero_target_is_identity() {
        let w = Matrix::random_sparse(16, 16, 0.3, SparsityPattern::Uniform, 2);
        assert_eq!(prune_magnitude(&w, 0.0), w);
    }

    #[test]
    fn two_of_four_pruning_structure() {
        let w = Matrix::random_sparse(16, 64, 0.0, SparsityPattern::Uniform, 3);
        let pruned = prune_n_of_m(&w, 2, 4);
        for r in 0..16 {
            for g0 in (0..64).step_by(4) {
                let nnz = (0..4).filter(|&i| pruned[(r, g0 + i)] != 0.0).count();
                assert!(nnz <= 2);
            }
        }
        assert!((pruned.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn vector_wise_pruning_is_75_percent() {
        let w = Matrix::random_sparse(8, 128, 0.0, SparsityPattern::Uniform, 4);
        let pruned = prune_n_of_m(&w, 8, 32);
        assert!((pruned.sparsity() - 0.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid N:M")]
    fn invalid_n_of_m_panics() {
        let _ = prune_n_of_m(&Matrix::zeros(2, 2), 5, 4);
    }
}
