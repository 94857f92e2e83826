//! Open-loop traffic generation.
//!
//! A closed-loop driver (submit a burst, wait for it to drain) measures the
//! server at whatever rate the server itself sustains; latency-vs-load
//! behaviour only becomes visible under **open-loop** arrivals, where
//! requests keep arriving at the offered rate no matter how far behind the
//! server falls. [`PoissonArrivals`] provides the standard memoryless
//! arrival process for that: inter-arrival gaps are i.i.d. exponential with
//! mean `1 / rate`, drawn from a seeded deterministic generator so a sweep
//! cell is exactly reproducible.
//!
//! The process only draws gaps; pacing is the caller's job (a sleeping
//! submitter runs slightly late, never early, which is the open-loop
//! contract).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded Poisson arrival process: an infinite iterator of inter-arrival
/// gaps with exponential distribution at a configured mean rate.
#[derive(Clone, Debug)]
pub struct PoissonArrivals {
    rate_rps: f64,
    rng: StdRng,
}

impl PoissonArrivals {
    /// An arrival process offering `rate_rps` requests per second on
    /// average, reproducible from `seed`.
    ///
    /// # Panics
    /// Panics if `rate_rps` is not strictly positive and finite.
    pub fn new(rate_rps: f64, seed: u64) -> Self {
        assert!(rate_rps > 0.0 && rate_rps.is_finite(), "arrival rate must be positive and finite");
        PoissonArrivals { rate_rps, rng: StdRng::seed_from_u64(seed) }
    }

    /// Draws the next inter-arrival gap: `-ln(1 - u) / rate` with `u`
    /// uniform in `[0, 1)` (inverse-CDF sampling of the exponential
    /// distribution).
    pub fn next_gap(&mut self) -> Duration {
        let u: f64 = self.rng.random_range(0.0f64..1.0);
        Duration::from_secs_f64(-(1.0 - u).ln() / self.rate_rps)
    }
}

impl Iterator for PoissonArrivals {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        Some(self.next_gap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_reproduces_the_exact_arrival_sequence() {
        let a: Vec<Duration> = PoissonArrivals::new(500.0, 42).take(256).collect();
        let b: Vec<Duration> = PoissonArrivals::new(500.0, 42).take(256).collect();
        assert_eq!(a, b, "same seed must replay the identical gap sequence");
        let c: Vec<Duration> = PoissonArrivals::new(500.0, 43).take(256).collect();
        assert_ne!(a, c, "different seeds must decorrelate the sequence");
    }

    #[test]
    fn empirical_mean_matches_the_configured_rate_within_5_percent() {
        let rate = 1000.0; // 1 ms mean gap
        let mut gen = PoissonArrivals::new(rate, 7);
        let n = 10_000;
        let total: f64 = (0..n).map(|_| gen.next_gap().as_secs_f64()).sum();
        let mean = total / f64::from(n);
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean gap {mean} s vs expected {expected} s"
        );
    }

    #[test]
    fn gaps_are_finite_and_non_negative() {
        let mut gen = PoissonArrivals::new(250.0, 9);
        for _ in 0..10_000 {
            let gap = gen.next_gap().as_secs_f64();
            assert!(gap.is_finite());
            assert!(gap >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_rate_panics() {
        let _ = PoissonArrivals::new(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_rate_panics() {
        let _ = PoissonArrivals::new(f64::INFINITY, 1);
    }

    #[test]
    fn gaps_have_the_exponential_spread() {
        // An exponential's standard deviation equals its mean, and a gap
        // outlasts the mean with probability 1/e: a constant or uniform
        // generator with the right mean fails both.
        let mut gen = PoissonArrivals::new(1000.0, 5);
        let gaps: Vec<f64> = (0..20_000).map(|_| gen.next_gap().as_secs_f64()).collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "coefficient of variation {cv}");
        let over = gaps.iter().filter(|&&g| g > mean).count() as f64 / n;
        assert!((over - (-1.0f64).exp()).abs() < 0.02, "share above the mean {over}");
    }
}
