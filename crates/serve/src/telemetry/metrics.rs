//! The server's latency store: a fixed log-bucketed histogram, cheap
//! enough to update on every request, mergeable across threads and bounded
//! in memory no matter how long the server runs. The [`super::Telemetry`]
//! hub holds one per latency family; they are read back as the percentiles
//! of [`crate::ServerStats`] and rendered as Prometheus-style cumulative
//! buckets for live scraping (see [`crate::telemetry::export`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative width of any
/// bucket at `1 / 2^SUB_BITS` (25%).
const SUB_BITS: u32 = 2;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Values below `LINEAR_MAX` get one exact bucket each.
const LINEAR_MAX: u64 = (SUB as u64) << 1;
/// Total bucket count: the exact linear range plus `SUB` sub-buckets for
/// every octave up to `2^63`.
pub const HISTOGRAM_BUCKETS: usize = LINEAR_MAX as usize + (64 - SUB_BITS as usize - 1) * SUB;

/// A fixed-size log-bucketed histogram of `u64` samples (latencies in µs).
///
/// The bucket index is computed with shifts only — no floats, no search:
/// values below `LINEAR_MAX` (8) get one exact bucket each, and every
/// power-of-two octave above is split into `SUB` (4) linear sub-buckets, so
/// no bucket is wider than 25% of its lower bound. Memory is bounded at
/// [`HISTOGRAM_BUCKETS`] atomic slots regardless of sample count, updates
/// are lock-free, and two histograms [`merge_from`](Self::merge_from)
/// exactly (bucket-wise addition, associative and commutative).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value < LINEAR_MAX {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as u64; // >= SUB_BITS + 1
        let sub = ((value >> (msb - u64::from(SUB_BITS))) & (SUB as u64 - 1)) as usize;
        LINEAR_MAX as usize + (msb as usize - SUB_BITS as usize - 1) * SUB + sub
    }

    /// The half-open value range `[lower, upper)` of bucket `index` (the
    /// last bucket's upper bound saturates at `u64::MAX`).
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket {index} out of range");
        if (index as u64) < LINEAR_MAX {
            return (index as u64, index as u64 + 1);
        }
        let k = index - LINEAR_MAX as usize;
        let msb = (SUB_BITS as usize + 1 + k / SUB) as u32;
        let sub = (k % SUB) as u64;
        let width = 1u64 << (msb - SUB_BITS);
        let lower = (SUB as u64 + sub) << (msb - SUB_BITS);
        (lower, lower.saturating_add(width))
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_to_sum(value);
    }

    /// Adds into `sum`, saturating at `u64::MAX`: one clamped pathological
    /// sample must pin `_sum` at the top, not wrap it back to near zero.
    fn add_to_sum(&self, value: u64) {
        // The closure always returns `Some`, so the update cannot fail.
        let _ = self.sum.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
            Some(sum.saturating_add(value))
        });
    }

    /// Records a latency in µs, clamping negatives and NaN to zero.
    pub fn record_us(&self, us: f64) {
        // `as` saturates: NaN -> 0, negatives -> 0, oversized -> u64::MAX.
        self.record(us.round() as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of every recorded sample, saturating at `u64::MAX`.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Folds another histogram into this one (bucket-wise addition). The
    /// operation is associative and commutative, so per-thread histograms
    /// can be merged in any order with an identical result.
    pub fn merge_from(&self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.add_to_sum(other.sum());
    }

    /// The `[lower, upper)` bounds of the bucket holding the nearest-rank
    /// `q`-quantile, or `None` for an empty histogram. The exact quantile
    /// of the recorded stream always falls inside the returned range.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Some(Self::bucket_bounds(index));
            }
        }
        // Unreachable: cumulative reaches `total` by the last bucket.
        Some(Self::bucket_bounds(HISTOGRAM_BUCKETS - 1))
    }

    /// The nearest-rank `q`-quantile estimate: the upper bound of its
    /// bucket (conservative for SLO reporting; within 25% of exact by the
    /// bucket-width bound). Zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantile_bounds(q).map_or(0.0, |(_, upper)| upper as f64)
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs, the
    /// shape Prometheus exposition wants (`le` buckets are cumulative).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                out.push((Self::bucket_bounds(index).1, cumulative));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        // The linear range: one bucket per value.
        for v in 0..LINEAR_MAX {
            let i = LogHistogram::bucket_index(v);
            assert_eq!(LogHistogram::bucket_bounds(i), (v, v + 1), "value {v}");
        }
        // Every power of two above opens a fresh sub-bucket whose lower
        // bound is the value itself.
        for shift in 3..63u32 {
            let v = 1u64 << shift;
            let (lower, upper) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(v));
            assert_eq!(lower, v, "2^{shift} must start its bucket");
            assert_eq!(upper - lower, 1 << (shift - SUB_BITS), "bucket width at 2^{shift}");
            // One below the boundary lands in the previous octave's last
            // sub-bucket.
            let (lower, upper) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(v - 1));
            assert!(lower < v && v - 1 < upper, "2^{shift} - 1 in [{lower}, {upper})");
            assert_eq!(upper, v, "the previous bucket must end exactly at 2^{shift}");
        }
        // The top bucket saturates instead of overflowing.
        let top = LogHistogram::bucket_index(u64::MAX);
        assert_eq!(top, HISTOGRAM_BUCKETS - 1);
        let (lower, upper) = LogHistogram::bucket_bounds(top);
        assert!(lower < u64::MAX && upper == u64::MAX);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_partition() {
        // Consecutive buckets tile the value range with no gaps/overlaps.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let (_, upper) = LogHistogram::bucket_bounds(i);
            let (next_lower, _) = LogHistogram::bucket_bounds(i + 1);
            assert_eq!(upper, next_lower, "gap between buckets {i} and {}", i + 1);
        }
    }

    #[test]
    fn record_us_clamps_pathological_floats() {
        let h = LogHistogram::new();
        h.record_us(f64::NAN);
        h.record_us(-3.5);
        h.record_us(1e300);
        assert_eq!(h.count(), 3);
        // NaN and negatives land in bucket 0, the huge value in the top.
        assert_eq!(h.quantile_bounds(0.0).unwrap().0, 0);
        // The clamped sample pins the sum; later samples and merges
        // saturate instead of wrapping it back to a small number.
        assert_eq!(h.sum(), u64::MAX);
        h.record(5);
        assert_eq!(h.sum(), u64::MAX);
        let merged = LogHistogram::new();
        merged.record(7);
        merged.merge_from(&h);
        assert_eq!(merged.sum(), u64::MAX);
        assert_eq!(merged.count(), 5);
    }

    #[test]
    fn quantiles_of_known_stream() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (lower, upper) = h.quantile_bounds(0.5).unwrap();
        assert!(lower <= 500 && 500 < upper, "p50 bucket [{lower}, {upper}) must hold 500");
        let (lower, upper) = h.quantile_bounds(0.99).unwrap();
        assert!(lower <= 990 && 990 < upper, "p99 bucket [{lower}, {upper}) must hold 990");
        assert_eq!(h.sum(), 500_500);
        assert!(LogHistogram::new().quantile_bounds(0.5).is_none());
        assert_eq!(LogHistogram::new().quantile(0.99), 0.0);
    }

    proptest! {
        /// The histogram's quantile bucket always contains the exact
        /// nearest-rank percentile ([`crate::stats::percentile`]) of the
        /// identical sample stream — for any stream and any quantile.
        #[test]
        fn quantile_bucket_contains_exact_percentile(seed in any::<u64>()) {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1usize..400);
            let h = LogHistogram::new();
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                // Mixed magnitudes: exercise linear and log ranges.
                let v = match rng.random_range(0u32..3) {
                    0 => rng.random_range(0u64..8),
                    1 => rng.random_range(0u64..10_000),
                    _ => rng.random_range(0u64..10_000_000_000),
                };
                h.record(v);
                samples.push(v as f64);
            }
            for &q in &[0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let exact = percentile(&samples, q);
                let (lower, upper) = h.quantile_bounds(q).expect("non-empty");
                prop_assert!(
                    lower as f64 <= exact && exact < upper as f64,
                    "q={q}: exact {exact} outside [{lower}, {upper})"
                );
                // The point estimate is the bucket's upper bound.
                prop_assert_eq!(h.quantile(q), upper as f64);
            }
        }

        /// Merging is associative: (a + b) + c == a + (b + c), bucket for
        /// bucket, for arbitrary streams.
        #[test]
        fn merge_is_associative(seed in any::<u64>()) {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let fill = |h: &LogHistogram, rng: &mut StdRng| {
                for _ in 0..rng.random_range(0usize..100) {
                    h.record(rng.random_range(0u64..1_000_000));
                }
            };
            let (a, b, c) = (LogHistogram::new(), LogHistogram::new(), LogHistogram::new());
            fill(&a, &mut rng);
            fill(&b, &mut rng);
            fill(&c, &mut rng);

            // left = (a + b) + c
            let left = LogHistogram::new();
            left.merge_from(&a);
            left.merge_from(&b);
            left.merge_from(&c);
            // right = a + (b + c)
            let bc = LogHistogram::new();
            bc.merge_from(&b);
            bc.merge_from(&c);
            let right = LogHistogram::new();
            right.merge_from(&a);
            right.merge_from(&bc);

            prop_assert_eq!(left.count(), right.count());
            prop_assert_eq!(left.sum(), right.sum());
            prop_assert_eq!(left.cumulative_buckets(), right.cumulative_buckets());
            prop_assert_eq!(
                left.count(),
                a.count() + b.count() + c.count(),
                "merge must preserve totals"
            );
        }
    }
}
