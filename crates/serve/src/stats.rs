//! Server metrics: request and batch counts, queue / execute medians,
//! per-priority queue percentiles, batch-size histogram, per-device
//! modelled load and cache counters — the snapshot the
//! [`crate::telemetry::Telemetry`] hub produces, plus the wire front-end's
//! counters. Its one text rendering is the `/metrics` exposition,
//! [`crate::telemetry::render_prometheus`].
//!
//! No latency sample is retained: every percentile field is
//! [`crate::telemetry::LogHistogram::quantile`] of the histogram a scrape
//! renders, i.e. the **upper bound** of the bucket holding the nearest-rank
//! percentile — never below the exact value, at most 25 % (+1 µs) above.

use crate::request::Priority;
use crate::store::EncodeCacheStats;

/// Latency percentiles of one priority class (bucket upper bounds, see the
/// module docs).
#[derive(Clone, Debug)]
pub struct PriorityLatency {
    /// The service class.
    pub priority: Priority,
    /// Requests of this priority answered so far.
    pub completed: u64,
    /// Requests of this priority rejected at submit by admission control
    /// ([`crate::ServeError::ShedLoad`]); zero unless
    /// [`crate::ServeConfig::admission`] is enabled.
    pub shed: u64,
    /// Median wall-clock queue wait (enqueued → worker pick-up), µs;
    /// histogram bucket upper bound.
    pub queue_p50_us: f64,
    /// 99th-percentile wall-clock queue wait, µs; bucket upper bound.
    pub queue_p99_us: f64,
}

/// Modelled load of one pooled device.
#[derive(Clone, Debug)]
pub struct DeviceStats {
    /// Device name (from its `GpuConfig`).
    pub name: String,
    /// Batches executed on this device.
    pub batches: u64,
    /// Total modelled busy time charged to this device, µs.
    pub modelled_busy_us: f64,
}

/// A point-in-time snapshot of the server's metrics.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Requests answered so far.
    pub completed_requests: u64,
    /// Batches executed so far.
    pub executed_batches: u64,
    /// Mean requests per executed batch.
    pub mean_batch_size: f64,
    /// Largest batch observed.
    pub max_batch_size: usize,
    /// Batch-size histogram: `histogram[i]` counts batches of size `i + 1`.
    pub batch_histogram: Vec<u64>,
    /// Median wall-clock queue wait (enqueued → worker pick-up) over every
    /// request, µs; histogram bucket upper bound (≤ 25 % above exact, never
    /// below — as are all the percentile fields here).
    pub queue_p50_us: f64,
    /// Median wall-clock batch-execution time (one sample per batch), µs;
    /// bucket upper bound.
    pub execute_p50_us: f64,
    /// Counts and queue percentiles split by priority class, `Low` first
    /// (indexable via [`Priority::index`] or [`ServerStats::for_priority`]).
    pub per_priority: Vec<PriorityLatency>,
    /// Per-device modelled load, in pool order.
    pub per_device: Vec<DeviceStats>,
    /// The two-tier encode cache's counters (model repository): memory
    /// hits, misses split into disk restores and fresh encodes, evictions,
    /// the boot warmer's outcomes and the on-disk store's gauges.
    pub encode: EncodeCacheStats,
    /// Fraction of repository lookups served from the in-memory cache,
    /// [`EncodeCacheStats::hit_rate`] of `encode`.
    pub encode_hit_rate: f64,
    /// Per-connection / per-frame counters of the TCP front-end, when the
    /// snapshot came from a [`crate::net::WireServer`] (`None` for a plain
    /// in-process server).
    pub wire: Option<WireStats>,
    /// Cluster routing counters, when the snapshot came from a wire server
    /// booted as a cluster node ([`crate::ServeConfig::cluster`]); `None`
    /// for a standalone wire server and a plain in-process one. See
    /// [`crate::cluster`].
    pub cluster: Option<ClusterStats>,
}

impl ServerStats {
    /// The latency summary of one priority class.
    pub fn for_priority(&self, priority: Priority) -> &PriorityLatency {
        &self.per_priority[priority.index()]
    }

    /// Requests rejected by admission control across every priority class.
    pub fn total_shed(&self) -> u64 {
        self.per_priority.iter().map(|p| p.shed).sum()
    }
}

/// Cluster routing counters of one serving node (see
/// [`crate::cluster::ClusterState::snapshot`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// This node's id in the shard map.
    pub node_id: u64,
    /// Current shard-map version (bumped on every liveness transition).
    pub shard_map_version: u64,
    /// Members currently marked alive (including this node).
    pub peers_alive: u64,
    /// All known members, dead or alive.
    pub peers_total: u64,
    /// Requests answered with a `NotMine` redirect because this node does
    /// not own their shard.
    pub redirects: u64,
    /// Requests served as a non-primary replica of their shard (the
    /// failover path).
    pub failover_serves: u64,
    /// Hello handshakes answered with a shard map.
    pub hellos: u64,
    /// Hellos rejected for a wrong or missing auth token.
    pub auth_failures: u64,
    /// Peer liveness probes sent (failed or not).
    pub peer_probes: u64,
    /// Peer liveness probes that failed.
    pub peer_failures: u64,
}

/// Per-connection / per-frame counters of the TCP front-end (see
/// [`crate::net::WireServer::wire_stats`]). The wire event loop is their
/// single writer, behind a mutex it shares with the readers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Connections accepted since boot.
    pub connections_accepted: u64,
    /// Connections refused over the `max_connections` limit (or whose
    /// setup failed).
    pub connections_rejected: u64,
    /// Accepted connections since closed (EOF, error, framing poison or
    /// shutdown).
    pub connections_closed: u64,
    /// Request frames decoded.
    pub frames_received: u64,
    /// Response frames handed to the event loop (error frames excluded).
    pub frames_sent: u64,
    /// Error frames generated (request-level rejections and framing
    /// failures).
    pub error_frames_sent: u64,
    /// Raw bytes read off client sockets.
    pub bytes_received: u64,
    /// Raw bytes the sockets accepted.
    pub bytes_sent: u64,
    /// Framing failures (bad magic, checksum mismatch, unsupported
    /// version, oversized or malformed frames); each poisons its
    /// connection.
    pub decode_errors: u64,
    /// Requests the runtime refused at submit time (invalid width,
    /// draining).
    pub requests_rejected: u64,
    /// Wire requests currently inside the batching runtime.
    pub in_flight: u64,
    /// Connections poisoned for breaching the per-connection outbound
    /// buffer cap ([`crate::ServeConfig::max_outbound_bytes`]) — a client
    /// stopped reading while responses kept completing.
    pub outbound_overflows: u64,
    /// Low-priority wire requests rejected by admission control (answered
    /// with a [`crate::net::WireStatus::ShedLoad`] error frame).
    pub shed_low: u64,
    /// Normal-priority wire requests rejected by admission control.
    pub shed_normal: u64,
    /// High-priority wire requests rejected by admission control (only the
    /// queue-depth bound sheds this class).
    pub shed_high: u64,
}

impl WireStats {
    /// Connections currently open.
    pub fn open_connections(&self) -> u64 {
        self.connections_accepted.saturating_sub(self.connections_closed)
    }

    /// Wire requests rejected by admission control, across every priority.
    pub fn shed_total(&self) -> u64 {
        self.shed_low + self.shed_normal + self.shed_high
    }

    /// The shed counter of one priority class.
    pub fn shed_for(&self, priority: Priority) -> u64 {
        match priority {
            Priority::Low => self.shed_low,
            Priority::Normal => self.shed_normal,
            Priority::High => self.shed_high,
        }
    }

    /// Counts one request of `priority` rejected by admission control (the
    /// wire event loop, when it answers with a `ShedLoad` error frame).
    pub(crate) fn count_shed(&mut self, priority: Priority) {
        match priority {
            Priority::Low => self.shed_low += 1,
            Priority::Normal => self.shed_normal += 1,
            Priority::High => self.shed_high += 1,
        }
    }
}

/// Nearest-rank percentile of an unsorted sample set: the exact reference
/// the histogram estimator is tested against (nothing ships it — every
/// served percentile is a histogram quantile).
///
/// Defined for every input: an empty sample set yields 0, a single sample
/// yields that sample for every `q`, `q = 0` yields the minimum, `q = 1`
/// the maximum, and out-of-range or NaN `q` values are clamped into
/// `[0, 1]` instead of indexing out of bounds.
#[cfg(test)]
pub(crate) fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let mut sorted = samples.to_vec();
    // IEEE total order, not `partial_cmp(..).unwrap_or(Equal)`: treating
    // incomparable pairs as equal leaves the slice only partially sorted
    // around any NaN sample, so low quantiles could silently return
    // garbage. Under `total_cmp` every NaN sorts above every number, so a
    // NaN sample can only surface at the quantiles it actually occupies.
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{render_prometheus, Telemetry};

    /// A snapshot percentile is its histogram bucket's upper bound: never
    /// below the exact value, at most 25 % (+1 for the unit-wide buckets)
    /// above it.
    fn assert_bucket_bound(reported: f64, exact: f64) {
        assert!(
            exact <= reported && reported <= 1.25 * exact + 1.0,
            "reported {reported} vs exact {exact}"
        );
    }

    fn normal(waits: &[f64]) -> Vec<(Priority, f64)> {
        waits.iter().map(|&w| (Priority::Normal, w)).collect()
    }

    /// Memory-only cache counters: every miss was a fresh encode.
    fn enc(hits: u64, misses: u64) -> EncodeCacheStats {
        EncodeCacheStats { hits, misses, fresh_encodes: misses, ..Default::default() }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn percentile_edge_cases_are_defined() {
        // Empty: 0 by definition.
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], f64::NAN), 0.0);
        // One sample: that sample for every q.
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        // q = 0 is the minimum, q = 1 the maximum.
        let v = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 3.0);
        // Out-of-range and NaN q clamp instead of panicking.
        assert_eq!(percentile(&v, -0.3), 1.0);
        assert_eq!(percentile(&v, 4.2), 3.0);
        assert_eq!(percentile(&v, f64::NAN), 1.0);
        assert_eq!(percentile(&v, f64::INFINITY), 3.0);
    }

    #[test]
    fn percentile_sorts_nan_samples_last_under_total_order() {
        // A NaN *sample* must not scramble the sort (the old
        // `partial_cmp(..).unwrap_or(Equal)` comparator left the slice
        // order comparator-dependent): every finite quantile stays exact
        // and NaN surfaces only at the very top.
        let v = [2.0, f64::NAN, 1.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert!(percentile(&v, 1.0).is_nan());
        // All-NaN input is NaN at every quantile, not a panic.
        assert!(percentile(&[f64::NAN, f64::NAN], 0.5).is_nan());
        // -NaN < -inf < finite < +inf < +NaN in IEEE total order; the
        // negative NaN therefore pins the minimum, not the median.
        let v = [-f64::NAN, 5.0, 4.0];
        assert!(percentile(&v, 0.0).is_nan());
        assert_eq!(percentile(&v, 1.0), 5.0);
    }

    #[test]
    fn collector_aggregates_batches() {
        let c = Telemetry::new();
        c.record_batch(0, &normal(&[10.0, 20.0]), 100.0, 10.0, 5.0);
        c.record_batch(1, &normal(&[30.0]), 50.0, 9.0, 9.0);
        let s = c.snapshot(enc(3, 1), &["gpu0".to_string(), "gpu1".to_string()]);
        assert_eq!(s.completed_requests, 3);
        assert_eq!(s.executed_batches, 2);
        assert_eq!(s.batch_histogram, vec![1, 1]); // one 1-batch, one 2-batch
        assert!((s.mean_batch_size - 1.5).abs() < 1e-12);
        assert_eq!(s.max_batch_size, 2);
        assert_bucket_bound(s.queue_p50_us, 20.0);
        // One execute sample per batch: the median of {100, 50} is 50.
        assert_bucket_bound(s.execute_p50_us, 50.0);
        assert!((s.encode_hit_rate - 0.75).abs() < 1e-12);
        // Device accounting: one batch each, busy 10 us vs 9 us.
        assert_eq!(s.per_device.iter().map(|d| d.batches).collect::<Vec<_>>(), [1, 1]);
        assert!((s.per_device[0].modelled_busy_us - 10.0).abs() < 1e-12);
        assert!((s.per_device[1].modelled_busy_us - 9.0).abs() < 1e-12);
        assert_eq!(s.per_device[0].name, "gpu0");
    }

    #[test]
    fn per_priority_latency_streams_are_split() {
        let c = Telemetry::new();
        c.record_batch(0, &[(Priority::High, 5.0), (Priority::Low, 500.0)], 40.0, 8.0, 4.0);
        c.record_batch(0, &[(Priority::Low, 700.0)], 60.0, 8.0, 8.0);
        let s = c.snapshot(enc(0, 0), &["gpu0".to_string()]);
        let high = s.for_priority(Priority::High);
        let low = s.for_priority(Priority::Low);
        assert_eq!(high.completed, 1);
        assert_eq!(low.completed, 2);
        assert_bucket_bound(high.queue_p99_us, 5.0);
        assert_bucket_bound(low.queue_p50_us, 500.0);
        assert_bucket_bound(low.queue_p99_us, 700.0);
        assert_eq!(s.for_priority(Priority::Normal).completed, 0);
        assert_eq!(s.for_priority(Priority::Normal).queue_p99_us, 0.0);
        assert!(high.queue_p99_us < low.queue_p99_us);
    }

    #[test]
    fn snapshot_of_idle_server_is_zeroed() {
        let c = Telemetry::new();
        let s = c.snapshot(enc(0, 0), &["gpu0".to_string()]);
        assert_eq!(s.completed_requests, 0);
        assert_eq!(s.mean_batch_size, 0.0);
        assert_eq!(s.encode_hit_rate, 0.0);
        assert_eq!(s.per_device[0].modelled_busy_us, 0.0);
    }

    #[test]
    fn record_shed_surfaces_per_priority_even_with_zero_completions() {
        let c = Telemetry::new();
        c.record_shed(Priority::Low);
        c.record_shed(Priority::Low);
        c.record_shed(Priority::Normal);
        let s = c.snapshot(enc(0, 0), &["gpu0".to_string()]);
        assert_eq!(s.total_shed(), 3);
        assert_eq!(s.for_priority(Priority::Low).shed, 2);
        assert_eq!(s.for_priority(Priority::Normal).shed, 1);
        assert_eq!(s.for_priority(Priority::High).shed, 0);
        assert_eq!(s.for_priority(Priority::Low).completed, 0);
        // A class that only shed still shows in the scrape.
        let text = render_prometheus(&s, &c);
        assert!(text.contains("dsstc_shed_requests_total{priority=\"low\"} 2\n"), "{text}");
        assert!(text.contains("dsstc_shed_requests_total{priority=\"high\"} 0\n"), "{text}");
    }

    #[test]
    fn wire_collector_counts_shed_per_priority() {
        // What the wire loop does to its counters on a `ShedLoad` answer.
        let mut s = WireStats::default();
        s.count_shed(Priority::Low);
        s.count_shed(Priority::High);
        s.count_shed(Priority::Low);
        assert_eq!(s.shed_low, 2);
        assert_eq!(s.shed_normal, 0);
        assert_eq!(s.shed_high, 1);
        assert_eq!(s.shed_total(), 3);
        assert_eq!(s.shed_for(Priority::High), 1);
    }

    #[test]
    fn warm_and_store_counters_flow_into_the_snapshot_and_render() {
        let c = Telemetry::new();
        let encode = EncodeCacheStats {
            warm_restored: 5,
            warm_healed: 1,
            store_entries: 6,
            store_bytes: 1234,
            store_gc_removed: 3,
            ..Default::default()
        };
        let s = c.snapshot(encode, &["gpu0".to_string()]);
        assert_eq!(s.encode, encode);
        let text = render_prometheus(&s, &c);
        for line in [
            "dsstc_cache_warm_restored_total 5",
            "dsstc_cache_warm_reencoded_total 0",
            "dsstc_cache_warm_healed_total 1",
            "dsstc_cache_store_entries 6",
            "dsstc_cache_store_bytes 1234",
            "dsstc_cache_store_gc_removed_total 3",
        ] {
            assert!(text.lines().any(|l| l == line), "{line} missing:\n{text}");
        }
    }
}
