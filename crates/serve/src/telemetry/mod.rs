//! End-to-end telemetry for the serving stack: log-bucketed latency
//! histograms ([`metrics`]), per-request stage tracing ([`trace`]) and
//! Prometheus-style exposition ([`export`]).
//!
//! One [`Telemetry`] hub is created per server and threaded through the
//! admission path, the device workers and (when enabled) the wire front-end,
//! so every layer stamps the same trace and feeds the same histograms;
//! [`crate::ServerStats`] is a snapshot of that hub and
//! [`render_prometheus`] its one text rendering. Nothing here does I/O on
//! a socket: the wire front-end's event loop answers the scrapes. See
//! `docs/OBSERVABILITY.md` for the metric families, the trace event
//! schema and scrape examples.

pub mod export;
pub(crate) mod families;
pub mod metrics;
pub mod trace;

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::request::Priority;
use crate::stats::{DeviceStats, PriorityLatency, ServerStats};
use crate::store::EncodeCacheStats;

pub use self::export::render_prometheus;
pub use self::metrics::{LogHistogram, HISTOGRAM_BUCKETS};
pub use self::trace::{now_us, CacheOutcome, RequestTrace, Stage, TraceSink, STAGES};

/// Histograms of one latency, one per priority class.
type PerPriority = [LogHistogram; Priority::ALL.len()];

/// The per-server telemetry hub, the server's one stats pipeline: the
/// latency histograms, the trace sink and the exact per-batch counters.
/// [`crate::ServerStats`] is a snapshot of this hub, and the `HUB` rows of
/// `telemetry/families.rs` export its histograms.
#[derive(Debug, Default)]
pub struct Telemetry {
    sink: TraceSink,
    traces_recorded: AtomicU64,
    /// Queue wait (enqueued → worker pick-up) per priority, per request.
    queue_us: PerPriority,
    /// Wall-clock batch execution, one sample per batch.
    execute_us: LogHistogram,
    /// The batch execution time each request saw, per priority.
    priority_execute_us: PerPriority,
    /// Modelled per-request GPU latency, one sample per request.
    modelled_request_us: LogHistogram,
    /// Admitted → responded, from completed traces.
    e2e_us: PerPriority,
    /// Requests rejected at submit by admission control, per priority
    /// class; atomics so the submit path never takes the batch mutex.
    shed: [AtomicU64; Priority::ALL.len()],
    batches: Mutex<BatchCounts>,
}

/// The exact (non-latency) counters, updated once per executed batch.
#[derive(Debug, Default)]
struct BatchCounts {
    completed: [u64; Priority::ALL.len()],
    /// `batch_histogram[i]` counts batches of size `i + 1`.
    batch_histogram: Vec<u64>,
    device_batches: Vec<u64>,
    device_busy_modelled_us: Vec<f64>,
}

impl Telemetry {
    /// A hub with the in-memory trace ring only.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A hub that additionally streams chrome-trace JSONL to `path`
    /// (the `--trace-out` file).
    pub fn with_trace_out(path: &Path) -> io::Result<Self> {
        Ok(Telemetry { sink: TraceSink::with_output(path)?, ..Telemetry::default() })
    }

    /// The completed-trace sink.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Records one request rejected at submit by admission control.
    pub(crate) fn record_shed(&self, priority: Priority) {
        self.shed[priority.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed batch: the device it ran on, each member's
    /// priority and queue wait, the wall-clock execute time, and the
    /// modelled batch / per-request times — the numbers each member's
    /// [`crate::InferResponse`] carries.
    pub(crate) fn record_batch(
        &self,
        device: usize,
        queue_us: &[(Priority, f64)],
        execute_us: f64,
        modelled_batch_us: f64,
        modelled_request_us: f64,
    ) {
        let batch_size = queue_us.len();
        debug_assert!(batch_size > 0, "batches are non-empty");
        // Histograms are fed under the counter lock, so a snapshot (which
        // holds it) sees counters and histograms of the same set of batches.
        let mut counts = self.batches.lock().expect("batch counters poisoned");
        self.execute_us.record_us(execute_us);
        for &(priority, wait_us) in queue_us {
            let p = priority.index();
            counts.completed[p] += 1;
            self.queue_us[p].record_us(wait_us);
            self.priority_execute_us[p].record_us(execute_us);
            self.modelled_request_us.record_us(modelled_request_us);
        }
        if counts.batch_histogram.len() < batch_size {
            counts.batch_histogram.resize(batch_size, 0);
        }
        counts.batch_histogram[batch_size - 1] += 1;
        if counts.device_batches.len() <= device {
            counts.device_batches.resize(device + 1, 0);
            counts.device_busy_modelled_us.resize(device + 1, 0.0);
        }
        counts.device_batches[device] += 1;
        counts.device_busy_modelled_us[device] += modelled_batch_us;
    }

    /// Produces a snapshot, folding in the cache counters maintained by the
    /// repository plus the pool's device names. Counters are
    /// exact; every percentile is [`LogHistogram::quantile`] of the
    /// histogram the scrape renders.
    pub(crate) fn snapshot(
        &self,
        encode: EncodeCacheStats,
        device_names: &[String],
    ) -> ServerStats {
        let counts = self.batches.lock().expect("batch counters poisoned");
        let completed_requests: u64 = counts.completed.iter().sum();
        let executed_batches: u64 = counts.batch_histogram.iter().sum();
        let queue_us = LogHistogram::new();
        for per_priority in &self.queue_us {
            queue_us.merge_from(per_priority);
        }
        let per_priority = Priority::ALL
            .iter()
            .map(|&priority| {
                let p = priority.index();
                PriorityLatency {
                    priority,
                    completed: counts.completed[p],
                    shed: self.shed[p].load(Ordering::Relaxed),
                    queue_p50_us: self.queue_us[p].quantile(0.50),
                    queue_p99_us: self.queue_us[p].quantile(0.99),
                }
            })
            .collect();
        let per_device = device_names
            .iter()
            .enumerate()
            .map(|(d, name)| DeviceStats {
                name: name.clone(),
                batches: counts.device_batches.get(d).copied().unwrap_or(0),
                modelled_busy_us: counts.device_busy_modelled_us.get(d).copied().unwrap_or(0.0),
            })
            .collect();
        ServerStats {
            completed_requests,
            executed_batches,
            mean_batch_size: if executed_batches == 0 {
                0.0
            } else {
                completed_requests as f64 / executed_batches as f64
            },
            max_batch_size: counts.batch_histogram.len(),
            batch_histogram: counts.batch_histogram.clone(),
            queue_p50_us: queue_us.quantile(0.50),
            execute_p50_us: self.execute_us.quantile(0.50),
            per_priority,
            per_device,
            encode_hit_rate: encode.hit_rate(),
            encode,
            wire: None,
            cluster: None,
        }
    }

    /// Folds one finished trace's end-to-end span into its histogram and
    /// records it (per-stage spans included) with the sink. Called once per
    /// request, after its terminal stage ([`Stage::Responded`], or
    /// [`Stage::WireFlushed`] on the wire path).
    pub fn record_completed(&self, trace: RequestTrace) {
        let priority = trace.priority.unwrap_or(Priority::Normal).index();
        if let Some(us) = trace.span_us(Stage::Admitted, Stage::Responded) {
            self.e2e_us[priority].record(us);
        }
        self.traces_recorded.fetch_add(1, Ordering::Relaxed);
        self.sink.record(trace);
    }

    /// Completed traces recorded so far (exact, unlike the bounded ring).
    pub fn traces_recorded(&self) -> u64 {
        self.traces_recorded.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_folds_completed_traces_into_histograms() {
        let telemetry = Telemetry::new();
        let mut trace = RequestTrace::new();
        trace.priority = Some(Priority::High);
        trace.record_at(Stage::Admitted, 0);
        trace.record_at(Stage::Enqueued, 10);
        trace.record_at(Stage::Released, 110);
        trace.record_at(Stage::Dispatched, 120);
        trace.record_at(Stage::CacheResolved, 130);
        trace.record_at(Stage::ExecuteStart, 140);
        trace.record_at(Stage::ExecuteEnd, 540);
        trace.record_at(Stage::Responded, 560);
        telemetry.record_completed(trace);

        assert_eq!(telemetry.traces_recorded(), 1);
        assert_eq!(telemetry.sink().len(), 1);
        let e2e = &telemetry.e2e_us[Priority::High.index()];
        let (lower, upper) = e2e.quantile_bounds(0.5).expect("e2e span recorded");
        assert!(lower <= 560 && 560 < upper);
        // Queue and execute come from the worker's `record_batch`, not from
        // trace spans; those stay on the trace in the ring.
        assert!(telemetry.queue_us.iter().all(|h| h.count() == 0));
        assert_eq!(telemetry.execute_us.count(), 0);
        let kept = &telemetry.sink().recent()[0];
        assert_eq!(kept.span_us(Stage::Enqueued, Stage::Released), Some(100));
        // The histograms surface in the scrape.
        let snapshot = telemetry.snapshot(EncodeCacheStats::default(), &[]);
        let out = render_prometheus(&snapshot, &telemetry);
        assert!(out.contains("dsstc_trace_e2e_us_count{priority=\"high\"} 1"));
        assert!(out.contains("dsstc_traces_recorded_total 1"));
    }

    #[test]
    fn partial_traces_only_feed_recorded_spans() {
        let telemetry = Telemetry::new();
        let mut trace = RequestTrace::new();
        trace.record_at(Stage::Admitted, 0);
        telemetry.record_completed(trace.clone());
        assert_eq!(telemetry.e2e_us[Priority::Normal.index()].count(), 0);
        trace.record_at(Stage::Responded, 50);
        telemetry.record_completed(trace);
        assert_eq!(telemetry.e2e_us[Priority::Normal.index()].count(), 1);
        assert_eq!(telemetry.traces_recorded(), 2);
    }

    /// The accuracy contract of the snapshot's percentiles on a stream far
    /// longer than a server would want to retain: each is the bucket upper
    /// bound of the exact nearest-rank percentile of the same stream.
    #[test]
    fn long_ramp_percentiles_stay_within_the_bucket_bound() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let telemetry = Telemetry::new();
        let mut rng = StdRng::seed_from_u64(14);
        // 100 000 seeded uniform draws over the ramp 0..100 000 us.
        let stream: Vec<f64> =
            (0..100_000).map(|_| rng.random_range(0u64..100_000) as f64).collect();
        for &us in &stream {
            telemetry.record_batch(0, &[(Priority::Normal, us)], us, 1.0, 1.0);
        }
        let s = telemetry.snapshot(EncodeCacheStats::default(), &["gpu0".to_string()]);
        assert_eq!(s.completed_requests, 100_000);
        let normal = s.for_priority(Priority::Normal);
        for (reported, q) in [
            (s.queue_p50_us, 0.50),
            (s.execute_p50_us, 0.50),
            (normal.queue_p50_us, 0.50),
            (normal.queue_p99_us, 0.99),
        ] {
            let exact = crate::stats::percentile(&stream, q);
            assert!(exact <= reported && reported <= 1.25 * exact + 1.0, "q={q}: {reported}");
        }
    }

    /// Eight threads record batches and sheds at once; the exact counters
    /// and the lock-free histograms must both account for every call.
    #[test]
    fn concurrent_recording_adds_up_exactly() {
        const THREADS: usize = 8;
        const BATCHES: usize = 500;
        let telemetry = Telemetry::new();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (telemetry, start) = (&telemetry, &start);
                scope.spawn(move || {
                    let priority = Priority::ALL[t % Priority::ALL.len()];
                    start.wait();
                    for i in 0..BATCHES {
                        // Alternating batch sizes 1 and 2 on device `t % 2`.
                        let members = [(priority, i as f64), (Priority::High, 7.0)];
                        telemetry.record_batch(t % 2, &members[..1 + i % 2], 50.0, 4.0, 2.0);
                        telemetry.record_shed(priority);
                    }
                });
            }
        });
        let names = ["gpu0".to_string(), "gpu1".to_string()];
        let s = telemetry.snapshot(EncodeCacheStats::default(), &names);
        let batches = (THREADS * BATCHES) as u64;
        let requests = batches + batches / 2;
        assert_eq!(s.executed_batches, batches);
        assert_eq!(s.completed_requests, requests);
        assert_eq!(s.batch_histogram, vec![batches / 2, batches / 2]);
        assert_eq!(s.total_shed(), batches);
        assert_eq!(s.per_device.iter().map(|d| d.batches).sum::<u64>(), batches);
        // One execute sample per batch; one queue, per-priority execute and
        // modelled sample per request, class by class.
        assert_eq!(telemetry.execute_us.count(), batches);
        assert_eq!(telemetry.execute_us.sum(), 50 * batches);
        assert_eq!(telemetry.modelled_request_us.count(), requests);
        for p in &s.per_priority {
            assert_eq!(telemetry.queue_us[p.priority.index()].count(), p.completed);
            assert_eq!(telemetry.priority_execute_us[p.priority.index()].count(), p.completed);
        }
    }
}
