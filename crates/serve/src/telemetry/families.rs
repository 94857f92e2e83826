//! What a scrape exports: one row per metric family — name, kind, help
//! text and the getter that reads its value — grouped by the struct the
//! getter reads, a [`ServerStats`] snapshot's or the live [`Telemetry`]
//! hub's. [`super::export::render_prometheus`] walks these tables in order;
//! `docs/OBSERVABILITY.md` names the operator question each family answers
//! (a unit test holds the two together). A family name is spelled here and
//! nowhere else in the crate's non-test code (CI greps for a second).
//!
//! A new exported number is a field on the snapshot struct or the hub, one
//! row here and its increment.

use crate::request::Priority;
use crate::stats::{ClusterStats, DeviceStats, ServerStats, WireStats};
use crate::telemetry::{LogHistogram, Telemetry};

use self::Value::{Float, Histogram, Int, PerPriority, PerPriorityHistogram};

/// What a getter reads off a snapshot or the hub.
pub(crate) enum Value<'a> {
    /// One integer sample.
    Int(u64),
    /// One float sample, rendered fixed-point (non-finite as zero) so the
    /// text stays locale and exponent free.
    Float(f64),
    /// One integer sample per priority class, in [`Priority::ALL`] order,
    /// each labelled `priority="<name>"`.
    PerPriority([u64; Priority::ALL.len()]),
    /// One histogram: its non-empty cumulative `_bucket`s, `_sum` and
    /// `_count`.
    Histogram(&'a LogHistogram),
    /// One histogram per priority class, labelled as [`Value::PerPriority`].
    PerPriorityHistogram(&'a [LogHistogram; Priority::ALL.len()]),
}

/// One metric family exported from a struct `S`.
pub(crate) struct Family<S: 'static> {
    pub(crate) name: &'static str,
    /// `counter`, `gauge` or `histogram`.
    pub(crate) kind: &'static str,
    pub(crate) help: &'static str,
    pub(crate) get: fn(&S) -> Value<'_>,
}

const fn counter<S>(name: &'static str, help: &'static str, get: fn(&S) -> Value<'_>) -> Family<S> {
    Family { name, kind: "counter", help, get }
}

const fn gauge<S>(name: &'static str, help: &'static str, get: fn(&S) -> Value<'_>) -> Family<S> {
    Family { name, kind: "gauge", help, get }
}

const fn histogram<S>(
    name: &'static str,
    help: &'static str,
    get: fn(&S) -> Value<'_>,
) -> Family<S> {
    Family { name, kind: "histogram", help, get }
}

/// Request and batch totals.
pub(crate) const SERVER: &[Family<ServerStats>] = &[
    counter("dsstc_requests_completed_total", "Requests answered", |s| Int(s.completed_requests)),
    counter("dsstc_batches_executed_total", "Batches executed", |s| Int(s.executed_batches)),
    counter("dsstc_priority_requests_total", "Requests answered per priority class", |s| {
        PerPriority(Priority::ALL.map(|p| s.for_priority(p).completed))
    }),
    counter(
        "dsstc_shed_requests_total",
        "Requests rejected at submit by admission control, per priority class",
        |s| PerPriority(Priority::ALL.map(|p| s.for_priority(p).shed)),
    ),
];

/// Per-device load, one sample per pooled device (`device`, `gpu` labels).
pub(crate) const DEVICE: &[Family<DeviceStats>] = &[
    counter("dsstc_device_batches_total", "Batches executed per device", |d| Int(d.batches)),
    counter(
        "dsstc_device_modelled_busy_us_total",
        "Modelled busy time charged per device, microseconds",
        |d| Float(d.modelled_busy_us),
    ),
];

/// The two-tier encode cache and its on-disk store.
pub(crate) const ENCODE_CACHE: &[Family<ServerStats>] = &[
    counter("dsstc_encode_cache_hits_total", "In-memory encode-cache hits", |s| Int(s.encode.hits)),
    counter("dsstc_encode_cache_misses_total", "Encode-cache misses", |s| Int(s.encode.misses)),
    counter(
        "dsstc_encode_cache_disk_restores_total",
        "Misses served by restoring a persisted artifact",
        |s| Int(s.encode.disk_loads),
    ),
    counter(
        "dsstc_encode_cache_fresh_encodes_total",
        "Misses that paid the full prune+encode",
        |s| Int(s.encode.fresh_encodes),
    ),
    counter(
        "dsstc_encode_cache_evictions_total",
        "Artifacts LRU-evicted from the in-memory tier",
        |s| Int(s.encode.evictions),
    ),
    counter(
        "dsstc_cache_warm_restored_total",
        "Artifacts the boot-time warmer restored into the memory tier",
        |s| Int(s.encode.warm_restored),
    ),
    counter(
        "dsstc_cache_warm_reencoded_total",
        "Stale-spec artifacts the warmer re-encoded for the current pool",
        |s| Int(s.encode.warm_reencoded),
    ),
    counter(
        "dsstc_cache_warm_healed_total",
        "Corrupt artifacts the warmer healed with a fresh encode",
        |s| Int(s.encode.warm_healed),
    ),
    gauge(
        "dsstc_cache_store_entries",
        "Artifacts in the on-disk store at its last directory scan",
        |s| Int(s.encode.store_entries),
    ),
    gauge(
        "dsstc_cache_store_bytes",
        "Bytes of artifact files in the on-disk store at its last directory scan",
        |s| Int(s.encode.store_bytes),
    ),
    counter(
        "dsstc_cache_store_gc_removed_total",
        "Artifacts removed from the on-disk store by garbage collection",
        |s| Int(s.encode.store_gc_removed),
    ),
];

/// The wire front-end's counters, one sample each from its [`WireStats`].
pub(crate) const WIRE: &[Family<WireStats>] = &[
    counter("dsstc_wire_connections_accepted_total", "Connections accepted", |w| {
        Int(w.connections_accepted)
    }),
    counter("dsstc_wire_connections_rejected_total", "Connections refused over the limit", |w| {
        Int(w.connections_rejected)
    }),
    counter("dsstc_wire_connections_closed_total", "Connections closed", |w| {
        Int(w.connections_closed)
    }),
    gauge("dsstc_wire_open_connections", "Connections currently open", |w| {
        Int(w.open_connections())
    }),
    counter("dsstc_wire_frames_received_total", "Request frames decoded", |w| {
        Int(w.frames_received)
    }),
    counter("dsstc_wire_frames_sent_total", "Response frames sent", |w| Int(w.frames_sent)),
    counter(
        "dsstc_wire_error_frames_total",
        "Error frames generated",
        |w| Int(w.error_frames_sent),
    ),
    counter("dsstc_wire_bytes_received_total", "Raw bytes read off sockets", |w| {
        Int(w.bytes_received)
    }),
    counter("dsstc_wire_bytes_sent_total", "Raw bytes the sockets accepted", |w| Int(w.bytes_sent)),
    counter("dsstc_wire_decode_errors_total", "Framing failures", |w| Int(w.decode_errors)),
    counter("dsstc_wire_requests_rejected_total", "Requests refused at submit time", |w| {
        Int(w.requests_rejected)
    }),
    counter(
        "dsstc_wire_shed_total",
        "Wire requests answered with a ShedLoad error frame, per priority class",
        |w| PerPriority(Priority::ALL.map(|p| w.shed_for(p))),
    ),
    gauge("dsstc_wire_in_flight", "Wire requests inside the runtime", |w| Int(w.in_flight)),
    counter(
        "dsstc_wire_outbound_overflows_total",
        "Connections poisoned for breaching the outbound buffer cap",
        |w| Int(w.outbound_overflows),
    ),
];

/// Cluster routing and liveness, labelled with the reporting node's id.
pub(crate) const CLUSTER: &[Family<ClusterStats>] = &[
    gauge(
        "dsstc_cluster_shard_map_version",
        "Current shard-map version (bumped on every liveness transition)",
        |c| Int(c.shard_map_version),
    ),
    gauge("dsstc_cluster_peers_alive", "Cluster members currently marked alive", |c| {
        Int(c.peers_alive)
    }),
    gauge("dsstc_cluster_peers_total", "All known cluster members", |c| Int(c.peers_total)),
    counter("dsstc_cluster_redirects_total", "Requests answered with a NotMine redirect", |c| {
        Int(c.redirects)
    }),
    counter(
        "dsstc_cluster_failover_serves_total",
        "Requests served as a non-primary replica of their shard",
        |c| Int(c.failover_serves),
    ),
    counter("dsstc_cluster_hellos_total", "Hello handshakes answered with a shard map", |c| {
        Int(c.hellos)
    }),
    counter(
        "dsstc_cluster_auth_failures_total",
        "Hellos rejected for a wrong or missing auth token",
        |c| Int(c.auth_failures),
    ),
    counter("dsstc_cluster_peer_probes_total", "Peer liveness probes sent", |c| Int(c.peer_probes)),
    counter("dsstc_cluster_peer_failures_total", "Peer liveness probes that failed", |c| {
        Int(c.peer_failures)
    }),
];

/// The hub's live families: every latency is exposed once, as a histogram
/// (the snapshot's percentile fields are read from the same histograms and
/// are not rendered a second time).
pub(crate) const HUB: &[Family<Telemetry>] = &[
    counter("dsstc_traces_recorded_total", "Completed request traces recorded by the sink", |t| {
        Int(t.traces_recorded())
    }),
    histogram(
        "dsstc_queue_us",
        "Queue wait per request (enqueued to worker pick-up), microseconds",
        |t| PerPriorityHistogram(&t.queue_us),
    ),
    histogram(
        "dsstc_execute_us",
        "Wall-clock execution time per batch (worker pick-up to outputs ready), microseconds",
        |t| Histogram(&t.execute_us),
    ),
    histogram(
        "dsstc_priority_execute_us",
        "Batch execution time seen per request, microseconds",
        |t| PerPriorityHistogram(&t.priority_execute_us),
    ),
    histogram("dsstc_modelled_request_us", "Modelled GPU latency per request, microseconds", |t| {
        Histogram(&t.modelled_request_us)
    }),
    histogram(
        "dsstc_trace_e2e_us",
        "End-to-end latency (admitted to responded) from request traces, microseconds",
        |t| PerPriorityHistogram(&t.e2e_us),
    ),
];
