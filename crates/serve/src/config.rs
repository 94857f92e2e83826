//! Serving-runtime configuration: batching knobs, the device pool and the
//! encode-cache tiers.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use dsstc_sim::GpuConfig;

use crate::request::Priority;
use crate::store::CacheBudget;

/// SLO-aware admission control / load shedding.
///
/// The server keeps a per-class latency SLO; at submit time it projects the
/// queue delay a new request would see from the **modelled** completion
/// time of the work already queued at or above its priority (queued
/// requests × the key's modelled unit cost ÷ pool size — the same
/// [`crate::BatchTimingModel`] pricing the dispatcher routes with, so the
/// decision is deterministic and testable). When the projection exceeds the
/// class SLO scaled by `headroom`, the request is **shed** — rejected at
/// submit with [`crate::ServeError::ShedLoad`] (a `ShedLoad` error frame on
/// the wire) — so overload degrades low-priority traffic instead of
/// growing queues without bound. High-priority requests are never shed on
/// projection, only by the hard `max_queue` depth bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionControl {
    /// Per-class latency SLO, indexed by [`Priority::index`] (Low = 0).
    pub slo: [Duration; 3],
    /// Fraction of the SLO the projected queue delay may consume before
    /// new requests of that class are shed, in `(0, 1]`. Lower sheds
    /// earlier, reserving more of the SLO for execution itself.
    pub headroom: f64,
    /// Hard bound on total queued requests; at or beyond it every class
    /// (including high priority) is shed. The backstop that keeps queue
    /// depth bounded under adversarial arrivals.
    pub max_queue: usize,
}

impl AdmissionControl {
    /// Builds a policy from per-class SLOs (Low, Normal, High order), a
    /// headroom fraction and a hard queue-depth bound.
    ///
    /// # Panics
    /// Panics if `headroom` is outside `(0, 1]`, `max_queue` is zero, or
    /// any SLO is zero.
    pub fn new(slo: [Duration; 3], headroom: f64, max_queue: usize) -> Self {
        assert!(
            headroom > 0.0 && headroom <= 1.0,
            "headroom must be a fraction of the SLO in (0, 1]"
        );
        assert!(max_queue > 0, "the queue bound must admit at least one request");
        assert!(slo.iter().all(|s| !s.is_zero()), "every class SLO must be non-zero");
        AdmissionControl { slo, headroom, max_queue }
    }

    /// The latency SLO of `priority`'s class.
    pub fn slo_for(&self, priority: Priority) -> Duration {
        self.slo[priority.index()]
    }

    /// Microseconds of projected queue delay `priority` may absorb before
    /// shedding (its SLO × headroom).
    pub fn budget_us(&self, priority: Priority) -> f64 {
        self.slo[priority.index()].as_secs_f64() * 1e6 * self.headroom
    }

    /// The admission decision, as a pure function of the class, the
    /// modelled queue-delay projection and the current total queue depth
    /// (property-tested in this module): shed when the queue is at its
    /// hard bound, otherwise shed non-high classes whose projection
    /// exhausts their SLO headroom. High priority is never shed on
    /// projection alone.
    pub fn should_shed(&self, priority: Priority, projected_us: f64, queued: usize) -> bool {
        if queued >= self.max_queue {
            return true;
        }
        if priority == Priority::High {
            return false;
        }
        projected_us > self.budget_us(priority)
    }
}

impl Default for AdmissionControl {
    /// 50 ms / 200 ms / 1 s SLOs for High / Normal / Low with 80% headroom
    /// and a 10 000-request queue bound: tight enough that a saturated
    /// server sheds background work within tens of milliseconds, loose
    /// enough that bursty but sustainable traffic is never touched.
    fn default() -> Self {
        AdmissionControl::new(
            [Duration::from_secs(1), Duration::from_millis(200), Duration::from_millis(50)],
            0.8,
            10_000,
        )
    }
}

/// Cluster membership of one serving node (see `docs/CLUSTER.md`).
///
/// Every node in a cluster runs with the same `seed`, `vnodes` and
/// `replication`, its own `node_id`/`advertise`, and the full peer list;
/// from these each node builds the identical consistent-hash ring (see
/// [`crate::cluster::HashRing`]) and the initial versioned
/// [`crate::cluster::ShardMap`] it hands to clients at `HELO` time. There
/// is no coordinator: liveness is peer-observed through periodic `HELO`
/// pings, and a peer that misses `ping_failures` consecutive probes is
/// marked dead locally, bumping the local map version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// This node's stable id — the ring hashes ids, not addresses, so an
    /// address change does not reshard the catalogue.
    pub node_id: u16,
    /// The address published to clients in shard maps. Empty means "use
    /// the wire listener's actual bound address", which only works when
    /// clients share the node's network namespace (tests, loopback).
    pub advertise: String,
    /// The other members as `(node_id, address)` pairs.
    pub peers: Vec<(u16, String)>,
    /// Replica-group size per shard: how many distinct nodes serve each
    /// model key. `1` is plain sharding; `2`+ keeps hot models servable
    /// through a single node failure.
    pub replication: usize,
    /// Virtual nodes per member on the ring. More vnodes = better balance
    /// at slightly larger ring-build cost; 64–128 is the useful range.
    pub vnodes: usize,
    /// Ring seed; all members must agree.
    pub seed: u64,
    /// How often this node pings each peer for liveness.
    pub ping_interval: Duration,
    /// Consecutive failed pings before a peer is marked dead.
    pub ping_failures: u32,
}

impl ClusterConfig {
    /// A cluster member with the given identity and peers, defaulting to
    /// replication 2, 64 virtual nodes, seed 0, 500 ms pings and death
    /// after 3 consecutive failures.
    pub fn new(node_id: u16, advertise: impl Into<String>, peers: Vec<(u16, String)>) -> Self {
        ClusterConfig {
            node_id,
            advertise: advertise.into(),
            peers,
            replication: 2,
            vnodes: 64,
            seed: 0,
            ping_interval: Duration::from_millis(500),
            ping_failures: 3,
        }
    }

    /// Overrides the replica-group size.
    ///
    /// # Panics
    /// Panics if `replication` is zero.
    pub fn with_replication(mut self, replication: usize) -> Self {
        assert!(replication > 0, "each shard needs at least one replica");
        self.replication = replication;
        self
    }

    /// Overrides the virtual-node count per member.
    ///
    /// # Panics
    /// Panics if `vnodes` is zero.
    pub fn with_vnodes(mut self, vnodes: usize) -> Self {
        assert!(vnodes > 0, "the ring needs at least one virtual node per member");
        self.vnodes = vnodes;
        self
    }

    /// Overrides the ring seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the peer-ping cadence and the consecutive-failure death
    /// threshold.
    ///
    /// # Panics
    /// Panics if `interval` is zero or `failures` is zero.
    pub fn with_ping(mut self, interval: Duration, failures: u32) -> Self {
        assert!(!interval.is_zero(), "the ping interval must be non-zero");
        assert!(failures > 0, "at least one failed ping must precede death");
        self.ping_interval = interval;
        self.ping_failures = failures;
        self
    }
}

/// A pool of modelled GPUs batches are dispatched onto.
///
/// Each device gets one pinned worker thread and its own
/// [`crate::BatchTimingModel`]. An idle worker pulls each released batch and
/// routes it to the cheapest device idle at that moment — itself on a tie
/// (see [`crate::DeviceDispatcher`]). Pools may be heterogeneous — e.g. a
/// mix of [`GpuConfig::v100`] and [`GpuConfig::a100`] — in which case a
/// faster device runs every batch it is idle for, and a slower one takes
/// what arrives while the faster ones are busy.
#[derive(Clone, Debug)]
pub struct DevicePool {
    devices: Vec<GpuConfig>,
}

impl DevicePool {
    /// A pool over an explicit device list.
    ///
    /// # Panics
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<GpuConfig>) -> Self {
        assert!(!devices.is_empty(), "a device pool needs at least one device");
        DevicePool { devices }
    }

    /// `count` identical devices.
    ///
    /// # Panics
    /// Panics if `count` is zero.
    pub fn homogeneous(gpu: GpuConfig, count: usize) -> Self {
        assert!(count > 0, "a device pool needs at least one device");
        DevicePool { devices: vec![gpu; count] }
    }

    /// The member devices, in worker-pinning order.
    pub fn devices(&self) -> &[GpuConfig] {
        &self.devices
    }

    /// The device whose kernel tiling the shared model encodings target
    /// (the first in the pool).
    pub fn primary(&self) -> &GpuConfig {
        &self.devices[0]
    }

    /// Number of devices (= number of pinned workers).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always `false`: pools are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device names, in pool order.
    pub fn names(&self) -> Vec<String> {
        self.devices.iter().map(|d| d.name.clone()).collect()
    }
}

impl Default for DevicePool {
    fn default() -> Self {
        DevicePool::homogeneous(GpuConfig::v100(), 2)
    }
}

/// Configuration of an [`crate::InferenceServer`].
///
/// The defaults (two pooled V100s, batches of up to eight requests, a
/// two-millisecond cap on queue deadlines, a 64-wide proxy feature
/// dimension) are sized so the serving smoke tests and the demo run in
/// seconds; a throughput deployment grows the pool and `max_batch`. The
/// in-memory encode-cache tier is always bounded by [`CacheBudget`]'s
/// default.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The modelled devices; one pinned worker thread each.
    pub devices: DevicePool,
    /// Largest number of requests merged into one batch.
    pub max_batch: usize,
    /// The cap on a request's queue deadline (its SLO, or this when it has
    /// none). Deadlines order release and extraction; they hold no batch:
    /// an idle worker takes queued work at once.
    pub max_queue_wait: Duration,
    /// Feature dimension of the functional proxy GEMMs each request flows
    /// through (the modelled latency always uses the network's *real*
    /// shapes; see [`crate::ModelRepository`]).
    pub proxy_dim: usize,
    /// Directory of the persistent encoded-weight store (`--encode-cache-dir`
    /// on `serve_demo`). `None` keeps the encode cache memory-only; set, a
    /// restarted server restores encoded artifacts from disk and skips the
    /// prune+encode warm-up entirely.
    pub encode_cache_dir: Option<PathBuf>,
    /// Entry/**file**-byte bound on the on-disk store tier. The store is
    /// GC'd back under this budget (LRU by last restore) at boot and on
    /// every store touch; see `docs/ENCODING_CACHE.md`.
    pub encode_store_budget: CacheBudget,
    /// SLO-aware admission control. `None` (the default) admits every
    /// well-formed request, exactly as before this knob existed; `Some`
    /// sheds load at submit time once projected queue delay exhausts a
    /// class's SLO headroom.
    pub admission: Option<AdmissionControl>,
    /// Listen address of the TCP front-end ([`crate::net::WireServer`]).
    /// `None` (the default) binds loopback with an OS-assigned port when a
    /// wire server is started, and is ignored entirely by the in-process
    /// [`crate::InferenceServer`].
    pub listen: Option<SocketAddr>,
    /// Most client connections the wire front-end holds open at once;
    /// accepts beyond the limit are closed immediately (counted in
    /// [`crate::stats::WireStats::connections_rejected`]).
    pub max_connections: usize,
    /// Largest **request** frame body accepted, in bytes. A request
    /// declaring more is rejected from its ten-byte envelope, before any
    /// allocation. Responses to legal requests may exceed this by the
    /// fixed [`crate::net::frame::RESPONSE_HEADROOM`], which
    /// response-stream decoders (the [`crate::net::WireClient`]) allow
    /// for.
    pub max_frame_len: usize,
    /// Listen address of the Prometheus-style metrics endpoint
    /// (`--metrics-addr` in the demo binary). `None` (the default) serves
    /// no endpoint; set, the wire front-end's event loop also listens here
    /// and answers every request with the [`crate::render_prometheus`]
    /// exposition (scrapes hold no `max_connections` slot).
    pub metrics_addr: Option<SocketAddr>,
    /// File that receives completed request traces as chrome-trace JSONL
    /// (`--trace-out` in the demo binary). `None` keeps traces in the
    /// bounded in-memory ring only.
    pub trace_out: Option<PathBuf>,
    /// Largest number of unflushed response bytes the wire front-end
    /// buffers for one connection. A client that stops reading while
    /// responses keep completing breaches the cap; the server then drops
    /// the backlog and poisons the connection with a final error frame
    /// (counted in [`crate::stats::WireStats::outbound_overflows`])
    /// instead of growing without bound.
    pub max_outbound_bytes: usize,
    /// Cluster membership of this node. `None` (the default) serves
    /// standalone: the wire front-end still answers `HELO` with a
    /// single-node shard map so cluster-aware clients work unchanged.
    pub cluster: Option<ClusterConfig>,
    /// Shared secret required in every client `HELO` (`--auth-token` on
    /// `serve_demo`). `None` (the default) accepts tokenless hellos; set,
    /// a hello with a wrong or missing token is answered with an
    /// `Unauthorized` error frame and the connection closes. Compared in
    /// constant time.
    pub auth_token: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: DevicePool::default(),
            max_batch: 8,
            max_queue_wait: Duration::from_millis(2),
            proxy_dim: 64,
            encode_cache_dir: None,
            encode_store_budget: CacheBudget::store_default(),
            admission: None,
            listen: None,
            max_connections: 256,
            max_frame_len: 1 << 24,
            metrics_addr: None,
            trace_out: None,
            // Four max-size response frames of headroom before a
            // non-reading client is declared stuck.
            max_outbound_bytes: 1 << 26,
            cluster: None,
            auth_token: None,
        }
    }
}

impl ServeConfig {
    /// Number of worker threads (one per pooled device).
    pub fn workers(&self) -> usize {
        self.devices.len()
    }

    /// Resizes the pool to `workers` copies of its primary device.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        self.devices = DevicePool::homogeneous(self.devices.primary().clone(), workers);
        self
    }

    /// Overrides the maximum batch size.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch > 0, "batches need at least one request");
        self.max_batch = max_batch;
        self
    }

    /// Overrides the cap on queue deadlines.
    pub fn with_max_queue_wait(mut self, wait: Duration) -> Self {
        self.max_queue_wait = wait;
        self
    }

    /// Overrides the proxy feature dimension.
    ///
    /// # Panics
    /// Panics if `proxy_dim` is zero.
    pub fn with_proxy_dim(mut self, proxy_dim: usize) -> Self {
        assert!(proxy_dim > 0, "proxy dimension must be non-zero");
        self.proxy_dim = proxy_dim;
        self
    }

    /// Overrides the device pool.
    pub fn with_devices(mut self, devices: DevicePool) -> Self {
        self.devices = devices;
        self
    }

    /// Enables the persistent encoded-weight store under `dir`.
    pub fn with_encode_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.encode_cache_dir = Some(dir.into());
        self
    }

    /// Overrides the on-disk store budget.
    pub fn with_encode_store_budget(mut self, budget: CacheBudget) -> Self {
        self.encode_store_budget = budget;
        self
    }

    /// Enables SLO-aware admission control with `policy`.
    pub fn with_admission_control(mut self, policy: AdmissionControl) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Sets the TCP front-end's listen address (e.g. `"127.0.0.1:7411"`).
    pub fn with_listen(mut self, listen: SocketAddr) -> Self {
        self.listen = Some(listen);
        self
    }

    /// Overrides the open-connection limit of the TCP front-end.
    ///
    /// # Panics
    /// Panics if `max_connections` is zero.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        assert!(max_connections > 0, "the front-end needs at least one connection");
        self.max_connections = max_connections;
        self
    }

    /// Sets nothing: the wire front-end is one reactor. Kept only for the
    /// `.with_reactors(1)` call in `benchmark/src/workloads/serve_wire.rs:75`;
    /// the next `[benchmark]` change deletes that call and this builder.
    ///
    /// # Panics
    /// Panics if `reactors` is not 1.
    #[doc(hidden)]
    pub fn with_reactors(self, reactors: usize) -> Self {
        assert_eq!(reactors, 1, "the wire front-end is one reactor");
        self
    }

    /// Enables the Prometheus-style metrics endpoint on `addr` (e.g.
    /// `"127.0.0.1:9114"`).
    pub fn with_metrics_addr(mut self, addr: SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }

    /// Streams completed request traces to `path` as chrome-trace JSONL.
    pub fn with_trace_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_out = Some(path.into());
        self
    }

    /// Sets nothing, for any count: a device worker runs each kernel call on
    /// its own thread. Kept only for the `.with_execute_threads(1)` call in
    /// `benchmark/src/workloads/serve_wire.rs`; the next change to
    /// `benchmark/` deletes that call and this builder.
    #[doc(hidden)]
    pub fn with_execute_threads(self, _execute_threads: usize) -> Self {
        self
    }

    /// Overrides the per-connection outbound buffer cap.
    ///
    /// # Panics
    /// Panics if `max_outbound_bytes` cannot hold even one error frame.
    pub fn with_max_outbound_bytes(mut self, max_outbound_bytes: usize) -> Self {
        assert!(max_outbound_bytes >= 64, "the outbound cap must admit an error frame");
        self.max_outbound_bytes = max_outbound_bytes;
        self
    }

    /// Joins this node to a cluster.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Requires `token` in every client `HELO`.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.workers() >= 2);
        assert!(c.max_batch > 1);
        assert!(c.proxy_dim % 32 == 0);
        assert_eq!(c.devices.primary().name, "Tesla V100");
    }

    #[test]
    #[should_panic(expected = "one reactor")]
    fn more_than_one_reactor_is_refused() {
        let _ = ServeConfig::default().with_reactors(2);
    }

    #[test]
    #[should_panic(expected = "one reactor")]
    fn zero_reactors_are_refused() {
        let _ = ServeConfig::default().with_reactors(0);
    }

    #[test]
    fn one_reactor_is_accepted_and_changes_nothing() {
        let c = ServeConfig::default().with_max_batch(3);
        assert_eq!(format!("{:?}", c.clone().with_reactors(1)), format!("{c:?}"));
    }

    #[test]
    fn builders_override_fields() {
        let c = ServeConfig::default()
            .with_workers(5)
            .with_max_batch(3)
            .with_max_queue_wait(Duration::from_millis(7))
            .with_proxy_dim(96)
            .with_encode_cache_dir("/tmp/dsstc-test-cache");
        assert_eq!(c.workers(), 5);
        assert_eq!(c.max_batch, 3);
        assert_eq!(c.max_queue_wait, Duration::from_millis(7));
        assert_eq!(c.proxy_dim, 96);
        assert_eq!(c.encode_cache_dir, Some(PathBuf::from("/tmp/dsstc-test-cache")));
    }

    #[test]
    fn telemetry_knobs_default_off_and_build_on() {
        let c = ServeConfig::default();
        assert_eq!(c.metrics_addr, None);
        assert_eq!(c.trace_out, None);
        let c = c
            .with_metrics_addr("127.0.0.1:9114".parse().unwrap())
            .with_trace_out("/tmp/dsstc-trace.jsonl");
        assert_eq!(c.metrics_addr, Some("127.0.0.1:9114".parse().unwrap()));
        assert_eq!(c.trace_out, Some(PathBuf::from("/tmp/dsstc-trace.jsonl")));
    }

    #[test]
    fn execute_threads_and_outbound_cap_have_safe_defaults_and_builders() {
        let c = ServeConfig::default();
        assert!(c.max_outbound_bytes >= c.max_frame_len, "cap must admit a full response");
        for threads in [0, 1, 3] {
            let same = format!("{:?}", c.clone().with_execute_threads(threads));
            assert_eq!(same, format!("{c:?}"), "the execute-threads builder sets nothing");
        }
        let c = c.with_max_outbound_bytes(1 << 20);
        assert_eq!(c.max_outbound_bytes, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "outbound cap")]
    fn outbound_cap_rejects_degenerate_values() {
        let _ = ServeConfig::default().with_max_outbound_bytes(8);
    }

    #[test]
    fn encode_cache_defaults_to_memory_only_with_a_bounded_budget() {
        let c = ServeConfig::default();
        assert_eq!(c.encode_cache_dir, None);
        // The server's memory tier runs at the default budget.
        assert!(CacheBudget::default().max_entries < usize::MAX);
        assert!(CacheBudget::default().max_bytes < u64::MAX);
    }

    #[test]
    fn with_gpu_keeps_pool_size_and_with_devices_replaces_it() {
        let c = ServeConfig::default().with_workers(3);
        assert_eq!(c.workers(), 3);
        let mixed = DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]);
        let c = c.with_devices(mixed);
        assert_eq!(c.workers(), 2);
        assert_eq!(c.devices.names(), vec!["Tesla V100".to_string(), "A100".to_string()]);
        assert!(!c.devices.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ServeConfig::default().with_workers(0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_panics() {
        let _ = DevicePool::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_batch_panics() {
        let _ = ServeConfig::default().with_max_batch(0);
    }

    #[test]
    fn store_lifecycle_knobs_default_sanely_and_build_on() {
        let c = ServeConfig::default();
        assert_eq!(c.encode_store_budget, CacheBudget::store_default());
        assert!(c.encode_store_budget.max_bytes > CacheBudget::default().max_bytes);
        let c = c.with_encode_store_budget(CacheBudget { max_entries: 8, max_bytes: 1 << 16 });
        assert_eq!(c.encode_store_budget, CacheBudget { max_entries: 8, max_bytes: 1 << 16 });
    }

    #[test]
    fn cluster_and_auth_default_off_and_build_on() {
        let c = ServeConfig::default();
        assert_eq!(c.cluster, None, "standalone by default");
        assert_eq!(c.auth_token, None, "tokenless by default");
        let member = ClusterConfig::new(1, "127.0.0.1:7401", vec![(0, "127.0.0.1:7400".into())])
            .with_replication(3)
            .with_vnodes(128)
            .with_seed(42)
            .with_ping(Duration::from_millis(100), 2);
        let c = c.with_cluster(member.clone()).with_auth_token("sesame");
        let cluster = c.cluster.expect("joined");
        assert_eq!(cluster, member);
        assert_eq!(cluster.node_id, 1);
        assert_eq!(cluster.replication, 3);
        assert_eq!(cluster.vnodes, 128);
        assert_eq!(cluster.seed, 42);
        assert_eq!(cluster.ping_interval, Duration::from_millis(100));
        assert_eq!(cluster.ping_failures, 2);
        assert_eq!(c.auth_token.as_deref(), Some("sesame"));
    }

    #[test]
    fn cluster_defaults_survive_a_single_node_failure() {
        let member = ClusterConfig::new(0, "", Vec::new());
        assert!(member.replication >= 2, "hot models must outlive one node");
        assert!(member.vnodes >= 64, "enough vnodes for balance");
        assert!(member.ping_failures >= 2, "one dropped ping must not kill a peer");
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replication_panics() {
        let _ = ClusterConfig::new(0, "", Vec::new()).with_replication(0);
    }

    #[test]
    #[should_panic(expected = "virtual node")]
    fn zero_vnodes_panics() {
        let _ = ClusterConfig::new(0, "", Vec::new()).with_vnodes(0);
    }

    #[test]
    fn admission_control_defaults_off_and_builds_on() {
        let c = ServeConfig::default();
        assert_eq!(c.admission, None, "admission control must be opt-in");
        let c = c.with_admission_control(AdmissionControl::default());
        let policy = c.admission.expect("enabled");
        assert!(policy.slo_for(Priority::High) < policy.slo_for(Priority::Normal));
        assert!(policy.slo_for(Priority::Normal) < policy.slo_for(Priority::Low));
        assert!(policy.headroom > 0.0 && policy.headroom <= 1.0);
        assert!(policy.max_queue > 0);
    }

    #[test]
    fn should_shed_compares_projection_to_slo_headroom() {
        let policy = AdmissionControl::new(
            [Duration::from_millis(100), Duration::from_millis(100), Duration::from_millis(100)],
            0.5,
            1000,
        );
        // Budget is 100 ms × 0.5 = 50 000 µs; at or under it admits.
        assert_eq!(policy.budget_us(Priority::Low), 50_000.0);
        assert!(!policy.should_shed(Priority::Low, 50_000.0, 0), "boundary admits");
        assert!(policy.should_shed(Priority::Low, 50_000.1, 0), "over the boundary sheds");
        assert!(!policy.should_shed(Priority::Normal, 0.0, 0));
    }

    #[test]
    fn the_queue_bound_sheds_every_class_including_high() {
        let policy = AdmissionControl::new([Duration::from_secs(1); 3], 1.0, 4);
        assert!(
            !policy.should_shed(Priority::High, f64::INFINITY, 3),
            "projection never sheds high"
        );
        assert!(policy.should_shed(Priority::High, 0.0, 4), "the hard bound does");
        assert!(policy.should_shed(Priority::Low, 0.0, 4));
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn zero_headroom_panics() {
        let _ = AdmissionControl::new([Duration::from_secs(1); 3], 0.0, 10);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn over_unity_headroom_panics() {
        let _ = AdmissionControl::new([Duration::from_secs(1); 3], 1.1, 10);
    }

    #[test]
    #[should_panic(expected = "queue bound")]
    fn zero_queue_bound_panics() {
        let _ = AdmissionControl::new([Duration::from_secs(1); 3], 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "SLO must be non-zero")]
    fn zero_slo_panics() {
        let _ = AdmissionControl::new(
            [Duration::from_secs(1), Duration::ZERO, Duration::from_secs(1)],
            0.5,
            10,
        );
    }

    mod admission_props {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        fn arb_policy() -> impl Strategy<Value = AdmissionControl> {
            (1u64..=2_000_000, 1u64..=2_000_000, 1u64..=2_000_000, 1u32..=100, 1usize..=64)
                .prop_map(|(low, normal, high, headroom_pct, max_queue)| {
                    AdmissionControl::new(
                        [
                            Duration::from_micros(low),
                            Duration::from_micros(normal),
                            Duration::from_micros(high),
                        ],
                        f64::from(headroom_pct) / 100.0,
                        max_queue,
                    )
                })
        }

        proptest! {
            /// Shedding never rejects a request whose class still has SLO
            /// headroom (while the hard queue bound holds).
            #[test]
            fn never_sheds_within_slo_headroom(
                policy in arb_policy(),
                class in 0usize..3,
                fraction_permille in 0u32..=1000,
            ) {
                let priority = Priority::ALL[class];
                let projected = policy.budget_us(priority) * f64::from(fraction_permille) / 1e3;
                prop_assert!(
                    !policy.should_shed(priority, projected, policy.max_queue - 1),
                    "shed at {fraction_permille} permille of the SLO headroom"
                );
            }

            /// High priority is never shed by projection, however extreme.
            #[test]
            fn high_priority_is_never_shed_by_projection(
                policy in arb_policy(),
                projected_us in 0u64..1_000_000_000_000,
            ) {
                let projected = projected_us as f64;
                prop_assert!(!policy.should_shed(Priority::High, projected, policy.max_queue - 1));
            }

            /// Shedding is monotone in the projection: once a class sheds
            /// at some projected delay, every larger delay sheds too.
            #[test]
            fn shedding_is_monotone_in_projection(
                policy in arb_policy(),
                class in 0usize..3,
                projected_us in 0u64..1_000_000_000,
                extra_us in 0u64..1_000_000_000,
                queued in 0usize..64,
            ) {
                let (projected, extra) = (projected_us as f64, extra_us as f64);
                let priority = Priority::ALL[class];
                if policy.should_shed(priority, projected, queued) {
                    prop_assert!(policy.should_shed(priority, projected + extra, queued));
                }
            }

            /// Under an adversarial arrival sequence the admitted queue
            /// depth never exceeds the configured bound.
            #[test]
            fn queue_depth_stays_within_the_bound_under_adversarial_arrivals(
                policy in arb_policy(),
                seed in any::<u64>(),
                arrivals in 1usize..=512,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut queued = 0usize;
                for _ in 0..arrivals {
                    // The adversary picks the class, an arbitrary modelled
                    // projection, and occasionally drains a request.
                    if queued > 0 && rng.random_bool(0.3) {
                        queued -= 1;
                        continue;
                    }
                    let priority = Priority::ALL[rng.random_range(0usize..3)];
                    let projected = rng.random_range(0.0f64..3e6);
                    if !policy.should_shed(priority, projected, queued) {
                        queued += 1;
                    }
                    prop_assert!(
                        queued <= policy.max_queue,
                        "queue depth {queued} exceeded the bound {}",
                        policy.max_queue
                    );
                }
            }
        }
    }
}
