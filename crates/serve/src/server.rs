//! The serving front-end tying queue, repository, timing model, workers and
//! stats together.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::batcher::{BatchPolicy, BatchScheduler, PendingRequest, Wake};
use crate::config::ServeConfig;
use crate::dispatch::{DeviceDispatcher, DispatchPolicy};
use crate::request::{InferRequest, InferResponse, Priority};
use crate::stats::ServerStats;
use crate::store::ModelRepository;
use crate::telemetry::{RequestTrace, Stage, Telemetry};
use crate::worker::{WorkerContext, WorkerPool};

/// Worker threads the boot-time warmer restores persisted artifacts with.
const WARM_BOOT_THREADS: usize = 4;

/// Why a request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request was malformed (wrong feature width, empty features...).
    InvalidRequest(String),
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// A bounded wait elapsed before the response arrived.
    Timeout,
    /// Admission control shed the request: the projected queue delay for
    /// its priority class exhausted the class's SLO headroom (or the hard
    /// queue bound was hit). Retry later, or at a higher priority.
    ShedLoad {
        /// The class the request was shed from.
        priority: Priority,
        /// The modelled queue delay the request was projected to see, µs.
        projected_us: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::Timeout => f.write_str("timed out waiting for the response"),
            ServeError::ShedLoad { priority, projected_us } => write!(
                f,
                "load shed: projected queue delay {projected_us} us exhausts the {} class's \
                 SLO headroom",
                priority.name()
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Handle to a submitted request; resolves to its [`InferResponse`].
#[derive(Debug)]
pub struct PendingResponse {
    id: u64,
    rx: Receiver<InferResponse>,
}

impl PendingResponse {
    /// The server-assigned request id (matches the eventual response's).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<InferResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ShuttingDown)
    }

    /// Blocks up to `timeout` for the response.
    ///
    /// On timeout the handle is returned so the caller can keep waiting.
    pub fn wait_timeout(self, timeout: Duration) -> Result<InferResponse, (Self, ServeError)> {
        match self.rx.recv_timeout(timeout) {
            Ok(response) => Ok(response),
            Err(RecvTimeoutError::Timeout) => Err((self, ServeError::Timeout)),
            Err(RecvTimeoutError::Disconnected) => Err((self, ServeError::ShuttingDown)),
        }
    }
}

/// A batched, multi-threaded inference server over the dual-side sparse
/// Tensor Core stack.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct InferenceServer {
    config: ServeConfig,
    context: Arc<WorkerContext>,
    pool: Option<WorkerPool>,
    next_id: AtomicU64,
}

impl InferenceServer {
    /// Boots the server: builds the shared state (one encoding spec, timing
    /// model and kernel per pooled device; the repository optionally backed
    /// by a persistent `encode_cache_dir`) and spawns one pinned worker per
    /// device. Models are encoded lazily on their first request — or
    /// restored from the on-disk store when a previous run already encoded
    /// them.
    pub fn start(config: ServeConfig) -> Self {
        let mut server = Self::without_workers(config);
        server.spawn_workers();
        server
    }

    fn spawn_workers(&mut self) {
        self.pool = Some(WorkerPool::spawn(Arc::clone(&self.context)));
    }

    /// [`Self::start`] without the workers: nothing drains the queue until
    /// `spawn_workers` (the admission tests probe a held queue this way,
    /// since an idle worker takes a request the moment it is queued).
    fn without_workers(config: ServeConfig) -> Self {
        assert!(config.max_batch > 0, "batches need at least one request");
        let mut repository =
            ModelRepository::new(config.devices.primary().clone(), config.proxy_dim)
                .with_store_budget(config.encode_store_budget);
        if let Some(dir) = &config.encode_cache_dir {
            repository = repository.with_disk_cache(dir.clone());
        }
        let repository = Arc::new(repository);
        let dispatcher =
            Arc::new(DeviceDispatcher::new(&config.devices, DispatchPolicy::MinCompletionTime));
        if repository.disk_cache_dir().is_some() {
            // Boot-time warmer: restore (heal, or re-encode for the current
            // pool) every persisted artifact before the first request, so a
            // restarted server's first lookup is a memory hit.
            let mut specs: Vec<crate::EncodingSpec> = Vec::new();
            for &spec in dispatcher.specs() {
                if !specs.contains(&spec) {
                    specs.push(spec);
                }
            }
            let _ = repository.warm_boot(&specs, WARM_BOOT_THREADS);
        }
        let kernels = dispatcher.specs().iter().map(|&spec| repository.kernel_for(spec)).collect();
        let telemetry = match &config.trace_out {
            Some(path) => Telemetry::with_trace_out(path)
                .unwrap_or_else(|e| panic!("cannot open trace output {}: {e}", path.display())),
            None => Telemetry::new(),
        };
        let context = Arc::new(WorkerContext {
            scheduler: Arc::new(BatchScheduler::new(BatchPolicy {
                max_batch: config.max_batch,
                max_queue_wait: config.max_queue_wait,
            })),
            repository,
            dispatcher,
            telemetry: Arc::new(telemetry),
            kernels,
        });
        InferenceServer { config, context, pool: None, next_id: AtomicU64::new(0) }
    }

    /// The configuration the server was booted with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.pool.as_ref().map_or(0, WorkerPool::len)
    }

    /// The model repository (exposed for warm-up and inspection).
    pub fn repository(&self) -> &Arc<ModelRepository> {
        &self.context.repository
    }

    /// Requests currently waiting in the batching queue.
    pub fn queue_len(&self) -> usize {
        self.context.scheduler.queue_len()
    }

    /// Warm-up: loads, prunes and pre-encodes `model` at `weight_sparsity`
    /// for **every distinct device encoding in the pool** (restoring from
    /// the persistent store when possible), so no live request pays the
    /// one-time encode cost. Pricing needs no warm-up: a key's first price
    /// on a device builds its layers in closed form, in about a millisecond.
    /// Returns the total milliseconds spent obtaining the artifacts
    /// (zero-ish when everything was already cached; disk restores cost a
    /// fraction of a fresh encode).
    pub fn warm_model(&self, model: crate::ModelId, weight_sparsity: Option<f64>) -> f64 {
        let key = crate::ModelKey::new(model, weight_sparsity);
        let specs = self.context.dispatcher.specs();
        specs
            .iter()
            .enumerate()
            .filter(|&(i, spec)| !specs[..i].contains(spec))
            .map(|(_, &spec)| self.context.repository.get_for(key, spec).encode_ms)
            .sum()
    }

    /// Enqueues a request; the returned handle resolves to its response.
    pub fn submit(&self, request: InferRequest) -> Result<PendingResponse, ServeError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let id = self.submit_with(request, tx)?;
        Ok(PendingResponse { id, rx })
    }

    /// Enqueues a request whose response goes to a caller-supplied channel
    /// (several requests may share one channel — the TCP front-end's
    /// reactor funnels every wire request into one completion stream this
    /// way).
    /// Returns the server-assigned id the response will carry.
    pub fn submit_with(
        &self,
        request: InferRequest,
        response_tx: std::sync::mpsc::Sender<InferResponse>,
    ) -> Result<u64, ServeError> {
        self.submit_traced(request, response_tx, None, RequestTrace::new())
    }

    /// [`Self::submit_with`] continuing a caller-started [`RequestTrace`]
    /// (the TCP front-end stamps the wire-decode stage before submitting)
    /// and naming whom the worker wakes after the send (a wire reactor
    /// sleeps in epoll, not in `recv`). The admission stage, id, model and
    /// priority are stamped here.
    pub(crate) fn submit_traced(
        &self,
        request: InferRequest,
        response_tx: std::sync::mpsc::Sender<InferResponse>,
        wake: Option<Arc<dyn Wake>>,
        mut trace: RequestTrace,
    ) -> Result<u64, ServeError> {
        let expected = self.context.repository.input_dim();
        if request.features.cols() != expected {
            return Err(ServeError::InvalidRequest(format!(
                "features have {} columns, the server's proxy dimension is {expected}",
                request.features.cols()
            )));
        }
        if let Some(policy) = &self.config.admission {
            let queued = self.context.scheduler.queue_len();
            let projected_us = self.projected_queue_delay_us(request.key(), request.priority);
            if policy.should_shed(request.priority, projected_us, queued) {
                self.context.telemetry.record_shed(request.priority);
                return Err(ServeError::ShedLoad {
                    priority: request.priority,
                    projected_us: projected_us.round() as u64,
                });
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        trace.id = id;
        trace.model = Some(request.model);
        trace.priority = Some(request.priority);
        trace.record(Stage::Admitted);
        let pending = PendingRequest {
            id,
            key: request.key(),
            priority: request.priority,
            slo: request.deadline,
            features: request.features,
            response_tx,
            wake,
            enqueued: Instant::now(),
            trace,
        };
        if !self.context.scheduler.enqueue(pending) {
            return Err(ServeError::ShuttingDown);
        }
        Ok(id)
    }

    /// Convenience: submit and block for the response.
    pub fn infer(&self, request: InferRequest) -> Result<InferResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Modelled queue delay a newly admitted request of `priority` for
    /// `key` would see: the requests queued at or above its priority
    /// (everything the batcher extracts before it), spread across the
    /// pool, each priced at the key's modelled unit cost. Driven entirely
    /// by the [`crate::BatchTimingModel`] — deterministic, no wall clock —
    /// which is what makes the admission decision testable.
    pub fn projected_queue_delay_us(&self, key: crate::ModelKey, priority: Priority) -> f64 {
        let depths = self.context.scheduler.queue_depths();
        let ahead: usize = depths[priority.index()..].iter().sum();
        if ahead == 0 {
            return 0.0;
        }
        let unit_us = self.context.dispatcher.unit_cost_us(key);
        ahead as f64 * unit_us / self.context.dispatcher.len() as f64
    }

    /// A point-in-time metrics snapshot of the telemetry hub.
    pub fn stats(&self) -> ServerStats {
        self.context
            .telemetry
            .snapshot(self.context.repository.counters(), self.context.dispatcher.names())
    }

    /// The batch-to-device dispatcher (exposed for inspection: per-device
    /// timing models, encoding specs and the price of a batch on each
    /// device).
    pub fn dispatcher(&self) -> &Arc<DeviceDispatcher> {
        &self.context.dispatcher
    }

    /// The telemetry hub: the live latency histograms and the completed
    /// request-trace sink.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.context.telemetry
    }

    /// Stops accepting requests, drains the queue and joins the workers.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.context.scheduler.shutdown();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelId;
    use dsstc_tensor::Matrix;

    fn tiny_server(workers: usize, max_batch: usize) -> InferenceServer {
        InferenceServer::start(
            ServeConfig::default()
                .with_workers(workers)
                .with_max_batch(max_batch)
                .with_max_queue_wait(Duration::from_millis(1))
                .with_proxy_dim(32),
        )
    }

    fn features(seed: u64) -> Matrix {
        Matrix::random_sparse(2, 32, 0.4, dsstc_tensor::SparsityPattern::Uniform, seed)
    }

    #[test]
    fn infer_round_trips_one_request() {
        let server = tiny_server(1, 4);
        let response =
            server.infer(InferRequest::new(ModelId::BertBase, features(1))).expect("served");
        assert_eq!(response.output.rows(), 2);
        assert_eq!(response.output.cols(), 32);
        assert_eq!(response.model, ModelId::BertBase);
        assert!(response.queue_us >= 0.0);
        assert!(response.execute_us > 0.0);
        assert!(response.modelled_batch_us > 0.0);
    }

    #[test]
    fn submit_validates_feature_shape() {
        let server = tiny_server(1, 2);
        let bad_width = InferRequest::new(ModelId::RnnLm, Matrix::zeros(2, 16));
        assert!(matches!(server.submit(bad_width), Err(ServeError::InvalidRequest(_))));
    }

    #[test]
    fn shutdown_rejects_new_requests_and_is_idempotent() {
        let mut server = tiny_server(1, 2);
        server.shutdown();
        server.shutdown();
        assert_eq!(server.worker_count(), 0);
        assert!(matches!(
            server.submit(InferRequest::new(ModelId::BertBase, features(2))),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn stats_reflect_served_requests_and_cache_hits() {
        let server = tiny_server(2, 4);
        let pending: Vec<_> = (0..8)
            .map(|i| {
                server.submit(InferRequest::new(ModelId::BertBase, features(i))).expect("queued")
            })
            .collect();
        for p in pending {
            p.wait().expect("response");
        }
        let stats = server.stats();
        assert_eq!(stats.completed_requests, 8);
        assert!(stats.executed_batches >= 2);
        assert!(stats.mean_batch_size >= 1.0);
        // One miss (first batch encodes), the rest hit.
        assert_eq!(stats.encode.misses, 1);
        assert!(stats.encode.hits >= 1);
        assert!(stats.encode_hit_rate > 0.0);
    }

    #[test]
    fn a_never_warmed_keys_route_price_equals_its_price_after_warm_model() {
        use crate::config::DevicePool;
        use dsstc_sim::GpuConfig;
        // Warm-up only encodes, and a price is a pure function of the key,
        // the batch and the device: nothing seeded or remembered can differ.
        let pool = DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100(), GpuConfig::v100()]);
        let boot = || {
            InferenceServer::without_workers(
                ServeConfig::default().with_devices(pool.clone()).with_proxy_dim(32),
            )
        };
        let (cold, warm) = (boot(), boot());
        for model in [ModelId::ResNet50, ModelId::BertBase] {
            let key = crate::ModelKey::new(model, None);
            let prices = |server: &InferenceServer| {
                let mut routed = Vec::new();
                for (batch, asker) in
                    [1, 3, 8].into_iter().flat_map(|b| (0..3).map(move |a| (b, a)))
                {
                    let idle = [true, asker != 1, true];
                    routed.push(server.dispatcher().route(key, batch, &idle, asker));
                }
                routed
            };
            let never_warmed = prices(&cold);
            assert!(warm.warm_model(model, None) > 0.0, "{model} was encoded");
            assert_eq!(never_warmed, prices(&warm), "{model}");
        }
        // Two models, each encoded once per distinct device encoding.
        assert_eq!((cold.stats().encode.fresh_encodes, warm.stats().encode.fresh_encodes), (0, 4));
    }

    #[test]
    fn pending_response_ids_match_responses() {
        let server = tiny_server(1, 2);
        let pending =
            server.submit(InferRequest::new(ModelId::RnnLm, features(7))).expect("queued");
        let id = pending.id();
        let response = pending.wait().expect("response");
        assert_eq!(response.id, id);
    }

    #[test]
    fn responses_carry_priority_and_device() {
        use crate::request::Priority;
        let server = tiny_server(2, 2);
        let request = InferRequest::new(ModelId::RnnLm, features(9))
            .with_priority(Priority::High)
            .with_deadline(Duration::from_millis(1));
        let response = server.infer(request).expect("served");
        assert_eq!(response.priority, Priority::High);
        assert!(response.device < server.worker_count());
        let stats = server.stats();
        assert_eq!(stats.for_priority(Priority::High).completed, 1);
        assert_eq!(stats.per_device.len(), 2);
        assert!(stats.per_device.iter().any(|d| d.modelled_busy_us > 0.0));
    }

    #[test]
    fn shed_load_error_names_the_class_and_the_projection() {
        let e = ServeError::ShedLoad { priority: Priority::Low, projected_us: 1234 };
        let text = e.to_string();
        assert!(text.contains("1234 us"), "{text}");
        assert!(text.contains("low"), "{text}");
    }

    #[test]
    fn projected_queue_delay_is_zero_on_an_idle_server() {
        let server = tiny_server(1, 4);
        let key = crate::ModelKey::new(ModelId::BertBase, None);
        assert_eq!(server.projected_queue_delay_us(key, Priority::Low), 0.0);
        assert_eq!(server.projected_queue_delay_us(key, Priority::High), 0.0);
    }

    #[test]
    fn admission_sheds_low_priority_once_the_queue_exhausts_its_slo() {
        use crate::config::AdmissionControl;
        // One worker, batches of 8, and a queue nothing drains while we
        // probe admission. The low class gets a 1 us SLO (any backlog sheds
        // it); normal and high get an hour (projection never sheds them).
        let hour = Duration::from_secs(3600);
        let mut server = InferenceServer::without_workers(
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(8)
                .with_max_queue_wait(Duration::from_millis(500))
                .with_proxy_dim(32)
                .with_admission_control(AdmissionControl::new(
                    [Duration::from_micros(1), hour, hour],
                    1.0,
                    10_000,
                )),
        );
        let mut pending = Vec::new();
        for seed in 0..3 {
            let request = InferRequest::new(ModelId::BertBase, features(seed))
                .with_priority(Priority::Normal);
            pending.push(server.submit(request).expect("normal class has headroom"));
        }
        assert_eq!(server.queue_len(), 3, "the requests are still queued");
        let low = InferRequest::new(ModelId::BertBase, features(10)).with_priority(Priority::Low);
        match server.submit(low) {
            Err(ServeError::ShedLoad { priority, projected_us }) => {
                assert_eq!(priority, Priority::Low);
                assert!(projected_us > 0, "a non-empty queue projects a positive delay");
            }
            other => panic!("expected ShedLoad, got {other:?}"),
        }
        // High priority is never shed by projection.
        let high = InferRequest::new(ModelId::BertBase, features(11)).with_priority(Priority::High);
        pending.push(server.submit(high).expect("high class is projection-proof"));
        let stats = server.stats();
        assert_eq!(stats.total_shed(), 1);
        assert_eq!(stats.for_priority(Priority::Low).shed, 1);
        assert_eq!(stats.for_priority(Priority::High).shed, 0);
        server.spawn_workers();
        for p in pending {
            p.wait().expect("admitted requests complete");
        }
    }

    #[test]
    fn the_queue_bound_sheds_every_class_even_high() {
        use crate::config::AdmissionControl;
        // A queue nothing drains until the probe is done, bounded at two:
        // the third request is shed although it is High and every SLO is an
        // hour, and the two admitted ones are answered once workers start.
        let hour = Duration::from_secs(3600);
        let mut server = InferenceServer::without_workers(
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(8)
                .with_max_queue_wait(Duration::from_millis(500))
                .with_proxy_dim(32)
                .with_admission_control(AdmissionControl::new([hour, hour, hour], 1.0, 2)),
        );
        let mut pending = Vec::new();
        for seed in 0..2 {
            let request =
                InferRequest::new(ModelId::BertBase, features(seed)).with_priority(Priority::High);
            pending.push(server.submit(request).expect("under the bound"));
        }
        assert_eq!(server.queue_len(), 2);
        let over = InferRequest::new(ModelId::BertBase, features(5)).with_priority(Priority::High);
        match server.submit(over) {
            Err(ServeError::ShedLoad { priority, .. }) => assert_eq!(priority, Priority::High),
            other => panic!("expected ShedLoad, got {other:?}"),
        }
        assert_eq!(server.stats().for_priority(Priority::High).shed, 1);
        server.spawn_workers();
        for p in pending {
            p.wait().expect("admitted requests complete");
        }
    }

    #[test]
    fn a_restarted_server_warm_boots_and_skips_the_fresh_encode() {
        let dir = std::env::temp_dir().join(format!(
            "dsstc-server-warm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(2)
                .with_max_queue_wait(Duration::from_millis(1))
                .with_proxy_dim(32)
                .with_encode_cache_dir(&dir)
        };
        {
            let cold = InferenceServer::start(config());
            cold.infer(InferRequest::new(ModelId::RnnLm, features(1))).expect("served");
            let stats = cold.stats();
            assert_eq!(stats.encode.fresh_encodes, 1, "first run pays the encode");
            assert_eq!(stats.encode.warm_restored, 0, "nothing to warm on an empty store");
        }
        let warm = InferenceServer::start(config());
        let booted = warm.stats();
        assert_eq!(booted.encode.warm_restored, 1, "the artifact is restored at boot");
        assert!(booted.encode.store_entries >= 1);
        warm.infer(InferRequest::new(ModelId::RnnLm, features(2))).expect("served");
        let stats = warm.stats();
        assert_eq!(stats.encode.fresh_encodes, 0, "the warmed artifact serves from memory");
        assert!(stats.encode.hits >= 1);
        drop(warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The value of the unlabelled sample `family` in a scrape of `server`.
    fn scraped(server: &InferenceServer, family: &str) -> u64 {
        let text = crate::render_prometheus(&server.stats(), server.telemetry());
        let prefix = format!("{family} ");
        let line = text.lines().find_map(|l| l.strip_prefix(prefix.as_str()));
        line.unwrap_or_else(|| panic!("no {family} sample:\n{text}")).parse().expect("integer")
    }

    #[test]
    fn boot_store_state_reaches_the_scrape() {
        use crate::store::CacheBudget;
        let dir = std::env::temp_dir().join(format!(
            "dsstc-server-scrape-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(2)
                .with_max_queue_wait(Duration::from_millis(1))
                .with_proxy_dim(32)
                .with_encode_cache_dir(&dir)
        };
        {
            let cold = InferenceServer::start(config());
            for model in [ModelId::RnnLm, ModelId::BertBase] {
                cold.infer(InferRequest::new(model, features(1))).expect("served");
            }
            assert_eq!(scraped(&cold, "dsstc_cache_warm_restored_total"), 0);
        }
        {
            // A restart restores both artifacts at boot, nothing stale or
            // corrupt.
            let warm = InferenceServer::start(config());
            assert_eq!(scraped(&warm, "dsstc_cache_warm_restored_total"), 2);
            assert_eq!(scraped(&warm, "dsstc_cache_warm_reencoded_total"), 0);
            assert_eq!(scraped(&warm, "dsstc_cache_warm_healed_total"), 0);
            assert_eq!(scraped(&warm, "dsstc_cache_store_entries"), 2);
        }
        // A 1-byte store budget: boot GC shrinks the store to its
        // one-artifact floor.
        let budget = CacheBudget { max_entries: usize::MAX, max_bytes: 1 };
        let shrunk = InferenceServer::start(config().with_encode_store_budget(budget));
        assert_eq!(scraped(&shrunk, "dsstc_cache_store_entries"), 1);
        assert!(scraped(&shrunk, "dsstc_cache_store_gc_removed_total") >= 1);
        drop(shrunk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overloaded_server_gives_high_priority_strictly_lower_p99_queue_latency() {
        // One worker, small batches, one model: a burst of 64 heavy requests
        // (16 rows each through the VGG-16 proxy, 13 layers) is queued
        // before the worker starts, so extraction order alone decides who
        // waits.
        let mut server = InferenceServer::without_workers(
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(4)
                .with_max_queue_wait(Duration::from_millis(5))
                .with_proxy_dim(64),
        );
        server.warm_model(ModelId::Vgg16, None);
        let pending: Vec<_> = (0..64)
            .map(|i| {
                let priority = if i % 2 == 0 { Priority::High } else { Priority::Low };
                let input =
                    Matrix::random_sparse(16, 64, 0.4, dsstc_tensor::SparsityPattern::Uniform, i);
                let request = InferRequest::new(ModelId::Vgg16, input).with_priority(priority);
                server.submit(request).expect("queued")
            })
            .collect();
        assert_eq!(server.queue_len(), 64, "nothing drains before the worker starts");
        server.spawn_workers();
        for p in pending {
            let response = p.wait().expect("response");
            assert!(response.batch_size <= 4);
        }
        let stats = server.stats();
        let high = stats.for_priority(Priority::High);
        let low = stats.for_priority(Priority::Low);
        assert_eq!(high.completed, 32);
        assert_eq!(low.completed, 32);
        assert!(
            high.queue_p99_us < low.queue_p99_us,
            "high-priority p99 queue {:.0} us must beat low-priority {:.0} us",
            high.queue_p99_us,
            low.queue_p99_us
        );
        // The median separates too: the whole high class drains before the
        // bulk of the low class under overload.
        assert!(
            high.queue_p50_us < low.queue_p50_us,
            "high-priority p50 queue {:.0} us vs low-priority {:.0} us",
            high.queue_p50_us,
            low.queue_p50_us
        );
    }

    #[test]
    fn mixed_pool_server_spreads_batches_over_both_devices() {
        use crate::config::DevicePool;
        use dsstc_sim::GpuConfig;
        // A burst queued before the workers start. The A100 runs every batch
        // it is idle for — the first one, whichever worker pulls it — and a
        // batch pulled while it is busy runs on the V100. 128-row requests
        // keep each batch running well past the V100's next pull.
        let mut server = InferenceServer::without_workers(
            ServeConfig::default()
                .with_devices(DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]))
                .with_max_batch(4)
                .with_max_queue_wait(Duration::from_millis(1))
                .with_proxy_dim(64),
        );
        server.warm_model(ModelId::BertBase, None);
        let pending: Vec<_> = (0..48)
            .map(|i| {
                let input =
                    Matrix::random_sparse(128, 64, 0.4, dsstc_tensor::SparsityPattern::Uniform, i);
                server.submit(InferRequest::new(ModelId::BertBase, input)).expect("queued")
            })
            .collect();
        server.spawn_workers();
        for p in pending {
            p.wait().expect("response");
        }
        let stats = server.stats();
        assert_eq!(stats.completed_requests, 48);
        assert_eq!(stats.per_device.len(), 2);
        assert_eq!(stats.per_device[0].name, "Tesla V100");
        assert_eq!(stats.per_device[1].name, "A100");
        let executed: u64 = stats.per_device.iter().map(|d| d.batches).sum();
        assert_eq!(executed, stats.executed_batches);
        assert!(
            stats.per_device.iter().all(|d| d.batches > 0 && d.modelled_busy_us > 0.0),
            "both devices executed batches: {:?}",
            stats.per_device
        );
    }

    #[test]
    fn two_device_pool_serves_device_native_encodings_bit_for_bit() {
        use crate::config::DevicePool;
        use dsstc_sim::GpuConfig;
        // A mixed V100 + A100 pool: every response must carry the encoding
        // native to the device that executed it, and its output must equal
        // the single-device baseline of that device type **bit for bit**.
        // The burst is queued before the workers start, in six batches of
        // 512 rows: the A100 runs the first, and a batch pulled while it is
        // busy runs on the V100.
        let config = || {
            ServeConfig::default().with_proxy_dim(32).with_max_queue_wait(Duration::from_millis(2))
        };
        let pool = DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]);
        let inputs: Vec<Matrix> = (0..24)
            .map(|i| Matrix::random_sparse(128, 32, 0.4, dsstc_tensor::SparsityPattern::Uniform, i))
            .collect();

        // Single-device baselines, one per device type, batches of one.
        let mut baselines: Vec<Vec<Matrix>> = Vec::new();
        for gpu in pool.devices() {
            let server = InferenceServer::start(
                config().with_devices(DevicePool::homogeneous(gpu.clone(), 1)).with_max_batch(1),
            );
            let outputs = inputs.iter().map(|f| {
                let request = InferRequest::new(ModelId::ResNet18, f.clone());
                server.infer(request).expect("baseline response").output
            });
            baselines.push(outputs.collect());
        }

        let mut server =
            InferenceServer::without_workers(config().with_devices(pool.clone()).with_max_batch(4));
        let pending: Vec<_> = inputs
            .iter()
            .map(|f| {
                server.submit(InferRequest::new(ModelId::ResNet18, f.clone())).expect("queued")
            })
            .collect();
        server.spawn_workers();
        for (i, p) in pending.into_iter().enumerate() {
            let response = p.wait().expect("response");
            let device = response.device;
            // The executed encoding's tiling matches the chosen device's
            // native kernel tiling.
            assert_eq!(
                response.encoding.tiling,
                pool.devices()[device].native_tiling(),
                "request {i} on device {device} ran a foreign encoding"
            );
            // Bit-for-bit equality with that device type's baseline (exact
            // float equality, not approx).
            assert_eq!(
                response.output, baselines[device][i],
                "request {i} on device {device} diverged from the single-device baseline"
            );
        }
        let stats = server.stats();
        assert!(
            stats.per_device.iter().all(|d| d.batches > 0),
            "both devices executed batches: {:?}",
            stats.per_device
        );
    }

    #[test]
    fn heterogeneous_pool_is_reported_in_stats() {
        use crate::config::DevicePool;
        use dsstc_sim::GpuConfig;
        let server = InferenceServer::start(
            ServeConfig::default()
                .with_devices(DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]))
                .with_max_batch(2)
                .with_max_queue_wait(Duration::from_millis(1))
                .with_proxy_dim(32),
        );
        for seed in 0..6 {
            server.infer(InferRequest::new(ModelId::RnnLm, features(seed))).expect("served");
        }
        let stats = server.stats();
        assert_eq!(stats.per_device.len(), 2);
        assert_eq!(stats.per_device[0].name, "Tesla V100");
        assert_eq!(stats.per_device[1].name, "A100");
        let executed: u64 = stats.per_device.iter().map(|d| d.batches).sum();
        assert_eq!(executed, stats.executed_batches);
    }
}
