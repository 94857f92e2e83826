//! The worker pool: a dispatcher thread routing released batches to the
//! device minimising modelled completion time, plus one pinned OS worker
//! thread per device that executes its batches through the pre-encoded
//! model on the dual-side SpGEMM kernel and fans responses back out per
//! request.
//!
//! Completion routing is per-request, not per-ingress: every request
//! carries its own response `Sender` (captured at submit time), so one
//! batch can fan its responses out to any mix of in-process callers and
//! the wire reactor — it submits with a clone of its completion channel
//! plus its waker, and the worker follows each such send with a wake, so
//! the event loop itself receives its connections' responses back
//! ([`crate::net::server`]).
//!
//! Device queues are **bounded to one in-flight batch** (`sync_channel(1)`)
//! so the dispatcher barely runs ahead of the pool: requests wait in the
//! priority-aware scheduler — where SLO flushes and priority extraction
//! still apply to them — rather than in a FIFO channel that would freeze
//! their order the moment they were released. A full queue redirects the
//! batch to the next-best device; the dispatcher blocks only when every
//! device is backed up.

use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
use dsstc_tensor::Matrix;

use crate::batcher::{Batch, BatchScheduler};
use crate::dispatch::DeviceDispatcher;
use crate::request::InferResponse;
use crate::store::ModelRepository;
use crate::telemetry::{Stage, Telemetry};

/// Everything the dispatcher and worker threads need, shared by `Arc`.
#[derive(Debug)]
pub(crate) struct WorkerContext {
    pub scheduler: Arc<BatchScheduler>,
    pub repository: Arc<ModelRepository>,
    pub dispatcher: Arc<DeviceDispatcher>,
    pub telemetry: Arc<Telemetry>,
    /// One SpGEMM kernel per pooled device, running that device's native
    /// tiling — worker `i` executes its batches on `kernels[i]` against
    /// encodings fetched for `dispatcher.spec(i)`.
    pub kernels: Vec<BitmapSpGemm>,
}

impl WorkerContext {
    /// Builds the per-device kernels from the dispatcher's encoding specs,
    /// each allowed to fan a single large-M GEMM across `execute_threads`
    /// threads (`0` = size to the host; see
    /// [`BitmapSpGemm::with_execute_threads`]).
    pub(crate) fn kernels_for(
        repository: &ModelRepository,
        dispatcher: &DeviceDispatcher,
        execute_threads: usize,
    ) -> Vec<BitmapSpGemm> {
        dispatcher
            .specs()
            .iter()
            .map(|&spec| repository.kernel_for(spec).with_execute_threads(execute_threads))
            .collect()
    }
}

/// One batch routed to one device, priced by the dispatcher. The worker
/// fetches the encoded model itself, so a cold model's prune+encode stalls
/// only its own device, never the dispatcher.
#[derive(Debug)]
struct DeviceJob {
    batch: Batch,
    modelled_batch_us: f64,
}

/// A pool of per-device worker threads fed by a dispatcher thread draining
/// the batch scheduler.
#[derive(Debug)]
pub struct WorkerPool {
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns one pinned worker per pooled device plus the dispatcher
    /// thread; all run until the scheduler shuts down and drains.
    pub(crate) fn spawn(context: Arc<WorkerContext>) -> Self {
        let devices = context.dispatcher.len();
        let mut senders: Vec<SyncSender<DeviceJob>> = Vec::with_capacity(devices);
        let workers = (0..devices)
            .map(|device| {
                // Capacity 1: each device holds one executing batch plus one
                // queued batch; everything else stays schedulable.
                let (tx, rx) = std::sync::mpsc::sync_channel::<DeviceJob>(1);
                senders.push(tx);
                let context = Arc::clone(&context);
                std::thread::Builder::new()
                    .name(format!("dsstc-serve-worker-{device}"))
                    .spawn(move || worker_loop(device, &context, rx))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        let dispatcher = {
            let context = Arc::clone(&context);
            std::thread::Builder::new()
                .name("dsstc-serve-dispatch".to_string())
                .spawn(move || dispatch_loop(&context, senders))
                .expect("failed to spawn dispatcher thread")
        };
        WorkerPool { dispatcher: Some(dispatcher), workers }
    }

    /// Number of worker threads (one per device; the dispatcher is extra).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool has no workers (never true for a spawned pool).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Waits for the dispatcher and every worker to exit (call after the
    /// scheduler's `shutdown`).
    pub fn join(mut self) {
        // The dispatcher exits once the scheduler drains; dropping its
        // senders then closes every device queue and the workers follow.
        for handle in self.dispatcher.take().into_iter().chain(self.workers) {
            // A panicking thread already poisoned the shared state; surface
            // it instead of hanging the caller.
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// Pulls released batches and hands each to the device that would complete
/// it first. The hand-off is non-blocking with fallback: if the planned
/// device's bounded queue is full, the next-best device is planned instead,
/// so a backed-up device never idles the rest of the pool; only when
/// **every** device is backed up does the dispatcher block (genuine
/// pool-wide backpressure).
fn dispatch_loop(context: &WorkerContext, senders: Vec<SyncSender<DeviceJob>>) {
    // Dead-worker handling, shared by both send paths: fail fast instead
    // of letting callers block forever on responses nobody will produce —
    // reject new submissions and drop everything still queued, so every
    // in-flight wait() resolves to ShuttingDown. join() surfaces the
    // worker's panic.
    let fail_fast = || {
        context.scheduler.shutdown();
        while context.scheduler.next_batch().is_some() {}
    };
    // Stamping right before each hand-off attempt means a batch bounced
    // off a full queue keeps the timestamp of its *successful* dispatch.
    let stamp_dispatched = |job: &mut DeviceJob| {
        for request in &mut job.batch.requests {
            request.trace.record(Stage::Dispatched);
        }
    };
    'batches: while let Some(batch) = context.scheduler.next_batch() {
        let (key, size) = (batch.key, batch.len());
        let mut job = DeviceJob { batch, modelled_batch_us: 0.0 };
        let mut eligible = vec![true; senders.len()];
        loop {
            let Some(plan) = context.dispatcher.plan(key, size, &eligible) else {
                // Every device's queue is full: block on the overall best.
                let plan = context
                    .dispatcher
                    .plan(key, size, &vec![true; senders.len()])
                    .expect("non-empty device pool");
                let assignment = context.dispatcher.commit(plan);
                job.modelled_batch_us = assignment.modelled_batch_us;
                stamp_dispatched(&mut job);
                if senders[assignment.device].send(job).is_err() {
                    fail_fast();
                    return;
                }
                continue 'batches;
            };
            job.modelled_batch_us = plan.modelled_batch_us;
            stamp_dispatched(&mut job);
            match senders[plan.device].try_send(job) {
                Ok(()) => {
                    context.dispatcher.commit(plan);
                    continue 'batches;
                }
                Err(std::sync::mpsc::TrySendError::Full(returned)) => {
                    job = returned;
                    eligible[plan.device] = false;
                }
                Err(std::sync::mpsc::TrySendError::Disconnected(_)) => {
                    fail_fast();
                    return;
                }
            }
        }
    }
    // Scheduler drained: dropping the senders closes the device queues.
}

fn worker_loop(device: usize, context: &WorkerContext, jobs: Receiver<DeviceJob>) {
    while let Ok(job) = jobs.recv() {
        execute_batch(device, context, job.batch, job.modelled_batch_us);
    }
}

/// Runs one batch end-to-end: fetch the model encoded for **this device's**
/// tiling (hitting the encode cache after the first request), stack member
/// features into one larger-M GEMM chain, execute on the device's own
/// kernel, split the rows back out, and answer every request.
fn execute_batch(device: usize, context: &WorkerContext, mut batch: Batch, modelled_batch_us: f64) {
    let started = Instant::now();
    let spec = context.dispatcher.spec(device);
    let (model, cache_outcome) = context.repository.get_for_traced(batch.key, spec);
    for request in &mut batch.requests {
        request.trace.record(Stage::CacheResolved);
        request.trace.cache = Some(cache_outcome);
        request.trace.device = Some(device);
    }
    let batch_size = batch.len();

    // Stack member features row-wise: the batch runs as ONE GEMM chain with
    // M = sum of member rows.
    let cols = model.input_dim;
    let mut stacked = Matrix::zeros(batch.total_rows(), cols);
    let mut row = 0;
    for request in &batch.requests {
        stacked.set_tile(row, 0, &request.features);
        row += request.features.rows();
    }

    for request in &mut batch.requests {
        request.trace.record(Stage::ExecuteStart);
    }
    let output = model.forward(&context.kernels[device], &stacked);
    let modelled_request_us = modelled_batch_us / batch_size as f64;
    let execute_us = started.elapsed().as_secs_f64() * 1e6;
    for request in &mut batch.requests {
        request.trace.record(Stage::ExecuteEnd);
    }

    let queue_us: Vec<_> = batch
        .requests
        .iter()
        .map(|r| (r.priority, started.duration_since(r.enqueued).as_secs_f64() * 1e6))
        .collect();
    // Recorded before any response is sent: a caller that has its response
    // must see it counted in the next stats snapshot.
    context.telemetry.record_batch(
        device,
        &queue_us,
        execute_us,
        modelled_batch_us,
        modelled_request_us,
    );

    let mut row = 0;
    for (mut request, (priority, wait_us)) in batch.requests.into_iter().zip(queue_us) {
        let rows = request.features.rows();
        request.trace.record(Stage::Responded);
        let trace = request.trace;
        let response = InferResponse {
            id: request.id,
            model: batch.key.model,
            output: output.tile(row, 0, rows, output.cols()),
            queue_us: wait_us,
            execute_us,
            modelled_batch_us,
            modelled_request_us,
            batch_size,
            device,
            encoding: spec,
            priority,
            trace: trace.clone(),
        };
        row += rows;
        // A dropped receiver (caller gave up) is not an error for the
        // server; the work is still recorded in the stats.
        let _ = request.response_tx.send(response);
        if let Some(wake) = &request.wake {
            wake.wake();
        }
        // Wire traces are finalised (and recorded) by the front-end once
        // the response frame's bytes are flushed to the socket.
        if !trace.is_wire() {
            context.telemetry.record_completed(trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{BatchPolicy, PendingRequest};
    use crate::config::DevicePool;
    use crate::dispatch::DispatchPolicy;
    use crate::request::{ModelId, ModelKey, Priority};
    use dsstc_sim::GpuConfig;
    use std::sync::mpsc;
    use std::time::Duration;

    fn context(max_batch: usize, pool: DevicePool) -> Arc<WorkerContext> {
        let repository = Arc::new(ModelRepository::new(pool.primary().clone(), 32));
        let dispatcher = Arc::new(DeviceDispatcher::new(&pool, DispatchPolicy::MinCompletionTime));
        let kernels = WorkerContext::kernels_for(&repository, &dispatcher, 1);
        Arc::new(WorkerContext {
            scheduler: Arc::new(BatchScheduler::new(BatchPolicy {
                max_batch,
                max_queue_wait: Duration::from_millis(1),
            })),
            repository,
            dispatcher,
            telemetry: Arc::new(Telemetry::new()),
            kernels,
        })
    }

    fn single_v100() -> DevicePool {
        DevicePool::homogeneous(GpuConfig::v100(), 1)
    }

    #[test]
    fn batch_outputs_split_back_to_the_right_requests() {
        let ctx = context(4, single_v100());
        let key = ModelKey::new(ModelId::BertBase, None);
        let mut rxs = Vec::new();
        let mut requests = Vec::new();
        for id in 0..3u64 {
            let (tx, rx) = mpsc::channel();
            let features =
                Matrix::random_sparse(2, 32, 0.3, dsstc_tensor::SparsityPattern::Uniform, id + 1);
            requests.push(PendingRequest {
                id,
                key,
                priority: Priority::Normal,
                slo: None,
                features,
                response_tx: tx,
                wake: None,
                enqueued: Instant::now(),
                trace: crate::telemetry::RequestTrace::new(),
            });
            rxs.push(rx);
        }
        // Reference: run each request alone through the same encoded model.
        let model = ctx.repository.get(key);
        let singles: Vec<Matrix> =
            requests.iter().map(|r| model.forward(ctx.repository.kernel(), &r.features)).collect();
        let modelled = ctx.dispatcher.timing(0).batched_us(&model, 3);

        execute_batch(0, &ctx, Batch { key, requests }, modelled);
        for (id, (rx, single)) in rxs.into_iter().zip(singles).enumerate() {
            let response = rx.recv_timeout(Duration::from_secs(5)).expect("response arrives");
            assert_eq!(response.id, id as u64);
            assert_eq!(response.batch_size, 3);
            assert_eq!(response.device, 0);
            assert_eq!(response.priority, Priority::Normal);
            // Bit for bit: an output row's MAC sequence and each entry the
            // layer boundary emits depend on that row alone, so who a request
            // shared its batch with cannot change its bytes.
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(response.output.rows(), single.rows(), "request {id}");
            assert_eq!(bits(&response.output), bits(&single), "request {id}");
            assert!(response.modelled_batch_us > 0.0);
            assert!((response.modelled_request_us - response.modelled_batch_us / 3.0).abs() < 1e-9);
        }
        let stats =
            ctx.telemetry.snapshot(ctx.repository.counters(), 0.0, &["Tesla V100".to_string()]);
        assert_eq!(stats.completed_requests, 3);
        assert_eq!(stats.executed_batches, 1);
        assert_eq!(stats.per_device[0].batches, 1);
    }

    #[test]
    fn pool_drains_scheduler_and_exits_on_shutdown() {
        let ctx = context(2, DevicePool::homogeneous(GpuConfig::v100(), 2));
        let key = ModelKey::new(ModelId::RnnLm, Some(0.9));
        let mut rxs = Vec::new();
        for id in 0..5u64 {
            let (tx, rx) = mpsc::channel();
            assert!(ctx.scheduler.enqueue(PendingRequest {
                id,
                key,
                priority: Priority::Normal,
                slo: None,
                features: Matrix::zeros(1, 32),
                response_tx: tx,
                wake: None,
                enqueued: Instant::now(),
                trace: crate::telemetry::RequestTrace::new(),
            }));
            rxs.push(rx);
        }
        let pool = WorkerPool::spawn(Arc::clone(&ctx));
        assert_eq!(pool.len(), 2);
        for rx in &rxs {
            let _ = rx.recv_timeout(Duration::from_secs(30)).expect("response arrives");
        }
        ctx.scheduler.shutdown();
        pool.join();
        let stats = ctx.telemetry.snapshot(
            ctx.repository.counters(),
            0.0,
            &["gpu0".to_string(), "gpu1".to_string()],
        );
        assert_eq!(stats.completed_requests, 5);
        assert!(stats.batch_histogram.len() <= 2, "batches of at most max_batch");
    }

    #[test]
    fn heterogeneous_pool_reports_device_for_each_response() {
        let pool = DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]);
        let ctx = context(1, pool);
        let key = ModelKey::new(ModelId::RnnLm, None);
        let mut rxs = Vec::new();
        for id in 0..6u64 {
            let (tx, rx) = mpsc::channel();
            assert!(ctx.scheduler.enqueue(PendingRequest {
                id,
                key,
                priority: Priority::Normal,
                slo: None,
                features: Matrix::zeros(1, 32),
                response_tx: tx,
                wake: None,
                enqueued: Instant::now(),
                trace: crate::telemetry::RequestTrace::new(),
            }));
            rxs.push(rx);
        }
        let workers = WorkerPool::spawn(Arc::clone(&ctx));
        let mut devices_seen = std::collections::HashSet::new();
        for rx in &rxs {
            let r = rx.recv_timeout(Duration::from_secs(30)).expect("response arrives");
            assert!(r.device < 2);
            devices_seen.insert(r.device);
        }
        ctx.scheduler.shutdown();
        workers.join();
        assert!(!devices_seen.is_empty());
    }
}
