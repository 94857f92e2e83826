//! The worker pool: one pinned OS worker thread per device that, whenever
//! it is idle, pulls a released batch from the batch scheduler, executes it
//! through the pre-encoded model on its device's dual-side SpGEMM kernel and
//! fans responses back out per request.
//!
//! The pull is work-conserving: the scheduler releases a batch as soon as
//! an idle worker asks, so a request never waits while a worker could run
//! it, and batches grow only with what queued up while every worker was
//! busy. One idle worker at a time waits in the scheduler; the rest wait on
//! the pool's roster. The worker that receives a batch prices it with
//! the [`DeviceDispatcher`] over the devices idle at that moment and routes
//! it to the cheapest — itself on a tie, and in a pool of one — stamping
//! [`Stage::Dispatched`]; a batch routed to another idle device is handed to
//! that device's worker, and the asker asks again.
//!
//! Completion routing is per-request, not per-ingress: every request
//! carries its own response `Sender` (captured at submit time), so one
//! batch can fan its responses out to any mix of in-process callers and
//! the wire reactor — it submits with a clone of its completion channel
//! plus its waker, and the worker follows each such send with a wake, so
//! the event loop itself receives its connections' responses back
//! ([`crate::net::server`]).

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
use dsstc_tensor::Matrix;

use crate::batcher::{Batch, BatchScheduler};
use crate::dispatch::DeviceDispatcher;
use crate::request::InferResponse;
use crate::store::ModelRepository;
use crate::telemetry::{Stage, Telemetry};

/// Everything the worker threads need, shared by `Arc`.
#[derive(Debug)]
pub(crate) struct WorkerContext {
    pub scheduler: Arc<BatchScheduler>,
    pub repository: Arc<ModelRepository>,
    pub dispatcher: Arc<DeviceDispatcher>,
    pub telemetry: Arc<Telemetry>,
    /// One SpGEMM kernel per pooled device, running that device's native
    /// tiling — worker `i` executes its batches on `kernels[i]`, on its own
    /// thread, against encodings fetched for `dispatcher.spec(i)`.
    pub kernels: Vec<BitmapSpGemm>,
}

/// A batch routed to one device, with its modelled time there, µs.
type Job = (Batch, f64);

/// What the workers share under one lock, beside the condition the idle
/// ones wait on: who is idle, which is what a released batch is routed
/// among.
#[derive(Debug)]
struct Roster {
    /// Per device, whether it has no batch. A worker that has not started
    /// yet is idle too: a batch routed to it waits in its `routed` slot.
    idle: Vec<bool>,
    /// Per device, a batch another worker routed to it.
    routed: Vec<Option<Job>>,
    /// An idle worker is already waiting in the scheduler.
    asking: bool,
    /// The scheduler is shut down and drained: idle workers exit.
    drained: bool,
}

type Shared = (Mutex<Roster>, Condvar);

fn lock(roster: &Mutex<Roster>) -> MutexGuard<'_, Roster> {
    roster.lock().expect("a worker panicked holding the roster")
}

/// Marks `device` idle and blocks until it has a batch to run — one another
/// worker routed to it, or one it asked the scheduler for and routed to
/// itself — or the scheduler has drained (`None`).
fn next_job(device: usize, context: &WorkerContext, (roster, cv): &Shared) -> Option<Job> {
    let mut state = lock(roster);
    loop {
        if let Some(job) = state.routed[device].take() {
            return Some(job); // the router marked this device busy
        }
        state.idle[device] = true;
        if state.drained {
            return None;
        }
        if state.asking {
            state = cv.wait(state).expect("a worker panicked holding the roster");
            continue;
        }
        state.asking = true;
        drop(state);
        let batch = context.scheduler.next_batch();
        state = lock(roster);
        state.asking = false;
        cv.notify_all(); // another idle worker may ask now, or see the drain
        let Some(mut batch) = batch else {
            state.drained = true;
            return None;
        };
        let assignment = context.dispatcher.route(batch.key, batch.len(), &state.idle, device);
        for request in &mut batch.requests {
            request.trace.record(Stage::Dispatched);
        }
        state.idle[assignment.device] = false;
        let job = (batch, assignment.modelled_batch_us);
        if assignment.device == device {
            return Some(job);
        }
        state.routed[assignment.device] = Some(job);
    }
}

/// A pool of per-device worker threads pulling from the batch scheduler.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns one pinned worker per pooled device; all run until the
    /// scheduler shuts down and drains.
    pub(crate) fn spawn(context: Arc<WorkerContext>) -> Self {
        let devices = context.dispatcher.len();
        let roster = Roster {
            idle: vec![true; devices],
            routed: std::iter::repeat_with(|| None).take(devices).collect(),
            asking: false,
            drained: false,
        };
        let shared = Arc::new((Mutex::new(roster), Condvar::new()));
        let workers = (0..devices)
            .map(|device| {
                let (context, shared) = (Arc::clone(&context), Arc::clone(&shared));
                std::thread::Builder::new()
                    .name(format!("dsstc-serve-worker-{device}"))
                    .spawn(move || worker_loop(device, &context, &shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool { workers }
    }

    /// Number of worker threads (one per device).
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    /// Waits for every worker to exit (call after the scheduler's
    /// `shutdown`), surfacing a worker's panic instead of hanging.
    pub(crate) fn join(self) {
        for handle in self.workers {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// Runs batches until the scheduler drains. A worker that panics first
/// rejects new submissions and drops everything still queued — so every
/// in-flight `wait()` resolves to `ShuttingDown` instead of waiting on a
/// response nobody will produce — and lets the idle workers exit;
/// `WorkerPool::join` re-raises the panic.
fn worker_loop(device: usize, context: &WorkerContext, shared: &Shared) {
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        while let Some((batch, modelled_batch_us)) = next_job(device, context, shared) {
            execute_batch(device, context, batch, modelled_batch_us);
        }
    }));
    if let Err(panic) = run {
        context.scheduler.shutdown();
        while context.scheduler.next_batch().is_some() {}
        // A flag, valid whatever a panicking holder left undone.
        shared.0.lock().unwrap_or_else(PoisonError::into_inner).drained = true;
        shared.1.notify_all();
        std::panic::resume_unwind(panic);
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
        let kernels = dispatcher.specs().iter().map(|&spec| repository.kernel_for(spec)).collect();
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
        let stats = ctx.telemetry.snapshot(ctx.repository.counters(), &["Tesla V100".to_string()]);
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
        let stats = ctx
            .telemetry
            .snapshot(ctx.repository.counters(), &["gpu0".to_string(), "gpu1".to_string()]);
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

    #[test]
    fn a_bursts_first_batch_runs_on_the_cheapest_device_whoever_pulls_it() {
        // Every device is idle before its worker starts: if the V100's worker
        // pulls the batch first, it routes it to the A100's slot, where the
        // A100's worker finds it when it starts.
        for _ in 0..4 {
            let ctx = context(4, DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]));
            let mut rxs = Vec::new();
            for id in 0..4u64 {
                let (tx, rx) = mpsc::channel();
                assert!(ctx.scheduler.enqueue(PendingRequest {
                    id,
                    key: ModelKey::new(ModelId::BertBase, None),
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
            for rx in &rxs {
                let r = rx.recv_timeout(Duration::from_secs(30)).expect("response arrives");
                assert_eq!((r.device, r.batch_size), (1, 4), "one batch, on the A100");
            }
            ctx.scheduler.shutdown();
            workers.join();
        }
    }

    #[test]
    fn a_panicking_worker_fails_every_waiter_instead_of_hanging() {
        // The V100 worker is handed an A100 kernel, so its first forward
        // panics on the encoding mismatch; the request of another model
        // queued behind it must not wait for a response nobody will produce.
        let ctx = context(4, single_v100());
        let a100 = dsstc_kernels::EncodingSpec::for_gpu(&GpuConfig::a100());
        let ctx = Arc::new(WorkerContext {
            scheduler: Arc::clone(&ctx.scheduler),
            repository: Arc::clone(&ctx.repository),
            dispatcher: Arc::clone(&ctx.dispatcher),
            telemetry: Arc::clone(&ctx.telemetry),
            kernels: vec![ctx.repository.kernel_for(a100)],
        });
        let mut rxs = Vec::new();
        for (id, model) in [ModelId::BertBase, ModelId::RnnLm].into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            assert!(ctx.scheduler.enqueue(PendingRequest {
                id: id as u64,
                key: ModelKey::new(model, None),
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
        for rx in &rxs {
            let outcome = rx.recv_timeout(Duration::from_secs(30));
            assert_eq!(outcome.err(), Some(mpsc::RecvTimeoutError::Disconnected));
        }
        assert!(!ctx.scheduler.is_open(), "the scheduler takes no new work");
        assert_eq!(ctx.scheduler.queue_len(), 0);
        let joined = std::panic::catch_unwind(AssertUnwindSafe(|| pool.join()));
        assert!(joined.is_err(), "join re-raises the worker's panic");
    }
}
