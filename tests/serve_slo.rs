//! End-to-end tests of the SLO-aware, multi-device serving tentpole:
//!
//! 1. under overload, high-priority requests see strictly lower p99 queue
//!    latency than low-priority requests sharing the same model; and
//! 2. completion-time-aware dispatch over a mixed V100 + A100 pool yields
//!    at least 10% higher modelled throughput than round-robin on the same
//!    batch trace.

use std::time::Duration;

use dsstc::serve::{
    AdmissionControl, DeviceDispatcher, DevicePool, DispatchPolicy, InferRequest, InferenceServer,
    ModelId, ModelKey, Priority, ServeConfig, ServeError,
};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

fn features(seed: u64) -> Matrix {
    Matrix::random_sparse(2, 32, 0.4, SparsityPattern::Uniform, seed)
}

#[test]
fn overloaded_server_gives_high_priority_strictly_lower_p99_queue_latency() {
    // One worker, small batches, one model: a burst of 64 requests piles up
    // behind the single device, so extraction order decides who waits. The
    // inputs are pre-generated and heavy (16 rows each through the VGG-16
    // proxy, 13 layers) and submission is a tight loop, so the queue stays
    // deep even at release-mode execution speed.
    let mut server = InferenceServer::start(
        ServeConfig::default()
            .with_devices(DevicePool::homogeneous(GpuConfig::v100(), 1))
            .with_max_batch(4)
            .with_max_queue_wait(Duration::from_millis(5))
            .with_proxy_dim(64),
    );
    server.warm_model(ModelId::Vgg16, None);
    let inputs: Vec<Matrix> =
        (0..64).map(|i| Matrix::random_sparse(16, 64, 0.4, SparsityPattern::Uniform, i)).collect();
    let pending: Vec<_> = inputs
        .into_iter()
        .enumerate()
        .map(|(i, input)| {
            let priority = if i % 2 == 0 { Priority::High } else { Priority::Low };
            let request = InferRequest::new(ModelId::Vgg16, input).with_priority(priority);
            server.submit(request).expect("queued")
        })
        .collect();
    for p in pending {
        let response = p.wait().expect("response");
        assert!(response.batch_size <= 4);
    }
    let stats = server.stats();
    let high = stats.for_priority(Priority::High).clone();
    let low = stats.for_priority(Priority::Low).clone();
    server.shutdown();

    assert_eq!(high.completed, 32);
    assert_eq!(low.completed, 32);
    assert!(
        high.queue_p99_us < low.queue_p99_us,
        "high-priority p99 queue {:.0} us must beat low-priority {:.0} us",
        high.queue_p99_us,
        low.queue_p99_us
    );
    // The median separates too: the whole high class drains before the bulk
    // of the low class under overload.
    assert!(
        high.queue_p50_us < low.queue_p50_us,
        "high-priority p50 queue {:.0} us vs low-priority {:.0} us",
        high.queue_p50_us,
        low.queue_p50_us
    );
}

#[test]
fn admission_control_keeps_high_priority_within_slo_by_shedding_low() {
    // The same overload shape as above — one worker, heavy VGG-16 inputs,
    // a tight 64-request burst at roughly twice what the device drains —
    // but with admission control on. The low class gets a 2 ms SLO it
    // cannot meet under this backlog, so its tail is shed at submit; the
    // high class (projection-proof) is always admitted and its p99 queue
    // wait must land inside its own SLO.
    let high_slo = Duration::from_secs(30);
    let mut server = InferenceServer::start(
        ServeConfig::default()
            .with_devices(DevicePool::homogeneous(GpuConfig::v100(), 1))
            .with_max_batch(4)
            .with_max_queue_wait(Duration::from_millis(5))
            .with_proxy_dim(64)
            .with_admission_control(AdmissionControl::new(
                [Duration::from_millis(2), Duration::from_secs(30), high_slo],
                0.8,
                10_000,
            )),
    );
    server.warm_model(ModelId::Vgg16, None);
    let inputs: Vec<Matrix> =
        (0..64).map(|i| Matrix::random_sparse(16, 64, 0.4, SparsityPattern::Uniform, i)).collect();
    let mut pending = Vec::new();
    let mut shed = 0u64;
    for (i, input) in inputs.into_iter().enumerate() {
        let priority = if i % 2 == 0 { Priority::High } else { Priority::Low };
        let request = InferRequest::new(ModelId::Vgg16, input).with_priority(priority);
        match server.submit(request) {
            Ok(p) => pending.push(p),
            Err(ServeError::ShedLoad { priority: shed_class, projected_us }) => {
                assert_eq!(shed_class, Priority::Low, "only the low class may be shed here");
                assert!(projected_us > 0);
                shed += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    for p in pending {
        p.wait().expect("admitted requests complete");
    }
    let stats = server.stats();
    server.shutdown();

    let high = stats.for_priority(Priority::High);
    let low = stats.for_priority(Priority::Low);
    assert_eq!(high.completed, 32, "the high class is never shed by projection");
    assert_eq!(high.shed, 0);
    assert!(low.shed > 0, "overload must shed part of the low class");
    assert_eq!(low.shed, shed, "submit-side count reconciles with the stats snapshot");
    assert_eq!(low.completed + low.shed, 32, "every low request either served or shed");
    assert_eq!(stats.total_shed(), shed);
    assert!(
        Duration::from_micros(high.queue_p99_us as u64) < high_slo,
        "high-priority p99 queue wait {:.0} us must stay inside its {:?} SLO",
        high.queue_p99_us,
        high_slo
    );
}

#[test]
fn the_admission_queue_bound_holds_under_a_tight_burst() {
    // Generous SLOs take projection shedding out of the picture; the hard
    // queue bound alone must cap the backlog. The queue depth observed
    // after every submit never exceeds the bound, and every rejection is a
    // ShedLoad.
    let bound = 16;
    let hour = Duration::from_secs(3600);
    let mut server = InferenceServer::start(
        ServeConfig::default()
            .with_devices(DevicePool::homogeneous(GpuConfig::v100(), 1))
            .with_max_batch(4)
            .with_max_queue_wait(Duration::from_millis(5))
            .with_proxy_dim(64)
            .with_admission_control(AdmissionControl::new([hour, hour, hour], 1.0, bound)),
    );
    server.warm_model(ModelId::Vgg16, None);
    let mut pending = Vec::new();
    let mut shed = 0u64;
    for i in 0..64u64 {
        let input = Matrix::random_sparse(16, 64, 0.4, SparsityPattern::Uniform, i);
        let request = InferRequest::new(ModelId::Vgg16, input).with_priority(Priority::Normal);
        match server.submit(request) {
            Ok(p) => pending.push(p),
            Err(ServeError::ShedLoad { .. }) => shed += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        assert!(
            server.queue_len() <= bound,
            "queue depth {} exceeds the configured bound {bound}",
            server.queue_len()
        );
    }
    for p in pending {
        p.wait().expect("admitted requests complete");
    }
    let stats = server.stats();
    server.shutdown();
    assert_eq!(stats.total_shed(), shed);
    assert_eq!(stats.completed_requests + shed, 64);
}

#[test]
fn min_completion_time_dispatch_beats_round_robin_by_10_percent_on_a_mixed_pool() {
    // One batch trace over a V100 + A100 pool, dispatched by completion
    // time and — the baseline, computed here from the dispatcher's own
    // prices — by rotating through the devices regardless of speed or
    // backlog; modelled throughput = requests handled per modelled makespan
    // microsecond. The pure modelled clock makes this fully deterministic.
    let pool = DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]);
    let dispatcher = DeviceDispatcher::new(&pool, DispatchPolicy::MinCompletionTime);
    let vgg = ModelKey::new(ModelId::Vgg16, None);
    let resnet = ModelKey::new(ModelId::ResNet50, None);
    let trace: Vec<(ModelKey, usize)> =
        (0..40).map(|i| if i % 3 == 0 { (resnet, 8) } else { (vgg, 8) }).collect();
    let requests: usize = trace.iter().map(|&(_, batch)| batch).sum();

    let mut round_robin_busy = [0.0f64; 2];
    for (i, &(key, batch)) in trace.iter().enumerate() {
        dispatcher.assign(key, batch);
        round_robin_busy[i % 2] += dispatcher
            .timing(i % 2)
            .cached_batched_us(key, batch)
            .expect("assign priced the batch on every device");
    }
    let smart = requests as f64 / dispatcher.makespan_us();
    let naive = requests as f64 / round_robin_busy[0].max(round_robin_busy[1]);
    assert!(
        smart >= naive * 1.10,
        "completion-time dispatch {smart:.6} req/us should beat round-robin \
         {naive:.6} req/us by >= 10% (ratio {:.3})",
        smart / naive
    );
}

#[test]
fn mixed_pool_server_spreads_batches_and_reports_utilisation() {
    let mut server = InferenceServer::start(
        ServeConfig::default()
            .with_devices(DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]))
            .with_max_batch(4)
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(32),
    );
    server.warm_model(ModelId::BertBase, None);
    let pending: Vec<_> = (0..48)
        .map(|i| server.submit(InferRequest::new(ModelId::BertBase, features(i))).expect("queued"))
        .collect();
    for p in pending {
        p.wait().expect("response");
    }
    let stats = server.stats();
    server.shutdown();

    assert_eq!(stats.completed_requests, 48);
    assert_eq!(stats.per_device.len(), 2);
    assert_eq!(stats.per_device[0].name, "Tesla V100");
    assert_eq!(stats.per_device[1].name, "A100");
    let executed: u64 = stats.per_device.iter().map(|d| d.batches).sum();
    assert_eq!(executed, stats.executed_batches);
    assert!(stats.modelled_makespan_us > 0.0);
    for device in &stats.per_device {
        assert!(device.utilisation >= 0.0 && device.utilisation <= 1.0);
    }
    // Completion-time dispatch keeps the pool busy on both sides: the
    // busiest device defines the makespan (utilisation 1.0), and the other
    // is not idle.
    assert!(stats.per_device.iter().any(|d| (d.utilisation - 1.0).abs() < 1e-9));
    assert!(stats.per_device.iter().all(|d| d.batches > 0), "both devices executed batches");
}
