//! End-to-end tests of SLO-aware admission control through the façade: a
//! tight burst against one worker, with a low class whose SLO the backlog
//! exhausts (it is shed at submit, the high class never is), and with a
//! hard queue bound that caps the backlog whatever the SLOs.
//!
//! The scheduling tests that need a burst held in the queue until every
//! request is in (priority order under overload, a mixed pool spreading
//! batches) live in `dsstc-serve`'s `server::tests`, which can boot a
//! server without workers.

use std::time::Duration;

use dsstc::serve::{
    AdmissionControl, DevicePool, InferRequest, InferenceServer, ModelId, Priority, ServeConfig,
    ServeError,
};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

#[test]
fn admission_control_keeps_high_priority_within_slo_by_shedding_low() {
    // An overload burst — one worker, heavy VGG-16 inputs (16 rows each),
    // a tight 64-request burst at roughly twice what the device drains —
    // with admission control on. The low class gets a 2 ms SLO it
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
