//! Black-box tests of the serving runtime's contract: batching invariants,
//! encode-cache behaviour (both tiers) and exactly-once delivery under a
//! multi-threaded worker pool. (Device-native encodings on a heterogeneous
//! pool are tested in `server::tests`, which can hold a burst in the queue
//! until the workers start.)

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dsstc_serve::{
    InferRequest, InferenceServer, ModelId, ModelKey, ModelRepository, Priority, ServeConfig,
};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

fn features(seed: u64) -> Matrix {
    Matrix::random_sparse(2, 32, 0.4, SparsityPattern::Uniform, seed)
}

fn config() -> ServeConfig {
    ServeConfig::default().with_proxy_dim(32).with_max_queue_wait(Duration::from_millis(2))
}

/// A unique, self-cleaning temp directory for encode-cache tests.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "dsstc-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn restart_with_populated_cache_dir_skips_prune_and_encode() {
    let dir = TempDir::new("warm-restart");
    let run = |expect_warm: bool| {
        let server = InferenceServer::start(
            config().with_workers(1).with_max_batch(2).with_encode_cache_dir(dir.path()),
        );
        let cold_ms = server.warm_model(ModelId::BertBase, None);
        for i in 0..4 {
            server.infer(InferRequest::new(ModelId::BertBase, features(i))).expect("response");
        }
        let stats = server.stats();
        if expect_warm {
            assert_eq!(stats.encode.fresh_encodes, 0, "a warm restart must not prune+encode");
            assert!(stats.encode.disk_loads >= 1, "the artifact must come from disk");
            assert!(stats.encode.disk_load_ms >= 0.0);
        } else {
            assert!(stats.encode.fresh_encodes >= 1, "the first run pays the encode");
            assert!(stats.encode.fresh_encode_ms > 0.0);
        }
        cold_ms
    };
    let cold_ms = run(false);
    // "Restart": a new server process over the same cache directory. The
    // stats assertions inside `run` are the contract (0 fresh encodes,
    // >= 1 disk restore); the timing comparison is a sanity check kept
    // loose enough that disk jitter cannot flake it — the tight <= 10%
    // bound lives in `warm_restore_is_at_most_a_tenth_of_a_cold_encode`,
    // which measures best-of-several restores.
    let warm_ms = run(true);
    assert!(
        warm_ms < cold_ms,
        "disk restore ({warm_ms:.2} ms) should be under a fresh encode ({cold_ms:.2} ms)"
    );
}

#[test]
fn warm_restore_is_at_most_a_tenth_of_a_cold_encode() {
    // Repository-level cold/warm comparison on a heavy artifact (VGG-16 at
    // a 128-wide proxy: 16 layers of 128x128 prune+encode), where the
    // constant costs of either path are negligible.
    let dir = TempDir::new("cold-warm-ratio");
    let key = ModelKey::new(ModelId::Vgg16, None);
    let cold_repo = ModelRepository::new(GpuConfig::v100(), 128).with_disk_cache(dir.path());
    let cold = cold_repo.get(key);
    assert!(!cold.from_disk);
    // Best of three restores (each through a fresh repository, so the
    // disk-tier path runs every time): one transient I/O hiccup on a
    // loaded CI runner must not flake the ratio.
    let mut warm: Option<std::sync::Arc<dsstc_serve::EncodedModel>> = None;
    for _ in 0..3 {
        let warm_repo = ModelRepository::new(GpuConfig::v100(), 128).with_disk_cache(dir.path());
        let candidate = warm_repo.get(key);
        assert!(candidate.from_disk);
        if warm.as_ref().is_none_or(|best| candidate.encode_ms < best.encode_ms) {
            warm = Some(candidate);
        }
    }
    let warm = warm.expect("three restores ran");
    eprintln!(
        "cold encode {:.3} ms, warm restore {:.3} ms (ratio {:.4})",
        cold.encode_ms,
        warm.encode_ms,
        warm.encode_ms / cold.encode_ms
    );
    assert!(
        warm.encode_ms <= cold.encode_ms * 0.10,
        "warm restore {:.2} ms must be <= 10% of cold encode {:.2} ms",
        warm.encode_ms,
        cold.encode_ms
    );
    // And the restored artifact is the same artifact.
    for (c, w) in cold.layers.iter().zip(&warm.layers) {
        assert_eq!(c.weights, w.weights, "{}", c.name);
    }
}

#[test]
fn batches_never_exceed_max_batch() {
    let max_batch = 3;
    let server = InferenceServer::start(config().with_workers(2).with_max_batch(max_batch));
    let pending: Vec<_> = (0..20)
        .map(|i| server.submit(InferRequest::new(ModelId::BertBase, features(i))).expect("queued"))
        .collect();
    for p in pending {
        let response = p.wait().expect("response");
        assert!(response.batch_size <= max_batch, "batch of {}", response.batch_size);
    }
    let stats = server.stats();
    assert!(stats.max_batch_size <= max_batch);
    assert_eq!(stats.completed_requests, 20);
    // 20 requests in batches of <= 3 means at least 7 batches.
    assert!(stats.executed_batches >= 7);
}

#[test]
fn a_lone_request_is_answered_at_once_by_an_idle_worker() {
    // The queue deadline is five seconds and the batch could hold 64, yet
    // an idle worker takes the lone request the moment it is queued: a
    // batch of one, answered well inside the deadline.
    let wait = Duration::from_secs(5);
    let server = InferenceServer::start(
        config().with_workers(1).with_max_batch(64).with_max_queue_wait(wait),
    );
    // Warm the encode cache so the measured time is queue time, not encode
    // time.
    server.infer(InferRequest::new(ModelId::RnnLm, features(0))).expect("warm-up");
    let t0 = Instant::now();
    let response = server.infer(InferRequest::new(ModelId::RnnLm, features(1))).expect("response");
    let elapsed = t0.elapsed();
    assert_eq!(response.batch_size, 1);
    assert!(elapsed < Duration::from_secs(1), "answered after {elapsed:?}, deadline {wait:?}");
}

#[test]
fn encode_cache_hits_after_the_first_request() {
    let server = InferenceServer::start(config().with_workers(1).with_max_batch(1));
    for i in 0..4 {
        server.infer(InferRequest::new(ModelId::BertBase, features(i))).expect("response");
    }
    let stats = server.stats();
    // Four single-request batches against one model: one encode, three hits.
    assert_eq!(stats.encode.misses, 1);
    assert_eq!(stats.encode.hits, 3);
    assert!((stats.encode_hit_rate - 0.75).abs() < 1e-12);
    // Same model at a different sparsity is a different artifact.
    server
        .infer(InferRequest::new(ModelId::BertBase, features(9)).with_weight_sparsity(0.5))
        .expect("response");
    assert_eq!(server.stats().encode.misses, 2);
}

#[test]
fn every_request_is_answered_exactly_once_across_workers() {
    let server = InferenceServer::start(config().with_workers(3).with_max_batch(4));
    let models = [ModelId::BertBase, ModelId::RnnLm];
    let pending: Vec<_> = (0..60)
        .map(|i| {
            let model = models[i as usize % models.len()];
            server.submit(InferRequest::new(model, features(i))).expect("queued")
        })
        .collect();
    let mut seen = HashSet::new();
    for p in pending {
        let expected_id = p.id();
        let response = p.wait().expect("response");
        assert_eq!(response.id, expected_id);
        assert!(seen.insert(response.id), "duplicate response for {}", response.id);
        assert_eq!(response.output.rows(), 2);
        assert_eq!(response.output.cols(), 32);
    }
    assert_eq!(seen.len(), 60);
    let stats = server.stats();
    assert_eq!(stats.completed_requests, 60);
    assert_eq!(
        stats.batch_histogram.iter().enumerate().map(|(i, n)| (i as u64 + 1) * n).sum::<u64>(),
        60,
        "histogram accounts for every request"
    );
}

#[test]
fn batched_outputs_match_unbatched_outputs() {
    // The same request must produce identical features whether it ran alone
    // or merged into a batch (batching must not change results).
    let solo_server = InferenceServer::start(config().with_workers(1).with_max_batch(1));
    let batch_server = InferenceServer::start(config().with_workers(1).with_max_batch(8));
    let inputs: Vec<Matrix> = (0..6).map(features).collect();

    let solo: Vec<Matrix> = inputs
        .iter()
        .map(|f| {
            solo_server
                .infer(InferRequest::new(ModelId::ResNet50, f.clone()))
                .expect("response")
                .output
        })
        .collect();

    let pending: Vec<_> = inputs
        .iter()
        .map(|f| {
            batch_server.submit(InferRequest::new(ModelId::ResNet50, f.clone())).expect("queued")
        })
        .collect();
    for (p, reference) in pending.into_iter().zip(solo) {
        let response = p.wait().expect("response");
        assert!(response.output.approx_eq(&reference, 1e-4));
    }
}

#[test]
fn mixed_traffic_reports_modelled_latency_per_model() {
    let server = InferenceServer::start(config().with_workers(2).with_max_batch(4));
    let bert =
        server.infer(InferRequest::new(ModelId::BertBase, features(1))).expect("bert response");
    let rnn = server.infer(InferRequest::new(ModelId::RnnLm, features(2))).expect("rnn response");
    assert!(bert.modelled_batch_us > 0.0);
    assert!(rnn.modelled_batch_us > 0.0);
    // The RNN's six 1024x6000x1500 GEMMs dwarf BERT's encoder block.
    assert!(rnn.modelled_batch_us > bert.modelled_batch_us);
}

#[test]
fn every_completed_request_carries_a_full_monotonic_trace() {
    let server = InferenceServer::start(config().with_workers(2).with_max_batch(4));
    const N: u64 = 24;
    let pending: Vec<_> = (0..N)
        .map(|i| {
            let priority = if i % 3 == 0 { Priority::High } else { Priority::Normal };
            server
                .submit(InferRequest::new(ModelId::RnnLm, features(i)).with_priority(priority))
                .expect("queued")
        })
        .collect();
    for p in pending {
        let response = p.wait().expect("answered");
        let trace = &response.trace;
        assert!(trace.is_complete(), "stages missing on {trace:?}");
        assert!(trace.is_monotonic(), "stage timestamps regress on {trace:?}");
        assert!(!trace.is_wire(), "in-process requests must not carry wire stamps");
        assert_eq!(trace.id, response.id);
        assert_eq!(trace.model, Some(response.model));
        assert_eq!(trace.device, Some(response.device), "trace names the executing device");
        assert!(trace.cache.is_some(), "cache outcome resolved on {trace:?}");
    }
    // The worker records each trace just after handing the response back:
    // give the last recording a moment, then the totals must agree.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.telemetry().traces_recorded() < N && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.telemetry().traces_recorded(), N);
    let recent = server.telemetry().sink().recent();
    assert_eq!(recent.len() as u64, N);
    assert!(recent.iter().all(|t| t.is_complete() && t.is_monotonic()));
}

#[test]
fn trace_out_streams_chrome_events_for_each_completed_request() {
    let dir = TempDir::new("trace-out");
    std::fs::create_dir_all(dir.path()).expect("temp dir");
    let path = dir.path().join("trace.jsonl");
    let server = InferenceServer::start(config().with_workers(1).with_trace_out(&path));
    const N: u64 = 6;
    let pending: Vec<_> = (0..N)
        .map(|i| server.submit(InferRequest::new(ModelId::BertBase, features(i))).expect("queued"))
        .collect();
    for p in pending {
        p.wait().expect("answered");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.telemetry().traces_recorded() < N && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    server.telemetry().sink().flush();
    let body = std::fs::read_to_string(&path).expect("trace file written");
    let lines: Vec<&str> = body.lines().collect();
    // Five spans per in-process request: queue, schedule, cache, execute,
    // respond (no wire stages).
    assert_eq!(lines.len() as u64, N * 5, "unexpected event count:\n{body}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        assert!(line.contains("\"ph\":\"X\""), "not a complete event: {line}");
        assert!(line.contains("\"model\":\"bertbase\""), "model missing: {line}");
    }
    for span in ["\"queue\"", "\"schedule\"", "\"cache\"", "\"execute\"", "\"respond\""] {
        assert!(body.contains(span), "span {span} missing from:\n{body}");
    }
    assert!(!body.contains("wire_decode"), "in-process trace must not emit wire spans");
}
