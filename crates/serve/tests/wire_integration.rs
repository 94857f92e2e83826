//! End-to-end tests of the TCP front-end: framing over a real socket,
//! pipelining, error frames, connection limits, graceful shutdown, and an
//! open-loop sweep over loopback whose outputs must be **bit-identical** to
//! the in-process submit path (what that promises, NaNs included, is stated
//! once: `docs/ARCHITECTURE.md`, "Bit-identity contract").
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use dsstc_serve::net::frame::encode_request_into;
use dsstc_serve::net::{WireClient, WireError, WireServer, WireStatus, WIRE_VERSION};
use dsstc_serve::{
    AdmissionControl, DevicePool, InferRequest, ModelId, PoissonArrivals, Priority, ServeConfig,
};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

const PROXY_DIM: usize = 32;

fn wire_server() -> WireServer {
    WireServer::start(
        ServeConfig::default()
            .with_max_batch(4)
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM),
    )
    .expect("bind loopback")
}

fn features(seed: u64) -> Matrix {
    Matrix::random_sparse(2, PROXY_DIM, 0.4, SparsityPattern::Uniform, seed)
}

fn request(seed: u64) -> InferRequest {
    let model = if seed.is_multiple_of(2) { ModelId::RnnLm } else { ModelId::BertBase };
    let priority = if seed.is_multiple_of(4) { Priority::High } else { Priority::Normal };
    InferRequest::new(model, features(seed)).with_priority(priority)
}

#[test]
fn wire_responses_match_in_process_responses_bit_for_bit() {
    let mut server = wire_server();
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    for seed in 0..8 {
        let wire = client.infer(&request(seed)).expect("served over the wire");
        let in_process = server.server().infer(request(seed)).expect("served in-process");
        assert_eq!(wire.output, in_process.output, "seed {seed}");
        assert_eq!(wire.model, in_process.model);
        assert_eq!(wire.priority, in_process.priority);
        assert!(wire.execute_us > 0.0);
        assert!(wire.modelled_batch_us > 0.0);
    }
    let stats = server.stats();
    let wire = stats.wire.expect("wire counters attached");
    assert_eq!(wire.frames_received, 8);
    assert_eq!(wire.frames_sent, 8);
    assert_eq!(wire.error_frames_sent, 0);
    assert_eq!(wire.connections_accepted, 1);
    server.shutdown();
}

#[test]
fn pipelined_requests_all_answer_with_correct_ids() {
    let mut server = wire_server();
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    const N: u64 = 24;
    let mut sent = std::collections::HashMap::new();
    for seed in 0..N {
        let id = client.send(&request(seed)).expect("send");
        sent.insert(id, seed);
    }
    // Responses may arrive out of submission order; every id must answer
    // exactly once and carry the right model's output shape.
    for _ in 0..N {
        let response = client.recv().expect("response");
        assert_eq!(response.status, WireStatus::Ok);
        let seed = sent.remove(&response.id).expect("unique id");
        let body = response.into_body().expect("ok body");
        assert_eq!(body.output.rows(), 2);
        assert_eq!(body.output.cols(), PROXY_DIM);
        assert!(body.batch_size >= 1);
        let expected_model =
            if seed.is_multiple_of(2) { ModelId::RnnLm } else { ModelId::BertBase };
        assert_eq!(body.model, expected_model);
    }
    assert!(sent.is_empty());
    server.shutdown();
}

#[test]
fn invalid_request_gets_error_frame_and_connection_survives() {
    let mut server = wire_server();
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    // Wrong feature width: a request-level error frame, not a dead socket.
    let bad = InferRequest::new(ModelId::RnnLm, Matrix::zeros(2, PROXY_DIM * 2));
    let id = client.send(&bad).expect("send");
    let response = client.recv().expect("error frame");
    assert_eq!(response.id, id);
    assert_eq!(response.status, WireStatus::InvalidRequest);
    assert!(response.message.contains("columns"), "{}", response.message);
    // The same connection still serves valid traffic.
    let ok = client.infer(&request(2)).expect("served after the error");
    assert_eq!(ok.output.cols(), PROXY_DIM);
    let wire = server.wire_stats();
    assert_eq!(wire.requests_rejected, 1);
    assert_eq!(wire.error_frames_sent, 1);
    assert_eq!(wire.connections_closed, 0);
    server.shutdown();
}

#[test]
fn garbage_bytes_poison_the_connection_with_a_final_error_frame() {
    let mut server = wire_server();
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    client.send_raw(b"GET / HTTP/1.1\r\n\r\n").expect("send garbage");
    let response = client.recv().expect("final error frame before close");
    // The reserved poison id: never a request's own id, so a client that
    // pipelined real requests can tell "stream is dead" from "request N
    // was rejected".
    assert_eq!(response.id, dsstc_serve::net::POISON_ID);
    assert_eq!(response.status, WireStatus::InvalidRequest);
    // The server closed the connection: the next read is EOF.
    assert!(matches!(client.recv(), Err(WireError::Truncated | WireError::Io(_))));
    let wire = server.wire_stats();
    assert_eq!(wire.decode_errors, 1);
    server.shutdown();
}

#[test]
fn unsupported_version_is_reported_then_closed() {
    let mut server = wire_server();
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    // A valid frame with a patched version field (the checksum only covers
    // the body, so this is exactly what a future-version client looks like).
    let mut bytes = Vec::new();
    dsstc_serve::net::encode_request_into(&mut bytes, 1, &request(0));
    let future = (WIRE_VERSION + 1).to_le_bytes();
    bytes[4..6].copy_from_slice(&future);
    client.send_raw(&bytes).expect("send");
    let response = client.recv().expect("version error frame");
    assert_eq!(response.status, WireStatus::UnsupportedVersion);
    assert!(matches!(client.recv(), Err(WireError::Truncated | WireError::Io(_))));
    server.shutdown();
}

#[test]
fn connection_limit_rejects_the_excess_connection() {
    let mut server = WireServer::start(
        ServeConfig::default()
            .with_max_connections(1)
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM),
    )
    .expect("bind loopback");
    let mut first = WireClient::connect(server.local_addr()).expect("connect");
    // Make sure the first connection is registered before racing a second.
    first.infer(&request(0)).expect("served");
    let mut second = WireClient::connect(server.local_addr()).expect("TCP connect still succeeds");
    // The server closes it instead of serving: the first read is EOF (or a
    // reset, depending on timing).
    let outcome = second.infer(&request(1));
    assert!(outcome.is_err(), "over-limit connection must not be served");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.wire_stats().connections_rejected == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.wire_stats().connections_rejected, 1);
    // The first connection is unaffected.
    first.infer(&request(2)).expect("still served");
    server.shutdown();
}

/// The limit counts open connections, not accepts: once the only allowed
/// connection closes, its slot is free for the next client.
#[test]
fn a_closed_connection_frees_its_slot() {
    let mut server = WireServer::start(
        ServeConfig::default()
            .with_max_connections(1)
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM),
    )
    .expect("bind loopback");
    let mut first = WireClient::connect(server.local_addr()).expect("connect");
    first.infer(&request(0)).expect("served");
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.wire_stats().connections_closed == 0 {
        assert!(Instant::now() < deadline, "the dropped connection was never closed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut second = WireClient::connect(server.local_addr()).expect("connect");
    let wire = second.infer(&request(1)).expect("the freed slot serves the next client");
    let in_process = server.server().infer(request(1)).expect("in-process");
    assert_eq!(wire.output, in_process.output);
    let stats = server.wire_stats();
    assert_eq!(stats.connections_rejected, 0, "{stats:?}");
    assert_eq!(stats.connections_accepted, 2, "{stats:?}");
    assert_eq!(stats.open_connections(), 1, "{stats:?}");
    server.shutdown();
}

#[test]
fn non_reading_client_cannot_grow_the_outbound_buffer_past_the_cap() {
    let mut server = WireServer::start(
        ServeConfig::default()
            .with_max_batch(4)
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM)
            // Far below one response frame, so the first completed response
            // breaches — exactly what a production-size buffer looks like
            // under a client that submitted work and stopped reading.
            .with_max_outbound_bytes(64),
    )
    .expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    for seed in 0..8 {
        client.send(&request(seed)).expect("send");
    }
    // The client reads nothing; the server must poison the connection
    // instead of buffering responses without bound.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.wire_stats().outbound_overflows == 0 {
        assert!(Instant::now() < deadline, "server never detected the slow reader");
        std::thread::sleep(Duration::from_millis(10));
    }
    // When the client finally reads it finds the backlog dropped: one final
    // error frame under the poison id, then EOF.
    let response = client.recv().expect("final error frame");
    assert_eq!(response.id, dsstc_serve::net::POISON_ID);
    assert_eq!(response.status, WireStatus::ShuttingDown);
    assert!(response.message.contains("outbound"), "{}", response.message);
    assert!(matches!(client.recv(), Err(WireError::Truncated | WireError::Io(_))));
    // The poisoned connection is retired once its in-flight work drains,
    // and later completions must not re-count the breach.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.wire_stats().connections_closed == 0 {
        assert!(Instant::now() < deadline, "poisoned connection never retired");
        std::thread::sleep(Duration::from_millis(10));
    }
    let wire = server.wire_stats();
    assert_eq!(wire.outbound_overflows, 1);
    assert!(wire.error_frames_sent >= 1);
    server.shutdown();
}

/// A slow reader whose socket stopped mid-frame still reads whole frames:
/// the breach drops what the socket never started, keeps the rest of the
/// frame it is inside, and the stream ends with the poison frame. (With a
/// cap as small as one frame, above, the breach comes before any byte is
/// written, so the socket is never mid-frame.)
#[test]
fn an_overflow_after_a_partial_write_still_ends_with_the_poison_frame() {
    // About 80 responses of 64 KiB breach: the socket buffers ≈ 4 MB before
    // it takes only part of a frame, then the cap fills. VGG-16 at proxy
    // 256 executes slowly enough next to the reads that the server has read
    // every request by then (a request it never read would make its close
    // a reset, which drops the poison frame).
    const REQUESTS: u64 = 160;
    let mut server = WireServer::start(
        ServeConfig::default()
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(256)
            .with_max_outbound_bytes(512 * 1024),
    )
    .expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    // A writer of its own: a send that blocked would fail the reads below
    // at the close instead of hanging the test.
    let mut writer = client.try_clone().expect("clone");
    let features = Matrix::random_sparse(64, 256, 0.4, SparsityPattern::Uniform, 3);
    let request = InferRequest::new(ModelId::Vgg16, features);
    let writer = std::thread::spawn(move || {
        (0..REQUESTS).try_for_each(|_| writer.send(&request).map(drop)).is_ok()
    });
    // Nothing is read until the server gives up on this reader.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.wire_stats().outbound_overflows == 0 {
        assert!(Instant::now() < deadline, "server never detected the slow reader");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.wire_stats().frames_received, REQUESTS, "the breach came mid-send");
    let mut served = 0;
    let last = loop {
        let response = client.recv().expect("whole frames up to the poison frame");
        if response.id == dsstc_serve::net::POISON_ID {
            break response;
        }
        assert_eq!(response.status, WireStatus::Ok);
        served += 1;
    };
    assert_eq!(last.status, WireStatus::ShuttingDown);
    assert!(last.message.contains("outbound"), "{}", last.message);
    assert!(served < REQUESTS);
    assert!(matches!(client.recv(), Err(WireError::Truncated | WireError::Io(_))));
    assert!(writer.join().expect("writer"), "every request was sent");
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_every_pipelined_request() {
    let mut server = wire_server();
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    const N: u64 = 16;
    for seed in 0..N {
        client.send(&request(seed)).expect("send");
    }
    // Shut down while responses are still streaming; the drain must answer
    // everything already submitted.
    let reader = std::thread::spawn(move || {
        let mut answered = 0;
        for _ in 0..N {
            match client.recv() {
                Ok(response) if response.status == WireStatus::Ok => answered += 1,
                other => panic!("expected Ok response, got {other:?}"),
            }
        }
        answered
    });
    std::thread::sleep(Duration::from_millis(5));
    server.shutdown();
    assert_eq!(reader.join().expect("reader"), N);
}

#[test]
fn half_closed_connections_are_retired_not_leaked() {
    let mut server = wire_server();
    // Repeated connect → pipeline → half-close → read-all → drop cycles
    // must not accumulate open server-side connections: the EOF usually
    // arrives with requests still in flight, so the connection stays until
    // the event loop has appended and flushed the last response, and the
    // retire sweep of that same iteration closes it.
    for round in 0..3u64 {
        let mut client = WireClient::connect(server.local_addr()).expect("connect");
        for seed in 0..4 {
            client.send(&request(round * 10 + seed)).expect("send");
        }
        client.finish_sending().expect("half-close");
        for _ in 0..4 {
            let response = client.recv().expect("response");
            assert_eq!(response.status, WireStatus::Ok);
        }
        // After the last response the server should close; observe EOF.
        assert!(matches!(client.recv(), Err(WireError::Truncated | WireError::Io(_))));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.wire_stats().open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let wire = server.wire_stats();
    assert_eq!(wire.open_connections(), 0, "half-closed connections must be retired");
    assert_eq!(wire.connections_accepted, 3);
    assert_eq!(wire.connections_closed, 3);
    server.shutdown();
}

/// A client that pipelines requests and vanishes without reading: every
/// admitted request still executes and is traced exactly once, nothing
/// stays registered for the dead connection, and the drain does not wait
/// for it.
#[test]
fn abrupt_close_with_requests_in_flight_leaves_nothing_behind() {
    const N: u64 = 16;
    const CONNS: u64 = 2;
    let mut server = wire_server();
    for c in 0..CONNS {
        let mut client = WireClient::connect(server.local_addr()).expect("connect");
        for seed in 0..N {
            client.send(&request(c * 100 + seed)).expect("send");
        }
        drop(client);
    }
    let telemetry = std::sync::Arc::clone(server.server().telemetry());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let wire = server.wire_stats();
        let quiescent = wire.connections_accepted == CONNS
            && wire.open_connections() == 0
            && wire.in_flight == 0
            && telemetry.traces_recorded() >= CONNS * N;
        if quiescent || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let wire = server.wire_stats();
    assert_eq!(wire.frames_received, CONNS * N, "{wire:?}");
    assert_eq!(wire.connections_accepted, CONNS, "{wire:?}");
    assert_eq!(wire.open_connections(), 0, "{wire:?}");
    assert_eq!(wire.connections_closed, wire.connections_accepted);
    assert_eq!(wire.in_flight, 0, "{wire:?}");
    // Responses that completed before the server noticed the close were
    // buffered (and possibly accepted by the kernel); the rest were
    // dropped. Either way each request's trace is recorded once.
    assert!(wire.frames_sent <= CONNS * N, "{wire:?}");
    assert_eq!(telemetry.traces_recorded(), CONNS * N);
    assert_eq!(server.stats().completed_requests, CONNS * N);
    server.shutdown();
}

/// A `metrics_addr` that cannot be bound fails the start — and must leave
/// nothing behind: no event loop holding the listen socket, no workers.
#[test]
fn failed_metrics_bind_leaves_the_listen_address_free() {
    let occupied = std::net::TcpListener::bind("127.0.0.1:0").expect("occupy a port");
    let fixed = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("find a free port");
        probe.local_addr().expect("probe addr")
    };
    let outcome = WireServer::start(
        ServeConfig::default()
            .with_proxy_dim(PROXY_DIM)
            .with_listen(fixed)
            .with_metrics_addr(occupied.local_addr().expect("occupied addr")),
    );
    let error = outcome.expect_err("an in-use metrics address must fail the start");
    assert_eq!(error.kind(), std::io::ErrorKind::AddrInUse);
    std::net::TcpListener::bind(fixed).expect("the failed start released the listen address");
}

/// The acceptance-criteria sweep: seeded Poisson arrivals over loopback,
/// multiple pipelined client connections, every output bit-identical to the
/// in-process path serving the same trace.
#[test]
fn open_loop_sweep_over_loopback_is_bit_identical_to_in_process() {
    const SUBMITTERS: usize = 2;
    const PER_SUBMITTER: u64 = 12;
    // Per submitter: two independent 300 req/s streams offer 600 req/s.
    const OFFERED_RPS: f64 = 300.0;

    let mut server = wire_server();
    let addr = server.local_addr();
    let started = Instant::now();
    let outputs: Vec<(u64, Matrix)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let mut arrivals = PoissonArrivals::new(OFFERED_RPS, 0xA11 + t as u64);
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    let mut next_arrival = started;
                    let mut ids = std::collections::HashMap::new();
                    for i in 0..PER_SUBMITTER {
                        next_arrival += arrivals.next_gap();
                        std::thread::sleep(next_arrival.saturating_duration_since(Instant::now()));
                        let seed = t as u64 * 1_000_003 + i;
                        let id = client.send(&request(seed)).expect("send");
                        ids.insert(id, seed);
                    }
                    let mut outputs = Vec::new();
                    for _ in 0..PER_SUBMITTER {
                        let response = client.recv().expect("response");
                        let seed = ids.remove(&response.id).expect("unique id");
                        outputs.push((seed, response.into_body().expect("ok").output));
                    }
                    outputs
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("submitter")).collect()
    });

    assert_eq!(outputs.len(), SUBMITTERS * PER_SUBMITTER as usize);
    // Bit-identical to serving the same requests in-process.
    for (seed, wire_output) in outputs {
        let in_process = server.server().infer(request(seed)).expect("in-process");
        assert_eq!(wire_output, in_process.output, "seed {seed}");
    }
    let wire = server.wire_stats();
    assert_eq!(wire.frames_received, SUBMITTERS as u64 * PER_SUBMITTER);
    assert_eq!(wire.frames_sent, SUBMITTERS as u64 * PER_SUBMITTER);
    assert_eq!(wire.decode_errors, 0);
    server.shutdown();
}

#[test]
fn wire_requests_record_full_traces_with_wire_stamps() {
    use dsstc_serve::Stage;
    let mut server = wire_server();
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    const N: u64 = 12;
    for seed in 0..N {
        client.send(&request(seed)).expect("send");
    }
    for _ in 0..N {
        client.recv().expect("response").into_body().expect("served");
    }
    // WireFlushed is stamped by the event loop as the response bytes clear
    // the socket, concurrently with the client's reads: poll briefly.
    let telemetry = std::sync::Arc::clone(server.server().telemetry());
    let deadline = Instant::now() + Duration::from_secs(5);
    while telemetry.traces_recorded() < N && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(telemetry.traces_recorded(), N);
    let traces = telemetry.sink().recent();
    assert_eq!(traces.len() as u64, N);
    for trace in &traces {
        assert!(trace.is_wire(), "wire request must stamp WireDecoded: {trace:?}");
        assert!(trace.is_complete(), "stages missing on {trace:?}");
        assert!(trace.is_monotonic(), "stage timestamps regress on {trace:?}");
        assert!(
            trace.stage_us(Stage::WireFlushed).is_some(),
            "response flush must stamp WireFlushed: {trace:?}"
        );
        assert!(trace.span_us(Stage::WireDecoded, Stage::WireFlushed).is_some());
    }
    server.shutdown();
}

/// Pipelined load on several concurrent connections must preserve
/// per-connection frame ordering and answer bit-identically to the
/// in-process path.
#[test]
fn concurrent_connections_preserve_ordering_and_bit_identical_responses() {
    const CONNS: usize = 6;
    const PER_CONN: u64 = 8;
    let mut server = wire_server();
    let addr = server.local_addr();
    let outputs: Vec<(u64, Matrix)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    let mut ids = std::collections::HashMap::new();
                    let mut error_ids = Vec::new();
                    for i in 0..PER_CONN {
                        if i % 4 == 3 {
                            // Wrong feature width: answered with an error
                            // frame generated synchronously at decode
                            // time, so the order these come back in
                            // proves the reactor consumed this
                            // connection's frames in the order sent.
                            let bad =
                                InferRequest::new(ModelId::RnnLm, Matrix::zeros(2, PROXY_DIM * 2));
                            error_ids.push(client.send(&bad).expect("send"));
                        } else {
                            let seed = c as u64 * 1_000_003 + i;
                            ids.insert(client.send(&request(seed)).expect("send"), seed);
                        }
                    }
                    let mut outputs = Vec::new();
                    let mut seen_errors = Vec::new();
                    for _ in 0..PER_CONN {
                        let response = client.recv().expect("response");
                        if response.status == WireStatus::Ok {
                            let seed = ids.remove(&response.id).expect("unique id");
                            outputs.push((seed, response.into_body().expect("ok").output));
                        } else {
                            assert_eq!(response.status, WireStatus::InvalidRequest);
                            seen_errors.push(response.id);
                        }
                    }
                    assert!(ids.is_empty(), "unanswered requests on conn {c}");
                    assert_eq!(seen_errors, error_ids, "conn {c} frame order broke");
                    outputs
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client")).collect()
    });
    // 2 of every 8 frames per connection were the deliberate errors.
    assert_eq!(outputs.len(), CONNS * (PER_CONN as usize - 2));
    for (seed, wire_output) in outputs {
        let in_process = server.server().infer(request(seed)).expect("in-process");
        assert_eq!(wire_output, in_process.output, "seed {seed}");
    }
    // Quiescent (every response read), so the counters are exact.
    let wire = server.wire_stats();
    assert_eq!(wire.frames_received, (CONNS as u64) * PER_CONN);
    assert_eq!(wire.frames_sent, (CONNS as u64) * (PER_CONN - 2));
    assert_eq!(wire.error_frames_sent, (CONNS as u64) * 2);
    assert_eq!(wire.connections_accepted, CONNS as u64);
    server.shutdown();
}

/// Scale and a mixed pool over the wire: 200 connections held open at once
/// (the concurrent-connections test above runs 6) against a V100 + A100 pool,
/// whose two encodings must answer with the same bits.
#[test]
fn two_hundred_concurrent_connections_on_a_mixed_pool_answer_bit_identically() {
    const CONNS: u64 = 200;
    const PER_CONN: u64 = 2;
    const SEEDS: u64 = 16;
    let mut server = WireServer::start(
        ServeConfig::default()
            .with_devices(DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]))
            .with_max_batch(2)
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM)
            .with_max_connections(216),
    )
    .expect("bind loopback");
    let expected: Vec<Matrix> = (0..SEEDS)
        .map(|seed| server.server().infer(request(seed)).expect("in-process").output)
        .collect();
    // Open all, write all, read all: every connection is established
    // before the first request is sent.
    let mut clients: Vec<WireClient> =
        (0..CONNS).map(|_| WireClient::connect(server.local_addr()).expect("connect")).collect();
    let mut sent = Vec::new();
    for (c, client) in clients.iter_mut().enumerate() {
        let mut ids = std::collections::HashMap::new();
        for i in 0..PER_CONN {
            let seed = (c as u64 * PER_CONN + i) % SEEDS;
            ids.insert(client.send(&request(seed)).expect("send"), seed);
        }
        sent.push(ids);
    }
    for (c, (client, mut ids)) in clients.iter_mut().zip(sent).enumerate() {
        for _ in 0..PER_CONN {
            let response = client.recv().expect("response");
            assert_eq!(response.status, WireStatus::Ok, "conn {c}: {}", response.message);
            let seed = ids.remove(&response.id).expect("unique id");
            let output = response.into_body().expect("ok body").output;
            assert_eq!(output, expected[seed as usize], "conn {c} seed {seed}");
        }
    }
    // Quiescent (every response read), so the counters are exact.
    let wire = server.wire_stats();
    assert_eq!(wire.connections_accepted, CONNS);
    assert_eq!(wire.connections_rejected, 0);
    assert_eq!(wire.frames_received, CONNS * PER_CONN);
    assert_eq!(wire.frames_sent, CONNS * PER_CONN);
    assert_eq!(wire.in_flight, 0);
    let devices = server.stats().per_device;
    assert!(devices.iter().all(|d| d.batches > 0), "both encodings must have served: {devices:?}");
    let drain_started = Instant::now();
    server.shutdown();
    assert!(
        drain_started.elapsed() < dsstc_serve::net::DRAIN_TIMEOUT,
        "nothing is in flight, so the drain has nothing to wait for"
    );
}

#[test]
fn graceful_drain_answers_every_connections_in_flight() {
    let mut server = wire_server();
    let addr = server.local_addr();
    const CONNS: usize = 4;
    const N: u64 = 8;
    // Several connections, each with a full pipeline of unanswered requests.
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        let mut client = WireClient::connect(addr).expect("connect");
        for seed in 0..N {
            client.send(&request(seed)).expect("send");
        }
        clients.push(client);
    }
    let readers: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            std::thread::spawn(move || {
                for _ in 0..N {
                    match client.recv() {
                        Ok(response) if response.status == WireStatus::Ok => {}
                        other => panic!("expected Ok response during drain, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    // Shut down while responses are still streaming on every connection: the
    // drain must answer everything already submitted, well before the
    // drain timeout would force-close.
    std::thread::sleep(Duration::from_millis(5));
    let drain_started = Instant::now();
    server.shutdown();
    assert!(
        drain_started.elapsed() < dsstc_serve::net::DRAIN_TIMEOUT,
        "drain must finish by answering, not by timing out"
    );
    for reader in readers {
        reader.join().expect("reader got all its responses");
    }
    let wire = server.wire_stats();
    assert_eq!(wire.connections_accepted, CONNS as u64);
    assert_eq!(wire.frames_sent, (CONNS as u64) * N);
}

#[test]
fn shed_requests_answer_with_shed_load_frames_and_reconcile_with_metrics() {
    // Admission control with a 1 us low-priority SLO: any backlog sheds the
    // low class. One write carries four frames, which the reactor submits
    // back to back: a 1 024-row VGG-16 request the idle worker takes alone
    // (admitted first, its class is the most urgent), two BERT requests that
    // queue behind its run, and a low-priority BERT request that meets them
    // there and is rejected synchronously with a ShedLoad error frame — and
    // the connection survives to serve more traffic.
    let hour = Duration::from_secs(3600);
    let metrics_bind: std::net::SocketAddr = "127.0.0.1:0".parse().expect("literal addr");
    let mut server = WireServer::start(
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(8)
            .with_max_queue_wait(Duration::from_millis(500))
            .with_proxy_dim(PROXY_DIM)
            .with_metrics_addr(metrics_bind)
            .with_admission_control(AdmissionControl::new(
                [Duration::from_micros(1), hour, hour],
                1.0,
                10_000,
            )),
    )
    .expect("bind loopback");
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let normal =
        |seed| InferRequest::new(ModelId::BertBase, features(seed)).with_priority(Priority::Normal);
    let heavy = Matrix::random_sparse(1024, PROXY_DIM, 0.4, SparsityPattern::Uniform, 8);
    let low = InferRequest::new(ModelId::BertBase, features(9)).with_priority(Priority::Low);
    let low_id = 103;
    let mut burst = Vec::new();
    for (id, request) in (100..).zip([
        InferRequest::new(ModelId::Vgg16, heavy).with_priority(Priority::Normal),
        normal(0),
        normal(1),
        low,
    ]) {
        encode_request_into(&mut burst, id, &request);
    }
    client.send_raw(&burst).expect("send the burst");
    // The shed frame is generated at submit time, so it overtakes the
    // normal responses still queued or running.
    let response = client.recv().expect("shed frame");
    assert_eq!(response.id, low_id);
    assert_eq!(response.status, WireStatus::ShedLoad);
    assert!(response.message.contains("load shed"), "{}", response.message);
    assert!(response.message.contains("low"), "{}", response.message);
    for _ in 0..3 {
        let ok = client.recv().expect("normal response");
        assert_eq!(ok.status, WireStatus::Ok, "admitted requests still serve");
    }
    // The same connection keeps working; high priority is projection-proof.
    let high = InferRequest::new(ModelId::BertBase, features(11)).with_priority(Priority::High);
    client.infer(&high).expect("high priority admitted after the shed");

    let wire = server.wire_stats();
    assert_eq!(wire.shed_low, 1);
    assert_eq!((wire.shed_normal, wire.shed_high), (0, 0));
    assert_eq!(wire.shed_total(), 1);
    assert_eq!(wire.requests_rejected, 0, "shed is not counted as a client mistake");
    assert_eq!(wire.error_frames_sent, 1);
    assert_eq!(wire.connections_closed, 0, "shedding must not poison the connection");

    // The scrape, the wire counters and the server-side admission counters
    // must reconcile exactly.
    let body = scrape_metrics(metrics_addr);
    assert_eq!(metric_value(&body, "dsstc_wire_shed_total{priority=\"low\"}") as u64, 1);
    assert_eq!(metric_value(&body, "dsstc_wire_shed_total{priority=\"normal\"}") as u64, 0);
    assert_eq!(metric_value(&body, "dsstc_wire_shed_total{priority=\"high\"}") as u64, 0);
    assert_eq!(metric_value(&body, "dsstc_shed_requests_total{priority=\"low\"}") as u64, 1);
    assert_eq!(metric_value(&body, "dsstc_shed_requests_total{priority=\"high\"}") as u64, 0);
    let stats = server.stats();
    assert_eq!(stats.total_shed(), 1);
    assert_eq!(stats.for_priority(Priority::Low).shed, 1);
    server.shutdown();
}

/// One blocking HTTP/1.0 scrape of the metrics endpoint, returning the body.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read scrape response");
    let (headers, body) = raw.split_once("\r\n\r\n").expect("an HTTP response");
    assert!(headers.starts_with("HTTP/1.0 200"), "unexpected status: {headers}");
    body.to_string()
}

/// The value of an unlabelled sample line `NAME VALUE`.
fn metric_value(body: &str, name: &str) -> f64 {
    body.lines()
        .find(|line| line.strip_prefix(name).is_some_and(|rest| rest.starts_with(' ')))
        .unwrap_or_else(|| panic!("metric {name} missing from scrape:\n{body}"))
        .rsplit(' ')
        .next()
        .expect("sample value")
        .parse()
        .expect("numeric sample")
}

/// Version-bump regression: a client still speaking the previous
/// `WIRE_VERSION` must get an `UnsupportedVersion` error frame whose
/// **envelope is encoded in the server's version** — the reply names what
/// the server speaks, it does not parrot the client's version back.
#[test]
fn previous_version_client_gets_an_error_encoded_in_the_servers_version() {
    use std::io::{Read, Write};
    let mut server = wire_server();
    let mut bytes = Vec::new();
    dsstc_serve::net::encode_request_into(&mut bytes, 1, &request(0));
    // The version is checked before the checksum, so patching the envelope
    // version is all a not-yet-upgraded client's frame needs to look like.
    bytes[4..6].copy_from_slice(&(WIRE_VERSION - 1).to_le_bytes());
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&bytes).expect("send previous-version frame");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read until server close");
    assert!(raw.len() > 6, "a final error frame precedes the close");
    assert_eq!(
        u16::from_le_bytes([raw[4], raw[5]]),
        WIRE_VERSION,
        "the error reply's envelope carries the server's version"
    );
    let mut decoder = dsstc_serve::net::FrameDecoder::new(1 << 20);
    decoder.feed(&raw);
    let frame = decoder.next_frame().expect("decodable reply").expect("one frame");
    let dsstc_serve::net::Frame::Response(response) = frame else {
        panic!("expected an error response frame");
    };
    assert_eq!(response.id, dsstc_serve::net::POISON_ID);
    assert_eq!(response.status, WireStatus::UnsupportedVersion);
    assert!(
        response.message.contains(&format!("this peer speaks {WIRE_VERSION}")),
        "{}",
        response.message
    );
    server.shutdown();
}

fn auth_server(token: &str) -> WireServer {
    WireServer::start(
        ServeConfig::default()
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM)
            .with_auth_token(token),
    )
    .expect("bind loopback")
}

#[test]
fn hello_with_the_right_token_authenticates_and_serves() {
    let mut server = auth_server("sesame");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let map = client.hello(Some("sesame")).expect("authenticated hello");
    // A standalone server publishes a single-node map of itself.
    assert_eq!(map.nodes.len(), 1);
    assert_eq!(map.addr_of(0), Some(server.local_addr().to_string().as_str()));
    let body = client.infer(&request(0)).expect("served after auth");
    assert_eq!(body.output.cols(), PROXY_DIM);
    server.shutdown();
}

#[test]
fn hello_with_a_wrong_token_is_rejected_and_closed() {
    let mut server = auth_server("sesame");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    match client.hello(Some("SESAME")) {
        Err(WireError::Rejected { status, message }) => {
            assert_eq!(status, WireStatus::Unauthorized);
            assert!(message.contains("auth token"), "{message}");
        }
        other => panic!("wrong token must be rejected, got {other:?}"),
    }
    // The server closed the connection after the error frame.
    assert!(matches!(client.recv(), Err(WireError::Truncated | WireError::Io(_))));
    server.shutdown();
}

#[test]
fn hello_without_a_token_is_rejected_when_auth_is_required() {
    let mut server = auth_server("sesame");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    match client.hello(None) {
        Err(WireError::Rejected { status, .. }) => assert_eq!(status, WireStatus::Unauthorized),
        other => panic!("missing token must be rejected, got {other:?}"),
    }
    assert!(matches!(client.recv(), Err(WireError::Truncated | WireError::Io(_))));
    server.shutdown();
}

#[test]
fn requests_before_an_authenticated_hello_are_refused() {
    let mut server = auth_server("sesame");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    client.send(&request(0)).expect("send without hello");
    let response = client.recv().expect("error frame");
    assert_eq!(response.id, dsstc_serve::net::POISON_ID);
    assert_eq!(response.status, WireStatus::Unauthorized);
    assert!(matches!(client.recv(), Err(WireError::Truncated | WireError::Io(_))));
    // A fresh, authenticated connection works against the same server.
    let mut good = WireClient::connect(server.local_addr()).expect("connect");
    good.hello(Some("sesame")).expect("authenticated hello");
    good.infer(&request(1)).expect("served after auth");
    server.shutdown();
}

#[test]
fn hello_against_an_open_server_is_optional_and_answers_a_standalone_map() {
    let mut server = wire_server();
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    // No auth configured: hello still answers (with a single-node map) and
    // tokens are simply ignored.
    let map = client.hello(None).expect("hello on an open server");
    assert_eq!(map.version, 1);
    assert_eq!(map.nodes.len(), 1);
    assert!(map.nodes[0].alive);
    client.infer(&request(0)).expect("served");
    // And a client that never says hello is served as before.
    let mut silent = WireClient::connect(server.local_addr()).expect("connect");
    silent.infer(&request(1)).expect("served without hello");
    server.shutdown();
}

#[test]
fn live_metrics_scrape_is_consistent_with_wire_stats() {
    let metrics_bind: std::net::SocketAddr = "127.0.0.1:0".parse().expect("literal addr");
    let mut server = WireServer::start(
        ServeConfig::default()
            .with_max_batch(4)
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM)
            .with_metrics_addr(metrics_bind),
    )
    .expect("bind loopback");
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    const N: u64 = 10;
    for seed in 0..N {
        client.infer(&request(seed)).expect("served over the wire");
    }
    // All N answered: the frame counters are quiescent, so a scrape and a
    // snapshot taken back to back must agree exactly.
    let body = scrape_metrics(metrics_addr);
    let snapshot = server.wire_stats();
    assert_eq!(snapshot.frames_received, N);
    assert_eq!(metric_value(&body, "dsstc_wire_frames_received_total") as u64, N);
    assert_eq!(metric_value(&body, "dsstc_wire_frames_sent_total") as u64, snapshot.frames_sent);
    assert_eq!(
        metric_value(&body, "dsstc_wire_connections_accepted_total") as u64,
        snapshot.connections_accepted
    );
    assert_eq!(
        metric_value(&body, "dsstc_wire_bytes_received_total") as u64,
        snapshot.bytes_received
    );
    assert_eq!(metric_value(&body, "dsstc_wire_error_frames_total") as u64, 0);
    // One reactor: the `WIRE` rows are the only wire families.
    assert!(!body.contains("dsstc_wire_reactor_"), "{body}");
    assert_eq!(server.stats().wire, Some(snapshot));
    assert!(metric_value(&body, "dsstc_requests_completed_total") as u64 >= N);
    // The trace pipeline feeds the same exposition.
    assert!(body.contains("dsstc_traces_recorded_total"));
    assert!(body.contains("dsstc_trace_e2e_us_bucket"));
    // A second scrape still answers (connections are per-request).
    let again = scrape_metrics(metrics_addr);
    assert!(
        metric_value(&again, "dsstc_wire_frames_received_total") as u64 >= N,
        "counters must not reset between scrapes"
    );
    server.shutdown();
}

/// A wire server with a metrics endpoint on an OS-assigned loopback port.
fn metrics_server(config: ServeConfig) -> (WireServer, std::net::SocketAddr) {
    let metrics_bind = "127.0.0.1:0".parse().expect("literal addr");
    let server = WireServer::start(
        config
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM)
            .with_metrics_addr(metrics_bind),
    )
    .expect("bind loopback");
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");
    (server, metrics_addr)
}

/// Sends `head` to the metrics endpoint, half-closing right behind it when
/// `half_close`, and returns every byte the server answered before closing.
fn scrape_raw(addr: std::net::SocketAddr, head: &[u8], half_close: bool) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(head).expect("send request head");
    if half_close {
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    }
    let mut response = Vec::new();
    // A close with request bytes still unread reaches the client as a reset.
    if let Err(e) = stream.read_to_end(&mut response) {
        assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
    }
    String::from_utf8(response).expect("an HTTP response is text")
}

/// Consecutive scrapes are each answered from the snapshot of their
/// moment: a request served between two scrapes is in the second one. The
/// endpoint closes with the server.
#[test]
fn metrics_endpoint_answers_scrapes() {
    let (mut server, metrics_addr) = metrics_server(ServeConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    for expected in 1..=3u64 {
        client.infer(&request(expected)).expect("served over the wire");
        let response =
            scrape_raw(metrics_addr, b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n", false);
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        assert_eq!(metric_value(body, "dsstc_wire_frames_received_total") as u64, expected);
    }
    server.shutdown();
    // The listener closed with the event loop: nothing accepts on the port.
    assert!(std::net::TcpStream::connect(metrics_addr).is_err());
}

/// A scraper that half-closes right behind its request (`nc -N`) can have
/// its FIN read together with the complete head; it is still owed the
/// payload. A half-close before the head is complete is just dropped.
#[test]
fn half_closing_scraper_still_gets_an_answer() {
    let (mut server, metrics_addr) = metrics_server(ServeConfig::default());
    for round in 0..50 {
        let response = scrape_raw(metrics_addr, b"GET /metrics HTTP/1.0\r\n\r\n", true);
        let (headers, body) = response.split_once("\r\n\r\n").expect("an HTTP response");
        assert!(headers.starts_with("HTTP/1.0 200 OK\r\n"), "round {round}: {headers}");
        assert!(headers.contains(&format!("Content-Length: {}\r\n", body.len())), "{headers}");
        assert!(body.contains("\ndsstc_wire_frames_received_total 0\n"), "round {round}");
    }
    assert_eq!(scrape_raw(metrics_addr, b"GET /metrics HTTP/1.0\r\n", true), "");
    server.shutdown();
}

/// Scrapes share the wire loop but are not wire clients: they take no
/// `max_connections` slot and move no wire counter, and an oversized head
/// is dropped without disturbing the connected client.
#[test]
fn scrapes_are_not_wire_clients() {
    let (mut server, metrics_addr) = metrics_server(ServeConfig::default().with_max_connections(1));
    let mut first = WireClient::connect(server.local_addr()).expect("connect");
    first.infer(&request(0)).expect("served");
    let before = server.wire_stats();
    let body = scrape_metrics(metrics_addr);
    assert_eq!(metric_value(&body, "dsstc_wire_connections_accepted_total") as u64, 1);
    // A 9 KiB head with no blank line passes the 8 KiB cap: no answer.
    assert_eq!(scrape_raw(metrics_addr, &[b'a'; 9 * 1024], false), "");
    assert_eq!(server.wire_stats(), before, "a scrape moved a wire counter");
    // The one slot is still the first client's.
    let mut second = WireClient::connect(server.local_addr()).expect("TCP connect still succeeds");
    assert!(second.infer(&request(1)).is_err(), "over-limit connection must not be served");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.wire_stats().connections_rejected == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.wire_stats().connections_rejected, 1);
    first.infer(&request(2)).expect("the connected client is still served");
    server.shutdown();
}
