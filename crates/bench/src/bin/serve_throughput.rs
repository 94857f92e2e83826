//! Serving-throughput sweep for the `dsstc-serve` runtime.
//!
//! Three modes:
//!
//! * **closed-loop** (default): one burst of mixed ResNet-50 / BERT traffic
//!   per (workers x max_batch) cell, measuring requests/second and latency
//!   percentiles at whatever rate the server sustains. Shows dynamic
//!   batching amortising per-layer work into larger-M GEMMs and the worker
//!   pool spreading batches across cores.
//! * **open-loop** (`--open-loop`): seeded Poisson arrivals drive each
//!   (max_batch x device-mix) cell at a grid of offered loads, producing a
//!   latency-vs-offered-load curve — the behaviour a closed-loop driver
//!   cannot see, because open-loop arrivals keep coming no matter how far
//!   behind the server falls. The arrival process is **split across
//!   multiple submitter threads** (superposed Poisson sub-processes) and
//!   each submitter paces with hybrid sleep + busy-spin
//!   ([`dsstc_serve::pace_until`]), so offered rates past 10k rps stay
//!   faithful to the arrival clock instead of collapsing to the
//!   scheduler's sleep granularity.
//! * **open-loop over the wire** (`--open-loop --wire`): every cell runs
//!   **twice** against the same trace — once through the in-process
//!   `submit` path and once through the TCP front-end over loopback, each
//!   submitter thread a pipelined [`dsstc_serve::net::WireClient`]
//!   connection with a concurrent reader. The sweep prints in-process vs
//!   over-the-wire latency side by side and asserts the two paths produce
//!   **bit-identical** outputs for every request.
//!
//! Run with `cargo run --release -p dsstc-bench --bin serve_throughput`
//! (append `--help` for the flag reference).

#![deny(unsafe_code)]

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
use dsstc_serve::net::{RequestFrame, WireClient, WireServer};
use dsstc_serve::{
    pace_until, percentile, DevicePool, InferRequest, InferenceServer, ModelId, PoissonArrivals,
    Priority, ServeConfig, ServerStats, Stage,
};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

const REQUESTS: u64 = 96;

/// Seed of the open-loop arrival process (fixed: cells are reproducible).
const ARRIVAL_SEED: u64 = 0x0A_11_2E_ED;

const USAGE: &str = "usage: serve_throughput [FLAGS]

  (no flags)                closed-loop sweep over a (workers x max_batch) grid
  --open-loop               open-loop sweep: seeded Poisson arrivals over a
                            grid of offered loads per (batch, device-mix) cell
  --wire                    [with --open-loop] run every cell both in-process
                            and over the TCP front-end on loopback, print the
                            latencies side by side and assert bit-identical
                            outputs
  --reactors N              [with --wire] shard the server front-end across N
                            epoll reactors (default 1; 0 = host parallelism)
  --connections N           [with --wire] fan-in mode: replace the open-loop
                            grid with a burst of pipelined traffic over N
                            concurrent connections, served once with a single
                            reactor and once with --reactors, asserting
                            bit-identical outputs vs in-process and reporting
                            the client-observed throughput ratio
  --cluster N               cluster mode: boot an N-node loopback cluster
                            (consistent-hash sharding, replication
                            min(N, 2)), serve a deterministic sweep through
                            the cluster-aware client, assert the outputs
                            bit-identical to a single-node server, then
                            kill one node and re-serve the sweep to measure
                            failover (no acknowledged request may be lost)
  --smoke                   CI-sized grid
  --submitters N            pin the open-loop submitter thread count
  --encode-cache-dir DIR    persist encoded weights across runs
  --bench-json PATH         write the sweep as machine-readable JSON
                            (schema dsstc.bench.serve/1, or
                            dsstc.bench.cluster/1 with --cluster; see
                            docs/OBSERVABILITY.md)
  --help                    this text

--wire, --submitters and --encode-cache-dir require --open-loop;
--reactors and --connections require --wire; --cluster is its own mode
and combines only with --bench-json.";

fn usage_error(message: &str) -> ! {
    eprintln!("serve_throughput: {message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Submitter threads for an offered load, when not pinned by
/// `--submitters`: one per 4k rps, capped at 8 — measured headroom for a
/// sleep+spin pacer to stay on its arrival clock.
fn auto_submitters(offered_rps: f64) -> usize {
    ((offered_rps / 4000.0).ceil() as usize).clamp(1, 8)
}

/// The deterministic open-loop request stream (shared by the in-process
/// and wire drivers so outputs can be compared bit for bit): `seed` fully
/// determines model, priority (1 in 4 high) and features.
fn request_for(seed: u64) -> InferRequest {
    let model = if seed.is_multiple_of(2) { ModelId::ResNet50 } else { ModelId::BertBase };
    let priority = if seed.is_multiple_of(4) { Priority::High } else { Priority::Normal };
    let features = Matrix::random_sparse(4, 64, 0.4, SparsityPattern::Uniform, seed);
    InferRequest::new(model, features).with_priority(priority)
}

/// The closed-loop stream: same models and features, but all-Normal
/// priority — the mix the closed-loop sweep has always measured, kept so
/// its numbers stay comparable across revisions.
fn closed_loop_request_for(seed: u64) -> InferRequest {
    InferRequest::new(
        if seed.is_multiple_of(2) { ModelId::ResNet50 } else { ModelId::BertBase },
        Matrix::random_sparse(4, 64, 0.4, SparsityPattern::Uniform, seed),
    )
}

/// The per-submitter share of `requests`, spreading the remainder so the
/// total is exact.
fn share_of(t: usize, submitters: usize, requests: u64) -> u64 {
    requests / submitters as u64 + u64::from((t as u64) < requests % submitters as u64)
}

/// Globally unique request seed for submitter `t`'s `i`-th request.
fn seed_of(t: usize, i: u64) -> u64 {
    t as u64 * 1_000_003 + i
}

/// Drives one burst of mixed traffic and returns the cell's measurements.
fn run_cell(workers: usize, max_batch: usize) -> CellResult {
    let mut server = InferenceServer::start(
        ServeConfig::default()
            .with_workers(workers)
            .with_max_batch(max_batch)
            .with_max_queue_wait(Duration::from_millis(2))
            .with_proxy_dim(64),
    );
    // Warm both models so every cell measures steady-state serving: the
    // one-time encode and bucket-pricing costs are exactly what the
    // repository and timing caches amortise away in a long-running server.
    for model in [ModelId::ResNet50, ModelId::BertBase] {
        server.warm_model(model, None);
    }
    let started = Instant::now();
    let pending: Vec<_> =
        (0..REQUESTS).map(|i| server.submit(closed_loop_request_for(i)).expect("queued")).collect();
    let mut e2e_us = Vec::with_capacity(pending.len());
    for p in pending {
        let response = p.wait().expect("response");
        push_trace_e2e(&mut e2e_us, &response);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    CellResult {
        achieved_rps: REQUESTS as f64 / elapsed,
        stats,
        outputs: HashMap::new(),
        e2e_us,
        wire_path: false,
    }
}

fn closed_loop(smoke: bool) -> Vec<BenchCell> {
    let (worker_grid, batch_grid): (&[usize], &[usize]) =
        if smoke { (&[2], &[1, 8]) } else { (&[1, 2, 4], &[1, 4, 8, 16]) };
    println!("dsstc-serve throughput sweep: {REQUESTS} mixed ResNet-50/BERT requests per cell\n");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>14} {:>14}",
        "workers", "max_batch", "req/s", "mean batch", "queue p99 ms", "exec p99 ms"
    );
    let mut cells = Vec::new();
    for &workers in worker_grid {
        for &max_batch in batch_grid {
            let result = run_cell(workers, max_batch);
            println!(
                "{workers:>8} {max_batch:>10} {:>12.1} {:>12.2} {:>14.2} {:>14.2}",
                result.achieved_rps,
                result.stats.mean_batch_size,
                result.stats.queue_p99_us / 1e3,
                result.stats.execute_p99_us / 1e3,
            );
            cells.push(BenchCell {
                pool: "default".to_string(),
                max_batch,
                offered_rps: None,
                connections: None,
                reactors: None,
                result,
            });
        }
    }
    println!(
        "\n(modelled GPU latency per request is reported by the server itself; see\n examples/serve_demo.rs for the metrics surface)"
    );
    cells
}

/// The measurements one cell produces, for either submit path.
struct CellResult {
    achieved_rps: f64,
    stats: ServerStats,
    /// Request seed → output features, for the bit-identical check.
    outputs: HashMap<u64, Matrix>,
    /// Client-observed end-to-end latency samples, µs, tagged with each
    /// request's priority: the admitted→responded span of the response's
    /// [`dsstc_serve::RequestTrace`] for in-process cells, send-to-response
    /// wall time (framing and loopback included) for wire cells.
    e2e_us: Vec<(Priority, f64)>,
    /// Whether the samples came through the TCP front-end.
    wire_path: bool,
}

/// Folds one response's trace-derived end-to-end latency into `samples`.
fn push_trace_e2e(samples: &mut Vec<(Priority, f64)>, response: &dsstc_serve::InferResponse) {
    if let Some(us) = response.trace.span_us(Stage::Admitted, Stage::Responded) {
        let priority = response.trace.priority.unwrap_or(Priority::Normal);
        samples.push((priority, us as f64));
    }
}

/// One row of the machine-readable `--bench-json` output.
struct BenchCell {
    pool: String,
    max_batch: usize,
    /// `None` for closed-loop cells (the driver has no arrival clock).
    offered_rps: Option<f64>,
    /// Concurrent client connections driving the cell (`None` for
    /// in-process cells, which have no connections at all).
    connections: Option<usize>,
    /// Server-side reactor count (`None` for in-process cells).
    reactors: Option<usize>,
    result: CellResult,
}

fn cell_config(
    pool: DevicePool,
    max_batch: usize,
    encode_cache_dir: Option<&PathBuf>,
) -> ServeConfig {
    let mut config = ServeConfig::default()
        .with_devices(pool)
        .with_max_batch(max_batch)
        .with_max_queue_wait(Duration::from_millis(2))
        .with_proxy_dim(64);
    if let Some(dir) = encode_cache_dir {
        config = config.with_encode_cache_dir(dir.clone());
    }
    config
}

/// One open-loop cell through the in-process submit path: Poisson arrivals
/// at `offered_rps`, mixed-priority mixed-model traffic driven by
/// `submitters` threads (each pacing an independent sub-process with
/// sleep+spin).
fn run_open_loop_cell(
    pool: DevicePool,
    max_batch: usize,
    offered_rps: f64,
    requests: u64,
    submitters: usize,
    encode_cache_dir: Option<&PathBuf>,
) -> CellResult {
    let mut server = InferenceServer::start(cell_config(pool, max_batch, encode_cache_dir));
    for model in [ModelId::ResNet50, ModelId::BertBase] {
        server.warm_model(model, None);
    }
    let sub_processes = PoissonArrivals::new(offered_rps, ARRIVAL_SEED).split(submitters);
    let started = Instant::now();
    let server_ref = &server;
    // Each submitter drives its own sub-process; the superposition offers
    // the full load. Requests are waited on after every submitter finishes
    // (open loop: arrivals never wait for the server).
    let pending: Vec<(u64, dsstc_serve::server::PendingResponse)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sub_processes
            .into_iter()
            .enumerate()
            .map(|(t, mut arrivals)| {
                let share = share_of(t, submitters, requests);
                scope.spawn(move || {
                    let mut next_arrival = started;
                    (0..share)
                        .map(|i| {
                            next_arrival += arrivals.next_gap();
                            // Open loop: pace to the arrival instant even if
                            // the server is behind; never wait for the
                            // server itself.
                            pace_until(next_arrival);
                            let seed = seed_of(t, i);
                            (seed, server_ref.submit(request_for(seed)).expect("queued"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("submitter thread")).collect()
    });
    let mut outputs = HashMap::with_capacity(pending.len());
    let mut e2e_us = Vec::with_capacity(pending.len());
    for (seed, p) in pending {
        let response = p.wait().expect("response");
        push_trace_e2e(&mut e2e_us, &response);
        outputs.insert(seed, response.output);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    CellResult { achieved_rps: requests as f64 / elapsed, stats, outputs, e2e_us, wire_path: false }
}

/// The same open-loop cell through the TCP front-end on loopback: one
/// pipelined `WireClient` connection per submitter, a concurrent reader
/// clone collecting responses (and their client-observed end-to-end
/// latency) as batches complete.
#[cfg(target_os = "linux")]
fn run_wire_cell(
    pool: DevicePool,
    max_batch: usize,
    offered_rps: f64,
    requests: u64,
    submitters: usize,
    reactors: usize,
    encode_cache_dir: Option<&PathBuf>,
) -> CellResult {
    let mut server =
        WireServer::start(cell_config(pool, max_batch, encode_cache_dir).with_reactors(reactors))
            .expect("bind loopback");
    for model in [ModelId::ResNet50, ModelId::BertBase] {
        server.server().warm_model(model, None);
    }
    let addr = server.local_addr();
    let sub_processes = PoissonArrivals::new(offered_rps, ARRIVAL_SEED).split(submitters);
    let started = Instant::now();
    let collected: Vec<(u64, Matrix, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sub_processes
            .into_iter()
            .enumerate()
            .map(|(t, mut arrivals)| {
                let share = share_of(t, submitters, requests);
                scope.spawn(move || {
                    let mut sender = WireClient::connect(addr).expect("connect");
                    let mut receiver = sender.try_clone().expect("clone for reading");
                    let send_instants =
                        std::sync::Arc::new(std::sync::Mutex::new(
                            HashMap::<u64, (u64, Instant)>::new(),
                        ));
                    let reader_instants = std::sync::Arc::clone(&send_instants);
                    let reader = scope.spawn(move || {
                        let mut out = Vec::with_capacity(share as usize);
                        for _ in 0..share {
                            let response = receiver.recv().expect("wire response");
                            let arrived = Instant::now();
                            let id = response.id;
                            let body = response.into_body().expect("served");
                            let (seed, sent) = reader_instants
                                .lock()
                                .expect("send-instant map")
                                .remove(&id)
                                .expect("response matches a sent request");
                            out.push((
                                seed,
                                body.output,
                                arrived.duration_since(sent).as_secs_f64() * 1e6,
                            ));
                        }
                        out
                    });
                    let mut next_arrival = started;
                    for i in 0..share {
                        next_arrival += arrivals.next_gap();
                        pace_until(next_arrival);
                        let seed = seed_of(t, i);
                        let frame = RequestFrame::from_request(i, &request_for(seed));
                        // Record the instant before the bytes go out (the
                        // response can arrive concurrently, so the map entry
                        // must exist first; the sample then also includes
                        // serialisation time).
                        send_instants
                            .lock()
                            .expect("send-instant map")
                            .insert(i, (seed, Instant::now()));
                        sender.send_frame(&frame).expect("send");
                    }
                    reader.join().expect("reader thread")
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("submitter thread")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    let mut outputs = HashMap::with_capacity(collected.len());
    let mut e2e_us = Vec::with_capacity(collected.len());
    for (seed, output, sample_us) in collected {
        // Mirrors `request_for`: every fourth seed is high priority.
        let priority = if seed.is_multiple_of(4) { Priority::High } else { Priority::Normal };
        e2e_us.push((priority, sample_us));
        outputs.insert(seed, output);
    }
    CellResult { achieved_rps: requests as f64 / elapsed, stats, outputs, e2e_us, wire_path: true }
}

/// `--wire` is rejected in `main` off Linux (the epoll front-end is
/// Linux-only); this stub keeps the sweep compiling everywhere.
#[cfg(not(target_os = "linux"))]
fn run_wire_cell(
    _pool: DevicePool,
    _max_batch: usize,
    _offered_rps: f64,
    _requests: u64,
    _submitters: usize,
    _reactors: usize,
    _encode_cache_dir: Option<&PathBuf>,
) -> CellResult {
    unreachable!("--wire is rejected on non-Linux platforms")
}

/// The fan-in benchmark (`--connections N`): a burst of pipelined traffic
/// over N concurrent connections, driven by an epoll client fleet, served
/// once with a single reactor and once with `--reactors`. Outputs are
/// asserted bit-identical against the in-process path, and the
/// client-observed throughput ratio is the headline number.
#[cfg(target_os = "linux")]
mod fanin {
    use super::*;
    use dsstc_serve::net::poll::{Event, Poller, Token, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
    use dsstc_serve::net::{encode_request_into, Frame, FrameDecoder, WireStatus};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::sync::{Arc, Barrier};

    /// Pipelined requests each connection sends in its burst.
    pub const PER_CONN: u64 = 2;
    /// Distinct request payloads: connection `c`'s `i`-th request reuses
    /// seed `(c * PER_CONN + i) % SEED_UNIVERSE`, so the bit-identical
    /// check only needs this many in-process reference inferences no
    /// matter how many connections fan in.
    const SEED_UNIVERSE: u64 = 32;
    /// Client event-loop threads, each owning a disjoint slice of the
    /// connections. Fixed (not scaled with `--reactors`) so both server
    /// variants face the identical client fleet.
    const CLIENT_THREADS: usize = 8;
    const FANIN_PROXY_DIM: usize = 32;

    fn seed_for(conn: usize, i: u64) -> u64 {
        (conn as u64 * PER_CONN + i) % SEED_UNIVERSE
    }

    fn fanin_request(seed: u64) -> InferRequest {
        let model = if seed.is_multiple_of(2) { ModelId::RnnLm } else { ModelId::BertBase };
        let features =
            Matrix::random_sparse(1, FANIN_PROXY_DIM, 0.4, SparsityPattern::Uniform, seed);
        InferRequest::new(model, features)
    }

    /// The cell is meant to be front-end bound: tiny proxy GEMMs, a large
    /// batch bound and several workers keep the backend out of the way so
    /// the measured throughput is the reactors' decode/submit/encode path.
    fn fanin_config(connections: usize, reactors: usize) -> ServeConfig {
        ServeConfig::default()
            .with_devices(DevicePool::homogeneous(GpuConfig::v100(), 4))
            .with_max_batch(64)
            .with_max_queue_wait(Duration::from_micros(500))
            .with_proxy_dim(FANIN_PROXY_DIM)
            .with_max_connections(connections + 16)
            .with_reactors(reactors)
    }

    /// Raises `RLIMIT_NOFILE` towards its hard limit: a 10k-connection
    /// fan-in needs ~20k fds in this process (client and server share it).
    pub fn raise_nofile_limit(connections: usize) {
        let needed = (connections as u64) * 2 + 256;
        match dsstc_serve::sys::raise_nofile_limit(needed) {
            Ok(limit) if limit < needed => eprintln!(
                "serve_throughput: warning: RLIMIT_NOFILE is {limit} but ~{needed} fds are \
                 needed for {connections} connections; expect connect failures"
            ),
            _ => {}
        }
    }

    /// One client-side connection in the fleet.
    struct FanConn {
        stream: TcpStream,
        decoder: FrameDecoder,
        /// The whole pipelined burst, encoded up front (outside the clock).
        outbound: Vec<u8>,
        written: usize,
        /// Responses still expected on this connection.
        remaining: u64,
        /// `seeds[id]` is the seed request `id` carried.
        seeds: [u64; PER_CONN as usize],
        watching_out: bool,
    }

    /// Runs one fan-in cell and returns it with the client-observed
    /// throughput (every response received and verified bit-identical to
    /// `expected`).
    pub fn run_fanin_cell(
        connections: usize,
        reactors: usize,
        expected: &HashMap<u64, Matrix>,
    ) -> CellResult {
        let mut server =
            WireServer::start(fanin_config(connections, reactors)).expect("bind loopback");
        for model in [ModelId::RnnLm, ModelId::BertBase] {
            server.server().warm_model(model, None);
        }
        let addr = server.local_addr();
        let max_frame_len = ServeConfig::default().max_frame_len;
        // Encode each distinct (seed, id) frame once; connections reuse
        // the templates for their outbound bursts.
        let requests: Vec<InferRequest> = (0..SEED_UNIVERSE).map(fanin_request).collect();
        let threads = CLIENT_THREADS.min(connections.max(1));
        let barrier = Arc::new(Barrier::new(threads + 1));
        let requests_total = (connections as u64) * PER_CONN;

        let (clock, responded) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let barrier = Arc::clone(&barrier);
                    let requests = &requests;
                    scope.spawn(move || {
                        // This thread's slice of the connection space.
                        let share: Vec<usize> =
                            (0..connections).filter(|c| c % threads == t).collect();
                        let poller = Poller::new().expect("client epoll");
                        let mut conns: Vec<FanConn> = share
                            .iter()
                            .map(|&c| {
                                // A connect failure (typically EMFILE when the
                                // fd limit could not be raised) must abort the
                                // process: panicking here would leave the main
                                // thread wedged on the start barrier.
                                let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
                                    eprintln!(
                                        "serve_throughput: fan-in connect failed \
                                         ({e}); is RLIMIT_NOFILE high enough?"
                                    );
                                    std::process::exit(1);
                                });
                                stream.set_nonblocking(true).expect("nonblocking");
                                let _ = stream.set_nodelay(true);
                                let mut outbound = Vec::new();
                                let mut seeds = [0u64; PER_CONN as usize];
                                for i in 0..PER_CONN {
                                    let seed = seed_for(c, i);
                                    seeds[i as usize] = seed;
                                    encode_request_into(&mut outbound, i, &requests[seed as usize]);
                                }
                                FanConn {
                                    stream,
                                    decoder: FrameDecoder::new(max_frame_len),
                                    outbound,
                                    written: 0,
                                    remaining: PER_CONN,
                                    seeds,
                                    watching_out: false,
                                }
                            })
                            .collect();
                        // Everyone connected and encoded: start the clock.
                        barrier.wait();
                        for (index, conn) in conns.iter_mut().enumerate() {
                            flush(conn);
                            let interest = if conn.written < conn.outbound.len() {
                                conn.watching_out = true;
                                EPOLLIN | EPOLLOUT | EPOLLRDHUP
                            } else {
                                EPOLLIN | EPOLLRDHUP
                            };
                            poller
                                .register(conn.stream.as_raw_fd(), interest, Token(index as u64))
                                .expect("register fan-in conn");
                        }
                        let mut scratch = vec![0u8; 64 * 1024];
                        let mut events: Vec<Event> = Vec::new();
                        let mut open = conns.len() as u64;
                        let mut responded = 0u64;
                        while open > 0 {
                            events.clear();
                            poller.wait(&mut events, None).expect("client epoll wait");
                            for event in &events {
                                let Token(index) = event.token;
                                let conn = &mut conns[index as usize];
                                if conn.remaining == 0 {
                                    continue;
                                }
                                if event.writable() && conn.written < conn.outbound.len() {
                                    flush(conn);
                                }
                                if conn.watching_out && conn.written == conn.outbound.len() {
                                    conn.watching_out = false;
                                    let _ = poller.reregister(
                                        conn.stream.as_raw_fd(),
                                        EPOLLIN | EPOLLRDHUP,
                                        event.token,
                                    );
                                }
                                if event.readable() {
                                    responded += read_responses(conn, &mut scratch, expected);
                                    if conn.remaining == 0 {
                                        let _ = poller.deregister(conn.stream.as_raw_fd());
                                        open -= 1;
                                    }
                                }
                            }
                        }
                        responded
                    })
                })
                .collect();
            barrier.wait();
            let clock = Instant::now();
            let responded: u64 =
                handles.into_iter().map(|h| h.join().expect("client thread")).sum();
            (clock.elapsed(), responded)
        });
        assert_eq!(responded, requests_total, "every fan-in request must be answered");
        let stats = server.stats();
        server.shutdown();
        CellResult {
            achieved_rps: requests_total as f64 / clock.as_secs_f64(),
            stats,
            outputs: HashMap::new(),
            e2e_us: Vec::new(),
            wire_path: true,
        }
    }

    fn flush(conn: &mut FanConn) {
        while conn.written < conn.outbound.len() {
            match conn.stream.write(&conn.outbound[conn.written..]) {
                Ok(0) => panic!("fan-in connection died mid-send"),
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("fan-in send failed: {e}"),
            }
        }
    }

    /// Reads everything the socket has, verifying each decoded response
    /// against the in-process reference on the spot. Returns how many
    /// responses arrived.
    fn read_responses(
        conn: &mut FanConn,
        scratch: &mut [u8],
        expected: &HashMap<u64, Matrix>,
    ) -> u64 {
        let mut responded = 0;
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => panic!("server closed a fan-in connection early"),
                Ok(n) => {
                    conn.decoder.feed(&scratch[..n]);
                    while let Some(frame) =
                        conn.decoder.next_frame().expect("well-formed response stream")
                    {
                        let Frame::Response(response) = frame else {
                            panic!("server sent a request frame");
                        };
                        assert_eq!(response.status, WireStatus::Ok, "{}", response.message);
                        let seed = conn.seeds[response.id as usize];
                        let body = response.into_body().expect("ok body");
                        assert_eq!(
                            &body.output,
                            expected.get(&seed).expect("reference output"),
                            "fan-in output differs from in-process for seed {seed}"
                        );
                        conn.remaining -= 1;
                        responded += 1;
                    }
                    if conn.remaining == 0 {
                        return responded;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return responded,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("fan-in read failed: {e}"),
            }
        }
    }

    /// The in-process reference outputs for the whole seed universe (the
    /// deterministic request → output mapping is what the fan-in cells are
    /// checked against).
    pub fn reference_outputs(connections: usize, reactors: usize) -> HashMap<u64, Matrix> {
        let mut server = InferenceServer::start(fanin_config(connections, reactors));
        for model in [ModelId::RnnLm, ModelId::BertBase] {
            server.warm_model(model, None);
        }
        let outputs = (0..SEED_UNIVERSE)
            .map(|seed| (seed, server.infer(fanin_request(seed)).expect("reference").output))
            .collect();
        server.shutdown();
        outputs
    }
}

/// The `--connections N` sweep: single-reactor baseline vs `--reactors`,
/// same connection count, same client fleet.
#[cfg(target_os = "linux")]
fn fan_in(connections: usize, reactors: usize) -> (u64, Vec<BenchCell>) {
    fanin::raise_nofile_limit(connections);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < reactors {
        eprintln!(
            "serve_throughput: note: {reactors} reactors on a {cores}-core host — the \
             reactor threads time-share, so expect flat (not multiplied) throughput; \
             the sharding speed-up needs at least {reactors} cores"
        );
    }
    let expected = fanin::reference_outputs(connections, reactors);
    let requests_total = connections as u64 * fanin::PER_CONN;
    println!(
        "dsstc-serve fan-in bench: {connections} pipelined connections x {} requests each, \
         outputs checked bit-for-bit against the in-process path\n",
        fanin::PER_CONN
    );
    println!("{:>10} {:>13} {:>14} {:>14}", "reactors", "connections", "client req/s", "elapsed s");
    let mut variants = vec![1usize];
    if reactors != 1 {
        variants.push(reactors);
    }
    let mut cells = Vec::new();
    let mut rates = Vec::new();
    for &r in &variants {
        let result = fanin::run_fanin_cell(connections, r, &expected);
        println!(
            "{r:>10} {connections:>13} {:>14.1} {:>14.2}",
            result.achieved_rps,
            requests_total as f64 / result.achieved_rps,
        );
        rates.push(result.achieved_rps);
        cells.push(BenchCell {
            pool: "4x V100".to_string(),
            max_batch: 64,
            offered_rps: None,
            connections: Some(connections),
            reactors: Some(r),
            result,
        });
    }
    if let [baseline, sharded] = rates[..] {
        println!(
            "\nclient-observed speed-up at {connections} connections: {:.2}x \
             ({reactors} reactors vs 1)",
            sharded / baseline
        );
    }
    (requests_total, cells)
}

#[cfg(not(target_os = "linux"))]
fn fan_in(_connections: usize, _reactors: usize) -> (u64, Vec<BenchCell>) {
    unreachable!("--connections requires --wire, which is rejected off Linux")
}

/// The `--cluster N` benchmark: an N-node loopback cluster with
/// consistent-hash sharding, served through the cluster-aware client and
/// checked bit-for-bit against a single-node reference, then re-served
/// after killing one node to measure failover.
#[cfg(target_os = "linux")]
mod cluster {
    use super::*;
    use dsstc_serve::net::{ClusterClient, WireServer};
    use dsstc_serve::ClusterConfig;
    use std::net::{SocketAddr, TcpListener};

    /// Requests per phase. Model and weight sparsity both vary with the
    /// seed, so the sweep spreads over 12 distinct shard keys (and
    /// therefore over the whole ring) instead of a couple of shards.
    pub const SWEEP: u64 = 48;
    const CLUSTER_PROXY_DIM: usize = 32;
    /// Fixed ring seed: placement — and the redirect/failover counts the
    /// bench reports — is reproducible run to run.
    const RING_SEED: u64 = 0x5EED;

    /// One measured phase of the cluster bench (`dsstc.bench.cluster/1`).
    pub struct ClusterCell {
        pub phase: &'static str,
        pub nodes: usize,
        pub replication: usize,
        pub requests: u64,
        pub completed: u64,
        /// `NotMine` redirects answered by the servers during the phase.
        pub redirects: u64,
        /// Dead-replica failovers the client performed during the phase.
        pub failovers: u64,
        pub redirect_rate: f64,
        pub bit_identical: bool,
    }

    fn cluster_request(seed: u64) -> InferRequest {
        let model = if seed.is_multiple_of(2) { ModelId::RnnLm } else { ModelId::BertBase };
        let features =
            Matrix::random_sparse(1, CLUSTER_PROXY_DIM, 0.4, SparsityPattern::Uniform, seed);
        InferRequest::new(model, features).with_weight_sparsity(0.50 + (seed % 12) as f64 * 0.04)
    }

    /// Reserves `n` distinct loopback ports by binding them all at once,
    /// then releasing: nodes need each other's addresses before binding.
    fn free_addrs(n: usize) -> Vec<SocketAddr> {
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port")).collect();
        listeners.iter().map(|l| l.local_addr().expect("bound addr")).collect()
    }

    fn node_config() -> ServeConfig {
        ServeConfig::default()
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(CLUSTER_PROXY_DIM)
            .with_reactors(1)
    }

    /// The single-node reference outputs the cluster must reproduce bit
    /// for bit (encoding and inference are deterministic).
    fn reference_outputs() -> HashMap<u64, Matrix> {
        let mut server = InferenceServer::start(node_config());
        let outputs = (0..SWEEP)
            .map(|seed| (seed, server.infer(cluster_request(seed)).expect("reference").output))
            .collect();
        server.shutdown();
        outputs
    }

    /// Serves the whole sweep through `client`, returning how many outputs
    /// matched the reference exactly.
    fn serve_sweep(client: &mut ClusterClient, expected: &HashMap<u64, Matrix>) -> u64 {
        (0..SWEEP)
            .filter(|&seed| {
                let body = client.infer(&cluster_request(seed)).expect("cluster serves");
                &body.output == expected.get(&seed).expect("reference output")
            })
            .count() as u64
    }

    /// Sums a per-node cluster counter over the servers still running.
    fn sum_counter(servers: &[WireServer], f: impl Fn(&dsstc_serve::ClusterStats) -> u64) -> u64 {
        servers.iter().map(|s| f(&s.stats().cluster.expect("cluster stats"))).sum()
    }

    pub fn run(nodes: usize) -> (u64, Vec<ClusterCell>) {
        let replication = nodes.min(2);
        let expected = reference_outputs();
        let addrs = free_addrs(nodes);
        let mut servers: Vec<WireServer> = (0..nodes)
            .map(|i| {
                let peers: Vec<(u16, String)> = (0..nodes)
                    .filter(|&j| j != i)
                    .map(|j| (j as u16, addrs[j].to_string()))
                    .collect();
                let cluster = ClusterConfig::new(i as u16, addrs[i].to_string(), peers)
                    .with_replication(replication)
                    .with_seed(RING_SEED)
                    .with_ping(Duration::from_millis(100), 2);
                WireServer::start(node_config().with_listen(addrs[i]).with_cluster(cluster))
                    .expect("bind cluster node")
            })
            .collect();
        let mut client = ClusterClient::connect(&addrs).expect("cluster hello");
        println!(
            "dsstc-serve cluster bench: {nodes} loopback node(s), replication {replication}, \
             {SWEEP} requests per phase, outputs checked bit-for-bit against a single node\n"
        );
        println!(
            "{:>10} {:>8} {:>13} {:>11} {:>11} {:>11} {:>14} {:>10}",
            "phase",
            "nodes",
            "replication",
            "requests",
            "redirects",
            "failovers",
            "redirect rate",
            "outputs"
        );
        let mut cells = Vec::new();
        let mut report = |phase: &'static str,
                          servers: &[WireServer],
                          client: &ClusterClient,
                          identical: u64,
                          redirects_before: u64,
                          failovers_before: u64| {
            let redirects = sum_counter(servers, |c| c.redirects) - redirects_before;
            let failovers = client.failovers() - failovers_before;
            let cell = ClusterCell {
                phase,
                nodes: servers.len(),
                replication,
                requests: SWEEP,
                completed: identical,
                redirects,
                failovers,
                redirect_rate: redirects as f64 / SWEEP as f64,
                bit_identical: identical == SWEEP,
            };
            println!(
                "{phase:>10} {:>8} {replication:>13} {SWEEP:>11} {redirects:>11} {failovers:>11} \
                 {:>14.3} {:>10}",
                cell.nodes,
                cell.redirect_rate,
                if cell.bit_identical { "identical" } else { "DIFFER" },
            );
            assert!(cell.bit_identical, "{phase}: {identical}/{SWEEP} outputs matched");
            cells.push(cell);
        };

        // Steady state: every node up, client and servers share a map.
        let identical = serve_sweep(&mut client, &expected);
        report("steady", &servers, &client, identical, 0, 0);

        if nodes >= 2 {
            // Kill the last node and re-serve the identical sweep: the
            // requests it acknowledged must be reproduced bit-identically
            // by the survivors (deterministic inference makes the client's
            // failover resends idempotent).
            let redirects_before = sum_counter(&servers[..nodes - 1], |c| c.redirects);
            let failovers_before = client.failovers();
            servers.pop().expect("last node").shutdown();
            let identical = serve_sweep(&mut client, &expected);
            report("failover", &servers, &client, identical, redirects_before, failovers_before);
            assert!(
                client.failovers() > 0 || client.redirects_followed() > 0,
                "killing a node must exercise failover or redirects"
            );
        }

        // The per-node serving split plus each node's cluster counters —
        // the same numbers the /metrics endpoint exports per node.
        println!("\nper-node split (survivors):");
        for server in &servers {
            let stats = server.stats();
            let c = stats.cluster.expect("cluster stats");
            println!(
                "  node {}: {} served, map v{}, {}/{} peers alive, {} redirects, \
                 {} failover serves, {} hellos",
                c.node_id,
                stats.completed_requests,
                c.shard_map_version,
                c.peers_alive,
                c.peers_total,
                c.redirects,
                c.failover_serves,
                c.hellos,
            );
        }
        for server in &mut servers {
            server.shutdown();
        }
        (SWEEP, cells)
    }
}

#[cfg(not(target_os = "linux"))]
mod cluster {
    //! `--cluster` is rejected in `main` off Linux; this stub keeps the
    //! sweep compiling everywhere.
    pub struct ClusterCell {
        pub phase: &'static str,
        pub nodes: usize,
        pub replication: usize,
        pub requests: u64,
        pub completed: u64,
        pub redirects: u64,
        pub failovers: u64,
        pub redirect_rate: f64,
        pub bit_identical: bool,
    }

    pub fn run(_nodes: usize) -> (u64, Vec<ClusterCell>) {
        unreachable!("--cluster needs the epoll front-end, which is Linux-only")
    }
}

/// Writes the cluster bench as `dsstc.bench.cluster/1` JSON (schema
/// documented in `docs/CLUSTER.md`; validated by `ci/validate_bench.py`).
fn write_cluster_json(path: &PathBuf, requests_per_cell: u64, cells: &[cluster::ClusterCell]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dsstc.bench.cluster/1\",\n");
    out.push_str(&format!("  \"requests_per_cell\": {requests_per_cell},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"phase\": {}, \"nodes\": {}, \"replication\": {}, \"requests\": {}, \
             \"completed\": {}, \"redirects\": {}, \"failovers\": {}, \"redirect_rate\": {}, \
             \"bit_identical\": {}}}{comma}\n",
            json_str(cell.phase),
            cell.nodes,
            cell.replication,
            cell.requests,
            cell.completed,
            cell.redirects,
            cell.failovers,
            json_f64(cell.redirect_rate),
            cell.bit_identical,
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("serve_throughput: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {} ({} cells)", path.display(), cells.len());
}

/// Asserts the wire path reproduced the in-process outputs bit for bit.
fn assert_bit_identical(in_process: &CellResult, wire: &CellResult) {
    assert_eq!(
        in_process.outputs.len(),
        wire.outputs.len(),
        "both paths must answer every request"
    );
    for (seed, expected) in &in_process.outputs {
        let actual = wire.outputs.get(seed).expect("wire answered this seed");
        assert_eq!(actual, expected, "wire output differs from in-process for seed {seed}");
    }
}

fn open_loop(
    smoke: bool,
    submitters: Option<usize>,
    encode_cache_dir: Option<&PathBuf>,
    wire: bool,
    reactors: usize,
) -> (u64, Vec<BenchCell>) {
    let (loads, requests): (&[f64], u64) =
        if smoke { (&[200.0, 800.0], 32) } else { (&[100.0, 200.0, 400.0, 800.0, 1600.0], 96) };
    let mut cells = Vec::new();
    type PoolMaker = fn() -> DevicePool;
    let pools: &[(&str, PoolMaker)] = &[
        ("2x V100", || DevicePool::homogeneous(GpuConfig::v100(), 2)),
        ("V100+A100", || DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()])),
    ];
    println!(
        "dsstc-serve open-loop sweep{}: seeded Poisson arrivals, {requests} mixed \
         ResNet-50/BERT requests per cell (1 in 4 high priority)\n",
        if wire { " (in-process vs wire)" } else { "" }
    );
    if wire {
        println!(
            "{:>10} {:>10} {:>12} {:>11} {:>12} {:>14} {:>12} {:>14} {:>14} {:>10}",
            "pool",
            "max_batch",
            "offered r/s",
            "submitters",
            "inproc r/s",
            "inproc p99 ms",
            "wire r/s",
            "wire p50 ms",
            "wire p99 ms",
            "outputs"
        );
    } else {
        println!(
            "{:>10} {:>10} {:>12} {:>11} {:>12} {:>14} {:>14} {:>14} {:>12} {:>12}",
            "pool",
            "max_batch",
            "offered r/s",
            "submitters",
            "achieved",
            "queue p50 ms",
            "queue p99 ms",
            "hi-pri p99 ms",
            "mean batch",
            "model ms"
        );
    }
    for (name, make_pool) in pools {
        for &max_batch in &[4usize, 8] {
            for &load in loads {
                let threads = submitters.unwrap_or_else(|| auto_submitters(load));
                let in_process = run_open_loop_cell(
                    make_pool(),
                    max_batch,
                    load,
                    requests,
                    threads,
                    encode_cache_dir,
                );
                if wire {
                    let over_wire = run_wire_cell(
                        make_pool(),
                        max_batch,
                        load,
                        requests,
                        threads,
                        reactors,
                        encode_cache_dir,
                    );
                    assert_bit_identical(&in_process, &over_wire);
                    let e2e: Vec<f64> = over_wire.e2e_us.iter().map(|&(_, us)| us).collect();
                    println!(
                        "{name:>10} {max_batch:>10} {load:>12.0} {threads:>11} {:>12.1} {:>14.2} {:>12.1} {:>14.2} {:>14.2} {:>10}",
                        in_process.achieved_rps,
                        in_process.stats.queue_p99_us / 1e3,
                        over_wire.achieved_rps,
                        percentile(&e2e, 0.50) / 1e3,
                        percentile(&e2e, 0.99) / 1e3,
                        "identical",
                    );
                    cells.push(BenchCell {
                        pool: name.to_string(),
                        max_batch,
                        offered_rps: Some(load),
                        // One pipelined connection per submitter thread.
                        connections: Some(threads),
                        reactors: Some(reactors),
                        result: over_wire,
                    });
                } else {
                    let stats = &in_process.stats;
                    println!(
                        "{name:>10} {max_batch:>10} {load:>12.0} {threads:>11} {:>12.1} {:>14.2} {:>14.2} {:>14.2} {:>12.2} {:>12.2}",
                        in_process.achieved_rps,
                        stats.queue_p50_us / 1e3,
                        stats.queue_p99_us / 1e3,
                        stats.for_priority(Priority::High).queue_p99_us / 1e3,
                        stats.mean_batch_size,
                        stats.modelled_makespan_us / 1e3,
                    );
                }
                cells.push(BenchCell {
                    pool: name.to_string(),
                    max_batch,
                    offered_rps: Some(load),
                    connections: None,
                    reactors: None,
                    result: in_process,
                });
            }
            println!();
        }
    }
    if wire {
        println!(
            "(every cell ran the same seeded trace twice: in-process submit and pipelined wire\n \
             connections over loopback. The \"outputs\" column asserts the two paths produced\n \
             bit-identical features for every request; wire p50/p99 are client-observed\n \
             end-to-end latencies including framing and loopback transport)"
        );
    } else {
        println!(
            "(wall-clock queue latency grows with offered load as the open-loop arrivals outpace\n \
             the host-bound proxy execution, which runs at the same real speed on every modelled\n \
             device; the modelled-makespan column is where the device pool shows — completion-time\n \
             dispatch shifts batches toward the A100, so the mixed pool finishes the same trace in\n \
             less modelled time than 2x V100)"
        );
    }
    (requests, cells)
}

/// A finite float for JSON (`NaN`/`inf` have no JSON encoding → `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping for the names this sweep emits.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The p-th percentile of the samples matching `priority` (`null` if none).
fn e2e_quantile_json(samples: &[(Priority, f64)], priority: Option<Priority>, p: f64) -> String {
    let matching: Vec<f64> = samples
        .iter()
        .filter(|(sample_priority, _)| priority.is_none_or(|want| *sample_priority == want))
        .map(|&(_, us)| us)
        .collect();
    if matching.is_empty() {
        "null".to_string()
    } else {
        json_f64(percentile(&matching, p))
    }
}

/// Serialises one sweep cell as a `dsstc.bench.serve/1` JSON object.
fn bench_cell_json(cell: &BenchCell) -> String {
    let stats = &cell.result.stats;
    let per_priority: Vec<String> = Priority::ALL
        .iter()
        .map(|&priority| {
            let latency = stats.for_priority(priority);
            format!(
                "{{\"priority\": {}, \"completed\": {}, \"shed\": {}, \"queue_p50_us\": {}, \
                 \"queue_p99_us\": {}, \"e2e_p50_us\": {}, \"e2e_p99_us\": {}}}",
                json_str(&priority.to_string()),
                latency.completed,
                latency.shed,
                json_f64(latency.queue_p50_us),
                json_f64(latency.queue_p99_us),
                e2e_quantile_json(&cell.result.e2e_us, Some(priority), 0.50),
                e2e_quantile_json(&cell.result.e2e_us, Some(priority), 0.99),
            )
        })
        .collect();
    let per_device: Vec<String> = stats
        .per_device
        .iter()
        .map(|d| {
            format!(
                "{{\"device\": {}, \"batches\": {}, \"modelled_busy_us\": {}, \
                 \"utilisation\": {}}}",
                json_str(&d.name),
                d.batches,
                json_f64(d.modelled_busy_us),
                json_f64(d.utilisation),
            )
        })
        .collect();
    let wire = match &stats.wire {
        Some(w) => format!(
            "{{\"connections_accepted\": {}, \"frames_received\": {}, \"frames_sent\": {}, \
             \"error_frames_sent\": {}, \"shed\": {}, \"bytes_received\": {}, \"bytes_sent\": {}}}",
            w.connections_accepted,
            w.frames_received,
            w.frames_sent,
            w.error_frames_sent,
            w.shed_total(),
            w.bytes_received,
            w.bytes_sent,
        ),
        None => "null".to_string(),
    };
    // A cell that completed nothing has no meaningful rate: its elapsed
    // division is 0/0 or inf, which `json_f64` would fold to `null` and a
    // consumer would trip over where the schema promises a number. Pin it
    // to an explicit 0 and let the `completed` field (and the CI schema
    // check) flag the cell as broken.
    let achieved_rps = if stats.completed_requests == 0 { 0.0 } else { cell.result.achieved_rps };
    format!(
        "{{\"pool\": {}, \"workers\": {}, \"max_batch\": {}, \"path\": {}, \
         \"connections\": {}, \"reactors\": {}, \"completed\": {}, \"shed\": {}, \
         \"offered_rps\": {}, \"achieved_rps\": {}, \"queue_p50_us\": {}, \"queue_p99_us\": {}, \
         \"execute_p50_us\": {}, \"execute_p99_us\": {}, \"e2e_p50_us\": {}, \"e2e_p99_us\": {}, \
         \"mean_batch_size\": {}, \"cache_hit_rate\": {}, \"warm_restored\": {}, \
         \"store_entries\": {}, \"store_bytes\": {}, \"per_priority\": [{}], \
         \"per_device\": [{}], \"wire\": {}}}",
        json_str(&cell.pool),
        stats.per_device.len(),
        cell.max_batch,
        json_str(if cell.result.wire_path { "wire" } else { "in_process" }),
        cell.connections.map_or("null".to_string(), |n| n.to_string()),
        cell.reactors.map_or("null".to_string(), |n| n.to_string()),
        stats.completed_requests,
        stats.total_shed(),
        cell.offered_rps.map_or("null".to_string(), json_f64),
        json_f64(achieved_rps),
        json_f64(stats.queue_p50_us),
        json_f64(stats.queue_p99_us),
        json_f64(stats.execute_p50_us),
        json_f64(stats.execute_p99_us),
        e2e_quantile_json(&cell.result.e2e_us, None, 0.50),
        e2e_quantile_json(&cell.result.e2e_us, None, 0.99),
        json_f64(stats.mean_batch_size),
        json_f64(stats.encode_hit_rate),
        stats.encode_warm_restored,
        stats.store_entries,
        stats.store_bytes,
        per_priority.join(", "),
        per_device.join(", "),
        wire,
    )
}

/// Writes the whole sweep as `dsstc.bench.serve/1` JSON (the schema is
/// documented in `docs/OBSERVABILITY.md`).
fn write_bench_json(path: &PathBuf, mode: &str, requests_per_cell: u64, cells: &[BenchCell]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dsstc.bench.serve/1\",\n");
    out.push_str(&format!("  \"mode\": {},\n", json_str(mode)));
    out.push_str(&format!("  \"requests_per_cell\": {requests_per_cell},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        out.push_str(&format!("    {}{comma}\n", bench_cell_json(cell)));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("serve_throughput: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {} ({} cells)", path.display(), cells.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut open = false;
    let mut smoke = false;
    let mut wire = false;
    let mut reactors: Option<usize> = None;
    let mut connections: Option<usize> = None;
    let mut cluster_nodes: Option<usize> = None;
    let mut submitters: Option<usize> = None;
    let mut encode_cache_dir: Option<PathBuf> = None;
    let mut bench_json: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--open-loop" => open = true,
            "--smoke" => smoke = true,
            "--wire" => {
                if !cfg!(target_os = "linux") {
                    usage_error("--wire needs the epoll front-end, which is Linux-only");
                }
                wire = true;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--reactors" => {
                // 0 is meaningful (host parallelism), so only reject
                // a missing or non-numeric value.
                reactors = iter.next().and_then(|v| v.parse().ok());
                if reactors.is_none() {
                    usage_error("--reactors needs a non-negative integer");
                }
            }
            "--connections" => {
                connections = iter.next().and_then(|v| v.parse().ok()).filter(|&n: &usize| n > 0);
                if connections.is_none() {
                    usage_error("--connections needs a positive integer");
                }
            }
            "--cluster" => {
                if !cfg!(target_os = "linux") {
                    usage_error("--cluster needs the epoll front-end, which is Linux-only");
                }
                cluster_nodes = iter.next().and_then(|v| v.parse().ok()).filter(|&n: &usize| n > 0);
                if cluster_nodes.is_none() {
                    usage_error("--cluster needs a positive node count");
                }
            }
            "--submitters" => {
                submitters = iter.next().and_then(|v| v.parse().ok()).filter(|&n: &usize| n > 0);
                if submitters.is_none() {
                    usage_error("--submitters needs a positive integer");
                }
            }
            "--encode-cache-dir" => {
                // A following flag is a missing value, not a directory.
                encode_cache_dir = iter.next().filter(|v| !v.starts_with("--")).map(PathBuf::from);
                if encode_cache_dir.is_none() {
                    usage_error("--encode-cache-dir needs a directory path");
                }
            }
            "--bench-json" => {
                bench_json = iter.next().filter(|v| !v.starts_with("--")).map(PathBuf::from);
                if bench_json.is_none() {
                    usage_error("--bench-json needs a file path");
                }
            }
            unknown => {
                usage_error(&format!("unknown flag {unknown}"));
            }
        }
    }
    if let Some(nodes) = cluster_nodes {
        // Cluster mode replaces the sweeps entirely.
        if open || wire || smoke || reactors.is_some() || connections.is_some() {
            usage_error("--cluster is its own mode and combines only with --bench-json");
        }
        let (requests, cells) = cluster::run(nodes);
        if let Some(path) = &bench_json {
            write_cluster_json(path, requests, &cells);
        }
        return;
    }
    if !open {
        // Fail loudly rather than silently ignoring flags only the
        // open-loop driver consumes.
        if submitters.is_some() || encode_cache_dir.is_some() || wire {
            usage_error("--wire, --submitters and --encode-cache-dir require --open-loop");
        }
        let cells = closed_loop(smoke);
        if let Some(path) = &bench_json {
            write_bench_json(path, "closed_loop", REQUESTS, &cells);
        }
        return;
    }
    if !wire && (reactors.is_some() || connections.is_some()) {
        usage_error("--reactors and --connections require --wire");
    }
    if let Some(connections) = connections {
        // Fan-in mode replaces the open-loop grid: one burst over N
        // concurrent connections, single-reactor baseline vs --reactors.
        let (requests, cells) = fan_in(connections, reactors.unwrap_or(1));
        if let Some(path) = &bench_json {
            write_bench_json(path, "wire_fanin", requests, &cells);
        }
        return;
    }
    let (requests, cells) =
        open_loop(smoke, submitters, encode_cache_dir.as_ref(), wire, reactors.unwrap_or(1));
    if let Some(path) = &bench_json {
        let mode = if wire { "open_loop_wire" } else { "open_loop" };
        write_bench_json(path, mode, requests, &cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep cell that completed zero requests (a stalled or crashed
    /// server) must still serialise schema-valid JSON: `achieved_rps`
    /// pinned to a real 0 (never the `null` that NaN/inf would fold to),
    /// sample-less percentiles as explicit `null`, and a `completed: 0`
    /// field for the CI schema check to reject.
    #[test]
    fn zero_request_cells_serialise_finite_json() {
        let mut server = InferenceServer::start(
            ServeConfig::default().with_workers(1).with_max_batch(1).with_proxy_dim(32),
        );
        let stats = server.stats();
        server.shutdown();
        assert_eq!(stats.completed_requests, 0);
        let cell = BenchCell {
            pool: "empty".to_string(),
            max_batch: 1,
            offered_rps: Some(100.0),
            connections: None,
            reactors: None,
            result: CellResult {
                // What an instant 0-request burst divides out to.
                achieved_rps: f64::NAN,
                stats,
                outputs: HashMap::new(),
                e2e_us: Vec::new(),
                wire_path: false,
            },
        };
        let json = bench_cell_json(&cell);
        assert!(json.contains("\"completed\": 0"), "{json}");
        assert!(json.contains("\"achieved_rps\": 0.000"), "{json}");
        assert!(json.contains("\"e2e_p50_us\": null"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        // The lifecycle counters are additive schema fields: present (and
        // zero) even on a cell that never shed or touched a store.
        assert!(json.contains("\"shed\": 0"), "{json}");
        assert!(json.contains("\"warm_restored\": 0"), "{json}");
        assert!(json.contains("\"store_entries\": 0"), "{json}");
        assert!(json.contains("\"store_bytes\": 0"), "{json}");
    }

    /// The happy path keeps its measured rate and gains the completed
    /// count.
    #[test]
    fn completed_cells_keep_their_measured_rate() {
        let cell_json = {
            let result = run_cell(1, 2);
            assert!(result.achieved_rps > 0.0);
            bench_cell_json(&BenchCell {
                pool: "default".to_string(),
                max_batch: 2,
                offered_rps: None,
                connections: None,
                reactors: None,
                result,
            })
        };
        assert!(cell_json.contains(&format!("\"completed\": {REQUESTS}")), "{cell_json}");
        assert!(!cell_json.contains("\"achieved_rps\": null"), "{cell_json}");
        assert!(!cell_json.contains("\"achieved_rps\": 0.000"), "{cell_json}");
    }
}
