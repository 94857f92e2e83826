//! The non-blocking TCP front-end: a [`WireServer`] owns an
//! [`InferenceServer`] and exposes it to network clients speaking the
//! length-prefixed frame protocol of [`crate::net::frame`].
//!
//! # Architecture
//!
//! The front-end is **one reactor**: one thread next to the serving
//! runtime's device workers, running a level-triggered epoll
//! readiness loop (`crate::net::poll`) over the listener, the
//! `metrics_addr` listener when one is configured, and every socket
//! either accepts. It owns everything about them.
//!
//! * **Accepts:** it accepts every pending connection, enforces
//!   `max_connections` on wire clients and registers the socket with its
//!   poller.
//! * **Reads:** it reads whatever bytes are ready, feeds them through
//!   each connection's [`FrameDecoder`] (several pipelined frames per read
//!   decode back-to-back), converts each request frame into an
//!   [`crate::InferRequest`] and submits it through the same path
//!   in-process callers use, with a clone of the loop's completion
//!   channel and its `eventfd` `Waker`.
//! * **Completions:** the device worker sends each
//!   [`crate::InferResponse`] down that channel and wakes the epoll wait;
//!   the loop drains the channel itself, maps each response back to its
//!   connection and client-chosen id through a table only this thread
//!   touches, and serialises the frame **directly into** the connection's
//!   outbound buffer (no intermediate body `Vec`, no second copy). Insert,
//!   remove, per-connection in-flight count and buffer append all happen
//!   on the one thread, so "no backlog and nothing in flight" means the
//!   connection really is finished.
//! * **Writes:** it flushes opportunistically and under `EPOLLOUT` when
//!   a socket's send buffer fills.
//! * **Scrapes:** a connection accepted on the metrics listener collects
//!   an HTTP request head instead of frames. At the blank line the loop
//!   answers with [`render_prometheus`] of the current snapshot (any path,
//!   HTTP/1.0, `Connection: close`) and retires the connection the way it
//!   retires a poisoned one. Scrapes are not wire clients: they move no
//!   [`WireStats`] counter and do not count against `max_connections`.
//!
//! Responses stream back **as batches complete**, so pipelined requests on
//! one connection may be answered out of submission order; the echoed id is
//! the correlation contract. Request-level failures (unknown model, wrong
//! feature width, server draining) come back as **error frames** and leave
//! the connection usable; framing-level failures (bad magic, checksum
//! mismatch, unsupported version, oversized frame) poison the byte stream,
//! so the server answers with a final error frame and closes that
//! connection.
//!
//! Shutdown is graceful: both listeners are deregistered first, then the
//! loop keeps flushing until every in-flight request has been answered and
//! every outbound buffer drained (bounded by [`DRAIN_TIMEOUT`]), and only
//! then is the inference runtime itself shut down.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::batcher::Wake;
use crate::cluster::{constant_time_eq, shard_hash, ClusterState, ShardMap};
use crate::config::ServeConfig;
use crate::net::client::WireClient;
use crate::net::frame::{
    encode_error_into, encode_response_into, encode_shard_map_into, Frame, FrameDecoder,
    HelloFrame, RequestFrame, WireError, WireStatus, POISON_ID,
};
use crate::net::poll::{Event, Poller, Token, Waker, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::request::InferResponse;
use crate::server::{InferenceServer, ServeError};
use crate::stats::{ServerStats, WireStats};
use crate::telemetry::{render_prometheus, RequestTrace, Stage};

/// Bound on how long a graceful shutdown keeps draining in-flight requests
/// and unflushed response bytes before force-closing the remaining
/// connections.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

const TOKEN_LISTENER: Token = Token(0);
const TOKEN_WAKER: Token = Token(1);
const TOKEN_METRICS: Token = Token(2);
/// Connection ids start here; `Token(CONN_BASE + id)` addresses connection
/// `id`.
const CONN_BASE: u64 = 3;
/// A scrape whose request head grows past this without a blank line is
/// closed unanswered.
const MAX_SCRAPE_HEAD: usize = 8 * 1024;

/// One wire request in flight through the batching runtime: which
/// connection it came from and the id the client chose for it.
struct PendingWire {
    conn_id: u64,
    client_id: u64,
}

/// The wire counters. The reactor is their single writer; the mutex is
/// only ever contended by a `stats()` call reading them.
type SharedStats = Arc<Mutex<WireStats>>;

fn counters(stats: &Mutex<WireStats>) -> MutexGuard<'_, WireStats> {
    stats.lock().expect("wire stats poisoned")
}

/// A TCP front-end for an [`InferenceServer`], speaking the
/// [`crate::net::frame`] protocol.
///
/// ```
/// use dsstc_serve::net::{WireClient, WireServer};
/// use dsstc_serve::{InferRequest, ModelId, ServeConfig};
/// use dsstc_tensor::{Matrix, SparsityPattern};
/// use std::time::Duration;
///
/// let mut server = WireServer::start(
///     ServeConfig::default()
///         .with_max_queue_wait(Duration::from_millis(1))
///         .with_proxy_dim(32),
/// )
/// .unwrap();
///
/// let mut client = WireClient::connect(server.local_addr()).unwrap();
/// let features = Matrix::random_sparse(2, 32, 0.4, SparsityPattern::Uniform, 7);
/// let response = client.infer(&InferRequest::new(ModelId::RnnLm, features)).unwrap();
/// assert_eq!(response.output.rows(), 2);
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct WireServer {
    server: Option<Arc<InferenceServer>>,
    local_addr: SocketAddr,
    shutdown_flag: Arc<AtomicBool>,
    waker: Arc<Waker>,
    stats: SharedStats,
    event_loop: Option<JoinHandle<()>>,
    metrics_addr: Option<SocketAddr>,
    cluster: Option<Arc<ClusterState>>,
    pinger: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds the listener at `config.listen` (loopback with an
    /// OS-assigned port by default) and the `config.metrics_addr` one,
    /// boots the inference runtime from `config` and spawns the event loop.
    /// Every step that can fail comes first, so on `Err` nothing is left
    /// running and no socket stays bound.
    pub fn start(config: ServeConfig) -> io::Result<WireServer> {
        let listen = config.listen.unwrap_or_else(|| "127.0.0.1:0".parse().expect("literal addr"));
        let max_connections = config.max_connections;
        let max_body_len = config.max_frame_len;
        let max_outbound_bytes = config.max_outbound_bytes;
        let cluster_config = config.cluster.clone();
        let auth_token = config.auth_token.clone();
        let listener = TcpListener::bind(listen)?;
        let metrics = config.metrics_addr.map(TcpListener::bind).transpose()?;
        let poller = Poller::new()?;
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        if let Some(metrics) = &metrics {
            metrics.set_nonblocking(true)?;
            poller.register(metrics.as_raw_fd(), EPOLLIN, TOKEN_METRICS)?;
        }
        let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);
        let local_addr = listener.local_addr()?;
        let metrics_addr = metrics.as_ref().map(TcpListener::local_addr).transpose()?;

        let cluster: Option<Arc<ClusterState>> = cluster_config.as_ref().map(|cluster_config| {
            Arc::new(ClusterState::new(
                cluster_config.node_id,
                ShardMap::from_config(cluster_config, &local_addr.to_string()),
            ))
        });

        let server = Arc::new(InferenceServer::start(config));
        let shutdown_flag = Arc::new(AtomicBool::new(false));
        let stats = SharedStats::default();
        let (completion_tx, completion_rx) = std::sync::mpsc::channel::<InferResponse>();
        let mut state = Reactor {
            poller,
            listener,
            metrics,
            waker: Arc::clone(&waker),
            server: Arc::clone(&server),
            stats: Arc::clone(&stats),
            in_flight: HashMap::new(),
            completion_tx,
            completion_rx,
            shutdown_flag: Arc::clone(&shutdown_flag),
            conns: HashMap::new(),
            next_conn_id: 0,
            max_connections,
            max_body_len,
            max_outbound_bytes,
            scratch: vec![0u8; 64 * 1024],
            local_addr,
            cluster: cluster.clone(),
            auth_token: auth_token.clone(),
        };
        let event_loop = std::thread::Builder::new()
            .name("dsstc-wire-loop".into())
            .spawn(move || state.run())
            .expect("failed to spawn wire event loop");

        // Peer liveness: a plain thread dialling every configured peer each
        // `ping_interval` with the same hello exchange clients use. A peer
        // is declared dead only after `ping_failures` consecutive misses
        // (one dropped packet must not reshuffle the ring) and resurrected
        // on the first success; either transition bumps the map version.
        let pinger = match (&cluster, &cluster_config) {
            (Some(cluster), Some(cluster_config)) if !cluster_config.peers.is_empty() => {
                let cluster = Arc::clone(cluster);
                let peers = cluster_config.peers.clone();
                let interval = cluster_config.ping_interval;
                let threshold = cluster_config.ping_failures;
                let token = auth_token.clone();
                let flag = Arc::clone(&shutdown_flag);
                Some(
                    std::thread::Builder::new()
                        .name("dsstc-wire-pinger".into())
                        .spawn(move || {
                            pinger_loop(&cluster, &peers, interval, threshold, token, &flag)
                        })
                        .expect("failed to spawn peer pinger"),
                )
            }
            _ => None,
        };

        Ok(WireServer {
            server: Some(server),
            local_addr,
            shutdown_flag,
            waker,
            stats,
            event_loop: Some(event_loop),
            metrics_addr,
            cluster,
            pinger,
        })
    }

    /// The node's live cluster state, when [`ServeConfig::with_cluster`]
    /// (see [`crate::ServeConfig`]) was set. Standalone servers return
    /// `None` but still answer hello frames with a single-node map.
    pub fn cluster(&self) -> Option<&Arc<ClusterState>> {
        self.cluster.as_ref()
    }

    /// The bound listen address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics endpoint address, when
    /// [`ServeConfig::metrics_addr`](crate::ServeConfig) was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The inference runtime behind the front-end (for warm-up and
    /// inspection).
    ///
    /// # Panics
    /// Panics after [`WireServer::shutdown`].
    pub fn server(&self) -> &InferenceServer {
        self.server.as_ref().expect("wire server already shut down")
    }

    /// A point-in-time snapshot of the per-connection / per-frame counters.
    pub fn wire_stats(&self) -> WireStats {
        counters(&self.stats).clone()
    }

    /// The runtime's metrics snapshot with the wire counters attached.
    ///
    /// # Panics
    /// Panics after [`WireServer::shutdown`].
    pub fn stats(&self) -> ServerStats {
        wire_snapshot(self.server(), &self.stats, self.cluster.as_ref())
    }

    /// Graceful shutdown: stop accepting, answer and flush everything in
    /// flight (bounded by [`DRAIN_TIMEOUT`]), close the
    /// connections, then shut the inference runtime down. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        self.shutdown_flag.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.pinger.take() {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        if let Some(handle) = self.event_loop.take() {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        if let Some(server) = self.server.take() {
            match Arc::try_unwrap(server) {
                Ok(mut server) => server.shutdown(),
                // Unreachable in practice: every thread-held clone was
                // just joined away.
                Err(shared) => drop(shared),
            }
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The runtime's snapshot with the wire and cluster counters attached —
/// the one builder behind both [`WireServer::stats`] and the
/// `--metrics-addr` scrape.
fn wire_snapshot(
    server: &InferenceServer,
    wire: &Mutex<WireStats>,
    cluster: Option<&Arc<ClusterState>>,
) -> ServerStats {
    let mut stats = server.stats();
    stats.wire = Some(counters(wire).clone());
    stats.cluster = cluster.map(|c| c.snapshot());
    stats
}

/// The peer-liveness thread: probes every configured peer once per
/// `interval`, declaring a peer dead after `threshold` consecutive failures
/// and alive again on the first success. Liveness transitions go through
/// [`ClusterState::set_alive`], which bumps the shard-map version so
/// clients (and the redirect path) reroute.
fn pinger_loop(
    cluster: &ClusterState,
    peers: &[(u16, String)],
    interval: Duration,
    threshold: u32,
    token: Option<String>,
    shutdown_flag: &AtomicBool,
) {
    let mut failures: HashMap<u16, u32> = peers.iter().map(|(id, _)| (*id, 0)).collect();
    loop {
        // Sleep in short slices so a shutdown never waits a full interval.
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline {
            if shutdown_flag.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10).min(interval));
        }
        for (id, addr) in peers {
            if shutdown_flag.load(Ordering::SeqCst) {
                return;
            }
            // Alive = the hello exchange clients use answers with a shard
            // map within `interval`; a refused connect, a timeout, an error
            // frame or garbage is a failed probe.
            let ok = addr
                .parse()
                .ok()
                .and_then(|a| WireClient::connect_timeout(a, interval).ok())
                .is_some_and(|mut client| client.hello(token.as_deref()).is_ok());
            cluster.record_peer_probe(!ok);
            let count = failures.entry(*id).or_insert(0);
            if ok {
                *count = 0;
                cluster.set_alive(*id, true);
            } else {
                *count = count.saturating_add(1);
                if *count >= threshold {
                    cluster.set_alive(*id, false);
                }
            }
        }
    }
}

/// What a connection's input is read into.
enum Inbound {
    /// A wire client's byte stream.
    Frames(FrameDecoder),
    /// A scrape's HTTP request head, up to [`MAX_SCRAPE_HEAD`] bytes.
    ScrapeHead(Vec<u8>),
}

/// Per-connection state owned by the event loop.
struct Connection {
    stream: TcpStream,
    inbound: Inbound,
    /// Encoded response bytes not yet accepted by the socket; `written` is
    /// the already-flushed prefix.
    outbound: Vec<u8>,
    written: usize,
    /// The currently registered epoll interest set.
    interest: u32,
    /// Requests submitted from this connection whose response frame has
    /// not been appended (or dropped) yet.
    in_flight: usize,
    /// Framing is poisoned, the peer sent EOF or a scrape was answered:
    /// read nothing more, flush what is buffered, close once that and
    /// everything in flight is out.
    closing: bool,
    /// The outbound buffer breached `max_outbound_bytes` (the peer stopped
    /// reading): the backlog was dropped and replaced with a final error
    /// frame, and every later response for this connection is dropped on
    /// arrival instead of buffered.
    overflowed: bool,
    /// Cumulative bytes ever appended to `outbound` (survives the buffer
    /// compaction in `append_frame`).
    enqueued_total: u64,
    /// Cumulative bytes ever accepted by the socket.
    flushed_total: u64,
    /// Traces waiting for their response frame to clear the socket, keyed
    /// by the `enqueued_total` watermark at which the frame's last byte
    /// sits. Frames append in order, so the queue stays sorted; once
    /// `flushed_total` passes a mark the trace is stamped
    /// [`Stage::WireFlushed`] and recorded.
    flush_marks: VecDeque<(u64, RequestTrace)>,
    /// A hello frame passed the auth check (always flipped by a hello on
    /// servers without an `auth_token`; requests on servers *with* one are
    /// refused until it is set).
    authenticated: bool,
}

impl Connection {
    fn is_scrape(&self) -> bool {
        matches!(self.inbound, Inbound::ScrapeHead(_))
    }

    fn has_backlog(&self) -> bool {
        self.written < self.outbound.len()
    }

    /// A response is still owed or still buffered: not closable yet.
    fn has_pending(&self) -> bool {
        self.in_flight > 0 || self.has_backlog()
    }

    /// The epoll interest this connection should be registered for right
    /// now. A `closing` connection stops watching for input (the loop
    /// would refuse to read it, and level-triggered readiness would spin),
    /// and `EPOLLOUT` is only armed while a backlog exists (a writable
    /// idle socket is *always* ready).
    fn desired_interest(&self) -> u32 {
        let mut interest = 0;
        if !self.closing {
            interest |= EPOLLIN | EPOLLRDHUP;
        }
        if self.has_backlog() {
            interest |= EPOLLOUT;
        }
        interest
    }
}

/// The event loop: a poller, the listeners, every connection, the
/// in-flight table and the completion channel.
struct Reactor {
    poller: Poller,
    listener: TcpListener,
    /// The `metrics_addr` listener; what it accepts are scrapes.
    metrics: Option<TcpListener>,
    /// The loop's eventfd, which device workers write after sending it a
    /// response.
    waker: Arc<Waker>,
    server: Arc<InferenceServer>,
    stats: SharedStats,
    /// Server-assigned request id → where its response goes. Inserted
    /// after the submit, removed when the response frame is appended.
    in_flight: HashMap<u64, PendingWire>,
    /// Cloned into every submit; the workers' responses come back on
    /// `completion_rx`.
    completion_tx: Sender<InferResponse>,
    completion_rx: Receiver<InferResponse>,
    shutdown_flag: Arc<AtomicBool>,
    conns: HashMap<u64, Connection>,
    next_conn_id: u64,
    max_connections: usize,
    max_body_len: usize,
    max_outbound_bytes: usize,
    scratch: Vec<u8>,
    /// The bound listen address; standalone hello replies advertise it.
    local_addr: SocketAddr,
    /// Shared cluster state (`None` on standalone servers).
    cluster: Option<Arc<ClusterState>>,
    /// When set, hellos must carry this token and requests must follow an
    /// authenticated hello.
    auth_token: Option<String>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut draining = false;
        let mut drain_deadline = Instant::now();
        loop {
            events.clear();
            let timeout = if draining { Some(20) } else { None };
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                // An unusable poller means the front-end cannot continue;
                // the panic surfaces through WireServer::shutdown's join.
                panic!("epoll wait failed: {e}");
            }
            let drained_events = std::mem::take(&mut events);
            for event in &drained_events {
                match event.token {
                    TOKEN_LISTENER | TOKEN_METRICS => {
                        if !draining {
                            self.accept_ready(event.token == TOKEN_METRICS);
                        }
                    }
                    TOKEN_WAKER => self.waker.drain(),
                    Token(t) => self.handle_conn_event(t - CONN_BASE, event),
                }
            }
            events = drained_events;
            self.drain_completions();
            if self.shutdown_flag.load(Ordering::SeqCst) && !draining {
                draining = true;
                drain_deadline = Instant::now() + DRAIN_TIMEOUT;
                // Stop accepting: deregister both listeners. Connected
                // peers keep their sockets until the drain completes.
                let _ = self.poller.deregister(self.listener.as_raw_fd());
                if let Some(metrics) = &self.metrics {
                    let _ = self.poller.deregister(metrics.as_raw_fd());
                }
                // Final read sweep: requests already on the wire when the
                // shutdown was requested may still sit unread in kernel
                // buffers, invisible to the in-flight count. Pull them in
                // now so "drained" really means "everything the clients
                // sent before the shutdown is answered".
                let ids: Vec<u64> = self.conns.keys().copied().collect();
                for id in ids {
                    self.read_ready(id);
                }
            }
            if draining {
                let backlog = self.conns.values().any(Connection::has_backlog);
                if (self.in_flight.is_empty() && !backlog) || Instant::now() >= drain_deadline {
                    break;
                }
            }
        }
        // Close every connection; only a drain that timed out leaves
        // requests in flight, and their responses die with the channel.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
    }

    /// Accepts every pending connection on the wire listener, or on the
    /// metrics one when `scrape`, and adopts each. Wire clients are held to
    /// `max_connections` and counted; scrapes are neither.
    fn accept_ready(&mut self, scrape: bool) {
        loop {
            let listener = if scrape { self.metrics.as_ref() } else { Some(&self.listener) };
            let Some(listener) = listener else { return };
            match listener.accept() {
                Ok((stream, _peer)) if scrape => {
                    let _ = self.adopt(stream, Inbound::ScrapeHead(Vec::new()));
                }
                Ok((stream, _peer)) => {
                    // Accepted minus closed is the wire connections open:
                    // the scrapes in `conns` are not among them.
                    let open = counters(&self.stats).open_connections();
                    let decoder = Inbound::Frames(FrameDecoder::new(self.max_body_len));
                    // Over the limit, the client sees a closed socket.
                    if open >= self.max_connections as u64 || self.adopt(stream, decoder).is_err() {
                        counters(&self.stats).connections_rejected += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Registers an accepted socket with the poller, counts a wire accept
    /// and reads what already arrived.
    fn adopt(&mut self, stream: TcpStream, inbound: Inbound) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let conn_id = self.next_conn_id;
        let token = Token(CONN_BASE + conn_id);
        self.poller.register(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)?;
        self.next_conn_id += 1;
        if matches!(inbound, Inbound::Frames(_)) {
            counters(&self.stats).connections_accepted += 1;
        }
        self.conns.insert(
            conn_id,
            Connection {
                stream,
                inbound,
                outbound: Vec::new(),
                written: 0,
                interest: EPOLLIN | EPOLLRDHUP,
                closing: false,
                overflowed: false,
                in_flight: 0,
                enqueued_total: 0,
                flushed_total: 0,
                flush_marks: VecDeque::new(),
                authenticated: false,
            },
        );
        // Bytes may already be waiting (clients often write immediately
        // after connect): read now instead of waiting a full poll round.
        self.read_ready(conn_id);
        Ok(())
    }

    fn handle_conn_event(&mut self, conn_id: u64, event: &Event) {
        if !self.conns.contains_key(&conn_id) {
            return; // Already closed earlier in this iteration.
        }
        if event.readable() {
            self.read_ready(conn_id);
        }
        if self.conns.contains_key(&conn_id) && event.writable() {
            self.flush_conn(conn_id);
        }
    }

    /// Reads every byte the socket has, feeding the frame decoder and
    /// submitting each complete request (or collecting a scrape's head).
    /// Stops at `WouldBlock`, EOF or a framing error.
    fn read_ready(&mut self, conn_id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&conn_id) else { return };
            if conn.closing {
                // Poisoned framing or half-closed peer: ignore further
                // input; flush_conn retires the connection once drained.
                return;
            }
            let result = conn.stream.read(&mut self.scratch);
            match result {
                Ok(0) => {
                    // Peer finished sending. Keep the connection until every
                    // pipelined response went out, then close.
                    conn.closing = true;
                    if !conn.has_pending() {
                        self.close_conn(conn_id);
                    } else {
                        self.sync_interest(conn_id);
                    }
                    return;
                }
                Ok(n) => match &mut conn.inbound {
                    Inbound::Frames(decoder) => {
                        counters(&self.stats).bytes_received += n as u64;
                        decoder.feed(&self.scratch[..n]);
                        self.decode_ready(conn_id);
                    }
                    Inbound::ScrapeHead(head) => {
                        head.extend_from_slice(&self.scratch[..n]);
                        self.answer_scrape(conn_id);
                    }
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(conn_id);
                    return;
                }
            }
        }
    }

    /// Pulls every complete frame out of the connection's decoder.
    fn decode_ready(&mut self, conn_id: u64) {
        loop {
            let Some(Connection { inbound: Inbound::Frames(decoder), .. }) =
                self.conns.get_mut(&conn_id)
            else {
                return;
            };
            let next = decoder.next_frame();
            match next {
                Ok(Some(Frame::Request(frame))) => {
                    counters(&self.stats).frames_received += 1;
                    if self.auth_token.is_some()
                        && !self.conns.get(&conn_id).is_some_and(|c| c.authenticated)
                    {
                        counters(&self.stats).requests_rejected += 1;
                        self.poison(
                            conn_id,
                            WireStatus::Unauthorized,
                            "authenticate with a hello frame before sending requests",
                        );
                        return;
                    }
                    let mut trace = RequestTrace::new();
                    trace.record(Stage::WireDecoded);
                    self.submit_wire_request(conn_id, frame, trace);
                }
                Ok(Some(Frame::Hello(hello))) => {
                    if self.handle_hello(conn_id, &hello).is_err() {
                        return; // Auth failed: the connection is poisoned.
                    }
                }
                Ok(Some(Frame::Response(_))) => {
                    // Clients must not send response frames.
                    counters(&self.stats).decode_errors += 1;
                    self.poison(conn_id, WireStatus::InvalidRequest, "unexpected response frame");
                    return;
                }
                Ok(Some(Frame::ShardMap(_))) => {
                    // Shard maps only ever flow server → client.
                    counters(&self.stats).decode_errors += 1;
                    self.poison(conn_id, WireStatus::InvalidRequest, "unexpected shard-map frame");
                    return;
                }
                Ok(None) => return,
                Err(error) => {
                    counters(&self.stats).decode_errors += 1;
                    let status = match error {
                        WireError::UnsupportedVersion(_) => WireStatus::UnsupportedVersion,
                        _ => WireStatus::InvalidRequest,
                    };
                    self.poison(conn_id, status, &error.to_string());
                    return;
                }
            }
        }
    }

    /// Answers a scrape once its head is in — a blank line ends it; the
    /// body, none expected from `GET`, is ignored — with the exposition of
    /// the current snapshot, and marks the connection `closing` so the
    /// flush that writes the last byte retires it. A head past
    /// [`MAX_SCRAPE_HEAD`] is closed unanswered.
    fn answer_scrape(&mut self, conn_id: u64) {
        let Some(Connection { inbound: Inbound::ScrapeHead(head), .. }) = self.conns.get(&conn_id)
        else {
            return;
        };
        if head.len() > MAX_SCRAPE_HEAD {
            self.close_conn(conn_id);
            return;
        }
        if !head.windows(4).any(|w| w == b"\r\n\r\n") && !head.windows(2).any(|w| w == b"\n\n") {
            return;
        }
        let snapshot = wire_snapshot(&self.server, &self.stats, self.cluster.as_ref());
        let body = render_prometheus(&snapshot, self.server.telemetry().registry());
        let conn = self.conns.get_mut(&conn_id).expect("looked up above");
        conn.closing = true;
        conn.outbound = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
             charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        self.flush_conn(conn_id);
    }

    /// Answers a hello: checks the auth token (constant-time compare;
    /// mismatch poisons the connection with `Unauthorized` and returns
    /// `Err`), marks the connection authenticated, and replies with the
    /// node's current shard map — a standalone server publishes a
    /// single-node map so cluster-aware clients work against it unchanged.
    fn handle_hello(&mut self, conn_id: u64, hello: &HelloFrame) -> Result<(), ()> {
        if let Some(cluster) = &self.cluster {
            cluster.record_hello();
        }
        if let Some(expected) = &self.auth_token {
            let presented = hello.token.as_deref().unwrap_or("");
            if !constant_time_eq(presented.as_bytes(), expected.as_bytes()) {
                if let Some(cluster) = &self.cluster {
                    cluster.record_auth_failure();
                }
                self.poison(
                    conn_id,
                    WireStatus::Unauthorized,
                    "hello rejected: bad or missing auth token",
                );
                return Err(());
            }
        }
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.authenticated = true;
        }
        let map = match &self.cluster {
            Some(cluster) => cluster.map(),
            None => ShardMap::standalone(self.local_addr.to_string()),
        };
        self.append_frame(conn_id, None, |out| encode_shard_map_into(out, &map));
        self.flush_conn(conn_id);
        Ok(())
    }

    /// Converts one decoded request frame into an [`crate::InferRequest`]
    /// and submits it. Request-level failures answer with an error frame
    /// and leave the connection open.
    fn submit_wire_request(&mut self, conn_id: u64, frame: RequestFrame, trace: RequestTrace) {
        let client_id = frame.id;
        let request = frame.into_request();
        // Cluster routing: a request for a shard this node does not own is
        // answered with a `NotMine` redirect naming the owners (connection
        // stays open — redirects are routing, not errors). Owning it as a
        // non-primary replica serves normally but counts a failover serve.
        if let Some(cluster) = &self.cluster {
            let (owners, version) = cluster.route(shard_hash(&request.key()));
            let me = cluster.node_id();
            if !owners.contains(&me) {
                cluster.record_redirect();
                let map = cluster.map();
                let addrs: Vec<&str> = owners.iter().filter_map(|id| map.addr_of(*id)).collect();
                let message = format!("owners={};version={version}", addrs.join(","));
                self.send_error_frame(conn_id, client_id, WireStatus::NotMine, &message);
                return;
            }
            if owners.first() != Some(&me) {
                cluster.record_failover_serve();
            }
        }
        let wake: Arc<dyn Wake> = self.waker.clone();
        let submitted = self
            .server
            .submit_traced(request, self.completion_tx.clone(), Some(wake), trace)
            .map(|server_id| {
                // The response cannot overtake this insert: only this
                // thread receives it, in `drain_completions`.
                self.in_flight.insert(server_id, PendingWire { conn_id, client_id });
                counters(&self.stats).in_flight = self.in_flight.len() as u64;
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.in_flight += 1;
                }
            });
        if let Err(error) = submitted {
            let status = match &error {
                ServeError::InvalidRequest(_) => WireStatus::InvalidRequest,
                ServeError::ShuttingDown | ServeError::Timeout => WireStatus::ShuttingDown,
                ServeError::ShedLoad { .. } => WireStatus::ShedLoad,
            };
            // Shed requests are load management, not client mistakes: they
            // get their own per-priority counter instead of the rejected one.
            if let ServeError::ShedLoad { priority, .. } = &error {
                counters(&self.stats).count_shed(*priority);
            } else {
                counters(&self.stats).requests_rejected += 1;
            }
            self.send_error_frame(conn_id, client_id, status, &error.to_string());
        }
    }

    /// Encodes an error frame into the connection's outbound buffer.
    fn send_error_frame(
        &mut self,
        conn_id: u64,
        client_id: u64,
        status: WireStatus,
        message: &str,
    ) {
        counters(&self.stats).error_frames_sent += 1;
        self.append_frame(conn_id, None, |out| encode_error_into(out, client_id, status, message));
        self.flush_conn(conn_id);
    }

    /// Framing is broken: answer with a final error frame (under the
    /// reserved [`POISON_ID`], since no request can be blamed), then stop
    /// reading and close once the outbound buffer drains. `closing` is set
    /// **before** the error frame goes out so the flush that writes its
    /// last byte also retires the connection.
    fn poison(&mut self, conn_id: u64, status: WireStatus, message: &str) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.closing = true;
        }
        self.send_error_frame(conn_id, POISON_ID, status, message);
    }

    /// Appends one frame to a connection's outbound buffer — `encode`
    /// serialises it **directly into the buffer**, no intermediate frame
    /// `Vec`. A `trace` rides along as a flush mark and is stamped
    /// [`Stage::WireFlushed`] once the frame's last byte reaches the
    /// socket. Returns whether the frame was buffered, for the caller to
    /// count and flush; a frame for a gone or overflowed connection is
    /// dropped.
    fn append_frame(
        &mut self,
        conn_id: u64,
        trace: Option<RequestTrace>,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        // Completed after its connection went away, or after the peer
        // breached the outbound cap (buffering more would just regrow what
        // was dropped): the bytes are dropped, but the request itself still
        // finished — record its trace without a flush stamp.
        let Some(conn) = self.conns.get_mut(&conn_id).filter(|conn| !conn.overflowed) else {
            if let Some(trace) = trace {
                self.server.telemetry().record_completed(trace);
            }
            return false;
        };
        // Compact the flushed prefix before growing the buffer.
        if conn.written == conn.outbound.len() {
            conn.outbound.clear();
            conn.written = 0;
        } else if conn.written > 4096 {
            conn.outbound.drain(..conn.written);
            conn.written = 0;
        }
        let before = conn.outbound.len();
        encode(&mut conn.outbound);
        conn.enqueued_total += (conn.outbound.len() - before) as u64;
        if let Some(trace) = trace {
            conn.flush_marks.push_back((conn.enqueued_total, trace));
        }
        if conn.outbound.len() - conn.written > self.max_outbound_bytes {
            self.poison_overflowed(conn_id);
            return false;
        }
        true
    }

    /// The connection's unflushed backlog breached the configured cap: the
    /// peer submitted requests but stopped reading responses. Drop the
    /// backlog (its traces are recorded without a flush stamp), replace it
    /// with one final error frame, and poison the connection so it closes
    /// as soon as that frame drains — the server's memory for a slow
    /// reader is bounded by `max_outbound_bytes` plus one error frame.
    fn poison_overflowed(&mut self, conn_id: u64) {
        counters(&self.stats).outbound_overflows += 1;
        counters(&self.stats).error_frames_sent += 1;
        let message = format!(
            "outbound buffer exceeded {} bytes; read your responses",
            self.max_outbound_bytes
        );
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        conn.overflowed = true;
        conn.closing = true;
        conn.outbound.truncate(conn.written);
        // `flushed_total` can never reach the dropped frames' watermarks,
        // so retire their traces here rather than leaving them queued.
        let dropped: Vec<RequestTrace> =
            conn.flush_marks.drain(..).map(|(_, trace)| trace).collect();
        let before = conn.outbound.len();
        encode_error_into(&mut conn.outbound, POISON_ID, WireStatus::ShuttingDown, &message);
        conn.enqueued_total += (conn.outbound.len() - before) as u64;
        for trace in dropped {
            self.server.telemetry().record_completed(trace);
        }
        self.flush_conn(conn_id);
    }

    /// Writes the outbound backlog until the socket blocks; keeps the epoll
    /// interest set in sync with whether a backlog remains, and retires
    /// `closing` connections once everything is out.
    fn flush_conn(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        let mut dead = false;
        let mut sent = 0u64;
        // Held across the writes: a client already holding these bytes must
        // find them counted in its next snapshot.
        let mut stats = (!conn.is_scrape()).then(|| counters(&self.stats));
        while conn.written < conn.outbound.len() {
            let result = conn.stream.write(&conn.outbound[conn.written..]);
            match result {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.written += n;
                    sent += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        conn.flushed_total += sent;
        if let Some(stats) = stats.as_mut() {
            stats.bytes_sent += sent;
        }
        drop(stats);
        while conn.flush_marks.front().is_some_and(|(mark, _)| *mark <= conn.flushed_total) {
            let (_, mut trace) = conn.flush_marks.pop_front().expect("front checked");
            trace.record(Stage::WireFlushed);
            self.server.telemetry().record_completed(trace);
        }
        if dead || (conn.closing && !conn.has_pending()) {
            self.close_conn(conn_id);
            return;
        }
        if !conn.has_backlog() {
            conn.outbound.clear();
            conn.written = 0;
        }
        self.sync_interest(conn_id);
    }

    /// Re-registers the connection's epoll interest if it changed.
    fn sync_interest(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        let wanted = conn.desired_interest();
        if wanted != conn.interest {
            conn.interest = wanted;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.reregister(fd, wanted, Token(CONN_BASE + conn_id));
        }
    }

    /// Moves every response the workers sent back into its connection's
    /// buffer, encoding each frame straight into the outbound bytes.
    fn drain_completions(&mut self) {
        while let Ok(response) = self.completion_rx.try_recv() {
            let PendingWire { conn_id, client_id } = self
                .in_flight
                .remove(&response.id)
                .expect("only this loop's submits answer on its completion channel");
            counters(&self.stats).in_flight = self.in_flight.len() as u64;
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.in_flight -= 1;
            }
            let buffered = self.append_frame(conn_id, Some(response.trace.clone()), |out| {
                encode_response_into(out, client_id, &response)
            });
            if buffered {
                // Counted before the flush: a client holding the response
                // must find it in the next snapshot.
                counters(&self.stats).frames_sent += 1;
            }
            // Also when the frame was dropped: the flush is what retires a
            // `closing` connection whose last owed response this was.
            self.flush_conn(conn_id);
        }
    }

    fn close_conn(&mut self, conn_id: u64) {
        if let Some(conn) = self.conns.remove(&conn_id) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            if !conn.is_scrape() {
                counters(&self.stats).connections_closed += 1;
            }
            // Responses that never cleared the socket still had their
            // request completed: record their traces without a flush stamp.
            for (_, trace) in conn.flush_marks {
                self.server.telemetry().record_completed(trace);
            }
            // The stream drops (and closes) here; in-flight requests from
            // this connection still execute, and `append_frame` drops their
            // responses when they complete (ids are never reused).
        }
    }
}
