//! The non-blocking TCP front-end: a [`WireServer`] owns an
//! [`InferenceServer`] and exposes it to network clients speaking the
//! length-prefixed frame protocol of [`crate::net::frame`].
//!
//! # Architecture
//!
//! The front-end is **one reactor**: one thread next to the serving
//! runtime's device workers, running a level-triggered epoll readiness loop
//! (`crate::net::poll`) over the listener, the `metrics_addr` listener when
//! one is configured, and every socket either accepts. The reactor is the
//! **shell** around one I/O-free machine per connection (`crate::net::conn`).
//!
//! * **The machine** decides everything `docs/WIRE_PROTOCOL.md` says about
//!   one connection: it decodes frames, checks hellos and auth, poisons a
//!   stream whose framing is lost, encodes every frame **directly into** its
//!   outbound bytes, caps them against a slow reader, stamps
//!   [`Stage::WireFlushed`] as a frame's last byte is written, and says
//!   when the connection is done.
//!   A connection accepted on the metrics listener is a machine that reads
//!   an HTTP request head and answers with [`render_prometheus`] (any path,
//!   HTTP/1.0, `Connection: close`); scrapes move no [`WireStats`] counter
//!   and take no `max_connections` slot.
//! * **The shell** accepts, moves bytes between each socket and its
//!   machine, acts on each decoded input — cluster routing (`NotMine`), a
//!   submit through the path in-process callers use, a hello's shard map, a
//!   scrape's exposition — records finished traces, keeps epoll interest in
//!   step and closes what is done. A device worker sends each
//!   [`crate::InferResponse`] down the loop's completion channel and wakes
//!   its `eventfd` `Waker`; the loop maps it back to its connection and
//!   client id through an in-flight table only this thread touches.
//!
//! Shutdown is graceful: both listeners are deregistered first, then the
//! loop keeps serving until every in-flight request has been answered and
//! every outbound byte written (bounded by [`DRAIN_TIMEOUT`]), and only then
//! is the inference runtime itself shut down.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::batcher::Wake;
use crate::cluster::{shard_hash, ClusterState, ShardMap};
use crate::config::ServeConfig;
use crate::net::client::WireClient;
use crate::net::conn::{drained, Conn, Input};
use crate::net::frame::WireStatus;
use crate::net::poll::{Event, Poller, Token, Waker, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::request::InferResponse;
use crate::server::InferenceServer;
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

        let server = Arc::new(InferenceServer::start(config));
        let config = server.config();
        let cluster: Option<Arc<ClusterState>> = config.cluster.as_ref().map(|cluster_config| {
            Arc::new(ClusterState::new(
                cluster_config.node_id,
                ShardMap::from_config(cluster_config, &local_addr.to_string()),
            ))
        });
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
            sockets: HashMap::new(),
            next_conn_id: 0,
            scratch: vec![0u8; 64 * 1024],
            local_addr,
            cluster: cluster.clone(),
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
        let pinger = match (&cluster, &config.cluster) {
            (Some(cluster), Some(cluster_config)) if !cluster_config.peers.is_empty() => {
                let cluster = Arc::clone(cluster);
                let peers = cluster_config.peers.clone();
                let interval = cluster_config.ping_interval;
                let threshold = cluster_config.ping_failures;
                let token = config.auth_token.clone();
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
            handle.thread().unpark();
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
/// clients (and the redirect path) reroute. Between rounds it parks;
/// [`WireServer::shutdown`] unparks it after setting the flag.
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
        // A park can end early (an unpark, or spuriously): park again until
        // the interval is over, unless the flag is set.
        let deadline = Instant::now() + interval;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            if shutdown_flag.load(Ordering::SeqCst) {
                return;
            }
            std::thread::park_timeout(left);
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

/// An accepted socket and the protocol machine behind it.
struct Socket {
    stream: TcpStream,
    /// The currently registered epoll interest set.
    interest: u32,
    conn: Conn,
}

/// The epoll interest a connection needs: input only while its machine
/// reads (level-triggered readiness on a socket nobody reads would spin),
/// and `EPOLLOUT` only while bytes wait (an idle writable socket is always
/// ready).
fn interest(conn: &Conn) -> u32 {
    let read = if conn.reading() { EPOLLIN | EPOLLRDHUP } else { 0 };
    read | if conn.unwritten().is_empty() { 0 } else { EPOLLOUT }
}

/// The event loop: a poller, the listeners, every socket and its machine,
/// the in-flight table and the completion channel.
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
    /// after the submit, removed when the completion arrives.
    in_flight: HashMap<u64, PendingWire>,
    /// Cloned into every submit; the workers' responses come back on
    /// `completion_rx`.
    completion_tx: Sender<InferResponse>,
    completion_rx: Receiver<InferResponse>,
    shutdown_flag: Arc<AtomicBool>,
    sockets: HashMap<u64, Socket>,
    next_conn_id: u64,
    scratch: Vec<u8>,
    /// The bound listen address; standalone hello replies advertise it.
    local_addr: SocketAddr,
    /// Shared cluster state (`None` on standalone servers).
    cluster: Option<Arc<ClusterState>>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        // The drain's deadline, once a shutdown began.
        let mut drain: Option<Instant> = None;
        loop {
            events.clear();
            let timeout = drain.map(|_| 20);
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                // An unusable poller means the front-end cannot continue;
                // the panic surfaces through WireServer::shutdown's join.
                panic!("epoll wait failed: {e}");
            }
            for event in &events {
                match event.token {
                    TOKEN_LISTENER | TOKEN_METRICS if drain.is_none() => {
                        self.accept_ready(event.token == TOKEN_METRICS);
                    }
                    TOKEN_LISTENER | TOKEN_METRICS => {}
                    TOKEN_WAKER => self.waker.drain(),
                    // A read also writes what its inputs queued.
                    Token(t) if event.readable() => self.read_ready(t - CONN_BASE),
                    Token(t) => self.settle(t - CONN_BASE),
                }
            }
            self.drain_completions();
            if drain.is_none() && self.shutdown_flag.load(Ordering::SeqCst) {
                drain = Some(Instant::now() + DRAIN_TIMEOUT);
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
                let ids: Vec<u64> = self.sockets.keys().copied().collect();
                for id in ids {
                    self.read_ready(id);
                }
            }
            let conns = self.sockets.values().map(|socket| &socket.conn);
            if drain.is_some_and(|d| drained(Instant::now(), d, self.in_flight.len(), conns)) {
                break;
            }
        }
        // Close every connection; only a drain that timed out leaves
        // requests in flight, and their responses die with the channel.
        let ids: Vec<u64> = self.sockets.keys().copied().collect();
        for id in ids {
            self.close(id);
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
                    let _ = self.adopt(stream, Conn::default());
                }
                Ok((stream, _peer)) => {
                    // Accepted minus closed is the wire connections open:
                    // the scrapes in `sockets` are not among them.
                    let open = counters(&self.stats).open_connections();
                    let config = self.server.config();
                    let full = open >= config.max_connections as u64;
                    // Over the limit, the client sees a closed socket.
                    if full || self.adopt(stream, Conn::wire(config)).is_err() {
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
    fn adopt(&mut self, stream: TcpStream, conn: Conn) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let id = self.next_conn_id;
        let interest = EPOLLIN | EPOLLRDHUP;
        self.poller.register(stream.as_raw_fd(), interest, Token(CONN_BASE + id))?;
        self.next_conn_id += 1;
        if !conn.is_scrape() {
            counters(&self.stats).connections_accepted += 1;
        }
        self.sockets.insert(id, Socket { stream, interest, conn });
        // Bytes may already be waiting (clients often write immediately
        // after connect): read now instead of waiting a full poll round.
        self.read_ready(id);
        Ok(())
    }

    /// Reads every byte the socket has into its machine and acts on each
    /// input they complete, until the socket would block or the machine
    /// stops reading; then writes what was queued.
    fn read_ready(&mut self, id: u64) {
        while let Some(socket) = self.sockets.get_mut(&id).filter(|s| s.conn.reading()) {
            match socket.stream.read(&mut self.scratch) {
                Ok(0) => socket.conn.on_eof(),
                Ok(n) => {
                    socket.conn.on_bytes(&self.scratch[..n], &mut counters(&self.stats));
                    self.serve_inputs(id);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.close(id),
            }
            break;
        }
        self.settle(id);
    }

    /// Acts on every input the connection's machine has decoded.
    fn serve_inputs(&mut self, id: u64) {
        let Reactor {
            sockets,
            server,
            waker,
            stats,
            in_flight,
            completion_tx,
            cluster,
            local_addr,
            ..
        } = self;
        let Some(Socket { conn, .. }) = sockets.get_mut(&id) else { return };
        loop {
            // The counters' guard is dropped at the end of this statement
            // (a `while let` would hold it across the body, where they are
            // locked again).
            let Some(input) = conn.next_input(&mut counters(stats)) else { return };
            match input {
                Input::Request(frame) => {
                    let mut trace = RequestTrace::new();
                    trace.record(Stage::WireDecoded);
                    let client_id = frame.id;
                    let request = frame.into_request();
                    // Cluster routing: a request for a shard this node does
                    // not own is answered with a `NotMine` redirect naming
                    // the owners (the connection stays open: redirects are
                    // routing, not errors). Owning it as a non-primary
                    // replica serves normally but counts a failover serve.
                    if let Some(cluster) = cluster {
                        let (owners, version) = cluster.route(shard_hash(&request.key()));
                        let me = cluster.node_id();
                        if !owners.contains(&me) {
                            cluster.record_redirect();
                            let map = cluster.map();
                            let addrs: Vec<&str> =
                                owners.iter().filter_map(|id| map.addr_of(*id)).collect();
                            let message = format!("owners={};version={version}", addrs.join(","));
                            let status = WireStatus::NotMine;
                            conn.send_error(client_id, status, &message, &mut counters(stats));
                            continue;
                        }
                        if owners.first() != Some(&me) {
                            cluster.record_failover_serve();
                        }
                    }
                    let wake: Arc<dyn Wake> = waker.clone();
                    let outcome = server
                        .submit_traced(request, completion_tx.clone(), Some(wake), trace)
                        .map(|server_id| {
                            // The response cannot overtake this insert: only
                            // this thread receives it, in `drain_completions`.
                            in_flight.insert(server_id, PendingWire { conn_id: id, client_id });
                            counters(stats).in_flight = in_flight.len() as u64;
                        });
                    conn.on_submitted(client_id, outcome, &mut counters(stats));
                }
                Input::Hello { accepted } => {
                    if let Some(cluster) = cluster {
                        cluster.record_hello();
                        if !accepted {
                            cluster.record_auth_failure();
                        }
                    }
                    if accepted {
                        // A standalone server publishes a single-node map so
                        // cluster-aware clients work against it unchanged.
                        let map = match cluster {
                            Some(cluster) => cluster.map(),
                            None => ShardMap::standalone(local_addr.to_string()),
                        };
                        conn.send_shard_map(&map, &mut counters(stats));
                    }
                }
                Input::Scrape => {
                    let snapshot = wire_snapshot(server, stats, cluster.as_ref());
                    conn.send_scrape(&render_prometheus(&snapshot, server.telemetry()));
                }
            }
        }
    }

    /// Writes the machine's queued bytes until the socket blocks, records
    /// the traces that finished, then closes the connection if its machine
    /// is done, or keeps the epoll interest in step with it.
    fn settle(&mut self, id: u64) {
        let Some(socket) = self.sockets.get_mut(&id) else { return };
        // Held across the writes: a client already holding these bytes must
        // find them counted in its next snapshot.
        let mut stats = counters(&self.stats);
        let dead = loop {
            if socket.conn.unwritten().is_empty() {
                break false;
            }
            match socket.stream.write(socket.conn.unwritten()) {
                Ok(0) => break true,
                Ok(n) => socket.conn.on_written(n, &mut stats),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        drop(stats);
        for trace in socket.conn.finished() {
            self.server.telemetry().record_completed(trace);
        }
        if dead || socket.conn.done() {
            return self.close(id);
        }
        let wanted = interest(&socket.conn);
        if wanted != socket.interest {
            socket.interest = wanted;
            let fd = socket.stream.as_raw_fd();
            let _ = self.poller.reregister(fd, wanted, Token(CONN_BASE + id));
        }
    }

    /// Hands every response the workers sent back to its connection's
    /// machine, then writes it.
    fn drain_completions(&mut self) {
        while let Ok(response) = self.completion_rx.try_recv() {
            let PendingWire { conn_id, client_id } = self
                .in_flight
                .remove(&response.id)
                .expect("only this loop's submits answer on its completion channel");
            counters(&self.stats).in_flight = self.in_flight.len() as u64;
            match self.sockets.get_mut(&conn_id) {
                Some(socket) => {
                    socket.conn.on_completion(client_id, response, &mut counters(&self.stats));
                    self.settle(conn_id);
                }
                // Completed after its connection closed (ids are never
                // reused): the bytes have nowhere to go, but the request
                // finished.
                None => self.server.telemetry().record_completed(response.trace),
            }
        }
    }

    fn close(&mut self, id: u64) {
        if let Some(mut socket) = self.sockets.remove(&id) {
            let _ = self.poller.deregister(socket.stream.as_raw_fd());
            if !socket.conn.is_scrape() {
                counters(&self.stats).connections_closed += 1;
            }
            socket.conn.on_close();
            for trace in socket.conn.finished() {
                self.server.telemetry().record_completed(trace);
            }
            // The stream drops (and closes) here; in-flight requests from
            // this connection still execute, and `drain_completions`
            // records their traces when they complete.
        }
    }
}
