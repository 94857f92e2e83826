//! A small blocking client for the wire protocol, used by the tests, the
//! `serve_client` example and the `benchmark/` harness.
//!
//! One [`WireClient`] wraps one TCP connection. Requests **pipeline**: any
//! number may be sent before the first response is read, and responses
//! arrive in *completion* order (the server batches across connections), so
//! callers correlate by the echoed id. [`WireClient::infer`] is the
//! one-shot convenience doing a single send + receive.
//!
//! [`ClusterClient`] layers shard-aware routing on top: it learns the
//! cluster's [`ShardMap`] from the hello exchange, keeps one [`WireClient`]
//! per node it has talked to, routes every request to its shard's primary,
//! follows `NotMine` redirects with bounded retries and fails over to the
//! next replica when a node dies mid-request (inference is deterministic,
//! so a resend is idempotent).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::cluster::{shard_hash, HashRing, ShardMap};
use crate::net::frame::{
    encode_hello_into, encode_request_into, Frame, FrameDecoder, ResponseBody, ResponseFrame,
    WireError, WireStatus, RESPONSE_HEADROOM,
};
use crate::request::InferRequest;

/// A blocking connection to a [`crate::net::WireServer`].
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    scratch: Vec<u8>,
    /// Reused per [`WireClient::send`]: the request frame is encoded in
    /// place, so steady-state sends allocate nothing.
    encode_buf: Vec<u8>,
    next_id: u64,
    /// Request-side frame bound; the response decoder allows
    /// [`RESPONSE_HEADROOM`] on top (a response to a legal request is that
    /// much larger than the request, never more).
    max_frame_len: usize,
}

impl WireClient {
    /// Connects to `addr`, expecting the server's default
    /// `max_frame_len`. A server configured with a larger bound needs
    /// [`WireClient::with_max_frame_len`] to match, or its largest legal
    /// responses would trip the client's own decoder.
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        Ok(WireClient::over(TcpStream::connect(addr)?))
    }

    /// [`WireClient::connect`] with the connect and every later read and
    /// write bounded by `timeout`: a peer that stops answering fails the
    /// call instead of blocking it (the cluster's liveness probe).
    pub(crate) fn connect_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(WireClient::over(stream))
    }

    fn over(stream: TcpStream) -> WireClient {
        let max_frame_len = crate::config::ServeConfig::default().max_frame_len;
        let _ = stream.set_nodelay(true);
        WireClient {
            stream,
            decoder: FrameDecoder::new(max_frame_len + RESPONSE_HEADROOM),
            scratch: vec![0u8; 64 * 1024],
            encode_buf: Vec::new(),
            next_id: 0,
            max_frame_len,
        }
    }

    /// Matches the client to a server running a non-default
    /// `max_frame_len`. Call right after connecting (it resets the
    /// response decoder, discarding any buffered bytes).
    pub fn with_max_frame_len(mut self, max_frame_len: usize) -> Self {
        self.max_frame_len = max_frame_len;
        self.decoder = FrameDecoder::new(max_frame_len + RESPONSE_HEADROOM);
        self
    }

    /// A second handle on the same connection with its own (empty) decoder
    /// and id counter — the pattern for full-duplex use: one handle sends,
    /// the clone receives, concurrently from two threads. Two handles that
    /// both *read* would split frames between their decoders, and two that
    /// both *send* would duplicate ids; give each clone one direction.
    pub fn try_clone(&self) -> std::io::Result<WireClient> {
        Ok(WireClient {
            stream: self.stream.try_clone()?,
            decoder: FrameDecoder::new(self.max_frame_len + RESPONSE_HEADROOM),
            scratch: vec![0u8; 64 * 1024],
            encode_buf: Vec::new(),
            next_id: 0,
            max_frame_len: self.max_frame_len,
        })
    }

    /// Connects to `addr`, retrying until `timeout` elapses — for drivers
    /// racing a server that is still binding its listener (the CI smoke
    /// starts `serve_demo --listen` and `serve_client` concurrently).
    pub fn connect_retry(addr: SocketAddr, timeout: Duration) -> std::io::Result<WireClient> {
        let deadline = Instant::now() + timeout;
        loop {
            match WireClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Sends one request frame; returns the id the response will echo.
    /// Does not wait for the response — requests pipeline freely. The
    /// frame is encoded straight from the borrowed request into a reused
    /// buffer (no intermediate feature copy).
    pub fn send(&mut self, request: &InferRequest) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        self.encode_buf.clear();
        encode_request_into(&mut self.encode_buf, id, request);
        self.stream.write_all(&self.encode_buf)?;
        Ok(id)
    }

    /// Sends raw bytes verbatim (protocol-violation tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Performs the hello exchange: sends a `HELO` frame (carrying `token`
    /// when the server requires authentication) and blocks for the server's
    /// shard-map reply. A standalone server answers with a single-node map.
    /// An error frame instead — e.g. `Unauthorized` for a bad token —
    /// surfaces as [`WireError::Rejected`].
    ///
    /// Call before pipelining requests (the reply is the next frame read).
    pub fn hello(&mut self, token: Option<&str>) -> Result<ShardMap, WireError> {
        self.encode_buf.clear();
        encode_hello_into(&mut self.encode_buf, token);
        self.stream.write_all(&self.encode_buf)?;
        match self.next_frame()? {
            Frame::ShardMap(frame) => Ok(frame.map),
            Frame::Response(response) => {
                Err(WireError::Rejected { status: response.status, message: response.message })
            }
            Frame::Request(_) | Frame::Hello(_) => {
                Err(WireError::Malformed("unexpected frame kind in hello reply"))
            }
        }
    }

    /// Blocks for the next response frame, in completion order.
    pub fn recv(&mut self) -> Result<ResponseFrame, WireError> {
        match self.next_frame()? {
            Frame::Response(response) => Ok(response),
            Frame::Request(_) => Err(WireError::Malformed("server sent a request frame")),
            Frame::Hello(_) => Err(WireError::Malformed("server sent a hello frame")),
            Frame::ShardMap(_) => Err(WireError::Malformed("unsolicited shard-map frame")),
        }
    }

    /// Blocks for the next frame of any kind; EOF before one is complete
    /// is [`WireError::Truncated`].
    fn next_frame(&mut self) -> Result<Frame, WireError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let n = self.stream.read(&mut self.scratch)?;
            if n == 0 {
                return Err(WireError::Truncated);
            }
            self.decoder.feed(&self.scratch[..n]);
        }
    }

    /// Sends one request and blocks for its served response; an error
    /// frame (any non-`Ok` status) surfaces as [`WireError::Rejected`].
    ///
    /// Only sound on a connection with no other pipelined requests
    /// outstanding (the next arriving response is assumed to be this one).
    pub fn infer(&mut self, request: &InferRequest) -> Result<ResponseBody, WireError> {
        let id = self.send(request)?;
        let response = self.recv()?;
        debug_assert!(
            response.status != WireStatus::Ok || response.id == id,
            "no pipelining inside infer()"
        );
        response.into_body()
    }

    /// Half-closes the write side, telling the server no more requests are
    /// coming; pending responses can still be read.
    pub fn finish_sending(&mut self) -> std::io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

/// How many `NotMine` redirects one [`ClusterClient::infer`] follows
/// before giving up (a stale map converges in one hop; more hops means the
/// cluster is reconfiguring under us and the caller should retry).
pub const MAX_REDIRECTS: usize = 3;

/// A shard-aware client for a cluster of [`crate::net::WireServer`]s.
///
/// Connect with one or more **seed** addresses; the first node that
/// answers the hello exchange supplies the [`ShardMap`]. Every
/// [`ClusterClient::infer`] hashes the request's [`crate::ModelKey`] onto
/// the ring and dials the shard's replica group primary-first, so a
/// client and a server sharing a map version agree on ownership and the
/// common case is zero redirects. Connections are pooled per node and
/// re-opened (with a fresh hello, which also refreshes the map) on demand.
///
/// Failure handling mirrors the server's guarantees:
///
/// * `NotMine` → follow the redirect's `owners=` list, bounded by
///   [`MAX_REDIRECTS`] per request.
/// * An I/O error or truncation mid-request → the node is presumed dead:
///   drop its pooled connection and resend to the next replica (inference
///   is deterministic, so the resend is idempotent).
#[derive(Debug)]
pub struct ClusterClient {
    map: ShardMap,
    ring: HashRing,
    token: Option<String>,
    conns: HashMap<String, WireClient>,
    max_frame_len: usize,
    redirects_followed: u64,
    failovers: u64,
}

impl ClusterClient {
    /// Connects without authentication at the default `max_frame_len`,
    /// trying each seed in order until one completes the hello exchange.
    pub fn connect(seeds: &[SocketAddr]) -> Result<ClusterClient, WireError> {
        let max_frame_len = crate::config::ServeConfig::default().max_frame_len;
        ClusterClient::connect_with(seeds, None, max_frame_len)
    }

    /// [`ClusterClient::connect`] with an auth token and a frame bound
    /// matching a non-default server configuration.
    pub fn connect_with(
        seeds: &[SocketAddr],
        token: Option<&str>,
        max_frame_len: usize,
    ) -> Result<ClusterClient, WireError> {
        let mut last: Option<WireError> = None;
        for seed in seeds {
            let mut client = match WireClient::connect(*seed) {
                Ok(client) => client.with_max_frame_len(max_frame_len),
                Err(e) => {
                    last = Some(WireError::Io(e));
                    continue;
                }
            };
            match client.hello(token) {
                Ok(map) => {
                    let ring = map.ring();
                    let mut conns = HashMap::new();
                    conns.insert(seed.to_string(), client);
                    return Ok(ClusterClient {
                        map,
                        ring,
                        token: token.map(str::to_string),
                        conns,
                        max_frame_len,
                        redirects_followed: 0,
                        failovers: 0,
                    });
                }
                // An auth rejection will repeat at every seed: fail fast.
                Err(WireError::Rejected { status, message }) => {
                    return Err(WireError::Rejected { status, message })
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or(WireError::Malformed("no seed addresses given")))
    }

    /// The shard map the client is currently routing by.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Total `NotMine` redirects followed over the client's lifetime.
    pub fn redirects_followed(&self) -> u64 {
        self.redirects_followed
    }

    /// Total mid-request node failures survived by resending to another
    /// replica.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Adopts `map` if it is newer than the one we route by (every
    /// liveness transition bumps the version, so max-version wins).
    fn adopt_map(&mut self, map: ShardMap) {
        if map.version > self.map.version {
            self.ring = map.ring();
            self.map = map;
        }
    }

    /// The dial-order for `hash`: the replica group's addresses, primary
    /// first, under the current map.
    fn owner_addrs(&self, hash: u64) -> VecDeque<String> {
        self.ring
            .replicas(hash, self.map.replication as usize)
            .iter()
            .filter_map(|id| self.map.addr_of(*id).map(str::to_string))
            .collect()
    }

    /// One attempt against one node, opening (and hello-ing) a pooled
    /// connection if none exists.
    fn infer_on(&mut self, addr: &str, request: &InferRequest) -> Result<ResponseBody, WireError> {
        if !self.conns.contains_key(addr) {
            let sockaddr: SocketAddr =
                addr.parse().map_err(|_| WireError::Malformed("unparseable node address"))?;
            let mut client = WireClient::connect(sockaddr)
                .map_err(WireError::Io)?
                .with_max_frame_len(self.max_frame_len);
            let map = client.hello(self.token.as_deref())?;
            self.adopt_map(map);
            self.conns.insert(addr.to_string(), client);
        }
        self.conns.get_mut(addr).expect("connection just ensured").infer(request)
    }

    /// Re-runs the hello exchange against the first node that answers —
    /// pooled connections first, then every alive address in the current
    /// map — adopting any newer shard map it learns. `true` if some node
    /// answered.
    fn refresh_map(&mut self) -> bool {
        let token = self.token.clone();
        let pooled: Vec<String> = self.conns.keys().cloned().collect();
        for addr in pooled {
            let result = match self.conns.get_mut(&addr) {
                Some(conn) => conn.hello(token.as_deref()),
                None => continue,
            };
            match result {
                Ok(map) => {
                    self.adopt_map(map);
                    return true;
                }
                Err(_) => {
                    self.conns.remove(&addr);
                }
            }
        }
        let candidates: Vec<String> =
            self.map.nodes.iter().filter(|node| node.alive).map(|node| node.addr.clone()).collect();
        for addr in candidates {
            let Ok(sockaddr) = addr.parse::<SocketAddr>() else { continue };
            let Ok(client) = WireClient::connect(sockaddr) else { continue };
            let mut client = client.with_max_frame_len(self.max_frame_len);
            if let Ok(map) = client.hello(token.as_deref()) {
                self.adopt_map(map);
                self.conns.insert(addr, client);
                return true;
            }
        }
        false
    }

    /// Routes one request to its shard's replica group and blocks for the
    /// response, following redirects and failing over across replicas.
    /// If the entire group fails (every replica dead, or the redirect
    /// chain exceeded its bound — both symptoms of a stale map), the map
    /// is refreshed with a fresh hello exchange and the request retried
    /// once under the new routing.
    pub fn infer(&mut self, request: &InferRequest) -> Result<ResponseBody, WireError> {
        match self.infer_routed(request) {
            Err(
                first @ (WireError::Io(_)
                | WireError::Truncated
                | WireError::Rejected { status: WireStatus::NotMine, .. }),
            ) => {
                if self.refresh_map() {
                    self.infer_routed(request)
                } else {
                    Err(first)
                }
            }
            other => other,
        }
    }

    /// One routed attempt under the current map (see [`ClusterClient::infer`]).
    fn infer_routed(&mut self, request: &InferRequest) -> Result<ResponseBody, WireError> {
        let hash = shard_hash(&request.key());
        let mut queue = self.owner_addrs(hash);
        let mut redirects = 0usize;
        let mut last: Option<WireError> = None;
        while let Some(addr) = queue.pop_front() {
            match self.infer_on(&addr, request) {
                Ok(body) => return Ok(body),
                Err(WireError::Rejected { status: WireStatus::NotMine, message }) => {
                    redirects += 1;
                    if redirects > MAX_REDIRECTS {
                        return Err(WireError::Rejected { status: WireStatus::NotMine, message });
                    }
                    self.redirects_followed += 1;
                    for owner in parse_redirect_owners(&message).into_iter().rev() {
                        queue.push_front(owner);
                    }
                }
                // The node died under us: drop its connection and resend
                // to the next replica in the dial-order.
                Err(WireError::Io(e)) => {
                    self.conns.remove(&addr);
                    self.failovers += 1;
                    last = Some(WireError::Io(e));
                }
                Err(WireError::Truncated) => {
                    self.conns.remove(&addr);
                    self.failovers += 1;
                    last = Some(WireError::Truncated);
                }
                Err(other) => return Err(other),
            }
        }
        Err(last.unwrap_or(WireError::Malformed("no reachable replica in the shard's owner group")))
    }
}

/// Pulls the address list out of a `NotMine` redirect message
/// (`owners=<addr>[,<addr>...];version=<v>`). Unparseable messages yield
/// an empty list — the request then falls back to the map's own replicas.
fn parse_redirect_owners(message: &str) -> Vec<String> {
    message
        .strip_prefix("owners=")
        .and_then(|rest| rest.split(';').next())
        .map(|list| list.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::parse_redirect_owners;

    #[test]
    fn redirect_owner_lists_parse_and_tolerate_garbage() {
        assert_eq!(
            parse_redirect_owners("owners=127.0.0.1:7401,127.0.0.1:7402;version=3"),
            vec!["127.0.0.1:7401".to_string(), "127.0.0.1:7402".to_string()],
        );
        assert_eq!(
            parse_redirect_owners("owners=127.0.0.1:7401;version=9"),
            vec!["127.0.0.1:7401".to_string()],
        );
        assert!(parse_redirect_owners("owners=;version=1").is_empty());
        assert!(parse_redirect_owners("not a redirect at all").is_empty());
    }
}
