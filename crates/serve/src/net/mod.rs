//! The network front-end: a dependency-free, epoll-based TCP server (and a
//! small blocking client) speaking a length-prefixed, checksummed wire
//! protocol over the serving runtime.
//!
//! * [`frame`] — the codec: `DSRQ` request / `DSRS` response frames,
//!   incremental [`FrameDecoder`], error frames,
//!   versioning. Byte-level spec in `docs/WIRE_PROTOCOL.md`.
//! * `conn` (crate-private) — one connection's protocol as a machine
//!   without I/O: framing, hello/auth, poison, outbound cap, flush stamps.
//! * `poll` (crate-private) — a minimal mio-style epoll readiness loop
//!   (the syscalls are `crate::sys`'s; no tokio, no crates).
//! * [`server`] — the [`WireServer`]: one epoll reactor, the shell that
//!   accepts, moves bytes between sockets and machines, submits, routes
//!   and drains; it also answers `/metrics` scrapes on `metrics_addr`.
//! * [`client`] — the blocking [`WireClient`] used by tests, the
//!   `serve_client` example and the `benchmark/` harness, and the
//!   shard-aware [`ClusterClient`] layered on top of it.

pub mod client;
pub(crate) mod conn;
pub mod frame;
pub(crate) mod poll;
pub mod server;

pub use client::{ClusterClient, WireClient, MAX_REDIRECTS};
pub use frame::{
    encode_error_into, encode_hello_into, encode_request_into, encode_response_into,
    encode_shard_map_into, Frame, FrameDecoder, HelloFrame, RequestFrame, ResponseBody,
    ResponseFrame, ShardMapFrame, WireError, WireStatus, POISON_ID, WIRE_VERSION,
};
pub use server::{WireServer, DRAIN_TIMEOUT};
