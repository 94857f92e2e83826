//! The network front-end: a dependency-free, epoll-based TCP server (and a
//! small blocking client) speaking a length-prefixed, checksummed wire
//! protocol over the serving runtime.
//!
//! * [`frame`] — the codec: `DSRQ` request / `DSRS` response frames,
//!   incremental [`FrameDecoder`], error frames,
//!   versioning. Byte-level spec in `docs/WIRE_PROTOCOL.md`.
//! * `poll` (crate-private) — a minimal mio-style epoll readiness loop
//!   (the syscalls are `crate::sys`'s, against the already-linked C
//!   library; no tokio, no crates).
//! * [`server`] — the [`WireServer`]: one epoll reactor that accepts on
//!   the listener, owns every connection, decodes, submits
//!   through [`crate::InferenceServer::submit_with`], stream responses back
//!   as batches complete; pipelining, connection limits, graceful drain.
//!   The same reactor answers `/metrics` scrapes on the `metrics_addr`
//!   listener.
//! * [`client`] — the blocking [`WireClient`] used by tests, the
//!   `serve_client` example and the `benchmark/` harness, and the
//!   shard-aware [`ClusterClient`] layered on top of it.

pub mod client;
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
