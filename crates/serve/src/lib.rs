//! # dsstc-serve — SLO-aware, multi-device batched inference serving
//!
//! A serving runtime on top of the dual-side sparse Tensor Core stack,
//! turning the one-shot estimates of [`dsstc_kernels`] / `dsstc::inference`
//! into a request-driven system:
//!
//! * [`ModelRepository`] — loads a network from [`dsstc_models`], prunes its
//!   weights and **pre-encodes them once** into the paper's two-level bitmap
//!   format, cached per `(model, sparsity, encoding)` key. The paper encodes
//!   pruned weights offline for exactly this reason: weight sparsity is
//!   static, so per-request re-encoding is pure waste. Encodings are
//!   **device-parameterised** (an [`EncodingSpec`] names the tiling +
//!   operand layouts, derived from each device's
//!   [`dsstc_sim::GpuConfig::native_tiling`]), the in-memory tier is
//!   LRU-bounded by a [`CacheBudget`], and an optional on-disk store
//!   (`encode_cache_dir`) persists artifacts in a versioned, checksummed
//!   binary format so a restarted server skips the prune+encode warm-up
//!   entirely.
//! * [`BatchScheduler`] — accepts [`InferRequest`]s on a queue and merges
//!   compatible requests into larger-M GEMM batches of at most `max_batch`;
//!   an idle worker takes queued work at once, so batches grow with the
//!   backlog. Per-request SLO deadlines order release; within a class,
//!   deadline-expired requests go first, then higher [`Priority`], FIFO
//!   within a priority.
//! * [`DeviceDispatcher`] — prices a batch on each device of a
//!   [`DevicePool`] of (possibly heterogeneous) modelled GPUs — e.g. V100s
//!   next to A100s — via per-device [`BatchTimingModel`]s. An idle device
//!   has no backlog, so the worker that pulls a released batch routes it to
//!   the **cheapest idle device**, keeping it on a tie; routing keeps no
//!   state.
//! * the worker pool — one pinned OS worker per device pulling batches when
//!   idle and executing them on that device's **own** dual-side SpGEMM
//!   kernel against the encoding cached for its tiling, so heterogeneous
//!   devices coexist functionally;
//!   every request receives an [`InferResponse`] carrying its output
//!   features, the encoding it executed and the modelled GPU latency of the
//!   real network at the batch's size.
//! * [`net::WireServer`] — a dependency-free, epoll-based TCP front-end
//!   speaking a length-prefixed, checksummed wire protocol (magic `DSRQ` /
//!   `DSRS`; see `docs/WIRE_PROTOCOL.md`), so real network clients drive
//!   the same submit path: pipelined requests per connection, responses
//!   streamed back as batches complete, error frames, connection limits
//!   and graceful drain. [`net::WireClient`] is the matching blocking
//!   client.
//! * [`PoissonArrivals`] — a seeded open-loop traffic generator for
//!   latency-vs-offered-load measurements (the `benchmark/` harness's
//!   `serve_wire` workload paces its requests with it).
//! * [`ServerStats`] — a snapshot of the server's one [`Telemetry`] hub:
//!   request and batch counts, per-priority queue percentiles (read from
//!   the same histograms `/metrics` renders), the batch-size histogram,
//!   per-device batches and modelled busy time, and the repository's
//!   [`EncodeCacheStats`]. [`render_prometheus`] is its one text
//!   rendering, and renders the hub's histograms beside it.
//!
//! # Quickstart
//!
//! ```
//! use std::time::Duration;
//! use dsstc_serve::{
//!     DevicePool, InferRequest, InferenceServer, ModelId, Priority, ServeConfig,
//! };
//! use dsstc_sim::GpuConfig;
//! use dsstc_tensor::{Matrix, SparsityPattern};
//!
//! let mut server = InferenceServer::start(
//!     ServeConfig::default()
//!         .with_devices(DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()]))
//!         .with_max_batch(4)
//!         .with_max_queue_wait(Duration::from_millis(1))
//!         .with_proxy_dim(32),
//! );
//!
//! // Submit a burst of BERT requests; idle workers take them as they queue
//! // and each batch goes to the cheapest idle device.
//! let pending: Vec<_> = (0..4)
//!     .map(|seed| {
//!         let features = Matrix::random_sparse(2, 32, 0.3, SparsityPattern::Uniform, seed);
//!         let request = InferRequest::new(ModelId::BertBase, features)
//!             .with_priority(if seed == 0 { Priority::High } else { Priority::Normal });
//!         server.submit(request).unwrap()
//!     })
//!     .collect();
//! for p in pending {
//!     let response = p.wait().unwrap();
//!     assert_eq!(response.output.rows(), 2);
//!     assert!(response.modelled_batch_us > 0.0);
//!     assert!(response.device < 2);
//! }
//!
//! // Each idle device's first batch encoded its own tiling; the rest hit.
//! let stats = server.stats();
//! assert_eq!(stats.completed_requests, 4);
//! assert!((1..=2).contains(&stats.encode.misses), "{} encodes", stats.encode.misses);
//! assert_eq!(stats.per_device.len(), 2);
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod batcher;
pub mod cluster;
pub mod config;
pub mod dispatch;
pub mod model;
#[cfg(target_os = "linux")]
pub mod net;
pub mod request;
pub mod server;
pub mod stats;
pub mod store;
#[allow(unsafe_code)]
mod sys;
pub mod telemetry;
pub mod timing;
pub mod traffic;
mod worker;

/// The [`ModelRepository`] unit tests (`store/tests.rs`), under the module
/// path their test ids were recorded with.
#[cfg(test)]
#[path = "store/tests.rs"]
mod repository;

pub use crate::batcher::{BatchPolicy, BatchScheduler};
pub use crate::cluster::{HashRing, NodeEntry, ShardMap};
pub use crate::config::{AdmissionControl, ClusterConfig, DevicePool, ServeConfig};
pub use crate::dispatch::{DeviceAssignment, DeviceDispatcher, DispatchPolicy};
pub use crate::model::{EncodedLayer, EncodedModel};
#[cfg(target_os = "linux")]
pub use crate::net::{ClusterClient, WireClient, WireServer};
pub use crate::request::{InferRequest, InferResponse, ModelId, ModelKey, Priority};
pub use crate::server::{InferenceServer, PendingResponse, ServeError};
pub use crate::stats::{ClusterStats, DeviceStats, PriorityLatency, ServerStats, WireStats};
pub use crate::store::{CacheBudget, EncodeCacheStats, ModelRepository, WarmBootReport};
pub use crate::telemetry::{
    render_prometheus, CacheOutcome, LogHistogram, RequestTrace, Stage, Telemetry, TraceSink,
};
pub use crate::timing::BatchTimingModel;
pub use crate::traffic::PoissonArrivals;
pub use dsstc_kernels::EncodingSpec;
