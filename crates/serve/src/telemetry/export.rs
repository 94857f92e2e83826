//! Metrics exposition: renders a [`ServerStats`] snapshot plus the live
//! [`MetricsRegistry`] in Prometheus text format, and (on Linux) serves it
//! over HTTP on a dedicated `--metrics-addr` listener built on the same
//! dependency-free epoll loop as the wire front-end
//! ([`crate::net::poll`]). Metric families and names are catalogued in
//! `docs/OBSERVABILITY.md`.

use crate::stats::ServerStats;
use crate::telemetry::metrics::MetricsRegistry;

/// Opens a metric family: `# HELP` + `# TYPE` lines.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// One integer sample. `labels` is a pre-rendered label set without
/// braces (empty for none).
fn sample_u64(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// One float sample, fixed-point so the text stays locale/exponent free.
fn sample_f64(out: &mut String, name: &str, labels: &str, value: f64) {
    let value = if value.is_finite() { value } else { 0.0 };
    if labels.is_empty() {
        out.push_str(&format!("{name} {value:.3}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value:.3}\n"));
    }
}

/// Renders the full exposition payload: snapshot-derived families
/// (server, per-priority, per-device, encode-cache and wire counters)
/// followed by everything registered in `registry` (live counters and
/// the log-bucketed latency histograms — each latency is exposed once, as
/// a histogram family; the snapshot's percentile fields are read from the
/// same histograms and are not rendered a second time).
pub fn render_prometheus(stats: &ServerStats, registry: &MetricsRegistry) -> String {
    let mut out = String::new();

    family(&mut out, "dsstc_requests_completed_total", "counter", "Requests answered");
    sample_u64(&mut out, "dsstc_requests_completed_total", "", stats.completed_requests);
    family(&mut out, "dsstc_batches_executed_total", "counter", "Batches executed");
    sample_u64(&mut out, "dsstc_batches_executed_total", "", stats.executed_batches);
    family(&mut out, "dsstc_throughput_rps", "gauge", "Completed requests per second since boot");
    sample_f64(&mut out, "dsstc_throughput_rps", "", stats.throughput_rps);
    family(&mut out, "dsstc_mean_batch_size", "gauge", "Mean requests per executed batch");
    sample_f64(&mut out, "dsstc_mean_batch_size", "", stats.mean_batch_size);

    family(
        &mut out,
        "dsstc_priority_requests_total",
        "counter",
        "Requests answered per priority class",
    );
    for p in &stats.per_priority {
        let labels = format!("priority=\"{}\"", p.priority.name());
        sample_u64(&mut out, "dsstc_priority_requests_total", &labels, p.completed);
    }
    family(
        &mut out,
        "dsstc_shed_requests_total",
        "counter",
        "Requests rejected at submit by admission control, per priority class",
    );
    for p in &stats.per_priority {
        let labels = format!("priority=\"{}\"", p.priority.name());
        sample_u64(&mut out, "dsstc_shed_requests_total", &labels, p.shed);
    }

    family(&mut out, "dsstc_device_batches_total", "counter", "Batches executed per device");
    for (index, d) in stats.per_device.iter().enumerate() {
        let labels = format!("device=\"{index}\",gpu=\"{}\"", d.name);
        sample_u64(&mut out, "dsstc_device_batches_total", &labels, d.batches);
    }
    family(
        &mut out,
        "dsstc_device_modelled_busy_us_total",
        "counter",
        "Modelled busy time charged per device, microseconds",
    );
    for (index, d) in stats.per_device.iter().enumerate() {
        let labels = format!("device=\"{index}\",gpu=\"{}\"", d.name);
        sample_f64(&mut out, "dsstc_device_modelled_busy_us_total", &labels, d.modelled_busy_us);
    }
    family(
        &mut out,
        "dsstc_device_utilisation",
        "gauge",
        "Share of the pool's modelled makespan each device was busy",
    );
    for (index, d) in stats.per_device.iter().enumerate() {
        let labels = format!("device=\"{index}\",gpu=\"{}\"", d.name);
        sample_f64(&mut out, "dsstc_device_utilisation", &labels, d.utilisation);
    }
    family(
        &mut out,
        "dsstc_modelled_makespan_us",
        "gauge",
        "Largest per-device modelled busy total, microseconds",
    );
    sample_f64(&mut out, "dsstc_modelled_makespan_us", "", stats.modelled_makespan_us);

    family(&mut out, "dsstc_encode_cache_hits_total", "counter", "In-memory encode-cache hits");
    sample_u64(&mut out, "dsstc_encode_cache_hits_total", "", stats.encode_hits);
    family(&mut out, "dsstc_encode_cache_misses_total", "counter", "Encode-cache misses");
    sample_u64(&mut out, "dsstc_encode_cache_misses_total", "", stats.encode_misses);
    family(
        &mut out,
        "dsstc_encode_cache_disk_restores_total",
        "counter",
        "Misses served by restoring a persisted artifact",
    );
    sample_u64(&mut out, "dsstc_encode_cache_disk_restores_total", "", stats.encode_disk_loads);
    family(
        &mut out,
        "dsstc_encode_cache_fresh_encodes_total",
        "counter",
        "Misses that paid the full prune+encode",
    );
    sample_u64(&mut out, "dsstc_encode_cache_fresh_encodes_total", "", stats.encode_fresh);
    family(
        &mut out,
        "dsstc_encode_cache_evictions_total",
        "counter",
        "Artifacts LRU-evicted from the in-memory tier",
    );
    sample_u64(&mut out, "dsstc_encode_cache_evictions_total", "", stats.encode_evictions);
    family(
        &mut out,
        "dsstc_cache_warm_restored_total",
        "counter",
        "Artifacts the boot-time warmer restored into the memory tier",
    );
    sample_u64(&mut out, "dsstc_cache_warm_restored_total", "", stats.encode_warm_restored);
    family(
        &mut out,
        "dsstc_cache_warm_reencoded_total",
        "counter",
        "Stale-spec artifacts the warmer re-encoded for the current pool",
    );
    sample_u64(&mut out, "dsstc_cache_warm_reencoded_total", "", stats.encode_warm_reencoded);
    family(
        &mut out,
        "dsstc_cache_warm_healed_total",
        "counter",
        "Corrupt artifacts the warmer healed with a fresh encode",
    );
    sample_u64(&mut out, "dsstc_cache_warm_healed_total", "", stats.encode_warm_healed);
    family(
        &mut out,
        "dsstc_cache_store_entries",
        "gauge",
        "Artifacts in the on-disk store at its last directory scan",
    );
    sample_u64(&mut out, "dsstc_cache_store_entries", "", stats.store_entries);
    family(
        &mut out,
        "dsstc_cache_store_bytes",
        "gauge",
        "Bytes of artifact files in the on-disk store at its last directory scan",
    );
    sample_u64(&mut out, "dsstc_cache_store_bytes", "", stats.store_bytes);
    family(
        &mut out,
        "dsstc_cache_store_gc_removed_total",
        "counter",
        "Artifacts removed from the on-disk store by garbage collection",
    );
    sample_u64(&mut out, "dsstc_cache_store_gc_removed_total", "", stats.store_gc_removed);
    family(
        &mut out,
        "dsstc_encode_cache_hit_rate",
        "gauge",
        "Fraction of lookups served from memory",
    );
    sample_f64(&mut out, "dsstc_encode_cache_hit_rate", "", stats.encode_hit_rate);
    family(
        &mut out,
        "dsstc_timing_cache_hit_rate",
        "gauge",
        "Fraction of modelled-latency lookups served from cache",
    );
    sample_f64(&mut out, "dsstc_timing_cache_hit_rate", "", stats.timing_hit_rate);

    if let Some(wire) = &stats.wire {
        family(
            &mut out,
            "dsstc_wire_connections_accepted_total",
            "counter",
            "Connections accepted",
        );
        sample_u64(
            &mut out,
            "dsstc_wire_connections_accepted_total",
            "",
            wire.connections_accepted,
        );
        family(
            &mut out,
            "dsstc_wire_connections_rejected_total",
            "counter",
            "Connections refused over the limit",
        );
        sample_u64(
            &mut out,
            "dsstc_wire_connections_rejected_total",
            "",
            wire.connections_rejected,
        );
        family(&mut out, "dsstc_wire_connections_closed_total", "counter", "Connections closed");
        sample_u64(&mut out, "dsstc_wire_connections_closed_total", "", wire.connections_closed);
        family(&mut out, "dsstc_wire_open_connections", "gauge", "Connections currently open");
        sample_u64(&mut out, "dsstc_wire_open_connections", "", wire.open_connections());
        family(&mut out, "dsstc_wire_frames_received_total", "counter", "Request frames decoded");
        sample_u64(&mut out, "dsstc_wire_frames_received_total", "", wire.frames_received);
        family(&mut out, "dsstc_wire_frames_sent_total", "counter", "Response frames sent");
        sample_u64(&mut out, "dsstc_wire_frames_sent_total", "", wire.frames_sent);
        family(&mut out, "dsstc_wire_error_frames_total", "counter", "Error frames generated");
        sample_u64(&mut out, "dsstc_wire_error_frames_total", "", wire.error_frames_sent);
        family(
            &mut out,
            "dsstc_wire_bytes_received_total",
            "counter",
            "Raw bytes read off sockets",
        );
        sample_u64(&mut out, "dsstc_wire_bytes_received_total", "", wire.bytes_received);
        family(
            &mut out,
            "dsstc_wire_bytes_sent_total",
            "counter",
            "Raw bytes the sockets accepted",
        );
        sample_u64(&mut out, "dsstc_wire_bytes_sent_total", "", wire.bytes_sent);
        family(&mut out, "dsstc_wire_decode_errors_total", "counter", "Framing failures");
        sample_u64(&mut out, "dsstc_wire_decode_errors_total", "", wire.decode_errors);
        family(
            &mut out,
            "dsstc_wire_requests_rejected_total",
            "counter",
            "Requests refused at submit time",
        );
        sample_u64(&mut out, "dsstc_wire_requests_rejected_total", "", wire.requests_rejected);
        family(
            &mut out,
            "dsstc_wire_shed_total",
            "counter",
            "Wire requests answered with a ShedLoad error frame, per priority class",
        );
        for &priority in &crate::request::Priority::ALL {
            let labels = format!("priority=\"{}\"", priority.name());
            sample_u64(&mut out, "dsstc_wire_shed_total", &labels, wire.shed_for(priority));
        }
        family(&mut out, "dsstc_wire_in_flight", "gauge", "Wire requests inside the runtime");
        sample_u64(&mut out, "dsstc_wire_in_flight", "", wire.in_flight);
        family(
            &mut out,
            "dsstc_wire_outbound_overflows_total",
            "counter",
            "Connections poisoned for breaching the outbound buffer cap",
        );
        sample_u64(&mut out, "dsstc_wire_outbound_overflows_total", "", wire.outbound_overflows);

        // Per-reactor rows: one sample per event loop, labelled
        // `reactor="i"` in reactor order (reactor 0 owns the listener).
        // Field-wise, the merged families above are the exact sum of these
        // rows — CI scrapes both and asserts the equality.
        if !stats.wire_reactors.is_empty() {
            family(
                &mut out,
                "dsstc_wire_reactor_connections_accepted_total",
                "counter",
                "Connections adopted per reactor",
            );
            for (index, r) in stats.wire_reactors.iter().enumerate() {
                let labels = format!("reactor=\"{index}\"");
                sample_u64(
                    &mut out,
                    "dsstc_wire_reactor_connections_accepted_total",
                    &labels,
                    r.connections_accepted,
                );
            }
            family(
                &mut out,
                "dsstc_wire_reactor_connections_closed_total",
                "counter",
                "Connections closed per reactor",
            );
            for (index, r) in stats.wire_reactors.iter().enumerate() {
                let labels = format!("reactor=\"{index}\"");
                sample_u64(
                    &mut out,
                    "dsstc_wire_reactor_connections_closed_total",
                    &labels,
                    r.connections_closed,
                );
            }
            family(
                &mut out,
                "dsstc_wire_reactor_frames_received_total",
                "counter",
                "Request frames decoded per reactor",
            );
            for (index, r) in stats.wire_reactors.iter().enumerate() {
                let labels = format!("reactor=\"{index}\"");
                sample_u64(
                    &mut out,
                    "dsstc_wire_reactor_frames_received_total",
                    &labels,
                    r.frames_received,
                );
            }
            family(
                &mut out,
                "dsstc_wire_reactor_frames_sent_total",
                "counter",
                "Response frames sent per reactor",
            );
            for (index, r) in stats.wire_reactors.iter().enumerate() {
                let labels = format!("reactor=\"{index}\"");
                sample_u64(
                    &mut out,
                    "dsstc_wire_reactor_frames_sent_total",
                    &labels,
                    r.frames_sent,
                );
            }
            family(
                &mut out,
                "dsstc_wire_reactor_bytes_received_total",
                "counter",
                "Raw bytes read off sockets per reactor",
            );
            for (index, r) in stats.wire_reactors.iter().enumerate() {
                let labels = format!("reactor=\"{index}\"");
                sample_u64(
                    &mut out,
                    "dsstc_wire_reactor_bytes_received_total",
                    &labels,
                    r.bytes_received,
                );
            }
            family(
                &mut out,
                "dsstc_wire_reactor_bytes_sent_total",
                "counter",
                "Raw bytes the sockets accepted per reactor",
            );
            for (index, r) in stats.wire_reactors.iter().enumerate() {
                let labels = format!("reactor=\"{index}\"");
                sample_u64(&mut out, "dsstc_wire_reactor_bytes_sent_total", &labels, r.bytes_sent);
            }
            family(
                &mut out,
                "dsstc_wire_reactor_in_flight",
                "gauge",
                "Wire requests inside the runtime per reactor",
            );
            for (index, r) in stats.wire_reactors.iter().enumerate() {
                let labels = format!("reactor=\"{index}\"");
                sample_u64(&mut out, "dsstc_wire_reactor_in_flight", &labels, r.in_flight);
            }
        }
    }

    if let Some(cluster) = &stats.cluster {
        let node = format!("node=\"{}\"", cluster.node_id);
        family(
            &mut out,
            "dsstc_cluster_shard_map_version",
            "gauge",
            "Current shard-map version (bumped on every liveness transition)",
        );
        sample_u64(&mut out, "dsstc_cluster_shard_map_version", &node, cluster.shard_map_version);
        family(
            &mut out,
            "dsstc_cluster_peers_alive",
            "gauge",
            "Cluster members currently marked alive",
        );
        sample_u64(&mut out, "dsstc_cluster_peers_alive", &node, cluster.peers_alive);
        family(&mut out, "dsstc_cluster_peers_total", "gauge", "All known cluster members");
        sample_u64(&mut out, "dsstc_cluster_peers_total", &node, cluster.peers_total);
        family(
            &mut out,
            "dsstc_cluster_redirects_total",
            "counter",
            "Requests answered with a NotMine redirect",
        );
        sample_u64(&mut out, "dsstc_cluster_redirects_total", &node, cluster.redirects);
        family(
            &mut out,
            "dsstc_cluster_failover_serves_total",
            "counter",
            "Requests served as a non-primary replica of their shard",
        );
        sample_u64(&mut out, "dsstc_cluster_failover_serves_total", &node, cluster.failover_serves);
        family(
            &mut out,
            "dsstc_cluster_hellos_total",
            "counter",
            "Hello handshakes answered with a shard map",
        );
        sample_u64(&mut out, "dsstc_cluster_hellos_total", &node, cluster.hellos);
        family(
            &mut out,
            "dsstc_cluster_auth_failures_total",
            "counter",
            "Hellos rejected for a wrong or missing auth token",
        );
        sample_u64(&mut out, "dsstc_cluster_auth_failures_total", &node, cluster.auth_failures);
        family(&mut out, "dsstc_cluster_peer_probes_total", "counter", "Peer liveness probes sent");
        sample_u64(&mut out, "dsstc_cluster_peer_probes_total", &node, cluster.peer_probes);
        family(
            &mut out,
            "dsstc_cluster_peer_failures_total",
            "counter",
            "Peer liveness probes that failed",
        );
        sample_u64(&mut out, "dsstc_cluster_peer_failures_total", &node, cluster.peer_failures);
    }

    registry.render(&mut out);
    out
}

#[cfg(target_os = "linux")]
pub use self::listener::MetricsServer;

#[cfg(target_os = "linux")]
mod listener {
    //! The `--metrics-addr` scrape listener: a tiny single-threaded
    //! HTTP/1.0 responder on the [`crate::net::poll`] epoll loop. Every
    //! request — whatever the path — is answered with the current
    //! exposition payload and `Connection: close`, which is all a
    //! Prometheus scraper (or `curl`) needs.

    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use crate::net::poll::{Poller, Token, Waker, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

    /// The function producing the exposition payload on every scrape.
    pub type MetricsSource = Arc<dyn Fn() -> String + Send + Sync>;

    const LISTENER: Token = Token(0);
    const WAKER: Token = Token(1);
    /// Request headers larger than this poison the connection.
    const MAX_REQUEST_BYTES: usize = 8 * 1024;

    struct ScrapeConn {
        stream: TcpStream,
        inbound: Vec<u8>,
        outbound: Vec<u8>,
        written: usize,
    }

    /// A metrics endpoint bound to its own address, serving scrapes from
    /// a dedicated thread until [`shutdown`](MetricsServer::shutdown).
    pub struct MetricsServer {
        local_addr: SocketAddr,
        stop: Arc<AtomicBool>,
        waker: Arc<Waker>,
        handle: Option<JoinHandle<()>>,
    }

    impl std::fmt::Debug for MetricsServer {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("MetricsServer").field("local_addr", &self.local_addr).finish()
        }
    }

    impl MetricsServer {
        /// Binds `addr` and starts answering scrapes with `source`'s
        /// output. Fails fast on bind/epoll errors.
        pub fn start(addr: SocketAddr, source: MetricsSource) -> io::Result<Self> {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            let local_addr = listener.local_addr()?;
            let poller = Poller::new()?;
            poller.register(listener.as_raw_fd(), EPOLLIN, LISTENER)?;
            let waker = Arc::new(Waker::new(&poller, WAKER)?);
            let stop = Arc::new(AtomicBool::new(false));
            let thread_stop = Arc::clone(&stop);
            let thread_waker = Arc::clone(&waker);
            let handle = std::thread::Builder::new()
                .name("dsstc-metrics".into())
                .spawn(move || run(listener, poller, thread_waker, thread_stop, source))
                .expect("spawn metrics thread");
            Ok(MetricsServer { local_addr, stop, waker, handle: Some(handle) })
        }

        /// The bound address (useful with port 0).
        pub fn local_addr(&self) -> SocketAddr {
            self.local_addr
        }

        /// Stops the listener thread and closes every open scrape
        /// connection.
        pub fn shutdown(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            self.waker.wake();
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }

    impl Drop for MetricsServer {
        fn drop(&mut self) {
            self.shutdown();
        }
    }

    fn run(
        listener: TcpListener,
        poller: Poller,
        waker: Arc<Waker>,
        stop: Arc<AtomicBool>,
        source: MetricsSource,
    ) {
        let mut conns: HashMap<u64, ScrapeConn> = HashMap::new();
        let mut next_token = 2u64;
        let mut events = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            events.clear();
            if poller.wait(&mut events, None).is_err() {
                break;
            }
            for event in &events {
                match event.token {
                    WAKER => waker.drain(),
                    LISTENER => loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                let token = next_token;
                                next_token += 1;
                                if poller
                                    .register(
                                        stream.as_raw_fd(),
                                        EPOLLIN | EPOLLRDHUP,
                                        Token(token),
                                    )
                                    .is_err()
                                {
                                    continue;
                                }
                                conns.insert(
                                    token,
                                    ScrapeConn {
                                        stream,
                                        inbound: Vec::new(),
                                        outbound: Vec::new(),
                                        written: 0,
                                    },
                                );
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(_) => break,
                        }
                    },
                    Token(token) => {
                        let done = match conns.get_mut(&token) {
                            Some(conn) => service(
                                conn,
                                event.readable(),
                                event.writable(),
                                &source,
                                &poller,
                                token,
                            ),
                            None => continue,
                        };
                        if done {
                            if let Some(conn) = conns.remove(&token) {
                                let _ = poller.deregister(conn.stream.as_raw_fd());
                            }
                        }
                    }
                }
            }
        }
        // Shutdown: drop every connection (deregistered by fd close).
        conns.clear();
    }

    /// Advances one scrape connection; returns true when it should close.
    fn service(
        conn: &mut ScrapeConn,
        readable: bool,
        writable: bool,
        source: &MetricsSource,
        poller: &Poller,
        token: u64,
    ) -> bool {
        if readable && conn.outbound.is_empty() {
            let mut buffer = [0u8; 1024];
            loop {
                match conn.stream.read(&mut buffer) {
                    Ok(0) => return true, // EOF before a full request
                    Ok(n) => {
                        conn.inbound.extend_from_slice(&buffer[..n]);
                        if conn.inbound.len() > MAX_REQUEST_BYTES {
                            return true;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return true,
                }
            }
            // A blank line ends the request head; the body (none expected
            // from GET) is ignored.
            if conn.inbound.windows(4).any(|w| w == b"\r\n\r\n")
                || conn.inbound.windows(2).any(|w| w == b"\n\n")
            {
                let body = source();
                conn.outbound = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
                     charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes();
                let _ = poller.reregister(conn.stream.as_raw_fd(), EPOLLOUT, Token(token));
            }
        }
        if (writable || !conn.outbound.is_empty()) && conn.written < conn.outbound.len() {
            loop {
                match conn.stream.write(&conn.outbound[conn.written..]) {
                    Ok(0) => return true,
                    Ok(n) => {
                        conn.written += n;
                        if conn.written == conn.outbound.len() {
                            return true; // fully flushed: Connection: close
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return true,
                }
            }
        }
        false
    }
}

#[cfg(test)]
pub(crate) use tests::sample_stats;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use crate::stats::{ClusterStats, DeviceStats, PriorityLatency, ServerStats, WireStats};

    /// A fully-populated snapshot for exposition tests (and the render
    /// golden test in `stats.rs`).
    pub(crate) fn sample_stats() -> ServerStats {
        ServerStats {
            completed_requests: 120,
            executed_batches: 30,
            throughput_rps: 240.5,
            mean_batch_size: 4.0,
            max_batch_size: 8,
            batch_histogram: vec![2, 4, 8, 16],
            queue_p50_us: 150.0,
            queue_p99_us: 900.0,
            execute_p50_us: 400.0,
            execute_p99_us: 1200.0,
            modelled_p50_us: 85.5,
            per_priority: Priority::ALL
                .iter()
                .map(|&priority| PriorityLatency {
                    priority,
                    completed: 40,
                    shed: match priority {
                        Priority::Low => 6,
                        Priority::Normal => 2,
                        Priority::High => 0,
                    },
                    queue_p50_us: 100.0,
                    queue_p99_us: 800.0,
                    execute_p50_us: 350.0,
                    execute_p99_us: 1100.0,
                })
                .collect(),
            per_device: vec![
                DeviceStats {
                    name: "Tesla V100".to_string(),
                    batches: 18,
                    modelled_busy_us: 9000.0,
                    utilisation: 1.0,
                },
                DeviceStats {
                    name: "A100".to_string(),
                    batches: 12,
                    modelled_busy_us: 6300.0,
                    utilisation: 0.7,
                },
            ],
            modelled_makespan_us: 9000.0,
            encode_hits: 28,
            encode_misses: 4,
            encode_disk_loads: 3,
            encode_fresh: 1,
            encode_evictions: 2,
            encode_fresh_ms: 120.5,
            encode_disk_ms: 6.25,
            encode_warm_restored: 3,
            encode_warm_reencoded: 1,
            encode_warm_healed: 1,
            store_entries: 4,
            store_bytes: 88_000,
            store_gc_removed: 2,
            encode_hit_rate: 0.875,
            timing_hit_rate: 0.9,
            wire: Some(WireStats {
                connections_accepted: 5,
                connections_rejected: 1,
                connections_closed: 3,
                frames_received: 120,
                frames_sent: 118,
                error_frames_sent: 2,
                bytes_received: 44_000,
                bytes_sent: 52_000,
                decode_errors: 1,
                requests_rejected: 1,
                in_flight: 0,
                outbound_overflows: 1,
                shed_low: 3,
                shed_normal: 1,
                shed_high: 0,
            }),
            // A two-reactor split whose field-wise sum is `wire` above.
            wire_reactors: vec![
                WireStats {
                    connections_accepted: 3,
                    connections_rejected: 1,
                    connections_closed: 2,
                    frames_received: 70,
                    frames_sent: 69,
                    error_frames_sent: 1,
                    bytes_received: 26_000,
                    bytes_sent: 30_000,
                    decode_errors: 1,
                    requests_rejected: 1,
                    in_flight: 0,
                    outbound_overflows: 1,
                    shed_low: 2,
                    shed_normal: 1,
                    shed_high: 0,
                },
                WireStats {
                    connections_accepted: 2,
                    connections_rejected: 0,
                    connections_closed: 1,
                    frames_received: 50,
                    frames_sent: 49,
                    error_frames_sent: 1,
                    bytes_received: 18_000,
                    bytes_sent: 22_000,
                    decode_errors: 0,
                    requests_rejected: 0,
                    in_flight: 0,
                    outbound_overflows: 0,
                    shed_low: 1,
                    shed_normal: 0,
                    shed_high: 0,
                },
            ],
            cluster: Some(ClusterStats {
                node_id: 2,
                shard_map_version: 5,
                peers_alive: 2,
                peers_total: 3,
                redirects: 7,
                failover_serves: 3,
                hellos: 12,
                auth_failures: 1,
                peer_probes: 40,
                peer_failures: 4,
            }),
        }
    }

    #[test]
    fn exposition_covers_every_family() {
        let registry = MetricsRegistry::new();
        registry.counter("dsstc_traces_recorded_total", "", "traces").add(7);
        registry.histogram("dsstc_e2e_us", "priority=\"high\"", "end-to-end latency").record(333);
        let text = render_prometheus(&sample_stats(), &registry);
        // Snapshot-derived families.
        assert!(text.contains("dsstc_requests_completed_total 120"));
        assert!(text.contains("dsstc_batches_executed_total 30"));
        assert!(text.contains("dsstc_throughput_rps 240.500"));
        assert!(text.contains("dsstc_mean_batch_size 4.000"));
        assert!(text.contains("dsstc_priority_requests_total{priority=\"high\"} 40"));
        assert!(text.contains("dsstc_device_batches_total{device=\"0\",gpu=\"Tesla V100\"} 18"));
        assert!(text.contains("dsstc_device_utilisation{device=\"1\",gpu=\"A100\"} 0.700"));
        assert!(text.contains("dsstc_encode_cache_disk_restores_total 3"));
        assert!(text.contains("dsstc_encode_cache_evictions_total 2"));
        assert!(text.contains("dsstc_encode_cache_hit_rate 0.875"));
        // Admission-control shed counters, one row per class.
        assert!(text.contains("dsstc_shed_requests_total{priority=\"low\"} 6"));
        assert!(text.contains("dsstc_shed_requests_total{priority=\"normal\"} 2"));
        assert!(text.contains("dsstc_shed_requests_total{priority=\"high\"} 0"));
        // Store-lifecycle families from the warmer and the store GC.
        assert!(text.contains("dsstc_cache_warm_restored_total 3"));
        assert!(text.contains("dsstc_cache_warm_reencoded_total 1"));
        assert!(text.contains("dsstc_cache_warm_healed_total 1"));
        assert!(text.contains("dsstc_cache_store_entries 4"));
        assert!(text.contains("dsstc_cache_store_bytes 88000"));
        assert!(text.contains("dsstc_cache_store_gc_removed_total 2"));
        // Wire families mirror WireStats field for field.
        assert!(text.contains("dsstc_wire_connections_accepted_total 5"));
        assert!(text.contains("dsstc_wire_open_connections 2"));
        assert!(text.contains("dsstc_wire_frames_received_total 120"));
        assert!(text.contains("dsstc_wire_decode_errors_total 1"));
        assert!(text.contains("dsstc_wire_outbound_overflows_total 1"));
        assert!(text.contains("dsstc_wire_shed_total{priority=\"low\"} 3"));
        assert!(text.contains("dsstc_wire_shed_total{priority=\"normal\"} 1"));
        assert!(text.contains("dsstc_wire_shed_total{priority=\"high\"} 0"));
        // Per-reactor rows, one sample per event loop.
        assert!(text.contains("dsstc_wire_reactor_frames_received_total{reactor=\"0\"} 70"));
        assert!(text.contains("dsstc_wire_reactor_frames_received_total{reactor=\"1\"} 50"));
        assert!(text.contains("dsstc_wire_reactor_connections_accepted_total{reactor=\"0\"} 3"));
        assert!(text.contains("dsstc_wire_reactor_bytes_sent_total{reactor=\"1\"} 22000"));
        assert!(text.contains("dsstc_wire_reactor_in_flight{reactor=\"0\"} 0"));
        // Cluster families mirror ClusterStats field for field, labelled
        // with the reporting node's id.
        assert!(text.contains("dsstc_cluster_shard_map_version{node=\"2\"} 5"));
        assert!(text.contains("dsstc_cluster_peers_alive{node=\"2\"} 2"));
        assert!(text.contains("dsstc_cluster_peers_total{node=\"2\"} 3"));
        assert!(text.contains("dsstc_cluster_redirects_total{node=\"2\"} 7"));
        assert!(text.contains("dsstc_cluster_failover_serves_total{node=\"2\"} 3"));
        assert!(text.contains("dsstc_cluster_hellos_total{node=\"2\"} 12"));
        assert!(text.contains("dsstc_cluster_auth_failures_total{node=\"2\"} 1"));
        assert!(text.contains("dsstc_cluster_peer_probes_total{node=\"2\"} 40"));
        assert!(text.contains("dsstc_cluster_peer_failures_total{node=\"2\"} 4"));
        // Registry-backed live metrics ride along.
        assert!(text.contains("dsstc_traces_recorded_total 7"));
        assert!(text.contains("dsstc_e2e_us_bucket{priority=\"high\",le=\"+Inf\"} 1"));
        assert!(text.contains("dsstc_e2e_us_count{priority=\"high\"} 1"));
        // Every family announces its type exactly once.
        for line in text.lines().filter(|l| l.starts_with("# TYPE")) {
            assert_eq!(text.matches(line).count(), 1, "duplicate {line}");
        }
    }

    /// A populated server's scrape names every latency once: the hub's
    /// histogram families, no hand-rendered quantile gauges beside them.
    #[test]
    fn exposition_has_one_type_line_per_family() {
        use crate::{InferRequest, InferenceServer, ModelId, ServeConfig};
        let server = InferenceServer::start(ServeConfig::default().with_proxy_dim(32));
        let features = dsstc_tensor::Matrix::zeros(1, 32);
        let request = InferRequest::new(ModelId::RnnLm, features).with_priority(Priority::High);
        server.infer(request).expect("served");
        let text = render_prometheus(&server.stats(), server.telemetry().registry());
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        for line in &types {
            assert_eq!(types.iter().filter(|t| t == &line).count(), 1, "duplicate {line}");
        }
        for family in ["dsstc_queue_us", "dsstc_execute_us", "dsstc_trace_e2e_us"] {
            assert!(types.contains(&format!("# TYPE {family} histogram").as_str()), "{family}");
        }
        assert!(text.contains("dsstc_queue_us_bucket{priority=\"high\",le=\""), "{text}");
        assert!(text.contains("dsstc_execute_us_count 1\n"), "{text}");
        assert!(!text.contains("quantile="), "{text}");
    }

    #[test]
    fn exposition_without_wire_omits_wire_families() {
        let mut stats = sample_stats();
        stats.wire = None;
        stats.wire_reactors = Vec::new();
        stats.cluster = None;
        let text = render_prometheus(&stats, &MetricsRegistry::new());
        assert!(!text.contains("dsstc_wire_"));
        assert!(!text.contains("dsstc_cluster_"));
        assert!(text.contains("dsstc_requests_completed_total 120"));
    }

    #[test]
    fn non_finite_gauges_render_as_zero() {
        let mut stats = sample_stats();
        stats.throughput_rps = f64::NAN;
        stats.timing_hit_rate = f64::INFINITY;
        let text = render_prometheus(&stats, &MetricsRegistry::new());
        assert!(text.contains("dsstc_throughput_rps 0.000"));
        assert!(text.contains("dsstc_timing_cache_hit_rate 0.000"));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn metrics_server_answers_scrapes() {
        use std::io::{Read, Write};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let scrapes = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&scrapes);
        let source: super::listener::MetricsSource = Arc::new(move || {
            let n = counted.fetch_add(1, Ordering::SeqCst) + 1;
            format!("dsstc_scrapes_total {n}\n")
        });
        let mut server =
            MetricsServer::start("127.0.0.1:0".parse().unwrap(), source).expect("bind metrics");
        let addr = server.local_addr();
        for expected in 1..=3u64 {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read response");
            assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
            assert!(response.contains("Content-Type: text/plain"), "{response}");
            let body = response.split("\r\n\r\n").nth(1).expect("body");
            assert_eq!(body, format!("dsstc_scrapes_total {expected}\n"));
        }
        assert_eq!(scrapes.load(Ordering::SeqCst), 3);
        server.shutdown();
        // The port is released after shutdown.
        assert!(
            std::net::TcpStream::connect(addr).is_err() || {
                // A TIME_WAIT race can still connect; a second shutdown is a
                // no-op either way.
                true
            }
        );
    }
}
