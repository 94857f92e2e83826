//! Metrics exposition: renders a [`ServerStats`] snapshot plus the live
//! [`MetricsRegistry`] in Prometheus text format, and (on Linux) serves it
//! over HTTP on a dedicated `--metrics-addr` listener built on the same
//! dependency-free epoll loop as the wire front-end
//! (`crate::net::poll`). Metric families and names are catalogued in
//! `docs/OBSERVABILITY.md`.

use crate::request::Priority;
use crate::stats::ServerStats;
use crate::telemetry::families::{Family, Value, CLUSTER, DEVICE, ENCODE_CACHE, SERVER, WIRE};
use crate::telemetry::metrics::{join_labels, type_line, with_labels, MetricsRegistry};

impl Value {
    /// The samples of one family for one labelled item: the extra label
    /// each carries (empty for none) and its rendered value.
    fn samples(&self) -> Vec<(String, String)> {
        match *self {
            Value::Int(v) => vec![(String::new(), v.to_string())],
            Value::Float(v) => {
                vec![(String::new(), format!("{:.3}", if v.is_finite() { v } else { 0.0 }))]
            }
            Value::PerPriority(values) => Priority::ALL
                .iter()
                .zip(values)
                .map(|(p, v)| (format!("priority=\"{}\"", p.name()), v.to_string()))
                .collect(),
        }
    }
}

/// Renders every family of `table` with the samples of every item.
/// `items` pairs each snapshot with its pre-rendered label set (empty for
/// none).
fn render_table<S>(out: &mut String, table: &[Family<S>], items: &[(String, &S)]) {
    for row in table {
        type_line(out, row.name, row.help, row.kind);
        for (labels, item) in items {
            for (extra, value) in (row.get)(item).samples() {
                let labelled = with_labels(row.name, &join_labels(labels, &extra));
                out.push_str(&format!("{labelled} {value}\n"));
            }
        }
    }
}

/// Renders the full exposition payload: the snapshot-derived family tables
/// of `telemetry/families.rs` (server, per-device, encode-cache,
/// wire and cluster) followed by everything registered in `registry` (live
/// counters and the log-bucketed latency histograms — each latency is
/// exposed once, as a histogram family; the snapshot's percentile fields
/// are read from the same histograms and are not rendered a second time).
pub fn render_prometheus(stats: &ServerStats, registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    let unlabelled = [(String::new(), stats)];
    render_table(&mut out, SERVER, &unlabelled);
    let devices: Vec<_> = stats
        .per_device
        .iter()
        .enumerate()
        .map(|(index, d)| (format!("device=\"{index}\",gpu=\"{}\"", d.name), d))
        .collect();
    render_table(&mut out, DEVICE, &devices);
    render_table(&mut out, ENCODE_CACHE, &unlabelled);
    if let Some(wire) = &stats.wire {
        render_table(&mut out, WIRE, &[(String::new(), wire)]);
    }
    if let Some(cluster) = &stats.cluster {
        render_table(&mut out, CLUSTER, &[(format!("node=\"{}\"", cluster.node_id), cluster)]);
    }
    registry.render(&mut out);
    out
}

#[cfg(target_os = "linux")]
pub use self::listener::MetricsServer;

#[cfg(target_os = "linux")]
mod listener {
    //! The `--metrics-addr` scrape listener: a tiny single-threaded
    //! HTTP/1.0 responder on the `crate::net::poll` epoll loop. Every
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
            let mut eof = false;
            loop {
                match conn.stream.read(&mut buffer) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
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
            // from GET) is ignored. A scraper may half-close right behind
            // its request (`nc -N`), so the FIN can arrive in the same read
            // as a complete head: that still gets its answer.
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
            } else if eof {
                return true; // EOF before a full request
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
mod tests {
    use super::*;
    use crate::request::Priority;
    use crate::stats::{ClusterStats, DeviceStats, PriorityLatency, ServerStats, WireStats};

    /// A fully-populated snapshot for the exposition tests.
    fn sample_stats() -> ServerStats {
        ServerStats {
            completed_requests: 120,
            executed_batches: 30,
            mean_batch_size: 4.0,
            max_batch_size: 8,
            batch_histogram: vec![2, 4, 8, 16],
            queue_p50_us: 150.0,
            execute_p50_us: 400.0,
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

    /// The live metrics the exposition tests render next to `sample_stats()`.
    fn sample_registry() -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        registry.counter("dsstc_traces_recorded_total", "", "traces").add(7);
        registry.histogram("dsstc_e2e_us", "priority=\"high\"", "end-to-end latency").record(333);
        registry
    }

    /// The whole payload, byte for byte: family order, `HELP` text, number
    /// formatting and every label set.
    #[test]
    fn exposition_matches_the_checked_in_golden() {
        let text = render_prometheus(&sample_stats(), &sample_registry());
        assert_eq!(text, include_str!("exposition.golden.txt"));
    }

    /// `row` is rendered exactly once: one `# TYPE` line, then one sample
    /// per item (per priority class, for those rows) carrying the value the
    /// row's getter reads.
    fn assert_family_rendered<S>(text: &str, row: &Family<S>, items: &[&S]) {
        let name = row.name;
        let type_line = format!("# TYPE {name} {}\n", row.kind);
        assert_eq!(text.matches(&type_line).count(), 1, "{type_line}");
        let rendered: Vec<&str> = text
            .lines()
            .filter(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with([' ', '{'])))
            .collect();
        let expected: Vec<String> = items
            .iter()
            .flat_map(|item| (row.get)(item).samples())
            .map(|(_, value)| value)
            .collect();
        assert_eq!(rendered.len(), expected.len(), "{name}: {rendered:?}");
        for (line, value) in rendered.iter().zip(&expected) {
            assert!(line.ends_with(&format!(" {value}")), "{line} should read {value}");
        }
    }

    fn assert_table_rendered<S>(text: &str, table: &[Family<S>], items: &[&S]) {
        for row in table {
            assert_family_rendered(text, row, items);
        }
    }

    /// The tables are the contract: every row of every table is in the
    /// payload once, with its type and the getter's value per item.
    #[test]
    fn exposition_covers_every_family() {
        let stats = sample_stats();
        let text = render_prometheus(&stats, &sample_registry());
        assert_table_rendered(&text, SERVER, &[&stats]);
        assert_table_rendered(&text, DEVICE, &stats.per_device.iter().collect::<Vec<_>>());
        assert_table_rendered(&text, ENCODE_CACHE, &[&stats]);
        assert_table_rendered(&text, WIRE, &[stats.wire.as_ref().unwrap()]);
        assert_table_rendered(&text, CLUSTER, &[stats.cluster.as_ref().unwrap()]);
        // Labels name the item each sample came from.
        assert!(text.contains("dsstc_priority_requests_total{priority=\"high\"} 40\n"));
        assert!(text.contains("dsstc_device_batches_total{device=\"0\",gpu=\"Tesla V100\"} 18\n"));
        assert!(text.contains("dsstc_wire_shed_total{priority=\"low\"} 3\n"));
        // The front-end is one reactor: no per-reactor rows beside `WIRE`.
        assert!(!text.contains("dsstc_wire_reactor_"), "{text}");
        assert!(!text.contains("reactor="), "{text}");
        assert!(text.contains("dsstc_cluster_peers_alive{node=\"2\"} 2\n"));
        // Registry-backed live metrics ride along.
        assert!(text.contains("dsstc_traces_recorded_total 7"));
        assert!(text.contains("dsstc_e2e_us_bucket{priority=\"high\",le=\"+Inf\"} 1"));
        assert!(text.contains("dsstc_e2e_us_count{priority=\"high\"} 1"));
        // Every family announces its type exactly once.
        for line in text.lines().filter(|l| l.starts_with("# TYPE")) {
            assert_eq!(text.matches(line).count(), 1, "duplicate {line}");
        }
    }

    /// `docs/OBSERVABILITY.md`'s family table has one row per exported
    /// family — snapshot tables and hub registry alike — and none for a
    /// family the scrape no longer carries.
    #[test]
    fn observability_doc_lists_exactly_the_exported_families() {
        let doc = include_str!("../../../../docs/OBSERVABILITY.md");
        let text =
            render_prometheus(&sample_stats(), crate::telemetry::Telemetry::new().registry());
        let exported: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|rest| rest.split(' ').next().expect("family name"))
            .collect();
        let documented: Vec<&str> = doc
            .lines()
            .filter_map(|l| l.strip_prefix("| `dsstc_"))
            .map(|rest| &rest[..rest.find('`').expect("closing backtick")])
            .collect();
        for family in &exported {
            let row = family.strip_prefix("dsstc_").expect("every family is prefixed");
            assert_eq!(documented.iter().filter(|d| *d == &row).count(), 1, "{family} rows");
        }
        assert_eq!(documented.len(), exported.len(), "a documented family is not exported");
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

    /// The scrape of a quiescent server reads what its `stats()` reads:
    /// after a mixed-priority burst is fully answered, every snapshot-table
    /// sample equals its row's getter on a second snapshot.
    #[test]
    fn quiescent_server_scrape_equals_its_stats() {
        use crate::{InferRequest, InferenceServer, ModelId, ServeConfig};
        use dsstc_tensor::{Matrix, SparsityPattern};
        let server = InferenceServer::start(
            ServeConfig::default()
                .with_workers(2)
                .with_max_batch(4)
                .with_max_queue_wait(std::time::Duration::from_millis(1))
                .with_proxy_dim(32),
        );
        let pending: Vec<_> = (0..12u64)
            .map(|i| {
                let features = Matrix::random_sparse(2, 32, 0.4, SparsityPattern::Uniform, i);
                let model = if i % 2 == 0 { ModelId::RnnLm } else { ModelId::BertBase };
                let request = InferRequest::new(model, features)
                    .with_priority(Priority::ALL[i as usize % Priority::ALL.len()]);
                server.submit(request).expect("queued")
            })
            .collect();
        for p in pending {
            p.wait().expect("served");
        }
        let text = render_prometheus(&server.stats(), server.telemetry().registry());
        let stats = server.stats();
        assert_table_rendered(&text, SERVER, &[&stats]);
        assert_table_rendered(&text, DEVICE, &stats.per_device.iter().collect::<Vec<_>>());
        assert_table_rendered(&text, ENCODE_CACHE, &[&stats]);
        // The burst itself: four requests per class, two models encoded once.
        assert!(text.contains("dsstc_requests_completed_total 12\n"), "{text}");
        for p in Priority::ALL {
            let line = format!("dsstc_priority_requests_total{{priority=\"{}\"}} 4\n", p.name());
            assert!(text.contains(&line), "{line}{text}");
        }
        assert!(text.contains("dsstc_encode_cache_fresh_encodes_total 2\n"), "{text}");
    }

    #[test]
    fn exposition_without_wire_omits_wire_families() {
        let mut stats = sample_stats();
        stats.wire = None;
        stats.cluster = None;
        let text = render_prometheus(&stats, &MetricsRegistry::new());
        assert!(!text.contains("dsstc_wire_"));
        assert!(!text.contains("dsstc_cluster_"));
        assert!(text.contains("dsstc_requests_completed_total 120"));
    }

    #[test]
    fn non_finite_gauges_render_as_zero() {
        let mut stats = sample_stats();
        stats.per_device[1].modelled_busy_us = f64::NAN;
        stats.timing_hit_rate = f64::INFINITY;
        let text = render_prometheus(&stats, &MetricsRegistry::new());
        assert!(
            text.contains("dsstc_device_modelled_busy_us_total{device=\"1\",gpu=\"A100\"} 0.000")
        );
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
        // The listener closed with the thread: nothing accepts on the port.
        assert!(std::net::TcpStream::connect(addr).is_err());
    }

    /// A scraper that half-closes right behind its request (`nc -N`) can
    /// have its FIN read together with the complete head; it is still owed
    /// the payload.
    #[cfg(target_os = "linux")]
    #[test]
    fn half_closing_scraper_still_gets_an_answer() {
        use std::io::{Read, Write};
        use std::sync::Arc;

        let source: super::listener::MetricsSource = Arc::new(|| "dsstc_up 1\n".to_string());
        let mut server =
            MetricsServer::start("127.0.0.1:0".parse().unwrap(), source).expect("bind metrics");
        for round in 0..50 {
            let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
            stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send request");
            stream.shutdown(std::net::Shutdown::Write).expect("half-close");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read response");
            assert!(response.ends_with("\r\n\r\ndsstc_up 1\n"), "round {round}: {response:?}");
        }
        // A half-close before the head is complete is still just dropped.
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(b"GET /metrics HTTP/1.0\r\n").expect("send partial request");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read EOF");
        assert_eq!(response, "");
        server.shutdown();
    }
}
