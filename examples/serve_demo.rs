//! Serving demo: mixed-priority ResNet-50 / BERT traffic through the
//! SLO-aware, multi-device inference server with a pre-encoded model
//! repository.
//!
//! 120 requests (one in three high priority) are submitted in one burst,
//! dynamically batched per model with priority-aware extraction, dispatched
//! onto a heterogeneous V100 + A100 device pool by modelled completion
//! time, executed by pinned worker threads on the dual-side SpGEMM kernel,
//! and answered with output features plus the modelled device latency of
//! the real network at each batch's size. The run ends with the server's
//! metrics as its `/metrics` exposition renders them (sample lines only:
//! no `# HELP` / `# TYPE` comments, no histogram buckets): request counts
//! per priority, per-device batches and modelled busy time, the
//! encode-cache counters (one encode per model, everything after is a
//! hit) and each latency histogram's `_sum` / `_count`.
//!
//! Run with `cargo run --release -p dsstc --example serve_demo`. Pass
//! `--encode-cache-dir DIR` to persist encoded weights across runs (the
//! server walks the store at boot and restores every artifact into the
//! memory tier, so a second run starts warm), and `--expect-warm` to
//! additionally assert the run was a pure warm start — the boot warmer
//! restored artifacts and zero fresh encodes were paid, so even the first
//! request hit the cache (the CI warm-start smoke runs the demo twice this
//! way). With a cache directory the demo prints the `dsstc_cache_*` lines
//! at boot, before any traffic: what the warmer restored and what GC
//! removed. `--store-budget-bytes N` caps the on-disk store: warm boot GCs
//! least-recently-restored artifacts until the store fits (the CI GC
//! negative case doctors an oversized store this way and asserts it
//! shrinks).
//!
//! Pass `--listen ADDR` to serve over TCP instead of driving in-process
//! traffic: the demo boots the wire front-end, warms the catalogue, prints
//! the bound address, serves until `--wire-requests N` (default 48)
//! responses have gone out, prints the exposition (wire families
//! included), then drains gracefully and asserts the wire counters. Watch
//! a live server through `--metrics-addr`. `examples/serve_client.rs` is
//! the matching driver; the CI wire smoke runs the two against each other.
//!
//! Cluster knobs (see `docs/CLUSTER.md`): `--cluster-node ID` joins the
//! listener to a consistent-hash serving cluster, `--cluster-peer ID=ADDR`
//! (repeatable) names the other members, `--cluster-replication N` sizes
//! each shard's replica group, and `--auth-token TOKEN` requires clients to
//! present the shared secret in their `HELO` frame. The CI cluster smoke
//! boots three of these on loopback and kills one under load.
//!
//! Observability knobs (see `docs/OBSERVABILITY.md`): `--trace-out PATH`
//! streams one chrome-trace JSON line per completed request, and
//! `--metrics-addr ADDR` (with `--listen`) binds a Prometheus-text scrape
//! endpoint next to the wire listener, served by the same event loop.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

use dsstc::serve::{
    render_prometheus, CacheBudget, ClusterConfig, DevicePool, InferRequest, InferenceServer,
    ModelId, Priority, ServeConfig, ServerStats, Telemetry,
};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

const USAGE: &str = "usage: serve_demo [--encode-cache-dir DIR] [--expect-warm] \
[--store-budget-bytes N] [--trace-out PATH] \
[--listen ADDR [--wire-requests N] [--metrics-addr ADDR] \
[--auth-token TOKEN] [--cluster-node ID] [--cluster-peer ID=ADDR]... \
[--cluster-replication N]]";

fn usage_error(message: &str) -> ! {
    eprintln!("serve_demo: {message}\n{USAGE}");
    std::process::exit(2);
}

/// Prints the sample lines of the server's `/metrics` exposition whose
/// family name starts with `prefix`, skipping the `# HELP` / `# TYPE`
/// comments and the histograms' `_bucket` rows.
fn print_scrape(stats: &ServerStats, telemetry: &Telemetry, prefix: &str) {
    for line in render_prometheus(stats, telemetry).lines() {
        let name = line.split(['{', ' ']).next().unwrap_or_default();
        if name.starts_with(prefix) && !name.ends_with("_bucket") {
            println!("{line}");
        }
    }
    println!();
}

/// `--listen` mode: expose the pool over TCP, serve `wire_requests`
/// responses, drain and report. (The epoll front-end is Linux-only;
/// `--listen` is rejected elsewhere.)
#[cfg(target_os = "linux")]
fn run_listen(config: ServeConfig, wire_requests: u64) {
    use dsstc::serve::net::WireServer;
    let mut server = WireServer::start(config).expect("bind listen address");
    for model in [ModelId::ResNet50, ModelId::BertBase] {
        let encode_ms = server.server().warm_model(model, None);
        println!("warmed {model}: encoded weights obtained in {encode_ms:.1} ms");
    }
    if let Some(addr) = server.metrics_addr() {
        println!("metrics on http://{addr}/metrics");
    }
    // The line clients (and the CI smoke) wait for before connecting.
    println!("listening on {}", server.local_addr());
    loop {
        let wire = server.wire_stats();
        if wire.frames_sent + wire.error_frames_sent >= wire_requests {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = server.stats();
    print_scrape(&stats, server.server().telemetry(), "dsstc_");
    let wire = stats.wire.clone().expect("wire counters attached");
    server.shutdown();
    assert!(wire.frames_received >= wire_requests, "expected {wire_requests} request frames");
    assert_eq!(wire.decode_errors, 0, "clean clients must not trip framing errors");
    assert!(wire.connections_accepted >= 1, "at least one client connected");
    println!(
        "ok: served {} wire responses to {} connections ({} B in, {} B out)",
        wire.frames_sent, wire.connections_accepted, wire.bytes_received, wire.bytes_sent
    );
}

fn main() {
    const REQUESTS: u64 = 120;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut encode_cache_dir: Option<PathBuf> = None;
    let mut expect_warm = false;
    let mut store_budget_bytes: Option<u64> = None;
    let mut listen: Option<std::net::SocketAddr> = None;
    let mut wire_requests: u64 = 48;
    let mut metrics_addr: Option<std::net::SocketAddr> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut auth_token: Option<String> = None;
    let mut cluster_node: Option<u16> = None;
    let mut cluster_peers: Vec<(u16, String)> = Vec::new();
    let mut cluster_replication: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--encode-cache-dir" => {
                encode_cache_dir = iter.next().filter(|v| !v.starts_with("--")).map(PathBuf::from);
                if encode_cache_dir.is_none() {
                    usage_error("--encode-cache-dir needs a directory path");
                }
            }
            "--expect-warm" => expect_warm = true,
            "--store-budget-bytes" => {
                match iter.next().and_then(|v| v.parse().ok()).filter(|&n: &u64| n > 0) {
                    Some(n) => store_budget_bytes = Some(n),
                    None => usage_error("--store-budget-bytes needs a positive byte count"),
                }
            }
            "--listen" => match iter.next().map(|v| v.parse()) {
                Some(Ok(addr)) => listen = Some(addr),
                _ => usage_error("--listen needs an ADDR:PORT listen address"),
            },
            "--wire-requests" => {
                match iter.next().and_then(|v| v.parse().ok()).filter(|&n: &u64| n > 0) {
                    Some(n) => wire_requests = n,
                    None => usage_error("--wire-requests needs a positive integer"),
                }
            }
            "--metrics-addr" => match iter.next().map(|v| v.parse()) {
                Some(Ok(addr)) => metrics_addr = Some(addr),
                _ => usage_error("--metrics-addr needs an ADDR:PORT scrape address"),
            },
            "--trace-out" => {
                trace_out = iter.next().filter(|v| !v.starts_with("--")).map(PathBuf::from);
                if trace_out.is_none() {
                    usage_error("--trace-out needs a file path");
                }
            }
            "--auth-token" => {
                auth_token = iter.next().filter(|v| !v.starts_with("--")).cloned();
                if auth_token.is_none() {
                    usage_error("--auth-token needs a shared-secret value");
                }
            }
            "--cluster-node" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(id) => cluster_node = Some(id),
                None => usage_error("--cluster-node needs a numeric node id"),
            },
            "--cluster-peer" => {
                // ID=ADDR, repeatable — one flag per peer in the cluster.
                let peer = iter.next().and_then(|v| {
                    let (id, addr) = v.split_once('=')?;
                    Some((id.parse().ok()?, addr.to_string()))
                });
                match peer {
                    Some(p) => cluster_peers.push(p),
                    None => usage_error("--cluster-peer needs ID=ADDR (e.g. 1=127.0.0.1:7101)"),
                }
            }
            "--cluster-replication" => {
                match iter.next().and_then(|v| v.parse().ok()).filter(|&n: &usize| n > 0) {
                    Some(n) => cluster_replication = Some(n),
                    None => usage_error("--cluster-replication needs a positive replica count"),
                }
            }
            unknown => usage_error(&format!("unknown flag {unknown}")),
        }
    }
    let mut config = ServeConfig::default()
        .with_devices(DevicePool::new(vec![
            GpuConfig::v100(),
            GpuConfig::v100(),
            GpuConfig::a100(),
            GpuConfig::a100(),
        ]))
        .with_max_batch(8)
        .with_max_queue_wait(Duration::from_millis(2))
        .with_proxy_dim(64);
    if let Some(dir) = &encode_cache_dir {
        config = config.with_encode_cache_dir(dir.clone());
        println!("persistent encode cache: {}", dir.display());
    }
    if let Some(bytes) = store_budget_bytes {
        if encode_cache_dir.is_none() {
            usage_error("--store-budget-bytes needs --encode-cache-dir (it caps the disk store)");
        }
        config = config
            .with_encode_store_budget(CacheBudget { max_entries: usize::MAX, max_bytes: bytes });
        println!("encode store budget: {bytes} B");
    }
    if let Some(path) = &trace_out {
        config = config.with_trace_out(path.clone());
        println!("chrome-trace output: {}", path.display());
    }
    if metrics_addr.is_some() && listen.is_none() {
        usage_error("--metrics-addr needs --listen (the scrape endpoint rides the wire front-end)");
    }
    if let Some(addr) = metrics_addr {
        config = config.with_metrics_addr(addr);
    }
    if listen.is_none()
        && (auth_token.is_some()
            || cluster_node.is_some()
            || !cluster_peers.is_empty()
            || cluster_replication.is_some())
    {
        usage_error("--auth-token and --cluster-* need --listen (they configure the wire server)");
    }
    if cluster_node.is_none() && (!cluster_peers.is_empty() || cluster_replication.is_some()) {
        usage_error("--cluster-peer/--cluster-replication need --cluster-node ID");
    }
    if let Some(addr) = listen {
        if expect_warm {
            usage_error("--expect-warm applies to the in-process demo, not --listen");
        }
        #[cfg(target_os = "linux")]
        {
            let mut config = config.with_listen(addr);
            if let Some(token) = auth_token {
                config = config.with_auth_token(token);
            }
            if let Some(node_id) = cluster_node {
                // Advertise the listen address itself: the demo cluster is a
                // loopback topology where clients share the node's namespace.
                let mut cluster = ClusterConfig::new(node_id, addr.to_string(), cluster_peers);
                if let Some(r) = cluster_replication {
                    cluster = cluster.with_replication(r);
                }
                println!(
                    "cluster member: node {node_id}, {} peer(s), replication {}",
                    cluster.peers.len(),
                    cluster.replication
                );
                config = config.with_cluster(cluster);
            }
            run_listen(config, wire_requests);
            return;
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (addr, wire_requests, auth_token, cluster_node, cluster_replication);
            usage_error("--listen needs the epoll front-end, which is Linux-only");
        }
    }
    let mut server = InferenceServer::start(config);
    println!(
        "== dsstc-serve demo: {REQUESTS} mixed ResNet-50/BERT requests, {} pooled devices ({}), batches of up to {} ==\n",
        server.config().workers(),
        server.config().devices.names().join(", "),
        server.config().max_batch
    );
    if encode_cache_dir.is_some() {
        // The boot-time store state, before any traffic touches the cache:
        // what the warmer restored/healed and what GC removed to fit the
        // budget. The CI warm-start and GC smokes grep these lines.
        print_scrape(&server.stats(), server.telemetry(), "dsstc_cache_");
    }

    // Deploy-time warm-up: obtain both models' encoded weights for every
    // pooled device tiling (fresh prune+encode on a cold start, restored
    // from the persistent store on a warm one) before traffic arrives.
    for model in [ModelId::ResNet50, ModelId::BertBase] {
        let encode_ms = server.warm_model(model, None);
        println!("warmed {model}: encoded weights obtained in {encode_ms:.1} ms");
    }
    println!();

    // One burst of mixed traffic: even ids are ResNet-50 images, odd ids are
    // BERT token windows; every third request is latency-critical. The
    // features are generated first, so the submit loop outruns the workers:
    // an idle worker takes queued work at once, and a backlog is what gives
    // the scheduler something to batch — and the priorities something to
    // jump.
    let features: Vec<Matrix> = (0..REQUESTS)
        .map(|i| Matrix::random_sparse(4, 64, 0.4, SparsityPattern::Uniform, i))
        .collect();
    let pending: Vec<_> = (0..REQUESTS)
        .zip(features)
        .map(|(i, features)| {
            let model = if i % 2 == 0 { ModelId::ResNet50 } else { ModelId::BertBase };
            let priority = if i % 3 == 0 { Priority::High } else { Priority::Normal };
            server
                .submit(InferRequest::new(model, features).with_priority(priority))
                .expect("server accepts requests")
        })
        .collect();

    let mut ids = HashSet::new();
    let mut devices_seen = HashSet::new();
    let mut per_model: Vec<(ModelId, u64, f64)> = Vec::new();
    for p in pending {
        let response = p.wait().expect("every request is answered");
        assert!(ids.insert(response.id), "duplicate response id {}", response.id);
        devices_seen.insert(response.device);
        match per_model.iter_mut().find(|(m, _, _)| *m == response.model) {
            Some((_, count, modelled)) => {
                *count += 1;
                *modelled += response.modelled_request_us;
            }
            None => per_model.push((response.model, 1, response.modelled_request_us)),
        }
    }
    assert_eq!(ids.len() as u64, REQUESTS, "every request answered exactly once");

    for (model, count, modelled) in &per_model {
        println!(
            "{model:<20} {count:>4} responses   mean modelled latency {:>9.1} us/request",
            modelled / *count as f64
        );
    }
    println!("devices that executed batches: {}\n", devices_seen.len());

    let stats = server.stats();
    print_scrape(&stats, server.telemetry(), "dsstc_");
    server.shutdown();

    // The properties this demo exists to demonstrate.
    assert!(devices_seen.len() >= 2, "expected >= 2 active devices");
    assert!(stats.mean_batch_size > 1.0, "expected dynamic batching to engage");
    assert!(stats.encode_hit_rate > 0.0, "expected encode-cache hits after the first batch");
    assert!(
        stats.for_priority(Priority::High).completed > 0,
        "expected high-priority traffic in the mix"
    );
    if expect_warm {
        // A populated --encode-cache-dir makes the restart a pure warm
        // start: the boot warmer restores every artifact into the memory
        // tier before traffic arrives, nothing prune+encodes, and the
        // first request is already a cache hit.
        assert_eq!(
            stats.encode.fresh_encodes, 0,
            "--expect-warm: {} artifacts were freshly encoded ({:.1} ms wasted)",
            stats.encode.fresh_encodes, stats.encode.fresh_encode_ms
        );
        assert!(stats.encode.disk_loads > 0, "--expect-warm: nothing was restored from disk");
        assert!(
            stats.encode.warm_restored > 0,
            "--expect-warm: the boot warmer restored nothing at startup"
        );
        println!(
            "warm start confirmed: {} artifacts restored from disk in {:.1} ms ({} at boot), \
             0 fresh encodes",
            stats.encode.disk_loads, stats.encode.disk_load_ms, stats.encode.warm_restored
        );
    }
    println!(
        "ok: {REQUESTS} requests answered exactly once by {} devices, mean batch {:.2}, encode-cache hit rate {:.0}%",
        devices_seen.len(),
        stats.mean_batch_size,
        stats.encode_hit_rate * 100.0
    );
}
