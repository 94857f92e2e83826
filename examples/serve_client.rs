//! Wire-protocol client driving a `serve_demo --listen` (or any
//! [`WireServer`]) over TCP: pipelined mixed ResNet-50 / BERT traffic on a
//! handful of connections, verifying every request is answered exactly once
//! and printing the client-observed latency summary.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dsstc --example serve_demo   -- --listen 127.0.0.1:7411 &
//! cargo run --release -p dsstc --example serve_client -- --addr 127.0.0.1:7411
//! ```
//!
//! The client retries the initial connect for up to 60 seconds, so the two
//! processes can start concurrently (the CI wire smoke does exactly that).

#[cfg(target_os = "linux")]
use std::collections::HashMap;
#[cfg(target_os = "linux")]
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
use dsstc::serve::net::WireClient;
#[cfg(target_os = "linux")]
use dsstc::serve::{InferRequest, ModelId, Priority};
#[cfg(target_os = "linux")]
use dsstc_tensor::{Matrix, SparsityPattern};

#[cfg(target_os = "linux")]
const USAGE: &str = "usage: serve_client --addr ADDR:PORT [--requests N] [--connections C] \
[--cluster]";

#[cfg(target_os = "linux")]
fn usage_error(message: &str) -> ! {
    eprintln!("serve_client: {message}\n{USAGE}");
    std::process::exit(2);
}

#[cfg(target_os = "linux")]
fn request_for(seed: u64) -> InferRequest {
    let model = if seed.is_multiple_of(2) { ModelId::ResNet50 } else { ModelId::BertBase };
    let priority = if seed.is_multiple_of(3) { Priority::High } else { Priority::Normal };
    let features = Matrix::random_sparse(4, 64, 0.4, SparsityPattern::Uniform, seed);
    InferRequest::new(model, features).with_priority(priority)
}

/// `--cluster` mode: treat `--addr` as a seed node of a consistent-hash
/// serving cluster, fetch the shard map with a `HELO` exchange, and route
/// every request to its shard's owner through the cluster-aware client —
/// following `NotMine` redirects and failing over to replica peers when a
/// node dies. Requests spread over many distinct shard keys (weight
/// sparsity varies per seed) so the stream exercises the whole ring; the
/// closing line reports the redirects and failovers the client performed,
/// which the CI cluster smoke greps after killing a node.
#[cfg(target_os = "linux")]
fn run_cluster(addr: std::net::SocketAddr, requests: u64) {
    use dsstc::serve::net::ClusterClient;
    // The seed node may still be booting; retry the initial hello like the
    // plain mode retries its connect.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut client = loop {
        match ClusterClient::connect(&[addr]) {
            Ok(client) => break client,
            Err(e) => {
                if Instant::now() >= deadline {
                    panic!("could not reach the cluster at {addr} within 60s: {e}");
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    println!(
        "serve_client: {requests} cluster-routed requests via seed {addr} \
         (shard map v{}, {} node(s))",
        client.map().version,
        client.map().nodes.len()
    );
    let started = Instant::now();
    let mut latencies_us = Vec::with_capacity(requests as usize);
    for seed in 0..requests {
        let request = request_for(seed).with_weight_sparsity(0.50 + (seed % 48) as f64 * 0.01);
        let sent = Instant::now();
        let body = client.infer(&request).expect("cluster serves every request");
        assert_eq!(body.output.rows(), 4, "seed {seed}");
        assert_eq!(body.output.cols(), 64, "seed {seed}");
        latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "cluster ok: {requests} responses in {elapsed:.2}s ({:.1} req/s), \
         {} redirects followed, {} failovers   end-to-end us: p50 {:.0}  p99 {:.0}",
        requests as f64 / elapsed,
        client.redirects_followed(),
        client.failovers(),
        percentile(&latencies_us, 0.50),
        percentile(&latencies_us, 0.99),
    );
}

/// Nearest-rank percentile of the client's own latency samples.
#[cfg(target_os = "linux")]
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// The wire protocol client needs the epoll front-end (Linux-only).
#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("serve_client needs the epoll wire front-end, which is Linux-only");
    std::process::exit(2);
}

#[cfg(target_os = "linux")]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<std::net::SocketAddr> = None;
    let mut requests: u64 = 48;
    let mut connections: usize = 2;
    let mut cluster = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next().map(|v| v.parse()) {
                Some(Ok(a)) => addr = Some(a),
                _ => usage_error("--addr needs an ADDR:PORT server address"),
            },
            "--requests" => {
                match iter.next().and_then(|v| v.parse().ok()).filter(|&n: &u64| n > 0) {
                    Some(n) => requests = n,
                    None => usage_error("--requests needs a positive integer"),
                }
            }
            "--connections" => {
                match iter.next().and_then(|v| v.parse().ok()).filter(|&n: &usize| n > 0) {
                    Some(n) => connections = n,
                    None => usage_error("--connections needs a positive integer"),
                }
            }
            "--cluster" => cluster = true,
            unknown => usage_error(&format!("unknown flag {unknown}")),
        }
    }
    let Some(addr) = addr else {
        usage_error("--addr is required");
    };
    if cluster {
        // The cluster client owns one pooled connection per node; the
        // plain mode's --connections fan-out does not apply.
        if connections != 2 {
            usage_error("--connections applies to the plain mode, not --cluster");
        }
        run_cluster(addr, requests);
        return;
    }

    println!(
        "serve_client: {requests} pipelined requests over {connections} connection(s) to {addr}"
    );
    let started = Instant::now();
    let latencies_us: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = WireClient::connect_retry(addr, Duration::from_secs(60))
                        .unwrap_or_else(|e| {
                            panic!("could not reach the server at {addr} within 60s: {e}")
                        });
                    let share = requests / connections as u64
                        + u64::from((c as u64) < requests % connections as u64);
                    // Pipeline the whole share before reading anything.
                    let mut sent = HashMap::new();
                    for i in 0..share {
                        let seed = c as u64 * 7_919 + i;
                        let id = client.send(&request_for(seed)).expect("send");
                        sent.insert(id, (seed, Instant::now()));
                    }
                    let mut latencies = Vec::with_capacity(share as usize);
                    for _ in 0..share {
                        let response = client.recv().expect("response");
                        let arrived = Instant::now();
                        let (seed, sent_at) =
                            sent.remove(&response.id).expect("every id answers exactly once");
                        let body = response.into_body().expect("served");
                        assert_eq!(body.output.rows(), 4, "seed {seed}");
                        assert_eq!(body.output.cols(), 64, "seed {seed}");
                        assert!(body.batch_size >= 1);
                        latencies.push(arrived.duration_since(sent_at).as_secs_f64() * 1e6);
                    }
                    assert!(sent.is_empty(), "every pipelined request answered");
                    latencies
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("connection thread")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    println!(
        "ok: {requests} responses in {elapsed:.2}s ({:.1} req/s)   end-to-end us: p50 {:.0}  p99 {:.0}  max {:.0}",
        requests as f64 / elapsed,
        percentile(&latencies_us, 0.50),
        percentile(&latencies_us, 0.99),
        percentile(&latencies_us, 1.0),
    );
}
