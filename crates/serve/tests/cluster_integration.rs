//! End-to-end tests of cluster-scale serving: a real 3-node loopback
//! cluster with consistent-hash sharding, replica groups, hello/shard-map
//! exchange (tokenless, and against nodes that require an auth token),
//! `NotMine` redirects, peer liveness and client failover.
//!
//! The acceptance bar mirrors `docs/CLUSTER.md`: the cluster serves a full
//! sweep **bit-identical** to a single-node baseline, and killing a node
//! mid-load loses no acknowledged request (inference is deterministic, so
//! the client's resends are idempotent).
#![cfg(target_os = "linux")]

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use dsstc_serve::cluster::shard_hash;
use dsstc_serve::net::{ClusterClient, WireClient, WireError, WireServer, WireStatus};
use dsstc_serve::{ClusterConfig, InferRequest, InferenceServer, ModelId, Priority, ServeConfig};
use dsstc_tensor::{Matrix, SparsityPattern};

const PROXY_DIM: usize = 32;
const RING_SEED: u64 = 0x5EED;

fn features(seed: u64) -> Matrix {
    Matrix::random_sparse(2, PROXY_DIM, 0.4, SparsityPattern::Uniform, seed)
}

/// The sweep workload: 12 distinct shard keys (model and sparsity both
/// derived from `seed % 12`), so routing spreads over the whole ring
/// instead of a couple of shards.
fn request(seed: u64) -> InferRequest {
    let model = if seed.is_multiple_of(2) { ModelId::RnnLm } else { ModelId::BertBase };
    let priority = if seed.is_multiple_of(4) { Priority::High } else { Priority::Normal };
    let sparsity = 0.50 + (seed % 12) as f64 * 0.04;
    InferRequest::new(model, features(seed)).with_priority(priority).with_weight_sparsity(sparsity)
}

/// A finer key generator for ring searches: up to 100 distinct shard keys,
/// so "a shard whose owner group excludes node N" always exists.
fn probe_request(n: u64) -> InferRequest {
    let model = if n.is_multiple_of(2) { ModelId::RnnLm } else { ModelId::BertBase };
    let sparsity = 0.50 + (n % 50) as f64 * 0.01;
    InferRequest::new(model, features(n)).with_weight_sparsity(sparsity)
}

/// Reserves `n` distinct loopback ports by binding them all at once, then
/// releasing; nodes must know each other's addresses before any of them
/// binds, so OS-assigned ports cannot be used directly.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port")).collect();
    listeners.iter().map(|l| l.local_addr().expect("bound addr")).collect()
}

/// Boots an `n`-node loopback cluster, returning the servers and their
/// addresses. `ping` controls the liveness cadence: fast for failover
/// tests, effectively-off for tests that drive liveness by hand.
fn start_cluster(
    n: usize,
    replication: usize,
    ping: Duration,
) -> (Vec<WireServer>, Vec<SocketAddr>) {
    start_cluster_from(ServeConfig::default(), n, replication, ping)
}

/// [`start_cluster`] with every node configured from `base`.
fn start_cluster_from(
    base: ServeConfig,
    n: usize,
    replication: usize,
    ping: Duration,
) -> (Vec<WireServer>, Vec<SocketAddr>) {
    let addrs = free_addrs(n);
    let servers = (0..n)
        .map(|i| {
            let peers: Vec<(u16, String)> =
                (0..n).filter(|&j| j != i).map(|j| (j as u16, addrs[j].to_string())).collect();
            let cluster = ClusterConfig::new(i as u16, addrs[i].to_string(), peers)
                .with_replication(replication)
                .with_seed(RING_SEED)
                .with_ping(ping, 2);
            WireServer::start(
                base.clone()
                    .with_listen(addrs[i])
                    .with_max_queue_wait(Duration::from_millis(1))
                    .with_proxy_dim(PROXY_DIM)
                    .with_cluster(cluster),
            )
            .expect("bind cluster node")
        })
        .collect();
    (servers, addrs)
}

#[test]
fn three_node_cluster_serves_a_sweep_bit_identical_to_a_single_node() {
    let (mut servers, addrs) = start_cluster(3, 2, Duration::from_millis(200));
    let mut baseline = WireServer::start(
        ServeConfig::default()
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM),
    )
    .expect("bind baseline");

    let mut client = ClusterClient::connect(&addrs).expect("cluster hello");
    assert_eq!(client.map().nodes.len(), 3);
    assert_eq!(client.map().replication, 2);

    for seed in 0..24u64 {
        let clustered = client.infer(&request(seed)).expect("served by the cluster");
        let single = baseline.server().infer(request(seed)).expect("baseline");
        assert_eq!(clustered.output, single.output, "seed {seed}");
        assert_eq!(clustered.model, single.model);
    }
    // Routing by key means zero redirects when client and servers share a
    // map version — the common case this sweep exercises.
    assert_eq!(client.redirects_followed(), 0, "shared map version routes first-try");
    assert_eq!(client.failovers(), 0);

    // The load actually spread: every request was served by exactly one
    // node, and every node attaches cluster stats to its snapshot.
    let mut served_total = 0;
    let mut serving_nodes = 0;
    for server in &servers {
        let stats = server.stats();
        let cluster = stats.cluster.expect("cluster stats attached");
        assert_eq!(cluster.peers_total, 3);
        served_total += stats.completed_requests;
        serving_nodes += u32::from(stats.completed_requests > 0);
    }
    assert_eq!(served_total, 24);
    assert!(serving_nodes >= 2, "8 shards over 3 nodes must not collapse onto one");
    for server in &mut servers {
        server.shutdown();
    }
    baseline.shutdown();
}

/// Two nodes that require the hello token `"sesame"` (their pingers hold it
/// too, so neither marks the other dead).
fn start_authenticated_pair() -> (Vec<WireServer>, Vec<SocketAddr>) {
    let base = ServeConfig::default().with_auth_token("sesame");
    start_cluster_from(base, 2, 2, Duration::from_millis(200))
}

#[test]
fn a_cluster_client_with_the_token_serves_a_sweep_bit_identical_to_in_process() {
    let (mut servers, addrs) = start_authenticated_pair();
    let mut reference = InferenceServer::start(
        ServeConfig::default()
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM),
    );
    let max_frame_len = ServeConfig::default().max_frame_len;
    let mut client = ClusterClient::connect_with(&addrs, Some("sesame"), max_frame_len)
        .expect("authenticated cluster hello");
    assert_eq!(client.map().nodes.len(), 2);
    for seed in 0..12u64 {
        let clustered = client.infer(&request(seed)).expect("served by the cluster");
        let single = reference.infer(request(seed)).expect("in-process reference");
        assert_eq!(clustered.output, single.output, "seed {seed}");
    }
    // Every pooled connection the client opened presented the token.
    let refused: u64 =
        servers.iter().map(|s| s.stats().cluster.expect("stats").auth_failures).sum();
    assert_eq!(refused, 0);
    for server in &mut servers {
        server.shutdown();
    }
    reference.shutdown();
}

#[test]
fn a_cluster_client_without_the_token_is_refused_at_the_first_seed() {
    let (mut servers, addrs) = start_authenticated_pair();
    match ClusterClient::connect(&addrs) {
        Err(WireError::Rejected { status, .. }) => assert_eq!(status, WireStatus::Unauthorized),
        other => panic!("expected an Unauthorized rejection, got {other:?}"),
    }
    // Fail fast: the rejection repeats at every seed, so the second is
    // never asked.
    let refused = servers.iter().map(|s| s.stats().cluster.expect("stats").auth_failures);
    assert_eq!(refused.collect::<Vec<_>>(), [1, 0]);
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn a_misrouted_request_redirects_with_the_owning_replica_group() {
    // Liveness driven by hand below; park the pingers out of the way.
    let (mut servers, addrs) = start_cluster(3, 2, Duration::from_secs(3600));
    // Hand-route with a plain WireClient so we can aim a request at a node
    // that does *not* own its shard.
    let mut probe = WireClient::connect(addrs[0]).expect("connect node 0");
    let map = probe.hello(None).expect("map");
    let ring = map.ring();

    let (misrouted, owners) = (0..100u64)
        .find_map(|n| {
            let owners = ring.replicas(shard_hash(&probe_request(n).key()), 2);
            (!owners.contains(&0)).then_some((n, owners))
        })
        .expect("some shard excludes node 0");

    let id = probe.send(&probe_request(misrouted)).expect("send misrouted");
    let response = probe.recv().expect("redirect frame");
    assert_eq!(response.id, id);
    assert_eq!(response.status, WireStatus::NotMine);
    assert!(response.message.starts_with("owners="), "{}", response.message);
    assert!(response.message.ends_with(";version=1"), "{}", response.message);
    for owner in &owners {
        let addr = map.addr_of(*owner).expect("owner addr");
        assert!(response.message.contains(addr), "{} missing {addr}", response.message);
    }
    // Redirects are routing, not errors: the connection survives and an
    // owned shard still serves on it.
    let owned = (0..100u64)
        .find(|n| ring.replicas(shard_hash(&probe_request(*n).key()), 2).contains(&0))
        .expect("some shard includes node 0");
    probe.infer(&probe_request(owned)).expect("owned shard serves");
    let cluster = servers[0].stats().cluster.expect("cluster stats");
    assert_eq!(cluster.redirects, 1);
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn a_stale_client_follows_redirects_after_a_membership_change() {
    // Replication 1 (single owner per shard) and hand-driven liveness make
    // the redirect deterministic.
    let (mut servers, addrs) = start_cluster(3, 1, Duration::from_secs(3600));
    let mut client = ClusterClient::connect(&addrs).expect("cluster hello");
    assert_eq!(client.map().version, 1);

    // A shard owned by node 2 under the version-1 map.
    let ring = client.map().ring();
    let n = (0..100u64)
        .find(|n| ring.primary(shard_hash(&probe_request(*n).key())) == Some(2))
        .expect("node 2 owns some shard");
    client.infer(&probe_request(n)).expect("owner serves, no redirect");
    assert_eq!(client.redirects_followed(), 0);

    // Membership change behind the client's back: every node (including 2
    // itself) marks node 2 dead, so the shard moves to a survivor and the
    // map version bumps to 2 fleet-wide.
    for server in &servers {
        assert!(server.cluster().expect("cluster state").set_alive(2, false));
    }

    // The client still routes by its version-1 map, dialling node 2 — which
    // answers `NotMine` naming the new owner; the client follows the
    // redirect and is served, all inside one infer() call.
    client.infer(&probe_request(n)).expect("redirect followed to the new owner");
    assert_eq!(client.redirects_followed(), 1);
    let redirecting = servers[2].stats().cluster.expect("cluster stats");
    assert_eq!(redirecting.redirects, 1);
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn killing_a_node_mid_load_loses_no_acknowledged_request() {
    let (mut servers, addrs) = start_cluster(3, 2, Duration::from_millis(100));
    let mut client = ClusterClient::connect(&addrs).expect("cluster hello");

    // Shards whose primary is node 2: these are the requests the kill puts
    // in harm's way (3 distinct keys keeps the encode bill bounded).
    let ring = client.map().ring();
    let endangered: Vec<u64> = (0..200u64)
        .filter(|n| ring.primary(shard_hash(&probe_request(*n).key())) == Some(2))
        .take(3)
        .collect();
    assert!(!endangered.is_empty(), "node 2 must own something under seed {RING_SEED:#x}");

    // Acknowledged answers with all three nodes up.
    let before: Vec<(u64, Matrix)> = endangered
        .iter()
        .map(|&n| (n, client.infer(&probe_request(n)).expect("served pre-kill").output))
        .collect();

    // Kill the primary under load.
    servers[2].shutdown();

    // Every resend is answered by the surviving replica, bit-identically:
    // no acknowledged request (nor its deterministic answer) is lost.
    for (n, acknowledged) in &before {
        let again = client.infer(&probe_request(*n)).expect("served despite the kill");
        assert_eq!(&again.output, acknowledged, "probe {n}");
    }
    assert!(client.failovers() >= 1, "the dead primary forced at least one failover");
    // Unendangered traffic is untouched.
    for seed in 0..8u64 {
        client.infer(&request(seed)).expect("served during the outage");
    }

    // The survivors' pingers notice the death: their maps bump past
    // version 1 and shrink to 2 alive members.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let settled = servers[..2].iter().all(|server| {
            let map = server.cluster().expect("cluster state").map();
            map.alive_count() == 2 && map.version > 1
        });
        if settled {
            break;
        }
        assert!(Instant::now() < deadline, "survivors never marked the dead node");
        std::thread::sleep(Duration::from_millis(20));
    }
    for server in &servers[..2] {
        let cluster = server.stats().cluster.expect("cluster stats");
        assert_eq!(cluster.peers_alive, 2, "node {}: {cluster:?}", cluster.node_id);
        assert!(cluster.shard_map_version > 1, "death bumps the map version: {cluster:?}");
        assert!(cluster.peer_probes > 0);
        assert!(cluster.peer_failures > 0);
    }
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn cluster_metrics_expose_the_dsstc_cluster_families() {
    use std::io::{Read, Write};
    let addrs = free_addrs(1);
    let metrics_bind: SocketAddr = "127.0.0.1:0".parse().expect("literal addr");
    let cluster = ClusterConfig::new(0, addrs[0].to_string(), Vec::new()).with_seed(RING_SEED);
    let mut server = WireServer::start(
        ServeConfig::default()
            .with_listen(addrs[0])
            .with_max_queue_wait(Duration::from_millis(1))
            .with_proxy_dim(PROXY_DIM)
            .with_metrics_addr(metrics_bind)
            .with_cluster(cluster),
    )
    .expect("bind node");
    let mut client = WireClient::connect(addrs[0]).expect("connect");
    client.hello(None).expect("hello");
    client.infer(&request(0)).expect("served");

    let mut stream = std::net::TcpStream::connect(server.metrics_addr().expect("metrics bound"))
        .expect("scrape");
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read scrape");
    for family in [
        "dsstc_cluster_shard_map_version{node=\"0\"}",
        "dsstc_cluster_peers_alive{node=\"0\"}",
        "dsstc_cluster_peers_total{node=\"0\"}",
        "dsstc_cluster_redirects_total{node=\"0\"}",
        "dsstc_cluster_failover_serves_total{node=\"0\"}",
        "dsstc_cluster_hellos_total{node=\"0\"}",
        "dsstc_cluster_auth_failures_total{node=\"0\"}",
        "dsstc_cluster_peer_probes_total{node=\"0\"}",
        "dsstc_cluster_peer_failures_total{node=\"0\"}",
    ] {
        assert!(body.contains(family), "scrape missing {family}");
    }
    assert!(body.contains("dsstc_cluster_hellos_total{node=\"0\"} 1"), "hello counted");
    server.shutdown();
}
