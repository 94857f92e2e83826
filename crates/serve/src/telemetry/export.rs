//! Metrics exposition: renders a [`ServerStats`] snapshot plus the live
//! [`MetricsRegistry`] in Prometheus text format. The wire front-end's
//! event loop answers `--metrics-addr` scrapes with it; this module only
//! renders. Metric families and names are catalogued in
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
                },
                DeviceStats { name: "A100".to_string(), batches: 12, modelled_busy_us: 6300.0 },
            ],
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
        stats.per_device[0].modelled_busy_us = f64::INFINITY;
        stats.per_device[1].modelled_busy_us = f64::NAN;
        let text = render_prometheus(&stats, &MetricsRegistry::new());
        for (device, gpu) in [(0, "Tesla V100"), (1, "A100")] {
            let sample = format!(
                "dsstc_device_modelled_busy_us_total{{device=\"{device}\",gpu=\"{gpu}\"}} 0.000"
            );
            assert!(text.contains(&sample), "{sample}");
        }
    }
}
