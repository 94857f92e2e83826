//! What a run prints: every metric by name with its unit, then — as the
//! last line of standard output — the one JSON object the driver reads.

use crate::harness::EndToEnd;

/// Name and unit of every per-layer metric, in reporting order. A traced
/// run prints all of them; a layer the workload does not exercise reads 0.
/// `BENCHMARK.json` lists the same names (a unit test holds the two equal).
pub const PER_LAYER: [(&str, &str); 50] = [
    // dsstc-kernels / dsstc-tensor, per operation of the traced loop.
    ("kernels.spgemm.ms_per_op", "ms"),
    ("kernels.spgemm.share", "share"),
    ("kernels.encode_a.ms_per_op", "ms"),
    ("kernels.encode_a.share", "share"),
    ("tensor.relu.ms_per_op", "ms"),
    ("forward.residual_ms", "ms"),
    // The paper's counts: exact for a seed.
    ("kernels.spgemm.activation_sparsity_mean", "share"),
    ("kernels.spgemm.weight_sparsity_mean", "share"),
    ("kernels.spgemm.skipped_ohmma_share", "share"),
    ("kernels.spgemm.skipped_warp_tile_share", "share"),
    ("sim.modelled_us", "us"),
    // Model versus measured (gemm_extreme's traced run).
    ("kernels.spgemm.moderate_ms_p50", "ms"),
    ("scaling.measured_ratio", "ratio"),
    ("sim.modelled_ratio", "ratio"),
    ("scaling.gap", "ratio"),
    ("kernels.spgemm.threads0_speedup", "ratio"),
    // dsstc-serve wire front-end.
    ("serve.net.frame.encode_request_us", "us"),
    ("serve.net.frame.decode_request_us", "us"),
    ("serve.net.frame.encode_response_us", "us"),
    ("serve.net.frame.decode_response_us", "us"),
    ("serve.net.client.send_us_p50", "us"),
    ("serve.net.bytes_per_op", "bytes"),
    ("serve.server.inproc_ms_p50", "ms"),
    ("serve.server.inproc_ms_p95", "ms"),
    ("serve.net.overhead_ms_p50", "ms"),
    // dsstc-serve scheduler, workers, admission (public stats()).
    ("serve.batcher.queue_ms_p50", "ms"),
    ("serve.batcher.mean_batch", "count"),
    ("serve.batcher.batches", "count"),
    ("serve.worker.execute_ms_p50", "ms"),
    ("serve.repository.hit_rate", "share"),
    ("serve.admission.shed", "count"),
    ("serve.dispatch.assign_us_p50", "us"),
    ("serve.trace.span_sum_over_wall", "ratio"),
    ("serve.server.closed_loop_ops_per_s", "1/s"),
    ("loadgen.late_ms_p95", "ms"),
    // dsstc-serve repository + dsstc-formats + dsstc-models (store_churn).
    ("serve.repository.restore_ms_p50", "ms"),
    ("serve.repository.fresh_ms_p50", "ms"),
    ("serve.repository.hits", "count"),
    ("serve.repository.restores", "count"),
    ("serve.repository.fresh_encodes", "count"),
    ("serve.repository.evictions", "count"),
    ("serve.repository.store_gc_removed", "count"),
    ("serve.repository.warm_boot_s", "s"),
    ("serve.repository.gc_store_ms_p50", "ms"),
    ("formats.serialize.to_bytes_ms_p50", "ms"),
    ("formats.serialize.from_bytes_ms_p50", "ms"),
    ("formats.serialize.bytes_per_model", "bytes"),
    ("kernels.encode_b.ms_p50", "ms"),
    ("models.prune.ms_p50", "ms"),
    // Every workload.
    ("trace.overhead_share", "share"),
];

/// The per-layer metrics one traced run produced.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
}

impl Traced {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Traced { attempted, failed, values: Vec::new() }
    }

    /// Records one per-layer metric.
    ///
    /// # Panics
    /// Panics on a name that is not in [`PER_LAYER`] or is set twice — a
    /// typo would otherwise silently report 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        assert!(self.values.iter().all(|(n, _)| *n != name), "per-layer metric {name} set twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every [`PER_LAYER`] metric in order, 0 where this run set none.
    fn all(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit)).collect()
    }
}

/// Prints the metrics table and the closing JSON line of a measured run.
pub fn print_end_to_end(workload: &str, e2e: &EndToEnd) {
    println!(
        "{workload}: measured run, {} attempted, {} failed, {} latency samples; not a metric: \
         op_ms_p95 {:.4} ms ({} samples beyond it)",
        e2e.attempted,
        e2e.failed,
        e2e.samples,
        e2e.p95_ms,
        crate::stats::samples_beyond(e2e.samples, 0.95)
    );
    print_result(e2e.attempted, e2e.failed, &e2e.values);
}

/// Prints the metrics table and the closing JSON line of a traced run.
pub fn print_traced(workload: &str, traced: &Traced) {
    println!(
        "{workload}: traced run, {} attempted, {} failed (0 = layer not exercised here)",
        traced.attempted, traced.failed
    );
    print_result(traced.attempted, traced.failed, &traced.all());
}

fn print_result(attempted: u64, failed: u64, values: &[(&'static str, f64, &'static str)]) {
    for (name, value, unit) in values {
        println!("  {name:<44} {value:>16.6} {unit}");
    }
    println!("{}", result_json(attempted, failed, values));
}

/// The driver's result object. Values print with all their digits.
pub fn result_json(
    attempted: u64,
    failed: u64,
    values: &[(&'static str, f64, &'static str)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Reads back the metrics of a result line this module printed (the A/A
/// check and the run-everything mode read their children's last line).
pub fn parse_result_json(line: &str) -> Option<ParsedResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let name_start = entry.find('"')? + 1;
        let name_end = name_start + entry[name_start..].find('"')?;
        let value_start = entry.find("\"value\": ")? + "\"value\": ".len();
        let value_end = value_start + entry[value_start..].find(',')?;
        let unit_start = entry.find("\"unit\": \"")? + "\"unit\": \"".len();
        metrics.push((
            entry[name_start..name_end].to_string(),
            entry[value_start..value_end].parse().ok()?,
            entry[unit_start..].to_string(),
        ));
    }
    Some(ParsedResult { correct, attempted, failed, metrics })
}

/// A child run's result line, read back.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let values = [("ops_per_s", 1234.5678, "1/s"), ("setup_s", 0.8127, "s")];
        let line = result_json(1000, 0, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = parse_result_json(&line).expect("own output parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(
            parsed.metrics,
            vec![
                ("ops_per_s".to_string(), 1234.5678, "1/s".to_string()),
                ("setup_s".to_string(), 0.8127, "s".to_string()),
            ]
        );
        assert!(!parse_result_json(&result_json(10, 1, &values)).expect("parses").correct);
        assert_eq!(parse_result_json("not a result"), None);
    }

    #[test]
    fn traced_reports_every_per_layer_metric_once() {
        let mut traced = Traced::new(10, 0);
        traced.set("trace.overhead_share", 0.01);
        let all = traced.all();
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(all.last(), Some(&("trace.overhead_share", 0.01, "share")));
        assert_eq!(all[0], ("kernels.spgemm.ms_per_op", 0.0, "ms"));
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "per-layer names are unique");
    }

    #[test]
    #[should_panic(expected = "unknown per-layer metric")]
    fn traced_rejects_a_misspelt_name() {
        Traced::new(1, 0).set("kernels.spgem.ms_per_op", 1.0);
    }

    /// `BENCHMARK.json` is what the driver validates output against; it
    /// must name exactly the metrics and workloads this harness prints.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str, until: &str| -> Vec<String> {
            let from = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[from..];
            let body = &body[..body.find(until).unwrap_or(body.len())];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let e2e: Vec<String> =
            crate::harness::END_TO_END.iter().map(|spec| spec.name.to_string()).collect();
        assert_eq!(names_in("end_to_end", "\"per_layer\""), e2e);
        for spec in crate::harness::END_TO_END {
            let declared = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                spec.name,
                spec.unit,
                if spec.higher_is_better { "higher" } else { "lower" },
                spec.bound
            );
            assert!(text.contains(&declared), "BENCHMARK.json lacks {declared}");
        }
        let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("per_layer", "\u{0}"), per_layer);
        let workloads: Vec<String> =
            crate::workloads::NAMES.iter().map(|n| n.to_string()).collect();
        assert_eq!(names_in("workloads", "\"end_to_end\""), workloads);
    }
}
