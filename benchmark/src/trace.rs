//! In-memory spans for the traced run.
//!
//! The harness wraps every call it makes into a public layer function in a
//! span (name, start, end, the span that caused it, the op it belongs to).
//! Spans stay in a `Vec` while the run measures and are written out once,
//! as chrome-trace JSON, when it ends — load the file in `chrome://tracing`
//! or Perfetto. Per-layer metrics are arithmetic over these spans.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, µs offsets from the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index (into the same tracer) of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation (request) the span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span recorder: spans are indexed in recording order, and a span's
/// parent is always an earlier index.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span { name, start_us, end_us: start_us, parent, op });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in µs.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        span.duration_us()
    }

    /// Records a span whose endpoints were taken elsewhere (an open-loop
    /// request runs from its due time to the instant its response arrived).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let offset = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3;
        self.spans.push(Span { name, start_us: offset(start), end_us: offset(end), parent, op });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans().filter(|s| s.name == name).map(Span::duration_us).collect()
    }

    /// Per op, the summed duration (µs) of its spans called `name` — "time
    /// this layer was busy for one operation" when an op calls the layer
    /// several times (one `spgemm` per network layer). Ops in first-seen
    /// order; ops without such a span are absent.
    pub fn per_op_sum_us(&self, name: &str) -> Vec<f64> {
        let mut order: Vec<u64> = Vec::new();
        let mut sums: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for span in self.spans().filter(|s| s.name == name) {
            sums.entry(span.op).and_modify(|sum| *sum += span.duration_us()).or_insert_with(|| {
                order.push(span.op);
                span.duration_us()
            });
        }
        order.into_iter().map(|op| sums[&op]).collect()
    }

    /// Self time (µs) of every span: its duration minus the part of its
    /// interval covered by its direct children (overlapping children are
    /// counted once; a child is clipped to its parent's interval).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in self.spans() {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let (start, end) = (span.start_us.max(p.start_us), span.end_us.min(p.end_us));
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (start, end) in intervals {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                span.duration_us() - covered
            })
            .collect()
    }

    /// Self times (µs) of the spans called `name`.
    pub fn self_times_of_us(&self, name: &str) -> Vec<f64> {
        self.spans()
            .zip(self.self_times_us())
            .filter(|(span, _)| span.name == name)
            .map(|(_, self_us)| self_us)
            .collect()
    }

    /// Writes every span as a chrome-trace complete ("X") event.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
                 \"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.start_us,
                span.duration_us(),
                span.op
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tracer_with(spans: &[(&'static str, f64, f64, Option<usize>, u64)]) -> Tracer {
        let mut tracer = Tracer::new(Instant::now());
        for &(name, start_us, end_us, parent, op) in spans {
            tracer.spans.push(Span { name, start_us, end_us, parent, op });
        }
        tracer
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let tracer = tracer_with(&[
            ("op", 0.0, 100.0, None, 1),
            ("encode_a", 10.0, 30.0, Some(0), 1),
            ("spgemm", 30.0, 80.0, Some(0), 1),
            // Grandchild: shortens `spgemm`'s self time, not `op`'s.
            ("gather", 40.0, 50.0, Some(2), 1),
        ]);
        assert_eq!(tracer.self_times_us(), vec![30.0, 20.0, 40.0, 10.0]);
        assert_eq!(tracer.self_times_of_us("op"), vec![30.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let tracer = tracer_with(&[
            ("op", 0.0, 100.0, None, 1),
            ("a", 10.0, 60.0, Some(0), 1),
            ("b", 40.0, 70.0, Some(0), 1),
            ("c", 90.0, 130.0, Some(0), 1),
            ("d", 45.0, 50.0, Some(0), 1),
        ]);
        // Covered: [10, 70] and [90, 100] = 70 of 100.
        assert_eq!(tracer.self_times_us()[0], 30.0);
    }

    #[test]
    fn per_op_sums_group_by_op_in_first_seen_order() {
        let tracer = tracer_with(&[
            ("spgemm", 0.0, 5.0, None, 7),
            ("relu", 5.0, 6.0, None, 7),
            ("spgemm", 6.0, 9.0, None, 7),
            ("spgemm", 10.0, 14.0, None, 3),
        ]);
        assert_eq!(tracer.per_op_sum_us("spgemm"), vec![8.0, 4.0]);
        assert_eq!(tracer.durations_us("relu"), vec![1.0]);
        assert!(tracer.per_op_sum_us("encode_a").is_empty());
    }

    #[test]
    fn begin_end_and_record_share_the_epoch() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let op = tracer.begin("op", None, 1);
        let child = tracer.begin("call", Some(op), 1);
        assert!(tracer.end(child) >= 0.0);
        assert!(tracer.end(op) >= tracer.spans[child].duration_us());
        let far = epoch + Duration::from_micros(50);
        let root = tracer.record("op", epoch, far, None, 2);
        tracer.record("send", epoch, epoch + Duration::from_micros(20), Some(root), 2);
        assert_eq!(tracer.spans[root].start_us, 0.0);
        assert_eq!(tracer.self_times_us()[root], 30.0);
        assert_eq!(tracer.spans().filter(|s| s.op == 2).count(), 2);
    }

    #[test]
    fn chrome_trace_is_written_as_one_json_document() {
        let tracer = tracer_with(&[("op", 0.0, 2.5, None, 1), ("call", 1.0, 2.0, Some(0), 1)]);
        let path =
            crate::harness::out_dir().join(format!("trace-test-{}.json", std::process::id()));
        tracer.write_chrome_trace(&path).expect("trace written");
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let _ = std::fs::remove_file(&path);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"parent\":0"));
    }
}
