//! Request-stage tracing: a [`RequestTrace`] of monotonic stage
//! timestamps carried with every request from admission (or wire decode)
//! to response (or wire flush), surfaced on
//! [`InferResponse`](crate::InferResponse) and dumpable as JSONL
//! chrome-trace events via `--trace-out` (load the file in
//! `chrome://tracing` / Perfetto). See `docs/OBSERVABILITY.md` for the
//! event schema.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::request::{ModelId, Priority};

/// The lifecycle stages a request passes through, in pipeline order.
///
/// The two wire stages only apply to requests arriving via
/// [`net`](crate::net); in-process requests leave them unset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// A complete request frame was decoded off the socket (wire only).
    WireDecoded = 0,
    /// The server accepted the request and assigned its id.
    Admitted = 1,
    /// The request entered its model's batch queue.
    Enqueued = 2,
    /// The scheduler released the batch holding the request.
    Released = 3,
    /// The worker that pulled the batch routed it to a device: itself, or
    /// another idle device's worker.
    Dispatched = 4,
    /// The worker resolved the encoded weights (hit, restore or encode).
    CacheResolved = 5,
    /// Kernel execution of the batch began.
    ExecuteStart = 6,
    /// Kernel execution of the batch finished.
    ExecuteEnd = 7,
    /// The response was handed to the requester's channel.
    Responded = 8,
    /// The response frame's last byte was flushed to the socket (wire
    /// only).
    WireFlushed = 9,
}

/// Number of [`Stage`] variants.
pub const STAGES: usize = 10;

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGES] = [
        Stage::WireDecoded,
        Stage::Admitted,
        Stage::Enqueued,
        Stage::Released,
        Stage::Dispatched,
        Stage::CacheResolved,
        Stage::ExecuteStart,
        Stage::ExecuteEnd,
        Stage::Responded,
        Stage::WireFlushed,
    ];

    /// The stage's snake_case name as used in trace events and docs.
    pub fn name(self) -> &'static str {
        match self {
            Stage::WireDecoded => "wire_decoded",
            Stage::Admitted => "admitted",
            Stage::Enqueued => "enqueued",
            Stage::Released => "released",
            Stage::Dispatched => "dispatched",
            Stage::CacheResolved => "cache_resolved",
            Stage::ExecuteStart => "execute_start",
            Stage::ExecuteEnd => "execute_end",
            Stage::Responded => "responded",
            Stage::WireFlushed => "wire_flushed",
        }
    }
}

/// How the encoding cache satisfied a request's weight lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The encoded weights were already resident in memory.
    Hit,
    /// A miss paid for a fresh prune+encode.
    MissFresh,
    /// A miss restored a previously persisted artifact from disk.
    MissRestored,
}

impl CacheOutcome {
    /// The outcome's name as used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::MissFresh => "miss_fresh",
            CacheOutcome::MissRestored => "miss_restored",
        }
    }
}

/// The process-wide epoch all trace timestamps are offsets from.
fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Per-request staged timeline: µs offsets from a process-wide epoch,
/// stamped as the request flows admitted → enqueued → released →
/// dispatched → cache resolved → execute start/end → responded (plus
/// wire decode/flush for `net/` requests).
#[derive(Clone, Debug, Default)]
pub struct RequestTrace {
    /// The server-assigned request id (0 until admission).
    pub id: u64,
    /// The requested model.
    pub model: Option<ModelId>,
    /// The request's priority class.
    pub priority: Option<Priority>,
    /// How the encoding cache resolved the request's weights.
    pub cache: Option<CacheOutcome>,
    /// The device index that executed the request's batch.
    pub device: Option<usize>,
    stamps: [Option<u64>; STAGES],
}

impl RequestTrace {
    /// An empty trace; stages are stamped as the request progresses.
    pub fn new() -> Self {
        // Materialise the epoch early so all stamps share it.
        let _ = trace_epoch();
        RequestTrace::default()
    }

    /// Stamps `stage` with the current time; re-stamping a stage moves it
    /// forward.
    pub fn record(&mut self, stage: Stage) {
        self.stamps[stage as usize] = Some(now_us());
    }

    /// Stamps `stage` with an explicit µs offset (tests and replay).
    pub fn record_at(&mut self, stage: Stage, offset_us: u64) {
        self.stamps[stage as usize] = Some(offset_us);
    }

    /// The µs offset recorded for `stage`, if stamped.
    pub fn stage_us(&self, stage: Stage) -> Option<u64> {
        self.stamps[stage as usize]
    }

    /// µs elapsed between two recorded stages (`None` when either is
    /// unset; saturates at zero if stamped out of order).
    pub fn span_us(&self, from: Stage, to: Stage) -> Option<u64> {
        Some(self.stage_us(to)?.saturating_sub(self.stage_us(from)?))
    }

    /// True when every recorded stage timestamp is non-decreasing in
    /// pipeline order (unset stages are skipped).
    pub fn is_monotonic(&self) -> bool {
        let mut last = 0u64;
        for stage in Stage::ALL {
            if let Some(t) = self.stage_us(stage) {
                if t < last {
                    return false;
                }
                last = t;
            }
        }
        true
    }

    /// True when the in-process pipeline stages (admitted through
    /// responded) are all stamped.
    pub fn is_complete(&self) -> bool {
        Stage::ALL
            .iter()
            .filter(|s| !matches!(s, Stage::WireDecoded | Stage::WireFlushed))
            .all(|&s| self.stage_us(s).is_some())
    }

    /// True when the trace entered through the wire front-end.
    pub fn is_wire(&self) -> bool {
        self.stage_us(Stage::WireDecoded).is_some()
    }

    /// Renders the trace as chrome-trace complete ("X") events, one JSON
    /// object per line, one event per adjacent recorded stage pair. The
    /// `tid` is the executing device (or 0) so per-device lanes line up in
    /// the viewer.
    pub fn to_chrome_events(&self) -> Vec<String> {
        const SPANS: [(&str, Stage, Stage); 7] = [
            ("wire_decode", Stage::WireDecoded, Stage::Admitted),
            ("queue", Stage::Enqueued, Stage::Released),
            ("schedule", Stage::Released, Stage::Dispatched),
            ("cache", Stage::Dispatched, Stage::CacheResolved),
            ("execute", Stage::ExecuteStart, Stage::ExecuteEnd),
            ("respond", Stage::ExecuteEnd, Stage::Responded),
            ("wire_flush", Stage::Responded, Stage::WireFlushed),
        ];
        let tid = self.device.unwrap_or(0);
        let model = self.model.map_or("unknown", |m| m.slug());
        let priority = self.priority.map_or("unknown", |p| p.name());
        let cache = self.cache.map_or("unknown", |c| c.name());
        let mut events = Vec::new();
        for (name, from, to) in SPANS {
            let (Some(start), Some(dur)) = (self.stage_us(from), self.span_us(from, to)) else {
                continue;
            };
            events.push(format!(
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"id\":{},\"model\":\"{model}\",\
                 \"priority\":\"{priority}\",\"cache\":\"{cache}\"}}}}",
                self.id
            ));
        }
        events
    }
}

/// µs elapsed since the process trace epoch.
pub fn now_us() -> u64 {
    trace_epoch().elapsed().as_micros() as u64
}

/// Where completed traces go: a bounded in-memory ring (always on, read by
/// `benchmark/` and the tests) plus an optional JSONL writer opened from
/// `--trace-out`.
#[derive(Debug)]
pub struct TraceSink {
    ring: Mutex<VecDeque<RequestTrace>>,
    writer: Option<Mutex<BufWriter<File>>>,
}

/// How many completed traces the in-memory ring retains.
const RING_CAPACITY: usize = 1024;

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// A sink with only the in-memory ring.
    pub fn new() -> Self {
        TraceSink { ring: Mutex::new(VecDeque::with_capacity(64)), writer: None }
    }

    /// A sink that additionally appends chrome-trace JSONL events to
    /// `path` (truncating any existing file).
    pub fn with_output(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(TraceSink { writer: Some(Mutex::new(BufWriter::new(file))), ..TraceSink::new() })
    }

    /// Records a completed trace: pushed onto the ring (evicting the
    /// oldest past capacity) and, when a writer is attached, emitted as
    /// chrome-trace JSONL lines.
    pub fn record(&self, trace: RequestTrace) {
        if let Some(writer) = &self.writer {
            let mut writer = writer.lock().expect("trace writer poisoned");
            for line in trace.to_chrome_events() {
                let _ = writeln!(writer, "{line}");
            }
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The most recent completed traces, oldest first (bounded by the
    /// ring capacity).
    pub fn recent(&self) -> Vec<RequestTrace> {
        self.ring.lock().expect("trace ring poisoned").iter().cloned().collect()
    }

    /// Completed traces recorded since the sink was created (saturating
    /// at ring capacity — use counters for exact totals).
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").len()
    }

    /// True when no trace has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes the JSONL writer, if any.
    pub fn flush(&self) {
        if let Some(writer) = &self.writer {
            let _ = writer.lock().expect("trace writer poisoned").flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staged() -> RequestTrace {
        let mut t = RequestTrace::new();
        t.id = 7;
        t.model = Some(ModelId::BertBase);
        t.priority = Some(Priority::High);
        t.cache = Some(CacheOutcome::MissRestored);
        t.device = Some(2);
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            t.record_at(stage, (i as u64) * 100);
        }
        t
    }

    #[test]
    fn stages_stamp_and_span() {
        let t = staged();
        assert_eq!(t.stage_us(Stage::Admitted), Some(100));
        assert_eq!(t.span_us(Stage::Enqueued, Stage::Released), Some(100));
        assert_eq!(t.span_us(Stage::Admitted, Stage::Responded), Some(700));
        assert!(t.is_monotonic());
        assert!(t.is_complete());
        assert!(t.is_wire());
    }

    #[test]
    fn monotonicity_detects_reordering() {
        let mut t = staged();
        t.record_at(Stage::ExecuteEnd, 1); // before ExecuteStart's 600
        assert!(!t.is_monotonic());
    }

    #[test]
    fn incomplete_without_pipeline_stages() {
        let mut t = RequestTrace::new();
        t.record(Stage::Admitted);
        assert!(!t.is_complete());
        assert!(!t.is_wire());
        assert!(t.is_monotonic(), "a sparse trace is still monotonic");
    }

    #[test]
    fn live_stamps_are_monotonic() {
        let mut t = RequestTrace::new();
        for stage in Stage::ALL {
            t.record(stage);
        }
        assert!(t.is_monotonic());
        assert!(t.is_complete());
    }

    #[test]
    fn chrome_events_cover_recorded_spans() {
        let t = staged();
        let events = t.to_chrome_events();
        assert_eq!(events.len(), 7, "every span recorded: {events:?}");
        for line in &events {
            assert!(line.starts_with('{') && line.ends_with('}'), "JSON object: {line}");
            assert!(line.contains("\"ph\":\"X\""));
            assert!(line.contains("\"tid\":2"));
            assert!(line.contains("\"model\":\"bertbase\""));
            assert!(line.contains("\"cache\":\"miss_restored\""));
        }
        assert!(events[0].contains("\"name\":\"wire_decode\""));

        // An in-process trace emits no wire spans.
        let mut t = RequestTrace::new();
        for stage in Stage::ALL {
            if !matches!(stage, Stage::WireDecoded | Stage::WireFlushed) {
                t.record(stage);
            }
        }
        let events = t.to_chrome_events();
        assert_eq!(events.len(), 5);
        assert!(events.iter().all(|e| !e.contains("wire")));
    }

    #[test]
    fn sink_ring_bounds_memory_and_writer_emits_jsonl() {
        let dir = std::env::temp_dir().join(format!("dsstc-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = TraceSink::with_output(&path).unwrap();
        assert!(sink.is_empty());
        for i in 0..(RING_CAPACITY + 5) {
            let mut t = staged();
            t.id = i as u64;
            sink.record(t);
        }
        assert_eq!(sink.len(), RING_CAPACITY, "ring stays bounded");
        assert_eq!(sink.recent().first().unwrap().id, 5, "oldest entries evicted");
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), (RING_CAPACITY + 5) * 7);
        assert!(text.lines().all(|l| l.starts_with('{')));
        std::fs::remove_dir_all(&dir).ok();
    }
}
