//! One connection's side of the wire protocol, as a machine that does no
//! I/O: it owns no socket, no poller and no lock, and never sleeps.
//!
//! A [`Conn`] decides everything `docs/WIRE_PROTOCOL.md` says about one
//! connection. The reactor in `net::server` is its shell: it hands the
//! machine bytes read ([`Conn::on_bytes`], [`Conn::on_eof`]), a submit's
//! outcome ([`Conn::on_submitted`]), a completion ([`Conn::on_completion`])
//! and a count of bytes written ([`Conn::on_written`]), and does what the
//! machine asks: act on the next [`Input`], write [`Conn::unwritten`],
//! record [`Conn::finished`] traces, close once [`Conn::done`]. Counters go
//! to the `WireStats` the shell lends each call, and whether a shutdown has
//! [`drained`] takes `now` as an argument.

use std::collections::VecDeque;
use std::time::Instant;

use crate::cluster::{constant_time_eq, ShardMap};
use crate::config::ServeConfig;
use crate::net::frame::{
    encode_error_into, encode_response_into, encode_shard_map_into, Frame, FrameDecoder,
    RequestFrame, WireError, WireStatus, POISON_ID,
};
use crate::request::InferResponse;
use crate::server::ServeError;
use crate::stats::WireStats;
use crate::telemetry::{RequestTrace, Stage};

/// A scrape whose request head grows past this without a blank line is
/// closed unanswered.
const MAX_SCRAPE_HEAD: usize = 8 * 1024;

/// What a decoded input asks of the shell, which acts on it before asking
/// the machine for the next one.
pub(crate) enum Input {
    /// Start its trace at [`Stage::WireDecoded`], route and submit this
    /// request, then report with [`Conn::on_submitted`] (or answer a
    /// `NotMine` with [`Conn::send_error`]).
    Request(RequestFrame),
    /// A hello. An accepted one is answered with [`Conn::send_shard_map`];
    /// a refused one has already poisoned the connection.
    Hello { accepted: bool },
    /// A scrape's request head is complete: answer with
    /// [`Conn::send_scrape`].
    Scrape,
}

/// What a connection's input is read into.
enum Inbound {
    /// A wire client's byte stream.
    Frames(FrameDecoder),
    /// A scrape's HTTP request head, up to [`MAX_SCRAPE_HEAD`] bytes.
    ScrapeHead(Vec<u8>),
}

impl Default for Inbound {
    fn default() -> Self {
        Inbound::ScrapeHead(Vec::new())
    }
}

/// One connection's protocol state. The default machine answers a metrics
/// scrape.
#[derive(Default)]
pub(crate) struct Conn {
    inbound: Inbound,
    /// Encoded bytes for the socket; `out[written..]` is not written yet.
    out: Vec<u8>,
    written: usize,
    /// One record per frame in `out` whose last byte is not written yet:
    /// the offset where it starts, and the trace its flush completes. The
    /// frame ends where the next one starts (the last at `out.len()`).
    frames: VecDeque<(usize, Option<RequestTrace>)>,
    /// Traces whose request is finished, for the shell to record.
    finished: Vec<RequestTrace>,
    /// Requests submitted from this connection whose completion has not
    /// arrived yet.
    in_flight: usize,
    /// A hello passed the auth check (any hello, on a server without a
    /// token).
    authenticated: bool,
    /// Read nothing more; close once nothing is owed.
    closing: bool,
    /// The final error frame is queued: later completions are dropped, and
    /// the connection closes once that frame is written.
    poisoned: bool,
    max_outbound_bytes: usize,
    auth_token: Option<String>,
}

impl Conn {
    /// A wire client's connection under `config`'s frame bound, outbound
    /// cap and auth token.
    pub(crate) fn wire(config: &ServeConfig) -> Conn {
        Conn {
            inbound: Inbound::Frames(FrameDecoder::new(config.max_frame_len)),
            max_outbound_bytes: config.max_outbound_bytes,
            auth_token: config.auth_token.clone(),
            ..Conn::default()
        }
    }

    /// A scrape, which moves no wire counter.
    pub(crate) fn is_scrape(&self) -> bool {
        matches!(self.inbound, Inbound::ScrapeHead(_))
    }

    /// The machine takes more input.
    pub(crate) fn reading(&self) -> bool {
        !self.closing
    }

    /// The bytes to hand the socket next.
    pub(crate) fn unwritten(&self) -> &[u8] {
        &self.out[self.written..]
    }

    /// Nothing is left to read, write or wait for: close the connection.
    pub(crate) fn done(&self) -> bool {
        self.closing && self.unwritten().is_empty() && (self.poisoned || self.in_flight == 0)
    }

    /// Traces whose request is finished, for the shell to record.
    pub(crate) fn finished(&mut self) -> std::vec::Drain<'_, RequestTrace> {
        self.finished.drain(..)
    }

    /// Bytes read off the socket.
    pub(crate) fn on_bytes(&mut self, bytes: &[u8], stats: &mut WireStats) {
        match &mut self.inbound {
            Inbound::Frames(decoder) => {
                stats.bytes_received += bytes.len() as u64;
                decoder.feed(bytes);
            }
            Inbound::ScrapeHead(head) => head.extend_from_slice(bytes),
        }
    }

    /// The peer sent EOF: no more requests. What is in flight is still
    /// answered, and a partial frame is dropped.
    pub(crate) fn on_eof(&mut self) {
        self.closing = true;
    }

    /// The next input the bytes fed so far complete. Protocol failures are
    /// handled here: a request before an authenticated hello, a frame a
    /// client must not send, or lost framing queue a final error frame and
    /// stop the input.
    pub(crate) fn next_input(&mut self, stats: &mut WireStats) -> Option<Input> {
        if self.closing {
            return None;
        }
        let decoder = match &mut self.inbound {
            Inbound::Frames(decoder) => decoder,
            Inbound::ScrapeHead(head) => {
                // A blank line ends the head; the body, none expected from
                // `GET`, is ignored.
                let complete = head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n");
                let too_long = head.len() > MAX_SCRAPE_HEAD;
                self.closing = complete || too_long;
                return (complete && !too_long).then_some(Input::Scrape);
            }
        };
        let (status, message) = match decoder.next_frame() {
            Ok(None) => return None,
            Ok(Some(Frame::Request(frame))) => {
                stats.frames_received += 1;
                if self.auth_token.is_none() || self.authenticated {
                    return Some(Input::Request(frame));
                }
                stats.requests_rejected += 1;
                let message = "authenticate with a hello frame before sending requests";
                (WireStatus::Unauthorized, message.to_string())
            }
            Ok(Some(Frame::Hello(hello))) => {
                let presented = hello.token.as_deref().unwrap_or("").as_bytes();
                let accepted = self
                    .auth_token
                    .as_ref()
                    .is_none_or(|expected| constant_time_eq(presented, expected.as_bytes()));
                if accepted {
                    self.authenticated = true;
                } else {
                    let message = "hello rejected: bad or missing auth token";
                    self.poison(WireStatus::Unauthorized, message, stats);
                }
                return Some(Input::Hello { accepted });
            }
            // Responses and shard maps only ever flow server → client.
            Ok(Some(Frame::Response(_))) => {
                stats.decode_errors += 1;
                (WireStatus::InvalidRequest, "unexpected response frame".to_string())
            }
            Ok(Some(Frame::ShardMap(_))) => {
                stats.decode_errors += 1;
                (WireStatus::InvalidRequest, "unexpected shard-map frame".to_string())
            }
            Err(error) => {
                stats.decode_errors += 1;
                let status = match error {
                    WireError::UnsupportedVersion(_) => WireStatus::UnsupportedVersion,
                    _ => WireStatus::InvalidRequest,
                };
                (status, error.to_string())
            }
        };
        self.poison(status, &message, stats);
        None
    }

    /// The shell submitted `client_id`'s request (`Ok`), or the runtime
    /// refused it: a request-level error frame that leaves the connection
    /// open.
    pub(crate) fn on_submitted(
        &mut self,
        client_id: u64,
        outcome: Result<(), ServeError>,
        stats: &mut WireStats,
    ) {
        let Err(error) = outcome else {
            self.in_flight += 1;
            return;
        };
        let status = match &error {
            ServeError::InvalidRequest(_) => WireStatus::InvalidRequest,
            ServeError::ShuttingDown | ServeError::Timeout => WireStatus::ShuttingDown,
            ServeError::ShedLoad { .. } => WireStatus::ShedLoad,
        };
        // Shed requests are load management, not client mistakes: they get
        // their own per-priority counter instead of the rejected one.
        if let ServeError::ShedLoad { priority, .. } = &error {
            stats.count_shed(*priority);
        } else {
            stats.requests_rejected += 1;
        }
        self.send_error(client_id, status, &error.to_string(), stats);
    }

    /// A request of this connection completed. Its response frame is
    /// encoded straight onto the outbound bytes, or, on a poisoned
    /// connection, dropped with its trace recorded without a flush stamp.
    pub(crate) fn on_completion(
        &mut self,
        client_id: u64,
        mut response: InferResponse,
        stats: &mut WireStats,
    ) {
        self.in_flight -= 1;
        let trace = std::mem::take(&mut response.trace);
        if self.poisoned {
            self.finished.push(trace);
        } else if self
            .push_frame(Some(trace), stats, |out| encode_response_into(out, client_id, &response))
        {
            // Counted before the shell writes it: a client holding the
            // response must find it in the next snapshot.
            stats.frames_sent += 1;
        }
    }

    /// The socket took the next `n` unwritten bytes. Each frame whose last
    /// byte is now out completes its trace with a [`Stage::WireFlushed`]
    /// stamp.
    pub(crate) fn on_written(&mut self, n: usize, stats: &mut WireStats) {
        self.written += n;
        if !self.is_scrape() {
            stats.bytes_sent += n as u64;
        }
        while !self.frames.is_empty()
            && self.frames.get(1).map_or(self.out.len(), |next| next.0) <= self.written
        {
            if let Some((_, Some(mut trace))) = self.frames.pop_front() {
                trace.record(Stage::WireFlushed);
                self.finished.push(trace);
            }
        }
    }

    /// The shell closed the socket. The requests of frames never written
    /// still finished: their traces are recorded without a flush stamp.
    pub(crate) fn on_close(&mut self) {
        self.finished.extend(self.frames.drain(..).filter_map(|(_, trace)| trace));
    }

    /// Queues an error frame answering `id`.
    pub(crate) fn send_error(
        &mut self,
        id: u64,
        status: WireStatus,
        message: &str,
        stats: &mut WireStats,
    ) {
        stats.error_frames_sent += 1;
        self.push_frame(None, stats, |out| encode_error_into(out, id, status, message));
    }

    /// Answers an accepted hello with the node's shard map.
    pub(crate) fn send_shard_map(&mut self, map: &ShardMap, stats: &mut WireStats) {
        self.push_frame(None, stats, |out| encode_shard_map_into(out, map));
    }

    /// Answers a scrape with `body` (HTTP/1.0, `Connection: close`).
    pub(crate) fn send_scrape(&mut self, body: &str) {
        self.out = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
             charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
    }

    /// Framing is lost (or a hello refused): one final error frame under
    /// the reserved [`POISON_ID`], since no request can be blamed; then
    /// nothing more is read, and the connection closes once that frame is
    /// written.
    fn poison(&mut self, status: WireStatus, message: &str, stats: &mut WireStats) {
        self.send_error(POISON_ID, status, message, stats);
        self.closing = true;
        self.poisoned = true;
    }

    /// Encodes one frame straight onto the outbound bytes behind a boundary
    /// record carrying `trace`. Returns whether it stayed: a frame that takes
    /// the unwritten bytes past the cap is dropped by [`Conn::overflow`].
    fn push_frame(
        &mut self,
        trace: Option<RequestTrace>,
        stats: &mut WireStats,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        // Bytes before the first unwritten frame are no longer needed: drop
        // them when that is all of them, else once they pass 4 KiB.
        let cut = self.frames.front().map_or(self.written, |front| front.0);
        if cut == self.out.len() || cut >= 4096 {
            self.out.drain(..cut);
            self.written -= cut;
            self.frames.iter_mut().for_each(|frame| frame.0 -= cut);
        }
        self.frames.push_back((self.out.len(), trace));
        encode(&mut self.out);
        if self.unwritten().len() <= self.max_outbound_bytes {
            return true;
        }
        self.overflow(stats);
        false
    }

    /// The unwritten bytes breached the cap: the peer submitted requests
    /// but stopped reading. Everything not yet written is dropped (its
    /// traces recorded without a flush stamp), except the rest of a frame
    /// the socket has started, since a torn frame would hide what follows;
    /// one final error frame takes its place. A slow reader costs at most
    /// the cap, one frame and that error frame.
    fn overflow(&mut self, stats: &mut WireStats) {
        stats.outbound_overflows += 1;
        stats.error_frames_sent += 1;
        let started = usize::from(self.frames.front().is_some_and(|front| front.0 < self.written));
        let cut = self.frames.get(started).map_or(self.out.len(), |frame| frame.0);
        self.out.truncate(cut);
        self.finished.extend(self.frames.drain(started..).filter_map(|(_, trace)| trace));
        self.closing = true;
        self.poisoned = true;
        let message = format!(
            "outbound buffer exceeded {} bytes; read your responses",
            self.max_outbound_bytes
        );
        self.frames.push_back((cut, None));
        encode_error_into(&mut self.out, POISON_ID, WireStatus::ShuttingDown, &message);
    }
}

/// Whether a graceful shutdown that must end by `deadline`
/// ([`DRAIN_TIMEOUT`](crate::net::DRAIN_TIMEOUT) after it began) is over at
/// `now`: nothing is owed, no request in flight (for connections closed
/// meanwhile too) and no byte of the open `conns` unwritten, or the
/// deadline passed.
pub(crate) fn drained<'a>(
    now: Instant,
    deadline: Instant,
    in_flight: usize,
    mut conns: impl Iterator<Item = &'a Conn>,
) -> bool {
    now >= deadline || (in_flight == 0 && conns.all(|conn| conn.unwritten().is_empty()))
}

#[cfg(test)]
mod tests {
    //! Every life-cycle statement of `docs/WIRE_PROTOCOL.md`, checked on the
    //! machine alone: no socket, no thread, no sleep.

    use super::*;
    use crate::net::frame::{decode_frame, encode_hello_into, encode_request_into, ResponseFrame};
    use crate::net::server::DRAIN_TIMEOUT;
    use crate::request::{InferRequest, ModelId, Priority};
    use dsstc_tensor::{Matrix, SparsityPattern};
    use proptest::prelude::*;
    use std::time::Duration;

    const MAX_BODY: usize = 1 << 20;
    const TOKEN: &str = "sesame";

    /// A wire connection under `max_frame_len` and `max_outbound_bytes`.
    fn bounded(max_frame_len: usize, max_outbound_bytes: usize) -> Conn {
        let config = ServeConfig { max_frame_len, max_outbound_bytes, ..ServeConfig::default() };
        Conn::wire(&config)
    }

    fn conn() -> Conn {
        bounded(MAX_BODY, usize::MAX)
    }

    fn authenticating_conn() -> Conn {
        Conn::wire(&ServeConfig::default().with_auth_token(TOKEN))
    }

    fn request(id: u64) -> InferRequest {
        let features = Matrix::random_sparse(2, 8, 0.5, SparsityPattern::Uniform, id);
        InferRequest::new(ModelId::RnnLm, features)
    }

    fn request_bytes(out: &mut Vec<u8>, id: u64) {
        encode_request_into(out, id, &request(id));
    }

    fn hello_bytes(token: Option<&str>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_hello_into(&mut out, token);
        out
    }

    /// A completion whose `rows × rows` output makes its frame about
    /// `4 · rows²` bytes long.
    fn response(rows: usize) -> InferResponse {
        InferResponse {
            id: 0,
            model: ModelId::RnnLm,
            output: Matrix::random_sparse(rows, rows, 0.5, SparsityPattern::Uniform, rows as u64),
            queue_us: 1.0,
            execute_us: 2.0,
            modelled_batch_us: 3.0,
            modelled_request_us: 3.0,
            batch_size: 1,
            device: 0,
            encoding: dsstc_kernels::EncodingSpec::for_gpu(&dsstc_sim::GpuConfig::v100()),
            priority: Priority::Normal,
            trace: RequestTrace::new(),
        }
    }

    /// What the shell was asked to do, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Request(RequestFrame),
        Hello { accepted: bool },
        Scrape,
    }

    /// Feeds `bytes` and acts on every input as the shell does when the
    /// runtime admits everything: a request is submitted, an accepted hello
    /// answered with a standalone map.
    fn feed(conn: &mut Conn, bytes: &[u8], stats: &mut WireStats) -> Vec<Seen> {
        conn.on_bytes(bytes, stats);
        let mut seen = Vec::new();
        while let Some(input) = conn.next_input(stats) {
            seen.push(match input {
                Input::Request(frame) => {
                    conn.on_submitted(frame.id, Ok(()), stats);
                    Seen::Request(frame)
                }
                Input::Hello { accepted } => {
                    if accepted {
                        conn.send_shard_map(&ShardMap::standalone("node:1".into()), stats);
                    }
                    Seen::Hello { accepted }
                }
                Input::Scrape => Seen::Scrape,
            });
        }
        seen
    }

    /// A socket that takes every byte: returns what it was handed.
    fn write_all(conn: &mut Conn, stats: &mut WireStats) -> Vec<u8> {
        let bytes = conn.unwritten().to_vec();
        conn.on_written(bytes.len(), stats);
        bytes
    }

    /// Decodes `bytes` into whole frames, failing on any leftover byte.
    fn frames(mut bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            let (frame, len) = decode_frame(bytes, usize::MAX)
                .expect("every byte handed to the socket decodes")
                .expect("no torn frame at the end");
            frames.push(frame);
            bytes = &bytes[len..];
        }
        frames
    }

    fn responses(bytes: &[u8]) -> Vec<ResponseFrame> {
        let as_response = |frame| match frame {
            Frame::Response(response) => response,
            other => panic!("expected a response frame, got {other:?}"),
        };
        frames(bytes).into_iter().map(as_response).collect()
    }

    fn flushed(traces: &[RequestTrace]) -> usize {
        traces.iter().filter(|trace| trace.stage_us(Stage::WireFlushed).is_some()).count()
    }

    #[test]
    fn every_admitted_request_gets_exactly_one_frame_even_completed_out_of_order() {
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        for id in 0..6 {
            request_bytes(&mut bytes, id);
        }
        assert_eq!(feed(&mut conn, &bytes, &mut stats).len(), 6);
        assert_eq!(stats.frames_received, 6);
        for id in [4, 1, 5, 0, 3, 2] {
            conn.on_completion(id, response(2), &mut stats);
        }
        assert!(conn.finished().next().is_none(), "nothing is flushed before the write");
        let ids: Vec<u64> =
            responses(&write_all(&mut conn, &mut stats)).iter().map(|r| r.id).collect();
        assert_eq!(ids, [4, 1, 5, 0, 3, 2]);
        let traces: Vec<RequestTrace> = conn.finished().collect();
        assert_eq!((traces.len(), flushed(&traces)), (6, 6));
        assert_eq!(stats.frames_sent, 6);
        assert_eq!(stats.error_frames_sent, 0);
        assert!(!conn.done(), "an open connection stays open");
    }

    #[test]
    fn a_request_level_rejection_answers_its_id_and_keeps_the_connection() {
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 7);
        conn.on_bytes(&bytes, &mut stats);
        let Some(Input::Request(frame)) = conn.next_input(&mut stats) else { panic!("a request") };
        let invalid = ServeError::InvalidRequest("wrong width".into());
        conn.on_submitted(frame.id, Err(invalid), &mut stats);
        let shed = ServeError::ShedLoad { priority: Priority::Low, projected_us: 9 };
        conn.on_submitted(8, Err(shed), &mut stats);
        let answered = responses(&write_all(&mut conn, &mut stats));
        let statuses: Vec<_> = answered.iter().map(|r| (r.id, r.status)).collect();
        assert_eq!(statuses, [(7, WireStatus::InvalidRequest), (8, WireStatus::ShedLoad)]);
        assert_eq!((stats.requests_rejected, stats.shed_low, stats.error_frames_sent), (1, 1, 2));
        assert!(conn.reading() && !conn.done());
        let mut next = Vec::new();
        request_bytes(&mut next, 9);
        assert_eq!(feed(&mut conn, &next, &mut stats).len(), 1, "the connection still serves");
    }

    #[test]
    fn a_poisoned_connection_closes_after_one_error_frame() {
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 1);
        bytes.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
        // A valid frame behind the garbage is never decoded.
        request_bytes(&mut bytes, 2);
        assert_eq!(feed(&mut conn, &bytes, &mut stats).len(), 1);
        assert!(!conn.reading());
        // The request admitted before the garbage completes afterwards: no
        // frame follows the final one, but its trace is recorded.
        conn.on_completion(1, response(2), &mut stats);
        let answered = responses(&write_all(&mut conn, &mut stats));
        assert_eq!(answered.len(), 1);
        assert_eq!((answered[0].id, answered[0].status), (POISON_ID, WireStatus::InvalidRequest));
        assert!(conn.done());
        let traces: Vec<RequestTrace> = conn.finished().collect();
        assert_eq!((traces.len(), flushed(&traces)), (1, 0));
        assert_eq!((stats.decode_errors, stats.frames_sent, stats.error_frames_sent), (1, 0, 1));
    }

    #[test]
    fn a_poisoned_connection_closes_with_requests_still_in_flight() {
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 1);
        // A client must not send a response frame.
        crate::net::frame::encode_error_into(&mut bytes, 3, WireStatus::InvalidRequest, "");
        feed(&mut conn, &bytes, &mut stats);
        write_all(&mut conn, &mut stats);
        assert!(conn.done(), "nothing more will be written, so nothing is waited for");
    }

    #[test]
    fn a_hello_replay_is_answered_again_and_a_bad_token_poisons() {
        let (mut conn, mut stats) = (authenticating_conn(), WireStats::default());
        let mut bytes = hello_bytes(Some(TOKEN));
        bytes.extend(hello_bytes(Some(TOKEN)));
        request_bytes(&mut bytes, 1);
        bytes.extend(hello_bytes(Some("wrong")));
        request_bytes(&mut bytes, 2);
        let seen = feed(&mut conn, &bytes, &mut stats);
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], Seen::Hello { accepted: true });
        assert_eq!(seen[1], Seen::Hello { accepted: true });
        assert!(matches!(&seen[2], Seen::Request(frame) if frame.id == 1));
        assert_eq!(seen[3], Seen::Hello { accepted: false });
        let sent = frames(&write_all(&mut conn, &mut stats));
        assert_eq!(sent.len(), 3);
        assert!(matches!(&sent[0], Frame::ShardMap(_)) && matches!(&sent[1], Frame::ShardMap(_)));
        let Frame::Response(refusal) = &sent[2] else { panic!("an error frame") };
        assert_eq!((refusal.id, refusal.status), (POISON_ID, WireStatus::Unauthorized));
        assert!(conn.done(), "request 1 is not waited for");
        conn.on_completion(1, response(2), &mut stats);
        let traces: Vec<RequestTrace> = conn.finished().collect();
        assert_eq!((traces.len(), flushed(&traces)), (1, 0));
    }

    #[test]
    fn a_request_before_an_authenticated_hello_is_refused() {
        for hello in [None, Some(hello_bytes(None)), Some(hello_bytes(Some("wrong")))] {
            let (mut conn, mut stats) = (authenticating_conn(), WireStats::default());
            let mut bytes = hello.clone().unwrap_or_default();
            request_bytes(&mut bytes, 1);
            let seen = feed(&mut conn, &bytes, &mut stats);
            assert!(!seen.iter().any(|s| matches!(s, Seen::Request(_))), "{seen:?}");
            let answered = responses(&write_all(&mut conn, &mut stats));
            assert_eq!(answered.len(), 1);
            assert_eq!((answered[0].id, answered[0].status), (POISON_ID, WireStatus::Unauthorized));
            assert!(conn.done());
            // Only a request that reached the check counts as rejected.
            assert_eq!(stats.requests_rejected, u64::from(hello.is_none()));
        }
    }

    #[test]
    fn a_frame_cut_short_by_eof_is_dropped_without_a_reply() {
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 1);
        request_bytes(&mut bytes, 2);
        let cut = bytes.len() - 5;
        assert_eq!(feed(&mut conn, &bytes[..cut], &mut stats).len(), 1);
        conn.on_eof();
        assert!(conn.next_input(&mut stats).is_none());
        assert!(!conn.done(), "request 1 is still owed");
        conn.on_completion(1, response(2), &mut stats);
        assert_eq!(responses(&write_all(&mut conn, &mut stats)).len(), 1);
        assert!(conn.done());
        assert_eq!((stats.decode_errors, stats.error_frames_sent), (0, 0));
    }

    #[test]
    fn an_oversized_length_prefix_poisons_from_the_header_alone() {
        let (mut conn, mut stats) = (bounded(64, usize::MAX), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 1);
        let declared = u32::MAX.to_le_bytes();
        bytes[6..10].copy_from_slice(&declared);
        // Ten header bytes are enough: nothing is allocated for the body.
        assert!(feed(&mut conn, &bytes[..10], &mut stats).is_empty());
        let answered = responses(&write_all(&mut conn, &mut stats));
        assert_eq!((answered[0].id, answered[0].status), (POISON_ID, WireStatus::InvalidRequest));
        assert!(answered[0].message.contains("limit is 64"), "{}", answered[0].message);
        assert!(conn.done());
    }

    #[test]
    fn an_unsupported_version_is_answered_in_kind_then_closed() {
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 1);
        bytes[4..6].copy_from_slice(&(crate::net::frame::WIRE_VERSION + 1).to_le_bytes());
        feed(&mut conn, &bytes, &mut stats);
        let answered = responses(&write_all(&mut conn, &mut stats));
        assert_eq!(answered[0].status, WireStatus::UnsupportedVersion);
        assert!(conn.done());
    }

    #[test]
    fn a_half_close_with_work_in_flight_closes_after_the_last_flush() {
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 1);
        request_bytes(&mut bytes, 2);
        feed(&mut conn, &bytes, &mut stats);
        conn.on_eof();
        assert!(!conn.reading() && !conn.done());
        conn.on_completion(2, response(2), &mut stats);
        write_all(&mut conn, &mut stats);
        assert!(!conn.done(), "request 1 is still owed");
        conn.on_completion(1, response(2), &mut stats);
        assert!(!conn.done(), "its frame is not written yet");
        conn.on_written(3, &mut stats);
        assert!(!conn.done(), "its frame is only partly written");
        let rest = conn.unwritten().len();
        conn.on_written(rest, &mut stats);
        assert!(conn.done());
        let traces: Vec<RequestTrace> = conn.finished().collect();
        assert_eq!((traces.len(), flushed(&traces)), (2, 2));
    }

    #[test]
    fn a_completion_for_an_overflowed_connection_is_dropped_and_traced_once() {
        let mut stats = WireStats::default();
        let mut conn = bounded(MAX_BODY, 256);
        let mut bytes = Vec::new();
        for id in 0..3 {
            request_bytes(&mut bytes, id);
        }
        feed(&mut conn, &bytes, &mut stats);
        conn.on_completion(0, response(16), &mut stats);
        conn.on_completion(1, response(2), &mut stats);
        let answered = responses(&write_all(&mut conn, &mut stats));
        assert_eq!(answered.len(), 1, "the backlog was dropped for one error frame");
        assert_eq!((answered[0].id, answered[0].status), (POISON_ID, WireStatus::ShuttingDown));
        assert!(answered[0].message.contains("outbound buffer exceeded 256 bytes"));
        assert!(conn.done(), "nothing more will be written, so request 2 is not waited for");
        conn.on_completion(2, response(2), &mut stats);
        let traces: Vec<RequestTrace> = conn.finished().collect();
        assert_eq!((traces.len(), flushed(&traces)), (3, 0));
        assert_eq!(
            (stats.outbound_overflows, stats.frames_sent, stats.error_frames_sent),
            (1, 0, 1)
        );
    }

    #[test]
    fn a_close_records_the_traces_of_unwritten_frames_once() {
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 1);
        request_bytes(&mut bytes, 2);
        feed(&mut conn, &bytes, &mut stats);
        conn.on_completion(1, response(4), &mut stats);
        conn.on_completion(2, response(4), &mut stats);
        assert_eq!(responses(conn.unwritten()).len(), 2);
        conn.on_written(conn.unwritten().len() / 2 + 1, &mut stats);
        conn.on_close();
        let traces: Vec<RequestTrace> = conn.finished().collect();
        assert_eq!((traces.len(), flushed(&traces)), (2, 1), "the first frame was written");
        assert!(conn.finished().next().is_none());
    }

    #[test]
    fn an_overflow_mid_frame_keeps_that_frame_whole_and_ends_with_the_poison_frame() {
        // Each response frame is ≈ 1.1 KB; the cap holds two of them.
        let (mut conn, mut stats) = (bounded(MAX_BODY, 2500), WireStats::default());
        let mut bytes = Vec::new();
        for id in 0..4 {
            request_bytes(&mut bytes, id);
        }
        feed(&mut conn, &bytes, &mut stats);
        conn.on_completion(0, response(16), &mut stats);
        // The socket takes only part of the first frame, then stops.
        let mut socket = conn.unwritten()[..300].to_vec();
        conn.on_written(300, &mut stats);
        conn.on_completion(1, response(16), &mut stats);
        assert_eq!(stats.outbound_overflows, 0);
        conn.on_completion(2, response(16), &mut stats);
        assert_eq!(stats.outbound_overflows, 1);
        conn.on_completion(3, response(16), &mut stats);
        socket.extend(write_all(&mut conn, &mut stats));
        let answered = responses(&socket);
        let ids: Vec<(u64, WireStatus)> = answered.iter().map(|r| (r.id, r.status)).collect();
        assert_eq!(ids, [(0, WireStatus::Ok), (POISON_ID, WireStatus::ShuttingDown)]);
        assert!(conn.done());
        let traces: Vec<RequestTrace> = conn.finished().collect();
        assert_eq!((traces.len(), flushed(&traces)), (4, 1), "only the started frame flushed");
        assert_eq!(stats.bytes_sent, socket.len() as u64);
    }

    #[test]
    fn the_outbound_bytes_compact_without_moving_a_frame_boundary() {
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        for id in 0..40 {
            request_bytes(&mut bytes, id);
        }
        feed(&mut conn, &bytes, &mut stats);
        let mut socket = Vec::new();
        for id in 0..40 {
            conn.on_completion(id, response(8), &mut stats);
            // A socket that takes a little over half of what waits.
            let n = conn.unwritten().len() / 2 + 1;
            socket.extend_from_slice(&conn.unwritten()[..n]);
            conn.on_written(n, &mut stats);
            assert!(conn.out.len() < 4 * 4096, "the written prefix is dropped");
        }
        socket.extend(write_all(&mut conn, &mut stats));
        let ids: Vec<u64> = responses(&socket).iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<u64>>());
        let traces: Vec<RequestTrace> = conn.finished().collect();
        assert_eq!((traces.len(), flushed(&traces)), (40, 40));
    }

    #[test]
    fn a_scrape_is_answered_once_its_head_is_in_and_closes_after_the_write() {
        let mut stats = WireStats::default();
        let mut conn = Conn::default();
        assert!(feed(&mut conn, b"GET /metrics HTTP/1.1\r\nHost: x\r\n", &mut stats).is_empty());
        assert_eq!(feed(&mut conn, b"\r\n", &mut stats), [Seen::Scrape]);
        assert!(!conn.reading());
        conn.send_scrape("dsstc_up 1\n");
        let reply = String::from_utf8(write_all(&mut conn, &mut stats)).expect("text");
        assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("Content-Length: 11\r\nConnection: close\r\n\r\ndsstc_up 1\n"));
        assert!(conn.done());
        assert_eq!(stats, WireStats::default(), "a scrape moves no wire counter");

        let mut overlong = Conn::default();
        assert!(feed(&mut overlong, &[b'x'; MAX_SCRAPE_HEAD + 1], &mut stats).is_empty());
        assert!(overlong.done() && overlong.unwritten().is_empty(), "closed unanswered");
    }

    #[test]
    fn drain_answers_what_is_in_flight() {
        let start = Instant::now();
        let deadline = start + DRAIN_TIMEOUT;
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 1);
        feed(&mut conn, &bytes, &mut stats);
        let later = start + Duration::from_secs(1);
        assert!(!drained(later, deadline, 1, [&conn].into_iter()), "a request is in flight");
        conn.on_completion(1, response(2), &mut stats);
        assert!(!drained(later, deadline, 0, [&conn].into_iter()), "its frame is not written");
        let answered = responses(&write_all(&mut conn, &mut stats));
        assert_eq!((answered[0].id, answered[0].status), (1, WireStatus::Ok));
        assert!(drained(later, deadline, 0, [&conn].into_iter()));
    }

    #[test]
    fn drain_expires_at_its_deadline() {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let (mut conn, mut stats) = (conn(), WireStats::default());
        let mut bytes = Vec::new();
        request_bytes(&mut bytes, 1);
        feed(&mut conn, &bytes, &mut stats);
        let just_before = deadline - Duration::from_millis(1);
        assert!(!drained(just_before, deadline, 1, [&conn].into_iter()));
        assert!(drained(deadline, deadline, 1, [&conn].into_iter()), "no 30 s wait");
    }

    proptest! {
        /// However the socket splits one valid byte stream (a hello,
        /// pipelined requests, sometimes a trailing bad frame), the machine
        /// decodes the same frames, asks for the same actions, counts the
        /// same and queues the same bytes.
        #[test]
        fn any_split_of_a_byte_stream_gives_the_same_frames_and_actions(
            requests in 1u64..6,
            trailing in 0u8..3,
            cuts in (0usize..=10_000, 0usize..=10_000, 0usize..=10_000),
        ) {
            let mut stream = hello_bytes(Some(TOKEN));
            for id in 0..requests {
                request_bytes(&mut stream, id);
            }
            match trailing {
                1 => stream.extend_from_slice(b"not a frame"),
                2 => {
                    let at = stream.len();
                    request_bytes(&mut stream, requests);
                    stream[at + 12] ^= 1; // a flipped body bit
                }
                _ => {}
            }
            let (mut whole, mut whole_stats) = (authenticating_conn(), WireStats::default());
            let expected = feed(&mut whole, &stream, &mut whole_stats);
            let mut cuts = [cuts.0, cuts.1, cuts.2].map(|c| c * stream.len() / 10_000);
            cuts.sort_unstable();
            let (mut split, mut split_stats) = (authenticating_conn(), WireStats::default());
            let mut seen = Vec::new();
            let mut from = 0;
            for to in cuts.into_iter().chain([stream.len()]) {
                seen.extend(feed(&mut split, &stream[from..to], &mut split_stats));
                from = to;
            }
            prop_assert_eq!(&seen, &expected);
            prop_assert_eq!(seen.len() as u64, 1 + requests);
            prop_assert_eq!(&split_stats, &whole_stats);
            // A bad magic is reported with the bytes seen so far, so only
            // the poison frame's message may differ.
            let sent = |conn: &Conn| -> Vec<Frame> {
                let without_message = |frame| match frame {
                    Frame::Response(response) => {
                        Frame::Response(ResponseFrame { message: String::new(), ..response })
                    }
                    other => other,
                };
                frames(conn.unwritten()).into_iter().map(without_message).collect()
            };
            prop_assert_eq!(sent(&split), sent(&whole));
            prop_assert_eq!(split.done(), whole.done());
            prop_assert_eq!(whole.reading(), trailing == 0);
        }
    }
}
