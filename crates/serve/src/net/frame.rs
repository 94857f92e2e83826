//! The wire frame codec: length-prefixed, checksummed request/response
//! frames, in the self-contained little-endian style of
//! [`dsstc_formats::serialize`].
//!
//! # Frame layout
//!
//! Every frame — request or response — shares one envelope:
//!
//! ```text
//! magic   : 4 bytes   b"DSRQ" (request) | b"DSRS" (response)
//!                   | b"DSHI" (hello)   | b"DSMP" (shard map)
//! version : u16 LE    WIRE_VERSION
//! length  : u32 LE    body byte count
//! body    : `length` bytes (direction-specific, little-endian)
//! checksum: u64 LE    dsstc_formats::serialize::checksum over the body
//! ```
//!
//! The request body carries the client-chosen request id, the model key
//! (catalogue tag + sparsity override in permille), the scheduling priority,
//! an optional queue-deadline and the feature matrix; the response body
//! echoes the id and carries either the output features plus the server's
//! per-request measurements, or a status code + message (an **error
//! frame**). A **hello** frame (client → server, optionally carrying an
//! auth token) opens a cluster-aware connection; the server answers with a
//! **shard map** frame carrying the versioned cluster membership (see
//! [`crate::cluster`]). See `docs/WIRE_PROTOCOL.md` for the byte-level
//! specification and a worked hex example.
//!
//! Decoding **never panics**: truncation, a bad magic, an unsupported
//! version, an oversized length prefix, a flipped payload bit or an
//! internally inconsistent body all surface as a [`WireError`]. The
//! [`FrameDecoder`] consumes a raw byte stream incrementally, yielding one
//! frame at a time — several pipelined frames per read, or one frame
//! arriving a byte at a time, both decode identically.

use dsstc_formats::serialize::checksum;
use dsstc_tensor::Matrix;

use crate::cluster::{NodeEntry, ShardMap};
use crate::request::{InferRequest, InferResponse, ModelId, Priority};

/// Magic of a request frame (client → server).
pub const REQUEST_MAGIC: [u8; 4] = *b"DSRQ";

/// Magic of a response frame (server → client).
pub const RESPONSE_MAGIC: [u8; 4] = *b"DSRS";

/// Magic of a hello frame (client → server; opens a cluster-aware
/// connection, optionally carrying an auth token).
pub const HELLO_MAGIC: [u8; 4] = *b"DSHI";

/// Magic of a shard-map frame (server → client; answers a hello with the
/// versioned cluster membership).
pub const SHARD_MAP_MAGIC: [u8; 4] = *b"DSMP";

/// Current wire-protocol version. Bump on any layout change; peers reject
/// every other version with [`WireError::UnsupportedVersion`] (the server
/// answers with a [`WireStatus::UnsupportedVersion`] error frame first, so
/// old clients get a diagnosis instead of a dead socket). Version 2 added
/// the hello / shard-map frame kinds and the `NotMine` / `Unauthorized`
/// statuses; version 3 replaced the FNV-1a frame checksum with the
/// `DSTC` container's word-lane [`checksum`].
pub const WIRE_VERSION: u16 = 3;

/// Envelope bytes around the body: magic + version + length prefix.
pub const HEADER_LEN: usize = 4 + 2 + 4;

/// Trailing checksum bytes after the body.
pub const CHECKSUM_LEN: usize = 8;

/// The `sparsity_permille` body value meaning "no override" (requests
/// against the published per-layer table).
const SPARSITY_NONE: u16 = u16::MAX;

/// How many bytes larger than its request an `Ok` response frame can be:
/// the response's fixed fields (id, status, tags, four f64 measurements,
/// output shape) outgrow the request's fixed fields by 31 bytes while the
/// matrix payloads match (output cols = input cols = the proxy dimension).
/// Receivers of *responses* add this headroom to the request-side
/// `max_frame_len` bound so a legal maximal request cannot elicit a
/// response its own sender must reject.
pub const RESPONSE_HEADROOM: usize = 64;

/// The reserved response id of a connection-poisoning error frame (a
/// framing failure that cannot be attributed to any request). Clients
/// must not use it as a request id; the sequential ids
/// [`crate::net::WireClient`] assigns never reach it.
pub const POISON_ID: u64 = u64::MAX;

/// Why a wire frame could not be decoded (or was rejected).
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The stream ended before the declared frame did.
    Truncated,
    /// The stream does not start with the expected magic.
    BadMagic([u8; 4]),
    /// The frame was written by an unknown protocol version.
    UnsupportedVersion(u16),
    /// The length prefix exceeds the configured frame-size bound.
    Oversized {
        /// Body bytes the length prefix declared.
        declared: usize,
        /// The receiver's configured bound.
        limit: usize,
    },
    /// The body does not match its checksum (bit rot / partial write).
    ChecksumMismatch,
    /// The body is internally inconsistent.
    Malformed(&'static str),
    /// The server answered with an error frame.
    Rejected {
        /// The machine-readable status code.
        status: WireStatus,
        /// The human-readable message the server attached.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Truncated => f.write_str("stream truncated before the declared frame end"),
            WireError::BadMagic(found) => write!(f, "bad frame magic {found:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v}, this peer speaks {WIRE_VERSION}")
            }
            WireError::Oversized { declared, limit } => {
                write!(f, "frame declares {declared} body bytes, limit is {limit}")
            }
            WireError::ChecksumMismatch => f.write_str("frame body checksum mismatch"),
            WireError::Malformed(why) => write!(f, "malformed frame body: {why}"),
            WireError::Rejected { status, message } => {
                write!(f, "server rejected the request ({status:?}): {message}")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// Status byte of a response frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireStatus {
    /// The request was served; the body carries the output features.
    Ok,
    /// The request was malformed (unknown model tag, wrong feature width,
    /// out-of-range sparsity...).
    InvalidRequest,
    /// The server is draining and no longer accepts requests.
    ShuttingDown,
    /// The client spoke a protocol version this server does not.
    UnsupportedVersion,
    /// Admission control rejected the request: the projected queue delay
    /// exhausts its priority class's SLO headroom (or the queue bound is
    /// breached). The connection stays open; retry later or escalate the
    /// request's priority.
    ShedLoad,
    /// This node does not own the request's shard: a **redirect**. The
    /// message names the owning replica group as
    /// `owners=<addr>[,<addr>...];version=<map version>`; the connection
    /// stays open. Cluster-aware clients re-route to an owner (and refresh
    /// their shard map when the version advanced).
    NotMine,
    /// The hello's auth token was missing or wrong; the server closes the
    /// connection after this frame.
    Unauthorized,
}

impl WireStatus {
    /// The status tag as its wire byte.
    pub fn code(&self) -> u8 {
        match self {
            WireStatus::Ok => 0,
            WireStatus::InvalidRequest => 1,
            WireStatus::ShuttingDown => 2,
            WireStatus::UnsupportedVersion => 3,
            WireStatus::ShedLoad => 4,
            WireStatus::NotMine => 5,
            WireStatus::Unauthorized => 6,
        }
    }

    /// Decodes a status byte.
    pub fn from_code(code: u8) -> Option<WireStatus> {
        match code {
            0 => Some(WireStatus::Ok),
            1 => Some(WireStatus::InvalidRequest),
            2 => Some(WireStatus::ShuttingDown),
            3 => Some(WireStatus::UnsupportedVersion),
            4 => Some(WireStatus::ShedLoad),
            5 => Some(WireStatus::NotMine),
            6 => Some(WireStatus::Unauthorized),
            _ => None,
        }
    }
}

/// One decoded request frame: everything a client tells the server about
/// one inference, plus the client-chosen id the response will echo.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed verbatim in the response frame
    /// (pipelined responses may complete out of submission order).
    pub id: u64,
    /// Which catalogue model to run (see [`ModelId::wire_code`]).
    pub model: ModelId,
    /// Uniform weight-sparsity override in permille, if any.
    pub sparsity_permille: Option<u16>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Optional queue-wait SLO in microseconds (`None` = server default).
    pub deadline_us: Option<u32>,
    /// Input features: one row per sample, `proxy_dim` columns.
    pub features: Matrix,
}

impl RequestFrame {
    /// Converts the frame into the in-process request type.
    pub fn into_request(self) -> InferRequest {
        let mut request = InferRequest::new(self.model, self.features).with_priority(self.priority);
        if let Some(permille) = self.sparsity_permille {
            request = request.with_weight_sparsity(f64::from(permille) / 1000.0);
        }
        if let Some(us) = self.deadline_us {
            request = request.with_deadline(std::time::Duration::from_micros(u64::from(us)));
        }
        request
    }

    /// Decodes one request body (the envelope already stripped and the
    /// checksum already verified by [`FrameDecoder`] / [`decode_frame`]).
    fn from_body(body: &[u8]) -> Result<Self, WireError> {
        let mut cursor = Cursor::new(body);
        let id = cursor.u64()?;
        let model = ModelId::from_wire_code(cursor.u8()?)
            .ok_or(WireError::Malformed("unknown model tag"))?;
        let sparsity = match cursor.u16()? {
            SPARSITY_NONE => None,
            p if p <= 1000 => Some(p),
            _ => return Err(WireError::Malformed("sparsity override above 1000 permille")),
        };
        let priority = Priority::from_wire_code(cursor.u8()?)
            .ok_or(WireError::Malformed("unknown priority tag"))?;
        let deadline_us = match cursor.u32()? {
            0 => None,
            us => Some(us),
        };
        let features = cursor.matrix()?;
        cursor.finish()?;
        Ok(RequestFrame { id, model, sparsity_permille: sparsity, priority, deadline_us, features })
    }
}

/// One decoded response frame: either the served output plus the server's
/// per-request measurements, or an error status with a message.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseFrame {
    /// The client-chosen id of the request this answers.
    pub id: u64,
    /// `Ok`, or why the request was rejected.
    pub status: WireStatus,
    /// The served payload (`None` on error frames).
    pub body: Option<ResponseBody>,
    /// Human-readable diagnosis (empty on `Ok` frames).
    pub message: String,
}

/// The measurements and output features of one served request.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseBody {
    /// Which model ran.
    pub model: ModelId,
    /// The priority the request was scheduled at.
    pub priority: Priority,
    /// Index of the pooled device that executed the batch.
    pub device: u16,
    /// How many requests were merged into the executing batch.
    pub batch_size: u16,
    /// Wall-clock queue wait, µs.
    pub queue_us: f64,
    /// Wall-clock batch execution time, µs.
    pub execute_us: f64,
    /// Modelled device time of the whole batch, µs.
    pub modelled_batch_us: f64,
    /// Amortised modelled latency of this request, µs.
    pub modelled_request_us: f64,
    /// Output features.
    pub output: Matrix,
}

impl ResponseFrame {
    /// Unwraps the served payload: `Ok` frames yield their body, error
    /// frames become [`WireError::Rejected`].
    pub fn into_body(self) -> Result<ResponseBody, WireError> {
        if self.status != WireStatus::Ok {
            return Err(WireError::Rejected { status: self.status, message: self.message });
        }
        self.body.ok_or(WireError::Malformed("Ok response without a body"))
    }

    /// Decodes one response body (envelope stripped, checksum verified).
    fn from_body(body: &[u8]) -> Result<Self, WireError> {
        let mut cursor = Cursor::new(body);
        let id = cursor.u64()?;
        let status = WireStatus::from_code(cursor.u8()?)
            .ok_or(WireError::Malformed("unknown status tag"))?;
        if status != WireStatus::Ok {
            let len = cursor.u32()? as usize;
            // Validate in place and copy once; `from_utf8(..to_vec())` would
            // allocate before knowing the bytes are even text.
            let message = std::str::from_utf8(cursor.take(len)?)
                .map_err(|_| WireError::Malformed("error message is not UTF-8"))?
                .to_owned();
            cursor.finish()?;
            return Ok(ResponseFrame { id, status, body: None, message });
        }
        let model = ModelId::from_wire_code(cursor.u8()?)
            .ok_or(WireError::Malformed("unknown model tag"))?;
        let priority = Priority::from_wire_code(cursor.u8()?)
            .ok_or(WireError::Malformed("unknown priority tag"))?;
        let device = cursor.u16()?;
        let batch_size = cursor.u16()?;
        let queue_us = cursor.f64()?;
        let execute_us = cursor.f64()?;
        let modelled_batch_us = cursor.f64()?;
        let modelled_request_us = cursor.f64()?;
        let output = cursor.matrix()?;
        cursor.finish()?;
        Ok(ResponseFrame {
            id,
            status,
            body: Some(ResponseBody {
                model,
                priority,
                device,
                batch_size,
                queue_us,
                execute_us,
                modelled_batch_us,
                modelled_request_us,
                output,
            }),
            message: String::new(),
        })
    }
}

/// One decoded hello frame: a client opening a cluster-aware connection,
/// optionally presenting a shared-secret auth token. The server answers
/// with a [`ShardMapFrame`] (or an `Unauthorized` error frame and a
/// close).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloFrame {
    /// The auth token, if the client presents one. `Some("")` is a
    /// present-but-empty token, distinct on the wire from `None`.
    pub token: Option<String>,
}

/// Hello-body flag bit: a token length + token follows.
const HELLO_HAS_TOKEN: u8 = 0b0000_0001;

impl HelloFrame {
    /// Decodes one hello body (envelope stripped, checksum verified).
    fn from_body(body: &[u8]) -> Result<Self, WireError> {
        let mut cursor = Cursor::new(body);
        let flags = cursor.u8()?;
        if flags & !HELLO_HAS_TOKEN != 0 {
            return Err(WireError::Malformed("unknown hello flags"));
        }
        let token = if flags & HELLO_HAS_TOKEN != 0 {
            let len = cursor.u32()? as usize;
            let token = std::str::from_utf8(cursor.take(len)?)
                .map_err(|_| WireError::Malformed("auth token is not UTF-8"))?
                .to_owned();
            Some(token)
        } else {
            None
        };
        cursor.finish()?;
        Ok(HelloFrame { token })
    }
}

/// One decoded shard-map frame: the versioned cluster membership a server
/// hands a client at hello time (see [`crate::cluster::ShardMap`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMapFrame {
    /// The carried map.
    pub map: ShardMap,
}

impl ShardMapFrame {
    /// Decodes one shard-map body (envelope stripped, checksum verified).
    fn from_body(body: &[u8]) -> Result<Self, WireError> {
        let mut cursor = Cursor::new(body);
        let version = cursor.u64()?;
        let seed = cursor.u64()?;
        let vnodes = cursor.u16()?;
        let replication = cursor.u16()?;
        if vnodes == 0 || replication == 0 {
            return Err(WireError::Malformed("shard map with zero vnodes or replication"));
        }
        let count = cursor.u16()? as usize;
        if count == 0 {
            return Err(WireError::Malformed("shard map without members"));
        }
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            let id = cursor.u16()?;
            let alive = match cursor.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("node liveness is not 0 or 1")),
            };
            let len = cursor.u16()? as usize;
            let addr = std::str::from_utf8(cursor.take(len)?)
                .map_err(|_| WireError::Malformed("node address is not UTF-8"))?
                .to_owned();
            nodes.push(NodeEntry { id, addr, alive });
        }
        cursor.finish()?;
        Ok(ShardMapFrame { map: ShardMap { version, seed, vnodes, replication, nodes } })
    }
}

/// Appends the hello frame presenting `token` (if any) to `out`, envelope
/// and checksum included.
pub fn encode_hello_into(out: &mut Vec<u8>, token: Option<&str>) {
    seal_into(out, HELLO_MAGIC, |body| match token {
        Some(token) => {
            body.push(HELLO_HAS_TOKEN);
            let token = token.as_bytes();
            put_u32(body, token.len().min(u32::MAX as usize) as u32);
            body.extend_from_slice(token);
        }
        None => body.push(0),
    });
}

/// Appends the shard-map frame carrying `map` to `out`, envelope and
/// checksum included.
pub fn encode_shard_map_into(out: &mut Vec<u8>, map: &ShardMap) {
    seal_into(out, SHARD_MAP_MAGIC, |body| {
        put_u64(body, map.version);
        put_u64(body, map.seed);
        put_u16(body, map.vnodes);
        put_u16(body, map.replication);
        put_u16(body, map.nodes.len().min(usize::from(u16::MAX)) as u16);
        for node in map.nodes.iter().take(usize::from(u16::MAX)) {
            put_u16(body, node.id);
            body.push(u8::from(node.alive));
            let addr = node.addr.as_bytes();
            put_u16(body, addr.len().min(usize::from(u16::MAX)) as u16);
            body.extend_from_slice(&addr[..addr.len().min(usize::from(u16::MAX))]);
        }
    });
}

/// Either decoded frame direction (what [`FrameDecoder`] yields).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A client → server frame.
    Request(RequestFrame),
    /// A server → client frame.
    Response(ResponseFrame),
    /// A client → server connection-opening handshake.
    Hello(HelloFrame),
    /// A server → client cluster-membership answer.
    ShardMap(ShardMapFrame),
}

/// Appends one sealed frame to `out`: writes the envelope, lets `fill`
/// append the body **in place**, then back-patches the length prefix and
/// checksums the written body slice. Byte-identical to building the body in
/// its own `Vec` and copying it into a fresh envelope, without either
/// allocation — the hot-path encoders below serialise straight into a
/// connection's outbound buffer through this.
fn seal_into(out: &mut Vec<u8>, magic: [u8; 4], fill: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&magic);
    put_u16(out, WIRE_VERSION);
    let length_at = out.len();
    put_u32(out, 0); // back-patched once the body length is known
    let body_start = out.len();
    fill(out);
    let body_len: u32 =
        (out.len() - body_start).try_into().expect("frame bodies are bounded well below 4 GiB");
    out[length_at..length_at + 4].copy_from_slice(&body_len.to_le_bytes());
    let sum = checksum(&out[body_start..]);
    put_u64(out, sum);
}

/// Appends the request frame for `request` under the client-chosen `id` to
/// `out`, envelope and checksum included, serialising the borrowed feature
/// matrix in place. The deadline is clamped to >= 1 µs: the wire encodes
/// "no deadline" as 0, and a sub-microsecond SLO must stay an (expired) SLO
/// on the far side, not silently become the server default.
pub fn encode_request_into(out: &mut Vec<u8>, id: u64, request: &InferRequest) {
    let sparsity = crate::ModelKey::new(request.model, request.weight_sparsity).sparsity_permille;
    let deadline = request.deadline.map(|d| d.as_micros().clamp(1, u128::from(u32::MAX)) as u32);
    let features = &request.features;
    out.reserve(HEADER_LEN + 24 + features.as_slice().len() * 4 + CHECKSUM_LEN);
    seal_into(out, REQUEST_MAGIC, |body| {
        put_u64(body, id);
        body.push(request.model.wire_code());
        put_u16(body, sparsity.unwrap_or(SPARSITY_NONE));
        body.push(request.priority.wire_code());
        put_u32(body, deadline.unwrap_or(0));
        put_matrix(body, features);
    });
}

/// Appends the `Ok` response frame answering `id` to `out`, envelope and
/// checksum included, serialising the borrowed output matrix in place.
pub fn encode_response_into(out: &mut Vec<u8>, id: u64, response: &InferResponse) {
    let output = &response.output;
    out.reserve(HEADER_LEN + 55 + output.as_slice().len() * 4 + CHECKSUM_LEN);
    seal_into(out, RESPONSE_MAGIC, |body| {
        put_u64(body, id);
        body.push(WireStatus::Ok.code());
        body.push(response.model.wire_code());
        body.push(response.priority.wire_code());
        put_u16(body, response.device.min(usize::from(u16::MAX)) as u16);
        put_u16(body, response.batch_size.min(usize::from(u16::MAX)) as u16);
        for us in [
            response.queue_us,
            response.execute_us,
            response.modelled_batch_us,
            response.modelled_request_us,
        ] {
            put_f64(body, us);
        }
        put_matrix(body, output);
    });
}

/// Appends the error frame answering `id` with `status` and `message` to
/// `out`, envelope and checksum included.
pub fn encode_error_into(out: &mut Vec<u8>, id: u64, status: WireStatus, message: &str) {
    debug_assert!(status != WireStatus::Ok, "error frames carry a non-Ok status");
    seal_into(out, RESPONSE_MAGIC, |body| {
        put_u64(body, id);
        body.push(status.code());
        let message = message.as_bytes();
        put_u32(body, message.len().min(u32::MAX as usize) as u32);
        body.extend_from_slice(message);
    });
}

/// Decodes exactly one frame from the front of `bytes`.
///
/// Returns `Ok(None)` when `bytes` is a (possibly empty) prefix of a valid
/// frame — the caller should read more. Returns the frame and its total
/// encoded length on success. `max_body_len` bounds the length prefix
/// *before* any allocation, so a hostile 4 GiB prefix is rejected from the
/// first ten bytes.
pub fn decode_frame(
    bytes: &[u8],
    max_body_len: usize,
) -> Result<Option<(Frame, usize)>, WireError> {
    const MAGICS: [[u8; 4]; 4] = [REQUEST_MAGIC, RESPONSE_MAGIC, HELLO_MAGIC, SHARD_MAP_MAGIC];
    if bytes.len() < HEADER_LEN {
        // An early bad magic is still reportable before the full header.
        let probe = bytes.len().min(4);
        if probe > 0 && MAGICS.iter().all(|magic| bytes[..probe] != magic[..probe]) {
            let mut found = [0u8; 4];
            found[..probe].copy_from_slice(&bytes[..probe]);
            return Err(WireError::BadMagic(found));
        }
        return Ok(None);
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if !MAGICS.contains(&magic) {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2-byte slice"));
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let body_len = u32::from_le_bytes(bytes[6..10].try_into().expect("4-byte slice")) as usize;
    if body_len > max_body_len {
        return Err(WireError::Oversized { declared: body_len, limit: max_body_len });
    }
    let total = HEADER_LEN + body_len + CHECKSUM_LEN;
    if bytes.len() < total {
        return Ok(None);
    }
    let body = &bytes[HEADER_LEN..HEADER_LEN + body_len];
    let declared =
        u64::from_le_bytes(bytes[HEADER_LEN + body_len..total].try_into().expect("8-byte slice"));
    if checksum(body) != declared {
        return Err(WireError::ChecksumMismatch);
    }
    let frame = match magic {
        REQUEST_MAGIC => Frame::Request(RequestFrame::from_body(body)?),
        RESPONSE_MAGIC => Frame::Response(ResponseFrame::from_body(body)?),
        HELLO_MAGIC => Frame::Hello(HelloFrame::from_body(body)?),
        _ => Frame::ShardMap(ShardMapFrame::from_body(body)?),
    };
    Ok(Some((frame, total)))
}

/// Incremental frame decoder over a raw byte stream.
///
/// Feed it whatever the socket produced — half a header, three pipelined
/// frames, anything in between — and pull complete frames out. A returned
/// error is sticky for the connection: framing has lost sync and the stream
/// cannot be trusted past it.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buffer: Vec<u8>,
    /// Consumed prefix of `buffer`: frames decode at this offset, so
    /// pulling a frame is O(frame), not an O(buffer) `drain` memmove of
    /// everything still pending behind it. The prefix is reclaimed lazily —
    /// see `compact`.
    read_at: usize,
    max_body_len: usize,
}

impl FrameDecoder {
    /// A decoder enforcing `max_body_len` on every frame's length prefix.
    pub fn new(max_body_len: usize) -> Self {
        FrameDecoder { buffer: Vec::new(), read_at: 0, max_body_len }
    }

    /// Appends freshly read bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Pulls the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match decode_frame(&self.buffer[self.read_at..], self.max_body_len)? {
            Some((frame, consumed)) => {
                self.read_at += consumed;
                self.compact();
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending_bytes(&self) -> usize {
        self.buffer.len() - self.read_at
    }

    /// Reclaims the consumed prefix — but only when it dominates the
    /// buffer, so a burst of pipelined frames pays one amortised memmove
    /// instead of one per frame. A fully drained buffer resets for free.
    fn compact(&mut self) {
        if self.read_at == self.buffer.len() {
            self.buffer.clear();
            self.read_at = 0;
        } else if self.read_at > self.buffer.len() / 2 {
            self.buffer.copy_within(self.read_at.., 0);
            self.buffer.truncate(self.buffer.len() - self.read_at);
            self.read_at = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian body primitives.
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u32(out, m.rows().try_into().expect("row count fits u32"));
    put_u32(out, m.cols().try_into().expect("column count fits u32"));
    for &v in m.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader over one frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2-byte slice")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    fn matrix(&mut self) -> Result<Matrix, WireError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        if rows == 0 || cols == 0 {
            return Err(WireError::Malformed("feature matrices are non-empty"));
        }
        let elements =
            rows.checked_mul(cols).ok_or(WireError::Malformed("matrix shape overflows"))?;
        // The body length already bounds the allocation; re-check so a lying
        // shape cannot request more than the body holds.
        let byte_len =
            elements.checked_mul(4).ok_or(WireError::Malformed("matrix shape overflows"))?;
        if byte_len > self.bytes.len().saturating_sub(self.pos) {
            return Err(WireError::Truncated);
        }
        // One bounds check for the whole payload, then a straight-line
        // chunked conversion the compiler can vectorise — the per-element
        // `take(4)` loop re-checked bounds on every element.
        let data = self
            .take(byte_len)?
            .chunks_exact(4)
            .map(|chunk| f32::from_le_bytes(chunk.try_into().expect("4-byte chunk")))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Rejects trailing garbage after the last field.
    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after the last body field"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsstc_tensor::SparsityPattern;
    use proptest::prelude::*;

    fn frame(seed: u64) -> RequestFrame {
        RequestFrame {
            id: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            model: ModelId::ALL[(seed % 6) as usize],
            sparsity_permille: if seed.is_multiple_of(3) {
                Some((seed % 1001) as u16)
            } else {
                None
            },
            priority: Priority::ALL[(seed % 3) as usize],
            deadline_us: if seed.is_multiple_of(2) {
                Some(1 + (seed % 10_000) as u32)
            } else {
                None
            },
            features: Matrix::random_sparse(
                1 + (seed % 5) as usize,
                1 + (seed % 67) as usize,
                0.4,
                SparsityPattern::Uniform,
                seed,
            ),
        }
    }

    fn decode_one(bytes: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
        decode_frame(bytes, 1 << 24)
    }

    /// `frame`'s wire bytes, written by the one request encoder.
    fn request_bytes(frame: &RequestFrame) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request_into(&mut out, frame.id, &frame.clone().into_request());
        out
    }

    /// An error frame's wire bytes and the frame they must decode to.
    fn error_frame(id: u64, status: WireStatus, message: &str) -> (Vec<u8>, ResponseFrame) {
        let mut out = Vec::new();
        encode_error_into(&mut out, id, status, message);
        (out, ResponseFrame { id, status, body: None, message: message.to_owned() })
    }

    #[test]
    fn request_roundtrips_bit_for_bit() {
        for seed in 0..24 {
            let sent = frame(seed);
            let mut bytes = vec![0xAA; 5]; // the encoder appends, never clobbers
            encode_request_into(&mut bytes, sent.id, &sent.clone().into_request());
            assert_eq!(&bytes[..5], &[0xAA; 5]);
            let (decoded, consumed) = decode_one(&bytes[5..]).expect("decodes").expect("complete");
            assert_eq!(consumed, bytes.len() - 5);
            assert_eq!(decoded, Frame::Request(sent));
        }
    }

    #[test]
    fn response_roundtrips_bit_for_bit() {
        let response = InferResponse {
            id: 4242, // the server's id; the frame carries the client's
            model: ModelId::BertBase,
            output: Matrix::random_sparse(4, 64, 0.3, SparsityPattern::Uniform, 9),
            queue_us: 12.5,
            execute_us: 99.25,
            modelled_batch_us: 1234.5,
            modelled_request_us: 176.357,
            batch_size: 7,
            device: 3,
            encoding: dsstc_kernels::EncodingSpec::for_gpu(&dsstc_sim::GpuConfig::v100()),
            priority: Priority::High,
            trace: crate::telemetry::RequestTrace::new(),
        };
        let mut bytes = Vec::new();
        encode_response_into(&mut bytes, 42, &response);
        let (decoded, consumed) = decode_one(&bytes).expect("decodes").expect("complete");
        assert_eq!(consumed, bytes.len());
        let sent = ResponseFrame {
            id: 42,
            status: WireStatus::Ok,
            body: Some(ResponseBody {
                model: ModelId::BertBase,
                priority: Priority::High,
                device: 3,
                batch_size: 7,
                queue_us: 12.5,
                execute_us: 99.25,
                modelled_batch_us: 1234.5,
                modelled_request_us: 176.357,
                output: response.output,
            }),
            message: String::new(),
        };
        assert_eq!(decoded, Frame::Response(sent));
    }

    #[test]
    fn oversized_device_and_batch_counts_saturate_on_the_wire() {
        let response = InferResponse {
            id: 1,
            model: ModelId::RnnLm,
            output: Matrix::zeros(1, 4),
            queue_us: 0.0,
            execute_us: 0.0,
            modelled_batch_us: 0.0,
            modelled_request_us: 0.0,
            batch_size: 70_000,
            device: usize::MAX,
            encoding: dsstc_kernels::EncodingSpec::for_gpu(&dsstc_sim::GpuConfig::v100()),
            priority: Priority::Low,
            trace: crate::telemetry::RequestTrace::new(),
        };
        let mut bytes = Vec::new();
        encode_response_into(&mut bytes, 5, &response);
        let (decoded, _) = decode_one(&bytes).expect("decodes").expect("complete");
        let Frame::Response(frame) = decoded else { panic!("response frame") };
        let body = frame.into_body().expect("an Ok frame");
        assert_eq!((body.device, body.batch_size), (u16::MAX, u16::MAX));
    }

    #[test]
    fn error_frame_roundtrips_with_message() {
        for (status, message) in [
            (WireStatus::InvalidRequest, "features have 9 columns"),
            (WireStatus::ShuttingDown, ""),
            (WireStatus::UnsupportedVersion, "unsupported wire version 2, this peer speaks 3"),
            (WireStatus::NotMine, "owners=127.0.0.1:7401;version=3"),
            (WireStatus::Unauthorized, "hello token rejected"),
        ] {
            let (bytes, sent) = error_frame(7, status, message);
            let (decoded, _) = decode_one(&bytes).expect("decodes").expect("complete");
            assert_eq!(decoded, Frame::Response(sent));
        }
    }

    #[test]
    fn request_converts_to_infer_request_and_back() {
        let sent = frame(3);
        let request = sent.clone().into_request();
        assert_eq!(request.model, sent.model);
        assert_eq!(request.priority, sent.priority);
        assert_eq!(
            crate::ModelKey::new(request.model, request.weight_sparsity).sparsity_permille,
            sent.sparsity_permille
        );
        let (back, _) = decode_one(&request_bytes(&sent)).expect("decodes").expect("complete");
        assert_eq!(back, Frame::Request(sent));
    }

    #[test]
    fn sub_microsecond_deadline_stays_a_deadline_over_the_wire() {
        use std::time::Duration;
        let request = InferRequest::new(ModelId::RnnLm, Matrix::zeros(1, 8))
            .with_deadline(Duration::from_nanos(500));
        let mut bytes = Vec::new();
        encode_request_into(&mut bytes, 0, &request);
        let (decoded, _) = decode_one(&bytes).expect("decodes").expect("complete");
        let Frame::Request(decoded) = decoded else { panic!("request frame") };
        // Encoded as the minimum expressible SLO, never the 0 = "server
        // default" sentinel.
        assert_eq!(decoded.deadline_us, Some(1));
        assert_eq!(decoded.into_request().deadline, Some(Duration::from_micros(1)));
    }

    #[test]
    fn truncation_at_any_length_never_panics() {
        let bytes = request_bytes(&frame(11));
        for len in 0..bytes.len() {
            match decode_one(&bytes[..len]) {
                Ok(None) => {}
                other => panic!("prefix of {len} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected_early() {
        assert!(matches!(decode_one(b"HTTP"), Err(WireError::BadMagic(_))));
        assert!(matches!(decode_one(b"GE"), Err(WireError::BadMagic(_))));
        // A correct prefix of any magic is "need more bytes", not an error.
        assert!(matches!(decode_one(b"DS"), Ok(None)));
        assert!(matches!(decode_one(b"DSR"), Ok(None)));
        assert!(matches!(decode_one(b"DSH"), Ok(None)));
        assert!(matches!(decode_one(b"DSM"), Ok(None)));
        // ...while a wrong fourth byte is rejected from four bytes.
        assert!(matches!(decode_one(b"DSRX"), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn version_and_size_bounds_are_enforced() {
        let mut bytes = request_bytes(&frame(5));
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(decode_one(&bytes), Err(WireError::UnsupportedVersion(_))));

        let bytes = request_bytes(&frame(5));
        assert!(matches!(decode_frame(&bytes, 4), Err(WireError::Oversized { limit: 4, .. })));
    }

    #[test]
    fn flipped_body_byte_fails_the_checksum() {
        let mut bytes = request_bytes(&frame(9));
        let body_byte = HEADER_LEN + 3;
        bytes[body_byte] ^= 0x40;
        assert!(matches!(decode_one(&bytes), Err(WireError::ChecksumMismatch)));
    }

    #[test]
    fn decoder_handles_pipelined_and_fragmented_frames() {
        let frames: Vec<RequestFrame> = (0..5).map(frame).collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&request_bytes(f));
        }
        // Feed in awkward 7-byte fragments.
        let mut decoder = FrameDecoder::new(1 << 24);
        let mut decoded = Vec::new();
        for chunk in stream.chunks(7) {
            decoder.feed(chunk);
            while let Some(f) = decoder.next_frame().expect("stream stays in sync") {
                decoded.push(f);
            }
        }
        assert_eq!(decoded.len(), frames.len());
        for (d, sent) in decoded.into_iter().zip(frames) {
            assert_eq!(d, Frame::Request(sent));
        }
        assert_eq!(decoder.pending_bytes(), 0);
    }

    #[test]
    fn decoder_read_offset_survives_single_burst_and_trailing_fragment() {
        // One big feed of many pipelined frames plus a partial trailer: the
        // read-offset cursor must hand back every frame without losing sync,
        // and the pending count must track the undecoded remainder exactly.
        let frames: Vec<RequestFrame> = (10..30).map(frame).collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&request_bytes(f));
        }
        let tail = request_bytes(&frame(99));
        stream.extend_from_slice(&tail[..tail.len() - 3]);

        let mut decoder = FrameDecoder::new(1 << 24);
        decoder.feed(&stream);
        let mut decoded = Vec::new();
        while let Some(f) = decoder.next_frame().expect("in sync") {
            decoded.push(f);
        }
        assert_eq!(decoded.len(), frames.len());
        for (d, sent) in decoded.into_iter().zip(frames) {
            assert_eq!(d, Frame::Request(sent));
        }
        assert_eq!(decoder.pending_bytes(), tail.len() - 3);
        // The missing trailer completes the final frame.
        decoder.feed(&tail[tail.len() - 3..]);
        let last = decoder.next_frame().expect("in sync").expect("complete");
        assert_eq!(last, Frame::Request(frame(99)));
        assert_eq!(decoder.pending_bytes(), 0);
    }

    #[test]
    fn every_wire_status_round_trips_and_unknown_codes_fail() {
        for status in [
            WireStatus::Ok,
            WireStatus::InvalidRequest,
            WireStatus::ShuttingDown,
            WireStatus::UnsupportedVersion,
            WireStatus::ShedLoad,
            WireStatus::NotMine,
            WireStatus::Unauthorized,
        ] {
            assert_eq!(WireStatus::from_code(status.code()), Some(status));
        }
        assert_eq!(WireStatus::ShedLoad.code(), 4, "wire byte is part of the protocol");
        for code in 7..=u8::MAX {
            assert_eq!(WireStatus::from_code(code), None);
        }
    }

    /// The worked examples of `docs/WIRE_PROTOCOL.md` are what the codec
    /// writes, byte for byte: the document's two hex dumps are the request
    /// frame and the error frame answering it.
    #[test]
    fn the_documented_frames_encode_to_the_documented_bytes() {
        let doc = include_str!("../../../../docs/WIRE_PROTOCOL.md");
        let mut dumps: Vec<Vec<u8>> = Vec::new();
        for line in doc.lines() {
            let Some((offset, row)) = line.split_once("  ") else { continue };
            if offset.len() != 4 || !offset.bytes().all(|b| b.is_ascii_hexdigit()) {
                continue;
            }
            if offset == "0000" {
                dumps.push(Vec::new());
            }
            let dump = dumps.last_mut().expect("a dump starts at offset 0000");
            dump.extend(row.split_whitespace().map(|b| u8::from_str_radix(b, 16).expect("hex")));
        }
        let request = RequestFrame {
            id: 7,
            model: ModelId::RnnLm,
            sparsity_permille: Some(900),
            priority: Priority::High,
            deadline_us: Some(2000),
            features: Matrix::from_vec(1, 4, vec![1.0, 0.5, 0.0, 2.0]),
        };
        let (error, _) = error_frame(7, WireStatus::InvalidRequest, "bad");
        assert_eq!(dumps, [request_bytes(&request), error]);
    }

    /// Append-only regression guard for the wire tables: the magics,
    /// version and status bytes below are the protocol. Any edit that
    /// changes an existing value (rather than appending a new one) breaks
    /// deployed peers and must bump `WIRE_VERSION` instead.
    #[test]
    fn wire_tables_are_append_only() {
        assert_eq!(WIRE_VERSION, 3, "version 3 replaced the FNV-1a frame checksum");
        assert_eq!(REQUEST_MAGIC, *b"DSRQ");
        assert_eq!(RESPONSE_MAGIC, *b"DSRS");
        assert_eq!(HELLO_MAGIC, *b"DSHI");
        assert_eq!(SHARD_MAP_MAGIC, *b"DSMP");
        let table: [(WireStatus, u8); 7] = [
            (WireStatus::Ok, 0),
            (WireStatus::InvalidRequest, 1),
            (WireStatus::ShuttingDown, 2),
            (WireStatus::UnsupportedVersion, 3),
            (WireStatus::ShedLoad, 4),
            (WireStatus::NotMine, 5),
            (WireStatus::Unauthorized, 6),
        ];
        for (status, code) in table {
            assert_eq!(status.code(), code, "{status:?} moved in the status table");
        }
    }

    fn sample_map() -> ShardMap {
        ShardMap {
            version: 7,
            seed: 0xDEAD_BEEF,
            vnodes: 64,
            replication: 2,
            nodes: vec![
                NodeEntry { id: 0, addr: "127.0.0.1:7400".into(), alive: true },
                NodeEntry { id: 1, addr: "127.0.0.1:7401".into(), alive: false },
                NodeEntry { id: 2, addr: "[::1]:7402".into(), alive: true },
            ],
        }
    }

    #[test]
    fn hello_and_shard_map_frames_round_trip() {
        for token in [None, Some(String::new()), Some("open sesame".to_string())] {
            let mut bytes = Vec::new();
            encode_hello_into(&mut bytes, token.as_deref());
            let (decoded, consumed) = decode_one(&bytes).expect("decodes").expect("complete");
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, Frame::Hello(HelloFrame { token }));
        }
        let mut bytes = Vec::new();
        encode_shard_map_into(&mut bytes, &sample_map());
        let (decoded, consumed) = decode_one(&bytes).expect("decodes").expect("complete");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, Frame::ShardMap(ShardMapFrame { map: sample_map() }));
    }

    #[test]
    fn hello_and_shard_map_truncation_never_panics() {
        let (mut hello, mut shard_map) = (Vec::new(), Vec::new());
        encode_hello_into(&mut hello, Some("t"));
        encode_shard_map_into(&mut shard_map, &sample_map());
        for bytes in [hello, shard_map] {
            for len in 0..bytes.len() {
                match decode_one(&bytes[..len]) {
                    Ok(None) => {}
                    other => panic!("prefix of {len} bytes gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn malformed_hello_and_shard_map_bodies_are_rejected() {
        // Unknown hello flag bits.
        let mut out = Vec::new();
        seal_into(&mut out, HELLO_MAGIC, |body| body.push(0x02));
        assert!(matches!(decode_one(&out), Err(WireError::Malformed(_))));
        // A shard map with no members.
        let mut out = Vec::new();
        seal_into(&mut out, SHARD_MAP_MAGIC, |body| {
            put_u64(body, 1);
            put_u64(body, 0);
            put_u16(body, 64);
            put_u16(body, 2);
            put_u16(body, 0);
        });
        assert!(matches!(decode_one(&out), Err(WireError::Malformed(_))));
        // Liveness bytes other than 0/1.
        let mut out = Vec::new();
        seal_into(&mut out, SHARD_MAP_MAGIC, |body| {
            put_u64(body, 1);
            put_u64(body, 0);
            put_u16(body, 64);
            put_u16(body, 2);
            put_u16(body, 1);
            put_u16(body, 0);
            body.push(9);
            put_u16(body, 0);
        });
        assert!(matches!(decode_one(&out), Err(WireError::Malformed(_))));
    }

    #[test]
    fn a_shed_load_error_frame_round_trips() {
        let (bytes, sent) =
            error_frame(88, WireStatus::ShedLoad, "load shed: projected queue delay");
        let (decoded, consumed) = decode_one(&bytes).expect("decodes").expect("complete");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, Frame::Response(sent.clone()));
        match sent.into_body() {
            Err(WireError::Rejected { status, message }) => {
                assert_eq!(status, WireStatus::ShedLoad);
                assert!(message.contains("load shed"));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn any_request_roundtrips(seed in proptest::any::<u64>()) {
            let sent = frame(seed);
            let bytes = request_bytes(&sent);
            let (decoded, consumed) = decode_one(&bytes).expect("decodes").expect("complete");
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(decoded, Frame::Request(sent));
        }

        #[test]
        fn any_truncation_is_need_more_not_panic(seed in proptest::any::<u64>(), cut in 0usize..=1) {
            let bytes = request_bytes(&frame(seed));
            // Cut either within the envelope or within the body/checksum.
            let len = if cut == 0 { bytes.len().min(seed as usize % (HEADER_LEN + 1)) }
                      else { HEADER_LEN + (seed as usize % (bytes.len() - HEADER_LEN)) };
            prop_assert!(matches!(decode_one(&bytes[..len]), Ok(None)));
        }

        #[test]
        fn any_single_byte_corruption_is_an_error_not_a_panic(
            seed in proptest::any::<u64>(),
            flip in proptest::any::<u64>(),
            bit in 0u8..8,
        ) {
            let sent = frame(seed);
            let mut bytes = request_bytes(&sent);
            let at = (flip % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << bit;
            // Any outcome but a panic or a silently different frame is fine:
            // either an error, a request for more bytes (length prefix grew),
            // or — if the flip hit a don't-care encoding bit — the original.
            match decode_one(&bytes) {
                Err(_) | Ok(None) => {}
                Ok(Some((Frame::Request(decoded), _))) => prop_assert_eq!(decoded, sent),
                Ok(Some((Frame::Response(_), _))) => {
                    // The checksum covers the body only, so flipping the
                    // magic's Q<->S bit can legally re-type the frame; any
                    // other byte must not survive as a valid response.
                    prop_assert!(at == 3 && bit == 1, "byte {at} bit {bit} re-typed the frame");
                }
                Ok(Some((Frame::Hello(_) | Frame::ShardMap(_), _))) => {
                    // No single-bit flip of b"DSRQ" reaches b"DSHI" or
                    // b"DSMP" (each differs in at least two bits).
                    prop_assert!(false, "byte {at} bit {bit} re-typed a request to a handshake");
                }
            }
        }
    }
}
