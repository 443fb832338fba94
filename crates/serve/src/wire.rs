//! The wire protocol: length-prefixed JSON over TCP, with request
//! multiplexing.
//!
//! A deliberately minimal, dependency-free protocol for driving a
//! [`ServeRuntime`](crate::runtime::ServeRuntime) from another process:
//!
//! * **Framing** — every message is a 4-byte big-endian length followed by
//!   that many bytes of UTF-8 JSON. Framing is independent of payload
//!   content, so malformed JSON never desynchronises the stream; frames
//!   whose *claimed* length exceeds [`MAX_FRAME_BYTES`] are rejected from
//!   the header alone, and payload buffers grow only as bytes actually
//!   arrive — a peer claiming a 16 MiB frame and then trickling (or
//!   sending nothing) pins at most one read-chunk of memory, not the
//!   claimed size.
//! * **Requests** — objects with an `"op"` field:
//!   `{"op":"predict","model":"iris","features":[0.1,…]}`,
//!   `{"op":"models"}`, `{"op":"metrics"}`, `{"op":"metrics_text"}`
//!   (Prometheus-style text exposition under `"text"`),
//!   `{"op":"trace","last":N}` (the `N` most recent completed request
//!   timelines — see [`crate::trace`]), `{"op":"ping"}`.
//! * **Request ids / multiplexing** — a request may carry an `"id"` field
//!   (any JSON value; clients normally use integers). The response echoes
//!   the same `"id"` verbatim. A client may pipeline **any number of
//!   requests** on one connection; the id matches a response to its
//!   request. Requests without an `"id"` are answered without one, so a
//!   strictly one-at-a-time client — [`WireClient::call`] — needs no id
//!   bookkeeping.
//! * **Responses** — `{"ok":true,…}` on success;
//!   `{"ok":false,"kind":"…","error":"…"}` on failure, where `kind` is the
//!   stable [`ServeError::kind`] discriminator (`"saturated"` is the
//!   wire-level backpressure signal: back off and retry).
//!
//! Numbers are serialised with shortest-round-trip formatting, so the
//! probabilities and fidelities a remote client parses are bit-identical
//! to what an in-process [`Client`] receives.
//!
//! The readiness-driven event-loop
//! [`WireServer`](crate::eventloop::WireServer) serves this protocol.
//! This module owns framing, request interpretation, response
//! construction, the robustness knobs ([`WireConfig`]), and the client.

use crate::error::ServeError;
use crate::json::Json;
use crate::metrics::RuntimeStats;
use crate::runtime::{env_nonempty, parse_positive, Client, ServeResponse};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on a single frame's payload, rejected from the length
/// header alone — before any payload is buffered.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Granularity of payload reads: buffers grow by at most this much per
/// read, so memory tracks *received* bytes, never the untrusted claimed
/// length.
pub(crate) const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Pause after a persistent `accept` failure (`EMFILE`/`ENFILE` — the
/// process or system is out of file descriptors). The listener stays
/// readable while connections are pending, so a level-triggered poll
/// would otherwise re-report it instantly and turn the accept loop into
/// a 100%-CPU livelock; backing off keeps the server alive (and every
/// established connection served) until descriptors free up.
pub(crate) const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Robustness knobs of the TCP frontend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireConfig {
    /// Maximum simultaneously open connections; over-cap connections are
    /// answered with a retryable `saturated` error frame and closed.
    pub max_connections: usize,
    /// Idle deadline on the read side: a peer that makes no read progress
    /// for this long — including one that never sends a length header —
    /// is disconnected. `None` disables the deadline (trusted-network use
    /// only).
    pub read_timeout: Option<Duration>,
    /// Deadline for a peer to drain pending responses: a connection with
    /// buffered output that makes no write progress for this long is
    /// disconnected. `None` disables it.
    pub write_timeout: Option<Duration>,
    /// Number of event-loop shards of the
    /// [`WireServer`](crate::eventloop::WireServer): independent epoll
    /// loops, each owning a subset of the connections and answering its
    /// predicts on its own thread.
    pub shards: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_connections: 1024,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            shards: 1,
        }
    }
}

impl WireConfig {
    /// Reads the wire knobs from the environment on top of the defaults:
    /// `QUCLASSI_MAX_CONNECTIONS` (positive integer),
    /// `QUCLASSI_WIRE_TIMEOUT_MS` (milliseconds for both read and write;
    /// `0` disables the deadlines), and `QUCLASSI_WIRE_SHARDS` (positive
    /// integer number of event-loop shards).
    ///
    /// # Errors
    /// A variable that is set but malformed is rejected with
    /// [`ServeError::InvalidConfig`] — the same contract as
    /// `ServeConfig::from_env` and `QUCLASSI_THREADS`.
    pub fn from_env() -> Result<Self, ServeError> {
        let mut config = WireConfig::default();
        if let Some(raw) = env_nonempty("QUCLASSI_MAX_CONNECTIONS") {
            config.max_connections = parse_positive("QUCLASSI_MAX_CONNECTIONS", &raw)?;
        }
        if let Some(raw) = env_nonempty("QUCLASSI_WIRE_TIMEOUT_MS") {
            let ms: u64 = raw.trim().parse().map_err(|_| {
                ServeError::InvalidConfig(format!(
                    "QUCLASSI_WIRE_TIMEOUT_MS must be a non-negative integer \
                     (milliseconds; 0 disables the deadline), got '{raw}'"
                ))
            })?;
            let timeout = (ms > 0).then(|| Duration::from_millis(ms));
            config.read_timeout = timeout;
            config.write_timeout = timeout;
        }
        if let Some(raw) = env_nonempty("QUCLASSI_WIRE_SHARDS") {
            config.shards = parse_positive("QUCLASSI_WIRE_SHARDS", &raw)?;
        }
        config.validate()?;
        Ok(config)
    }

    /// Checks the invariants (`max_connections ≥ 1`, `shards ≥ 1`,
    /// non-zero deadlines).
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_connections == 0 {
            return Err(ServeError::InvalidConfig(
                "max_connections must be at least 1".to_string(),
            ));
        }
        if self.shards == 0 {
            return Err(ServeError::InvalidConfig(
                "shards must be at least 1".to_string(),
            ));
        }
        for (name, timeout) in [
            ("read_timeout", self.read_timeout),
            ("write_timeout", self.write_timeout),
        ] {
            if timeout == Some(Duration::ZERO) {
                // set_read_timeout(Some(ZERO)) is a platform error; the
                // explicit "disabled" spelling is None.
                return Err(ServeError::InvalidConfig(format!(
                    "{name} must be positive (use None to disable the deadline)"
                )));
            }
        }
        Ok(())
    }
}

/// Writes one length-prefixed frame. Header and payload go out in a
/// single write so a request is never split across two TCP segments — a
/// two-segment frame interacts with Nagle's algorithm and delayed ACKs to
/// add ~40 ms per round trip on loopback.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&len.to_be_bytes());
    framed.extend_from_slice(payload);
    writer.write_all(&framed)?;
    writer.flush()
}

/// Appends `payload` as one length-prefixed frame to a byte buffer
/// (the event loop's enqueue path — same bytes as [`write_frame`], no
/// syscall).
pub(crate) fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("serialised responses fit u32");
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(payload);
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer hung up); a mid-frame EOF is an error.
///
/// A frame whose claimed length exceeds [`MAX_FRAME_BYTES`] is rejected
/// from the header alone. The payload buffer grows in
/// `READ_CHUNK_BYTES` (64 KiB) steps *as bytes arrive*: the untrusted length
/// header never drives an allocation, so a peer claiming a maximum-size
/// frame and then stalling pins one read chunk, not 16 MiB. (This used to
/// allocate the full claimed size up front — a handful of idle
/// connections each claiming a max frame could pin gigabytes.)
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let target = (payload.len() + READ_CHUNK_BYTES).min(len);
        let start = payload.len();
        payload.resize(target, 0);
        let mut at = start;
        while at < target {
            match reader.read(&mut payload[at..target])? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "EOF inside frame payload",
                    ))
                }
                n => at += n,
            }
        }
    }
    Ok(Some(payload))
}

/// Incremental length-prefixed frame assembly for nonblocking sockets.
///
/// Bytes are [`FrameDecoder::extend`]ed as they arrive (in whatever
/// chunking the network produced — mid-header, mid-payload, several frames
/// at once) and complete frames are popped with
/// [`FrameDecoder::next_frame`]. By construction the decoder buffers only
/// bytes that were actually received: the claimed length in a frame header
/// is *checked* (frames above [`MAX_FRAME_BYTES`] are rejected as soon as
/// the 4 header bytes are in) but never allocated for.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames, compacted lazily.
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends newly received bytes.
    ///
    /// # Errors
    /// Fails when the pending frame's header claims more than
    /// [`MAX_FRAME_BYTES`]; the connection should be answered with a
    /// protocol error and closed (the stream cannot be resynchronised).
    pub fn extend(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.buf.extend_from_slice(bytes);
        if let Some(claimed) = self.pending_claim() {
            if claimed > MAX_FRAME_BYTES {
                return Err(ServeError::Protocol(format!(
                    "frame of {claimed} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                )));
            }
        }
        Ok(())
    }

    /// The claimed payload length of the frame currently being assembled,
    /// once its 4 header bytes are in.
    fn pending_claim(&self) -> Option<usize> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return None;
        }
        let header: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4 bytes");
        Some(u32::from_be_bytes(header) as usize)
    }

    /// Pops the next complete frame's payload, if one has fully arrived.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        let len = self.pending_claim()?;
        let avail = self.buf.len() - self.pos;
        if avail < 4 + len {
            return None;
        }
        let frame = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        // Compact once the dead prefix dominates, so the buffer cannot
        // creep upward across many frames.
        if self.pos >= READ_CHUNK_BYTES || self.pos == self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Some(frame)
    }

    /// Number of received-but-unconsumed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Capacity of the internal buffer — what the decoder actually pins.
    /// Tracks received bytes (plus amortised growth slack), never the
    /// claimed frame length; the trickle-attack regression test pins this.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// What a received frame asks the server to do: answer from the frame
/// alone (control ops, malformed requests), or run a prediction.
pub(crate) enum WireAction {
    /// A complete response, ready to send (already id-tagged).
    Respond(Json),
    /// A well-formed predict request: submit it, echo `id` on the answer.
    Predict {
        /// Registry model name.
        model: String,
        /// Raw feature vector (validated at admission).
        features: Vec<f64>,
        /// The request's `"id"` value, echoed verbatim on the response.
        id: Option<Json>,
    },
}

/// Interprets one frame payload. Control ops (`ping`/`models`/`metrics`/
/// `metrics_text`/`trace`) and every error path produce an immediate
/// [`WireAction::Respond`];
/// well-formed predict requests become [`WireAction::Predict`], which the
/// event loop submits and multiplexes.
pub(crate) fn interpret(payload: &[u8], client: &Client) -> WireAction {
    let request = match std::str::from_utf8(payload)
        .map_err(|_| ServeError::Protocol("frame is not UTF-8".to_string()))
        .and_then(Json::parse)
    {
        Ok(v) => v,
        // The id cannot be recovered from an unparsable frame.
        Err(e) => return WireAction::Respond(error_response(&e)),
    };
    let id = request.get("id").cloned();
    let respond = |json: Json| WireAction::Respond(with_id(json, id.clone()));
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return respond(error_response(&ServeError::Protocol(
            "request must be an object with a string 'op' field".to_string(),
        )));
    };
    match op {
        "ping" => respond(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("ping")),
        ])),
        "models" => {
            let models = client
                .models()
                .into_iter()
                .map(|(name, version)| {
                    Json::obj(vec![
                        ("name", Json::str(name)),
                        ("version", Json::Num(version as f64)),
                    ])
                })
                .collect();
            respond(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("models", Json::Arr(models)),
            ]))
        }
        "metrics" => respond(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("metrics", client.metrics().to_json()),
        ])),
        "metrics_text" => respond(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("text", Json::str(client.exposition())),
        ])),
        "trace" => {
            let last = request
                .get("last")
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .unwrap_or_else(|| client.trace_capacity());
            let spans = client
                .traces(last)
                .into_iter()
                .map(|s| span_to_json(&s))
                .collect();
            respond(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("capacity", Json::Num(client.trace_capacity() as f64)),
                ("recorded", Json::Num(client.traces_recorded() as f64)),
                ("spans", Json::Arr(spans)),
            ]))
        }
        "predict" => {
            let Some(model) = request.get("model").and_then(Json::as_str) else {
                return respond(error_response(&ServeError::Protocol(
                    "predict needs a string 'model' field".to_string(),
                )));
            };
            let Some(features) = request.get("features").and_then(Json::as_arr) else {
                return respond(error_response(&ServeError::Protocol(
                    "predict needs a 'features' array".to_string(),
                )));
            };
            let mut x = Vec::with_capacity(features.len());
            for item in features {
                match item.as_f64() {
                    Some(v) => x.push(v),
                    None => {
                        return respond(error_response(&ServeError::Protocol(
                            "'features' must contain only numbers".to_string(),
                        )))
                    }
                }
            }
            WireAction::Predict {
                model: model.to_string(),
                features: x,
                id,
            }
        }
        other => respond(error_response(&ServeError::Protocol(format!(
            "unknown op '{other}'"
        )))),
    }
}

/// Derives a trace id from a request's `"id"`: a non-negative integral
/// number is used verbatim (so a client can look up its own request in the
/// trace output directly); anything else hashes stably; an untagged
/// request gets `None` (the runtime auto-assigns).
pub(crate) fn trace_id_for(id: Option<&Json>) -> Option<u64> {
    let id = id?;
    match id.as_u64() {
        Some(n) => Some(n),
        None => Some(crate::trace::hash_trace_id(&id.to_string())),
    }
}

/// Renders one trace span for the wire `trace` op.
fn span_to_json(s: &crate::trace::TraceSpan) -> Json {
    Json::obj(vec![
        ("trace_id", Json::Num(s.trace_id as f64)),
        ("encode_ns", Json::Num(s.encode_ns as f64)),
        ("queue_wait_ns", Json::Num(s.queue_wait_ns as f64)),
        ("assemble_ns", Json::Num(s.assemble_ns as f64)),
        ("compute_ns", Json::Num(s.compute_ns as f64)),
        ("write_ns", Json::Num(s.write_ns as f64)),
        ("total_ns", Json::Num(s.total_ns as f64)),
        ("batch_size", Json::Num(s.batch_size as f64)),
    ])
}

/// Echoes a request's `"id"` onto a response object (the multiplexing
/// contract: responses are matched by id, not arrival order).
pub(crate) fn with_id(mut response: Json, id: Option<Json>) -> Json {
    if let (Json::Obj(fields), Some(id)) = (&mut response, id) {
        fields.push(("id".to_string(), id));
    }
    response
}

pub(crate) fn error_response(e: &ServeError) -> Json {
    let mut fields = vec![
        ("ok", Json::Bool(false)),
        ("kind", Json::str(e.kind())),
        ("error", Json::str(e.to_string())),
    ];
    if let ServeError::Saturated { depth, capacity } = e {
        // Carry the backpressure detail so remote clients reconstruct the
        // exact error (and its retryability) a local client would see.
        fields.push(("depth", Json::Num(*depth as f64)));
        fields.push(("capacity", Json::Num(*capacity as f64)));
    }
    Json::obj(fields)
}

/// Answers an over-cap connection with a retryable `saturated` error frame
/// and closes it, counting the refusal — and, separately, a refusal whose
/// error frame could not be delivered: a peer that never saw the
/// backpressure signal is operationally different from a served refusal,
/// so the failure is counted in [`RuntimeStats`] rather than silently
/// discarded (it used to be dropped on the floor).
pub(crate) fn refuse_stream(
    mut stream: TcpStream,
    open: usize,
    capacity: usize,
    write_timeout: Option<Duration>,
    stats: &RuntimeStats,
) {
    stats.wire_refusals.inc();
    let response = error_response(&ServeError::Saturated {
        depth: open,
        capacity,
    });
    let delivered = stream.set_write_timeout(write_timeout).is_ok()
        && write_frame(&mut stream, response.to_string().as_bytes()).is_ok();
    if !delivered {
        stats.refusal_write_failures.inc();
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Reconstructs a [`ServeError`] from a wire error response, preserving
/// the `kind` contract: `"saturated"` maps back to a retryable
/// [`ServeError::Saturated`], `"bad_request"` to a client-attributable
/// model error, and so on. Only `"model_error"` (a server-internal model
/// failure whose concrete cause cannot cross the wire) degrades to
/// [`ServeError::Io`].
pub(crate) fn error_from_wire(response: &Json, fallback_model: &str) -> ServeError {
    let message = response
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("malformed error response")
        .to_string();
    let kind = response.get("kind").and_then(Json::as_str).unwrap_or("");
    match kind {
        "saturated" => ServeError::Saturated {
            depth: response.get("depth").and_then(Json::as_u64).unwrap_or(0) as usize,
            capacity: response.get("capacity").and_then(Json::as_u64).unwrap_or(0) as usize,
        },
        "shutdown" => ServeError::ShutDown,
        "unknown_model" => ServeError::UnknownModel(fallback_model.to_string()),
        "invalid_config" => ServeError::InvalidConfig(message),
        "protocol" => ServeError::Protocol(message),
        "bad_request" => ServeError::Model(quclassi::error::QuClassiError::InvalidData(message)),
        other => ServeError::Io(format!("server error ({other}): {message}")),
    }
}

pub(crate) fn prediction_to_json(response: &ServeResponse) -> Json {
    let p = &response.prediction;
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("model", Json::str(response.model.clone())),
        ("version", Json::Num(response.version as f64)),
        ("label", Json::Num(p.label as f64)),
        ("probabilities", Json::nums(&p.probabilities)),
        ("fidelities", Json::nums(&p.fidelities)),
        ("confidence", Json::Num(p.confidence())),
        ("margin", Json::Num(p.margin())),
    ])
}

/// A prediction parsed back from the wire (see [`WireClient::predict`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WirePrediction {
    /// Model name echoed by the server.
    pub model: String,
    /// Version that served the request.
    pub version: u64,
    /// Predicted label.
    pub label: usize,
    /// Softmax probabilities (bit-identical to in-process serving).
    pub probabilities: Vec<f64>,
    /// Raw per-class fidelities (bit-identical to in-process serving).
    pub fidelities: Vec<f64>,
}

impl WirePrediction {
    /// Parses a successful predict response; errors reconstruct their
    /// [`ServeError`] kinds via the wire `kind` contract.
    pub fn from_response(response: &Json, fallback_model: &str) -> Result<Self, ServeError> {
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(error_from_wire(response, fallback_model));
        }
        let parse = || -> Option<WirePrediction> {
            Some(WirePrediction {
                model: response.get("model")?.as_str()?.to_string(),
                version: response.get("version")?.as_u64()?,
                label: response.get("label")?.as_u64()? as usize,
                probabilities: response
                    .get("probabilities")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Option<Vec<f64>>>()?,
                fidelities: response
                    .get("fidelities")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Option<Vec<f64>>>()?,
            })
        };
        parse()
            .ok_or_else(|| ServeError::Protocol(format!("malformed predict response: {response}")))
    }
}

/// A minimal blocking client for the wire protocol (used by tests, the
/// serving example, and as a reference implementation for other
/// languages). Supports both one-at-a-time calls ([`WireClient::call`],
/// [`WireClient::predict`]) and id-tagged pipelining
/// ([`WireClient::send_predict`] / [`WireClient::recv_response`]): send
/// any number of requests without waiting, then match responses by id in
/// whatever order the server delivers them.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    next_id: u64,
}

/// How long a [`WireClient`] blocks on one socket read or write: a server
/// that stops answering fails the caller with a timeout instead of
/// hanging it.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Maps a client socket error, naming an expired deadline as a timeout (a
/// blocking read past `SO_RCVTIMEO` reports `WouldBlock` on Unix).
fn client_io_error(e: std::io::Error) -> ServeError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ServeError::Io(format!("timed out waiting for the server: {e}"))
        }
        _ => e.into(),
    }
}

impl WireClient {
    /// Connects to a wire server. Every later read and write on the
    /// connection fails after 30 s without progress.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::connect_with_timeout(addr, CLIENT_IO_TIMEOUT)
    }

    pub(crate) fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        // Request/response over small frames is exactly the shape Nagle's
        // algorithm penalises.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(WireClient { stream, next_id: 1 })
    }

    /// Sends one request object and reads one response object (no id;
    /// strictly one request in flight).
    pub fn call(&mut self, request: &Json) -> Result<Json, ServeError> {
        write_frame(&mut self.stream, request.to_string().as_bytes()).map_err(client_io_error)?;
        let (_, response) = self.recv_response()?;
        Ok(response)
    }

    /// Pipelines a predict request: writes the frame tagged with a fresh
    /// id and returns immediately — match the response by id via
    /// [`WireClient::recv_response`].
    pub fn send_predict(&mut self, model: &str, x: &[f64]) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Json::obj(vec![
            ("op", Json::str("predict")),
            ("model", Json::str(model)),
            ("features", Json::nums(x)),
            ("id", Json::Num(id as f64)),
        ]);
        write_frame(&mut self.stream, request.to_string().as_bytes()).map_err(client_io_error)?;
        Ok(id)
    }

    /// Pipelines an arbitrary request object, tagging it with a fresh id.
    pub fn send_request(&mut self, request: &Json) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let tagged = with_id(request.clone(), Some(Json::Num(id as f64)));
        write_frame(&mut self.stream, tagged.to_string().as_bytes()).map_err(client_io_error)?;
        Ok(id)
    }

    /// Blocks for the next response frame, returning its echoed id (if
    /// any) and the parsed response object.
    pub fn recv_response(&mut self) -> Result<(Option<u64>, Json), ServeError> {
        let payload = read_frame(&mut self.stream)
            .map_err(client_io_error)?
            .ok_or_else(|| ServeError::Io("server closed the connection".to_string()))?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ServeError::Protocol("response is not UTF-8".to_string()))?;
        let response = Json::parse(text)?;
        let id = response.get("id").and_then(Json::as_u64);
        Ok((id, response))
    }

    /// Round-trips a ping.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        let response = self.call(&Json::obj(vec![("op", Json::str("ping"))]))?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!("unexpected pong: {response}")))
        }
    }

    /// Requests a prediction, surfacing server-side errors as their
    /// [`ServeError`] kinds.
    pub fn predict(&mut self, model: &str, x: &[f64]) -> Result<WirePrediction, ServeError> {
        let request = Json::obj(vec![
            ("op", Json::str("predict")),
            ("model", Json::str(model)),
            ("features", Json::nums(x)),
        ]);
        let response = self.call(&request)?;
        WirePrediction::from_response(&response, model)
    }

    /// Fetches the server's metrics object.
    pub fn metrics(&mut self) -> Result<Json, ServeError> {
        let response = self.call(&Json::obj(vec![("op", Json::str("metrics"))]))?;
        response
            .get("metrics")
            .cloned()
            .ok_or_else(|| ServeError::Protocol(format!("malformed metrics: {response}")))
    }

    /// Fetches the server's Prometheus-style text exposition.
    pub fn metrics_text(&mut self) -> Result<String, ServeError> {
        let response = self.call(&Json::obj(vec![("op", Json::str("metrics_text"))]))?;
        response
            .get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::Protocol(format!("malformed metrics_text: {response}")))
    }

    /// Fetches the server's most recent `last` completed request
    /// timelines (the `trace` op), oldest first.
    pub fn trace(&mut self, last: usize) -> Result<Json, ServeError> {
        let response = self.call(&Json::obj(vec![
            ("op", Json::str("trace")),
            ("last", Json::Num(last as f64)),
        ]))?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(error_from_wire(&response, ""));
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_error_kinds_reconstruct_their_serve_errors() {
        // The round trip ServeError → error_response → error_from_wire
        // must preserve kind() and is_retryable() — the contract remote
        // clients branch on.
        let cases: Vec<ServeError> = vec![
            ServeError::Saturated {
                depth: 9,
                capacity: 16,
            },
            ServeError::ShutDown,
            ServeError::UnknownModel("m".into()),
            ServeError::InvalidConfig("bad knob".into()),
            ServeError::Protocol("junk".into()),
            ServeError::Model(quclassi::error::QuClassiError::InvalidData("nan".into())),
        ];
        for original in cases {
            let reconstructed = error_from_wire(&error_response(&original), "m");
            assert_eq!(reconstructed.kind(), original.kind());
            assert_eq!(reconstructed.is_retryable(), original.is_retryable());
        }
        // Saturation detail survives the wire.
        let reconstructed = error_from_wire(
            &error_response(&ServeError::Saturated {
                depth: 9,
                capacity: 16,
            }),
            "m",
        );
        assert_eq!(
            reconstructed,
            ServeError::Saturated {
                depth: 9,
                capacity: 16
            }
        );
        // Internal model failures (whose concrete cause cannot cross the
        // wire) degrade to Io, which is still non-retryable.
        let internal = error_from_wire(
            &error_response(&ServeError::Model(
                quclassi::error::QuClassiError::InvalidConfig("c".into()),
            )),
            "m",
        );
        assert!(matches!(internal, ServeError::Io(_)));
        assert!(!internal.is_retryable());
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "ψ∿".as_bytes()).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), "ψ∿".as_bytes());
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
        // append_frame produces byte-identical framing to write_frame.
        let mut appended = Vec::new();
        append_frame(&mut appended, b"hello");
        append_frame(&mut appended, b"");
        append_frame(&mut appended, "ψ∿".as_bytes());
        assert_eq!(appended, buf);
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        // EOF inside the header.
        let mut cursor: &[u8] = &[0u8, 0];
        assert!(read_frame(&mut cursor).is_err());
        // EOF inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());
        // Length prefix above the limit, rejected before allocation.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A reader that reveals how much `read_frame` asks for at once — the
    /// observable difference between allocate-the-claim-up-front (one
    /// claimed-size read) and incremental growth (chunked reads).
    struct ChunkSpy<'a> {
        data: &'a [u8],
        max_requested: usize,
    }

    impl Read for ChunkSpy<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.max_requested = self.max_requested.max(buf.len());
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_frame_grows_with_received_bytes_not_the_claimed_length() {
        // Regression for the trickle attack: the payload buffer used to be
        // allocated at the untrusted claimed length before any payload
        // arrived (16 MiB per idle connection). The incremental reader
        // never requests (= never allocates) more than one chunk at a
        // time.
        let payload = vec![7u8; 1_000_000];
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut spy = ChunkSpy {
            data: &framed,
            max_requested: 0,
        };
        let got = read_frame(&mut spy).unwrap().unwrap();
        assert_eq!(got, payload);
        assert!(
            spy.max_requested <= READ_CHUNK_BYTES,
            "read_frame requested {} bytes at once — buffering is driven \
             by the claimed length again",
            spy.max_requested
        );
    }

    #[test]
    fn frame_decoder_assembles_across_arbitrary_splits() {
        // Three frames, fed at every possible byte boundary: the decoder
        // must produce identical frames regardless of chunking.
        let mut stream_bytes = Vec::new();
        write_frame(&mut stream_bytes, b"alpha").unwrap();
        write_frame(&mut stream_bytes, b"").unwrap();
        write_frame(&mut stream_bytes, "βγ".as_bytes()).unwrap();
        for split in 0..=stream_bytes.len() {
            let mut decoder = FrameDecoder::new();
            let mut frames = Vec::new();
            for part in [&stream_bytes[..split], &stream_bytes[split..]] {
                decoder.extend(part).unwrap();
                while let Some(frame) = decoder.next_frame() {
                    frames.push(frame);
                }
            }
            assert_eq!(
                frames,
                vec![b"alpha".to_vec(), b"".to_vec(), "βγ".as_bytes().to_vec()],
                "split at byte {split}"
            );
        }
        // Byte-at-a-time: the worst chunking the network can produce.
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        for byte in &stream_bytes {
            decoder.extend(std::slice::from_ref(byte)).unwrap();
            while let Some(frame) = decoder.next_frame() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn frame_decoder_rejects_oversized_claims_without_buffering_them() {
        let mut decoder = FrameDecoder::new();
        let claim = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();
        // Header arrives split: no rejection until the claim is complete.
        decoder.extend(&claim[..2]).unwrap();
        let err = decoder.extend(&claim[2..]).unwrap_err();
        assert_eq!(err.kind(), "protocol");
    }

    #[test]
    fn frame_decoder_pins_received_bytes_not_claimed_bytes() {
        // The trickle attack, decoder-shaped: claim MAX_FRAME_BYTES, send
        // a handful of payload bytes, go idle. The decoder must hold the
        // arrived bytes only.
        let mut decoder = FrameDecoder::new();
        let claim = (MAX_FRAME_BYTES as u32).to_be_bytes();
        decoder.extend(&claim).unwrap();
        decoder.extend(&[0u8; 10]).unwrap();
        assert_eq!(decoder.buffered(), 14);
        assert!(
            decoder.buffer_capacity() < 1024 * 1024,
            "decoder pinned {} bytes for a frame of which only 14 arrived",
            decoder.buffer_capacity()
        );
        assert!(decoder.next_frame().is_none());
    }

    #[test]
    fn frame_decoder_compacts_consumed_prefixes() {
        let mut decoder = FrameDecoder::new();
        let mut frame = Vec::new();
        write_frame(&mut frame, &vec![3u8; 32 * 1024]).unwrap();
        for _ in 0..64 {
            decoder.extend(&frame).unwrap();
            assert!(decoder.next_frame().is_some());
        }
        assert_eq!(decoder.buffered(), 0);
        assert!(
            decoder.buffer_capacity() <= 4 * frame.len(),
            "dead prefix never compacted: capacity {}",
            decoder.buffer_capacity()
        );
    }

    #[test]
    fn refusal_write_failures_are_counted_not_discarded() {
        // Regression: handle_saturation used to discard the write_frame
        // error, making a refused client that never received the frame
        // indistinguishable from a served refusal.
        let stats = RuntimeStats::default();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // A healthy peer: refusal delivered, no failure counted.
        let peer = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        refuse_stream(server_side, 3, 2, Some(Duration::from_secs(1)), &stats);
        let mut peer_reader = peer;
        let frame = read_frame(&mut peer_reader).unwrap().unwrap();
        let response = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(
            response.get("kind").and_then(Json::as_str),
            Some("saturated")
        );
        assert_eq!(stats.wire_refusals.get(), 1);
        assert_eq!(stats.refusal_write_failures.get(), 0);

        // A peer whose socket is already dead on the server side: the
        // refusal write fails deterministically (our half is shut down)
        // and must be counted.
        let _peer2 = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.shutdown(std::net::Shutdown::Both).unwrap();
        refuse_stream(server_side, 3, 2, Some(Duration::from_secs(1)), &stats);
        assert_eq!(stats.wire_refusals.get(), 2);
        assert_eq!(stats.refusal_write_failures.get(), 1);
    }

    #[test]
    fn ids_echo_verbatim_on_responses_and_errors() {
        use crate::runtime::{ServeConfig, ServeRuntime};
        use quclassi_sim::batch::BatchExecutor;
        let runtime =
            ServeRuntime::start(ServeConfig::default(), BatchExecutor::single_threaded(0)).unwrap();
        let client = runtime.client();
        // Control op echoes a numeric id.
        let action = interpret(br#"{"op":"ping","id":42}"#, &client);
        let WireAction::Respond(response) = action else {
            panic!("ping is a control op");
        };
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(42));
        // Errors echo the id too (a pipelined client must be able to match
        // failures to requests).
        let action = interpret(br#"{"op":"teleport","id":7}"#, &client);
        let WireAction::Respond(response) = action else {
            panic!("unknown op responds immediately");
        };
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(7));
        // Non-numeric ids are legal and echo verbatim.
        let action = interpret(br#"{"op":"ping","id":"req-a"}"#, &client);
        let WireAction::Respond(response) = action else {
            panic!("ping is a control op");
        };
        assert_eq!(response.get("id").and_then(Json::as_str), Some("req-a"));
        // A predict request carries its id through to the deferred path.
        let action = interpret(
            br#"{"op":"predict","model":"m","features":[0.1],"id":9}"#,
            &client,
        );
        let WireAction::Predict {
            model,
            features,
            id,
        } = action
        else {
            panic!("well-formed predict defers");
        };
        assert_eq!(model, "m");
        assert_eq!(features, vec![0.1]);
        assert_eq!(id.as_ref().and_then(Json::as_u64), Some(9));
        runtime.shutdown();
    }

    #[test]
    fn client_times_out_on_a_server_that_never_answers() {
        // Accepts the connection and reads nothing, writes nothing.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = WireClient::connect_with_timeout(
            listener.local_addr().unwrap(),
            Duration::from_millis(100),
        )
        .unwrap();
        let (_server_side, _) = listener.accept().unwrap();
        let started = std::time::Instant::now();
        let err = client.ping().expect_err("a silent server must time out");
        assert!(
            matches!(&err, ServeError::Io(msg) if msg.contains("timed out")),
            "{err:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(10));
    }
}
