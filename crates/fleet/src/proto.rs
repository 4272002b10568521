//! The wire protocol: length-prefixed JSON frames and typed messages.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON — the simplest framing that survives pipelining
//! and partial reads, and the registry/message-passing idiom the server
//! follows (no async runtime, no external deps). A [`FrameReader`]
//! reads a connection's frames through one buffer, so one `read` can
//! deliver a pipelined batch; frames are written through one encoder
//! that appends them to a buffer sent in one write.
//!
//! All raw socket transfer funnels through one function, `pump`,
//! which carries the module's single `analyzer: trust(io)` annotation:
//! everything above it (framing, parsing, dispatch, state) stays in the
//! deterministic lattice classes, and the analyzer would flag any new
//! read/write added outside the chokepoint.

use std::io::{Read, Write};

use selfheal::{RejuvenationPlan, RejuvenationTechnique};
use selfheal_runtime::SeedSequence;
use selfheal_telemetry::{json, span, Json, Span};
use selfheal_units::{DutyCycle, Millivolts, Ratio, Seconds};

/// Hard ceiling on frame payloads (1 MiB). A peer announcing more is
/// answered with an `oversize` error and disconnected — the bytes are
/// never allocated or read.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The announced payload length exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// The connection died mid-frame (EOF or timeout inside a frame).
    Truncated,
    /// No bytes arrived within the read timeout (between frames); the
    /// connection is still healthy.
    TimedOut,
    /// Any other transport failure.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Oversize(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::Truncated => write!(f, "connection dropped mid-frame"),
            FrameError::TimedOut => write!(f, "no frame within the read timeout"),
            FrameError::Io(err) => write!(f, "transport error: {err}"),
        }
    }
}

/// One raw transfer: one `read` into a buffer, or a whole buffer
/// drained into the stream.
#[derive(Debug)]
enum WireOp<'a, S> {
    Read(&'a mut S, &'a mut [u8]),
    Send(&'a mut S, &'a [u8]),
}

/// The single point where payload bytes cross the socket. Returns the
/// bytes moved: what one `read` delivered (0 at end of stream), or the
/// whole buffer sent.
// analyzer: trust(io): the only raw socket transfer in the fleet service; bytes entering here are length-checked frames whose effect on fleet state flows through the typed request dispatch, and every mutation is captured in the checkpoint mutation digest
fn pump<S: Read + Write>(op: WireOp<'_, S>) -> std::io::Result<usize> {
    match op {
        WireOp::Read(stream, buf) => stream.read(buf),
        WireOp::Send(stream, buf) => stream.write_all(buf).map(|()| buf.len()),
    }
}

fn classify(err: &std::io::Error, mid_frame: bool) -> FrameError {
    use std::io::ErrorKind;
    match err.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut if mid_frame => FrameError::Truncated,
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FrameError::TimedOut,
        _ => FrameError::Io(err.to_string()),
    }
}

/// The room one `read` gets in a reader holding no partial frame.
const READ_CHUNK: usize = 16 * 1024;

/// Reads the frames of one stream through one growable buffer.
///
/// Each `read` asks for all the room the buffer has, so one syscall can
/// deliver a whole pipelined batch; [`next_frame`](Self::next_frame)
/// then hands out each frame already buffered without touching the
/// stream, and [`ready`](Self::ready) says whether it would. The buffer
/// is zeroed once when it grows, never per read. It grows only to hold
/// a frame whose header it has checked against [`MAX_FRAME`], so it
/// never exceeds `MAX_FRAME + 4` bytes, and it shrinks back once such a
/// frame has been read.
#[derive(Debug)]
pub struct FrameReader {
    /// `buf[start..end]` is read but not yet handed out; `buf[end..]`
    /// is the next `read`'s room.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// An empty reader with 16 KiB of room for the first `read`.
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader {
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
        }
    }

    /// The payload length the buffered header announces, once all four
    /// of its bytes are in.
    fn announced(&self) -> Option<u32> {
        let header = self.buf[self.start..self.end].first_chunk::<4>()?;
        Some(u32::from_be_bytes(*header))
    }

    /// Whether a whole frame is buffered, so the next
    /// [`next_frame`](Self::next_frame) makes no syscall.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.announced().is_some_and(|len| {
            len as usize <= MAX_FRAME && self.end - self.start >= 4 + len as usize
        })
    }

    /// The next frame's payload, read from the stream only when the
    /// buffer does not already hold all of it.
    /// [`FrameError::Closed`]/[`FrameError::TimedOut`] are only reported
    /// with nothing buffered; a stream that ends or times out after the
    /// first header byte is [`FrameError::Truncated`].
    ///
    /// On [`FrameError::Oversize`] nothing has been allocated for the
    /// payload and the stream is desynchronized: the caller must drop
    /// the connection after sending its error reply.
    ///
    /// # Errors
    ///
    /// See [`FrameError`].
    pub fn next_frame<S: Read + Write>(&mut self, stream: &mut S) -> Result<&[u8], FrameError> {
        loop {
            let need = match self.announced() {
                Some(len) if len as usize > MAX_FRAME => return Err(FrameError::Oversize(len)),
                Some(len) => 4 + len as usize,
                None => 4,
            };
            if self.end - self.start >= need {
                let payload = self.start + 4..self.start + need;
                self.start += need;
                return Ok(&self.buf[payload]);
            }
            self.fill(stream, need)?;
        }
    }

    /// Moves the buffered bytes to the front, sizes the buffer to hold
    /// the `need` bytes of the frame they begin, and makes one `read`
    /// into the room after them (retried if interrupted).
    fn fill<S: Read + Write>(&mut self, stream: &mut S, need: usize) -> Result<(), FrameError> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        } else if self.end == 0 && self.buf.len() > READ_CHUNK {
            self.buf = vec![0; READ_CHUNK];
        }
        loop {
            match pump(WireOp::Read(stream, &mut self.buf[self.end..])) {
                Ok(0) if self.end == 0 => return Err(FrameError::Closed),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(read) => {
                    self.end += read;
                    return Ok(());
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(classify(&err, self.end > 0)),
            }
        }
    }
}

/// Encodes frames into one buffer that leaves the process through one
/// write, so a `TCP_NODELAY` socket sends a batch of frames as few
/// segments as it can.
#[derive(Debug, Default)]
pub(crate) struct FrameWriter {
    buf: Vec<u8>,
    frames: usize,
}

impl FrameWriter {
    /// Appends one frame: the payload's 4-byte big-endian length, then
    /// the payload.
    pub(crate) fn push(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        let Ok(len) = u32::try_from(payload.len()) else {
            return Err(FrameError::Oversize(u32::MAX));
        };
        if payload.len() > MAX_FRAME {
            return Err(FrameError::Oversize(len));
        }
        self.buf.extend_from_slice(&len.to_be_bytes());
        self.buf.extend_from_slice(payload);
        self.frames += 1;
        Ok(())
    }

    /// Bytes waiting to be sent.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Sends every buffered frame in one transfer and empties the
    /// buffer; returns how many frames left.
    pub(crate) fn send<S: Read + Write>(&mut self, stream: &mut S) -> Result<usize, FrameError> {
        let frames = std::mem::take(&mut self.frames);
        let sent = pump(WireOp::Send(stream, &self.buf));
        self.buf.clear();
        sent.map(|_| frames).map_err(|e| classify(&e, true))
    }
}

/// Writes one frame: header and payload leave in one buffer through one
/// transfer, so a `TCP_NODELAY` socket sends one segment, not two.
///
/// # Errors
///
/// [`FrameError::Oversize`] for a payload over [`MAX_FRAME`], otherwise
/// transport failures as [`FrameError::Io`]/[`FrameError::Truncated`].
pub fn write_frame<S: Read + Write>(stream: &mut S, payload: &[u8]) -> Result<(), FrameError> {
    let mut frame = FrameWriter::default();
    frame.push(payload)?;
    frame.send(stream).map(drop)
}

/// Trace and flow ids are masked to 48 bits so they survive the f64
/// JSON number representation exactly (and independent renderings in
/// the client and daemon processes agree bit-for-bit, which is what
/// lets Perfetto pair the two halves of a cross-process flow arrow).
pub const TRACE_ID_MASK: u64 = (1 << 48) - 1;

/// Client-generated trace context riding the optional `trace` field of
/// any request.
///
/// The ids derive from the client's [`SeedSequence`], so a seeded run
/// produces the same trace ids every time — traces are diffable across
/// runs, like everything else in the workspace. A request's `flow_id`
/// names the client→daemon arrow and its salted variant,
/// [`reply_flow`](Self::reply_flow), the daemon→client reply arrow, so
/// one request renders as a connected two-arrow chain in a merged
/// trace: client span → rpc arrow → the worker's `fleet.request` span
/// (with `fleet.execute` nested inside it) → reply arrow back.
///
/// Old daemons ignore the `trace` field (unknown JSON fields are
/// skipped by every parser in this module) and old clients simply never
/// send it, so tracing is compatible in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Groups every span of one logical request.
    pub trace_id: u64,
    /// Pairs the client's flow-start with the daemon's flow-end.
    pub flow_id: u64,
}

impl TraceContext {
    /// Derives the context for the `request_index`-th request of a
    /// client seeded with `seeds`. Pure in `(seeds, request_index)`.
    #[must_use]
    pub fn derive(seeds: &SeedSequence, request_index: u64) -> TraceContext {
        TraceContext {
            trace_id: seeds.derive(request_index * 2) & TRACE_ID_MASK,
            flow_id: seeds.derive(request_index * 2 + 1) & TRACE_ID_MASK,
        }
    }

    /// Flow id of the daemon→client reply arrow.
    #[must_use]
    pub fn reply_flow(self) -> u64 {
        self.flow_id ^ 2
    }

    /// The wire form of the `trace` field.
    #[must_use]
    pub fn to_json(self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::object(vec![
            ("id".to_string(), Json::Number(self.trace_id as f64)),
            ("flow".to_string(), Json::Number(self.flow_id as f64)),
        ])
    }

    /// Extracts the trace context from a parsed request document.
    /// Anything malformed — wrong type, negative, fractional, out of the
    /// 48-bit range — yields `None` rather than an error: a bad trace id
    /// must never fail an otherwise-valid request.
    #[must_use]
    pub fn from_doc(doc: &Json) -> Option<TraceContext> {
        let trace = doc.get("trace")?;
        let id = trace.get("id").and_then(json_u64)?;
        let flow = trace.get("flow").and_then(json_u64)?;
        (id <= TRACE_ID_MASK && flow <= TRACE_ID_MASK).then_some(TraceContext {
            trace_id: id,
            flow_id: flow,
        })
    }
}

/// Opens the span `name` for one request of type `kind`, stamped with
/// the client's trace id when the request carried one.
pub(crate) fn trace_span(name: &str, kind: &'static str, trace: Option<TraceContext>) -> Span {
    match trace {
        Some(trace) => span!(name, kind = kind, trace_id = trace.trace_id),
        None => span!(name, kind = kind),
    }
}

/// Machine-readable error categories carried in error replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload was not valid JSON.
    BadJson,
    /// The `type` field named no known request.
    UnknownType,
    /// A required field was missing or had the wrong shape.
    BadRequest,
    /// The addressed chip is outside the fleet.
    UnknownChip,
    /// The announced frame length exceeded [`MAX_FRAME`].
    Oversize,
}

impl ErrorCode {
    /// Every code, in declaration order.
    const ALL: [ErrorCode; 5] = [
        ErrorCode::BadJson,
        ErrorCode::UnknownType,
        ErrorCode::BadRequest,
        ErrorCode::UnknownChip,
        ErrorCode::Oversize,
    ];

    /// The wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::UnknownType => "unknown-type",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownChip => "unknown-chip",
            ErrorCode::Oversize => "oversize",
        }
    }

    fn parse(text: &str) -> Option<ErrorCode> {
        ErrorCode::ALL
            .into_iter()
            .find(|code| code.as_str() == text)
    }
}

/// A client request against the live fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// "Chip X wants a rhythm — which condition, what α?"
    Plan {
        /// Global chip id.
        chip: u64,
        /// Sleep treatment (defaults to the paper's best, `Combined`).
        technique: RejuvenationTechnique,
        /// Circadian period (daemon default when `None`).
        period: Option<Seconds>,
        /// Planning horizon (daemon default when `None`).
        horizon: Option<Seconds>,
    },
    /// "Where is chip X's margin after Δt more of its current life?"
    Predict {
        /// Global chip id.
        chip: u64,
        /// Projection interval.
        dt: Seconds,
    },
    /// A chip-local stress observation folded into the bank.
    Report {
        /// Global chip id.
        chip: u64,
        /// Observed stress duty cycle.
        duty: DutyCycle,
    },
    /// Fleet-wide aggregates.
    Stats,
    /// Dump the daemon's flight recorder to its configured path.
    DebugDump,
    /// Graceful shutdown (final checkpoint, then exit).
    Shutdown,
}

impl Request {
    /// Serializes for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        match self {
            Request::Plan {
                chip,
                technique,
                period,
                horizon,
            } => {
                fields.push(("type".into(), Json::String("plan".into())));
                fields.push(("chip".into(), number_u64(*chip)));
                fields.push((
                    "technique".into(),
                    Json::String(technique_name(*technique).into()),
                ));
                if let Some(period) = period {
                    fields.push(("period_s".into(), Json::Number(period.get())));
                }
                if let Some(horizon) = horizon {
                    fields.push(("horizon_s".into(), Json::Number(horizon.get())));
                }
            }
            Request::Predict { chip, dt } => {
                fields.push(("type".into(), Json::String("predict".into())));
                fields.push(("chip".into(), number_u64(*chip)));
                fields.push(("dt_s".into(), Json::Number(dt.get())));
            }
            Request::Report { chip, duty } => {
                fields.push(("type".into(), Json::String("report".into())));
                fields.push(("chip".into(), number_u64(*chip)));
                fields.push(("duty".into(), Json::Number(duty.get())));
            }
            Request::Stats => fields.push(("type".into(), Json::String("stats".into()))),
            Request::DebugDump => {
                fields.push(("type".into(), Json::String("debug-dump".into())));
            }
            Request::Shutdown => fields.push(("type".into(), Json::String("shutdown".into()))),
        }
        Json::object(fields)
    }

    /// Serializes for the wire with an optional trace context attached.
    /// With `None` this is exactly [`to_json`](Self::to_json), so traced
    /// and untraced clients emit byte-identical frames when tracing is
    /// off.
    #[must_use]
    pub fn to_json_with_trace(&self, trace: Option<TraceContext>) -> Json {
        let doc = self.to_json();
        match (trace, doc) {
            (Some(trace), Json::Object(mut fields)) => {
                fields.insert("trace".to_string(), trace.to_json());
                Json::Object(fields)
            }
            (_, doc) => doc,
        }
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// `(code, message)` pairs ready to wrap in [`Response::Error`]:
    /// [`ErrorCode::BadJson`], [`ErrorCode::UnknownType`] or
    /// [`ErrorCode::BadRequest`].
    pub fn from_payload(payload: &[u8]) -> Result<Request, (ErrorCode, String)> {
        Request::from_payload_traced(payload).map(|(request, _)| request)
    }

    /// Decodes a request payload together with its optional trace
    /// context. A missing or malformed `trace` field yields `None` for
    /// the context without affecting the request itself.
    ///
    /// # Errors
    ///
    /// Same as [`from_payload`](Self::from_payload).
    pub fn from_payload_traced(
        payload: &[u8],
    ) -> Result<(Request, Option<TraceContext>), (ErrorCode, String)> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| (ErrorCode::BadJson, "payload is not UTF-8".to_string()))?;
        let doc = json::parse(text)
            .map_err(|e| (ErrorCode::BadJson, format!("payload is not JSON: {e:?}")))?;
        let trace = TraceContext::from_doc(&doc);
        Request::from_doc(&doc).map(|request| (request, trace))
    }

    fn from_doc(doc: &Json) -> Result<Request, (ErrorCode, String)> {
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| (ErrorCode::BadRequest, "missing \"type\" field".to_string()))?;
        match kind {
            "plan" => Ok(Request::Plan {
                chip: field_u64(doc, "chip")?,
                technique: match doc.get("technique").and_then(Json::as_str) {
                    None => RejuvenationTechnique::Combined,
                    Some(name) => parse_technique(name).ok_or_else(|| {
                        (
                            ErrorCode::BadRequest,
                            format!("unknown technique {:?}", echo(name)),
                        )
                    })?,
                },
                period: optional_seconds(doc, "period_s")?,
                horizon: optional_seconds(doc, "horizon_s")?,
            }),
            "predict" => Ok(Request::Predict {
                chip: field_u64(doc, "chip")?,
                dt: Seconds::new(positive_field(doc, "dt_s")?),
            }),
            "report" => {
                let duty = doc
                    .get("duty")
                    .and_then(Json::as_f64)
                    .filter(|d| (0.0..=1.0).contains(d))
                    .ok_or_else(|| {
                        (
                            ErrorCode::BadRequest,
                            "\"duty\" must be a number in [0, 1]".to_string(),
                        )
                    })?;
                Ok(Request::Report {
                    chip: field_u64(doc, "chip")?,
                    duty: DutyCycle::new(duty),
                })
            }
            "stats" => Ok(Request::Stats),
            "debug-dump" => Ok(Request::DebugDump),
            "shutdown" => Ok(Request::Shutdown),
            other => Err((
                ErrorCode::UnknownType,
                format!("unknown request type {:?}", echo(other)),
            )),
        }
    }

    /// Short static name for telemetry labels.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Plan { .. } => "plan",
            Request::Predict { .. } => "predict",
            Request::Report { .. } => "report",
            Request::Stats => "stats",
            Request::DebugDump => "debug-dump",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Fleet aggregates as served to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// Fleet size in chips.
    pub chips: u64,
    /// Shard count.
    pub shards: u64,
    /// Completed epochs.
    pub epoch: u64,
    /// Simulated time elapsed.
    pub sim_time: Seconds,
    /// Requests served so far (this process lifetime).
    pub requests: u64,
    /// Mean per-chip `ΔVth`.
    pub mean_delta_vth: Millivolts,
    /// Worst single chip's `ΔVth`.
    pub worst_delta_vth: Millivolts,
    /// Chips already out of budget.
    pub over_budget_chips: u64,
    /// The state digest (hex on the wire) — lets a client pin
    /// bit-exactness across a daemon restart. It is
    /// [`FleetState::state_digest`](crate::state::FleetState::state_digest):
    /// FNV-1a over the epoch, the mutation digest and each shard's
    /// cached occupancy digest (FNV-1a over its occupancy bits) and slot
    /// digest (a wrapping sum of one mixed term per chip's duty). The
    /// mean, worst and over-budget fields fold one cached margin summary
    /// per shard.
    pub state_digest: u64,
}

/// A daemon reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Plan`].
    Plan {
        /// The chip the plan is for.
        chip: u64,
        /// Margin already consumed by the chip's live trap state.
        consumed: Millivolts,
        /// The rhythm, or `None` when no rhythm can hold what remains.
        plan: Option<RejuvenationPlan>,
    },
    /// Answer to [`Request::Predict`].
    Predict {
        /// The chip projected.
        chip: u64,
        /// `ΔVth` now.
        current: Millivolts,
        /// `ΔVth` after the requested interval at the chip's observed duty.
        projected: Millivolts,
        /// Margin left at that point (negative = out of spec).
        headroom: Millivolts,
    },
    /// Acknowledges [`Request::Report`].
    Report {
        /// The chip updated.
        chip: u64,
        /// The duty cycle now on file.
        duty: DutyCycle,
        /// The epoch the observation lands in.
        epoch: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Answer to [`Request::DebugDump`].
    DebugDump {
        /// Flight-recorder records written (retained ring contents).
        events: u64,
        /// Dump destination, or `None` when the daemon has no
        /// `--flight-dump` path configured (nothing was written).
        path: Option<String>,
    },
    /// Acknowledges [`Request::Shutdown`]; the daemon exits after its
    /// final checkpoint.
    Bye,
    /// A structured failure; the connection stays usable except after
    /// `oversize`.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Serializes for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Response::Plan {
                chip,
                consumed,
                plan,
            } => {
                let mut fields = vec![
                    ("type".to_string(), Json::String("plan".into())),
                    ("chip".to_string(), number_u64(*chip)),
                    ("consumed_mv".to_string(), Json::Number(consumed.get())),
                    ("feasible".to_string(), Json::Bool(plan.is_some())),
                ];
                if let Some(plan) = plan {
                    let (_, sleep) = plan.alpha.split_cycle(plan.period);
                    fields.push(("alpha".into(), Json::Number(plan.alpha.get())));
                    fields.push((
                        "technique".into(),
                        Json::String(technique_name(plan.technique).into()),
                    ));
                    fields.push(("period_s".into(), Json::Number(plan.period.get())));
                    fields.push(("sleep_s_per_period".into(), Json::Number(sleep.get())));
                    fields.push((
                        "predicted_peak_mv".into(),
                        Json::Number(plan.predicted_peak.get()),
                    ));
                    // Only a recover-first plan names it, so every other
                    // plan reply keeps its bytes.
                    if plan.recover_first {
                        fields.push(("recover_first".into(), Json::Bool(true)));
                    }
                }
                Json::object(fields)
            }
            Response::Predict {
                chip,
                current,
                projected,
                headroom,
            } => Json::object(vec![
                ("type".into(), Json::String("predict".into())),
                ("chip".into(), number_u64(*chip)),
                ("current_mv".into(), Json::Number(current.get())),
                ("projected_mv".into(), Json::Number(projected.get())),
                ("headroom_mv".into(), Json::Number(headroom.get())),
            ]),
            Response::Report { chip, duty, epoch } => Json::object(vec![
                ("type".into(), Json::String("report".into())),
                ("chip".into(), number_u64(*chip)),
                ("duty".into(), Json::Number(duty.get())),
                ("epoch".into(), number_u64(*epoch)),
            ]),
            Response::Stats(stats) => Json::object(vec![
                ("type".into(), Json::String("stats".into())),
                ("chips".into(), number_u64(stats.chips)),
                ("shards".into(), number_u64(stats.shards)),
                ("epoch".into(), number_u64(stats.epoch)),
                ("sim_time_s".into(), Json::Number(stats.sim_time.get())),
                ("requests".into(), number_u64(stats.requests)),
                (
                    "mean_delta_vth_mv".into(),
                    Json::Number(stats.mean_delta_vth.get()),
                ),
                (
                    "worst_delta_vth_mv".into(),
                    Json::Number(stats.worst_delta_vth.get()),
                ),
                (
                    "over_budget_chips".into(),
                    number_u64(stats.over_budget_chips),
                ),
                (
                    "state_digest".into(),
                    Json::String(format!("{:016x}", stats.state_digest)),
                ),
            ]),
            Response::DebugDump { events, path } => {
                let mut fields = vec![
                    ("type".to_string(), Json::String("debug-dump".into())),
                    ("events".to_string(), number_u64(*events)),
                ];
                if let Some(path) = path {
                    fields.push(("path".into(), Json::String(path.clone())));
                }
                Json::object(fields)
            }
            Response::Bye => Json::object(vec![("type".into(), Json::String("bye".into()))]),
            Response::Error { code, message } => Json::object(vec![
                ("type".into(), Json::String("error".into())),
                ("code".into(), Json::String(code.as_str().into())),
                ("message".into(), Json::String(message.clone())),
            ]),
        }
    }

    /// Decodes a reply payload (the client side of the protocol).
    #[must_use]
    pub fn from_payload(payload: &[u8]) -> Option<Response> {
        let doc = json::parse(std::str::from_utf8(payload).ok()?).ok()?;
        match doc.get("type")?.as_str()? {
            "plan" => {
                let plan = if matches!(doc.get("feasible")?, Json::Bool(true)) {
                    Some(RejuvenationPlan {
                        alpha: Ratio::new(doc.get("alpha")?.as_f64()?)?,
                        technique: parse_technique(doc.get("technique")?.as_str()?)?,
                        period: Seconds::new(doc.get("period_s")?.as_f64()?),
                        predicted_peak: Millivolts::new(doc.get("predicted_peak_mv")?.as_f64()?),
                        recover_first: matches!(doc.get("recover_first"), Some(Json::Bool(true))),
                    })
                } else {
                    None
                };
                Some(Response::Plan {
                    chip: json_u64(doc.get("chip")?)?,
                    consumed: Millivolts::new(doc.get("consumed_mv")?.as_f64()?),
                    plan,
                })
            }
            "predict" => Some(Response::Predict {
                chip: json_u64(doc.get("chip")?)?,
                current: Millivolts::new(doc.get("current_mv")?.as_f64()?),
                projected: Millivolts::new(doc.get("projected_mv")?.as_f64()?),
                headroom: Millivolts::new(doc.get("headroom_mv")?.as_f64()?),
            }),
            "report" => Some(Response::Report {
                chip: json_u64(doc.get("chip")?)?,
                duty: DutyCycle::new(doc.get("duty")?.as_f64()?),
                epoch: json_u64(doc.get("epoch")?)?,
            }),
            "stats" => Some(Response::Stats(StatsReply {
                chips: json_u64(doc.get("chips")?)?,
                shards: json_u64(doc.get("shards")?)?,
                epoch: json_u64(doc.get("epoch")?)?,
                sim_time: Seconds::new(doc.get("sim_time_s")?.as_f64()?),
                requests: json_u64(doc.get("requests")?)?,
                mean_delta_vth: Millivolts::new(doc.get("mean_delta_vth_mv")?.as_f64()?),
                worst_delta_vth: Millivolts::new(doc.get("worst_delta_vth_mv")?.as_f64()?),
                over_budget_chips: json_u64(doc.get("over_budget_chips")?)?,
                state_digest: u64::from_str_radix(doc.get("state_digest")?.as_str()?, 16).ok()?,
            })),
            "debug-dump" => Some(Response::DebugDump {
                events: json_u64(doc.get("events")?)?,
                path: match doc.get("path") {
                    None => None,
                    Some(path) => Some(path.as_str()?.to_string()),
                },
            }),
            "bye" => Some(Response::Bye),
            "error" => Some(Response::Error {
                code: ErrorCode::parse(doc.get("code")?.as_str()?)?,
                message: doc.get("message")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }

    /// Renders the frame payload bytes.
    #[must_use]
    pub fn to_payload(&self) -> Vec<u8> {
        self.to_json().render().into_bytes()
    }
}

/// The canonical wire spelling of a technique.
#[must_use]
pub fn technique_name(technique: RejuvenationTechnique) -> &'static str {
    match technique {
        RejuvenationTechnique::PassiveGating => "passive",
        RejuvenationTechnique::NegativeVoltage => "negative-voltage",
        RejuvenationTechnique::HighTemperature => "high-temperature",
        RejuvenationTechnique::Combined => "combined",
    }
}

/// Parses a technique's wire spelling.
#[must_use]
pub fn parse_technique(name: &str) -> Option<RejuvenationTechnique> {
    RejuvenationTechnique::ALL
        .into_iter()
        .find(|t| technique_name(*t) == name)
}

/// Most chars of client text an error message quotes back.
const ECHO_CHARS: usize = 64;

/// The first [`ECHO_CHARS`] chars of `text`. Error messages quote client
/// text through `Debug`, which can double its length, so an unbounded
/// echo of a frame-sized name would outgrow [`MAX_FRAME`] and the reply
/// could not be sent.
fn echo(text: &str) -> &str {
    text.char_indices()
        .nth(ECHO_CHARS)
        .map_or(text, |(cut, _)| &text[..cut])
}

#[allow(clippy::cast_precision_loss)]
fn number_u64(value: u64) -> Json {
    Json::Number(value as f64)
}

fn json_u64(json: &Json) -> Option<u64> {
    let value = json.as_f64()?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    (value >= 0.0 && value.fract() == 0.0).then_some(value as u64)
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, (ErrorCode, String)> {
    doc.get(key).and_then(json_u64).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            format!("\"{key}\" must be a non-negative integer"),
        )
    })
}

fn positive_field(doc: &Json, key: &str) -> Result<f64, (ErrorCode, String)> {
    doc.get(key)
        .and_then(Json::as_f64)
        .filter(|v| *v > 0.0 && v.is_finite())
        .ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                format!("\"{key}\" must be a finite positive number"),
            )
        })
}

fn optional_seconds(doc: &Json, key: &str) -> Result<Option<Seconds>, (ErrorCode, String)> {
    match doc.get(key) {
        None => Ok(None),
        Some(_) => Ok(Some(Seconds::new(positive_field(doc, key)?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    /// A peer that delivers `data` at most `per_read` bytes per `read`,
    /// after `interrupts` interrupted reads; once `data` is spent every
    /// read ends the stream or, with `then`, fails with that error.
    #[derive(Debug)]
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        per_read: usize,
        interrupts: usize,
        then: Option<ErrorKind>,
        reads: usize,
    }

    impl Trickle {
        /// One byte per read, then end of stream.
        fn new(data: Vec<u8>) -> Trickle {
            Trickle {
                data,
                pos: 0,
                per_read: 1,
                interrupts: 0,
                then: None,
                reads: 0,
            }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            if self.interrupts > 0 {
                self.interrupts -= 1;
                return Err(ErrorKind::Interrupted.into());
            }
            let rest = &self.data[self.pos..];
            if rest.is_empty() {
                return self.then.map_or(Ok(0), |kind| Err(kind.into()));
            }
            let n = rest.len().min(self.per_read).min(buf.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn frames(payloads: &[&[u8]]) -> Vec<u8> {
        let mut writer = FrameWriter::default();
        for payload in payloads {
            assert_eq!(writer.push(payload), Ok(()));
        }
        writer.buf
    }

    #[test]
    fn frames_round_trip_one_byte_per_read() {
        let mut peer = Trickle::new(frames(&[b"{\"type\":\"stats\"}", b""]));
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.next_frame(&mut peer),
            Ok(&b"{\"type\":\"stats\"}"[..])
        );
        assert!(!reader.ready());
        assert_eq!(reader.next_frame(&mut peer), Ok(&b""[..]));
        assert_eq!(reader.next_frame(&mut peer), Err(FrameError::Closed));
    }

    #[test]
    fn frames_from_one_read_come_out_without_another() {
        let mut peer = Trickle::new(frames(&[b"one", b"", b"three"]));
        peer.per_read = usize::MAX;
        let mut reader = FrameReader::new();
        assert!(!reader.ready());
        assert_eq!(reader.next_frame(&mut peer), Ok(&b"one"[..]));
        assert!(reader.ready());
        assert_eq!(reader.next_frame(&mut peer), Ok(&b""[..]));
        assert!(reader.ready());
        assert_eq!(reader.next_frame(&mut peer), Ok(&b"three"[..]));
        assert!(!reader.ready());
        assert_eq!(peer.reads, 1);
        assert_eq!(reader.next_frame(&mut peer), Err(FrameError::Closed));
        assert_eq!(peer.reads, 2);
    }

    #[test]
    fn end_of_stream_is_closed_only_between_frames() {
        let whole = frames(&[b"payload"]);
        for cut in 0..whole.len() {
            let mut peer = Trickle::new(whole[..cut].to_vec());
            let expected = if cut == 0 {
                FrameError::Closed
            } else {
                FrameError::Truncated
            };
            assert_eq!(
                FrameReader::new().next_frame(&mut peer),
                Err(expected),
                "end of stream after {cut} byte(s)"
            );
        }
    }

    #[test]
    fn a_timeout_is_truncation_only_inside_a_frame() {
        for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            let mut idle = Trickle::new(Vec::new());
            idle.then = Some(kind);
            assert_eq!(
                FrameReader::new().next_frame(&mut idle),
                Err(FrameError::TimedOut)
            );
            let mut stalled = Trickle::new(frames(&[b"payload"])[..6].to_vec());
            stalled.then = Some(kind);
            assert_eq!(
                FrameReader::new().next_frame(&mut stalled),
                Err(FrameError::Truncated)
            );
        }
        // A timeout between frames leaves the reader usable.
        let mut peer = Trickle::new(frames(&[b"a"]));
        peer.then = Some(ErrorKind::WouldBlock);
        let mut reader = FrameReader::new();
        assert_eq!(reader.next_frame(&mut peer), Ok(&b"a"[..]));
        assert_eq!(reader.next_frame(&mut peer), Err(FrameError::TimedOut));
        peer.data.extend(frames(&[b"b"]));
        assert_eq!(reader.next_frame(&mut peer), Ok(&b"b"[..]));
    }

    #[test]
    fn an_oversize_header_allocates_nothing() {
        for len in [u32::MAX, 0x7fff_ffff, MAX_FRAME as u32 + 1] {
            let mut peer = Trickle::new(len.to_be_bytes().to_vec());
            let mut reader = FrameReader::new();
            assert_eq!(reader.next_frame(&mut peer), Err(FrameError::Oversize(len)));
            assert!(!reader.ready());
            assert_eq!(reader.buf.len(), READ_CHUNK);
            assert_eq!(peer.reads, 4);
        }
    }

    #[test]
    fn the_buffer_holds_one_frame_at_most_and_shrinks_back() {
        let big = vec![b' '; MAX_FRAME];
        let mut peer = Trickle::new(frames(&[&big, b"small"]));
        peer.per_read = usize::MAX;
        let mut reader = FrameReader::new();
        assert_eq!(reader.next_frame(&mut peer).map(<[u8]>::len), Ok(MAX_FRAME));
        assert_eq!(reader.buf.len(), MAX_FRAME + 4);
        assert_eq!(reader.next_frame(&mut peer), Ok(&b"small"[..]));
        assert_eq!(reader.next_frame(&mut peer), Err(FrameError::Closed));
        assert_eq!(reader.buf.len(), READ_CHUNK);
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let mut peer = Trickle::new(frames(&[b"payload"]));
        peer.interrupts = 3;
        let mut reader = FrameReader::new();
        assert_eq!(reader.next_frame(&mut peer), Ok(&b"payload"[..]));
        assert_eq!(peer.reads, 3 + 4 + 7);
    }

    /// Records the size of every `write` call it receives.
    #[derive(Debug, Default)]
    struct WriteLog(Vec<usize>);

    impl Read for WriteLog {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Ok(0)
        }
    }

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let mut log = WriteLog::default();
        assert_eq!(write_frame(&mut log, b"{\"type\":\"stats\"}"), Ok(()));
        assert_eq!(write_frame(&mut log, b""), Ok(()));
        assert_eq!(log.0, vec![4 + 16, 4]);
    }

    #[test]
    fn a_batch_of_frames_leaves_in_one_write() {
        let mut log = WriteLog::default();
        let mut batch = FrameWriter::default();
        for payload in [&b"{\"type\":\"stats\"}"[..], b"", b"xyz"] {
            assert_eq!(batch.push(payload), Ok(()));
        }
        assert_eq!(batch.buffered(), 4 + 16 + 4 + 4 + 3);
        assert_eq!(batch.send(&mut log), Ok(3));
        assert_eq!(batch.buffered(), 0);
        assert_eq!(log.0, vec![4 + 16 + 4 + 4 + 3]);
    }

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        for (request, _) in golden_requests() {
            let payload = request.to_json().render().into_bytes();
            assert_eq!(Request::from_payload(&payload), Ok(request));
        }
    }

    #[test]
    fn trace_context_rides_alongside_any_request() {
        let seeds = SeedSequence::new(0xfee1);
        for (i, (request, _)) in golden_requests().into_iter().enumerate() {
            let trace = TraceContext::derive(&seeds, i as u64);
            assert!(trace.trace_id <= TRACE_ID_MASK);
            assert!(trace.flow_id <= TRACE_ID_MASK);
            // The salted reply flow stays distinct so the two arrows of
            // one request never collapse onto each other.
            assert_ne!(trace.flow_id, trace.reply_flow());

            let payload = request
                .to_json_with_trace(Some(trace))
                .render()
                .into_bytes();
            // A traced frame decodes to the same request plus the context...
            assert_eq!(
                Request::from_payload_traced(&payload),
                Ok((request.clone(), Some(trace)))
            );
            // ...and an old daemon's parser (from_payload) simply ignores it.
            assert_eq!(Request::from_payload(&payload), Ok(request.clone()));

            // An untraced frame (old client) decodes with no context, and
            // to_json_with_trace(None) is byte-identical to to_json.
            let bare = request.to_json().render();
            assert_eq!(request.to_json_with_trace(None).render(), bare);
            assert_eq!(
                Request::from_payload_traced(bare.as_bytes()),
                Ok((request, None))
            );
        }
        // Derivation is pure: same seeds + index, same ids.
        assert_eq!(
            TraceContext::derive(&seeds, 3),
            TraceContext::derive(&SeedSequence::new(0xfee1), 3)
        );
    }

    #[test]
    fn malformed_trace_fields_are_harmless() {
        let cases = [
            // Not an object.
            r#"{"type":"stats","trace":7}"#,
            // Missing flow.
            r#"{"type":"stats","trace":{"id":12}}"#,
            // Wrong types.
            r#"{"type":"stats","trace":{"id":"abc","flow":1}}"#,
            // Negative and fractional ids.
            r#"{"type":"stats","trace":{"id":-4,"flow":1}}"#,
            r#"{"type":"stats","trace":{"id":1.5,"flow":1}}"#,
            // Out of the 48-bit range.
            r#"{"type":"stats","trace":{"id":281474976710656,"flow":1}}"#,
        ];
        for payload in cases {
            assert_eq!(
                Request::from_payload_traced(payload.as_bytes()),
                Ok((Request::Stats, None)),
                "bad trace in {payload} must not fail the request"
            );
        }
    }

    #[test]
    fn malformed_requests_map_to_stable_codes() {
        let cases: [(&[u8], ErrorCode); 6] = [
            (b"not json at all", ErrorCode::BadJson),
            (b"{\"chip\":3}", ErrorCode::BadRequest),
            (b"{\"type\":\"frobnicate\"}", ErrorCode::UnknownType),
            (b"{\"type\":\"plan\"}", ErrorCode::BadRequest),
            (
                b"{\"type\":\"plan\",\"chip\":0,\"period_s\":1e999}",
                ErrorCode::BadRequest,
            ),
            (
                b"{\"type\":\"report\",\"chip\":1,\"duty\":1.5}",
                ErrorCode::BadRequest,
            ),
        ];
        for (payload, expected) in cases {
            match Request::from_payload(payload) {
                Err((code, _)) => assert_eq!(code, expected),
                Ok(req) => panic!("{payload:?} must not parse, got {req:?}"),
            }
        }
    }

    #[test]
    fn error_messages_echo_a_bounded_prefix_of_client_text() {
        for head in [
            "{\"type\":\"",
            "{\"type\":\"plan\",\"chip\":0,\"technique\":\"",
        ] {
            let quotes = (MAX_FRAME - head.len() - 2) / 2;
            let payload = format!("{head}{}\"}}", "\\\"".repeat(quotes));
            assert!(payload.len() <= MAX_FRAME);
            match Request::from_payload(payload.as_bytes()) {
                Err((_, message)) => assert!(message.len() < 256, "{} bytes", message.len()),
                Ok(request) => panic!("must not parse, got {request:?}"),
            }
        }
        // The cut counts chars, so no multi-byte sequence is split.
        let payload = format!("{{\"type\":\"{}\"}}", "é🦀".repeat(50));
        assert_eq!(
            Request::from_payload(payload.as_bytes()),
            Err((
                ErrorCode::UnknownType,
                format!("unknown request type {:?}", "é🦀".repeat(32))
            ))
        );
    }

    #[test]
    fn responses_round_trip_through_the_wire_format() {
        for (response, _) in golden_responses() {
            let payload = response.to_payload();
            assert_eq!(Response::from_payload(&payload), Some(response));
        }
    }

    /// One value of every request variant with its exact wire bytes.
    fn golden_requests() -> Vec<(Request, &'static str)> {
        vec![
            (
                Request::Plan {
                    chip: 42,
                    technique: RejuvenationTechnique::HighTemperature,
                    period: Some(Seconds::new(43_200.0)),
                    horizon: Some(Seconds::new(31_536_000.0)),
                },
                r#"{"chip":42.0,"horizon_s":31536000.0,"period_s":43200.0,"technique":"high-temperature","type":"plan"}"#,
            ),
            (
                Request::Plan {
                    chip: 0,
                    technique: RejuvenationTechnique::Combined,
                    period: None,
                    horizon: None,
                },
                r#"{"chip":0.0,"technique":"combined","type":"plan"}"#,
            ),
            (
                Request::Predict {
                    chip: 7,
                    dt: Seconds::new(3_600.0),
                },
                r#"{"chip":7.0,"dt_s":3600.0,"type":"predict"}"#,
            ),
            (
                Request::Report {
                    chip: 3,
                    duty: DutyCycle::new(0.25),
                },
                r#"{"chip":3.0,"duty":0.25,"type":"report"}"#,
            ),
            (Request::Stats, r#"{"type":"stats"}"#),
            (Request::DebugDump, r#"{"type":"debug-dump"}"#),
            (Request::Shutdown, r#"{"type":"shutdown"}"#),
        ]
    }

    /// One value of every response variant (and every error code) with
    /// its exact wire bytes.
    fn golden_responses() -> Vec<(Response, &'static str)> {
        let error = |code| Response::Error {
            code,
            message: "chip 10 is outside the fleet".into(),
        };
        vec![
            (
                Response::Plan {
                    chip: 1,
                    consumed: Millivolts::new(4.25),
                    plan: Ratio::new(3.5).map(|alpha| RejuvenationPlan {
                        alpha,
                        technique: RejuvenationTechnique::Combined,
                        period: Seconds::new(86_400.0),
                        predicted_peak: Millivolts::new(21.5),
                        recover_first: false,
                    }),
                },
                r#"{"alpha":3.5,"chip":1.0,"consumed_mv":4.25,"feasible":true,"period_s":86400.0,"predicted_peak_mv":21.5,"sleep_s_per_period":19200.0,"technique":"combined","type":"plan"}"#,
            ),
            (
                Response::Plan {
                    chip: 5,
                    consumed: Millivolts::new(31.0),
                    plan: Ratio::new(1.0).map(|alpha| RejuvenationPlan {
                        alpha,
                        technique: RejuvenationTechnique::Combined,
                        period: Seconds::new(86_400.0),
                        predicted_peak: Millivolts::new(29.5),
                        recover_first: true,
                    }),
                },
                r#"{"alpha":1.0,"chip":5.0,"consumed_mv":31.0,"feasible":true,"period_s":86400.0,"predicted_peak_mv":29.5,"recover_first":true,"sleep_s_per_period":43200.0,"technique":"combined","type":"plan"}"#,
            ),
            (
                Response::Plan {
                    chip: 2,
                    consumed: Millivolts::new(31.0),
                    plan: None,
                },
                r#"{"chip":2.0,"consumed_mv":31.0,"feasible":false,"type":"plan"}"#,
            ),
            (
                Response::Predict {
                    chip: 9,
                    current: Millivolts::new(3.0),
                    projected: Millivolts::new(5.5),
                    headroom: Millivolts::new(-1.25),
                },
                r#"{"chip":9.0,"current_mv":3.0,"headroom_mv":-1.25,"projected_mv":5.5,"type":"predict"}"#,
            ),
            (
                Response::Report {
                    chip: 4,
                    duty: DutyCycle::new(0.5),
                    epoch: 12,
                },
                r#"{"chip":4.0,"duty":0.5,"epoch":12.0,"type":"report"}"#,
            ),
            (
                Response::Stats(StatsReply {
                    chips: 100,
                    shards: 8,
                    epoch: 3,
                    sim_time: Seconds::new(10_800.0),
                    requests: 512,
                    mean_delta_vth: Millivolts::new(2.125),
                    worst_delta_vth: Millivolts::new(9.75),
                    over_budget_chips: 0,
                    state_digest: 0xdead_beef_cafe_f00d,
                }),
                r#"{"chips":100.0,"epoch":3.0,"mean_delta_vth_mv":2.125,"over_budget_chips":0.0,"requests":512.0,"shards":8.0,"sim_time_s":10800.0,"state_digest":"deadbeefcafef00d","type":"stats","worst_delta_vth_mv":9.75}"#,
            ),
            (
                Response::DebugDump {
                    events: 57,
                    path: Some("/var/log/flight.jsonl".into()),
                },
                r#"{"events":57.0,"path":"/var/log/flight.jsonl","type":"debug-dump"}"#,
            ),
            (
                Response::DebugDump {
                    events: 0,
                    path: None,
                },
                r#"{"events":0.0,"type":"debug-dump"}"#,
            ),
            (Response::Bye, r#"{"type":"bye"}"#),
            (
                error(ErrorCode::BadJson),
                r#"{"code":"bad-json","message":"chip 10 is outside the fleet","type":"error"}"#,
            ),
            (
                error(ErrorCode::UnknownType),
                r#"{"code":"unknown-type","message":"chip 10 is outside the fleet","type":"error"}"#,
            ),
            (
                error(ErrorCode::BadRequest),
                r#"{"code":"bad-request","message":"chip 10 is outside the fleet","type":"error"}"#,
            ),
            (
                error(ErrorCode::UnknownChip),
                r#"{"code":"unknown-chip","message":"chip 10 is outside the fleet","type":"error"}"#,
            ),
            (
                error(ErrorCode::Oversize),
                r#"{"code":"oversize","message":"chip 10 is outside the fleet","type":"error"}"#,
            ),
        ]
    }

    /// Prepends a key no parser knows to a rendered object.
    fn with_unknown_field(payload: &str) -> String {
        format!("{{\"x_unknown\":[1,{{\"nested\":null}}],{}", &payload[1..])
    }

    /// A round trip through this codec cannot catch a field renamed on
    /// both sides; the golden bytes can, and an old peer would break on
    /// exactly that. Every parser must also skip unknown fields.
    #[test]
    fn wire_bytes_are_pinned() {
        for (request, wire) in golden_requests() {
            assert_eq!(request.to_json().render(), wire);
            assert_eq!(Request::from_payload(wire.as_bytes()), Ok(request.clone()));
            assert_eq!(
                Request::from_payload(with_unknown_field(wire).as_bytes()),
                Ok(request)
            );
        }
        let traced = Request::Stats.to_json_with_trace(Some(TraceContext {
            trace_id: 5,
            flow_id: 9,
        }));
        assert_eq!(
            traced.render(),
            r#"{"trace":{"flow":9.0,"id":5.0},"type":"stats"}"#
        );
        for (response, wire) in golden_responses() {
            assert_eq!(response.to_payload(), wire.as_bytes());
            assert_eq!(
                Response::from_payload(wire.as_bytes()),
                Some(response.clone())
            );
            assert_eq!(
                Response::from_payload(with_unknown_field(wire).as_bytes()),
                Some(response)
            );
        }
    }
}
