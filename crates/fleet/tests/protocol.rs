//! Protocol robustness over real sockets: every malformed input must
//! produce a structured error (or a clean close) without poisoning
//! shard state or wedging the single worker this server is given. The
//! codec tests at the end hold the daemon's tree-free request decoder
//! and reply writer to the tree codec they replaced, over seeded
//! corpora.
//!
//! The server runs with **one** worker thread on purpose — if any of
//! the abuse cases left a worker stuck, the healthy requests that
//! follow could never be served and the test would time out instead of
//! pass.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfheal::{RejuvenationPlan, RejuvenationTechnique};
use selfheal_fleet::proto::{
    parse_technique, technique_name, ErrorCode, FrameError, FrameReader, Request, Response,
    StatsReply, TraceContext, MAX_FRAME, TRACE_ID_MASK,
};
use selfheal_fleet::{FleetClient, FleetConfig, FleetDaemon, FleetServer, ServerConfig};
use selfheal_runtime::ResultCache;
use selfheal_telemetry::json::{self, Json};
use selfheal_telemetry::metrics::{self, Metric};
use selfheal_units::{DutyCycle, Millivolts, Ratio, Seconds};

fn start_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<selfheal_fleet::ServeSummary>,
) {
    let mut config = FleetConfig::default();
    config.chips = 16;
    config.shards = 2;
    config.seed = 9;
    config.trap_params.mean_trap_count = 6.0;
    let daemon = FleetDaemon::new(config, ResultCache::disabled(), 0);
    let server = FleetServer::bind(
        daemon,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            epoch_interval: None,
            max_epochs: None,
        },
    )
    .expect("bind on loopback");
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// A hand-driven connection: bytes written as given, replies read
/// through a [`FrameReader`].
struct Raw {
    stream: TcpStream,
    reader: FrameReader,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        Raw {
            stream,
            reader: FrameReader::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    fn send_frame(&mut self, payload: &[u8]) {
        self.send(&frame(payload));
    }

    fn reply(&mut self) -> Result<Response, FrameError> {
        let payload = self.reader.next_frame(&mut self.stream)?;
        Ok(Response::from_payload(payload).expect("a reply parses"))
    }

    fn expect_error(&mut self, expected: ErrorCode) {
        match self.reply() {
            Ok(Response::Error { code, .. }) => assert_eq!(code, expected),
            other => panic!("expected {expected:?} error, got {other:?}"),
        }
    }
}

/// `payload` behind its 4-byte length.
fn frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("small frame");
    [&len.to_be_bytes()[..], payload].concat()
}

#[test]
fn abuse_cases_never_wedge_the_worker() {
    let (addr, server) = start_server();

    // 1. Oversized length prefix: structured error, then disconnect.
    {
        let mut conn = Raw::connect(addr);
        conn.send(&0x4000_0000u32.to_be_bytes());
        conn.expect_error(ErrorCode::Oversize);
        // The server drops the desynchronized connection.
        match conn.reply() {
            Err(_) => {}
            Ok(reply) => panic!("connection must be closed after oversize, got {reply:?}"),
        }
    }

    // 2. Truncated frame: header promises 64 bytes, 10 arrive, we hang
    //    up. The server must just drop the connection.
    {
        let mut conn = Raw::connect(addr);
        conn.send(&64u32.to_be_bytes());
        conn.send(&[0x20; 10]);
    }

    // 3. Invalid JSON: structured error AND the connection stays usable.
    {
        let mut conn = Raw::connect(addr);
        conn.send_frame(b"definitely not json {{{");
        conn.expect_error(ErrorCode::BadJson);
        conn.send_frame(b"{\"type\":\"stats\"}");
        match conn.reply() {
            Ok(Response::Stats(stats)) => assert_eq!(stats.chips, 16),
            other => panic!("expected stats on the same connection, got {other:?}"),
        }
    }

    // 4. Unknown request type: structured error.
    {
        let mut conn = Raw::connect(addr);
        conn.send_frame(b"{\"type\":\"frobnicate\"}");
        conn.expect_error(ErrorCode::UnknownType);
    }

    // 5. Mid-request client disconnect: two header bytes, then gone.
    {
        let mut conn = Raw::connect(addr);
        conn.send(&[0u8, 0]);
        drop(conn);
    }

    // 6. Hostile plans: a horizon of billions of cycles, an infinite
    //    horizon, and cycle counts past `usize::MAX`. Each must be
    //    refused as a bad request on a connection that stays usable,
    //    never planned (which would allocate one entry per cycle).
    {
        let mut conn = Raw::connect(addr);
        for payload in [
            &b"{\"type\":\"plan\",\"chip\":0,\"period_s\":0.001}"[..],
            b"{\"type\":\"plan\",\"chip\":0,\"horizon_s\":1e999}",
            b"{\"type\":\"plan\",\"chip\":0,\"horizon_s\":1e300}",
            b"{\"type\":\"plan\",\"chip\":0,\"period_s\":5e-324}",
        ] {
            conn.send_frame(payload);
            conn.expect_error(ErrorCode::BadRequest);
        }
    }

    // 7. Frame-sized bad names made of `"`, which an unbounded echo
    //    would escape to a reply twice the frame limit. Each still gets
    //    its structured error on a connection that then serves stats.
    {
        let mut conn = Raw::connect(addr);
        for (head, expected) in [
            (&b"{\"type\":\""[..], ErrorCode::UnknownType),
            (
                b"{\"type\":\"plan\",\"chip\":0,\"technique\":\"",
                ErrorCode::BadRequest,
            ),
        ] {
            let quotes = (MAX_FRAME - head.len() - 2) / 2;
            let mut payload = head.to_vec();
            payload.extend(b"\\\"".repeat(quotes));
            payload.extend(b"\"}");
            conn.send_frame(&payload);
            conn.expect_error(expected);
        }
        conn.send_frame(b"{\"type\":\"stats\"}");
        assert!(matches!(conn.reply(), Ok(Response::Stats(_))));
    }

    // After all of that, the single worker still serves real traffic.
    let mut client = FleetClient::connect(addr).expect("connect typed client");
    match client.call(&Request::Report {
        chip: 3,
        duty: DutyCycle::new(0.5),
    }) {
        Ok(Response::Report { chip: 3, .. }) => {}
        other => panic!("expected a report ack, got {other:?}"),
    }
    match client.call(&Request::Plan {
        chip: 3,
        technique: selfheal::RejuvenationTechnique::Combined,
        period: None,
        horizon: Some(Seconds::new(7.0 * 86_400.0)),
    }) {
        Ok(Response::Plan { chip: 3, plan, .. }) => {
            assert!(plan.is_some(), "a fresh chip must get a feasible plan");
        }
        other => panic!("expected a plan, got {other:?}"),
    }

    // Graceful shutdown: Bye, then the server thread joins.
    match client.call(&Request::Shutdown) {
        Ok(Response::Bye) => {}
        other => panic!("expected bye, got {other:?}"),
    }
    let summary = server.join().expect("server thread joins");
    assert!(
        summary.requests >= 3,
        "typed requests must all have been served (got {})",
        summary.requests
    );
    assert!(!summary.checkpointed, "cache was disabled");
}

/// The predict for `chip`, as wire bytes.
fn predict(chip: u64) -> Vec<u8> {
    Request::Predict {
        chip,
        dt: Seconds::new(3_600.0),
    }
    .to_json()
    .render()
    .into_bytes()
}

fn assert_predict(reply: Result<Response, FrameError>, chip: u64) {
    match reply {
        Ok(Response::Predict { chip: got, .. }) => assert_eq!(got, chip, "reply out of order"),
        other => panic!("expected the predict for chip {chip}, got {other:?}"),
    }
}

#[test]
fn a_pipelined_batch_is_answered_in_order() {
    metrics::set_enabled(true);
    let (addr, server) = start_server();

    // 8 frames in one write, the fifth bad JSON: 8 replies in order,
    // the fifth a bad-json error.
    {
        let mut conn = Raw::connect(addr);
        let batch: Vec<u8> = (0..8u64)
            .flat_map(|slot| match slot {
                4 => frame(b"{\"type\":"),
                chip => frame(&predict(chip)),
            })
            .collect();
        conn.send(&batch);
        for slot in 0..8 {
            if slot == 4 {
                conn.expect_error(ErrorCode::BadJson);
            } else {
                assert_predict(conn.reply(), slot);
            }
        }
    }

    // Two requests and an oversized header in one write: both answered,
    // then the oversize error, then the connection closes.
    {
        let mut conn = Raw::connect(addr);
        let batch = [
            frame(&predict(1)),
            frame(&predict(2)),
            0x4000_0000u32.to_be_bytes().to_vec(),
        ]
        .concat();
        conn.send(&batch);
        assert_predict(conn.reply(), 1);
        assert_predict(conn.reply(), 2);
        conn.expect_error(ErrorCode::Oversize);
        match conn.reply() {
            Err(FrameError::Closed) => {}
            other => panic!("connection must be closed after oversize, got {other:?}"),
        }
    }

    let mut client = FleetClient::connect(addr).expect("connect typed client");
    let requests: Vec<Request> = (0..3u64)
        .map(|chip| Request::Predict {
            chip,
            dt: Seconds::new(3_600.0),
        })
        .chain([Request::Shutdown])
        .collect();
    let replies = client.pipeline(&requests).expect("a pipelined batch");
    for (chip, reply) in (0..3u64).zip(&replies) {
        assert_predict(Ok(reply.clone()), chip);
    }
    assert_eq!(replies[3], Response::Bye);
    let summary = server.join().expect("server thread joins");
    assert_eq!(
        summary.requests,
        7 + 2 + 4,
        "every parsed request was served"
    );
    // Replies to frames that one read delivered left together. Read
    // once the workers are joined: a worker records its batch after
    // the write, so a client can see the replies first.
    match metrics::snapshot().get("fleet.request.batch") {
        Some(Metric::Histogram(batches)) => {
            assert!(batches.max() >= Some(2.0), "replies sent one per write");
        }
        other => panic!("no fleet.request.batch histogram: {other:?}"),
    }
}

// Differential codec tests. The daemon decodes requests from a scan of
// the payload's top-level object and writes replies field by field; the
// references below are the tree codec both replaced (parse the whole
// payload into a `Json`, look each field up in it; build a `Json`
// object and render it), kept here as the oracle.

/// Most chars of client text an error message quotes back.
const ECHO_CHARS: usize = 64;

fn echo(text: &str) -> &str {
    text.char_indices()
        .nth(ECHO_CHARS)
        .map_or(text, |(cut, _)| &text[..cut])
}

fn tree_u64(json: &Json) -> Option<u64> {
    let value = json.as_f64()?;
    (value >= 0.0 && value.fract() == 0.0).then_some(value as u64)
}

fn tree_field_u64(doc: &Json, key: &str) -> Result<u64, (ErrorCode, String)> {
    doc.get(key).and_then(tree_u64).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            format!("\"{key}\" must be a non-negative integer"),
        )
    })
}

fn tree_positive(doc: &Json, key: &str) -> Result<f64, (ErrorCode, String)> {
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

fn tree_seconds(doc: &Json, key: &str) -> Result<Option<Seconds>, (ErrorCode, String)> {
    match doc.get(key) {
        None => Ok(None),
        Some(_) => Ok(Some(Seconds::new(tree_positive(doc, key)?))),
    }
}

fn tree_trace(doc: &Json) -> Option<TraceContext> {
    let trace = doc.get("trace")?;
    let id = trace.get("id").and_then(tree_u64)?;
    let flow = trace.get("flow").and_then(tree_u64)?;
    (id <= TRACE_ID_MASK && flow <= TRACE_ID_MASK).then_some(TraceContext {
        trace_id: id,
        flow_id: flow,
    })
}

fn tree_request(doc: &Json) -> Result<Request, (ErrorCode, String)> {
    let kind = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| (ErrorCode::BadRequest, "missing \"type\" field".to_string()))?;
    match kind {
        "plan" => Ok(Request::Plan {
            chip: tree_field_u64(doc, "chip")?,
            technique: match doc.get("technique").and_then(Json::as_str) {
                None => RejuvenationTechnique::Combined,
                Some(name) => parse_technique(name).ok_or_else(|| {
                    (
                        ErrorCode::BadRequest,
                        format!("unknown technique {:?}", echo(name)),
                    )
                })?,
            },
            period: tree_seconds(doc, "period_s")?,
            horizon: tree_seconds(doc, "horizon_s")?,
        }),
        "predict" => Ok(Request::Predict {
            chip: tree_field_u64(doc, "chip")?,
            dt: Seconds::new(tree_positive(doc, "dt_s")?),
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
                chip: tree_field_u64(doc, "chip")?,
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

/// The reference request decoder: the whole payload as a tree.
fn tree_decode(payload: &[u8]) -> Result<(Request, Option<TraceContext>), (ErrorCode, String)> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| (ErrorCode::BadJson, "payload is not UTF-8".to_string()))?;
    let doc = json::parse(text)
        .map_err(|e| (ErrorCode::BadJson, format!("payload is not JSON: {e:?}")))?;
    let trace = tree_trace(&doc);
    tree_request(&doc).map(|request| (request, trace))
}

/// Builds random request payloads as text: every field the decoder
/// knows plus unknown ones, good and bad values, duplicated keys,
/// `\u`-escaped keys, traces good and malformed, and random whitespace.
struct Corpus {
    rng: StdRng,
}

impl Corpus {
    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.rng.gen_range(0..items.len())]
    }

    fn ws(&mut self) -> &'static str {
        match self.rng.gen_range(0..8u32) {
            0 => " ",
            1 => "\n\t ",
            2 => "\r\n",
            _ => "",
        }
    }

    /// A JSON string literal for `text`, its first char sometimes as a
    /// `\u` escape and its specials escaped.
    fn string(&mut self, text: &str) -> String {
        let mut out = String::from("\"");
        for (i, c) in text.chars().enumerate() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c if i == 0 && self.rng.gen_bool(0.15) => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn number(&mut self) -> String {
        match self.rng.gen_range(0..10u32) {
            0 => self
                .pick(&["0", "-0", "-0.0", "1e999", "-1e999", "1e-400"])
                .to_string(),
            1 => self
                .pick(&["281474976710655", "281474976710656", "9007199254740993"])
                .to_string(),
            2 => format!("{}", self.rng.gen_range(-5..5i64)),
            3 => format!("{:e}", self.rng.gen_range(-2.0..2.0)),
            4 => format!("{}.5", self.rng.gen_range(0..100u64)),
            5 => format!("{:?}", self.rng.gen_range(-0.25..1.25)),
            6 => format!(
                "{}E{}",
                self.rng.gen_range(1..9u32),
                self.rng.gen_range(-3..6i32)
            ),
            _ => format!("{}", self.rng.gen_range(0..100u64)),
        }
    }

    /// Any JSON value, nested ones included.
    fn any(&mut self, depth: u32) -> String {
        match self.rng.gen_range(0..if depth > 1 { 5 } else { 7u32 }) {
            0 | 1 => self.number(),
            2 => {
                let text = self.pick(&["", "plan", "combined", "x\"y", "é🦀", "a\\b", "\n"]);
                self.string(text)
            }
            3 => self.pick(&["true", "false"]).to_string(),
            4 => "null".to_string(),
            5 => {
                let items: Vec<String> = (0..self.rng.gen_range(0..3usize))
                    .map(|_| self.any(depth + 1))
                    .collect();
                format!("[{}]", items.join(","))
            }
            _ => {
                let key = self.pick(&["id", "flow", "type", "nested"]);
                let key = self.string(key);
                let value = self.any(depth + 1);
                format!("{{{key}:{value}}}")
            }
        }
    }

    /// A plausible value for `key`, or any value at all.
    fn value(&mut self, key: &str) -> String {
        if self.rng.gen_bool(0.25) {
            return self.any(0);
        }
        match key {
            "type" => {
                let kind = self.pick(&[
                    "plan",
                    "predict",
                    "report",
                    "stats",
                    "debug-dump",
                    "shutdown",
                    "frobnicate",
                    "Plan",
                ]);
                self.string(kind)
            }
            "technique" => {
                let name = self.pick(&[
                    "passive",
                    "negative-voltage",
                    "high-temperature",
                    "combined",
                    "bogus",
                ]);
                self.string(name)
            }
            "duty" => format!("{:?}", self.rng.gen_range(-0.2..1.2)),
            "trace" => {
                let id = self.number();
                let flow = self.number();
                match self.rng.gen_range(0..4u32) {
                    0 => format!("{{\"flow\":{flow}}}"),
                    1 => format!("{{\"id\":{id},\"flow\":{flow},\"id\":\"x\"}}"),
                    _ => {
                        let id = self.rng.gen_range(0..=TRACE_ID_MASK + 2);
                        let flow = self.rng.gen_range(0..=TRACE_ID_MASK);
                        format!("{{\"id\":{id},\"flow\":{flow}}}")
                    }
                }
            }
            _ => self.number(),
        }
    }

    /// One payload: an object of random fields, sometimes another kind
    /// of document, sometimes truncated or with one byte replaced.
    fn payload(&mut self) -> Vec<u8> {
        if self.rng.gen_bool(0.04) {
            return self.any(0).into_bytes();
        }
        let mut fields: Vec<(String, String)> = Vec::new();
        for key in [
            "type",
            "chip",
            "technique",
            "period_s",
            "horizon_s",
            "dt_s",
            "duty",
            "trace",
        ] {
            let odds = if key == "type" { 0.95 } else { 0.55 };
            if self.rng.gen_bool(odds) {
                let value = self.value(key);
                fields.push((key.to_string(), value));
            }
        }
        for _ in 0..self.rng.gen_range(0..3usize) {
            let key = self.pick(&["x_unknown", "chips", "", "typ"]).to_string();
            let value = self.any(0);
            fields.push((key, value));
        }
        for _ in 0..self.rng.gen_range(0..3usize) {
            if fields.is_empty() {
                break;
            }
            let key = fields[self.rng.gen_range(0..fields.len())].0.clone();
            let value = self.value(&key);
            fields.push((key, value));
        }
        for i in (1..fields.len()).rev() {
            fields.swap(i, self.rng.gen_range(0..=i));
        }
        let mut text = format!("{}{{", self.ws());
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let key = self.string(key);
            let (a, b, c, d) = (self.ws(), self.ws(), self.ws(), self.ws());
            text.push_str(&format!("{a}{key}{b}:{c}{value}{d}"));
        }
        text.push('}');
        text.push_str(self.ws());
        let mut bytes = text.into_bytes();
        match self.rng.gen_range(0..10u32) {
            0 => bytes.truncate(self.rng.gen_range(0..bytes.len())),
            1 => {
                let at = self.rng.gen_range(0..bytes.len());
                bytes[at] = self.rng.gen_range(0..=255u8);
            }
            _ => {}
        }
        bytes
    }
}

#[test]
fn scanned_requests_decode_as_the_tree_decoder_did() {
    let mut corpus = Corpus {
        rng: StdRng::seed_from_u64(0x5ca2),
    };
    let mut fixed: Vec<Vec<u8>> = [
        // Duplicated keys: the last one counts, whatever it holds.
        r#"{"type":"stats","type":"predict","chip":1,"dt_s":2}"#,
        r#"{"type":"report","chip":1,"duty":0.5,"duty":1.5}"#,
        r#"{"type":"report","chip":1,"duty":1.5,"duty":0.5}"#,
        r#"{"type":"plan","chip":2,"technique":"passive","technique":7}"#,
        r#"{"type":"stats","trace":{"id":1,"flow":2},"trace":null}"#,
        // `\u`-escaped keys and values.
        r#"{"\u0074ype":"\u0073tats"}"#,
        r#"{"type":"plan","chip":0,"t\u0065chnique":"pass\u0069ve"}"#,
        // Documents that are not objects, and malformed ones.
        "[]",
        "\"stats\"",
        "7",
        " null ",
        "",
        "{",
        "{\"type\":\"stats\"",
        "{\"type\":\"stats\",}",
        "{\"type\" \"stats\"}",
        "{\"type\":\"stats\"} x",
        "{\"type\":\"st\\q\"}",
        "{\"type\":\"\\u12\"}",
        "{type:\"stats\"}",
    ]
    .iter()
    .map(|text| text.as_bytes().to_vec())
    .collect();
    fixed.push(vec![b'{', b'"', 0xff, b'"', b':', b'1', b'}']);
    let (mut decoded, mut traced) = (0, 0);
    let mut codes = std::collections::BTreeSet::new();
    for payload in fixed
        .into_iter()
        .chain((0..20_000).map(|_| corpus.payload()))
    {
        let expected = tree_decode(&payload);
        assert_eq!(
            Request::from_payload_traced(&payload),
            expected,
            "payload {:?}",
            String::from_utf8_lossy(&payload)
        );
        match expected {
            Ok((_, trace)) => {
                decoded += 1;
                traced += usize::from(trace.is_some());
            }
            Err((code, _)) => {
                codes.insert(code.as_str());
            }
        }
    }
    // The corpus reaches every decoder outcome, not just one of them.
    assert!(decoded > 1_000, "only {decoded} payloads decoded");
    assert!(traced > 100, "only {traced} traces decoded");
    assert_eq!(codes.len(), 3, "error codes seen: {codes:?}");
}

/// The numbers the reply writer's fast path must tell apart from the
/// float formatter's cases.
const EDGE_NUMBERS: [f64; 16] = [
    0.0,
    -0.0,
    5e-324,
    f64::MIN_POSITIVE,
    1e-5,
    0.1,
    1.5,
    -1.25,
    -7.0,
    1e15,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    -9_007_199_254_740_991.0,
    1e16,
    -1e16,
    f64::MAX,
];

/// The reference reply encoder: the reply's fields as a `Json` object,
/// rendered.
fn tree_payload(response: &Response) -> String {
    let n = |value: f64| Json::Number(value);
    let u = |value: u64| Json::Number(value as f64);
    let s = |value: &str| Json::String(value.to_string());
    let mut fields: Vec<(&str, Json)> = match response {
        Response::Plan {
            chip,
            consumed,
            plan,
        } => {
            let mut fields = vec![
                ("type", s("plan")),
                ("chip", u(*chip)),
                ("consumed_mv", n(consumed.get())),
                ("feasible", Json::Bool(plan.is_some())),
            ];
            if let Some(plan) = plan {
                let (_, sleep) = plan.alpha.split_cycle(plan.period);
                fields.push(("alpha", n(plan.alpha.get())));
                fields.push(("technique", s(technique_name(plan.technique))));
                fields.push(("period_s", n(plan.period.get())));
                fields.push(("sleep_s_per_period", n(sleep.get())));
                fields.push(("predicted_peak_mv", n(plan.predicted_peak.get())));
                if plan.recover_first {
                    fields.push(("recover_first", Json::Bool(true)));
                }
            }
            fields
        }
        Response::Predict {
            chip,
            current,
            projected,
            headroom,
        } => vec![
            ("type", s("predict")),
            ("chip", u(*chip)),
            ("current_mv", n(current.get())),
            ("projected_mv", n(projected.get())),
            ("headroom_mv", n(headroom.get())),
        ],
        Response::Report { chip, duty, epoch } => vec![
            ("type", s("report")),
            ("chip", u(*chip)),
            ("duty", n(duty.get())),
            ("epoch", u(*epoch)),
        ],
        Response::Stats(stats) => vec![
            ("type", s("stats")),
            ("chips", u(stats.chips)),
            ("shards", u(stats.shards)),
            ("epoch", u(stats.epoch)),
            ("sim_time_s", n(stats.sim_time.get())),
            ("requests", u(stats.requests)),
            ("mean_delta_vth_mv", n(stats.mean_delta_vth.get())),
            ("worst_delta_vth_mv", n(stats.worst_delta_vth.get())),
            ("over_budget_chips", u(stats.over_budget_chips)),
            ("state_digest", s(&format!("{:016x}", stats.state_digest))),
        ],
        Response::DebugDump { events, path } => {
            let mut fields = vec![("type", s("debug-dump")), ("events", u(*events))];
            if let Some(path) = path {
                fields.push(("path", s(path)));
            }
            fields
        }
        Response::Bye => vec![("type", s("bye"))],
        Response::Error { code, message } => vec![
            ("type", s("error")),
            ("code", s(code.as_str())),
            ("message", s(message)),
        ],
    };
    Json::object(
        fields
            .drain(..)
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
    .render()
}

#[test]
fn written_replies_equal_rendered_trees() {
    let mut rng = StdRng::seed_from_u64(0x2e91);
    let number = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
        0 => EDGE_NUMBERS[rng.gen_range(0..EDGE_NUMBERS.len())],
        1 => f64::from_bits(rng.gen::<u64>()),
        2 => rng.gen_range(-100.0..100.0),
        _ => rng.gen_range(-1000..1000i64) as f64,
    };
    let count = |rng: &mut StdRng| match rng.gen_range(0..3u32) {
        0 => rng.gen::<u64>(),
        1 => (1 << 53) - rng.gen_range(0..3u64),
        _ => rng.gen_range(0..100_000u64),
    };
    let text = |rng: &mut StdRng| {
        [
            "",
            "chip 10 is outside the fleet",
            "a\"b\\c",
            "tab\there\n",
            "\u{1}é🦀",
        ][rng.gen_range(0..5usize)]
        .to_string()
    };
    let techniques = RejuvenationTechnique::ALL;
    for _ in 0..20_000 {
        let response = match rng.gen_range(0..8u32) {
            0 | 1 => Response::Plan {
                chip: count(&mut rng),
                consumed: Millivolts::new(number(&mut rng)),
                plan: Ratio::new(number(&mut rng)).map(|alpha| RejuvenationPlan {
                    alpha,
                    technique: techniques[rng.gen_range(0..techniques.len())],
                    period: Seconds::new(number(&mut rng)),
                    predicted_peak: Millivolts::new(number(&mut rng)),
                    recover_first: rng.gen_bool(0.5),
                }),
            },
            2 => Response::Predict {
                chip: count(&mut rng),
                current: Millivolts::new(number(&mut rng)),
                projected: Millivolts::new(number(&mut rng)),
                headroom: Millivolts::new(number(&mut rng)),
            },
            3 => Response::Report {
                chip: count(&mut rng),
                duty: DutyCycle::new(number(&mut rng)),
                epoch: count(&mut rng),
            },
            4 => Response::Stats(StatsReply {
                chips: count(&mut rng),
                shards: count(&mut rng),
                epoch: count(&mut rng),
                sim_time: Seconds::new(number(&mut rng)),
                requests: count(&mut rng),
                mean_delta_vth: Millivolts::new(number(&mut rng)),
                worst_delta_vth: Millivolts::new(number(&mut rng)),
                over_budget_chips: count(&mut rng),
                state_digest: rng.gen::<u64>() >> rng.gen_range(0..64u32),
            }),
            5 => Response::DebugDump {
                events: count(&mut rng),
                path: rng.gen_bool(0.5).then(|| text(&mut rng)),
            },
            6 => Response::Bye,
            _ => Response::Error {
                code: [
                    ErrorCode::BadJson,
                    ErrorCode::UnknownType,
                    ErrorCode::BadRequest,
                    ErrorCode::UnknownChip,
                    ErrorCode::Oversize,
                ][rng.gen_range(0..5usize)],
                message: text(&mut rng),
            },
        };
        assert_eq!(
            String::from_utf8(response.to_payload()).expect("UTF-8 payload"),
            tree_payload(&response),
            "{response:?}"
        );
    }
}
