//! Protocol robustness over real sockets: every malformed input must
//! produce a structured error (or a clean close) without poisoning
//! shard state or wedging the single worker this server is given.
//!
//! The server runs with **one** worker thread on purpose — if any of
//! the abuse cases left a worker stuck, the healthy requests that
//! follow could never be served and the test would time out instead of
//! pass.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use selfheal_fleet::proto::{ErrorCode, FrameError, FrameReader, Request, Response, MAX_FRAME};
use selfheal_fleet::{FleetClient, FleetConfig, FleetDaemon, FleetServer, ServerConfig};
use selfheal_runtime::ResultCache;
use selfheal_telemetry::metrics::{self, Metric};
use selfheal_units::{DutyCycle, Seconds};

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
