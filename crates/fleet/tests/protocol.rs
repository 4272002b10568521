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

use selfheal_fleet::proto::{read_frame, ErrorCode, Request, Response, MAX_FRAME};
use selfheal_fleet::{FleetClient, FleetConfig, FleetDaemon, FleetServer, ServerConfig};
use selfheal_runtime::ResultCache;
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

fn raw_connection(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    stream
}

fn expect_error(stream: &mut TcpStream, expected: ErrorCode) {
    let payload = read_frame(stream).expect("an error reply frame");
    match Response::from_payload(&payload) {
        Some(Response::Error { code, .. }) => assert_eq!(code, expected),
        other => panic!("expected {expected:?} error, got {other:?}"),
    }
}

fn send_frame(stream: &mut TcpStream, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("small frame");
    stream.write_all(&len.to_be_bytes()).expect("send header");
    stream.write_all(payload).expect("send payload");
}

#[test]
fn abuse_cases_never_wedge_the_worker() {
    let (addr, server) = start_server();

    // 1. Oversized length prefix: structured error, then disconnect.
    {
        let mut stream = raw_connection(addr);
        stream
            .write_all(&0x4000_0000u32.to_be_bytes())
            .expect("send oversized header");
        expect_error(&mut stream, ErrorCode::Oversize);
        // The server drops the desynchronized connection.
        match read_frame(&mut stream) {
            Err(_) => {}
            Ok(frame) => panic!("connection must be closed after oversize, got {frame:?}"),
        }
    }

    // 2. Truncated frame: header promises 64 bytes, 10 arrive, we hang
    //    up. The server must just drop the connection.
    {
        let mut stream = raw_connection(addr);
        stream.write_all(&64u32.to_be_bytes()).expect("send header");
        stream.write_all(&[0x20; 10]).expect("send partial payload");
    }

    // 3. Invalid JSON: structured error AND the connection stays usable.
    {
        let mut stream = raw_connection(addr);
        send_frame(&mut stream, b"definitely not json {{{");
        expect_error(&mut stream, ErrorCode::BadJson);
        send_frame(&mut stream, b"{\"type\":\"stats\"}");
        let payload = read_frame(&mut stream).expect("stats after bad json");
        match Response::from_payload(&payload) {
            Some(Response::Stats(stats)) => assert_eq!(stats.chips, 16),
            other => panic!("expected stats on the same connection, got {other:?}"),
        }
    }

    // 4. Unknown request type: structured error.
    {
        let mut stream = raw_connection(addr);
        send_frame(&mut stream, b"{\"type\":\"frobnicate\"}");
        expect_error(&mut stream, ErrorCode::UnknownType);
    }

    // 5. Mid-request client disconnect: two header bytes, then gone.
    {
        let mut stream = raw_connection(addr);
        stream.write_all(&[0u8, 0]).expect("send partial header");
        drop(stream);
    }

    // 6. Hostile plans: a horizon of billions of cycles, an infinite
    //    horizon, and cycle counts past `usize::MAX`. Each must be
    //    refused as a bad request on a connection that stays usable,
    //    never planned (which would allocate one entry per cycle).
    {
        let mut stream = raw_connection(addr);
        for payload in [
            &b"{\"type\":\"plan\",\"chip\":0,\"period_s\":0.001}"[..],
            b"{\"type\":\"plan\",\"chip\":0,\"horizon_s\":1e999}",
            b"{\"type\":\"plan\",\"chip\":0,\"horizon_s\":1e300}",
            b"{\"type\":\"plan\",\"chip\":0,\"period_s\":5e-324}",
        ] {
            send_frame(&mut stream, payload);
            expect_error(&mut stream, ErrorCode::BadRequest);
        }
    }

    // 7. Frame-sized bad names made of `"`, which an unbounded echo
    //    would escape to a reply twice the frame limit. Each still gets
    //    its structured error on a connection that then serves stats.
    {
        let mut stream = raw_connection(addr);
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
            send_frame(&mut stream, &payload);
            expect_error(&mut stream, expected);
        }
        send_frame(&mut stream, b"{\"type\":\"stats\"}");
        let payload = read_frame(&mut stream).expect("stats after the long names");
        assert!(matches!(
            Response::from_payload(&payload),
            Some(Response::Stats(_))
        ));
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
