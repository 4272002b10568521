//! The daemon lock under concurrency: two connections on two workers,
//! with wall-clock epochs advancing between their requests.
//!
//! Every request, every epoch tick and every sweep step runs under one
//! lock, so per-connection order holds (a connection never sees the
//! epoch go backwards), the summary counts exactly the replies the
//! clients received, and the final checkpoint resumes to the state the
//! server last served. A stop that lands while shards still lag their
//! tick catches them up first: the final state is the eager one.

use std::io::{Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use selfheal_fleet::proto::{write_frame, FrameReader, Request, Response};
use selfheal_fleet::{
    FleetClient, FleetConfig, FleetDaemon, FleetServer, FleetState, ServeSummary, ServerConfig,
};
use selfheal_runtime::ResultCache;
use selfheal_units::DutyCycle;

const CHIPS: u64 = 32;

fn fleet_config() -> FleetConfig {
    let mut config = FleetConfig::default();
    config.chips = CHIPS as usize;
    config.shards = 2;
    config.seed = 21;
    config.trap_params.mean_trap_count = 6.0;
    config
}

fn scratch_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "selfheal-fleet-concurrency-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Starts a two-worker server with 2 ms epochs over a checkpointing
/// daemon.
fn start(root: &PathBuf, max_epochs: Option<u64>) -> (SocketAddr, JoinHandle<ServeSummary>) {
    start_with(fleet_config(), root, Duration::from_millis(2), max_epochs)
}

fn start_with(
    config: FleetConfig,
    root: &Path,
    epoch: Duration,
    max_epochs: Option<u64>,
) -> (SocketAddr, JoinHandle<ServeSummary>) {
    let daemon = FleetDaemon::new(config, ResultCache::at(root.to_path_buf()), 0);
    let server = FleetServer::bind(
        daemon,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            epoch_interval: Some(epoch),
            max_epochs,
        },
    )
    .expect("bind on loopback");
    let addr = server.addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// The report for the `n`-th request of client `client`, always on one
/// of that client's own chips.
fn report(client: u64, n: u64) -> Request {
    #[allow(clippy::cast_precision_loss)]
    let duty = DutyCycle::new(0.05 + 0.9 * ((n % 10) as f64 / 10.0));
    Request::Report {
        chip: client + 2 * (n % (CHIPS / 2)),
        duty,
    }
}

/// Checks a report reply and returns the epoch it was executed in.
fn report_epoch(response: &Response) -> u64 {
    match response {
        Response::Report { epoch, .. } => *epoch,
        other => panic!("expected a report ack, got {other:?}"),
    }
}

/// Asserts the epochs one connection saw never decrease.
fn assert_monotone(epochs: &[u64]) {
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "report epochs went backwards on one connection: {epochs:?}"
    );
}

/// Resumes a daemon from the checkpoint the server left behind.
fn resumed_digest(root: &PathBuf) -> u64 {
    resumed_digest_of(fleet_config(), root)
}

fn resumed_digest_of(config: FleetConfig, root: &Path) -> u64 {
    let (daemon, resumed) =
        FleetDaemon::resume_or_new(config, ResultCache::at(root.to_path_buf()), 0);
    assert!(resumed, "the server left a final checkpoint");
    daemon.state().state_digest()
}

/// 64 shards of 32 chips: a sweep takes 64 shard steps, at most a few
/// per lock hold, so with 1 ms epochs a stop almost always finds shards
/// still lagging.
fn many_shards_config() -> FleetConfig {
    let mut config = fleet_config();
    config.chips = 2_048;
    config.shards = 64;
    config
}

/// The digest of `config`'s fleet after `epochs` eager epochs.
fn eager_digest(config: FleetConfig, epochs: u64) -> u64 {
    let mut fleet = FleetState::build(config);
    for _ in 0..epochs {
        fleet.advance_epoch();
    }
    fleet.state_digest()
}

/// Reads that catch up the shards they touch while the clock sweeps:
/// predicts spread over the fleet. No `stats`, which would catch up
/// every shard at once.
fn read(n: u64) -> Request {
    Request::Predict {
        chip: (n * 37) % 2_048,
        dt: selfheal_units::Seconds::new(3_600.0),
    }
}

/// Serves reads until the server stops; returns the replies received.
fn read_until_closed(addr: SocketAddr) -> u64 {
    let mut conn = FleetClient::connect(addr).expect("connect");
    let mut n = 0;
    while conn.call(&read(n)).is_ok() {
        n += 1;
    }
    n
}

#[test]
fn timed_epochs_interleave_with_two_connections() {
    let root = scratch_root("timed");
    let (addr, server) = start(&root, Some(20));
    let clients: Vec<JoinHandle<Vec<u64>>> = (0..2u64)
        .map(|client| {
            std::thread::spawn(move || {
                let mut conn = FleetClient::connect(addr).expect("connect");
                let mut epochs = Vec::new();
                // Report until the server stops at its epoch limit and
                // drops the connection.
                while let Ok(response) = conn.call(&report(client, epochs.len() as u64)) {
                    epochs.push(report_epoch(&response));
                }
                epochs
            })
        })
        .collect();
    let summary = server.join().expect("server joins");
    let mut replies = 0;
    for client in clients {
        let epochs = client.join().expect("client joins");
        assert_monotone(&epochs);
        replies += epochs.len() as u64;
    }
    assert_eq!(summary.epochs, 20);
    assert_eq!(
        summary.requests, replies,
        "every executed request was answered"
    );
    assert!(summary.checkpointed);
    assert_eq!(resumed_digest(&root), summary.final_state_digest);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_drops_only_unanswered_requests() {
    let root = scratch_root("shutdown");
    let (addr, server) = start(&root, None);

    // Client 0 keeps four reports in flight until the server hangs up.
    let served = Arc::new(AtomicU64::new(0));
    let pipelined = Arc::clone(&served);
    let pipeliner = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let mut sent = 0u64;
        let mut send = |stream: &mut TcpStream| {
            let frame = report(0, sent).to_json().render().into_bytes();
            sent += 1;
            write_frame(stream, &frame).is_ok()
        };
        let mut open = (0..4).all(|_| send(&mut stream));
        let mut reader = FrameReader::new();
        let mut epochs = Vec::new();
        while let Ok(payload) = reader.next_frame(&mut stream) {
            let response = Response::from_payload(payload).expect("a reply parses");
            epochs.push(report_epoch(&response));
            pipelined.fetch_add(1, Ordering::SeqCst);
            open = open && send(&mut stream);
        }
        epochs
    });

    // Client 1 reports a little, then shuts the server down while
    // client 0 is mid-stream.
    while served.load(Ordering::SeqCst) < 20 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut conn = FleetClient::connect(addr).expect("connect");
    let mut replies = 0u64;
    for n in 0..50 {
        report_epoch(&conn.call(&report(1, n)).expect("report before shutdown"));
        replies += 1;
    }
    match conn.call(&Request::Shutdown) {
        Ok(Response::Bye) => replies += 1,
        other => panic!("expected bye, got {other:?}"),
    }

    let summary = server.join().expect("server joins");
    let epochs = pipeliner.join().expect("pipelining client joins");
    assert!(!epochs.is_empty(), "the pipelining client was served");
    assert_monotone(&epochs);
    replies += epochs.len() as u64;
    assert_eq!(summary.requests, replies, "no request ran unanswered");
    assert!(summary.checkpointed);
    assert_eq!(resumed_digest(&root), summary.final_state_digest);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_inside_a_pipelined_batch_answers_what_ran() {
    let root = scratch_root("batch-shutdown");
    let (addr, server) = start(&root, None);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    // 4 reports, shutdown and 4 more reports, all in one write.
    let batch: Vec<Request> = (0..4)
        .map(|n| report(0, n))
        .chain([Request::Shutdown])
        .chain((4..8).map(|n| report(0, n)))
        .collect();
    let mut bytes = Cursor::new(Vec::new());
    for request in &batch {
        write_frame(&mut bytes, &request.to_json().render().into_bytes())
            .expect("frame into memory");
    }
    stream
        .write_all(&bytes.into_inner())
        .expect("send the batch");
    let mut reader = FrameReader::new();
    let mut replies = Vec::new();
    while let Ok(payload) = reader.next_frame(&mut stream) {
        replies.push(Response::from_payload(payload).expect("a reply parses"));
    }
    assert_eq!(replies.len(), 5, "4 reports and the bye, nothing after");
    assert_monotone(&replies[..4].iter().map(report_epoch).collect::<Vec<_>>());
    assert_eq!(replies[4], Response::Bye);
    let summary = server.join().expect("server joins");
    assert_eq!(summary.requests, 5, "no request ran unanswered");
    assert!(summary.checkpointed);
    assert_eq!(resumed_digest(&root), summary.final_state_digest);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn max_epochs_landing_mid_sweep_leaves_the_eager_state() {
    let root = scratch_root("max-epochs-mid-sweep");
    let (addr, server) = start_with(
        many_shards_config(),
        &root,
        Duration::from_millis(1),
        Some(30),
    );
    let reader = std::thread::spawn(move || read_until_closed(addr));
    let summary = server.join().expect("server joins");
    let replies = reader.join().expect("reader joins");
    assert_eq!(summary.epochs, 30);
    assert_eq!(summary.requests, replies);
    let eager = eager_digest(many_shards_config(), summary.epochs);
    assert_eq!(summary.final_state_digest, eager);
    assert!(summary.checkpointed);
    assert_eq!(resumed_digest_of(many_shards_config(), &root), eager);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_landing_mid_sweep_leaves_the_eager_state() {
    let root = scratch_root("shutdown-mid-sweep");
    let (addr, server) = start_with(many_shards_config(), &root, Duration::from_millis(1), None);
    let reader = std::thread::spawn(move || read_until_closed(addr));
    let mut conn = FleetClient::connect(addr).expect("connect");
    for n in 0..200 {
        conn.call(&read(n)).expect("read before shutdown");
    }
    match conn.call(&Request::Shutdown) {
        Ok(Response::Bye) => {}
        other => panic!("expected bye, got {other:?}"),
    }
    let summary = server.join().expect("server joins");
    let replies = reader.join().expect("reader joins") + 201;
    assert!(summary.epochs > 0, "epochs ticked while serving");
    assert_eq!(summary.requests, replies);
    let eager = eager_digest(many_shards_config(), summary.epochs);
    assert_eq!(summary.final_state_digest, eager);
    assert!(summary.checkpointed);
    assert_eq!(resumed_digest_of(many_shards_config(), &root), eager);
    let _ = std::fs::remove_dir_all(&root);
}
