//! Smoke client for a live `selfheal-fleet` daemon — the CI handshake.
//!
//! Sends one pipelined batch of eight predicts, then one request of
//! each type (report, plan, predict, stats, debug-dump), against an
//! already-running `fleetd`, checks each reply, and exits non-zero on
//! any failure. With `--shutdown` it then asks the daemon to exit; with
//! `--trace` it exports the client's side of every request's flow chain
//! as a Chrome trace, the half `trace_merge` joins with the daemon's
//! file. Load testing is `fleetbench`'s job.
//!
//! ```text
//! fleet_smoke --connect 127.0.0.1:7414 --trace client.trace.json --shutdown
//! ```

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

use selfheal::RejuvenationTechnique;
use selfheal_fleet::proto::ErrorCode;
use selfheal_fleet::{FleetClient, Request, Response};
use selfheal_runtime::SeedSequence;
use selfheal_units::{DutyCycle, Seconds};

/// Seeds the trace ids, so every traced run stamps the same ids and
/// traces diff across runs.
const TRACE_SEED: u64 = 0x5707_27c9;

struct Options {
    connect: SocketAddr,
    shutdown: bool,
    trace: Option<PathBuf>,
}

const USAGE: &str = "usage: fleet_smoke --connect HOST:PORT [--shutdown] [--trace PATH]";

fn parse_options() -> Result<Options, String> {
    let mut connect = None;
    let mut shutdown = false;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--connect" => {
                let raw = value("--connect")?;
                connect = Some(raw.parse().map_err(|_| format!("bad address {raw}"))?);
            }
            "--shutdown" => shutdown = true,
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let connect = connect.ok_or(format!("--connect is required\n{USAGE}"))?;
    Ok(Options {
        connect,
        shutdown,
        trace,
    })
}

/// One request of each type against a running daemon; any unexpected
/// reply is a failure.
fn smoke(opts: &Options) -> Result<(), String> {
    let _trace_guard = match &opts.trace {
        None => None,
        Some(path) => {
            let sink = selfheal_telemetry::ChromeTraceSink::create(path)
                .map_err(|err| format!("cannot open trace file {}: {err}", path.display()))?;
            selfheal_telemetry::register_thread_name("main");
            Some(selfheal_telemetry::install_sink(std::sync::Arc::new(sink)))
        }
    };
    let mut client = FleetClient::connect(opts.connect).map_err(|err| format!("connect: {err}"))?;
    if opts.trace.is_some() {
        client.enable_trace(SeedSequence::new(TRACE_SEED));
    }
    // Eight predicts in one write: the daemon may answer them in one
    // write too, but every reply must come back, in order.
    let predicts: Vec<Request> = (0..8)
        .map(|chip| Request::Predict {
            chip,
            dt: Seconds::new(3_600.0),
        })
        .collect();
    let replies = client
        .pipeline(&predicts)
        .map_err(|err| format!("pipeline: {err}"))?;
    for (chip, reply) in (0..).zip(&replies) {
        match reply {
            Response::Predict { chip: got, .. } if *got == chip => {}
            other => return Err(format!("pipeline: reply {chip} is {other:?}")),
        }
    }
    println!("fleet_smoke: pipeline ok (8 replies in order)");
    let mut call = |request: &Request| {
        client
            .call(request)
            .map_err(|err| format!("{:?}: {err}", request.kind()))
    };

    match call(&Request::Report {
        chip: 0,
        duty: DutyCycle::new(0.5),
    })? {
        Response::Report { chip: 0, .. } => println!("fleet_smoke: report ok"),
        other => return Err(format!("report: unexpected {other:?}")),
    }
    match call(&Request::Plan {
        chip: 0,
        technique: RejuvenationTechnique::Combined,
        period: None,
        horizon: None,
    })? {
        Response::Plan { chip: 0, .. } => println!("fleet_smoke: plan ok"),
        other => return Err(format!("plan: unexpected {other:?}")),
    }
    match call(&Request::Predict {
        chip: 0,
        dt: Seconds::new(86_400.0),
    })? {
        Response::Predict { chip: 0, .. } => println!("fleet_smoke: predict ok"),
        other => return Err(format!("predict: unexpected {other:?}")),
    }
    match call(&Request::Stats)? {
        Response::Stats(stats) => println!(
            "fleet_smoke: stats ok (chips={} epoch={} digest={:016x})",
            stats.chips, stats.epoch, stats.state_digest
        ),
        other => return Err(format!("stats: unexpected {other:?}")),
    }
    // Ask the daemon to persist its flight recorder. An old daemon
    // answers unknown-type, which is fine — the smoke stays compatible
    // in both directions.
    match call(&Request::DebugDump)? {
        Response::DebugDump { events, path } => println!(
            "fleet_smoke: debug-dump ok ({events} event(s){})",
            path.map(|p| format!(" -> {p}")).unwrap_or_default()
        ),
        Response::Error {
            code: ErrorCode::UnknownType,
            ..
        } => {
            println!("fleet_smoke: debug-dump skipped (daemon predates it)");
        }
        other => return Err(format!("debug-dump: unexpected {other:?}")),
    }
    if opts.shutdown {
        match call(&Request::Shutdown)? {
            Response::Bye => println!("fleet_smoke: shutdown ok"),
            other => return Err(format!("shutdown: unexpected {other:?}")),
        }
    }
    drop(client);
    selfheal_telemetry::flush_all();
    Ok(())
}

fn main() -> ExitCode {
    match parse_options().and_then(|opts| smoke(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fleet_smoke: {message}");
            ExitCode::FAILURE
        }
    }
}
