//! Flight-recorder overhead on the fleet request path.
//!
//! The recorder's contract is "always cheap enough to leave on", and
//! this bench pins that claim in the perf ledger. Two bit-identical
//! passes of a deterministic request mix run against two identically
//! seeded [`FleetDaemon`]s — recorder off, then recorder on — straight
//! through [`FleetDaemon::handle`] (no sockets, no threads, no epoch
//! clock), so the measured delta is the recording cost and nothing
//! else. The recorder records only while a dump path is set, so the
//! passes switch it through a scratch path that is never written. A
//! third measurement times the raw `flight::record` call.
//!
//! Ledger keys: `off_ms`, `on_ms`, `record_ns`, `overhead_percent`
//! (the satellite requirement is overhead < 1 % on the storm-shaped
//! workload).
//!
//! ```text
//! flight_recorder --chips 4096 --requests 10000 --json
//! ```

use std::process::ExitCode;
use std::time::Instant;

use rand::Rng;
use selfheal::RejuvenationTechnique;
use selfheal_bench::BenchRun;
use selfheal_fleet::{FleetConfig, FleetDaemon, Request};
use selfheal_runtime::{ResultCache, SeedSequence};
use selfheal_telemetry::flight;
use selfheal_telemetry::sink::scratch_path;
use selfheal_units::{DutyCycle, Seconds};

/// Epochs of pre-aging so plans work on real occupancy.
const WARMUP_EPOCHS: u64 = 2;

struct Options {
    chips: usize,
    shards: usize,
    seed: u64,
    traps: f64,
    requests: u64,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            chips: 4_096,
            shards: 8,
            seed: 2014,
            traps: 8.0,
            requests: 10_000,
        }
    }
}

const USAGE: &str = "usage: flight_recorder [--chips N] [--shards N] [--seed N] [--traps MEAN]\n\
                     \x20                       [--requests N] [--json]";

/// Parses the arguments [`BenchRun::start`] left over.
fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--chips" => opts.chips = parse(&value("--chips")?)?,
            "--shards" => opts.shards = parse(&value("--shards")?)?,
            "--seed" => opts.seed = parse(&value("--seed")?)?,
            "--traps" => opts.traps = parse(&value("--traps")?)?,
            "--requests" => opts.requests = parse(&value("--requests")?)?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if opts.requests == 0 {
        return Err("--requests must be positive".to_string());
    }
    Ok(opts)
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad number {raw}"))
}

/// A fresh daemon for one measurement pass — both passes get
/// bit-identical fleets and face the bit-identical request stream.
fn build_daemon(opts: &Options) -> Result<FleetDaemon, String> {
    let mut config = FleetConfig::default();
    config.chips = opts.chips;
    config.shards = opts.shards.min(opts.chips.max(1));
    config.seed = opts.seed;
    config.trap_params.mean_trap_count = opts.traps;
    config.validate().map_err(|err| format!("config: {err}"))?;
    let mut daemon = FleetDaemon::new(config, ResultCache::disabled(), 0);
    for _ in 0..WARMUP_EPOCHS {
        daemon.advance_epoch();
    }
    Ok(daemon)
}

/// The storm's request mix, minus the sockets: plan 60 / predict 25 /
/// report 13 / stats 2 percent, seeded so every pass replays the same
/// stream.
fn drive(daemon: &mut FleetDaemon, chips: u64, requests: u64, seed: u64) -> f64 {
    let mut rng = SeedSequence::new(seed).rng(0);
    let started = Instant::now();
    for _ in 0..requests {
        let chip = rng.gen_range(0..chips);
        let roll: f64 = rng.gen_range(0.0..1.0);
        let request = if roll < 0.60 {
            Request::Plan {
                chip,
                technique: RejuvenationTechnique::Combined,
                period: None,
                horizon: None,
            }
        } else if roll < 0.85 {
            Request::Predict {
                chip,
                dt: Seconds::new(86_400.0),
            }
        } else if roll < 0.98 {
            Request::Report {
                chip,
                duty: DutyCycle::new(rng.gen_range(0.05..0.95)),
            }
        } else {
            Request::Stats
        };
        let kind = request.kind();
        drop(daemon.handle(&request));
        // Mirror the server's per-request flight record (a formatted
        // detail string, built only while a dump path is set).
        flight::record("request", kind, || format!("chip={chip}"));
    }
    started.elapsed().as_secs_f64() * 1e3
}

fn bench(mut run: BenchRun, opts: &Options) -> Result<(), String> {
    run.say("Flight recorder: request-path overhead, recorder off vs on\n");
    let chips = u64::try_from(opts.chips).map_err(|_| "too many chips".to_string())?;

    let off_ms = {
        let mut daemon = {
            let _phase = run.phase("build_off");
            build_daemon(opts)?
        };
        let _phase = run.phase("drive_off");
        flight::set_dump_path(None);
        drive(&mut daemon, chips, opts.requests, opts.seed ^ 0xf11e)
    };
    let on_ms = {
        let mut daemon = {
            let _phase = run.phase("build_on");
            build_daemon(opts)?
        };
        let _phase = run.phase("drive_on");
        flight::set_dump_path(Some(scratch_path("flight_recorder-unused.jsonl")));
        drive(&mut daemon, chips, opts.requests, opts.seed ^ 0xf11e)
    };
    flight::set_dump_path(None);

    // Raw record cost, amortized over a wraparound-heavy burst.
    let record_ns = {
        let _phase = run.phase("record_micro");
        let ring = flight::FlightRecorder::with_capacity(4_096);
        let rounds = 1_000_000u64;
        let started = Instant::now();
        for i in 0..rounds {
            ring.record("bench", "tick", format!("i={i}"));
        }
        #[allow(clippy::cast_precision_loss)]
        let per = started.elapsed().as_secs_f64() * 1e9 / rounds as f64;
        per
    };

    let overhead_percent = (on_ms - off_ms) / off_ms * 100.0;
    #[allow(clippy::cast_precision_loss)]
    let requests_f = opts.requests as f64;
    run.say(format!(
        "chips={chips} requests={}\n\
         recorder off: {off_ms:9.1} ms  ({:.2} µs/request)\n\
         recorder on:  {on_ms:9.1} ms  ({:.2} µs/request)\n\
         overhead:     {overhead_percent:+8.3} %\n\
         raw record:   {record_ns:9.1} ns/event",
        opts.requests,
        off_ms * 1e3 / requests_f,
        on_ms * 1e3 / requests_f,
    ));
    run.value("off_ms", off_ms);
    run.value("on_ms", on_ms);
    run.value("record_ns", record_ns);
    run.value("overhead_percent", overhead_percent);
    run.finish(&format!(
        "chips={} traps_mean={} shards={} seed={} requests={}",
        opts.chips, opts.traps, opts.shards, opts.seed, opts.requests
    ));
    Ok(())
}

fn main() -> ExitCode {
    let run = BenchRun::start("flight_recorder");
    let opts = match parse_options(run.args()) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("flight_recorder: {message}");
            return ExitCode::FAILURE;
        }
    };
    match bench(run, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("flight_recorder: {message}");
            ExitCode::FAILURE
        }
    }
}
