//! `fleetd`: the fleet daemon CLI.
//!
//! Binds the socket front end over a seeded fleet, resumes from the
//! newest checkpoint when one matches the configuration, and serves
//! until a `shutdown` request (or `--max-epochs`). With `--status` it
//! runs the telemetry sampler so `selfheal-top` can watch the live
//! fleet.
//!
//! ```text
//! fleetd --chips 4096 --shards 16 --epoch-ms 500 --status /tmp/fleet.prom
//! ```

use std::path::PathBuf;
use std::time::Duration;

use selfheal_fleet::checkpoint::ImageStatus;
use selfheal_fleet::slo::SloObjective;
use selfheal_fleet::{FleetConfig, FleetDaemon, FleetServer, ServerConfig};
use selfheal_runtime::ResultCache;
use selfheal_telemetry::flight;
use selfheal_telemetry::timeseries::{interval_from_env, Sampler};

/// Parsed CLI options.
#[derive(Debug)]
struct Options {
    config: FleetConfig,
    server: ServerConfig,
    checkpoint_every: u64,
    flight_dump: Option<PathBuf>,
    status: Option<PathBuf>,
    addr_file: Option<PathBuf>,
    threads: Option<usize>,
    cache: bool,
    cache_dir: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            config: FleetConfig::default(),
            server: ServerConfig::default(),
            checkpoint_every: 8,
            flight_dump: None,
            status: None,
            addr_file: None,
            threads: None,
            cache: true,
            cache_dir: None,
        }
    }
}

const USAGE: &str = "\
fleetd — sharded rejuvenation-scheduling daemon

  --addr HOST:PORT       bind address (default 127.0.0.1:0, ephemeral)
  --chips N              fleet size (default 1024)
  --shards N             shard count (default 8)
  --seed N               base seed (default 2014)
  --traps N              mean traps per chip, at most 700 (default 16)
  --epoch-ms N           wall-clock epoch cadence; 0 disables (default 1000)
  --epoch-dt-s N         simulated seconds per epoch (default 3600)
  --checkpoint-every N   checkpoint cadence in epochs; 0 = only on shutdown (default 8)
  --max-epochs N         shut down after N epochs
  --workers N            accept/worker threads (default 4)
  --threads N            pool workers for epoch advance
  --slo KIND:pNN<T       latency objective, e.g. plan:p99<500us (repeatable);
                         judged each epoch, published as selfheal_slo_* gauges
  --flight-dump PATH     dump the flight recorder (last 4096 events) to PATH as
                         JSONL on panic, shutdown, or a debug-dump request
  --status PATH          write a Prometheus status file (selfheal-top watches it)
  --addr-file PATH       write the bound address to PATH once listening
  --cache-dir PATH       checkpoint store root (default target/cache); resumes its
                         newest checkpoint, so a new directory starts a fresh fleet
  --no-cache             disable the checkpoint store (a fresh fleet)
  --help                 this text";

fn parse_args() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => options.server.addr = value("--addr")?,
            "--chips" => options.config.chips = parse(&value("--chips")?)?,
            "--shards" => options.config.shards = parse(&value("--shards")?)?,
            "--seed" => options.config.seed = parse(&value("--seed")?)?,
            "--traps" => {
                options.config.trap_params.mean_trap_count = parse(&value("--traps")?)?;
            }
            "--epoch-ms" => {
                let ms: u64 = parse(&value("--epoch-ms")?)?;
                options.server.epoch_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--epoch-dt-s" => {
                options.config.epoch_dt =
                    selfheal_units::Seconds::new(parse(&value("--epoch-dt-s")?)?);
            }
            "--checkpoint-every" => {
                options.checkpoint_every = parse(&value("--checkpoint-every")?)?
            }
            "--max-epochs" => options.server.max_epochs = Some(parse(&value("--max-epochs")?)?),
            "--workers" => options.server.workers = parse(&value("--workers")?)?,
            "--threads" => options.threads = Some(parse(&value("--threads")?)?),
            "--slo" => options
                .config
                .slos
                .push(SloObjective::parse(&value("--slo")?)?),
            "--flight-dump" => options.flight_dump = Some(PathBuf::from(value("--flight-dump")?)),
            "--status" => options.status = Some(PathBuf::from(value("--status")?)),
            "--addr-file" => options.addr_file = Some(PathBuf::from(value("--addr-file")?)),
            "--cache-dir" => options.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-cache" => options.cache = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(options)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("cannot parse {text:?} as {}", std::any::type_name::<T>()))
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(problem) => {
            eprintln!("fleetd: {problem}");
            std::process::exit(2);
        }
    };
    if let Err(problem) = options.config.validate() {
        eprintln!("fleetd: invalid fleet config: {problem}");
        std::process::exit(2);
    }
    if let Some(threads) = options.threads {
        selfheal_runtime::set_global_threads(threads);
    }
    let _telemetry = selfheal_telemetry::init_from_env();
    let sampler = options
        .status
        .clone()
        .and_then(|path| Sampler::start(path, interval_from_env()));
    // The registry is off by default (the bare daemon's request path pays
    // nothing); an observer — the sampler exporting a status file — or a
    // latency objective needs the histograms and gauges recording.
    if sampler.is_some() || !options.config.slos.is_empty() {
        selfheal_telemetry::metrics::set_enabled(true);
    }
    if let Some(path) = &options.flight_dump {
        flight::set_dump_path(Some(path.clone()));
        flight::record("lifecycle", "start", || {
            format!("pid={}", std::process::id())
        });
        // Dump the ring before unwinding so a panicking daemon leaves
        // its last 4096 events behind; the previous hook still prints
        // the backtrace.
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flight::record("lifecycle", "panic", || info.to_string());
            if let Ok(Some((path, events))) = flight::dump() {
                eprintln!(
                    "fleetd: flight recorder dumped {events} event(s) to {}",
                    path.display()
                );
            }
            previous(info);
        }));
    }

    let cache = match (&options.cache_dir, options.cache) {
        (_, false) => ResultCache::disabled(),
        (Some(root), true) => ResultCache::at(root.clone()),
        (None, true) => ResultCache::standard(),
    };
    let (daemon, resumed) =
        FleetDaemon::resume_or_new(options.config.clone(), cache, options.checkpoint_every);
    if let Some(reason) = daemon.refused_checkpoint() {
        eprintln!("fleetd: checkpoint refused, starting a fresh fleet: {reason}");
    }
    if let Some(ImageStatus::Refused(reason)) = daemon.image_status() {
        eprintln!("fleetd: fleet image refused, re-sampling the trap constants: {reason}");
    }
    let image = daemon
        .image_status()
        .map_or(String::new(), |image| format!(", image: {}", image.label()));
    eprintln!(
        "fleetd: {} chips / {} shards / {} traps, epoch {} (resumed: {resumed}{image})",
        options.config.chips,
        options.config.shards,
        daemon.state().trap_count(),
        daemon.state().epoch(),
    );

    let server = match FleetServer::bind(daemon, options.server.clone()) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("fleetd: cannot bind {}: {err}", options.server.addr);
            std::process::exit(1);
        }
    };
    let addr = server.addr();
    println!("listening {addr}");
    if let Some(path) = &options.addr_file {
        if let Err(err) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("fleetd: cannot write --addr-file {}: {err}", path.display());
            std::process::exit(1);
        }
    }

    let summary = server.run();
    if let Some(sampler) = sampler {
        sampler.stop();
    }
    flight::record("lifecycle", "shutdown", || {
        format!(
            "requests={} epochs={} digest={:016x}",
            summary.requests, summary.epochs, summary.final_state_digest
        )
    });
    if let Ok(Some((path, events))) = flight::dump() {
        eprintln!(
            "fleetd: flight recorder dumped {events} event(s) to {}",
            path.display()
        );
    }
    // The sink guard flushes on drop too; flushing here makes the trace
    // file complete even if something below panics or aborts.
    selfheal_telemetry::flush_all();
    eprintln!(
        "fleetd: served {} requests over {} epochs, final state {:016x} (checkpointed: {})",
        summary.requests, summary.epochs, summary.final_state_digest, summary.checkpointed,
    );
}
