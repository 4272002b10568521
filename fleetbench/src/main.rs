//! `fleetbench`: the repository benchmark.
//!
//! The people who run `fleetd` care about how many requests it answers,
//! how fast, how long a restart takes and how much memory it holds. This
//! binary measures exactly that against the real daemon binary, under
//! three open-loop workloads, and checks every answer it measured.
//!
//! # Running
//!
//! ```text
//! bash fleetbench/run.sh --workload aged_storm --seed 2014 --seconds 27 --trace 0
//! bash fleetbench/run.sh --seed 2014                  # every workload in turn
//! bash fleetbench/run.sh --workload wire_small --trace 1   # the per-layer pass
//! bash fleetbench/run.sh --smoke                      # 1024 chips, one 3 s round each
//! SELFHEAL_TELEMETRY=trace:layers.json bash fleetbench/run.sh --workload aged_storm --trace 1
//! cargo test --manifest-path fleetbench/Cargo.toml    # the benchmark's own tests
//! ```
//!
//! `run.sh` builds `fleetd` and this binary from source into
//! `$CARGO_TARGET_DIR` (default `.bench_build`) and runs the benchmark,
//! which starts the `fleetd` next to its own executable with scratch
//! files under `fleetbench-scratch/` beside it. Each workload prints its
//! metrics as `<workload> <metric> <value> <unit>` lines, then one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! non-zero when any check fails.
//!
//! # One run of a workload
//!
//! The load comes from this process alone: two connections, each owned by
//! one generator thread, against a daemon started with `--workers 2`. The
//! benchmark first pins itself to one CPU, which the daemons it starts
//! inherit, and keeps that CPU from idling with a lowest-priority
//! spinner (see [`sys`] for why).
//!
//! 1. The fleet is built in-process; an aged fleet is then aged 48
//!    epochs, every chip reports a duty, and the result is checkpointed.
//!    This daemon is the oracle.
//! 2. `fleetd` starts (resuming that checkpoint), and its first `stats`
//!    reply must carry the oracle's state digest.
//! 3. The load runs in rounds of 2 s paced, then 1 s closed loop. Paced:
//!    Poisson arrivals at the workload's rate, each request's latency
//!    timed from its *due* time. Closed loop: four requests in flight per
//!    connection. `max_rps` is the median over rounds of closed-loop
//!    completions per second; `p50_ms` and `p99_ms` are medians over
//!    windows of 1000 paced requests.
//! 4. `rss_mb` is the daemon's `VmHWM`, read just before `shutdown`.
//! 5. `fleetd` is started again until it has started at least three
//!    times (more while starts are cheap); `setup_s` is the median time
//!    from spawn to its address file appearing.
//! 6. Every reply is checked (see [`oracle`]); frozen-epoch workloads
//!    also replay each connection through the oracle daemon.
//!
//! The human-readable lines also give the share of paced requests
//! answered within the workload's latency limit, the error share and how
//! late the generator ran. Those are not gated metrics: on a healthy
//! daemon they read 1 and 0 every time.
//!
//! # The per-layer pass (`--trace 1`)
//!
//! An in-process pass rebuilds the workload's fleet, replays its paced
//! stream through the public entry points and times each layer; a server
//! pass reruns the paced phase against a `fleetd` logging its spans
//! (`SELFHEAL_TELEMETRY=jsonl:`) with every request stamped with a
//! `TraceContext`. End-to-end numbers only ever come from untraced runs.
//! Which end-to-end number each layer metric should move, and where:
//!
//! | layer | per-layer metrics | should move | on |
//! |---|---|---|---|
//! | `bti::td::kernel` | `kernel.ns_per_trap_step` | `p99_ms`, `max_rps` | `epoch_churn`; little on `aged_storm`; not `wire_small` |
//! | `fleet::state` epochs | `state.advance_epoch_ms` | `p99_ms` | `epoch_churn` |
//! | `fleet::state` scans | `state.aggregates_ms`, `state.state_digest_ms`, `state.build_s` | `p99_ms`, `max_rps`; `setup_s` | `aged_storm` |
//! | `core::planner` | `planner.plan_us_p50`, `planner.plan_us_p99`, `planner.predicted_peak_us`, `planner.predict_us_p50` | `max_rps`, `p50_ms` | `aged_storm`; less on `epoch_churn`; not `wire_small` |
//! | `fleet::daemon` | `daemon.{plan,predict,report,stats}_us_mean`, `daemon.exec_us_mean`, `daemon.bound_rps` | `max_rps` | `aged_storm` |
//! | `fleet::proto` | `proto.encode_us`, `proto.decode_us`, `proto.request_bytes`, `proto.response_bytes` | `max_rps`, `p50_ms` | `wire_small` |
//! | `fleet::server` | `server.queue_wait_us_p50`, `server.queue_wait_us_p99`, `server.exec_share`, `server.rtt_floor_us` | `p99_ms`, `max_rps` | `aged_storm`, `wire_small` |
//! | `fleet::checkpoint` | `checkpoint.save_s`, `checkpoint.resume_s`, `checkpoint.mb` | `setup_s`, `rss_mb` | `aged_storm`, `epoch_churn`; not `wire_small` |
//! | the generator | `loadgen.send_lag_p99_ms` | — (validity) | all |
//!
//! `fleet_storm` and `tiered_fleet` in `selfheal-bench` stay as ledger
//! binaries; they are not the repository's benchmark.

mod fleetd;
mod layers;
mod loadgen;
mod oracle;
mod stats;
mod sys;
mod workload;

use std::hint::black_box;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use selfheal_fleet::{FleetDaemon, Request, Response, TraceContext};
use selfheal_runtime::{ResultCache, SeedSequence};
use selfheal_units::DutyCycle;

use crate::fleetd::Fleetd;
use crate::loadgen::{encode, Connection, Exchange, Scheduled};
use crate::stats::{median, percentile, sorted};
use crate::workload::{Generator, Oracle, Phase, Workload, CONNECTIONS};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Requests each connection keeps in flight in the closed-loop phase.
const DEPTH: usize = 4;
/// One round of load: this much paced, then [`SATURATE_ROUND`] closed
/// loop. A run is `--seconds / 3` rounds, so both phases sample the
/// host across the whole run: the host's speed drifts by up to 30 % over
/// seconds to minutes, and a run that measured each phase in one block
/// took whichever speed that block happened to get.
const PACED_ROUND: Duration = Duration::from_secs(2);
/// The closed-loop part of a round; `max_rps` is the median over rounds.
const SATURATE_ROUND: Duration = Duration::from_secs(1);
/// Answered paced requests per latency window: enough that ten lie
/// beyond each window's p99. Latencies are medians over windows, so a
/// burst of outside load moves only the windows it falls in.
const WINDOW_REQUESTS: usize = 1_000;
/// Back-to-back `report`s timed for the idle round-trip floor.
const RTT_FLOOR_CALLS: usize = 2_000;

const USAGE: &str =
    "usage: fleetbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  --workload NAME  aged_storm | epoch_churn | wire_small (default: all three in turn)
  --seed N         seeds the fleets, the request streams and the oracle sample (default 2014)
  --seconds S      load per run, in rounds of 2 s paced then 1 s closed loop (default 27)
  --trace 0|1      1 runs the per-layer pass instead of the end-to-end run
  --smoke          every workload at 1024 chips with one round of load, every check on";

#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        workloads: workload::all(),
        seed: 2014,
        seconds: None,
        traced: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                options.workloads.retain(|w| w.name == name);
                if options.workloads.is_empty() {
                    return Err(format!("unknown workload {name:?}"));
                }
            }
            "--seed" => options.seed = parse(&value("--seed")?)?,
            "--seconds" => {
                let seconds: f64 = parse(&value("--seconds")?)?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => options.smoke = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if options.smoke {
        options.workloads = options.workloads.into_iter().map(Workload::smoke).collect();
    }
    Ok(options)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("cannot parse {text:?}"))
}

/// What one workload run produced.
#[derive(Debug, Default)]
struct Outcome {
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: every value with all its digits. A value that is
    /// not finite is a failed check (JSON cannot carry it).
    fn json(&mut self) -> String {
        let mut fields = Vec::new();
        for metric in &self.metrics {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                self.problems.push(format!("{} is not finite", metric.name));
                0.0
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

fn fleetd_args(workload: &Workload, seed: u64, scratch: &Path) -> Vec<String> {
    let mut args: Vec<String> = [
        "--chips",
        &workload.chips.to_string(),
        "--shards",
        &workload.shards.to_string(),
        "--seed",
        &seed.to_string(),
        "--traps",
        &workload.traps.to_string(),
        "--epoch-ms",
        &workload.epoch_ms.to_string(),
        "--checkpoint-every",
        "0",
        "--workers",
        &CONNECTIONS.to_string(),
    ]
    .map(str::to_string)
    .to_vec();
    if workload.aged_epochs > 0 {
        args.push("--cache-dir".into());
        args.push(scratch.join("cache").display().to_string());
    } else {
        args.push("--no-cache".into());
    }
    args
}

/// The in-process daemon in the state `fleetd` will serve. Aged
/// workloads also leave the checkpoint `fleetd` resumes from.
fn oracle_daemon(workload: &Workload, seed: u64, scratch: &Path) -> Result<FleetDaemon, String> {
    let config = workload.fleet_config(seed);
    if workload.aged_epochs == 0 {
        return Ok(FleetDaemon::new(config, ResultCache::disabled(), 0));
    }
    let mut daemon = FleetDaemon::new(config, ResultCache::at(scratch.join("cache")), 0);
    workload.prepare(&mut daemon);
    if !daemon.final_checkpoint() {
        return Err("the checkpoint store is disabled (SELFHEAL_CACHE?)".into());
    }
    Ok(daemon)
}

/// Connects every generator connection and passes the digest gate.
fn open(
    daemon: &Fleetd,
    oracle: &FleetDaemon,
    outcome: &mut Outcome,
) -> Result<Vec<Connection>, String> {
    let mut connections = (0..CONNECTIONS)
        .map(|_| Connection::open(daemon.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot connect to fleetd: {e}"))?;
    let reply = connections[0]
        .call(&Request::Stats)
        .map_err(|e| format!("stats: {e}"))?;
    if let Err(problem) = oracle::digest_gate(&reply, oracle.state().state_digest()) {
        outcome.problems.push(problem);
    }
    Ok(connections)
}

/// Runs `drive` on every connection at once, one thread each with its own
/// input, and returns the log range each one added.
fn on_every_connection<T: Send>(
    connections: &mut [Connection],
    inputs: Vec<T>,
    drive: impl Fn(T, &mut Connection) -> std::io::Result<()> + Sync,
) -> Result<Vec<Range<usize>>, String> {
    let starts: Vec<usize> = connections.iter().map(|c| c.log.len()).collect();
    std::thread::scope(|scope| {
        let threads: Vec<_> = connections
            .iter_mut()
            .zip(inputs)
            .map(|(connection, input)| {
                let drive = &drive;
                scope.spawn(move || drive(input, connection))
            })
            .collect();
        threads
            .into_iter()
            .try_for_each(|thread| match thread.join() {
                Ok(result) => result.map_err(|e| format!("load generator: {e}")),
                Err(_) => Err("a load generator panicked".to_string()),
            })
    })?;
    Ok(starts
        .into_iter()
        .zip(connections.iter())
        .map(|(start, c)| start..c.log.len())
        .collect())
}

/// Each connection's paced schedule for a run: Poisson arrivals at its
/// share of the workload's rate over `length`, as (offset, request).
fn paced_schedules(
    workload: &Workload,
    seed: u64,
    length: Duration,
) -> Vec<Vec<(Duration, Request)>> {
    #[allow(clippy::cast_precision_loss)]
    let rate = workload.rate / CONNECTIONS as f64;
    (0..CONNECTIONS)
        .map(|c| Generator::new(workload, seed, c, Phase::Paced).schedule(rate, length))
        .collect()
}

/// Plays the part of each schedule whose offsets fall in `window`, open
/// loop, starting now. With `trace_seed`, every request carries a
/// [`TraceContext`] derived from it.
fn run_paced(
    connections: &mut [Connection],
    schedules: &[Vec<(Duration, Request)>],
    window: Range<Duration>,
    trace_seed: Option<u64>,
) -> Result<Vec<Range<usize>>, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Vec<Scheduled>> = schedules
        .iter()
        .enumerate()
        .map(|(c, schedule)| {
            let seeds =
                trace_seed.map(|seed| SeedSequence::new(seed).child(0x7ace).child(c as u64));
            schedule
                .iter()
                .enumerate()
                .filter(|(_, (offset, _))| window.contains(offset))
                .map(|(i, (offset, request))| Scheduled {
                    due: start + (*offset - window.start),
                    frame: encode(request, seeds.map(|s| TraceContext::derive(&s, i as u64))),
                    request: request.clone(),
                })
                .collect()
        })
        .collect();
    let end = start + (window.end - window.start);
    on_every_connection(connections, due, |schedule, connection| {
        connection.paced(schedule, end)
    })
}

/// Closes the extra connections, asks for `shutdown` on the first and
/// waits for the daemon to exit. Returns every connection's log.
fn shut_down(
    mut connections: Vec<Connection>,
    daemon: Fleetd,
) -> Result<Vec<Vec<Exchange>>, String> {
    let logs: Vec<Vec<Exchange>> = connections
        .iter_mut()
        .map(|c| std::mem::take(&mut c.log))
        .collect();
    let mut first = connections.swap_remove(0);
    drop(connections);
    match first
        .call(&Request::Shutdown)
        .map(|r| Response::from_payload(&r))
    {
        Ok(Some(Response::Bye)) => {}
        other => return Err(format!("shutdown: expected bye, got {other:?}")),
    }
    drop(first);
    daemon.wait_exit()?;
    Ok(logs)
}

/// Checks the structure of every reply, counts the requests each phase
/// sent and how many failed, and returns each phase's answered exchanges.
fn tally<'a>(
    oracle: &FleetDaemon,
    logs: &'a [Vec<Exchange>],
    phases: &[Vec<Range<usize>>],
    outcome: &mut Outcome,
) -> Vec<Vec<&'a Exchange>> {
    for log in logs {
        if let Err(problem) = oracle::structure(log, oracle.state()) {
            outcome.problems.push(problem);
        }
    }
    phases
        .iter()
        .map(|ranges| {
            let mut answered = Vec::new();
            for (log, range) in logs.iter().zip(ranges) {
                for exchange in &log[range.clone()] {
                    outcome.attempted += 1;
                    match oracle::answered(exchange) {
                        Some(_) => answered.push(exchange),
                        None => outcome.failed += 1,
                    }
                }
            }
            answered
        })
        .collect()
}

/// Latency quantiles (ms) over consecutive windows of about
/// [`WINDOW_REQUESTS`] answered requests, in due order.
fn windowed_latency(mut answered: Vec<&Exchange>, quantiles: &[f64]) -> Vec<Vec<f64>> {
    answered.sort_by_key(|e| e.due);
    let windows = (answered.len() / WINDOW_REQUESTS).max(1);
    let samples: Vec<Vec<f64>> = (0..windows)
        .map(|w| {
            let part = &answered[w * answered.len() / windows..(w + 1) * answered.len() / windows];
            sorted(
                part.iter()
                    .filter_map(|e| e.latency())
                    .map(|l| l.as_secs_f64() * 1e3)
                    .collect(),
            )
        })
        .collect();
    quantiles
        .iter()
        .map(|&q| samples.iter().map(|s| percentile(s, q)).collect())
        .collect()
}

fn lag_p99_ms(exchanges: &[&Exchange]) -> f64 {
    let lags = exchanges
        .iter()
        .map(|e| e.sent.saturating_duration_since(e.due).as_secs_f64() * 1e3)
        .collect();
    percentile(&sorted(lags), 0.99)
}

/// The end-to-end run of one workload: `rounds` rounds of paced then
/// closed-loop load against one daemon.
#[allow(clippy::too_many_lines)]
fn run_workload(
    workload: &Workload,
    seed: u64,
    rounds: usize,
    exe: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut oracle = oracle_daemon(workload, seed, scratch)?;
    let args = fleetd_args(workload, seed, scratch);
    let daemon = Fleetd::start(exe, &args, &[], scratch, "serve")?;
    let mut setups = vec![daemon.setup.as_secs_f64()];

    let mut connections = open(&daemon, &oracle, &mut outcome)?;
    let schedules = paced_schedules(workload, seed, PACED_ROUND * rounds as u32);
    let mut generators: Vec<Generator> = (0..CONNECTIONS)
        .map(|c| Generator::new(workload, seed, c, Phase::Saturate))
        .collect();
    let (mut phases, mut saturate_starts) = (Vec::new(), Vec::new());
    for round in 0..rounds as u32 {
        let window = PACED_ROUND * round..PACED_ROUND * (round + 1);
        phases.push(run_paced(&mut connections, &schedules, window, None)?);
        let start = Instant::now();
        let end = start + SATURATE_ROUND;
        phases.push(on_every_connection(
            &mut connections,
            generators.iter_mut().collect(),
            |generator, connection| connection.saturate(generator, DEPTH, end),
        )?);
        saturate_starts.push(start);
    }
    let rss_mb = daemon.peak_rss_mb()?;
    let logs = shut_down(connections, daemon)?;

    // More starts after the load, so the setup samples span the run:
    // at least three, more while they are cheap.
    while setups.len() < 3 || (setups.len() < 31 && setups.iter().sum::<f64>() < 1.0) {
        let extra = Fleetd::start(exe, &args, &[], scratch, &format!("setup{}", setups.len()))?;
        setups.push(extra.setup.as_secs_f64());
    }
    let setup_ms: Vec<f64> = setups.iter().map(|s| s * 1e3).collect();

    let answered = tally(&oracle, &logs, &phases, &mut outcome);
    let paced: Vec<&Exchange> = answered.iter().step_by(2).flatten().copied().collect();
    let rates: Vec<f64> = answered
        .iter()
        .skip(1)
        .step_by(2)
        .zip(&saturate_starts)
        .map(|(round, &start)| {
            let done = round
                .iter()
                .filter(|e| e.done.is_some_and(|d| d <= start + SATURATE_ROUND))
                .count();
            #[allow(clippy::cast_precision_loss)]
            let rate = done as f64 / SATURATE_ROUND.as_secs_f64();
            rate
        })
        .collect();
    let paced_sent: usize = phases
        .iter()
        .step_by(2)
        .flatten()
        .map(ExactSizeIterator::len)
        .sum();
    let within = paced
        .iter()
        .filter(|e| {
            e.latency()
                .is_some_and(|l| l.as_secs_f64() * 1e3 <= workload.limit_ms)
        })
        .count();
    let lag = lag_p99_ms(&paced);
    let latency = windowed_latency(paced, &[0.5, 0.99]);
    outcome.metric("setup_s", median(setups), "s");
    outcome.metric("max_rps", median(rates.clone()), "req/s");
    outcome.metric("p50_ms", median(latency[0].clone()), "ms");
    outcome.metric("p99_ms", median(latency[1].clone()), "ms");
    outcome.metric("rss_mb", rss_mb, "MB");
    #[allow(clippy::cast_precision_loss)]
    outcome.notes.extend([
        format!("setup: ms by start {setup_ms:.2?}"),
        format!("saturate: completions per second by round {rates:.0?}"),
        format!(
            "paced: {paced_sent} sent at {} req/s, {:.4} answered within {} ms, generator lag p99 {lag:.3} ms",
            workload.rate,
            within as f64 / paced_sent as f64,
            workload.limit_ms,
        ),
        format!("paced: p50 by window {:.3?} ms", latency[0]),
        format!("paced: p99 by window {:.3?} ms", latency[1]),
        format!("error share {:.4}", outcome.failed as f64 / outcome.attempted as f64),
    ]);
    if workload.oracle == Oracle::Replay {
        match oracle::replay(&mut oracle, &logs, seed) {
            Ok(compared) => outcome
                .notes
                .push(format!("oracle: {compared} replies replayed bit-identical")),
            Err(problem) => outcome.problems.push(problem),
        }
    }
    Ok(outcome)
}

/// The per-layer pass of one workload, over as much paced load as the
/// end-to-end run sends.
fn run_traced(
    workload: &Workload,
    seed: u64,
    rounds: usize,
    exe: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let paced_length = PACED_ROUND * rounds as u32;
    let mut outcome = Outcome::default();
    outcome.metrics =
        layers::in_process(workload, seed, paced_length, scratch, &mut outcome.notes)?;

    let oracle = oracle_daemon(workload, seed, scratch)?;
    let span_log = scratch.join("spans.jsonl");
    let env = [(
        "SELFHEAL_TELEMETRY",
        format!("jsonl:{}", span_log.display()),
    )];
    let daemon = Fleetd::start(
        exe,
        &fleetd_args(workload, seed, scratch),
        &env,
        scratch,
        "traced",
    )?;
    let mut connections = open(&daemon, &oracle, &mut outcome)?;

    let floor_start = connections[0].log.len();
    for _ in 0..RTT_FLOOR_CALLS {
        let report = Request::Report {
            chip: 0,
            duty: DutyCycle::new(0.5),
        };
        connections[0]
            .call(&report)
            .map_err(|e| format!("report: {e}"))?;
    }
    let mut floor = vec![0..0; CONNECTIONS];
    floor[0] = floor_start..connections[0].log.len();
    let schedules = paced_schedules(workload, seed, paced_length);
    let paced = run_paced(
        &mut connections,
        &schedules,
        Duration::ZERO..paced_length,
        Some(seed),
    )?;
    let logs = shut_down(connections, daemon)?;

    let answered = tally(&oracle, &logs, &[paced, floor], &mut outcome);
    let floor_us: Vec<f64> = answered[1]
        .iter()
        .filter_map(|e| e.latency())
        .map(|l| l.as_secs_f64() * 1e6)
        .collect();
    let spans = layers::read_spans(&span_log)?;
    let (mut queue_us, mut execute_ns) = (Vec::new(), 0.0);
    for span in spans.values() {
        if let (Some(request), Some(execute)) = (span.request_ns, span.execute_ns) {
            queue_us.push((request - execute).max(0.0) / 1e3);
            execute_ns += execute;
        }
    }
    if queue_us.len() < answered[0].len() {
        outcome.problems.push(format!(
            "the daemon logged {} traced requests of {} answered",
            queue_us.len(),
            answered[0].len()
        ));
    }
    let queue_us = sorted(queue_us);
    outcome.metric("server.queue_wait_us_p50", percentile(&queue_us, 0.5), "us");
    outcome.metric(
        "server.queue_wait_us_p99",
        percentile(&queue_us, 0.99),
        "us",
    );
    outcome.metric(
        "server.exec_share",
        execute_ns / (paced_length.as_secs_f64() * 1e9),
        "fraction",
    );
    outcome.metric("server.rtt_floor_us", median(floor_us), "us");
    outcome.metric("loadgen.send_lag_p99_ms", lag_p99_ms(&answered[0]), "ms");
    Ok(outcome)
}

/// `nproc`, the seconds a fixed spin loop takes on one thread, and how
/// many cores' worth of that loop the host actually delivers when every
/// one of them runs it at once.
fn host_fingerprint() -> (usize, f64, f64) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let spin = || {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..20_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    };
    let one = median(
        (0..3)
            .map(|_| {
                let started = Instant::now();
                spin();
                started.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(spin);
        }
    });
    #[allow(clippy::cast_precision_loss)]
    let effective = threads as f64 * one / started.elapsed().as_secs_f64();
    (threads, one, effective)
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("fleetbench: {message}");
            return ExitCode::from(2);
        }
    };
    let _telemetry = selfheal_telemetry::init_from_env();
    let Some(bin_dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
    else {
        eprintln!("fleetbench: cannot locate its own executable");
        return ExitCode::FAILURE;
    };
    let exe = bin_dir.join("fleetd");
    if !exe.is_file() {
        eprintln!(
            "fleetbench: no fleetd next to the benchmark at {}",
            exe.display()
        );
        return ExitCode::FAILURE;
    }
    let (nproc, spin_s, effective) = host_fingerprint();
    let cpu = match sys::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("fleetbench: cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "host nproc {nproc} spin_1_thread_ms {:.1} effective_parallelism {effective:.2}; load and daemons on cpu {cpu}, kept awake",
        spin_s * 1e3
    );
    let seconds = options
        .seconds
        .unwrap_or(if options.smoke { 3.0 } else { 27.0 });
    let round = (PACED_ROUND + SATURATE_ROUND).as_secs_f64();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rounds = ((seconds / round) as usize).max(1);

    // The CPU the load runs on must never idle (see `sys`); the spinner
    // must be at idle priority before any load starts.
    let stop = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| sys::keep_cpu_awake(&stop, &ready_tx));
        let code = match ready_rx.recv() {
            Ok(Ok(())) => run_workloads(&options, rounds, &bin_dir, &exe),
            Ok(Err(e)) => {
                eprintln!("fleetbench: cannot run the idle spinner: {e}");
                ExitCode::FAILURE
            }
            Err(_) => {
                eprintln!("fleetbench: the idle spinner died");
                ExitCode::FAILURE
            }
        };
        stop.store(true, Ordering::Relaxed);
        code
    })
}

/// Runs each selected workload in turn and prints its result.
fn run_workloads(options: &Options, rounds: usize, bin_dir: &Path, exe: &Path) -> ExitCode {
    let mut all_correct = true;
    for workload in &options.workloads {
        let scratch: PathBuf = bin_dir.join("fleetbench-scratch").join(format!(
            "{}-{}",
            std::process::id(),
            workload.name
        ));
        if let Err(e) = std::fs::create_dir_all(&scratch) {
            eprintln!("fleetbench: cannot create {}: {e}", scratch.display());
            return ExitCode::FAILURE;
        }
        let result = if options.traced {
            run_traced(workload, options.seed, rounds, exe, &scratch)
        } else {
            run_workload(workload, options.seed, rounds, exe, &scratch)
        };
        drop(std::fs::remove_dir_all(&scratch));
        let mut outcome = match result {
            Ok(outcome) => outcome,
            Err(message) => {
                eprintln!("fleetbench: {}: {message}", workload.name);
                return ExitCode::FAILURE;
            }
        };
        for note in &outcome.notes {
            println!("{} {note}", workload.name);
        }
        for metric in &outcome.metrics {
            println!(
                "{} {} {} {}",
                workload.name, metric.name, metric.value, metric.unit
            );
        }
        let line = outcome.json();
        for problem in &outcome.problems {
            eprintln!("fleetbench: {}: {problem}", workload.name);
        }
        all_correct &= outcome.problems.is_empty();
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
