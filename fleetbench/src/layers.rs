//! The in-process half of the per-layer pass, and the reader for the
//! daemon's span log that the server half produces.
//!
//! Every timed call runs inside a telemetry span named after the metric it
//! feeds, so `SELFHEAL_TELEMETRY=trace:<file>` on the benchmark shows the
//! same breakdown as the numbers it prints.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use selfheal::SchedulePlanner;
use selfheal_bti::td::PhaseRateCache;
use selfheal_bti::DeviceCondition;
use selfheal_fleet::{checkpoint, FleetDaemon, FleetState, Request, Response};
use selfheal_runtime::ResultCache;
use selfheal_telemetry::{json, span};
use selfheal_units::Ratio;

use crate::stats::{mean, median, percentile, sorted};
use crate::workload::{Generator, Kind, Phase, Workload, CONNECTIONS};
use crate::Metric;

/// Requests per kind the pass adds when the workload's mix lacks a kind,
/// so every per-kind metric is defined on every workload.
const PROBES: usize = 64;
/// Plans and predicts timed through the planner directly (the first of
/// the stream, then the probes).
const PLANNER_CALLS: usize = 400;

fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = span!(name);
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

fn repeat(name: &'static str, times: usize, mut f: impl FnMut()) -> f64 {
    median((0..times).map(|_| timed(name, &mut f).1).collect())
}

/// Runs the in-process pass over `workload`'s fleet and its paced stream
/// of `paced` length. Human-readable extras go to `notes`.
///
/// # Errors
///
/// When the checkpoint does not resume to the state it saved.
#[allow(clippy::too_many_lines)]
pub fn in_process(
    workload: &Workload,
    seed: u64,
    paced: Duration,
    scratch: &Path,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let config = workload.fleet_config(seed);
    let mut metrics = Vec::new();
    let mut push = |name, value, unit| metrics.push(Metric { name, value, unit });

    let build_s = repeat("state.build_s", 3, || {
        black_box(FleetState::build(config.clone()));
    });
    push("state.build_s", build_s, "s");

    let cache = ResultCache::at(scratch.join("layers-cache"));
    let mut aged = FleetDaemon::new(config.clone(), cache.clone(), 0);
    workload.prepare(&mut aged);
    let save_s = repeat("checkpoint.save_s", 3, || {
        black_box(checkpoint::save(&cache, aged.state()));
    });
    push("checkpoint.save_s", save_s, "s");
    push(
        "checkpoint.mb",
        dir_bytes(&scratch.join("layers-cache")) / MB,
        "MB",
    );
    let ((mut daemon, resumed), resume_s) = timed("checkpoint.resume_s", || {
        FleetDaemon::resume_or_new(config.clone(), cache.clone(), 0)
    });
    if !resumed || daemon.state().state_digest() != aged.state().state_digest() {
        return Err("the checkpoint did not resume to the state it saved".into());
    }
    drop(aged);
    push("checkpoint.resume_s", resume_s, "s");

    push(
        "kernel.ns_per_trap_step",
        kernel_ns_per_trap_step(daemon.state()),
        "ns",
    );
    let mut scratch_state = daemon.state().clone();
    let epoch_s = repeat("state.advance_epoch_ms", 8, || {
        scratch_state.advance_epoch();
    });
    drop(scratch_state);
    push("state.advance_epoch_ms", epoch_s * 1e3, "ms");
    let state = daemon.state();
    let aggregates_s = repeat("state.aggregates_ms", 5, || {
        black_box(state.aggregates());
    });
    push("state.aggregates_ms", aggregates_s * 1e3, "ms");
    let digest_s = repeat("state.state_digest_ms", 5, || {
        black_box(state.state_digest());
    });
    push("state.state_digest_ms", digest_s * 1e3, "ms");

    // The paced stream of both connections in due order, then probes of
    // the kinds the mix lacks.
    let mut stream: Vec<(Duration, Request)> = (0..CONNECTIONS)
        .flat_map(|c| {
            Generator::new(workload, seed, c, Phase::Paced).schedule(workload.rate / 2.0, paced)
        })
        .collect();
    stream.sort_by_key(|(due, _)| *due);
    let streamed = stream.len();
    for kind in Kind::ALL
        .into_iter()
        .filter(|k| workload.mix[k.index()] == 0)
    {
        let mut probe = Generator::new(workload, seed, 0, Phase::Probe).only(kind);
        stream.extend((0..PROBES).map(|_| (paced, probe.next_request())));
    }

    let planner = SchedulePlanner::with_default_models(config.active_env, config.margin);
    let epoch_every = Duration::from_millis(workload.epoch_ms);
    let mut next_epoch = epoch_every;
    let mut handle_us: [Vec<f64>; 4] = Default::default();
    let mut exec_us = Vec::with_capacity(streamed);
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    let (mut request_bytes, mut response_bytes) = (Vec::new(), Vec::new());
    let (mut plan_us, mut predict_us) = (Vec::new(), Vec::new());
    let (mut bisected, mut infeasible) = (0usize, 0usize);
    for (index, (due, request)) in stream.iter().enumerate() {
        while workload.epoch_ms > 0 && *due >= next_epoch && index < streamed {
            daemon.advance_epoch();
            next_epoch += epoch_every;
        }
        let Some(kind) = Kind::of(request) else {
            continue;
        };
        match request {
            Request::Plan {
                chip,
                technique,
                period,
                horizon,
            } if plan_us.len() < PLANNER_CALLS || index >= streamed => {
                let consumed = usize::try_from(*chip)
                    .ok()
                    .and_then(|c| daemon.state().chip_consumed(c))
                    .ok_or_else(|| format!("chip {chip} is outside the fleet"))?;
                let (plan, took) = timed("planner.plan_us", || {
                    planner.plan_with_consumed(
                        consumed,
                        *technique,
                        period.unwrap_or(config.period),
                        horizon.unwrap_or(config.horizon),
                    )
                });
                plan_us.push(took * 1e6);
                match plan {
                    None => infeasible += 1,
                    Some(plan) if plan.alpha.get() < 64.0 => bisected += 1,
                    Some(_) => {}
                }
            }
            Request::Predict { chip, dt }
                if predict_us.len() < PLANNER_CALLS || index >= streamed =>
            {
                let chip = usize::try_from(*chip).map_err(|_| "chip id overflows".to_string())?;
                let state = daemon.state();
                let (shard, traps) = state
                    .chip_view(chip)
                    .ok_or_else(|| format!("chip {chip} is outside the fleet"))?;
                let duty = state.chip_duty(chip).unwrap_or_default();
                let cond = DeviceCondition::new(config.active_env, duty);
                let (_, took) = timed("planner.predict_us", || {
                    black_box(planner.predicted_shift_from_bank(&shard.bank, traps, cond, *dt))
                });
                predict_us.push(took * 1e6);
            }
            _ => {}
        }

        let (payload, encode_request_s) = timed("proto.encode_us", || {
            request.to_json().render().into_bytes()
        });
        let (decoded, decode_request_s) =
            timed("proto.decode_us", || Request::from_payload(&payload));
        if decoded.as_ref() != Ok(request) {
            return Err(format!("{request:?} does not survive its own codec"));
        }
        let (response, handle_s) = timed(daemon_span(kind), || daemon.handle(request));
        let (reply, encode_response_s) = timed("proto.encode_us", || response.to_payload());
        let (parsed, decode_response_s) =
            timed("proto.decode_us", || Response::from_payload(&reply));
        if parsed.as_ref() != Some(&response) || matches!(response, Response::Error { .. }) {
            return Err(format!("{request:?} got {response:?}"));
        }
        handle_us[kind.index()].push(handle_s * 1e6);
        if index < streamed {
            exec_us.push(handle_s * 1e6);
            encode_us.push((encode_request_s + encode_response_s) * 1e6);
            decode_us.push((decode_request_s + decode_response_s) * 1e6);
            #[allow(clippy::cast_precision_loss)]
            {
                request_bytes.push(payload.len() as f64);
                response_bytes.push(reply.len() as f64);
            }
        }
    }

    let plan_us = sorted(plan_us);
    push("planner.plan_us_p50", percentile(&plan_us, 0.5), "us");
    push("planner.plan_us_p99", percentile(&plan_us, 0.99), "us");
    let alpha = Ratio::new(4.0).expect("4 is a valid ratio");
    let peak_s = repeat("planner.predicted_peak_us", 50, || {
        black_box(planner.predicted_peak(
            alpha,
            selfheal::RejuvenationTechnique::Combined,
            config.period,
            config.horizon,
        ));
    });
    push("planner.predicted_peak_us", peak_s * 1e6, "us");
    push("planner.predict_us_p50", median(predict_us), "us");
    for kind in Kind::ALL {
        push(daemon_metric(kind), mean(&handle_us[kind.index()]), "us");
    }
    let exec = mean(&exec_us);
    push("daemon.exec_us_mean", exec, "us");
    push("daemon.bound_rps", 1e6 / exec, "req/s");
    push("proto.encode_us", mean(&encode_us), "us");
    push("proto.decode_us", mean(&decode_us), "us");
    push("proto.request_bytes", mean(&request_bytes), "bytes");
    push("proto.response_bytes", mean(&response_bytes), "bytes");
    #[allow(clippy::cast_precision_loss)]
    let planned = plan_us.len() as f64;
    #[allow(clippy::cast_precision_loss)]
    notes.push(format!(
        "planner inputs: {} plans timed, bisect share {:.3}, infeasible share {:.3}",
        plan_us.len(),
        bisected as f64 / planned,
        infeasible as f64 / planned,
    ));
    Ok(metrics)
}

/// One byte count in the checkpoint and memory metrics' unit.
const MB: f64 = 1024.0 * 1024.0;

fn dir_bytes(dir: &Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0.0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            #[allow(clippy::cast_precision_loss)]
            Ok(meta) => meta.len() as f64,
            Err(_) => 0.0,
        })
        .sum()
}

fn daemon_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Plan => "daemon.plan",
        Kind::Predict => "daemon.predict",
        Kind::Report => "daemon.report",
        Kind::Stats => "daemon.stats",
    }
}

fn daemon_metric(kind: Kind) -> &'static str {
    match kind {
        Kind::Plan => "daemon.plan_us_mean",
        Kind::Predict => "daemon.predict_us_mean",
        Kind::Report => "daemon.report_us_mean",
        Kind::Stats => "daemon.stats_us_mean",
    }
}

/// One full-resolution epoch of every chip's trap slice through
/// `TrapBank::advance_range`, on copies of the banks: the median
/// nanoseconds per trap-step over at least 300 ms of passes.
fn kernel_ns_per_trap_step(state: &FleetState) -> f64 {
    let config = state.config();
    let mut banks: Vec<_> = state.shards().iter().map(|s| s.bank.clone()).collect();
    #[allow(clippy::cast_precision_loss)]
    let traps = state.trap_count() as f64;
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed() < Duration::from_millis(300) {
        let (_, took) = timed("kernel.ns_per_trap_step", || {
            for (shard, bank) in state.shards().iter().zip(&mut banks) {
                let mut rates = PhaseRateCache::new();
                for chip in &shard.chips {
                    let phase = rates.rates(DeviceCondition::new(config.active_env, chip.duty));
                    black_box(bank.advance_range(chip.traps.clone(), &phase, config.epoch_dt));
                }
            }
        });
        samples.push(took * 1e9 / traps);
    }
    median(samples)
}

/// Per-request durations the daemon logged, by trace id.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    /// `fleet.request`: a worker's decode, queue wait and execution.
    pub request_ns: Option<f64>,
    /// `fleet.execute`: the state thread's execution alone.
    pub execute_ns: Option<f64>,
}

/// Reads the `span_end` events of `fleet.request` and `fleet.execute`
/// out of a daemon's `jsonl:` telemetry log.
///
/// # Errors
///
/// When the log cannot be read.
pub fn read_spans(log: &Path) -> Result<HashMap<u64, Spans>, String> {
    let text = std::fs::read_to_string(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut spans: HashMap<u64, Spans> = HashMap::new();
    for line in text.lines().filter(|l| l.contains("\"span_end\"")) {
        let Ok(event) = json::parse(line) else {
            continue;
        };
        let name = event.get("name").and_then(json::Json::as_str);
        let wall = event.get("wall_ns").and_then(json::Json::as_f64);
        let trace = event
            .get("fields")
            .and_then(|f| f.get("trace_id"))
            .and_then(json::Json::as_f64);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        if let (Some(name), Some(wall), Some(trace)) = (name, wall, trace) {
            let entry = spans.entry(trace as u64).or_default();
            match name {
                "fleet.request" => entry.request_ns = Some(wall),
                "fleet.execute" => entry.execute_ns = Some(wall),
                _ => {}
            }
        }
    }
    Ok(spans)
}
