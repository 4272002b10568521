//! The perf ledger: records a benchmark run and gates it against history.
//!
//! Runs a benchmark command N times (or reads pre-captured manifest
//! files), keeps the duration values (`ledger::is_duration_key`),
//! collapses each to its median and IQR, gates the result against the
//! last `GATE_WINDOW` same-config entries of
//! `bench_history/<name>.jsonl`, then appends it there.
//!
//! ```text
//! perf_ledger --repeats 5 -- target/release/trap_kernel --json
//! perf_ledger --manifest run1.json --manifest run2.json --manifest run3.json
//! ```
//!
//! A key regresses when its median exceeds the window's baseline by more
//! than `max(GATE_IQR_MULT × pooled IQR, GATE_REL_FLOOR × baseline)` (the
//! `ledger` constants) — noise passes, real slowdowns do not. Any
//! regression exits 1 after the entry is appended; undo an unaccepted run
//! with `git checkout bench_history/`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use selfheal_bench::ledger;
use selfheal_telemetry::{git_describe, json};

struct Args {
    history: PathBuf,
    repeats: usize,
    manifests: Vec<PathBuf>,
    command: Vec<String>,
}

const USAGE: &str = "usage: perf_ledger [--history <dir>] [--repeats <n>] \
                     (--manifest <path>... | -- <bench command printing its manifest JSON>)";

/// `Ok(None)` when `--help` asked for the usage text.
fn parse_args() -> Result<Option<Args>, String> {
    let mut parsed = Args {
        history: PathBuf::from("bench_history"),
        repeats: 5,
        manifests: Vec::new(),
        command: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--history" => {
                parsed.history = args
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--history needs a dir")?;
            }
            "--repeats" => {
                parsed.repeats = args
                    .next()
                    .and_then(|raw| raw.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--repeats needs a positive count")?;
            }
            "--manifest" => {
                parsed.manifests.push(
                    args.next()
                        .map(PathBuf::from)
                        .ok_or("--manifest needs a path")?,
                );
            }
            "--" => {
                parsed.command = args.collect();
                break;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if parsed.manifests.is_empty() == parsed.command.is_empty() {
        return Err(format!(
            "pass either --manifest files or a benchmark command after --\n{USAGE}"
        ));
    }
    Ok(Some(parsed))
}

/// Records one run; `Ok(false)` when a key regressed.
fn run(args: &Args) -> Result<bool, String> {
    let manifests: Vec<json::Json> = if args.command.is_empty() {
        args.manifests
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .map_err(|err| format!("{}: {err}", path.display()))?;
                json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))
            })
            .collect::<Result<_, _>>()?
    } else {
        eprintln!(
            "perf_ledger: running `{}` ×{}",
            args.command.join(" "),
            args.repeats
        );
        ledger::run_repeats(&args.command, args.repeats).map_err(|err| err.to_string())?
    };
    let (name, config_hash, samples) = ledger::collect_samples(&manifests)?;
    if samples.is_empty() {
        return Err(format!("{name}: no duration values to record"));
    }
    let created_unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let entry = ledger::LedgerEntry::from_samples(
        &name,
        &config_hash,
        git_describe(),
        created_unix_s,
        &samples,
    );
    let history = ledger::load(&args.history, &name).map_err(|err| err.to_string())?;
    let mut regressed = false;
    for verdict in ledger::gate(&history, &entry) {
        let stats = entry.keys[&verdict.key];
        match verdict.baseline {
            None => println!(
                "perf_ledger: {name}.{}: {:.6} (iqr {:.6}) — no same-config baseline, pass",
                verdict.key, verdict.current, stats.iqr
            ),
            Some(baseline) => {
                let status = if verdict.regressed { "REGRESSED" } else { "ok" };
                println!(
                    "perf_ledger: {name}.{}: {:.6} (iqr {:.6}) vs baseline {:.6} \
                     (+{:.6} allowed) — {status}",
                    verdict.key, verdict.current, stats.iqr, baseline, verdict.tolerance
                );
                regressed |= verdict.regressed;
            }
        }
    }
    ledger::append(&args.history, &entry).map_err(|err| err.to_string())?;
    println!(
        "perf_ledger: appended {name} (n={}, {} key(s)) to {}",
        entry.n,
        entry.keys.len(),
        ledger::history_path(&args.history, &name).display()
    );
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "perf_ledger: performance regression detected; \
                 undo the append with `git checkout bench_history/`"
            );
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            ExitCode::FAILURE
        }
    }
}
