//! Appends a noise-aware entry to the perf ledger.
//!
//! Runs a benchmark command N times (or reads pre-captured manifest
//! files), collapses each headline value to its median and IQR, and
//! appends one JSONL record to `bench_history/<name>.jsonl` — the history
//! `perf_gate` compares future runs against.
//!
//! ```text
//! perf_ledger --repeats 5 -- target/release/trap_kernel --json
//! perf_ledger --manifest run1.json --manifest run2.json --manifest run3.json
//! perf_ledger --keys kernel_ns_per_trap_step_10000 --repeats 3 -- target/release/trap_kernel --json
//! perf_ledger --prune [--keep 50]            # cap every history file
//! ```
//!
//! `--prune` caps every `bench_history/*.jsonl` at the `--keep`
//! most-recent entries *per config hash* — history stays bounded without
//! ever evicting a live config's baseline window.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use selfheal_bench::ledger;
use selfheal_telemetry::{git_describe, json};

struct Args {
    history: PathBuf,
    repeats: usize,
    keys: Option<Vec<String>>,
    manifests: Vec<PathBuf>,
    command: Vec<String>,
    prune: bool,
    keep: usize,
}

const USAGE: &str = "usage: perf_ledger [--history <dir>] [--repeats <n>] [--keys k1,k2] \
                     (--manifest <path>... | -- <benchmark command printing --json>)\n\
                     \x20      perf_ledger [--history <dir>] --prune [--keep <n>]";

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        history: PathBuf::from("bench_history"),
        repeats: 5,
        keys: None,
        manifests: Vec::new(),
        command: Vec::new(),
        prune: false,
        keep: 50,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--history" => {
                parsed.history = args.next().map(PathBuf::from).ok_or("--history needs a dir")?;
            }
            "--repeats" => {
                parsed.repeats = args
                    .next()
                    .and_then(|raw| raw.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--repeats needs a positive count")?;
            }
            "--keys" => {
                let list = args.next().ok_or("--keys needs a comma-separated list")?;
                parsed.keys = Some(list.split(',').map(str::to_string).collect());
            }
            "--manifest" => {
                parsed
                    .manifests
                    .push(args.next().map(PathBuf::from).ok_or("--manifest needs a path")?);
            }
            "--prune" => parsed.prune = true,
            "--keep" => {
                parsed.keep = args
                    .next()
                    .and_then(|raw| raw.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--keep needs a positive count")?;
            }
            "--" => {
                parsed.command = args.collect();
                break;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if parsed.prune {
        if !parsed.manifests.is_empty() || !parsed.command.is_empty() {
            return Err(format!("--prune takes no manifests or command\n{USAGE}"));
        }
    } else if parsed.manifests.is_empty() == parsed.command.is_empty() {
        return Err(format!(
            "pass either --manifest files or a benchmark command after --\n{USAGE}"
        ));
    }
    Ok(parsed)
}

/// Caps every `<history>/*.jsonl` at `keep` entries per config hash.
fn prune_all(history: &PathBuf, keep: usize) -> Result<(), String> {
    let entries = match std::fs::read_dir(history) {
        Ok(entries) => entries,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            println!("perf_ledger: {} does not exist, nothing to prune", history.display());
            return Ok(());
        }
        Err(err) => return Err(format!("{}: {err}", history.display())),
    };
    let mut names: Vec<String> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let path = e.path();
            (path.extension().is_some_and(|x| x == "jsonl"))
                .then(|| path.file_stem()?.to_str().map(ToString::to_string))
                .flatten()
        })
        .collect();
    names.sort();
    let mut total = 0usize;
    for name in &names {
        let dropped = ledger::prune(history, name, keep).map_err(|err| format!("{name}: {err}"))?;
        if dropped > 0 {
            println!("perf_ledger: pruned {dropped} entry(ies) from {name}.jsonl");
        }
        total += dropped;
    }
    println!(
        "perf_ledger: prune done — {total} entry(ies) dropped across {} file(s) (keep={keep} per config)",
        names.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.prune {
        return prune_all(&args.history, args.keep);
    }
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
    let (name, config_hash, mut samples) = ledger::collect_samples(&manifests)
        .ok_or("manifests disagree on name/config or are not bench manifests")?;
    if let Some(keys) = &args.keys {
        samples.retain(|key, _| keys.iter().any(|k| k == key));
        for key in keys {
            if !samples.contains_key(key) {
                return Err(format!("key {key} not found in the manifest values"));
            }
        }
    }
    if samples.is_empty() {
        return Err(format!("{name}: no numeric values to record"));
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
    ledger::append(&args.history, &entry).map_err(|err| err.to_string())?;
    let path = ledger::history_path(&args.history, &name);
    println!(
        "perf_ledger: appended {} (n={}, {} key(s)) to {}",
        name,
        entry.n,
        entry.keys.len(),
        path.display()
    );
    let entries: BTreeMap<String, ledger::KeyStats> = entry.keys;
    for (key, stats) in entries {
        println!("  {key}: median={:.6} iqr={:.6}", stats.median, stats.iqr);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            ExitCode::FAILURE
        }
    }
}
