//! The perf regression gate: compares a current benchmark run against
//! the `bench_history/` ledger with an IQR-based tolerance.
//!
//! Exits non-zero when any gated key's current median exceeds the
//! baseline of the last `GATE_WINDOW` same-config entries by more than
//! `max(GATE_IQR_MULT × pooled IQR, GATE_REL_FLOOR × baseline)` (the
//! `ledger` constants) — noise passes, real slowdowns do not.
//!
//! ```text
//! perf_gate --manifest target/manifests/trap_kernel.json
//! perf_gate --repeats 3 -- target/release/trap_kernel --json
//! perf_gate --smoke            # CI self-check: history parses, gate logic sane
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use selfheal_bench::ledger;
use selfheal_telemetry::json;

struct Args {
    history: PathBuf,
    repeats: usize,
    keys: Option<Vec<String>>,
    manifest: Option<PathBuf>,
    command: Vec<String>,
    smoke: bool,
}

const USAGE: &str = "usage: perf_gate [--history <dir>] [--keys k1,k2] [--repeats <n>] \
                     (--manifest <path> | -- <benchmark command printing --json> | --smoke)";

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        history: PathBuf::from("bench_history"),
        repeats: 1,
        keys: None,
        manifest: None,
        command: Vec::new(),
        smoke: false,
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
                parsed.manifest = Some(args.next().map(PathBuf::from).ok_or("--manifest needs a path")?);
            }
            "--smoke" => parsed.smoke = true,
            "--" => {
                parsed.command = args.collect();
                break;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !parsed.smoke && parsed.manifest.is_none() && parsed.command.is_empty() {
        return Err(format!("pass --manifest, a command after --, or --smoke\n{USAGE}"));
    }
    Ok(parsed)
}

/// `--smoke`: every committed history file must parse, and the gate's
/// discrimination must hold on synthetic data (a 2× slowdown regresses,
/// IQR-level noise does not). The cheap always-runnable CI hook.
fn smoke(history_dir: &PathBuf) -> Result<(), String> {
    let mut files = 0usize;
    if let Ok(read_dir) = std::fs::read_dir(history_dir) {
        for dir_entry in read_dir.flatten() {
            let path = dir_entry.path();
            if path.extension().is_none_or(|ext| ext != "jsonl") {
                continue;
            }
            let name = path
                .file_stem()
                .and_then(|stem| stem.to_str())
                .ok_or_else(|| format!("{}: non-UTF-8 file name", path.display()))?;
            let entries =
                ledger::load(history_dir, name).map_err(|err| format!("smoke: {err}"))?;
            println!(
                "perf_gate: smoke: {} — {} entr{} ok",
                path.display(),
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" }
            );
            files += 1;
        }
    }
    let mk = |median: f64, iqr: f64| ledger::LedgerEntry {
        name: "smoke".to_string(),
        created_unix_s: 0,
        git_describe: None,
        config_hash: "smoke".to_string(),
        n: 5,
        keys: [(
            "ms".to_string(),
            ledger::KeyStats { median, iqr },
        )]
        .into_iter()
        .collect(),
    };
    let history: Vec<ledger::LedgerEntry> =
        (0..5).map(|i| mk(100.0 + i as f64, 3.0)).collect();
    let noisy = ledger::gate(&history, &mk(106.0, 3.0));
    if noisy.iter().any(|v| v.regressed) {
        return Err("smoke: IQR-level noise must pass the gate".to_string());
    }
    let doubled = ledger::gate(&history, &mk(204.0, 3.0));
    if !doubled.iter().all(|v| v.regressed) {
        return Err("smoke: a synthetic 2× slowdown must fail the gate".to_string());
    }
    println!("perf_gate: smoke ok ({files} history file(s), gate logic verified)");
    Ok(())
}

/// True when the gate passed (no regressions).
fn run_gate(args: &Args) -> Result<bool, String> {
    let manifests: Vec<json::Json> = if let Some(path) = &args.manifest {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("{}: {err}", path.display()))?;
        vec![json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?]
    } else {
        eprintln!(
            "perf_gate: running `{}` ×{}",
            args.command.join(" "),
            args.repeats
        );
        ledger::run_repeats(&args.command, args.repeats).map_err(|err| err.to_string())?
    };
    let (name, config_hash, mut samples) = ledger::collect_samples(&manifests)
        .ok_or("manifests disagree on name/config or are not bench manifests")?;
    if let Some(keys) = &args.keys {
        samples.retain(|key, _| keys.iter().any(|k| k == key));
    }
    if samples.is_empty() {
        return Err(format!("{name}: no numeric values to gate"));
    }
    let current = ledger::LedgerEntry::from_samples(&name, &config_hash, None, 0, &samples);
    let history = ledger::load(&args.history, &name).map_err(|err| err.to_string())?;
    let verdicts = ledger::gate(&history, &current);
    let mut regressed = false;
    for verdict in &verdicts {
        match verdict.baseline {
            None => println!(
                "perf_gate: {name}.{}: {:.6} — no same-config baseline, pass",
                verdict.key, verdict.current
            ),
            Some(baseline) => {
                let status = if verdict.regressed { "REGRESSED" } else { "ok" };
                println!(
                    "perf_gate: {name}.{}: {:.6} vs baseline {:.6} (+{:.6} allowed) — {status}",
                    verdict.key, verdict.current, baseline, verdict.tolerance
                );
                regressed |= verdict.regressed;
            }
        }
    }
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf_gate: {message}");
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        return match smoke(&args.history) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("perf_gate: {message}");
                ExitCode::FAILURE
            }
        };
    }
    match run_gate(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf_gate: performance regression detected");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perf_gate: {message}");
            ExitCode::FAILURE
        }
    }
}
