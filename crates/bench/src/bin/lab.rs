//! `lab` — run ad-hoc chamber sessions from the command line and export
//! the measurement log as CSV.
//!
//! ```text
//! USAGE:
//!   lab [--seed N] [--chip N] [--csv FILE] [BenchRun flags] PHASE [PHASE ...]
//!
//! PHASE is either a Table 1 case name (AS110DC24, AR110N6, ...) or an
//! ad-hoc spec  kind:temp_c:volts:hours[:sampling_min]  with kind one of
//! dc, ac, sleep. `burnin` is also accepted.
//!
//! EXAMPLES:
//!   lab AS110DC24 AR110N6
//!   lab burnin dc:100:1.2:24 sleep:110:-0.3:6 --csv session.csv
//! ```
//!
//! Run with `cargo run -p selfheal-bench --release --bin lab -- <args>`.
//! The common `BenchRun` flags (`--json`, `--out`, `--threads`,
//! `--no-cache`, `--folded`, `--status`) work here as in every bench
//! binary; `--json` prints the run manifest instead of the human report.

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use rand::SeedableRng;
use selfheal_bench::{fmt, BenchRun};
use selfheal_fpga::{Chip, ChipId};
use selfheal_testbench::export::write_csv;
use selfheal_testbench::{cases, PhaseSpec, TestHarness};
use selfheal_units::{Celsius, Hours, Minutes, Seconds, Volts};

fn main() -> ExitCode {
    match run(BenchRun::start("lab")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("lab: {message}");
            eprintln!("usage: lab [--seed N] [--chip N] [--csv FILE] [--json] [--out FILE] PHASE [PHASE ...]");
            eprintln!("       PHASE = Table-1 case name | burnin | dc|ac|sleep:temp:volts:hours[:sampling_min]");
            ExitCode::FAILURE
        }
    }
}

fn run(mut bench: BenchRun) -> Result<(), String> {
    let mut seed = 1u64;
    let mut chip_no = 1u32;
    let mut csv_path: Option<String> = None;
    let mut phases: Vec<PhaseSpec> = Vec::new();

    let mut iter = bench.args().to_vec().into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--chip" => {
                chip_no = iter
                    .next()
                    .ok_or("--chip needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --chip: {e}"))?;
            }
            "--csv" => {
                csv_path = Some(iter.next().ok_or("--csv needs a path")?);
            }
            "--help" | "-h" => {
                return Err("help requested".to_string());
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => phases.push(parse_phase(other)?),
        }
    }
    if phases.is_empty() {
        return Err("no phases given".to_string());
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let chip = Chip::commercial_40nm(ChipId::new(chip_no), &mut rng);
    let mut harness = TestHarness::new(chip);

    bench.say(format!(
        "lab session: chip {chip_no}, seed {seed}, {} phase(s)\n",
        phases.len()
    ));
    let mut results = Vec::new();
    let mut fresh: Option<f64> = None;
    let mut samples = 0usize;
    for spec in &phases {
        // A named root span per session phase: the manifest's phase
        // ledger shows the case names, with the harness's generic
        // `testbench.phase` span nested underneath.
        let _phase = bench.phase_named(&spec.name);
        let records = harness
            .run_phase(spec, &mut rng)
            .map_err(|e| format!("phase '{}': {e}", spec.name))?;
        let start = records.first().unwrap().measurement.cut_delay.get();
        let end = records.last().unwrap().measurement.cut_delay.get();
        fresh.get_or_insert(start);
        samples += records.len();
        bench.say(format!(
            "{:<28} {:>7} -> {:>7} ns  (delta {:+.3} ns, {} samples)",
            spec.name,
            fmt(start, 3),
            fmt(end, 3),
            end - start,
            records.len()
        ));
        results.push(selfheal_testbench::PhaseResult {
            name: spec.name.clone(),
            records,
        });
    }

    let last_delay = results
        .last()
        .and_then(|r| r.records.last())
        .map(|r| r.measurement.cut_delay.get());
    if let (Some(fresh), Some(last)) = (fresh, last_delay) {
        bench.say(format!(
            "\nsession: {} h of chamber time, net shift {:+.3} ns vs session start",
            fmt(harness.total_elapsed().to_hours().get(), 1),
            last - fresh
        ));
        bench.value("net_shift_ns", last - fresh);
    }

    if let Some(path) = csv_path {
        let file = File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
        write_csv(BufWriter::new(file), &results).map_err(|e| format!("writing {path}: {e}"))?;
        bench.say(format!("measurement log written to {path}"));
    }

    let phase_names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
    bench.value("phases", results.len() as f64);
    bench.value("samples", samples as f64);
    bench.value("chamber_hours", harness.total_elapsed().to_hours().get());
    bench.finish(&format!(
        "seed={seed} chip={chip_no} phases={}",
        phase_names.join(",")
    ));
    Ok(())
}

fn parse_phase(token: &str) -> Result<PhaseSpec, String> {
    if token.eq_ignore_ascii_case("burnin") || token.eq_ignore_ascii_case("burn-in") {
        return Ok(PhaseSpec::burn_in());
    }
    // A Table 1 case name?
    if let Some(case) = cases::table1().into_iter().find(|c| c.name == token) {
        return Ok(case.to_phase_spec());
    }
    // Ad-hoc kind:temp:volts:hours[:sampling_min]
    let parts: Vec<&str> = token.split(':').collect();
    if !(4..=5).contains(&parts.len()) {
        return Err(format!(
            "'{token}' is neither a Table 1 case nor kind:temp:volts:hours[:sampling_min]"
        ));
    }
    let kind = parts[0];
    let temp: f64 = parts[1]
        .parse()
        .map_err(|e| format!("temp in '{token}': {e}"))?;
    let volts: f64 = parts[2]
        .parse()
        .map_err(|e| format!("volts in '{token}': {e}"))?;
    let hours: f64 = parts[3]
        .parse()
        .map_err(|e| format!("hours in '{token}': {e}"))?;
    let sampling: Seconds = if parts.len() == 5 {
        let minutes: f64 = parts[4]
            .parse()
            .map_err(|e| format!("sampling in '{token}': {e}"))?;
        Minutes::new(minutes).into()
    } else {
        Minutes::new(20.0).into()
    };
    let duration: Seconds = Hours::new(hours).into();
    let temperature = Celsius::new(temp);

    let mut spec = match kind {
        "dc" => PhaseSpec::dc_stress_phase(temperature, duration, sampling),
        "ac" => PhaseSpec::ac_stress_phase(temperature, duration, sampling),
        "sleep" => PhaseSpec::recovery_phase(Volts::new(volts), temperature, duration, sampling),
        other => return Err(format!("unknown phase kind '{other}' (dc|ac|sleep)")),
    };
    if kind != "sleep" {
        spec.supply = Volts::new(volts);
    }
    spec = spec.named(token.to_string());
    spec.validate()?;
    Ok(spec)
}
