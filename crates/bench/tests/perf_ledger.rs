//! End-to-end fixture tests for `perf_ledger`, the one tool that records
//! and gates benchmark runs: seed a history from fixture manifests, then
//! check that IQR-level noise passes, a synthetic 2× slowdown exits 1,
//! a faster ratio is never read as a regression, and ragged repeat sets
//! append nothing.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Output;

const LEDGER_BIN: &str = env!("CARGO_BIN_EXE_perf_ledger");

/// A minimal bench manifest: exactly the fields the ledger reads.
fn manifest_json(config_hash: &str, values: &[(&str, f64)]) -> String {
    let values: Vec<String> = values
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!(
        "{{\"name\": \"fixture_bench\", \"config_hash\": \"{config_hash}\", \
         \"values\": {{{}}}}}",
        values.join(", ")
    )
}

/// A fresh per-test scratch directory holding manifests and the history.
struct Scratch {
    dir: PathBuf,
    written: usize,
}

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "selfheal_perf_ledger_{test}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch { dir, written: 0 }
    }

    fn history(&self) -> PathBuf {
        self.dir.join("bench_history")
    }

    fn history_lines(&self) -> Vec<String> {
        fs::read_to_string(self.history().join("fixture_bench.jsonl"))
            .map(|text| text.lines().map(str::to_string).collect())
            .unwrap_or_default()
    }

    fn manifest(&mut self, config_hash: &str, values: &[(&str, f64)]) -> PathBuf {
        self.written += 1;
        let path = self.dir.join(format!("repeat{}.json", self.written));
        fs::write(&path, manifest_json(config_hash, values)).expect("write fixture manifest");
        path
    }

    /// Runs `perf_ledger --history <scratch> --manifest <path>...`.
    fn record(&self, manifests: &[PathBuf]) -> Output {
        let mut command = std::process::Command::new(LEDGER_BIN);
        command.arg("--history").arg(self.history());
        for path in manifests {
            command.arg("--manifest").arg(path);
        }
        command.output().expect("spawn perf_ledger")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

fn said(output: &Output) -> String {
    format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    )
}

#[test]
fn gate_passes_noise_and_fails_synthetic_slowdown() {
    let mut scratch = Scratch::new("noise");
    // Seed the ledger with one noise-aware entry: five repeats around
    // 100 ms (median 100.5, IQR ≈ 1.5).
    let repeats: Vec<PathBuf> = [100.0, 101.5, 99.0, 102.0, 100.5]
        .iter()
        .map(|ms| scratch.manifest("cfg1", &[("wall_ms", *ms)]))
        .collect();
    let seeded = scratch.record(&repeats);
    assert!(seeded.status.success(), "seeding failed: {}", said(&seeded));
    assert_eq!(scratch.history_lines().len(), 1, "one JSONL entry per run");

    // IQR-level noise passes: 106 ms vs 100.5 is well inside the
    // rel_floor (10 % of baseline) tolerance.
    let noisy = scratch.manifest("cfg1", &[("wall_ms", 106.0)]);
    let pass = scratch.record(&[noisy]);
    assert!(pass.status.success(), "noise must pass: {}", said(&pass));
    assert!(
        said(&pass).contains("— ok"),
        "verdict line printed: {}",
        said(&pass)
    );

    // A synthetic 2× slowdown fails with exit code 1, and is still
    // appended (an unaccepted run is undone with git).
    let slow = scratch.manifest("cfg1", &[("wall_ms", 201.0)]);
    let fail = scratch.record(&[slow]);
    assert_eq!(fail.status.code(), Some(1), "must exit 1: {}", said(&fail));
    assert!(said(&fail).contains("REGRESSED"), "{}", said(&fail));
    assert_eq!(scratch.history_lines().len(), 3);

    // A different config hash has no baseline → passes (config changes
    // seed a fresh baseline instead of tripping the gate).
    let other = scratch.manifest("cfg2", &[("wall_ms", 500.0)]);
    let fresh = scratch.record(&[other]);
    assert!(
        fresh.status.success(),
        "unknown config must pass: {}",
        said(&fresh)
    );
    assert!(
        said(&fresh).contains("no same-config baseline"),
        "{}",
        said(&fresh)
    );
}

#[test]
fn faster_ratio_is_not_a_regression() {
    let mut scratch = Scratch::new("ratio");
    let repeats: Vec<PathBuf> = [
        (10.0, 9.0),
        (11.0, 9.1),
        (12.0, 9.2),
        (13.0, 9.3),
        (14.0, 9.4),
    ]
    .iter()
    .map(|(ms, speedup)| {
        scratch.manifest(
            "cfg1",
            &[
                ("full_ms_per_epoch_100000", *ms),
                ("speedup_100000", *speedup),
            ],
        )
    })
    .collect();
    let seeded = scratch.record(&repeats);
    assert!(seeded.status.success(), "seeding failed: {}", said(&seeded));

    // Same duration, higher speedup: an improvement, and the ratio is
    // neither gated nor recorded.
    let faster = scratch.manifest(
        "cfg1",
        &[("full_ms_per_epoch_100000", 12.0), ("speedup_100000", 12.0)],
    );
    let pass = scratch.record(&[faster]);
    assert_eq!(pass.status.code(), Some(0), "{}", said(&pass));
    let lines = scratch.history_lines();
    assert_eq!(lines.len(), 2);
    assert!(
        lines.iter().all(|line| !line.contains("speedup_")),
        "{lines:?}"
    );
    assert!(
        lines[1].contains("full_ms_per_epoch_100000"),
        "{}",
        lines[1]
    );

    // Doubling the duration still regresses.
    let slow = scratch.manifest(
        "cfg1",
        &[("full_ms_per_epoch_100000", 24.0), ("speedup_100000", 12.0)],
    );
    let fail = scratch.record(&[slow]);
    assert_eq!(fail.status.code(), Some(1), "{}", said(&fail));
    assert!(said(&fail).contains("REGRESSED"), "{}", said(&fail));
}

#[test]
fn ragged_repeats_append_nothing() {
    let mut scratch = Scratch::new("ragged");
    let full = scratch.manifest("cfg1", &[("wall_ms", 10.0), ("setup_s", 1.0)]);
    let short = scratch.manifest("cfg1", &[("wall_ms", 11.0)]);
    let ragged = scratch.record(&[full, short]);
    assert_eq!(ragged.status.code(), Some(1), "{}", said(&ragged));
    assert!(
        said(&ragged).contains("setup_s"),
        "error names the key: {}",
        said(&ragged)
    );
    assert!(!scratch.history().exists(), "nothing appended");
}

#[test]
fn only_the_four_options_remain() {
    let run = |args: &[&str]| {
        std::process::Command::new(LEDGER_BIN)
            .args(args)
            .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
            .output()
            .expect("spawn perf_ledger")
    };
    let help = run(&["--help"]);
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout).to_string();
    let options: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || "[]()|".contains(c))
        .filter(|word| word.starts_with("--"))
        .collect();
    assert_eq!(
        options,
        ["--history", "--repeats", "--manifest", "--"],
        "{usage}"
    );
    for retired in ["--keys", "--prune", "--keep", "--smoke"] {
        let out = run(&[retired]);
        assert_eq!(out.status.code(), Some(1), "{retired}: {}", said(&out));
        assert!(
            said(&out).contains(&format!("unknown argument {retired}")),
            "{retired}: {}",
            said(&out)
        );
    }
}
