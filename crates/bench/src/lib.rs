//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one artefact of the paper's
//! evaluation section (`fig4` … `fig10`, `table1` … `table5`) and prints
//! paper-reported reference values next to the reproduction's measured
//! ones. `all_experiments` runs the lot and emits the markdown consumed by
//! the repository's `EXPERIMENTS.md`.
//!
//! Absolute agreement is not the goal (the substrate is a simulator, not
//! the authors' chamber + chips); the *shapes* are: who wins, by what
//! rough factor, and where the curves bend.

#![forbid(unsafe_code)]

pub mod ledger;

use std::fmt::Write as _;
use std::path::PathBuf;

use selfheal::experiment::{ExperimentOutputs, PaperExperiment};
use selfheal_runtime as runtime;
use selfheal_telemetry as telemetry;
use selfheal_units::float;

/// The seed all figure binaries share, so every artefact is drawn from
/// the same simulated chip population.
pub const CAMPAIGN_SEED: u64 = 2014;

/// Runs the full Table 1 campaign at the paper's sampling cadence,
/// through `cache` — a binary passes its [`BenchRun::cache`].
///
/// The first figure binary of a session pays for the simulation; the
/// rest rehydrate bit-identical outputs from `target/cache/`. Pass
/// `--no-cache` to force a full recompute — the cached and recomputed
/// outputs are interchangeable, but a cache hit skips the campaign's
/// per-chip telemetry, so manifests meant to profile the simulation
/// itself should bypass it.
#[must_use]
pub fn campaign(cache: &runtime::ResultCache) -> ExperimentOutputs {
    PaperExperiment::paper_cadence(CAMPAIGN_SEED)
        .run_cached(cache)
        .0
}

/// One telemetry-backed run of a figure/table binary.
///
/// Every binary opens with [`BenchRun::start`], routes its human-readable
/// report through [`say`](Self::say) / [`table`](Self::table), records
/// headline numbers with [`value`](Self::value), and closes with
/// [`finish`](Self::finish), which writes the run manifest (config hash,
/// per-phase wall-clock timings, metric snapshot) to
/// `target/manifests/<name>.json`.
///
/// Command-line behaviour common to all binaries:
///
/// * `--json` — suppress the human report and print the manifest JSON to
///   stdout instead;
/// * `--out <path>` — write the manifest to `<path>` instead of the
///   default location;
/// * `--threads <n>` — size the `selfheal-runtime` global pool (`0` =
///   inline serial; the default follows `SELFHEAL_THREADS` or the
///   machine's parallelism). Results are bit-identical at any setting;
/// * `--no-cache` — make [`cache`](Self::cache) the disabled cache
///   instead of `target/cache/` (every stage recomputes);
/// * `--folded <path>` — write the run's self-time profile in the
///   folded-stacks format `flamegraph.pl` consumes;
/// * `--status <path>` — run the sampler, which rewrites a Prometheus
///   text-exposition status file from the metrics registry at the
///   sampling cadence (point `selfheal-top <path>` at it for a live
///   dashboard);
/// * `SELFHEAL_TELEMETRY=pretty|jsonl:<path>|trace:<path>`
///   (comma-separated) — attach span/event sinks for the duration of
///   the run (`trace:<path>` writes a Chrome/Perfetto trace);
/// * `SELFHEAL_TELEMETRY_SAMPLE=250ms` — the `--status` sampling
///   cadence.
///
/// Every other argument is left, in order, in [`args`](Self::args) for
/// the binary's own flags.
#[derive(Debug)]
pub struct BenchRun {
    name: &'static str,
    json: bool,
    out: Option<PathBuf>,
    folded: Option<PathBuf>,
    cache: runtime::ResultCache,
    args: Vec<String>,
    values: Vec<(String, f64)>,
    sampler: Option<telemetry::Sampler>,
    _sink: Option<telemetry::SinkGuard>,
}

impl BenchRun {
    /// Starts a run: parses the common flags, attaches any env-configured
    /// sink, and resets metrics and the self-time ledger so the run
    /// accumulates a fresh snapshot.
    ///
    /// Sinks are installed *before* the thread flag is applied:
    /// `--threads` sizes the global pool whose workers announce themselves
    /// with a `runtime.worker.start` event the trace must not miss.
    #[must_use]
    pub fn start(name: &'static str) -> Self {
        let mut json = false;
        let mut out = None;
        let mut folded = None;
        let mut status = None;
        let mut threads = None;
        let mut no_cache = false;
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => json = true,
                "--out" => out = args.next().map(PathBuf::from),
                "--folded" => folded = args.next().map(PathBuf::from),
                "--status" => status = args.next().map(PathBuf::from),
                "--threads" => {
                    let parsed = args.next().and_then(|raw| raw.parse::<usize>().ok());
                    if parsed.is_some() {
                        threads = parsed;
                    } else {
                        eprintln!("{name}: --threads expects a worker count; ignoring");
                    }
                }
                "--no-cache" => no_cache = true,
                _ => rest.push(arg),
            }
        }
        let sink = telemetry::init_from_env();
        telemetry::metrics::reset();
        telemetry::metrics::set_enabled(true);
        telemetry::begin_run();
        telemetry::register_thread_name("main");
        if let Some(threads) = threads {
            runtime::set_global_threads(threads);
        }
        let sampler =
            status.and_then(|path| telemetry::Sampler::start(path, telemetry::interval_from_env()));
        BenchRun {
            name,
            json,
            out,
            folded,
            cache: if no_cache {
                runtime::ResultCache::disabled()
            } else {
                runtime::ResultCache::standard()
            },
            args: rest,
            values: Vec::new(),
            sampler,
            _sink: sink,
        }
    }

    /// The command-line arguments [`start`](Self::start) did not
    /// consume, in order: the binary's own flags and operands.
    #[must_use]
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// The run's result cache: `target/cache/`, or the disabled cache
    /// under `--no-cache`.
    #[must_use]
    pub fn cache(&self) -> &runtime::ResultCache {
        &self.cache
    }

    /// Prints one line of the human report (dropped under `--json`).
    pub fn say(&self, text: impl std::fmt::Display) {
        if !self.json {
            println!("{text}");
        }
    }

    /// Prints a [`Table`] as part of the human report (dropped under
    /// `--json`).
    pub fn table(&self, table: &Table) {
        if !self.json {
            table.print();
        }
    }

    /// Opens a named phase span; bind the guard for the phase's extent.
    /// Completed top-level phases become the manifest's timing entries.
    #[must_use]
    pub fn phase(&self, name: &'static str) -> telemetry::Span {
        telemetry::span!(name)
    }

    /// [`phase`](Self::phase) with a computed name (per-size benchmark
    /// sections and the like).
    #[must_use]
    pub fn phase_named(&self, name: impl AsRef<str>) -> telemetry::Span {
        if telemetry::telemetry_enabled() {
            telemetry::Span::enter(name.as_ref(), Vec::new())
        } else {
            telemetry::Span::disabled()
        }
    }

    /// Records a headline result: it lands in the manifest's `values` map
    /// and, as `bench.<name>.<key>`, in the metric snapshot.
    pub fn value(&mut self, key: &str, value: f64) {
        telemetry::metrics::gauge_set(&format!("bench.{}.{key}", self.name), value);
        self.values.push((key.to_string(), value));
    }

    /// Ends the run: captures the manifest, writes it to `--out` or
    /// `target/manifests/<name>.json`, and under `--json` prints it to
    /// stdout. Returns the manifest for callers that want to inspect it.
    #[allow(clippy::must_use_candidate)] // called for its side effect; the result is optional
    pub fn finish(mut self, config_repr: &str) -> telemetry::RunManifest {
        // Stop the sampler first: it takes a final read-only tick, so the
        // status file sees the finished run's last state.
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        let mut manifest = telemetry::RunManifest::capture(self.name, config_repr);
        for (key, value) in &self.values {
            manifest = manifest.with_number(key, *value);
        }
        let path = self
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("target/manifests/{}.json", self.name)));
        if let Err(err) = manifest.write_to(&path) {
            eprintln!(
                "{}: could not write manifest to {}: {err}",
                self.name,
                path.display()
            );
        } else if !self.json {
            println!("\nmanifest: {}", path.display());
        }
        if let Some(folded_path) = &self.folded {
            let folded = telemetry::render_folded(&manifest.self_time);
            if let Err(err) = std::fs::write(folded_path, folded) {
                eprintln!(
                    "{}: could not write folded stacks to {}: {err}",
                    self.name,
                    folded_path.display(),
                );
            } else if !self.json {
                println!("folded stacks: {}", folded_path.display());
            }
        }
        if self.json {
            println!("{}", manifest.render());
        }
        telemetry::flush_all();
        manifest
    }
}

/// Paper-reported reference values, quoted from the text and read off the
/// figures, used in the side-by-side comparisons.
pub mod paper {
    /// Best-case design-margin-relaxed parameter (§5.2.2, Table 4).
    pub const AR110N6_MARGIN_RELAXED_PERCENT: f64 = 72.4;
    /// "AC stress ... results in smaller frequency degradation, which is
    /// about half of that in the DC stress case" (§5.1.1).
    pub const AC_OVER_DC_RATIO: f64 = 0.5;
    /// Fig. 5's 24 h DC degradation at 110 °C, read off the plot (%).
    pub const DC110_DEGRADATION_PERCENT: f64 = 2.3;
    /// Fig. 5's 24 h DC degradation at 100 °C, read off the plot (%).
    pub const DC100_DEGRADATION_PERCENT: f64 = 1.9;
    /// "we can bring the stressed chips back to within 90 % of their
    /// original margin" (abstract, §5.2.2) — margin-available threshold.
    pub const MARGIN_AVAILABLE_THRESHOLD: f64 = 0.90;
    /// The active-vs-sleep ratio of every recovery case (§5.2.3).
    pub const ALPHA: f64 = 4.0;
}

/// A minimal fixed-width table printer for terminal reports.
///
/// # Examples
///
/// ```
/// use selfheal_bench::Table;
///
/// let mut t = Table::new(&["case", "paper", "measured"]);
/// t.row(&["AR110N6", "72.4 %", "73.1 %"]);
/// let rendered = t.render();
/// assert!(rendered.contains("AR110N6"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells render empty, extras are dropped).
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(ToString::to_string).collect());
        self
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let pad = width.saturating_sub(cell.chars().count());
                let _ = write!(out, "| {cell}{} ", " ".repeat(pad));
            }
            out.push_str("|\n");
        };
        line(&self.headers, &mut out);
        for (i, width) in widths.iter().enumerate() {
            let _ = write!(out, "|{}", "-".repeat(width + 2));
            if i == self.headers.len() - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with the given precision — tiny helper to keep the
/// binaries tidy.
#[must_use]
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Renders an inline ASCII sparkline of a series (for eyeballing curve
/// shapes in the terminal without a plotting stack).
#[must_use]
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if values.is_empty() {
        return String::new();
    }
    // `values` is non-empty here, so the reductions always yield a value.
    let max = float::max_of(values.iter().copied()).unwrap_or(0.0);
    let min = float::min_of(values.iter().copied()).unwrap_or(0.0);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["case", "value"]);
        t.row(&["AR110N6", "72.4"]).row(&["R20Z6", "33"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.starts_with('|') && l.ends_with('|')));
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn table_handles_ragged_rows() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["1"]).row(&["1", "2", "3", "4"]);
        let s = t.render();
        assert!(s.contains("| 1 |"));
        assert!(!s.contains('4'), "extra cells are dropped");
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        let first = s.chars().next().unwrap();
        let last = s.chars().next_back().unwrap();
        assert!(last > first, "rising series rises");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(72.44449, 1), "72.4");
        assert_eq!(fmt(0.5, 3), "0.500");
    }
}
