//! `selfheal-top` — live terminal dashboard over a running bench.
//!
//! Tails the Prometheus text-exposition status file a `--status <path>`
//! bench run rewrites atomically at the sampling cadence, and renders
//! pool queue depth, steal ratio, cache hit rate, trap-kernel
//! throughput and the top self-time spans:
//!
//! ```text
//! # terminal 1
//! cargo run --release -p selfheal-bench --bin fig5 -- --threads 8 --status target/status.prom
//! # terminal 2
//! cargo run --release -p selfheal-bench --bin selfheal-top -- target/status.prom
//! ```
//!
//! Rates (traps/s, steals/s) are derived from deltas between successive
//! scrapes of the cumulative counters, divided by the sampler's own
//! embedded clock (`selfheal_sample_ts_ns`) — the dashboard needs no
//! wall clock of its own.
//!
//! Modes:
//!
//! * default — redraw at `--interval <dur>` (default 250ms) until killed;
//! * `--once` — render a single frame and exit;
//! * `--check` — parse and validate the file (the CI smoke uses this),
//!   printing a one-line summary; exit 1 on malformed exposition. With
//!   `--max-age <dur>` it also fails when the file's mtime is older
//!   than the bound — `selfheal_sample_ts_ns` is relative to the
//!   *writer's* process start, so a dead writer's file still parses;
//!   only the mtime against the checker's own clock proves liveness.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use selfheal_telemetry::timeseries::{parse_exposition, parse_interval, Exposition};

/// One scrape of the status file that the rate derivations compare.
#[derive(Debug, Clone, Default)]
struct Scrape {
    ts_ns: f64,
    traps: f64,
    advances: f64,
    steals: f64,
    executed: f64,
}

impl Scrape {
    fn from_exposition(exposition: &Exposition) -> Scrape {
        let v = |name: &str| exposition.value(name).unwrap_or(0.0);
        Scrape {
            ts_ns: v("selfheal_sample_ts_ns"),
            traps: v("selfheal_bti_td_kernel_traps_advanced"),
            advances: v("selfheal_bti_td_kernel_advance_calls"),
            steals: v("selfheal_runtime_pool_steals_total"),
            executed: v("selfheal_runtime_pool_jobs_executed_total"),
        }
    }
}

/// `Δcounter / Δt` between two scrapes, `None` until time advances.
fn rate(now: f64, before: f64, dt_s: f64) -> Option<f64> {
    (dt_s > 0.0).then(|| (now - before).max(0.0) / dt_s)
}

/// Bucket-derived quantile from exposition `_bucket{le=...}` samples
/// (reported as the covering bucket's upper bound).
fn exposition_quantile(exposition: &Exposition, family: &str, q: f64) -> Option<f64> {
    let buckets = exposition.samples_named(&format!("{family}_bucket"));
    let total = exposition.value(&format!("{family}_count"))?;
    if total <= 0.0 {
        return None;
    }
    let target = q * total;
    let mut best: Option<f64> = None;
    // Rendered in ascending le order; the first bucket whose cumulative
    // count covers the target rank wins.
    for sample in buckets {
        let le = sample
            .labels
            .iter()
            .find(|(k, _)| k == "le")
            .and_then(|(_, v)| v.parse::<f64>().ok())?;
        if sample.value >= target && best.is_none() && le.is_finite() {
            best = Some(le);
        }
    }
    best
}

/// True when the status file's last rewrite is older than `max_age`:
/// the writer is gone or wedged. The embedded heartbeat
/// (`selfheal_sample_ts_ns`) cannot prove liveness — it is relative to
/// the writer's own process start and a dead writer's final file keeps
/// parsing forever — so staleness comes from the file mtime against the
/// checker's clock. A future mtime is clock skew, not staleness.
fn is_stale(modified: SystemTime, now: SystemTime, max_age: Duration) -> bool {
    now.duration_since(modified).is_ok_and(|age| age > max_age)
}

/// Renders one dashboard frame.
fn render_frame(path: &Path, exposition: &Exposition, previous: &Scrape, stale: bool) -> String {
    let now = Scrape::from_exposition(exposition);
    let dt_s = (now.ts_ns - previous.ts_ns) / 1e9;
    let mut out = String::new();
    let t_s = now.ts_ns / 1e9;
    out.push_str(&format!(
        "selfheal-top — {} — t={t_s:.2}s{}\n\n",
        path.display(),
        if stale { " (stale)" } else { "" },
    ));

    let value = |name: &str| exposition.value(name);
    let fmt_opt = |v: Option<f64>, unit: &str| match v {
        Some(v) if v.abs() >= 10_000.0 => format!("{v:.3e}{unit}"),
        Some(v) => format!("{v:.1}{unit}"),
        None => "-".to_string(),
    };

    // Pool: queue depth gauge + steal ratio derived from the
    // cumulative counters (recent = this scrape interval, run = overall).
    let depth = value("selfheal_runtime_pool_queue_depth");
    let run_ratio = (now.executed > 0.0).then(|| now.steals / now.executed);
    let recent_jobs = now.executed - previous.executed;
    let recent_ratio =
        (recent_jobs > 0.0).then(|| (now.steals - previous.steals).max(0.0) / recent_jobs);
    out.push_str(&format!(
        "pool    queue depth {}   steal ratio {} (run {})   jobs/s {}\n",
        fmt_opt(depth, ""),
        fmt_opt(recent_ratio.or(run_ratio), ""),
        fmt_opt(run_ratio, ""),
        fmt_opt(rate(now.executed, previous.executed, dt_s), ""),
    ));

    // Cache hit rate from the registry counters.
    let hits = value("selfheal_runtime_cache_hits").unwrap_or(0.0);
    let misses = value("selfheal_runtime_cache_misses").unwrap_or(0.0);
    if hits + misses > 0.0 {
        out.push_str(&format!(
            "cache   hit rate {:.1}%   ({hits:.0} hit(s) / {misses:.0} miss(es))\n",
            100.0 * hits / (hits + misses),
        ));
    }

    // Trap-kernel throughput from counter deltas.
    if now.traps > 0.0 || now.advances > 0.0 {
        out.push_str(&format!(
            "kernel  traps/s {}   advances/s {}   traps total {:.3e}\n",
            fmt_opt(rate(now.traps, previous.traps, dt_s), ""),
            fmt_opt(rate(now.advances, previous.advances, dt_s), ""),
            now.traps,
        ));
    }

    // Latency objectives published by the fleet's per-epoch SLO judge
    // (fleetd --slo): one row per selfheal_slo_*_ok gauge, with the
    // observed quantile, the target, and the error-budget burn rate.
    let mut slo_rows = String::new();
    for sample in &exposition.samples {
        let Some(base) = sample.name.strip_suffix("_ok") else {
            continue;
        };
        let Some(objective) = base.strip_prefix("selfheal_slo_") else {
            continue;
        };
        let verdict = if sample.value >= 1.0 {
            "ok"
        } else {
            "VIOLATED"
        };
        slo_rows.push_str(&format!(
            "  {:<16} observed {:>10} target {:>10} burn {:>6} {verdict}\n",
            objective.replace('_', " "),
            fmt_opt(value(&format!("{base}_us")), "us"),
            fmt_opt(value(&format!("{base}_target_us")), "us"),
            fmt_opt(value(&format!("{base}_burn")), "x"),
        ));
    }
    if !slo_rows.is_empty() {
        out.push_str("\nslo\n");
        out.push_str(&slo_rows);
    }

    // Per-shard epoch time as a heat line: fleet daemons publish
    // selfheal_fleet_shard_<i>_epoch_us for each timed epoch advance,
    // so a lopsided line means one shard is dragging the barrier.
    let mut shard_us: Vec<f64> = Vec::new();
    while let Some(v) = value(&format!("selfheal_fleet_shard_{}_epoch_us", shard_us.len())) {
        shard_us.push(v);
    }
    if !shard_us.is_empty() {
        const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let peak = shard_us
            .iter()
            .copied()
            .fold(0.0, selfheal_units::float::max_total);
        let heat: String = shard_us
            .iter()
            .map(|&v| {
                let level = if peak > 0.0 { v / peak * 7.0 } else { 0.0 };
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let index = level.round() as usize;
                BLOCKS[index.min(7)]
            })
            .collect();
        out.push_str(&format!(
            "\nshards  epoch us {heat}  peak {} over {} shard(s)\n",
            fmt_opt(Some(peak), "us"),
            shard_us.len(),
        ));
    }

    // Every exported histogram family: count + bucket-derived p50/p99.
    let histograms: Vec<&String> = exposition
        .types
        .iter()
        .filter(|(_, kind)| kind.as_str() == "histogram")
        .map(|(name, _)| name)
        .collect();
    if !histograms.is_empty() {
        out.push_str("\nhistograms\n");
        for family in histograms {
            let count = exposition.value(&format!("{family}_count")).unwrap_or(0.0);
            out.push_str(&format!(
                "  {family:<44} n={count:<8.0} p50≤{} p99≤{}\n",
                fmt_opt(exposition_quantile(exposition, family, 0.5), ""),
                fmt_opt(exposition_quantile(exposition, family, 0.99), ""),
            ));
        }
    }

    // Top self-time spans (the exposition carries the top five).
    let spans = exposition.samples_named("selfheal_span_self_seconds");
    if !spans.is_empty() {
        out.push_str("\ntop self-time spans\n");
        for sample in spans {
            let stack = sample
                .labels
                .iter()
                .find(|(k, _)| k == "stack")
                .map_or("?", |(_, v)| v.as_str());
            out.push_str(&format!("  {stack:<52} {:>10.3} s\n", sample.value));
        }
    }
    out
}

/// Reads and parses the status file.
fn scrape(path: &Path) -> Result<Exposition, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    parse_exposition(&text)
}

fn usage() -> ! {
    eprintln!(
        "usage: selfheal-top <status-file> [--interval <dur>] [--once] [--check]\n\
         \x20                              [--max-age <dur>]\n\
         \n\
         Tails the Prometheus status file written by any bench binary's\n\
         `--status <path>` flag and renders a live dashboard.\n\
         `--check` validates the exposition and exits (CI smoke);\n\
         with `--max-age <dur>` (e.g. 30s) it also fails when the file's\n\
         mtime is older than the bound — a stale file means the writer\n\
         is dead even though its last exposition still parses."
    );
    std::process::exit(2);
}

fn main() {
    let mut path: Option<PathBuf> = None;
    let mut interval = Duration::from_millis(250);
    let mut once = false;
    let mut check = false;
    let mut max_age: Option<Duration> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--check" => check = true,
            "--interval" => match args.next().as_deref().and_then(parse_interval) {
                Some(parsed) => interval = parsed,
                None => usage(),
            },
            "--max-age" => match args.next().as_deref().and_then(parse_interval) {
                Some(parsed) => max_age = Some(parsed),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };

    if check {
        if let Some(max_age) = max_age {
            match std::fs::metadata(&path).and_then(|meta| meta.modified()) {
                Ok(modified) => {
                    if is_stale(modified, SystemTime::now(), max_age) {
                        eprintln!(
                            "selfheal-top: {} is stale (mtime older than {max_age:?}; \
                             the writer looks dead)",
                            path.display(),
                        );
                        std::process::exit(1);
                    }
                }
                Err(err) => {
                    eprintln!("selfheal-top: cannot stat {}: {err}", path.display());
                    std::process::exit(1);
                }
            }
        }
        match scrape(&path) {
            Ok(exposition) => {
                let Some(ts) = exposition.value("selfheal_sample_ts_ns") else {
                    eprintln!(
                        "selfheal-top: {} parses but lacks selfheal_sample_ts_ns",
                        path.display(),
                    );
                    std::process::exit(1);
                };
                println!(
                    "selfheal-top: {} OK — {} sample(s), {} familie(s), ts={ts:.0}ns",
                    path.display(),
                    exposition.samples.len(),
                    exposition.types.len(),
                );
                return;
            }
            Err(err) => {
                eprintln!("selfheal-top: invalid exposition: {err}");
                std::process::exit(1);
            }
        }
    }

    let mut previous = Scrape::default();
    let mut last_ts = f64::NEG_INFINITY;
    loop {
        match scrape(&path) {
            Ok(exposition) => {
                let now = Scrape::from_exposition(&exposition);
                let stale = now.ts_ns <= last_ts;
                let frame = render_frame(&path, &exposition, &previous, stale);
                if once {
                    print!("{frame}");
                    return;
                }
                // Clear + home, then the frame: a flicker-free redraw.
                print!("\u{1b}[2J\u{1b}[H{frame}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                if !stale {
                    previous = now;
                    last_ts = previous.ts_ns;
                }
            }
            Err(err) => {
                if once {
                    eprintln!("selfheal-top: {err}");
                    std::process::exit(1);
                }
                print!("\u{1b}[2J\u{1b}[Hselfheal-top — waiting: {err}\n");
            }
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_counters() {
        let text = "\
# TYPE selfheal_sample_ts_ns gauge
selfheal_sample_ts_ns 2000000000
# TYPE selfheal_bti_td_kernel_traps_advanced counter
selfheal_bti_td_kernel_traps_advanced 500000
# TYPE selfheal_runtime_pool_steals_total gauge
selfheal_runtime_pool_steals_total 5
# TYPE selfheal_runtime_pool_jobs_executed_total gauge
selfheal_runtime_pool_jobs_executed_total 50
";
        let exposition = parse_exposition(text).expect("valid");
        let s = Scrape::from_exposition(&exposition);
        assert_eq!(s.ts_ns, 2e9);
        assert_eq!(s.traps, 5e5);
        assert_eq!(s.steals, 5.0);
        assert_eq!(s.executed, 50.0);
    }

    #[test]
    fn rates_derive_from_deltas() {
        assert_eq!(rate(100.0, 40.0, 2.0), Some(30.0));
        assert_eq!(rate(100.0, 40.0, 0.0), None, "no time elapsed");
        assert_eq!(rate(40.0, 100.0, 2.0), Some(0.0), "reset clamps to zero");
    }

    #[test]
    fn frame_renders_sections() {
        let text = "\
selfheal_sample_ts_ns 3000000000
selfheal_runtime_pool_queue_depth 7
selfheal_runtime_cache_hits 30
selfheal_runtime_cache_misses 10
selfheal_bti_td_kernel_traps_advanced 1000
selfheal_span_self_seconds{stack=\"fig5;campaign\"} 1.25
";
        let exposition = parse_exposition(text).expect("valid");
        let previous = Scrape {
            ts_ns: 2e9,
            traps: 0.0,
            ..Scrape::default()
        };
        let frame = render_frame(Path::new("x.prom"), &exposition, &previous, false);
        assert!(frame.contains("queue depth 7"), "{frame}");
        assert!(frame.contains("hit rate 75.0%"), "{frame}");
        assert!(frame.contains("traps/s 1000"), "{frame}");
        assert!(frame.contains("fig5;campaign"), "{frame}");
    }

    #[test]
    fn frame_renders_slo_rows_and_shard_heat_line() {
        let text = "\
selfheal_sample_ts_ns 3000000000
selfheal_slo_plan_p99_target_us 500
selfheal_slo_plan_p99_us 9800
selfheal_slo_plan_p99_ok 0
selfheal_slo_plan_p99_burn 2
selfheal_slo_stats_p50_target_us 100
selfheal_slo_stats_p50_us 40
selfheal_slo_stats_p50_ok 1
selfheal_slo_stats_p50_burn 0.1
selfheal_fleet_shard_0_epoch_us 100
selfheal_fleet_shard_1_epoch_us 800
selfheal_fleet_shard_2_epoch_us 400
";
        let exposition = parse_exposition(text).expect("valid");
        let frame = render_frame(Path::new("x.prom"), &exposition, &Scrape::default(), false);
        assert!(frame.contains("plan p99"), "{frame}");
        assert!(frame.contains("VIOLATED"), "{frame}");
        assert!(frame.contains("stats p50"), "{frame}");
        assert!(frame.contains("2.0x"), "{frame}");
        // 100/800/400 of peak 800 → rounded ramp levels 1, 7, 4.
        assert!(frame.contains("▂█▅"), "{frame}");
        assert!(frame.contains("over 3 shard(s)"), "{frame}");
    }

    #[test]
    fn staleness_is_mtime_versus_now() {
        let now = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000);
        let bound = Duration::from_secs(30);
        let written = |secs_ago: u64| now - Duration::from_secs(secs_ago);
        assert!(is_stale(written(31), now, bound));
        assert!(!is_stale(written(30), now, bound), "bound is inclusive");
        assert!(!is_stale(written(0), now, bound));
        // An mtime *after* now is clock skew, never staleness.
        assert!(!is_stale(now + Duration::from_secs(60), now, bound));
        // A zero bound fails anything but a same-instant write.
        assert!(is_stale(written(1), now, Duration::ZERO));
        assert!(!is_stale(written(0), now, Duration::ZERO));
    }

    #[test]
    fn exposition_quantiles_walk_cumulative_buckets() {
        let text = "\
# TYPE selfheal_x histogram
selfheal_x_bucket{le=\"1\"} 5
selfheal_x_bucket{le=\"2\"} 9
selfheal_x_bucket{le=\"+Inf\"} 10
selfheal_x_sum 12
selfheal_x_count 10
";
        let exposition = parse_exposition(text).expect("valid");
        assert_eq!(
            exposition_quantile(&exposition, "selfheal_x", 0.5),
            Some(1.0)
        );
        assert_eq!(
            exposition_quantile(&exposition, "selfheal_x", 0.9),
            Some(2.0)
        );
        // Rank lands past the last finite bucket: no finite bound.
        assert_eq!(exposition_quantile(&exposition, "selfheal_x", 1.0), None);
    }
}
