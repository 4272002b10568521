//! CLI for the selfheal-analyzer static-analysis gate.
//!
//! ```text
//! selfheal-analyzer check [--json] [--root <dir>]
//! selfheal-analyzer graph [--root <dir>]
//! selfheal-analyzer lints
//! ```
//!
//! Exit codes: 0 = no findings, 1 = findings, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use selfheal_analyzer::{analyze_workspace, findings, purity, walk, ALL_LINTS};

const USAGE: &str = "\
selfheal-analyzer — domain-aware static analysis for the self-healing workspace

USAGE:
    selfheal-analyzer check [--json] [--root <dir>]
    selfheal-analyzer graph [--root <dir>]
    selfheal-analyzer lints
    selfheal-analyzer --version

OPTIONS:
    --json               emit a machine-readable JSON report
    --root <dir>         workspace root (default: walk up from cwd)

`check` prints every finding and fails if there is any.
`graph` dumps the workspace call graph with per-function purity labels
(deterministic / seeded-rng / env-tainted / clock-tainted / io-tainted)
as JSON on stdout.
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "check" | "graph" => {
            let mut json = false;
            let mut root = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--json" if command == "check" => json = true,
                    "--root" => match args.next() {
                        Some(path) => root = Some(PathBuf::from(path)),
                        None => return usage_error("--root needs a directory argument"),
                    },
                    other => return usage_error(&format!("unknown option `{other}`")),
                }
            }
            let root = match resolve_root(root) {
                Ok(root) => root,
                Err(code) => return code,
            };
            let (all, flow) = match analyze_workspace(&root) {
                Ok(result) => result,
                Err(err) => {
                    eprintln!("error: failed to analyze workspace: {err}");
                    return ExitCode::from(2);
                }
            };
            if command == "graph" {
                println!("{}", purity::graph_json(&flow).render_pretty());
                return ExitCode::SUCCESS;
            }
            if json {
                println!("{}", findings::report_json(&all).render_pretty());
            } else {
                report_text(&all);
            }
            if all.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "lints" => {
            for lint in ALL_LINTS {
                println!(
                    "{:<28} {:<8} {}",
                    lint.id(),
                    lint.severity().to_string(),
                    lint.describe()
                );
            }
            ExitCode::SUCCESS
        }
        "--version" | "-V" => {
            println!("selfheal-analyzer {}", selfheal_analyzer::version());
            ExitCode::SUCCESS
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => usage_error(&format!("unknown command `{other}`")),
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// The `--root` directory, else the workspace root above the cwd.
fn resolve_root(root: Option<PathBuf>) -> Result<PathBuf, ExitCode> {
    match root {
        Some(root) => Ok(root),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            walk::find_workspace_root(&cwd).ok_or_else(|| {
                eprintln!("error: no workspace root found above {}", cwd.display());
                ExitCode::from(2)
            })
        }
    }
}

fn report_text(all: &[selfheal_analyzer::Finding]) {
    for f in all {
        println!("{}", f.render_text());
    }
    if !all.is_empty() {
        println!();
    }
    println!("analyzer: {} findings", all.len());
    if all.is_empty() {
        println!("analyzer: gate clean");
    } else {
        println!(
            "analyzer: gate FAILED — fix the findings, or allow/trust a site with a justification"
        );
    }
}
