//! Workspace discovery: which `.rs` files to analyze, with what
//! [`FileContext`].
//!
//! Coverage is deliberate, not exhaustive:
//!
//! * `crates/*/src/**` and the root `src/**` — library code;
//! * `crates/*/examples/**` and root `examples/**` — shipped examples
//!   (held to the NaN and physical-range lints, not the lib-only ones);
//! * `tests/` and `benches/` targets are **skipped** — every lint either
//!   exempts test code or applies only to library code;
//! * `vendor/` (in-tree `rand`/`proptest` replacements) and `target/` are skipped.
//!
//! [`consumers`] lists the sources of the packages outside the
//! workspace that build against its crates by path; they are read
//! only for the names they use, never linted.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lints::FileContext;

/// One file scheduled for analysis.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path used in reports.
    pub rel: PathBuf,
    /// Lint-applicability context.
    pub ctx: FileContext,
}

/// Discovers all analyzable files under the workspace `root`, sorted by
/// relative path.
pub fn discover(root: &Path) -> io::Result<Vec<WorkItem>> {
    let mut items = Vec::new();

    // Root package.
    let root_name = package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "root".to_string());
    push_tree(
        &mut items,
        root,
        &root.join("src"),
        &FileContext::lib(&root_name),
    )?;
    push_tree(
        &mut items,
        root,
        &root.join("examples"),
        &FileContext::example(&root_name),
    )?;

    // Member crates.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let Some(name) = package_name(&dir.join("Cargo.toml")) else {
                continue;
            };
            push_tree(&mut items, root, &dir.join("src"), &FileContext::lib(&name))?;
            push_tree(
                &mut items,
                root,
                &dir.join("examples"),
                &FileContext::example(&name),
            )?;
        }
    }

    items.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(items)
}

/// Packages outside the workspace that build against its crates by
/// path: `fleetbench`, the repository benchmark.
const CONSUMERS: [&str; 1] = ["fleetbench"];

/// The `src/` files of every consumer package (`fleetbench`) present
/// under `root`, sorted by relative path.
pub fn consumers(root: &Path) -> io::Result<Vec<WorkItem>> {
    let mut items = Vec::new();
    for name in CONSUMERS {
        let ctx = FileContext::example(name);
        push_tree(&mut items, root, &root.join(name).join("src"), &ctx)?;
    }
    items.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(items)
}

/// Recursively collects `.rs` files under `dir` (if it exists).
fn push_tree(
    items: &mut Vec<WorkItem>,
    root: &Path,
    dir: &Path,
    ctx: &FileContext,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            push_tree(items, root, &path, ctx)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            items.push(WorkItem {
                abs: path,
                rel,
                ctx: ctx.clone(),
            });
        }
    }
    Ok(())
}

/// Extracts `name = "..."` from a Cargo.toml's `[package]` section.
///
/// A real TOML parser is unavailable offline; this handles the layout
/// cargo itself writes (section headers on their own line, `name` as a
/// plain string key).
#[must_use]
pub fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Walks upward from `start` to the first directory whose Cargo.toml
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_reads_package_section_only() {
        let dir = std::env::temp_dir().join("selfheal-analyzer-test-manifest");
        fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("Cargo.toml");
        fs::write(
            &manifest,
            "[package]\nname = \"demo-crate\"\n\n[[bin]]\nname = \"other\"\n",
        )
        .unwrap();
        assert_eq!(package_name(&manifest), Some("demo-crate".to_string()));
        fs::remove_file(&manifest).ok();
    }

    #[test]
    fn discover_finds_this_workspace() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let items = discover(&root).unwrap();
        // The analyzer's own lib.rs must be among the discovered files.
        assert!(items
            .iter()
            .any(|i| i.rel.ends_with("crates/analyzer/src/lib.rs")));
        // Vendored crates and test targets must not be.
        assert!(!items.iter().any(|i| i.rel.starts_with("vendor")));
        assert!(!items.iter().any(|i| i.rel.starts_with("tests")));
    }
}
