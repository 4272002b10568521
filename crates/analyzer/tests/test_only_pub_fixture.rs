//! `test-only-pub` end to end: a mini workspace whose library has one
//! public function of each kind the lint must tell apart, checked down
//! to the exact findings.

use std::path::{Path, PathBuf};

use selfheal_analyzer::{analyze_workspace, Lint};

/// The mini crate's library. Line numbers in the expectations index
/// into this literal.
const LIB: &str = "\
pub use engine::{only_reexported, reexported};
mod engine {
    pub fn reexported() -> u32 { 1 }
    pub fn only_reexported() -> u32 { 2 }
}
pub fn test_only() -> u32 { 3 }
pub fn as_value(x: u32) -> u32 { x * 2 }
pub fn doubled() -> Vec<u32> { [1, 2].into_iter().map(as_value).collect() }
pub struct Meter;
impl std::fmt::Display for Meter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, \"m\") }
}
/// Named only here: [`doc_only`].
pub fn doc_only() {}
pub(crate) fn crate_only() {}
// analyzer: allow(test-only-pub) -- the fixture's own oracle
pub fn allowed_oracle() {}
#[cfg(test)]
mod tests {
    pub fn test_helper() { super::test_only(); super::allowed_oracle(); }
}
";

/// A bin that calls the re-exported fn and the fn that takes `as_value`
/// as a value.
const BIN: &str = "\
fn main() {
    println!(\"{} {:?} {}\", mini::reexported(), mini::doubled(), mini::Meter);
}
";

/// An integration test: its calls are not uses.
const TEST: &str = "\
#[test]
fn calls() {
    assert_eq!(mini::test_only(), 3);
    assert_eq!(mini::only_reexported(), 2);
    mini::doc_only();
}
";

/// Materializes the mini workspace under a scratch dir named by `tag`
/// and returns its root.
fn mini_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "selfheal-analyzer-test-only-pub-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    for (path, text) in [
        ("Cargo.toml", "[workspace]\nmembers = [\"crates/mini\"]\n"),
        ("crates/mini/Cargo.toml", "[package]\nname = \"mini\"\n"),
        ("crates/mini/src/lib.rs", LIB),
        ("crates/mini/src/bin/tool.rs", BIN),
        ("crates/mini/tests/calls.rs", TEST),
    ] {
        let file = root.join(path);
        std::fs::create_dir_all(file.parent().expect("has a parent")).expect("test value");
        std::fs::write(file, text).expect("test value");
    }
    root
}

#[test]
fn flags_exactly_the_test_only_pub_fns() {
    let root = mini_workspace("lib");
    let (findings, _) = analyze_workspace(&root).expect("analyzable workspace");
    let flagged: Vec<(&Path, u32, &str)> = findings
        .iter()
        .filter(|f| f.lint == Lint::TestOnlyPub)
        .map(|f| (f.file.as_path(), f.line, f.snippet.as_str()))
        .collect();
    let lib = Path::new("crates/mini/src/lib.rs");
    // Flagged: the fn only tests call, the fn only a `pub use` names and
    // the fn only a doc comment names. Not flagged: the re-exported fn
    // a bin calls, the fn passed as a value to `.map`, the trait-impl
    // method, the `pub(crate)` fn, the allowed fn and the test helper.
    assert_eq!(
        flagged,
        vec![
            (lib, 4, "pub fn only_reexported"),
            (lib, 6, "pub fn test_only"),
            (lib, 14, "pub fn doc_only"),
        ],
        "findings: {findings:#?}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_consumer_outside_the_workspace_counts_as_a_use() {
    let root = mini_workspace("consumer");
    // `fleetbench/` builds against the workspace's crates by path; its
    // sources are read for names, never linted.
    let consumer = root.join("fleetbench/src");
    std::fs::create_dir_all(&consumer).expect("test value");
    std::fs::write(
        consumer.join("main.rs"),
        "fn main() { mini::test_only(); }\n",
    )
    .expect("test value");
    let (findings, _) = analyze_workspace(&root).expect("analyzable workspace");
    let flagged: Vec<&str> = findings
        .iter()
        .filter(|f| f.lint == Lint::TestOnlyPub)
        .map(|f| f.snippet.as_str())
        .collect();
    assert_eq!(flagged, vec!["pub fn only_reexported", "pub fn doc_only"]);
    std::fs::remove_dir_all(&root).ok();
}
