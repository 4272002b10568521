//! Every committed `bench_history/*.jsonl` ledger must parse and hold at
//! least one entry, so a corrupt or emptied history fails `cargo test`
//! instead of the next `perf_ledger` run.

use std::path::Path;

use selfheal_bench::ledger;

#[test]
fn committed_histories_parse() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_history");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|err| panic!("{}: {err}", dir.display()))
        .map(|entry| entry.expect("read_dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .map(|path| {
            path.file_stem()
                .and_then(|stem| stem.to_str())
                .expect("UTF-8 history name")
                .to_string()
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no histories under {}", dir.display());
    for name in &names {
        let entries = ledger::load(&dir, name).unwrap_or_else(|err| panic!("{name}: {err}"));
        assert!(!entries.is_empty(), "{name}.jsonl holds no entry");
        assert!(
            entries.iter().all(|entry| entry.name == *name),
            "{name}.jsonl"
        );
    }
}
