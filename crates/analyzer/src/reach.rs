//! `test-only-pub`: library `pub fn`s that no non-test code names.
//!
//! A workspace pass over the token streams the other lints already
//! read. It matches names, not call-graph edges: the graph cannot see a
//! function passed as a value (`.map(stress_to_json)`) or reached
//! through trait dispatch, so counting its edges flags functions that
//! are in use. With names, two functions sharing one can only hide a
//! finding, never invent one. `pub(crate)` items are left to rustc's
//! `dead_code`, and trait methods carry no `pub`, so a trait impl's
//! methods are never candidates.
//!
//! A use is any identifier in non-test code — library sources, bins,
//! examples, and the read-only consumers `walk::consumers` lists —
//! except a fn's own name at its definition and the path of a `pub use`
//! re-export. Tests, `benches/`, fixtures and doc comments are never
//! lexed as code here, so they name nothing.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::findings::{Finding, Lint};
use crate::lexer::TokenKind;
use crate::lints::{allowed, FileContext};
use crate::sig::ParsedFile;

/// What one file contributes to the pass.
#[derive(Debug)]
pub(crate) struct FileNames {
    file: PathBuf,
    /// Identifiers this file names in non-test code.
    uses: BTreeSet<String>,
    /// `(name, line)` of each unrestricted, non-test `pub fn` of library
    /// code that carries no `allow(test-only-pub)`.
    candidates: Vec<(String, u32)>,
}

/// Collects the uses and candidates of one parsed file.
pub(crate) fn scan(rel: &Path, parsed: &ParsedFile, ctx: &FileContext) -> FileNames {
    let tokens = &parsed.lexed.tokens;
    let mut uses = BTreeSet::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if parsed.test_mask[i] || t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        if t.text == "use" && i > 0 && is_visibility_end(parsed, i - 1) {
            // A `pub use` re-export names nothing: skip to its `;`.
            while i < tokens.len() && !tokens[i].is_punct(';') {
                i += 1;
            }
            continue;
        }
        if t.text == "fn" {
            i += 2; // the definition's own name is not a use
            continue;
        }
        uses.insert(t.text.clone());
        i += 1;
    }
    let candidates = parsed
        .fns
        .iter()
        .filter(|f| ctx.is_lib && f.is_pub && !f.pub_restricted && !f.in_test_region)
        .filter(|f| !allowed(&parsed.lexed.allows, f.line, Lint::TestOnlyPub))
        .map(|f| (f.name.clone(), f.line))
        .collect();
    FileNames {
        file: rel.to_path_buf(),
        uses,
        candidates,
    }
}

/// True when the token at `k` ends a visibility (`pub` or `pub(..)`).
fn is_visibility_end(parsed: &ParsedFile, k: usize) -> bool {
    let tokens = &parsed.lexed.tokens;
    if tokens[k].is_ident("pub") {
        return true;
    }
    tokens[k].is_punct(')')
        && (0..k)
            .rev()
            .find(|&m| tokens[m].is_punct('('))
            .is_some_and(|open| open > 0 && tokens[open - 1].is_ident("pub"))
}

/// Every candidate whose name no file uses.
pub(crate) fn test_only_pub(files: &[FileNames]) -> Vec<Finding> {
    let used: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| f.uses.iter().map(String::as_str))
        .collect();
    let mut out = Vec::new();
    for file in files {
        for (name, line) in &file.candidates {
            if used.contains(name.as_str()) {
                continue;
            }
            out.push(Finding {
                lint: Lint::TestOnlyPub,
                file: file.file.clone(),
                line: *line,
                message: format!(
                    "`pub fn {name}` is named nowhere outside tests; delete it, or allow it \
                     with the reason tests need it"
                ),
                snippet: format!("pub fn {name}"),
                call_path: Vec::new(),
            });
        }
    }
    out
}
