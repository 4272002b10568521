//! The eight per-file domain lints, implemented over the token stream
//! (`tainted-root` and `lock-order` are workspace-wide: see
//! [`crate::purity`]).

use std::path::Path;

use crate::findings::{Finding, Lint};
use crate::lexer::{literal_value, Allow, Token, TokenKind};
use crate::sig::{parse_pub_struct_fields, FnItem, ParsedFile, SelfKind, StructField};

/// Where a file sits in the workspace; drives lint applicability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileContext {
    /// Package name of the owning crate (`selfheal-bti`, `selfheal`, ...).
    pub crate_name: String,
    /// True for files under a crate's `src/` (library code).
    pub is_lib: bool,
    /// True for files under `tests/` or `benches/` (test-only targets).
    pub is_test_target: bool,
}

impl FileContext {
    /// Context for library code of the named crate.
    #[must_use]
    pub fn lib(crate_name: &str) -> Self {
        FileContext {
            crate_name: crate_name.to_string(),
            is_lib: true,
            is_test_target: false,
        }
    }

    /// Context for an example binary of the named crate.
    #[must_use]
    pub fn example(crate_name: &str) -> Self {
        FileContext {
            crate_name: crate_name.to_string(),
            is_lib: false,
            is_test_target: false,
        }
    }

    /// Context for an integration-test or bench target.
    #[must_use]
    // analyzer: allow(test-only-pub) -- the lint fixtures check that test targets are exempt
    pub fn test_target(crate_name: &str) -> Self {
        FileContext {
            crate_name: crate_name.to_string(),
            is_lib: false,
            is_test_target: true,
        }
    }
}

/// Crates whose library code is held to the no-unwrap rule.
const UNWRAP_GATED_CRATES: [&str; 5] = [
    "selfheal-bti",
    "selfheal-fpga",
    "selfheal",
    "selfheal-multicore",
    "selfheal-fleet",
];

/// Crates allowed to spawn OS threads directly: the execution runtime
/// (which owns the worker pool), the telemetry layer (whose sinks are
/// thread-aware by design), and the fleet service (whose blocking
/// worker-accept loop *is* its transport — fleet state still advances
/// on the pool). Everyone else goes through the pool, which preserves
/// determinism and keeps spans/metrics flowing.
const THREAD_SPAWN_EXEMPT_CRATES: [&str; 3] =
    ["selfheal-runtime", "selfheal-telemetry", "selfheal-fleet"];

/// The selfheal-units newtypes (plus `Self` constructors excluded).
const UNIT_TYPES: [&str; 17] = [
    "Volts",
    "Millivolts",
    "PerVolt",
    "PerSecond",
    "ElectronVolts",
    "Celsius",
    "Kelvin",
    "Seconds",
    "Hours",
    "Minutes",
    "Nanoseconds",
    "Hertz",
    "Megahertz",
    "Fraction",
    "Percent",
    "Ratio",
    "DutyCycle",
];

/// Substrings of parameter/function names that imply a physical unit,
/// with the newtype the API should use instead.
const PHYSICAL_NAME_HINTS: [(&str, &str); 11] = [
    ("vdd", "Volts"),
    ("volt", "Volts or Millivolts"),
    ("celsius", "Celsius"),
    ("kelvin", "Kelvin"),
    ("temp", "Celsius"),
    ("sec", "Seconds"),
    ("hour", "Hours"),
    ("freq", "Hertz or Megahertz"),
    ("alpha", "DutyCycle or Fraction"),
    ("margin", "Millivolts"),
    ("_mv", "Millivolts"),
];

/// Runs every applicable lint over one parsed file.
#[must_use]
pub fn run_all(path: &Path, parsed: &ParsedFile, ctx: &FileContext) -> Vec<Finding> {
    let lexed = &parsed.lexed;
    let tokens = &lexed.tokens;
    let mask = &parsed.test_mask;
    let mut findings = Vec::new();

    let non_test_code = !ctx.is_test_target;
    if non_test_code {
        findings.extend(nan_unsafe_ordering(path, tokens, mask));
        findings.extend(suspicious_physical_literal(path, tokens, mask));
        findings.extend(unseeded_rng(path, tokens, mask));
        if !THREAD_SPAWN_EXEMPT_CRATES.contains(&ctx.crate_name.as_str()) {
            findings.extend(raw_thread_spawn(path, tokens, mask));
        }
    }
    if ctx.is_lib {
        findings.extend(nondeterministic_iteration(path, tokens, mask));
        // The signature lints police API surface: non-test `pub fn`s.
        let api: Vec<&FnItem> = parsed
            .fns
            .iter()
            .filter(|f| f.is_pub && !f.in_test_region)
            .collect();
        if ctx.crate_name != "selfheal-units" {
            findings.extend(bare_physical_f64(path, &api));
            let fields = parse_pub_struct_fields(tokens, mask);
            findings.extend(bare_physical_f64_fields(path, &fields));
        }
        findings.extend(missing_must_use(path, &api));
        if UNWRAP_GATED_CRATES.contains(&ctx.crate_name.as_str()) {
            findings.extend(unwrap_in_lib(path, tokens, mask));
        }
    }

    findings.retain(|f| !allowed(&lexed.allows, f.line, f.lint));
    findings.sort_by_key(|f| (f.line, f.lint));
    findings
}

/// Whether an `// analyzer: allow(...)` comment silences `lint` at
/// `line`: a comment covers its own line and the next one.
pub(crate) fn allowed(allows: &[Allow], line: u32, lint: Lint) -> bool {
    allows
        .iter()
        .any(|a| (a.line == line || a.line + 1 == line) && a.lints.iter().any(|l| l == lint.id()))
}

/// Matches the hint table against a `snake_case` name.
fn physical_hint(name: &str) -> Option<(&'static str, &'static str)> {
    let lower = name.to_ascii_lowercase();
    PHYSICAL_NAME_HINTS
        .into_iter()
        .find(|(needle, _)| lower.contains(needle))
}

/// Lint: `pub fn` parameters/returns passing physical quantities as
/// bare `f64`.
fn bare_physical_f64(path: &Path, sigs: &[&FnItem]) -> Vec<Finding> {
    let mut out = Vec::new();
    for sig in sigs {
        for param in &sig.params {
            if param.ty != "f64" {
                continue;
            }
            if let Some((needle, suggestion)) = physical_hint(&param.name) {
                out.push(Finding {
                    lint: Lint::BarePhysicalF64,
                    file: path.to_path_buf(),
                    line: param.line,
                    message: format!(
                        "parameter `{}: f64` of `pub fn {}` names a physical quantity (`{}`); take {} instead",
                        param.name, sig.name, needle, suggestion
                    ),
                    snippet: format!("{}: f64", param.name),
                    call_path: Vec::new(),
                });
            }
        }
        if sig.ret == ["f64"] {
            if let Some((needle, suggestion)) = physical_hint(&sig.name) {
                out.push(Finding {
                    lint: Lint::BarePhysicalF64,
                    file: path.to_path_buf(),
                    line: sig.line,
                    message: format!(
                        "`pub fn {}` returns a physical quantity (`{}`) as bare f64; return {} instead",
                        sig.name, needle, suggestion
                    ),
                    snippet: format!("fn {} -> f64", sig.name),
                    call_path: Vec::new(),
                });
            }
        }
    }
    out
}

/// Lint: `pub struct` fields storing physical quantities as bare `f64`
/// (or homogeneous `f64` containers).
fn bare_physical_f64_fields(path: &Path, fields: &[StructField]) -> Vec<Finding> {
    let mut out = Vec::new();
    for field in fields.iter().filter(|f| !f.in_test_region) {
        let container = match field.ty.as_str() {
            "f64" => "f64",
            "Vec < f64 >" => "Vec<f64>",
            "Option < f64 >" => "Option<f64>",
            _ => continue,
        };
        if let Some((needle, suggestion)) = physical_hint(&field.name) {
            out.push(Finding {
                lint: Lint::BarePhysicalF64,
                file: path.to_path_buf(),
                line: field.line,
                message: format!(
                    "field `{}: {container}` of `pub struct {}` names a physical quantity (`{}`); store {} instead",
                    field.name, field.struct_name, needle, suggestion
                ),
                snippet: format!("{}: {container}", field.name),
                call_path: Vec::new(),
            });
        }
    }
    out
}

/// Lint: NaN-unsafe float orderings.
fn nan_unsafe_ordering(path: &Path, tokens: &[Token], mask: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        // `.partial_cmp(` — NaN-partial comparison.
        if t.is_ident("partial_cmp")
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let after = skip_call(tokens, i + 1);
            let (message, followup) = match followup_method(tokens, after) {
                Some(m @ ("unwrap" | "expect")) => (
                    format!(
                        "partial_cmp().{m}() panics when either operand is NaN; use f64::total_cmp",
                    ),
                    format!(".partial_cmp().{m}()"),
                ),
                Some(m @ ("unwrap_or" | "unwrap_or_else")) => (
                    format!(
                        "partial_cmp().{m}(..) silently misorders NaN operands; use f64::total_cmp or reject NaN first",
                    ),
                    format!(".partial_cmp().{m}(..)"),
                ),
                _ => (
                    "partial_cmp yields None for NaN operands; use f64::total_cmp or reject NaN first"
                        .to_string(),
                    ".partial_cmp()".to_string(),
                ),
            };
            out.push(Finding {
                lint: Lint::NanUnsafeOrdering,
                file: path.to_path_buf(),
                line: t.line,
                message,
                snippet: followup,
                call_path: Vec::new(),
            });
        }
        // Bare `f64::max` / `f64::min` function references (fold/reduce
        // keys). A direct call `f64::max(a, b)` is fine — NaN handling
        // is the caller's explicit choice there — but as a reduction
        // key it silently absorbs NaN.
        if (t.is_ident("f64") || t.is_ident("f32"))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|n| n.is_ident("max") || n.is_ident("min"))
            && !tokens.get(i + 4).is_some_and(|n| n.is_punct('('))
        {
            let which = &tokens[i + 3].text;
            out.push(Finding {
                lint: Lint::NanUnsafeOrdering,
                file: path.to_path_buf(),
                line: t.line,
                message: format!(
                    "`{}::{which}` as a reduction key silently discards NaN; use selfheal_units::float::{which}_total or handle NaN explicitly",
                    t.text,
                ),
                snippet: format!("{}::{which}", t.text),
                call_path: Vec::new(),
            });
        }
    }
    out
}

/// Returns the index just past the `( ... )` group opening at `open`.
fn skip_call(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('(') {
            depth += 1;
        } else if tokens[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// If the tokens at `i` are `.method(`, returns the method name.
fn followup_method(tokens: &[Token], i: usize) -> Option<&str> {
    if tokens.get(i).is_some_and(|t| t.is_punct('.'))
        && tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::Ident)
        && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
    {
        Some(&tokens[i + 1].text)
    } else {
        None
    }
}

/// Lint: `.unwrap()` / `.expect()` in non-test library code.
fn unwrap_in_lib(path: &Path, tokens: &[Token], mask: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let is_unwrap = t.is_ident("unwrap");
        let is_expect = t.is_ident("expect");
        if (is_unwrap || is_expect)
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            // `partial_cmp(..).unwrap()` is nan-unsafe-ordering's case,
            // reported there with a sharper message; skip it here.
            if receiver_is_partial_cmp(tokens, i - 1) {
                continue;
            }
            let method = &t.text;
            out.push(Finding {
                lint: Lint::UnwrapInLib,
                file: path.to_path_buf(),
                line: t.line,
                message: format!(
                    ".{method}() in library code turns data bugs into panics; return Result/Option, pattern-match, or document the invariant with an explicit panic!",
                ),
                snippet: format!(".{method}()"),
                call_path: Vec::new(),
            });
        }
    }
    out
}

/// True when the expression ending just before the `.` at `dot` is a
/// `partial_cmp(...)` call.
fn receiver_is_partial_cmp(tokens: &[Token], dot: usize) -> bool {
    if dot == 0 || !tokens[dot - 1].is_punct(')') {
        return false;
    }
    // Walk back to the matching `(`.
    let mut depth = 0i32;
    let mut k = dot - 1;
    loop {
        if tokens[k].is_punct(')') {
            depth += 1;
        } else if tokens[k].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if k == 0 {
            return false;
        }
        k -= 1;
    }
    k > 0 && tokens[k - 1].is_ident("partial_cmp")
}

/// Lint: `std::thread::spawn` (or `thread::spawn`) outside the crates
/// that own threading. Raw threads bypass the deterministic pool's
/// seed-splitting and job ordering, and their root spans never reach a
/// manifest's phase list, so parallel work must go through
/// `selfheal-runtime`.
fn raw_thread_spawn(path: &Path, tokens: &[Token], mask: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if t.is_ident("thread")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|n| n.is_ident("spawn"))
        {
            out.push(Finding {
                lint: Lint::RawThreadSpawn,
                file: path.to_path_buf(),
                line: t.line,
                message: "std::thread::spawn bypasses the deterministic work-stealing pool (seed splitting, span draining, panic isolation); use selfheal_runtime::par_map or Pool".to_string(),
                snippet: "thread::spawn".to_string(),
                call_path: Vec::new(),
            });
        }
    }
    out
}

/// Plausible silicon operating ranges for literal constructor args.
const LITERAL_RANGES: [(&str, f64, f64, &str); 2] =
    [("Volts", -0.5, 1.5, "V"), ("Celsius", -55.0, 150.0, "°C")];

/// Lint: `Volts::new(<lit>)` / `Celsius::new(<lit>)` outside plausible
/// physical ranges, in non-test code.
fn suspicious_physical_literal(path: &Path, tokens: &[Token], mask: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some((unit, lo, hi, sym)) = LITERAL_RANGES
            .into_iter()
            .find(|(name, ..)| t.is_ident(name))
        else {
            continue;
        };
        // Match `Unit :: new ( [-] <number> )` exactly: only literal
        // arguments are checkable without type inference.
        if !(tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|n| n.is_ident("new"))
            && tokens.get(i + 4).is_some_and(|n| n.is_punct('(')))
        {
            continue;
        }
        let mut j = i + 5;
        let mut neg = false;
        if tokens.get(j).is_some_and(|n| n.is_punct('-')) {
            neg = true;
            j += 1;
        }
        let Some(num) = tokens.get(j).filter(|n| n.kind == TokenKind::Number) else {
            continue;
        };
        if !tokens.get(j + 1).is_some_and(|n| n.is_punct(')')) {
            continue;
        }
        let Some(mut value) = literal_value(&num.text) else {
            continue;
        };
        if neg {
            value = -value;
        }
        if value < lo || value > hi {
            out.push(Finding {
                lint: Lint::SuspiciousPhysicalLiteral,
                file: path.to_path_buf(),
                line: t.line,
                message: format!(
                    "{unit}::new({value}) lies outside the plausible silicon range [{lo}, {hi}] {sym}; check units and intent",
                ),
                snippet: format!("{unit}::new({value})"),
                call_path: Vec::new(),
            });
        }
    }
    out
}

/// RNG constructors that seed from the environment instead of a
/// `SeedSequence` stream — each silently breaks reproducibility.
const UNSEEDED_RNG_CONSTRUCTORS: [&str; 3] = ["thread_rng", "from_entropy", "OsRng"];

/// The unseeded-RNG construct at token `i`, if there is one:
/// `thread_rng`, `from_entropy`, `OsRng` or `rand::random`. Shared by
/// the `unseeded-rng` lint and the dataflow pass's rng sink.
pub(crate) fn unseeded_rng_at(tokens: &[Token], i: usize) -> Option<&'static str> {
    let t = &tokens[i];
    if let Some(ctor) = UNSEEDED_RNG_CONSTRUCTORS
        .into_iter()
        .find(|c| t.is_ident(c))
    {
        return Some(ctor);
    }
    (t.is_ident("random")
        && i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident("rand"))
    .then_some("rand::random")
}

/// Lint: RNG construction not derived from a `SeedSequence`.
///
/// Flags `thread_rng()`, `SeedableRng::from_entropy`, `OsRng` and
/// `rand::random` in non-test code. Seeded construction
/// (`SeedSequence::rng`, `seed_from_u64`) is the sanctioned path.
fn unseeded_rng(path: &Path, tokens: &[Token], mask: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if let Some(snippet) = unseeded_rng_at(tokens, i) {
            out.push(Finding {
                lint: Lint::UnseededRng,
                file: path.to_path_buf(),
                line: t.line,
                message: format!(
                    "`{snippet}` draws entropy outside the SeedSequence contract; derive a per-item StdRng from SeedSequence::rng instead",
                ),
                snippet: snippet.to_string(),
                call_path: Vec::new(),
            });
        }
    }
    out
}

/// Methods whose visit order leaks hash-table layout into results.
const HASH_ORDER_METHODS: [&str; 6] = ["iter", "keys", "values", "into_iter", "drain", "retain"];

/// Lint: iteration over `HashMap`/`HashSet` bindings (any order-exposed
/// method or a `for` loop), plus `BTreeSet::retain` (order-dependent
/// mutation during the sweep), in library code.
fn nondeterministic_iteration(path: &Path, tokens: &[Token], mask: &[bool]) -> Vec<Finding> {
    // Pass 1: collect idents bound or typed as hash collections
    // (`x: HashMap<..>`, `let [mut] x = HashMap::new()`), and the same
    // for BTreeSet (whose only flagged method is `retain`).
    let mut hash_bound = Vec::new();
    let mut btree_set_bound = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let is_hash = t.is_ident("HashMap") || t.is_ident("HashSet");
        let is_btree_set = t.is_ident("BTreeSet");
        if !(is_hash || is_btree_set) {
            continue;
        }
        // Walk back over `&`, `mut` and lifetimes so `x: &mut HashMap`
        // still reaches the `:`.
        let mut k = i;
        while k > 0
            && (tokens[k - 1].is_punct('&')
                || tokens[k - 1].is_ident("mut")
                || tokens[k - 1].kind == TokenKind::Lifetime)
        {
            k -= 1;
        }
        let bound = if k >= 2 && tokens[k - 1].is_punct(':') && !tokens[k - 2].is_punct(':') {
            // `name : [&mut] HashMap` type ascription (param, field, let).
            (tokens[k - 2].kind == TokenKind::Ident).then(|| tokens[k - 2].text.clone())
        } else if k >= 2 && tokens[k - 1].is_punct('=') {
            // `let [mut] name = HashMap::...`.
            (tokens[k - 2].kind == TokenKind::Ident).then(|| tokens[k - 2].text.clone())
        } else {
            None
        };
        if let Some(name) = bound {
            if is_hash {
                hash_bound.push(name);
            } else {
                btree_set_bound.push(name);
            }
        }
    }
    if hash_bound.is_empty() && btree_set_bound.is_empty() {
        return Vec::new();
    }

    // Pass 2: flag order-exposing uses of those bindings.
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask.get(i).copied().unwrap_or(false) || t.kind != TokenKind::Ident {
            continue;
        }
        let is_hash = hash_bound.iter().any(|n| n == &t.text);
        let is_bset = btree_set_bound.iter().any(|n| n == &t.text);
        if !(is_hash || is_bset) {
            continue;
        }
        // `name . method (` where method exposes order.
        if tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            let method = &tokens[i + 2];
            let order_exposed = if is_hash {
                HASH_ORDER_METHODS.iter().any(|m| method.is_ident(m))
            } else {
                method.is_ident("retain")
            };
            if order_exposed {
                out.push(Finding {
                    lint: Lint::NondeterministicIteration,
                    file: path.to_path_buf(),
                    line: t.line,
                    message: if is_hash {
                        format!(
                            "`{}.{}()` visits hash-table order, which varies per process; use BTreeMap/BTreeSet or collect-and-sort first",
                            t.text, method.text,
                        )
                    } else {
                        format!(
                            "`{}.retain()` mutates the set during an order-dependent sweep; filter into a fresh BTreeSet instead",
                            t.text,
                        )
                    },
                    snippet: format!("{}.{}()", t.text, method.text),
                    call_path: Vec::new(),
                });
            }
            continue;
        }
        // `for x in [&[mut]] name` — direct iteration.
        if is_hash {
            let mut k = i;
            // Walk back over `&` / `mut`.
            while k > 0 && (tokens[k - 1].is_punct('&') || tokens[k - 1].is_ident("mut")) {
                k -= 1;
            }
            if k > 0 && tokens[k - 1].is_ident("in") && k > 1 && tokens_contain_for(tokens, k - 1) {
                out.push(Finding {
                    lint: Lint::NondeterministicIteration,
                    file: path.to_path_buf(),
                    line: t.line,
                    message: format!(
                        "`for .. in {}` visits hash-table order, which varies per process; use BTreeMap/BTreeSet or collect-and-sort first",
                        t.text,
                    ),
                    snippet: format!("for .. in {}", t.text),
                    call_path: Vec::new(),
                });
            }
        }
    }
    out
}

/// True when the `in` at index `at` belongs to a `for` loop (a `for`
/// ident appears before it with only a pattern in between — approximated
/// by looking back a bounded window with no `;`/`{`/`}`).
fn tokens_contain_for(tokens: &[Token], at: usize) -> bool {
    let lo = at.saturating_sub(12);
    for k in (lo..at).rev() {
        let t = &tokens[k];
        if t.is_ident("for") {
            return true;
        }
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
    }
    false
}

/// Lint: pure unit-returning accessors missing `#[must_use]`.
///
/// A "pure accessor" here is a `pub fn` taking `self` or `&self` whose
/// return type is exactly one selfheal-units newtype. Ignoring such a
/// value is always a bug — the call has no side effects.
fn missing_must_use(path: &Path, sigs: &[&FnItem]) -> Vec<Finding> {
    let mut out = Vec::new();
    for sig in sigs {
        if !matches!(sig.self_kind, SelfKind::Ref | SelfKind::Value) {
            continue;
        }
        let [ret] = sig.ret.as_slice() else { continue };
        if !UNIT_TYPES.contains(&ret.as_str()) {
            continue;
        }
        if sig.attr_idents.iter().any(|a| a == "must_use") {
            continue;
        }
        out.push(Finding {
            lint: Lint::MissingMustUse,
            file: path.to_path_buf(),
            line: sig.line,
            message: format!(
                "`pub fn {}` is a pure accessor returning {ret}; add #[must_use]",
                sig.name
            ),
            snippet: format!("fn {}(..) -> {ret}", sig.name),
            call_path: Vec::new(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str, ctx: &FileContext) -> Vec<Finding> {
        run_all(&PathBuf::from("x.rs"), &ParsedFile::new(src), ctx)
    }

    fn lint_ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint.id()).collect()
    }

    #[test]
    fn partial_cmp_unwrap_is_an_error() {
        let f = run(
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
            &FileContext::lib("selfheal"),
        );
        assert_eq!(lint_ids(&f), vec!["nan-unsafe-ordering"]);
        assert!(f[0].message.contains("panics"));
    }

    #[test]
    fn total_cmp_is_clean() {
        let f = run(
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }",
            &FileContext::lib("selfheal"),
        );
        assert!(f.is_empty());
    }

    #[test]
    fn bare_fold_key_is_flagged_but_direct_call_is_not() {
        let f = run(
            "fn f(v: &[f64]) -> f64 { let a = v.iter().copied().fold(f64::MIN, f64::max); f64::max(a, 0.0) }",
            &FileContext::lib("selfheal"),
        );
        assert_eq!(lint_ids(&f), vec!["nan-unsafe-ordering"]);
        assert!(f[0].snippet.contains("f64::max"));
    }

    #[test]
    fn unwrap_only_gated_in_model_crates() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(
            lint_ids(&run(src, &FileContext::lib("selfheal-bti"))),
            vec!["unwrap-in-lib"]
        );
        assert!(run(src, &FileContext::lib("selfheal-units")).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let f = run(
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(3) }",
            &FileContext::lib("selfheal-bti"),
        );
        assert!(f.is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_mod_is_fine() {
        let f = run(
            "#[cfg(test)] mod tests { fn f(x: Option<u8>) -> u8 { x.unwrap() } }",
            &FileContext::lib("selfheal-bti"),
        );
        assert!(f.is_empty());
    }

    #[test]
    fn physical_literals_out_of_range() {
        let f = run(
            "fn f() { let v = Volts::new(12.0); let t = Celsius::new(-60.0); let ok = Volts::new(-0.3); }",
            &FileContext::example("selfheal"),
        );
        assert_eq!(
            lint_ids(&f),
            vec!["suspicious-physical-literal", "suspicious-physical-literal"]
        );
        assert!(f[0].message.contains("12"));
        assert!(f[1].message.contains("-60"));
    }

    #[test]
    fn bare_physical_param_and_return() {
        let f = run(
            "pub fn plan(vdd_volts: f64, count: f64) -> f64 { vdd_volts }\npub fn margin_mv(&self) -> f64 { 0.0 }",
            &FileContext::lib("selfheal"),
        );
        assert_eq!(lint_ids(&f), vec!["bare-physical-f64", "bare-physical-f64"]);
        assert!(f[0].message.contains("vdd_volts"));
        assert!(f[1].message.contains("margin_mv"));
    }

    #[test]
    fn bare_physical_struct_fields_are_flagged() {
        let f = run(
            "pub struct Report { pub worst_mv: f64, pub per_core_mv: Vec<f64>, pub count: usize }",
            &FileContext::lib("selfheal-multicore"),
        );
        assert_eq!(lint_ids(&f), vec!["bare-physical-f64", "bare-physical-f64"]);
        assert!(f[0].message.contains("worst_mv"));
        assert!(f[1].message.contains("per_core_mv"));
    }

    #[test]
    fn typed_and_private_struct_fields_are_clean() {
        let f = run(
            "pub struct Report { pub worst_mv: Millivolts, setpoint_mv: f64 }",
            &FileContext::lib("selfheal-multicore"),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn struct_field_allow_comment_suppresses() {
        let src = "pub struct S {\n    // analyzer: allow(bare-physical-f64)\n    pub served_core_seconds: f64,\n}";
        assert!(run(src, &FileContext::lib("selfheal-multicore")).is_empty());
    }

    #[test]
    fn typed_params_are_clean() {
        let f = run(
            "pub fn plan(vdd: Volts, temp: Celsius) -> Millivolts { Millivolts::new(0.0) }",
            &FileContext::lib("selfheal"),
        );
        // The unit return needs #[must_use] only for self-taking fns;
        // free fns are not flagged.
        assert!(f.is_empty());
    }

    #[test]
    fn must_use_missing_and_present() {
        let src = "impl X { pub fn margin(&self) -> Millivolts { self.m } }";
        let f = run(src, &FileContext::lib("selfheal"));
        assert_eq!(lint_ids(&f), vec!["missing-must-use"]);

        let src_ok = "impl X { #[must_use] pub fn margin(&self) -> Millivolts { self.m } }";
        assert!(run(src_ok, &FileContext::lib("selfheal")).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_next_line() {
        let src = "// analyzer: allow(unwrap-in-lib)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(run(src, &FileContext::lib("selfheal-bti")).is_empty());
    }

    #[test]
    fn raw_thread_spawn_flagged_outside_runtime_crates() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            lint_ids(&run(src, &FileContext::lib("selfheal-bti"))),
            vec!["raw-thread-spawn"]
        );
        // Short-path form is the same construct.
        let short = "use std::thread;\nfn f() { thread::spawn(|| {}); }";
        assert_eq!(
            lint_ids(&run(short, &FileContext::lib("selfheal-bench"))),
            vec!["raw-thread-spawn"]
        );
    }

    #[test]
    fn runtime_and_telemetry_may_spawn_threads() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert!(run(src, &FileContext::lib("selfheal-runtime")).is_empty());
        assert!(run(src, &FileContext::lib("selfheal-telemetry")).is_empty());
    }

    #[test]
    fn thread_spawn_in_test_region_is_fine() {
        let src = "#[cfg(test)] mod tests { fn f() { std::thread::spawn(|| {}); } }";
        assert!(run(src, &FileContext::lib("selfheal-bti")).is_empty());
    }

    #[test]
    fn test_targets_skip_ordering_and_literal_lints() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().copied().fold(f64::MIN, f64::max) }";
        assert!(run(src, &FileContext::test_target("selfheal-repro")).is_empty());
    }

    #[test]
    fn unseeded_rng_constructors_are_flagged() {
        let src = "fn f() -> f64 { let mut r = rand::thread_rng(); r.gen() }";
        assert_eq!(
            lint_ids(&run(src, &FileContext::lib("selfheal-bti"))),
            vec!["unseeded-rng"]
        );
        let entropy = "fn f() { let r = StdRng::from_entropy(); }";
        assert_eq!(
            lint_ids(&run(entropy, &FileContext::example("selfheal"))),
            vec!["unseeded-rng"]
        );
    }

    #[test]
    fn seeded_rng_is_clean_and_tests_may_use_entropy() {
        let seeded = "fn f(seeds: &SeedSequence) { let r = seeds.rng(3); let s = StdRng::seed_from_u64(9); }";
        assert!(run(seeded, &FileContext::lib("selfheal-bti")).is_empty());
        let test_src = "#[cfg(test)] mod tests { fn f() { let r = rand::thread_rng(); } }";
        assert!(run(test_src, &FileContext::lib("selfheal-bti")).is_empty());
    }

    #[test]
    fn hash_iteration_is_flagged_in_lib_code() {
        let src = "fn f(m: HashMap<String, f64>) -> Vec<f64> { m.values().copied().collect() }";
        assert_eq!(
            lint_ids(&run(src, &FileContext::lib("selfheal"))),
            vec!["nondeterministic-iteration"]
        );
        let for_loop = "fn f() { let mut s = HashSet::new(); for x in &s { use_it(x); } }";
        assert_eq!(
            lint_ids(&run(for_loop, &FileContext::lib("selfheal"))),
            vec!["nondeterministic-iteration"]
        );
    }

    #[test]
    fn btree_collections_are_clean_except_set_retain() {
        let clean = "fn f(m: BTreeMap<String, f64>) -> Vec<f64> { m.values().copied().collect() }";
        assert!(run(clean, &FileContext::lib("selfheal")).is_empty());
        let retain = "fn f(s: &mut BTreeSet<u64>) { s.retain(|x| x % 2 == 0); }";
        assert_eq!(
            lint_ids(&run(retain, &FileContext::lib("selfheal"))),
            vec!["nondeterministic-iteration"]
        );
        // BTreeSet iteration is sorted — not flagged.
        let iter = "fn f(s: &BTreeSet<u64>) -> Vec<u64> { s.iter().copied().collect() }";
        assert!(run(iter, &FileContext::lib("selfheal")).is_empty());
    }

    #[test]
    fn hash_iteration_ignored_outside_lib_code() {
        let src = "fn f(m: HashMap<String, f64>) -> Vec<f64> { m.values().copied().collect() }";
        assert!(run(src, &FileContext::example("selfheal")).is_empty());
    }
}
