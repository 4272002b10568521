//! Token-level scope and signature utilities shared by the lints and
//! the call graph: `#[cfg(test)]` region masking, `fn` item parsing,
//! `use` bindings and `pub struct` fields.

use crate::lexer::{lex, LexedFile, Token, TokenKind};

/// Returns a mask over `tokens`: `true` where the token lies inside a
/// `#[cfg(test)] mod`, a `#[cfg(test)]`-gated item, or a `#[test]` fn.
///
/// Detection is structural, not semantic: an attribute whose idents
/// include both `cfg` and `test` (or exactly `test`) marks the next
/// item, and the item's `{ ... }` body is resolved by brace matching.
#[must_use]
pub fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (attr_idents, after_attr) = read_attr(tokens, i + 1);
            let is_test_cfg =
                attr_idents.iter().any(|s| s == "cfg") && attr_idents.iter().any(|s| s == "test");
            let is_test_attr =
                attr_idents.first().is_some_and(|s| s == "test") && attr_idents.len() == 1;
            if is_test_cfg || is_test_attr {
                // Skip any further attributes between this one and the item.
                let mut j = after_attr;
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = read_attr(tokens, j + 1).1;
                }
                let end = item_end(tokens, j);
                for slot in mask.iter_mut().take(end).skip(i) {
                    *slot = true;
                }
                i = end;
                continue;
            }
            i = after_attr;
            continue;
        }
        i += 1;
    }
    mask
}

/// Reads an attribute starting at its `[` token; returns the idents it
/// contains and the index just past the matching `]`.
fn read_attr(tokens: &[Token], open: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (idents, i + 1);
            }
        } else if t.kind == TokenKind::Ident {
            idents.push(t.text.clone());
        }
        i += 1;
    }
    (idents, tokens.len())
}

/// Finds the end (exclusive token index) of the item starting at `start`:
/// either just past the `;` of a declaration or just past the matching
/// `}` of its body.
pub(crate) fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    // Find the first `{` or `;` at angle/paren depth irrelevant — a `;`
    // before any `{` means a body-less item.
    while i < tokens.len() {
        if tokens[i].is_punct(';') {
            return i + 1;
        }
        if tokens[i].is_punct('{') {
            break;
        }
        i += 1;
    }
    let mut depth = 0i32;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// A lexed file with the structure both passes read, computed once:
/// the `#[cfg(test)]` mask and every `fn` item.
#[derive(Debug)]
pub struct ParsedFile {
    /// Tokens and `// analyzer:` comments.
    pub lexed: LexedFile,
    /// [`test_region_mask`] over `lexed.tokens`.
    pub test_mask: Vec<bool>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
}

impl ParsedFile {
    /// Lexes `source` and parses its test regions and `fn` items.
    #[must_use]
    pub fn new(source: &str) -> ParsedFile {
        let lexed = lex(source);
        let test_mask = test_region_mask(&lexed.tokens);
        let fns = parse_fns(&lexed.tokens, &test_mask);
        ParsedFile {
            lexed,
            test_mask,
            fns,
        }
    }
}

/// One `fn` item of any visibility: the signature the lints check and
/// the body token range the call-graph pass scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// True for `pub` and `pub(crate)`/`pub(super)`/...: the unit-safety
    /// lints care about any API callable from outside its module.
    pub is_pub: bool,
    /// True for a `pub(crate)`/`pub(super)`/`pub(in ..)` restriction.
    pub pub_restricted: bool,
    /// The bare function name.
    pub name: String,
    /// `Type::name` inside `impl`/`trait` blocks (the `for` type of a
    /// trait impl), else the bare name.
    pub qualified: String,
    /// Source line of the `fn` keyword.
    pub line: u32,
    /// Last source line covered by the item (closing brace or `;`).
    pub end_line: u32,
    /// Token index of the body's `{` (== `body_end` for declarations).
    pub body_start: usize,
    /// Exclusive token index just past the body's `}` (or the `;`).
    pub body_end: usize,
    /// Idents appearing in the attributes attached to this fn.
    pub attr_idents: Vec<String>,
    /// How the function binds `self`.
    pub self_kind: SelfKind,
    /// The non-`self` parameters in order.
    pub params: Vec<Param>,
    /// Return type as token texts (`f64`, `Option < Volts >`); empty
    /// for `()`-returning functions.
    pub ret: Vec<String>,
    /// True when the fn lies inside a `#[cfg(test)]` region.
    pub in_test_region: bool,
}

/// Parses every `fn` item (any visibility, nested ones included).
#[must_use]
pub fn parse_fns(tokens: &[Token], test_mask: &[bool]) -> Vec<FnItem> {
    let qualifiers = qualifier_regions(tokens);
    let mut fns = Vec::new();
    for fn_idx in 0..tokens.len() {
        if !(tokens[fn_idx].is_ident("fn")
            && tokens
                .get(fn_idx + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident))
        {
            continue;
        }
        let name = tokens[fn_idx + 1].text.clone();
        // A `;` before any `{` means a body-less trait/extern declaration.
        let end = item_end(tokens, fn_idx);
        let body_start = (fn_idx..end)
            .find(|&k| tokens[k].is_punct('{'))
            .unwrap_or(end);
        // The innermost qualifier region containing this fn names it.
        let qualified = qualifiers
            .iter()
            .filter(|(start, qend, _)| *start <= fn_idx && fn_idx < *qend)
            .max_by_key(|(start, ..)| *start)
            .map_or_else(|| name.clone(), |(_, _, ty)| format!("{ty}::{name}"));
        let (is_pub, pub_restricted, start) = item_start(tokens, fn_idx);
        let (self_kind, params, ret) = parse_signature(tokens, fn_idx + 2);
        fns.push(FnItem {
            is_pub,
            pub_restricted,
            name,
            qualified,
            line: tokens[fn_idx].line,
            end_line: tokens.get(end.saturating_sub(1)).map_or(0, |t| t.line),
            body_start,
            body_end: end,
            attr_idents: attrs_before(tokens, start),
            self_kind,
            params,
            ret,
            in_test_region: test_mask.get(fn_idx).copied().unwrap_or(false),
        });
    }
    fns
}

/// Walks back from the `fn` keyword at `fn_idx` over its qualifiers
/// (`const`, `async`, `unsafe`, `extern "C"`) and its visibility.
/// Returns whether the item is `pub`, whether that `pub` is restricted
/// (`pub(crate)`, ...), and the index of its first token, where its
/// attributes end.
fn item_start(tokens: &[Token], fn_idx: usize) -> (bool, bool, usize) {
    let mut k = fn_idx;
    while k > 0
        && (tokens[k - 1].kind == TokenKind::Literal
            || ["const", "async", "unsafe", "extern"]
                .iter()
                .any(|q| tokens[k - 1].is_ident(q)))
    {
        k -= 1;
    }
    // `pub(crate)` / `pub(in path)`: the group holds no nested parens.
    let mut vis = k;
    if vis > 0 && tokens[vis - 1].is_punct(')') {
        if let Some(open) = (0..vis - 1).rev().find(|&m| tokens[m].is_punct('(')) {
            vis = open;
        }
    }
    if vis > 0 && tokens[vis - 1].is_ident("pub") {
        (true, vis < k, vis - 1)
    } else {
        (false, false, k)
    }
}

/// Parses the generics, parameter list and return type that follow a
/// fn's name, starting at token index `j`.
fn parse_signature(tokens: &[Token], mut j: usize) -> (SelfKind, Vec<Param>, Vec<String>) {
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = generics_end(tokens, j);
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return (SelfKind::None, Vec::new(), Vec::new());
    }
    let (self_kind, params, mut j) = parse_params(tokens, j);
    let mut ret = Vec::new();
    if tokens.get(j).is_some_and(|t| t.is_punct('-'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct('>'))
    {
        j += 2;
        while let Some(t) = tokens.get(j) {
            if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                break;
            }
            ret.push(t.text.clone());
            j += 1;
        }
    }
    (self_kind, params, ret)
}

/// Index just past the `>` closing the generics list opened at `open`.
/// The `>` of a `->` (as in `F: Fn() -> f64`) closes nothing.
fn generics_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !tokens[k - 1].is_punct('-') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    tokens.len()
}

/// Finds `impl`/`trait` regions: `(body_start_token, body_end_token,
/// type_name)` triples. For `impl Trait for Type` the name is `Type`.
fn qualifier_regions(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_impl = tokens[i].is_ident("impl");
        let is_trait = tokens[i].is_ident("trait");
        if !(is_impl || is_trait) {
            i += 1;
            continue;
        }
        // Scan the header up to the body `{` (angle-depth aware so
        // `impl<T: Fn() -> X>` generics do not end the header early).
        let mut angle = 0i32;
        let mut j = i + 1;
        let mut header_end = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && angle > 0 {
                if !tokens.get(j - 1).is_some_and(|p| p.is_punct('-')) {
                    angle -= 1;
                }
            } else if angle == 0 && (t.is_punct('{') || t.is_punct(';')) {
                header_end = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = header_end else { break };
        if tokens[open].is_punct(';') {
            // `impl Trait for Type;` has no body; nothing to qualify.
            i = open + 1;
            continue;
        }
        // The qualifying type: last angle-depth-0 ident before `{` (or
        // before `where`), taken from after `for` when present.
        let header = &tokens[i + 1..open];
        let mut name = None;
        let mut depth = 0i32;
        for (h, t) in header.iter().enumerate() {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && depth > 0 && !(h > 0 && header[h - 1].is_punct('-')) {
                depth -= 1;
            } else if depth == 0 && t.is_ident("where") {
                break;
            } else if depth == 0 && t.is_ident("for") {
                name = None; // restart after `for`: the impl'd-on type wins
            } else if depth == 0 && t.kind == TokenKind::Ident && t.text != "dyn" {
                name = Some(t.text.clone());
            }
        }
        let end = item_end(tokens, open);
        if let Some(name) = name {
            regions.push((open, end, name));
        }
        // Step inside the body: nested impls (rare) still register.
        i = open + 1;
    }
    regions
}

/// One resolved local binding from a `use` declaration: the in-file
/// name (`telemetry`, `Pool`, an `as` alias) and the first path segment
/// it came from (`selfheal_telemetry`, `crate`, `std`, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseBinding {
    /// The name usable in this file.
    pub local: String,
    /// The first segment of the `use` path (crate determiner).
    pub root: String,
}

/// Parses every `use` declaration into local-name → path-root bindings,
/// including brace groups, `as` aliases, and `self` leaves
/// (`use selfheal_telemetry::{self as telemetry, json::Json}` yields
/// `telemetry → selfheal_telemetry` and `Json → selfheal_telemetry`).
#[must_use]
pub fn parse_use_decls(tokens: &[Token]) -> Vec<UseBinding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("use") {
            i += 1;
            continue;
        }
        // Collect this declaration's tokens up to the `;`.
        let mut end = i + 1;
        let mut depth = 0i32;
        while end < tokens.len() {
            let t = &tokens[end];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth <= 0 {
                break;
            }
            end += 1;
        }
        let decl = &tokens[i + 1..end.min(tokens.len())];
        let root = decl
            .iter()
            .find(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone());
        if let Some(root) = root {
            collect_use_leaves(decl, &root, &mut out);
        }
        i = end + 1;
    }
    out
}

/// Walks a `use` declaration's tokens emitting leaf bindings.
fn collect_use_leaves(decl: &[Token], root: &str, out: &mut Vec<UseBinding>) {
    let mut k = 0;
    while k < decl.len() {
        let t = &decl[k];
        if t.kind != TokenKind::Ident || t.is_ident("use") || t.is_ident("as") {
            k += 1;
            continue;
        }
        let next = decl.get(k + 1);
        let next2 = decl.get(k + 2);
        // A segment continued by `::` is not a leaf.
        if next.is_some_and(|n| n.is_punct(':')) && next2.is_some_and(|n| n.is_punct(':')) {
            k += 1;
            continue;
        }
        // `ident as alias` — the alias is the local name.
        if next.is_some_and(|n| n.is_ident("as")) {
            if let Some(alias) = next2.filter(|a| a.kind == TokenKind::Ident) {
                out.push(UseBinding {
                    local: alias.text.clone(),
                    root: root.to_string(),
                });
            }
            k += 3;
            continue;
        }
        // Plain leaf: `ident` followed by `,`, `}` or end-of-decl. A
        // bare `self` leaf binds the root segment itself.
        let local = if t.is_ident("self") {
            root.to_string()
        } else {
            t.text.clone()
        };
        out.push(UseBinding {
            local,
            root: root.to_string(),
        });
        k += 1;
    }
}

/// How a method binds `self`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelfKind {
    /// No `self` — a free function or associated constructor.
    None,
    /// `self` or `mut self` by value.
    Value,
    /// `&self` (possibly with a lifetime).
    Ref,
    /// `&mut self`.
    RefMut,
}

/// One non-`self` parameter of a parsed signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding name (pattern parameters record the last ident).
    pub name: String,
    /// The type, rendered as space-joined token texts (e.g. `f64`,
    /// `& [ f64 ]`, `Option < f64 >`).
    pub ty: String,
    /// Source line of the parameter name.
    pub line: u32,
}

/// Parses the parenthesised parameter list starting at the `(` token at
/// `open`. Returns the `self` kind, the non-`self` parameters, and the
/// index just past the matching `)`.
fn parse_params(tokens: &[Token], open: usize) -> (SelfKind, Vec<Param>, usize) {
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut end = open;
    let mut boundaries = vec![open];
    while end < tokens.len() {
        let t = &tokens[end];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct('<') && depth == 1 {
            angle += 1;
        } else if t.is_punct('>') && depth == 1 && angle > 0 {
            // Ignore the `>` of `->` (always preceded by `-`).
            if !tokens.get(end - 1).is_some_and(|p| p.is_punct('-')) {
                angle -= 1;
            }
        } else if t.is_punct(',') && depth == 1 && angle == 0 {
            boundaries.push(end);
        }
        end += 1;
    }
    boundaries.push(end.min(tokens.len()));

    let mut self_kind = SelfKind::None;
    let mut params = Vec::new();
    for pair in boundaries.windows(2) {
        let slice = &tokens[(pair[0] + 1).min(pair[1])..pair[1]];
        if slice.is_empty() {
            continue;
        }
        if let Some(kind) = self_param_kind(slice) {
            self_kind = kind;
            continue;
        }
        // Name: the ident immediately before the first top-level `:`
        // (skipping a `mut` qualifier is implicit — `mut x : T` still
        // has `x` right before the colon).
        let mut colon = None;
        let mut a = 0i32;
        for (k, t) in slice.iter().enumerate() {
            if t.is_punct('<') {
                a += 1;
            } else if t.is_punct('>') && a > 0 {
                a -= 1;
            } else if t.is_punct(':') && a == 0 {
                // `::` is two colon tokens; require the next not to be `:`
                // and the previous not to be `:`.
                let prev_colon = k > 0 && slice[k - 1].is_punct(':');
                let next_colon = slice.get(k + 1).is_some_and(|t| t.is_punct(':'));
                if !prev_colon && !next_colon {
                    colon = Some(k);
                    break;
                }
            }
        }
        let Some(colon) = colon else { continue };
        let Some(name_tok) = slice[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokenKind::Ident)
        else {
            continue;
        };
        let ty = slice[colon + 1..]
            .iter()
            .map(|t| {
                if t.text.is_empty() {
                    "\"\"".to_string()
                } else {
                    t.text.clone()
                }
            })
            .collect::<Vec<_>>()
            .join(" ");
        params.push(Param {
            name: name_tok.text.clone(),
            ty,
            line: name_tok.line,
        });
    }
    (self_kind, params, end + 1)
}

/// One `pub` field of a `pub struct`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructField {
    /// Name of the owning struct.
    pub struct_name: String,
    /// The field name.
    pub name: String,
    /// The type, rendered as space-joined token texts (`f64`,
    /// `Vec < f64 >`, `Option < Seconds >`).
    pub ty: String,
    /// Source line of the field name.
    pub line: u32,
    /// True when the struct lies inside a `#[cfg(test)]` region.
    pub in_test_region: bool,
}

/// Parses every `pub` named field of every `pub struct` in the token
/// stream. Tuple and unit structs have no named fields and are skipped;
/// private fields are skipped (they are not API surface).
#[must_use]
pub fn parse_pub_struct_fields(tokens: &[Token], test_mask: &[bool]) -> Vec<StructField> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("pub") {
            i += 1;
            continue;
        }
        let pub_idx = i;
        let mut j = skip_vis_modifier(tokens, i + 1);
        if !tokens.get(j).is_some_and(|t| t.is_ident("struct")) {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(j + 1) else {
            break;
        };
        let struct_name = name_tok.text.clone();
        j += 2;
        // Generics and any `where` clause: skip forward to the body
        // opener (`{`), a tuple opener (`(`) or a unit `;`.
        let mut angle = 0i32;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && angle > 0 {
                angle -= 1;
            } else if angle == 0 && (t.is_punct('{') || t.is_punct('(') || t.is_punct(';')) {
                break;
            }
            j += 1;
        }
        if !tokens.get(j).is_some_and(|t| t.is_punct('{')) {
            // Tuple or unit struct: no named fields to inspect.
            i = j.max(i + 1);
            continue;
        }
        let in_test_region = test_mask.get(pub_idx).copied().unwrap_or(false);
        let body_end = item_end(tokens, j);
        fields.extend(parse_fields_in_body(
            tokens,
            j,
            body_end,
            &struct_name,
            in_test_region,
        ));
        i = body_end;
    }
    fields
}

/// Skips a `( ... )` visibility qualifier (`pub(crate)`, `pub(in x)`)
/// starting just after `pub`; returns the index of the following token.
fn skip_vis_modifier(tokens: &[Token], mut j: usize) -> usize {
    if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
    }
    j
}

/// Extracts the `pub` named fields between a struct's `{` at `open` and
/// its closing brace (exclusive end index `end`).
fn parse_fields_in_body(
    tokens: &[Token],
    open: usize,
    end: usize,
    struct_name: &str,
    in_test_region: bool,
) -> Vec<StructField> {
    let mut fields = Vec::new();
    let mut j = open + 1;
    while j < end {
        // Skip field attributes (`#[serde(..)]`, doc attrs, ...).
        while j < end
            && tokens[j].is_punct('#')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = read_attr(tokens, j + 1).1;
        }
        if j >= end || tokens[j].is_punct('}') {
            break;
        }
        let is_pub = tokens[j].is_ident("pub");
        if is_pub {
            j = skip_vis_modifier(tokens, j + 1);
        }
        // Field name and `:`.
        let name_ok = tokens.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && !tokens.get(j + 2).is_some_and(|t| t.is_punct(':'));
        if !name_ok {
            // Not a field start (malformed or past the last field) —
            // resync at the next top-level comma.
            j = next_field_boundary(tokens, j, end);
            continue;
        }
        let name_tok = &tokens[j];
        let ty_start = j + 2;
        let ty_end = next_field_boundary(tokens, ty_start, end);
        if is_pub {
            // The boundary sits just past a `,` or on the closing `}`;
            // the type tokens run up to (not including) either.
            let ty_last = if ty_end > ty_start && tokens[ty_end - 1].is_punct(',') {
                ty_end - 1
            } else {
                ty_end
            };
            let ty = tokens[ty_start..ty_last]
                .iter()
                .map(|t| t.text.clone())
                .collect::<Vec<_>>()
                .join(" ");
            fields.push(StructField {
                struct_name: struct_name.to_string(),
                name: name_tok.text.clone(),
                ty,
                line: name_tok.line,
                in_test_region,
            });
        }
        j = ty_end;
    }
    fields
}

/// Returns the index just past the `,` ending the field whose type starts
/// at `from` (or `end` when the struct body closes first). Nested
/// brackets of any shape are skipped.
fn next_field_boundary(tokens: &[Token], from: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut j = from;
    while j < end {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if t.is_punct('<') && depth == 0 {
            angle += 1;
        } else if t.is_punct('>') && depth == 0 && angle > 0 {
            if !tokens
                .get(j.wrapping_sub(1))
                .is_some_and(|p| p.is_punct('-'))
            {
                angle -= 1;
            }
        } else if t.is_punct(',') && depth == 0 && angle == 0 {
            return j + 1;
        }
        j += 1;
    }
    end
}

/// Classifies a parameter slice as a `self` parameter, if it is one.
fn self_param_kind(slice: &[Token]) -> Option<SelfKind> {
    let mut k = 0;
    let by_ref = slice.get(k).is_some_and(|t| t.is_punct('&'));
    if by_ref {
        k += 1;
        if slice.get(k).is_some_and(|t| t.kind == TokenKind::Lifetime) {
            k += 1;
        }
    }
    let is_mut = slice.get(k).is_some_and(|t| t.is_ident("mut"));
    if is_mut {
        k += 1;
    }
    if slice.get(k).is_some_and(|t| t.is_ident("self")) && slice.len() == k + 1 {
        Some(match (by_ref, is_mut) {
            (true, true) => SelfKind::RefMut,
            (true, false) => SelfKind::Ref,
            (false, _) => SelfKind::Value,
        })
    } else {
        None
    }
}

/// Collects idents from the contiguous run of attributes immediately
/// preceding token index `at` (e.g. `#[must_use]`, `#[inline]`).
fn attrs_before(tokens: &[Token], at: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut end = at;
    while end >= 2 && tokens[end - 1].is_punct(']') {
        // Walk back to the matching `[`.
        let mut depth = 0i32;
        let mut k = end - 1;
        loop {
            if tokens[k].is_punct(']') {
                depth += 1;
            } else if tokens[k].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return idents;
            }
            k -= 1;
        }
        if k == 0 || !tokens[k - 1].is_punct('#') {
            break;
        }
        for t in &tokens[k..end - 1] {
            if t.kind == TokenKind::Ident {
                idents.push(t.text.clone());
            }
        }
        end = k - 1;
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn all_fns(src: &str) -> Vec<FnItem> {
        ParsedFile::new(src).fns
    }

    fn sigs(src: &str) -> Vec<FnItem> {
        all_fns(src).into_iter().filter(|f| f.is_pub).collect()
    }

    #[test]
    fn simple_signature_parses() {
        let s = sigs("pub fn stress(vdd_volts: f64, temp_c: f64) -> f64 { 0.0 }");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "stress");
        assert_eq!(s[0].self_kind, SelfKind::None);
        assert_eq!(s[0].params.len(), 2);
        assert_eq!(s[0].params[0].name, "vdd_volts");
        assert_eq!(s[0].params[0].ty, "f64");
        assert_eq!(s[0].ret, vec!["f64"]);
    }

    #[test]
    fn self_and_generics_and_option_types() {
        let s = sigs(
            "impl X { pub fn delay_at<T: Into<usize>>(&self, loc: T) -> Option<Nanoseconds> { None } }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].self_kind, SelfKind::Ref);
        assert_eq!(s[0].params.len(), 1);
        assert_eq!(s[0].params[0].ty, "T");
        assert_eq!(s[0].ret, vec!["Option", "<", "Nanoseconds", ">"]);
    }

    #[test]
    fn attrs_are_attached() {
        let s = sigs("#[must_use]\n#[inline]\npub fn margin(&self) -> Millivolts { m }");
        assert_eq!(s.len(), 1);
        assert!(s[0].attr_idents.iter().any(|a| a == "must_use"));
        assert!(s[0].attr_idents.iter().any(|a| a == "inline"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = r"
            pub fn live(x: f64) -> f64 { x }
            #[cfg(test)]
            mod tests {
                pub fn helper(vdd: f64) -> f64 { vdd }
            }
        ";
        let s = sigs(src);
        assert_eq!(s.len(), 2);
        assert!(!s[0].in_test_region);
        assert!(s[1].in_test_region);
    }

    #[test]
    fn test_attr_fn_is_masked() {
        let src = "#[test]\nfn check() { helper(); }\npub fn after(x: f64) {}";
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.tokens);
        let helper = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("helper"))
            .unwrap();
        let after = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("after"))
            .unwrap();
        assert!(mask[helper]);
        assert!(!mask[after]);
    }

    #[test]
    fn fn_pointer_params_do_not_confuse_the_splitter() {
        let s = sigs("pub fn apply(f: impl Fn(f64, f64) -> f64, seed_secs: f64) -> f64 { 0.0 }");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].params.len(), 2);
        assert_eq!(s[0].params[1].name, "seed_secs");
        assert_eq!(s[0].params[1].ty, "f64");
    }

    #[test]
    fn pub_crate_counts_as_pub() {
        let s = sigs("pub(crate) fn freq_mhz(&self) -> f64 { 0.0 }");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "freq_mhz");
    }

    #[test]
    fn visibility_and_attrs_reach_back_over_qualifiers() {
        let f = all_fns(
            "#[must_use] pub(crate) const unsafe fn a() {}\n\
             #[inline] extern \"C\" fn b() {}\n\
             fn c(&mut self) {}",
        );
        let vis: Vec<(&str, bool)> = f.iter().map(|x| (x.name.as_str(), x.is_pub)).collect();
        assert_eq!(vis, vec![("a", true), ("b", false), ("c", false)]);
        assert_eq!(f[0].attr_idents, vec!["must_use"]);
        assert_eq!(f[1].attr_idents, vec!["inline"]);
        assert_eq!(f[2].self_kind, SelfKind::RefMut);
    }

    fn fields(src: &str) -> Vec<StructField> {
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.tokens);
        parse_pub_struct_fields(&lexed.tokens, &mask)
    }

    #[test]
    fn pub_struct_fields_parse_with_types() {
        let src = r"
            pub struct Report {
                pub worst_mv: f64,
                pub per_core: Vec<f64>,
                internal: u32,
                pub label: String,
            }
        ";
        let f = fields(src);
        let names: Vec<(&str, &str)> = f.iter().map(|x| (x.name.as_str(), x.ty.as_str())).collect();
        assert_eq!(
            names,
            vec![
                ("worst_mv", "f64"),
                ("per_core", "Vec < f64 >"),
                ("label", "String"),
            ]
        );
        assert!(f.iter().all(|x| x.struct_name == "Report"));
    }

    #[test]
    fn private_structs_and_tuple_structs_are_skipped() {
        let src = r"
            struct Hidden { pub x_mv: f64 }
            pub struct Pair(f64, f64);
            pub struct Unit;
        ";
        assert!(fields(src).is_empty());
    }

    #[test]
    fn struct_field_attrs_and_generics_do_not_confuse_the_parser() {
        let src = r#"
            pub struct Config<T: Clone> where T: Default {
                #[serde(default)]
                pub margin_mv: f64,
                pub lookup: HashMap<String, Vec<(f64, f64)>>,
                pub inner: T,
            }
        "#;
        let f = fields(src);
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].name, "margin_mv");
        assert_eq!(f[0].ty, "f64");
        assert_eq!(f[1].name, "lookup");
        assert_eq!(f[2].ty, "T");
    }

    #[test]
    fn last_field_without_trailing_comma_keeps_its_type() {
        let f = fields("pub struct S { pub alpha: f64 }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].ty, "f64");
    }

    #[test]
    fn all_fns_records_private_and_qualified_names() {
        let src = r"
            fn free_helper() {}
            impl Pool {
                pub fn par_map(&self) {}
                fn worker_loop() {}
            }
            impl fmt::Display for Severity {
                fn fmt(&self) {}
            }
            trait Sink {
                fn flush(&self) {}
            }
        ";
        let f = all_fns(src);
        let quals: Vec<&str> = f.iter().map(|x| x.qualified.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "free_helper",
                "Pool::par_map",
                "Pool::worker_loop",
                "Severity::fmt",
                "Sink::flush",
            ]
        );
    }

    #[test]
    fn all_fns_body_ranges_cover_the_braces() {
        let src = "fn a() { inner(); }\nfn b();";
        let f = all_fns(src);
        assert_eq!(f.len(), 2);
        let lexed = lex(src);
        assert!(lexed.tokens[f[0].body_start].is_punct('{'));
        assert!(lexed.tokens[f[0].body_end - 1].is_punct('}'));
        // Declarations have an empty body range.
        assert_eq!(f[1].body_start, f[1].body_end);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].end_line, 1);
    }

    #[test]
    fn all_fns_generic_impl_for_type_uses_the_for_type() {
        let src = "impl<S: Strategy, F: Fn(S::Value) -> U> Strategy for Map<S, F> { fn generate(&self) {} }";
        let f = all_fns(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].qualified, "Map::generate");
    }

    #[test]
    fn all_fns_marks_test_regions() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} }";
        let f = all_fns(src);
        assert!(!f[0].in_test_region);
        assert!(f[1].in_test_region);
    }

    #[test]
    fn use_decls_bind_leaves_aliases_and_self() {
        let src = r"
            use selfheal_telemetry::{self as telemetry, json::Json, manifest::fnv1a};
            use selfheal_runtime::{Pool, SeedSequence};
            use selfheal_bti as bti;
            use std::time::Instant;
        ";
        let got = parse_use_decls(&lex(src).tokens);
        let pairs: Vec<(&str, &str)> = got
            .iter()
            .map(|b| (b.local.as_str(), b.root.as_str()))
            .collect();
        assert_eq!(
            pairs,
            vec![
                ("telemetry", "selfheal_telemetry"),
                ("Json", "selfheal_telemetry"),
                ("fnv1a", "selfheal_telemetry"),
                ("Pool", "selfheal_runtime"),
                ("SeedSequence", "selfheal_runtime"),
                ("bti", "selfheal_bti"),
                ("Instant", "std"),
            ]
        );
    }

    #[test]
    fn cfg_test_structs_are_masked() {
        let src = r"
            #[cfg(test)]
            pub struct Probe { pub vdd_volts: f64 }
            pub struct Live { pub vdd_volts: f64 }
        ";
        let f = fields(src);
        assert_eq!(f.len(), 2);
        assert!(f[0].in_test_region);
        assert!(!f[1].in_test_region);
    }
}
