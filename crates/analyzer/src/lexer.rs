//! A minimal, line-aware Rust lexer.
//!
//! The analyzer deliberately avoids a full parser: every lint it
//! implements is expressible over a token stream plus a little context
//! (brace depth, `#[cfg(test)]` regions). The lexer therefore only has
//! to get three things right:
//!
//! * **comments and strings never produce tokens** — a `partial_cmp`
//!   inside a doc comment or a string literal must not trip a lint;
//! * **every token knows its line** — findings are reported as
//!   `file:line` and must be clickable;
//! * **numeric literals keep their text** — the physical-range lint
//!   parses them back into `f64`.
//!
//! Everything else (generics, lifetimes, macros) is passed through as
//! plain punctuation/identifier tokens for the lints to pattern-match.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `pub`, `partial_cmp`, ...).
    Ident,
    /// An integer or float literal, including suffixes (`1.5f64`).
    Number,
    /// A string, raw-string, byte-string, or char literal (text dropped).
    Literal,
    /// A lifetime such as `'a` (text without the quote).
    Lifetime,
    /// A single punctuation character (`.`, `(`, `::` is two tokens).
    Punct,
}

/// One lexeme with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The classification of this lexeme.
    pub kind: TokenKind,
    /// The lexeme text (empty for [`TokenKind::Literal`]).
    pub text: String,
    /// 1-based source line on which the lexeme starts.
    pub line: u32,
}

impl Token {
    /// True when this token is an identifier equal to `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True when this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// A comment-based lint suppression: `// analyzer: allow(lint-id)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the comment appears on (suppresses that line and the next).
    pub line: u32,
    /// Lint ids listed inside `allow(...)`.
    pub lints: Vec<String>,
}

/// A purity-exemption annotation:
/// `// analyzer: trust(clock): <justification>`.
///
/// Attaches to the function whose body contains the comment (or the
/// next function below it) and strips the listed taint kinds from that
/// function's *effective* taint — both its own sinks and anything its
/// callees propagate up. The justification after `):` is mandatory: a
/// trust without a recorded reason does not parse and therefore does
/// not exempt anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trust {
    /// 1-based line the comment appears on.
    pub line: u32,
    /// Taint kind names listed inside `trust(...)` (`clock`, `env`,
    /// `io`, `rng`, `hash-iter`).
    pub kinds: Vec<String>,
    /// The free-text justification following `):`.
    pub justification: String,
}

/// The output of [`lex`]: tokens plus suppression comments.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// All `// analyzer: allow(...)` comments.
    pub allows: Vec<Allow>,
    /// All `// analyzer: trust(...): ...` comments.
    pub trusts: Vec<Trust>,
}

/// Lexes `source` into tokens, recording `analyzer: allow` comments.
///
/// Unterminated strings/comments are tolerated (the rest of the file is
/// consumed silently); the analyzer lints what it can see.
#[must_use]
pub fn lex(source: &str) -> LexedFile {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: LexedFile::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: LexedFile,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn run(mut self) -> LexedFile {
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                'r' | 'b' if self.starts_raw_or_byte_string() => self.raw_or_byte_string(),
                '\'' => self.char_or_lifetime(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    let line = self.line;
                    let c = self.bump().unwrap_or(' ');
                    self.out.tokens.push(Token {
                        kind: TokenKind::Punct,
                        text: c.to_string(),
                        line,
                    });
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        if let Some(allow) = parse_allow(&text, line) {
            self.out.allows.push(allow);
        }
        if let Some(trust) = parse_trust(&text, line) {
            self.out.trusts.push(trust);
        }
    }

    fn block_comment(&mut self) {
        // `/*` already peeked; consume with nesting.
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.out.tokens.push(Token {
            kind: TokenKind::Literal,
            text: String::new(),
            line,
        });
    }

    /// Detects `r"`, `r#...#"`, `b"`, `br"`, `br#...` starts.
    fn starts_raw_or_byte_string(&self) -> bool {
        let mut i = 1;
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            i = 2;
        } else if self.peek(0) == Some('b') && self.peek(1) == Some('"') {
            return true;
        } else if self.peek(0) != Some('r') {
            return false;
        }
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn raw_or_byte_string(&mut self) {
        let line = self.line;
        if self.peek(0) == Some('b') {
            self.bump();
        }
        let raw = self.peek(0) == Some('r');
        if raw {
            self.bump();
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        if raw {
            // Scan for `"` followed by `hashes` hashes.
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    for k in 0..hashes {
                        if self.peek(k) != Some('#') {
                            continue 'outer;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
        } else {
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '"' => break,
                    _ => {}
                }
            }
        }
        self.out.tokens.push(Token {
            kind: TokenKind::Literal,
            text: String::new(),
            line,
        });
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // the quote
                     // Lifetime: 'ident not followed by a closing quote.
        if self.peek(0).is_some_and(|c| c.is_alphabetic() || c == '_') && self.peek(1) != Some('\'')
        {
            let mut text = String::new();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.out.tokens.push(Token {
                kind: TokenKind::Lifetime,
                text,
                line,
            });
            return;
        }
        // Char literal: consume until the closing quote.
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.out.tokens.push(Token {
            kind: TokenKind::Literal,
            text: String::new(),
            line,
        });
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.out.tokens.push(Token {
            kind: TokenKind::Ident,
            text,
            line,
        });
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut seen_dot = false;
        let mut seen_exp = false;
        while let Some(c) = self.peek(0) {
            match c {
                '0'..='9' | '_' => {
                    text.push(c);
                    self.bump();
                }
                'x' | 'o' if text == "0" => {
                    // Hex/octal: consume digits and letters greedily.
                    text.push(c);
                    self.bump();
                    while let Some(d) = self.peek(0) {
                        if d.is_alphanumeric() || d == '_' {
                            text.push(d);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    break;
                }
                '.' if !seen_dot
                    && !seen_exp
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit()) =>
                {
                    seen_dot = true;
                    text.push(c);
                    self.bump();
                }
                'e' | 'E'
                    if !seen_exp
                        && self.peek(1).is_some_and(|d| {
                            d.is_ascii_digit()
                                || ((d == '+' || d == '-')
                                    && self.peek(2).is_some_and(|e| e.is_ascii_digit()))
                        }) =>
                {
                    seen_exp = true;
                    text.push(c);
                    self.bump();
                    if let Some(sign @ ('+' | '-')) = self.peek(0) {
                        text.push(sign);
                        self.bump();
                    }
                }
                // Type suffix (f64, u32, usize, ...).
                c if c.is_alphabetic() => {
                    while let Some(d) = self.peek(0) {
                        if d.is_alphanumeric() || d == '_' {
                            text.push(d);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
        self.out.tokens.push(Token {
            kind: TokenKind::Number,
            text,
            line,
        });
    }
}

/// Parses `// analyzer: allow(a, b)` comment bodies.
fn parse_allow(comment: &str, line: u32) -> Option<Allow> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("analyzer:")?.trim();
    let rest = rest.strip_prefix("allow(")?;
    let inner = rest.split(')').next()?;
    let lints: Vec<String> = inner
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if lints.is_empty() {
        None
    } else {
        Some(Allow { line, lints })
    }
}

/// Parses `// analyzer: trust(clock, env): justification` comment
/// bodies. Returns `None` when the justification is missing or empty —
/// an unjustified trust must not silently exempt anything.
fn parse_trust(comment: &str, line: u32) -> Option<Trust> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("analyzer:")?.trim();
    let rest = rest.strip_prefix("trust(")?;
    let (inner, after) = rest.split_once(')')?;
    let kinds: Vec<String> = inner
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let justification = after.trim().strip_prefix(':')?.trim().to_string();
    if kinds.is_empty() || justification.is_empty() {
        None
    } else {
        Some(Trust {
            line,
            kinds,
            justification,
        })
    }
}

/// Parses a numeric literal's text (as lexed) into a value, stripping
/// underscores and any type suffix. Returns `None` for hex/octal.
#[must_use]
pub fn literal_value(text: &str) -> Option<f64> {
    if text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b") {
        return None;
    }
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    // Strip a trailing type suffix such as f64/u32/usize.
    let stripped = cleaned
        .strip_suffix("f64")
        .or_else(|| cleaned.strip_suffix("f32"))
        .or_else(|| {
            let trimmed = cleaned.trim_end_matches(|c: char| c.is_ascii_alphanumeric());
            // Integer suffixes start with i/u; only strip when what's
            // left still parses.
            let tail = &cleaned[trimmed.len()..];
            if tail.starts_with('i') || tail.starts_with('u') {
                Some(trimmed)
            } else {
                None
            }
        })
        .unwrap_or(&cleaned);
    stripped.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_produce_no_idents() {
        let src = r##"
            // partial_cmp in a comment
            /* unwrap in /* a nested */ block */
            let s = "partial_cmp .unwrap()";
            let r = r#"expect("x")"#;
            let c = 'x';
            real_ident();
        "##;
        assert_eq!(
            idents(src),
            vec!["let", "s", "let", "r", "let", "c", "real_ident"]
        );
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "/* a\nb\nc */\nfoo();\n\"x\ny\"\nbar();";
        let lexed = lex(src);
        let foo = lexed.tokens.iter().find(|t| t.is_ident("foo")).unwrap();
        let bar = lexed.tokens.iter().find(|t| t.is_ident("bar")).unwrap();
        assert_eq!(foo.line, 4);
        assert_eq!(bar.line, 7);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
    }

    #[test]
    fn numbers_keep_their_text() {
        let lexed = lex("let x = 1_000.5e-3f64 + 0.3 + 2f64;");
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["1_000.5e-3f64", "0.3", "2f64"]);
        assert_eq!(literal_value("1_000.5e-3f64"), Some(1.0005));
        assert_eq!(literal_value("0.3"), Some(0.3));
        assert_eq!(literal_value("2f64"), Some(2.0));
        assert_eq!(literal_value("0xff"), None);
    }

    #[test]
    fn allow_comments_are_collected() {
        let src = "foo();\n// analyzer: allow(unwrap-in-lib, bare-physical-f64)\nbar();\n";
        let lexed = lex(src);
        assert_eq!(
            lexed.allows,
            vec![Allow {
                line: 2,
                lints: vec!["unwrap-in-lib".into(), "bare-physical-f64".into()],
            }]
        );
    }

    #[test]
    fn trust_comments_require_a_justification() {
        let src = "\
// analyzer: trust(clock): trace timestamps never feed results\n\
// analyzer: trust(env)\n\
// analyzer: trust(io, env): cache reads verify their key\n\
// analyzer: trust(): empty kinds\n";
        let lexed = lex(src);
        assert_eq!(
            lexed.trusts,
            vec![
                Trust {
                    line: 1,
                    kinds: vec!["clock".into()],
                    justification: "trace timestamps never feed results".into(),
                },
                Trust {
                    line: 3,
                    kinds: vec!["io".into(), "env".into()],
                    justification: "cache reads verify their key".into(),
                },
            ]
        );
    }

    #[test]
    fn method_call_after_float_is_not_part_of_the_number() {
        let lexed = lex("1.0f64.max(2.0); x.partial_cmp(y)");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("max")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("partial_cmp")));
    }
}
