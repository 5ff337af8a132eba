//! A minimal Rust lexer for `cube_lint`.
//!
//! The linter's rules are *lexical* invariants — "this loop body contains a
//! `checkpoint` call", "this `.unwrap()` token exists" — so a full parse is
//! unnecessary. What *is* necessary is getting the token boundaries right:
//! string literals (including raw strings), char literals vs. lifetimes,
//! nested block comments, and raw identifiers all have to be skipped or
//! classified correctly, or a `"panic!"` inside a string would fire R4.
//!
//! The lexer is deliberately forgiving: on malformed input it degrades to
//! single-character punct tokens rather than erroring, because the source
//! it scans has already passed `rustc`.

/// Token classification — only as fine-grained as the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_` and raw `r#ident`s, with the
    /// `r#` prefix stripped).
    Ident,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// String literal of any flavour (`"…"`, `r"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (value is irrelevant to every rule).
    Num,
    /// Single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Token text. For `Str` this is the *contents* without quotes or the
    /// raw-string hashes.
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`, dropping comments and whitespace. Never fails: input
/// that already compiles always lexes; anything else degrades to puncts.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    let count_lines = |slice: &[char]| slice.iter().filter(|&&c| c == '\n').count() as u32;

    while i < n {
        let c = chars[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n {
            if chars[i + 1] == '/' {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            if chars[i + 1] == '*' {
                // Nested block comments, per the Rust grammar.
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                line += count_lines(&chars[start..i.min(n)]);
                continue;
            }
        }
        // Raw strings and raw identifiers: r"…", r#"…"#, r#ident, br#"…"#.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let (prefix_len, is_raw_str) = raw_string_prefix(&chars[i..]);
            if is_raw_str {
                let start = i;
                i += prefix_len; // past r##…"
                let hashes = prefix_len - 2 - usize::from(chars[start] == 'b');
                // Content runs until `"` followed by `hashes` `#`s.
                let content_start = i;
                while i < n {
                    if chars[i] == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                        break;
                    }
                    i += 1;
                }
                let content: String = chars[content_start..i.min(n)].iter().collect();
                let tok_line = line;
                line += count_lines(&chars[start..i.min(n)]);
                i = (i + 1 + hashes).min(n); // past closing quote + hashes
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: content,
                    line: tok_line,
                });
                continue;
            }
            if c == 'r' && chars[i + 1] == '#' && i + 2 < n && is_ident_start(chars[i + 2]) {
                // Raw identifier r#match — strip the prefix so rules see
                // the bare name.
                let start = i + 2;
                let mut j = start;
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
        }
        // Ordinary (or byte) string literal.
        if c == '"' || (c == 'b' && i + 1 < n && chars[i + 1] == '"') {
            let start = i;
            i += if c == 'b' { 2 } else { 1 };
            let content_start = i;
            while i < n && chars[i] != '"' {
                if chars[i] == '\\' {
                    i += 1; // skip the escaped char
                }
                i += 1;
            }
            let content: String = chars[content_start..i.min(n)].iter().collect();
            let tok_line = line;
            line += count_lines(&chars[start..i.min(n)]);
            i = (i + 1).min(n);
            toks.push(Tok {
                kind: TokKind::Str,
                text: content,
                line: tok_line,
            });
            continue;
        }
        // Char literal vs lifetime. `'a` with no closing quote after one
        // identifier run is a lifetime; `'x'` / `'\n'` are chars.
        if c == '\'' || (c == 'b' && i + 1 < n && chars[i + 1] == '\'') {
            let q = if c == 'b' { i + 1 } else { i };
            if q + 1 < n {
                let next = chars[q + 1];
                if next == '\\' {
                    // Escaped char literal: skip to closing quote.
                    let mut j = q + 2;
                    if j < n {
                        j += 1; // the escaped character itself
                    }
                    while j < n && chars[j] != '\'' {
                        j += 1; // \u{…} bodies
                    }
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                    i = (j + 1).min(n);
                    continue;
                }
                if is_ident_start(next) {
                    let mut j = q + 2;
                    while j < n && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    if j < n && chars[j] == '\'' && j == q + 2 {
                        // 'x'
                        toks.push(Tok {
                            kind: TokKind::Char,
                            text: chars[q + 1..j].iter().collect(),
                            line,
                        });
                        i = j + 1;
                        continue;
                    }
                    // Lifetime 'ident (no closing quote).
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[q + 1..j].iter().collect(),
                        line,
                    });
                    i = j;
                    continue;
                }
                // 'x' where x is not ident-ish (e.g. '+').
                if q + 2 < n && chars[q + 2] == '\'' {
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: chars[q + 1..q + 2].iter().collect(),
                        line,
                    });
                    i = q + 3;
                    continue;
                }
            }
            // Stray quote: emit as punct and move on.
            toks.push(Tok {
                kind: TokKind::Punct,
                text: "'".into(),
                line,
            });
            i += 1;
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Number: digits and any alphanumeric suffix; a following `.` is
        // consumed only when a digit follows it, so `0..n` stays a range.
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Single punctuation character.
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

/// Detect an `r"…"` / `r#…#"…"` / `br"…"` prefix at the start of `chars`.
/// Returns (prefix length up to and including the opening quote, matched).
fn raw_string_prefix(chars: &[char]) -> (usize, bool) {
    let mut j = 0usize;
    if chars.first() == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return (0, false);
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        (j + 1, true)
    } else {
        (0, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents_from_rules() {
        let toks = kinds(r#"let x = "panic!(unwrap())";"#);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokKind::Ident || (t != "panic" && t != "unwrap")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("panic")));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let toks = kinds(r###"let s = r#"has "quotes" and unwrap()"#; r#match"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("quotes")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "match"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn comments_are_dropped_and_lines_tracked() {
        let toks = tokenize("// unwrap()\n/* panic! \n */ foo");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text, "foo");
        assert_eq!(toks[0].line, 3);
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let toks = kinds("for i in 0..cells {}");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "cells"));
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == TokKind::Punct && t == ".")
                .count(),
            2
        );
    }
}
