//! Lock-acquisition model for R6/R7: which locks each function takes,
//! over which token spans the guards are held, and what runs under them.
//!
//! Like the rest of `cube_lint` this is a *lexical* model, not a type
//! checker. It recognises the engine's concrete locking idioms:
//!
//! * zero-argument `.read()` / `.write()` / `.lock()` calls are lock
//!   acquisitions, classified by receiver field name (`store`, `entries`,
//!   `catalog`, …) into a [`LockKind`];
//! * a guard bound by `let` (or assigned to a variable pre-declared with
//!   a bare `let g;`) is held to the end of the binding's block, or to an
//!   explicit `drop(g)`; an unbound guard is held to the end of its
//!   statement;
//! * `catalog.with_write(|c| …)` runs its closure under the catalog
//!   write lock, so the argument span counts as a held region.
//!
//! The per-function [`FnSummary`] this module produces is the input to
//! [`crate::callgraph`], which propagates acquisitions through direct
//! calls and reports R6/R7 findings.

use crate::lexer::{Tok, TokKind};
use std::fmt;
use std::path::{Path, PathBuf};

/// The engine's lock universe. Ranked kinds participate in the
/// documented hierarchy (catalog → cache → store); `Named` covers
/// session-local and fixture mutexes, which join cycle detection but not
/// the rank check.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockKind {
    Catalog,
    Cache,
    /// A materialized store's one lock (`MaterializedCube::store`).
    Store,
    Admission,
    Named(String),
}

impl LockKind {
    /// Position in the documented lock hierarchy; `None` for unranked
    /// leaf locks (admission/session/fixture mutexes), which may be
    /// taken anywhere but are still checked for cycles.
    pub fn rank(&self) -> Option<u8> {
        match self {
            LockKind::Catalog => Some(0),
            LockKind::Cache => Some(1),
            LockKind::Store => Some(2),
            LockKind::Admission | LockKind::Named(_) => None,
        }
    }
}

impl fmt::Display for LockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockKind::Catalog => write!(f, "catalog"),
            LockKind::Cache => write!(f, "cache"),
            LockKind::Store => write!(f, "store"),
            LockKind::Admission => write!(f, "admission"),
            LockKind::Named(n) => write!(f, "`{n}`"),
        }
    }
}

/// Map a receiver field name to a lock kind. The engine's lock fields
/// have stable names; anything unrecognised becomes `Named` so fixture
/// code (and future locks) still participate in cycle detection.
fn lock_kind(receiver: &str, path: &str) -> LockKind {
    match receiver {
        "store" => LockKind::Store,
        "entries" => LockKind::Cache,
        "state" => LockKind::Admission,
        "catalog" => LockKind::Catalog,
        // `SharedCatalog(Arc<RwLock<Catalog>>)` locks through `.0`.
        "0" if path.contains("catalog") => LockKind::Catalog,
        // `self.lock()` helper methods in cache.rs / admission.rs wrap
        // their own single mutex.
        "self" if path.contains("cache") => LockKind::Cache,
        "self" if path.contains("admission") => LockKind::Admission,
        other => LockKind::Named(other.to_string()),
    }
}

/// One direct lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acq {
    pub kind: LockKind,
    pub line: u32,
    /// Index of the `read`/`write`/`lock` ident token.
    pub tok: usize,
    /// Last token index at which the guard is (lexically) held.
    pub span_end: usize,
}

/// A direct call observed in a function body, with the locks held at
/// the call site.
#[derive(Debug, Clone)]
pub struct CallEvent {
    pub name: String,
    pub line: u32,
    pub held: Vec<LockKind>,
    /// The call sits lexically inside a `guard`/`guarded_init`/
    /// `catch_unwind` span: the wrapper marker already reports it, so
    /// R7's transitive check skips it (lock edges still propagate).
    pub in_wrapper: bool,
    /// Resolution scope hint: when the receiver is a `with_write`
    /// closure parameter the callee is a `Catalog` method, so the
    /// call-graph only resolves it against files matching this
    /// substring (bare-name resolution would pick up same-named
    /// functions anywhere in the workspace).
    pub file_hint: Option<&'static str>,
}

/// A foreign-code marker (`exec::guard`, `guarded_init`, `catch_unwind`,
/// or a raw accumulator callback), with the locks held around it.
#[derive(Debug, Clone)]
pub struct ForeignEvent {
    pub what: String,
    pub line: u32,
    pub held: Vec<LockKind>,
}

/// A nested-acquisition edge: `to` was acquired while `from` was held.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: LockKind,
    pub to: LockKind,
    pub line: u32,
    /// What the edge came through (empty for a direct nested acquisition,
    /// a call chain description otherwise).
    pub via: String,
}

/// Per-function lock facts, the unit [`crate::callgraph`] works over.
#[derive(Debug, Clone)]
pub struct FnSummary {
    pub name: String,
    pub file: PathBuf,
    pub line: u32,
    pub acquires: Vec<Acq>,
    pub edges: Vec<LockEdge>,
    pub calls: Vec<CallEvent>,
    pub foreign: Vec<ForeignEvent>,
}

/// Wrappers that execute user (UDA/closure) code: their presence under a
/// lock is exactly what R7 forbids.
pub const FOREIGN_WRAPPERS: [&str; 3] = ["guard", "guarded_init", "catch_unwind"];

/// Accumulator trait methods: a raw call under a lock is foreign code
/// too (R2 already flags it outside `crates/aggregate`; R7 adds the
/// lock dimension). Zero-argument `.iter()` is slice iteration, exempt.
const FOREIGN_METHODS: [&str; 6] = [
    "init",
    "iter",
    "iter_super",
    "final_value",
    "merge",
    "state",
];

/// Idents that look like calls but are control flow or binding forms.
const NON_CALL_IDENTS: [&str; 14] = [
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "else", "fn", "let",
    "impl", "unsafe",
];

/// Method names shadowed by std collections/iterators/options: a call
/// to one of these is overwhelmingly `Vec::push`, `HashMap::insert`,
/// `Option::map`, … — resolving it by bare name to a same-named engine
/// function would wire the whole workspace together through noise. The
/// cost is that an *engine* method with one of these names is opaque to
/// the call-graph, which the naming convention (and R6/R7 fixtures)
/// accepts.
const GENERIC_CALL_NAMES: [&str; 73] = [
    "register",
    "new",
    "default",
    "with_capacity",
    "insert",
    "remove",
    "push",
    "pop",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "extend",
    "entry",
    "or_default",
    "contains",
    "contains_key",
    "take",
    "set",
    "clone",
    "to_string",
    "to_vec",
    "to_owned",
    "into",
    "from",
    "next",
    "sum",
    "product",
    "min",
    "max",
    "map",
    "map_err",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "collect",
    "filter",
    "filter_map",
    "fold",
    "zip",
    "rev",
    "chain",
    "enumerate",
    "keys",
    "values",
    "sort",
    "sort_unstable",
    "sort_by_key",
    "join",
    "split",
    "trim",
    "parse",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drain",
    "retain",
    "position",
    "find",
    "any",
    "all",
    "copied",
    "cloned",
    "count",
    "last",
    "first",
    "flat_map",
    "for_each",
];

/// Extract per-function summaries from a token stream. Functions whose
/// `fn` token is inside a test region are skipped entirely.
pub fn scan_functions(path: &Path, toks: &[Tok], test_mask: &[bool]) -> Vec<FnSummary> {
    let close_of = crate::bracket_matches(toks);
    let mut open_of: Vec<Option<usize>> = vec![None; toks.len()];
    for (i, c) in close_of.iter().enumerate() {
        if let Some(j) = *c {
            open_of[j] = Some(i);
        }
    }

    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") || test_mask.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        // Name follows `fn` (possibly `r#`-stripped by the lexer).
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // Find the body `{` at bracket depth 0, or `;` for a bodyless decl.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut body: Option<(usize, usize)> = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        if let Some(close) = close_of[j] {
                            body = Some((j, close));
                        }
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some((open, close)) = body else {
            i = j.max(i + 1);
            continue;
        };
        out.push(scan_fn_body(
            path,
            toks,
            &close_of,
            &open_of,
            name_tok.text.clone(),
            name_tok.line,
            open,
            close,
        ));
        i = close + 1;
    }
    out
}

/// Walk backwards from `at` to the start of its statement: the token
/// after the previous `;`, `{`, or block-`}` at the same nesting level.
/// Bracketed groups encountered while scanning back are skipped over.
fn statement_start(toks: &[Tok], open_of: &[Option<usize>], body_open: usize, at: usize) -> usize {
    let mut j = at;
    while j > body_open + 1 {
        let t = &toks[j - 1];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ";" | "{" | "}" => {
                    // A `}` with a matched opener *behind* an unmatched
                    // context would be jumped below; reaching one here
                    // means the previous statement was a block.
                    return j;
                }
                ")" | "]" => {
                    if let Some(o) = open_of[j - 1] {
                        j = o;
                        continue;
                    }
                    return j;
                }
                _ => {}
            }
        }
        j -= 1;
    }
    body_open + 1
}

/// Walk forward from `at` to the end of its statement: the `;` at
/// statement level, or the token closing a bracket opened *before* the
/// statement began. Closers whose opener is inside the statement are
/// part of it and walked over.
fn statement_end(
    toks: &[Tok],
    close_of: &[Option<usize>],
    open_of: &[Option<usize>],
    body_close: usize,
    stmt_s: usize,
    at: usize,
) -> usize {
    let mut j = at;
    while j < body_close {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ";" => return j,
                "(" | "[" | "{" => {
                    if let Some(c) = close_of[j] {
                        j = c + 1;
                        continue;
                    }
                    return j;
                }
                ")" | "]" | "}" => match open_of[j] {
                    Some(o) if o >= stmt_s => {
                        j += 1;
                        continue;
                    }
                    _ => return j,
                },
                _ => {}
            }
        }
        j += 1;
    }
    body_close
}

/// Innermost `{` enclosing each token in `[open, close]`.
fn enclosing_blocks(toks: &[Tok], open: usize, close: usize) -> Vec<usize> {
    let mut encl = vec![open; close + 1 - open];
    let mut stack = vec![open];
    for j in open + 1..close {
        let t = &toks[j];
        encl[j - open] = *stack.last().unwrap_or(&open);
        if t.is_punct('{') {
            stack.push(j);
        } else if t.is_punct('}') {
            stack.pop();
        }
    }
    encl
}

#[allow(clippy::too_many_arguments)]
fn scan_fn_body(
    path: &Path,
    toks: &[Tok],
    close_of: &[Option<usize>],
    open_of: &[Option<usize>],
    name: String,
    line: u32,
    open: usize,
    close: usize,
) -> FnSummary {
    let path_str = path.to_string_lossy().replace('\\', "/");
    let encl = enclosing_blocks(toks, open, close);
    let block_close = |tok: usize| -> usize {
        let b = encl[tok - open];
        close_of[b].unwrap_or(close).min(close)
    };

    let mut acquires: Vec<Acq> = Vec::new();
    // `with_write` closure params in scope: (name, span_start, span_end).
    let mut catalog_params: Vec<(String, usize, usize)> = Vec::new();

    // ---- Pass A: direct acquisitions --------------------------------
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        let is_acq_method = (t.is_ident("read") || t.is_ident("write") || t.is_ident("lock"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
            && i > open + 1
            && toks[i - 1].is_punct('.');
        let is_with_write = t.is_ident("with_write")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && i > open + 1
            && toks[i - 1].is_punct('.');

        if is_with_write {
            // The closure argument runs under the catalog write lock.
            let span_end = close_of[i + 1].unwrap_or(close).min(close);
            // Remember the closure parameter: calls on it are Catalog
            // methods, which scopes their call-graph resolution.
            for k in i + 2..span_end.min(i + 8) {
                if toks[k].is_punct('|') && toks[k + 1].kind == TokKind::Ident {
                    catalog_params.push((toks[k + 1].text.clone(), i, span_end));
                    break;
                }
            }
            acquires.push(Acq {
                kind: LockKind::Catalog,
                line: t.line,
                tok: i,
                span_end,
            });
            i += 1;
            continue;
        }
        if !is_acq_method {
            i += 1;
            continue;
        }

        let stmt_s = statement_start(toks, open_of, open, i);
        let stmt_e = statement_end(toks, close_of, open_of, close, stmt_s, i);

        // Receiver: `expr . read ( )` — the token before the dot.
        let recv_idx = i - 2;
        let recv_tok = &toks[recv_idx];
        let receiver = match recv_tok.kind {
            TokKind::Ident | TokKind::Num => recv_tok.text.clone(),
            TokKind::Punct if recv_tok.is_punct(')') => {
                // `registry().lock()` — name the call.
                open_of[recv_idx]
                    .and_then(|o| o.checked_sub(1))
                    .map(|k| toks[k].text.clone())
                    .unwrap_or_else(|| "?".into())
            }
            _ => "?".into(),
        };
        let kind = lock_kind(&receiver, &path_str);

        // Binding analysis → held span.
        let s0 = &toks[stmt_s];
        let mut span_end;
        let mut bound_name: Option<String> = None;
        if s0.is_ident("let") {
            let mut k = stmt_s + 1;
            if toks[k].is_ident("mut") {
                k += 1;
            }
            if toks[k].kind == TokKind::Ident {
                bound_name = Some(toks[k].text.clone());
            }
            span_end = block_close(stmt_s);
        } else if s0.kind == TokKind::Ident
            && toks.get(stmt_s + 1).is_some_and(|t| t.is_punct('='))
            && !toks.get(stmt_s + 2).is_some_and(|t| t.is_punct('='))
        {
            // `g = …;` — find the bare `let g;` declaration's block.
            bound_name = Some(s0.text.clone());
            let mut decl_block_end = block_close(stmt_s);
            for k in open + 1..stmt_s {
                if toks[k].is_ident("let") {
                    let mut m = k + 1;
                    if toks[m].is_ident("mut") {
                        m += 1;
                    }
                    if toks[m].is_ident(&s0.text)
                        && toks
                            .get(m + 1)
                            .is_some_and(|t| t.is_punct(';') || t.is_punct(':'))
                    {
                        decl_block_end = block_close(k);
                    }
                }
            }
            span_end = decl_block_end;
        } else {
            span_end = stmt_e;
        }

        // An explicit `drop(g)` releases early.
        if let Some(g) = &bound_name {
            for k in stmt_e..span_end.saturating_sub(2) {
                if toks[k].is_ident("drop")
                    && toks[k + 1].is_punct('(')
                    && toks[k + 2].is_ident(g)
                    && toks[k + 3].is_punct(')')
                {
                    span_end = k;
                    break;
                }
            }
        }

        acquires.push(Acq {
            kind,
            line: t.line,
            tok: i,
            span_end,
        });
        i += 1;
    }

    // ---- Pass B: nested edges ----------------------------------------
    let mut edges: Vec<LockEdge> = Vec::new();
    for a in &acquires {
        for b in &acquires {
            if b.tok > a.tok && b.tok <= a.span_end {
                edges.push(LockEdge {
                    from: a.kind.clone(),
                    to: b.kind.clone(),
                    line: b.line,
                    via: String::new(),
                });
            }
        }
    }

    // ---- Pass C: foreign markers and calls --------------------------
    let held_at = |tok: usize| -> Vec<LockKind> {
        let mut held: Vec<LockKind> = acquires
            .iter()
            .filter(|a| tok > a.tok && tok <= a.span_end)
            .map(|a| a.kind.clone())
            .collect();
        held.sort();
        held.dedup();
        held
    };

    // Wrapper spans first, so raw-callback markers inside them don't
    // double-report.
    let mut wrapper_spans: Vec<(usize, usize)> = Vec::new();
    let mut foreign: Vec<ForeignEvent> = Vec::new();
    for k in open + 1..close {
        let t = &toks[k];
        if t.kind == TokKind::Ident
            && FOREIGN_WRAPPERS.contains(&t.text.as_str())
            && toks.get(k + 1).is_some_and(|p| p.is_punct('('))
        {
            let end = close_of[k + 1].unwrap_or(close).min(close);
            wrapper_spans.push((k, end));
            foreign.push(ForeignEvent {
                what: format!("`{}(…)`", t.text),
                line: t.line,
                held: held_at(k),
            });
        }
    }
    for k in open + 1..close {
        let t = &toks[k];
        if t.kind == TokKind::Ident
            && FOREIGN_METHODS.contains(&t.text.as_str())
            && k > open + 1
            && toks[k - 1].is_punct('.')
            && toks.get(k + 1).is_some_and(|p| p.is_punct('('))
            && !wrapper_spans.iter().any(|&(a, b)| k > a && k < b)
        {
            // Zero-arg `.iter()` / the admission `state.lock()` field
            // access are not accumulator callbacks.
            if t.text == "iter" && toks.get(k + 2).is_some_and(|p| p.is_punct(')')) {
                continue;
            }
            foreign.push(ForeignEvent {
                what: format!("raw accumulator call `.{}(…)`", t.text),
                line: t.line,
                held: held_at(k),
            });
        }
    }

    let mut calls: Vec<CallEvent> = Vec::new();
    for k in open + 1..close {
        let t = &toks[k];
        if t.kind != TokKind::Ident || !toks.get(k + 1).is_some_and(|p| p.is_punct('(')) {
            continue;
        }
        let name_str = t.text.as_str();
        // `failpoint` is cfg-gated test instrumentation, compiled out of
        // release builds — not a lock-relevant call target.
        if NON_CALL_IDENTS.contains(&name_str)
            || FOREIGN_WRAPPERS.contains(&name_str)
            // Accumulator methods are foreign *markers*, never call-graph
            // targets (a zero-arg `.iter()` is slice iteration).
            || FOREIGN_METHODS.contains(&name_str)
            || GENERIC_CALL_NAMES.contains(&name_str)
            || matches!(name_str, "read" | "write" | "lock" | "drop" | "failpoint")
            || name_str
                .chars()
                .next()
                .is_some_and(|c| c.is_uppercase())
        {
            continue;
        }
        let file_hint = (k >= 2
            && toks[k - 1].is_punct('.')
            && catalog_params
                .iter()
                .any(|(p, s, e)| k > *s && k < *e && toks[k - 2].is_ident(p)))
        .then_some("catalog");
        calls.push(CallEvent {
            name: t.text.clone(),
            line: t.line,
            held: held_at(k),
            in_wrapper: wrapper_spans.iter().any(|&(a, b)| k > a && k < b),
            file_hint,
        });
    }

    FnSummary {
        name,
        file: path.to_path_buf(),
        line,
        acquires,
        edges,
        calls,
        foreign,
    }
}
