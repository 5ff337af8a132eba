//! The four rule passes. Each is a token-stream walk; see the crate docs
//! for what the rules mean and `DESIGN.md` ("Enforced invariants") for why
//! they exist.

use crate::lexer::{Tok, TokKind};
use crate::{bracket_matches, Rule};

/// Shared per-file context handed to every rule.
pub(crate) struct RuleCtx<'a> {
    pub toks: &'a [Tok],
    /// `true` for tokens inside `#[cfg(test)]` / `#[test]` items.
    pub test_mask: &'a [bool],
}

/// Mark every token that lives inside a test-only item: an item annotated
/// `#[cfg(test)]` (or `#[cfg(all(test, …))]` etc.) or `#[test]`. The rules
/// skip those regions — test code may unwrap and panic freely.
pub(crate) fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let close_of = bracket_matches(toks);
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_open = i + 1;
        let Some(attr_close) = close_of[attr_open] else {
            i += 1;
            continue;
        };
        let attr = &toks[attr_open + 1..attr_close];
        let is_test_attr = match attr.first() {
            Some(t) if t.is_ident("test") && attr.len() == 1 => true,
            Some(t) if t.is_ident("cfg") => attr.iter().any(|t| t.is_ident("test")),
            _ => false,
        };
        if !is_test_attr {
            i = attr_close + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut j = attr_close + 1;
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            match close_of[j + 1] {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        // The item extends to its body's closing brace, or to `;` for
        // item declarations without a body (`mod tests;`).
        let mut depth = 0i32;
        let mut end = j;
        while end < toks.len() {
            let t = &toks[end];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        end = close_of[end].unwrap_or(toks.len() - 1);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            end += 1;
        }
        for m in mask.iter_mut().take(end.min(toks.len() - 1) + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Identifiers that count as a governance poll inside a loop body. `tick`
/// and `checkpoint` are the real [`ExecContext`] API; `poll` is accepted
/// for future governed loops; `failpoint` sites imply a checkpoint in this
/// codebase (every failpoint macro-expands next to one).
const POLL_IDENTS: [&str; 4] = ["checkpoint", "tick", "poll", "failpoint"];

/// Loop-header identifiers that mark a data loop: iterating rows, morsels,
/// or cube cells. Substring match, so `n_rows`, `morsel_id`, `cells` all
/// qualify. Loops over other subjects (aggregate lanes, dimension indexes,
/// lattice sets) are bounded by query *shape*, not data volume, and are
/// out of scope by design.
const DATA_SUBJECTS: [&str; 3] = ["row", "morsel", "cell"];

/// R1: every data loop in an algorithm file must poll the checkpoint.
pub(crate) fn r1_checkpoint(ctx: &RuleCtx, push: &mut dyn FnMut(Rule, u32, String)) {
    let toks = ctx.toks;
    let close_of = bracket_matches(toks);
    for i in 0..toks.len() {
        if ctx.test_mask[i] {
            continue;
        }
        let kw = &toks[i];
        let is_for = kw.is_ident("for");
        let is_while = kw.is_ident("while");
        if !is_for && !is_while {
            continue;
        }
        // Find the body `{` at header depth 0. `for` must also see `in` at
        // depth 0, or it is `impl Trait for Type` / `for<'a>`.
        let mut depth = 0i32;
        let mut saw_in = false;
        let mut body_open = None;
        let mut subjects = false;
        let mut j = i + 1;
        while j < toks.len() {
            let t = &toks[j];
            match t.kind {
                TokKind::Punct => match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                },
                TokKind::Ident => {
                    if depth == 0 && t.text == "in" {
                        saw_in = true;
                    }
                    let lower = t.text.to_ascii_lowercase();
                    if DATA_SUBJECTS.iter().any(|s| lower.contains(s)) {
                        subjects = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        if is_for && !saw_in {
            continue; // `impl … for …` or a higher-ranked bound
        }
        if !subjects {
            continue;
        }
        let close = close_of[open].unwrap_or(toks.len() - 1);
        let polled = toks[open + 1..close]
            .iter()
            .any(|t| t.kind == TokKind::Ident && POLL_IDENTS.contains(&t.text.as_str()));
        if !polled {
            push(
                Rule::Checkpoint,
                kw.line,
                format!(
                    "{} loop over rows/morsels/cells has no checkpoint/tick poll in its \
                     body — a cancel or deadline cannot interrupt it; poll ExecContext \
                     or annotate `cube-lint: allow(checkpoint, reason)`",
                    if is_for { "for" } else { "while" }
                ),
            );
        }
    }
}

/// Wrappers that establish panic isolation: everything lexically inside
/// their argument list is guarded.
const GUARD_IDENTS: [&str; 3] = ["guard", "guarded_init", "catch_unwind"];

/// Accumulator/UDF trait surface (the paper's Init / Iter / Iter_super /
/// Final plus merge). These run arbitrary user code for UDAs.
const GUARDED_METHODS: [&str; 5] = ["init", "iter", "iter_super", "final_value", "merge"];

/// R2: accumulator trait calls outside `crates/aggregate` must be inside a
/// guard wrapper's argument list.
pub(crate) fn r2_guard(ctx: &RuleCtx, push: &mut dyn FnMut(Rule, u32, String)) {
    let toks = ctx.toks;
    let close_of = bracket_matches(toks);
    // Token spans covered by a guard call's parens.
    let mut guarded: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].kind == TokKind::Ident
            && GUARD_IDENTS.contains(&toks[i].text.as_str())
            && toks[i + 1].is_punct('(')
        {
            if let Some(close) = close_of[i + 1] {
                guarded.push((i + 1, close));
            }
        }
    }
    let is_guarded = |idx: usize| guarded.iter().any(|&(a, b)| a < idx && idx < b);

    for i in 1..toks.len().saturating_sub(1) {
        if ctx.test_mask[i] {
            continue;
        }
        let m = &toks[i];
        if m.kind != TokKind::Ident
            || !GUARDED_METHODS.contains(&m.text.as_str())
            || !toks[i - 1].is_punct('.')
            || !toks[i + 1].is_punct('(')
        {
            continue;
        }
        // `.iter()` with no arguments is slice iteration, not the
        // accumulator's Iter; every other method matches regardless of
        // arity (`init()` *is* zero-argument).
        if m.text == "iter" && toks.get(i + 2).is_some_and(|t| t.is_punct(')')) {
            continue;
        }
        if is_guarded(i) {
            continue;
        }
        push(
            Rule::Guard,
            m.line,
            format!(
                "raw accumulator call `.{}(…)` outside a panic guard — a panicking UDA \
                 here tears down the engine instead of becoming CubeError::AggPanicked; \
                 route it through exec::guard/guarded_init or annotate \
                 `cube-lint: allow(guard, reason)`",
                m.text
            ),
        );
    }
}

/// R5: a `match` whose patterns destructure `Value` must not have a
/// top-level `_` arm: adding a `Value` variant (say, an interval type)
/// must fail to compile everywhere its semantics matter, not silently fall
/// into the wildcard and mis-bucket ALL vs NULL (§3.4 discriminability).
pub(crate) fn r5_wildcard(ctx: &RuleCtx, push: &mut dyn FnMut(Rule, u32, String)) {
    let toks = ctx.toks;
    let close_of = bracket_matches(toks);
    for i in 0..toks.len() {
        if ctx.test_mask[i] || !toks[i].is_ident("match") {
            continue;
        }
        // Scrutinee runs to the first `{` at depth 0.
        let mut depth = 0i32;
        let mut body_open = None;
        for (j, t) in toks.iter().enumerate().skip(i + 1) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
        }
        let Some(open) = body_open else { continue };
        let Some(close) = close_of[open] else {
            continue;
        };

        let mut value_pattern = false;
        let mut wildcard_lines: Vec<u32> = Vec::new();
        let mut p = open + 1;
        while p < close {
            // Pattern span: up to `=>` at depth 0 (guard included).
            let mut depth = 0i32;
            let mut q = p;
            while q + 1 < close {
                let t = &toks[q];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "=" if depth == 0 && toks[q + 1].is_punct('>') => break,
                        _ => {}
                    }
                }
                q += 1;
            }
            if q + 1 >= close {
                break;
            }
            let pattern = &toks[p..q];
            // `Value::Int(…)` paths, or — after `use Value::*` — the bare
            // `All` token, which only the cube's value domain defines.
            if pattern
                .windows(3)
                .any(|w| w[0].is_ident("Value") && w[1].is_punct(':') && w[2].is_punct(':'))
                || pattern.iter().any(|t| t.is_ident("All"))
            {
                value_pattern = true;
            }
            if let Some(line) = wildcard_in_pattern(pattern) {
                wildcard_lines.push(line);
            }
            // Arm body: a braced block (plus optional comma) or an
            // expression up to the next depth-0 comma.
            let mut r = q + 2;
            if r < close && toks[r].is_punct('{') {
                r = close_of[r].unwrap_or(close);
                r += 1;
                if r < close && toks[r].is_punct(',') {
                    r += 1;
                }
            } else {
                let mut depth = 0i32;
                while r < close {
                    let t = &toks[r];
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "," if depth == 0 => {
                                r += 1;
                                break;
                            }
                            _ => {}
                        }
                    }
                    r += 1;
                }
            }
            p = r;
        }
        if value_pattern {
            for line in wildcard_lines {
                push(
                    Rule::Wildcard,
                    line,
                    "wildcard `_` arm in a match over Value — a new Value variant would \
                     silently fall through here instead of failing to compile; list the \
                     variants or annotate `cube-lint: allow(wildcard, reason)`"
                        .into(),
                );
            }
        }
    }
}

/// Does this arm pattern contain a *top-level* lone `_` (possibly one of
/// several `|` alternatives, possibly guarded)? Returns its line.
fn wildcard_in_pattern(pattern: &[Tok]) -> Option<u32> {
    // Truncate at a depth-0 `if` guard.
    let mut depth = 0i32;
    let mut end = pattern.len();
    for (i, t) in pattern.iter().enumerate() {
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            },
            TokKind::Ident if depth == 0 && t.text == "if" => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    // Split into `|` alternatives at depth 0.
    let mut depth = 0i32;
    let mut alt_start = 0usize;
    let mut alts: Vec<(usize, usize)> = Vec::new();
    for (i, t) in pattern[..end].iter().enumerate() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "|" if depth == 0 => {
                    alts.push((alt_start, i));
                    alt_start = i + 1;
                }
                _ => {}
            }
        }
    }
    alts.push((alt_start, end));
    for (a, b) in alts {
        let alt = &pattern[a..b];
        if alt.len() == 1 && alt[0].is_ident("_") {
            return Some(alt[0].line);
        }
    }
    None
}

/// R8: every `Ordering::Relaxed` in non-test code needs a stronger
/// ordering or a reasoned suppression. Relaxed is correct for monotone
/// counters — and silently wrong for anything on the publish path
/// (catalog version, admission budget, shutdown flag), so the burden of
/// proof sits in the annotation.
pub(crate) fn r8_atomic(ctx: &RuleCtx, push: &mut dyn FnMut(Rule, u32, String)) {
    let toks = ctx.toks;
    for i in 0..toks.len().saturating_sub(3) {
        if ctx.test_mask[i] {
            continue;
        }
        if toks[i].is_ident("Ordering")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("Relaxed")
        {
            push(
                Rule::Atomic,
                toks[i + 3].line,
                "`Ordering::Relaxed` — relaxed loads/stores may reorder against the \
                 data they publish; use Acquire/Release/SeqCst, or annotate \
                 `cube-lint: allow(atomic, reason)` if this atomic publishes nothing"
                    .into(),
            );
        }
    }
}
