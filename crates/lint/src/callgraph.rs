//! Cross-procedural lock analysis: propagate per-function lock
//! summaries ([`crate::locks::FnSummary`]) through direct calls and
//! report R6 (lock-order) and R7 (foreign-code-under-lock) findings.
//!
//! Resolution is by bare function name across every linted file — a
//! deliberately conservative choice for a lexical analyzer: two methods
//! sharing a name merge their summaries, which can only *add* edges,
//! never hide one.

use crate::lexer::TokKind;
use crate::locks::{FnSummary, LockKind};
use crate::{FileReport, Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Locks under which reaching foreign (UDA/closure) code is an R7
/// violation: the store lock that serializes cell maintenance, and the
/// catalog lock every reader shares.
fn sensitive(kind: &LockKind) -> bool {
    matches!(kind, LockKind::Store | LockKind::Catalog)
}

/// Run the inter-procedural R6/R7 checks over a set of file reports.
/// Suppressions are applied here, using each file's own `Allows`.
pub fn check_lock_discipline(reports: &[&FileReport]) -> Vec<Finding> {
    let fns: Vec<&FnSummary> = reports.iter().flat_map(|r| &r.fns).collect();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    // Honour a call's resolution scope (e.g. `with_write` closure calls
    // only resolve against catalog.rs).
    let resolves = |call: &crate::locks::CallEvent, c: usize| -> bool {
        call.file_hint
            .is_none_or(|hint| fns[c].file.to_string_lossy().contains(hint))
    };

    // ---- Fixpoint: effective acquisitions & foreign reachability ----
    let mut acquires: Vec<BTreeSet<LockKind>> = fns
        .iter()
        .map(|f| f.acquires.iter().map(|a| a.kind.clone()).collect())
        .collect();
    // `reaches[i]` = Some(description of how fn i reaches foreign code).
    let mut reaches: Vec<Option<String>> = fns
        .iter()
        .map(|f| f.foreign.first().map(|e| e.what.clone()))
        .collect();

    loop {
        let mut changed = false;
        for (i, f) in fns.iter().enumerate() {
            for call in &f.calls {
                let Some(callees) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                for &c in callees {
                    if c == i || !resolves(call, c) {
                        continue;
                    }
                    let add: Vec<LockKind> = acquires[c]
                        .iter()
                        .filter(|k| !acquires[i].contains(*k))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        acquires[i].extend(add);
                        changed = true;
                    }
                    if reaches[i].is_none() {
                        if let Some(via) = &reaches[c] {
                            reaches[i] = Some(format!("{} → {}", call.name, via));
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- Build the global lock graph --------------------------------
    // Edge (from → to) with one witness (file, line, description).
    let mut edges: BTreeMap<(LockKind, LockKind), (usize, u32, String)> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        for e in &f.edges {
            edges.entry((e.from.clone(), e.to.clone())).or_insert((
                i,
                e.line,
                format!("`{}` acquires {} while holding {}", f.name, e.to, e.from),
            ));
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            let Some(callees) = by_name.get(call.name.as_str()) else {
                continue;
            };
            for &c in callees {
                if c == i || !resolves(call, c) {
                    continue;
                }
                for to in &acquires[c] {
                    for from in &call.held {
                        edges.entry((from.clone(), to.clone())).or_insert((
                            i,
                            call.line,
                            format!(
                                "`{}` calls `{}` (which acquires {}) while holding {}",
                                f.name, call.name, to, from
                            ),
                        ));
                    }
                }
            }
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut push = |fn_idx: usize, line: u32, rule: Rule, message: String| {
        let file = &fns[fn_idx].file;
        let allowed = reports
            .iter()
            .find(|r| &r.path == file)
            .is_some_and(|r| r.allows.allowed(rule, line));
        if !allowed {
            findings.push(Finding {
                file: file.clone(),
                line,
                rule,
                message,
            });
        }
    };

    // ---- R6a: hierarchy inversions and re-acquisition ---------------
    for ((from, to), (i, line, via)) in &edges {
        if from == to {
            push(
                *i,
                *line,
                Rule::LockOrder,
                format!(
                    "the {from} lock is (transitively) re-acquired while already held — \
                     self-deadlock on a non-reentrant lock: {via}"
                ),
            );
        } else if let (Some(a), Some(b)) = (from.rank(), to.rank()) {
            if a > b {
                push(
                    *i,
                    *line,
                    Rule::LockOrder,
                    format!(
                        "lock-order inversion: {to} is acquired while {from} is held, \
                         against the documented hierarchy \
                         (catalog → cache → store): {via}"
                    ),
                );
            }
        }
    }

    // ---- R6b: cycles in the lock graph ------------------------------
    // DFS over distinct-kind edges; each back-edge is one reported cycle.
    let mut adj: BTreeMap<&LockKind, Vec<&LockKind>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        if from != to {
            adj.entry(from).or_default().push(to);
        }
    }
    let nodes: Vec<&LockKind> = adj.keys().copied().collect();
    let mut visited: BTreeSet<&LockKind> = BTreeSet::new();
    for &start in &nodes {
        if visited.contains(start) {
            continue;
        }
        let mut stack: Vec<(&LockKind, usize)> = vec![(start, 0)];
        let mut on_path: Vec<&LockKind> = vec![start];
        visited.insert(start);
        while let Some((node, next)) = stack.last().cloned() {
            let succs = adj.get(node).cloned().unwrap_or_default();
            if next >= succs.len() {
                stack.pop();
                on_path.pop();
                continue;
            }
            stack.last_mut().expect("non-empty").1 += 1;
            let succ = succs[next];
            if let Some(pos) = on_path.iter().position(|&k| k == succ) {
                // Back-edge node → succ closes a cycle.
                let cycle: Vec<String> = on_path[pos..]
                    .iter()
                    .map(|k| k.to_string())
                    .chain(std::iter::once(succ.to_string()))
                    .collect();
                let (i, line, via) = &edges[&((*node).clone(), (*succ).clone())];
                push(
                    *i,
                    *line,
                    Rule::LockOrder,
                    format!(
                        "lock acquisition cycle: {} — two threads entering this cycle \
                         from different points deadlock ({via})",
                        cycle.join(" → ")
                    ),
                );
            } else if !visited.contains(succ) {
                visited.insert(succ);
                on_path.push(succ);
                stack.push((succ, 0));
            }
        }
    }

    // ---- R7: foreign code reachable under a sensitive lock ----------
    for (i, f) in fns.iter().enumerate() {
        for ev in &f.foreign {
            if let Some(k) = ev.held.iter().find(|k| sensitive(k)) {
                push(
                    i,
                    ev.line,
                    Rule::Foreign,
                    format!(
                        "{} runs while the {k} lock is held — user/UDA code under an \
                         engine lock can stall or poison every other session; stage \
                         outside the lock or annotate \
                         `cube-lint: allow(foreign, reason)`",
                        ev.what
                    ),
                );
            }
        }
        for call in &f.calls {
            if call.in_wrapper {
                continue;
            }
            let Some(k) = call.held.iter().find(|k| sensitive(k)) else {
                continue;
            };
            let Some(callees) = by_name.get(call.name.as_str()) else {
                continue;
            };
            // Direct foreign markers in the callee (or deeper) fire; use
            // the first resolved callee's witness chain.
            if let Some(via) = callees
                .iter()
                .filter(|&&c| c != i && resolves(call, c))
                .find_map(|&c| {
                    reaches[c]
                        .as_ref()
                        .map(|w| format!("{} → {}", call.name, w))
                })
            {
                push(
                    i,
                    call.line,
                    Rule::Foreign,
                    format!(
                        "this call reaches foreign (UDA/closure) code while the {k} \
                         lock is held ({via}) — stage outside the lock or annotate \
                         `cube-lint: allow(foreign, reason)`"
                    ),
                );
            }
        }
    }

    findings.sort();
    findings.dedup();
    findings
}

/// R8: every `Ordering::Relaxed` in non-test code needs a stronger
/// ordering or a reasoned suppression. Relaxed is correct for monotone
/// counters — and silently wrong for anything on the publish path
/// (catalog version, admission budget, shutdown flag), so the burden of
/// proof sits in the annotation.
pub(crate) fn r8_atomic(ctx: &crate::rules::RuleCtx<'_>, push: &mut dyn FnMut(Rule, u32, String)) {
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

/// Methods that commit a new catalog version.
const COMMIT_METHODS: [&str; 2] = ["replace_if_version", "update_table"];
/// Calls that propagate a committed version to the subcube cache.
const PROPAGATE_METHODS: [&str; 3] = ["apply_delta", "invalidate_table", "invalidate_all"];

/// R9: a catalog version commit must be lexically followed, in the same
/// function, by the cache invalidate/absorb call that propagates it —
/// so a future edit cannot commit a version the cache never hears about.
pub(crate) fn r9_commit(ctx: &crate::rules::RuleCtx<'_>, push: &mut dyn FnMut(Rule, u32, String)) {
    let p = ctx.path.to_string_lossy().replace('\\', "/");
    // The catalog itself (and the cache, which *is* the propagation
    // target) implement the mechanism; adjacency applies to callers.
    if p.ends_with("catalog.rs") || p.ends_with("cache.rs") {
        return;
    }
    let toks = ctx.toks;
    let close_of = crate::bracket_matches(toks);

    // Function extents, so "followed by" stops at the function edge.
    let mut fn_ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            if let Some(c) = close_of[j] {
                                fn_ranges.push((j, c));
                                i = j;
                            }
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
        }
        i += 1;
    }

    for &(open, close) in &fn_ranges {
        for k in open + 1..close {
            if ctx.test_mask[k] {
                continue;
            }
            let t = &toks[k];
            if t.kind != TokKind::Ident
                || !COMMIT_METHODS.contains(&t.text.as_str())
                || !toks[k - 1].is_punct('.')
                || !toks.get(k + 1).is_some_and(|p| p.is_punct('('))
            {
                continue;
            }
            let propagated = (k + 1..close).any(|m| {
                toks[m].kind == TokKind::Ident
                    && PROPAGATE_METHODS.contains(&toks[m].text.as_str())
                    && toks[m - 1].is_punct('.')
                    && toks.get(m + 1).is_some_and(|p| p.is_punct('('))
            });
            if !propagated {
                push(
                    Rule::Commit,
                    t.line,
                    format!(
                        "`{}` commits a catalog version but no cache \
                         `apply_delta`/`invalidate_table`/`invalidate_all` follows in \
                         this function — readers would serve the old subcubes forever; \
                         propagate the version here or annotate \
                         `cube-lint: allow(commit, reason)`",
                        t.text
                    ),
                );
            }
        }
    }
}
