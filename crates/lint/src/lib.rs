//! `cube_lint` — workspace invariant checker.
//!
//! The runtime machinery built in PRs 2–4 (execution governance, panic
//! isolation, fault injection) rests on *source-level* invariants that no
//! test can prove in general: a new algorithm that forgets its checkpoint
//! poll, or a call path that reaches user aggregate code outside the
//! `catch_unwind` guards, is correct on every test input and still wrong.
//! This crate checks those invariants mechanically, the way large Rust
//! systems use dylint/custom clippy passes — but self-contained (a token
//! scanner over the lexer in [`lexer`]), so it runs offline and has no
//! dependency on compiler internals.
//!
//! ## Rules
//!
//! * **R1 `checkpoint`** — every `for`/`while` loop in
//!   `crates/core/src/algorithm/` and `groupby.rs` whose header mentions a
//!   row/morsel/cell iteration subject must contain a `checkpoint`,
//!   `tick`, `poll`, or `failpoint` call in its body.
//! * **R2 `guard`** — accumulator/UDF trait calls (`init`, `iter`,
//!   `iter_super`, `final_value`, `merge`) outside `crates/aggregate` must
//!   sit inside `exec::guard`/`guarded_init`/`catch_unwind`.
//! * **R5 `wildcard`** — no `_` match arms in matches whose patterns
//!   destructure `Value`, so adding a `Value` variant fails loudly.
//! * **R8 `atomic`** — every `Ordering::Relaxed` needs a stronger
//!   ordering or a reasoned suppression.
//!
//! The rules keep only what neither a type nor a stock lint can say.
//! Panic freedom is clippy's (`unwrap_used`, `expect_used`, `panic`,
//! `unreachable`, `todo`, `unimplemented`, denied at each engine crate's
//! root), and fault sites are the `dc_aggregate::faults::Site` enum, so a
//! misspelt one does not compile.
//!
//! Lock discipline is not a rule: each engine lock is a private field of
//! one type, and which lock can be taken under which follows from field
//! ownership and the crate graph (DESIGN.md, "The four locks").
//!
//! Any finding can be suppressed with a justified annotation on the same
//! line or the line above:
//!
//! ```text
//! // cube-lint: allow(atomic, a monotone counter publishes nothing)
//! ```
//!
//! The annotation *requires* a reason — `allow(atomic)` alone does not
//! parse and the finding stands. An annotation that suppresses nothing
//! (its rule does not apply to the file, or the code it excused is gone)
//! is itself a finding under the rule it names.

pub mod lexer;
mod rules;

use lexer::{tokenize, Tok};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule produced a finding. The `code()` string is what `allow(…)`
/// annotations name; [`Rule::Allow`] marks an annotation that does not
/// parse, and no annotation can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    Checkpoint,
    Guard,
    Wildcard,
    Atomic,
    Allow,
}

impl Rule {
    /// The rules an annotation can name.
    const ALL: [Rule; 4] = [Rule::Checkpoint, Rule::Guard, Rule::Wildcard, Rule::Atomic];

    pub fn code(self) -> &'static str {
        match self {
            Rule::Checkpoint => "checkpoint",
            Rule::Guard => "guard",
            Rule::Wildcard => "wildcard",
            Rule::Atomic => "atomic",
            Rule::Allow => "allow",
        }
    }
}

/// One diagnostic: `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: PathBuf,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.code(),
            self.message
        )
    }
}

/// How a file participates in the rule set, derived from its path (and
/// overridable for fixture tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// R1 applies: an algorithm file (`crates/core/src/algorithm/*`,
    /// `groupby.rs`).
    pub algorithm: bool,
    /// R2 is *skipped*: inside `crates/aggregate`, the trait's home crate,
    /// where raw calls are the implementation itself.
    pub aggregate_crate: bool,
}

impl FileClass {
    /// Classify by workspace-relative path.
    pub fn from_path(path: &Path) -> FileClass {
        let p = path.to_string_lossy().replace('\\', "/");
        FileClass {
            algorithm: p.contains("crates/core/src/algorithm/")
                || p.ends_with("crates/core/src/groupby.rs"),
            aggregate_crate: p.contains("crates/aggregate/"),
        }
    }
}

/// `// cube-lint: allow(rule, reason)` annotations, by line.
#[derive(Debug, Default)]
pub struct Allows {
    /// (line, rule) -> whether the annotation has suppressed a finding.
    by_line: BTreeMap<(u32, Rule), bool>,
    /// Annotations that do not parse: no reason, or no such rule.
    pub malformed: Vec<(u32, String)>,
}

impl Allows {
    /// Scan raw source for annotations. Only comment text is considered:
    /// the marker must appear after a `//` on its line.
    pub fn parse(src: &str) -> Allows {
        let mut allows = Allows::default();
        for (i, raw) in src.lines().enumerate() {
            let line = i as u32 + 1;
            let Some(comment_at) = raw.find("//") else {
                continue;
            };
            let comment = &raw[comment_at..];
            let mut rest = comment;
            while let Some(pos) = rest.find("cube-lint:") {
                let after = &rest[pos + "cube-lint:".len()..];
                let trimmed = after.trim_start();
                if let Some(body) = trimmed.strip_prefix("allow(") {
                    if let Some(end) = body.find(')') {
                        let inner = &body[..end];
                        match inner.split_once(',') {
                            Some((code, reason)) if !reason.trim().is_empty() => {
                                let code = code.trim();
                                match Rule::ALL.into_iter().find(|r| r.code() == code) {
                                    Some(rule) => {
                                        allows.by_line.insert((line, rule), false);
                                    }
                                    None => allows.malformed.push((
                                        line,
                                        format!("allow({code}, …) names no cube_lint rule"),
                                    )),
                                }
                            }
                            _ => {
                                allows.malformed.push((
                                    line,
                                    format!(
                                        "allow({inner}) is missing its reason: \
                                         write `cube-lint: allow(rule, why this is safe)`"
                                    ),
                                ));
                            }
                        }
                    }
                }
                rest = &rest[pos + "cube-lint:".len()..];
            }
        }
        allows
    }

    /// Is `rule` allowed at `line`? An annotation covers its own line and
    /// the line directly below it (annotation-above style). A hit marks
    /// the annotation used.
    pub fn allowed(&mut self, rule: Rule, line: u32) -> bool {
        [line, line.saturating_sub(1)].into_iter().any(|l| {
            self.by_line
                .get_mut(&(l, rule))
                .map(|used| *used = true)
                .is_some()
        })
    }

    /// The annotations no finding has used, as `(line, rule)`.
    pub fn unused(&self) -> impl Iterator<Item = (u32, Rule)> + '_ {
        self.by_line
            .iter()
            .filter(|(_, used)| !**used)
            .map(|(&key, _)| key)
    }
}

/// Lint one file's source. `path` is used only for diagnostics.
pub fn lint_source(path: &Path, src: &str, class: FileClass) -> Vec<Finding> {
    let toks = tokenize(src);
    let mut allows = Allows::parse(src);
    let test_mask = rules::test_region_mask(&toks);
    let ctx = rules::RuleCtx {
        toks: &toks,
        test_mask: &test_mask,
    };

    let mut findings = Vec::new();
    let finding = |rule: Rule, line: u32, message: String| Finding {
        file: path.to_path_buf(),
        line,
        rule,
        message,
    };
    let mut push = |rule: Rule, line: u32, message: String| {
        if !allows.allowed(rule, line) {
            findings.push(finding(rule, line, message));
        }
    };

    if class.algorithm {
        rules::r1_checkpoint(&ctx, &mut push);
    }
    if !class.aggregate_crate {
        rules::r2_guard(&ctx, &mut push);
    }
    rules::r5_wildcard(&ctx, &mut push);
    rules::r8_atomic(&ctx, &mut push);

    // A malformed annotation is itself a finding: silent typos must not
    // silently re-enable what the author meant to suppress.
    for (line, msg) in &allows.malformed {
        findings.push(finding(Rule::Allow, *line, msg.clone()));
    }
    // So is one that suppresses nothing: it would excuse whatever code
    // later moves under it, unreviewed.
    for (line, rule) in allows.unused() {
        let code = rule.code();
        findings.push(finding(
            rule,
            line,
            format!(
                "allow({code}, …) suppresses nothing: no [{code}] finding on this line \
                 or the next — delete it"
            ),
        ));
    }
    findings
}

/// The crates whose `src/` trees the workspace lint walks. `bench` and
/// `oracle` are test/benchmark harnesses, not engine code, and are
/// deliberately out of scope (they panic by design on harness bugs).
pub const LINTED_CRATES: [&str; 5] = ["core", "aggregate", "relation", "sql", "warehouse"];

/// Walk the workspace at `root` and lint every in-scope file.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for krate in LINTED_CRATES {
        let src = root.join("crates").join(krate).join("src");
        collect_rs_files(&src, &mut files)
            .map_err(|e| format!("walking {}: {e}", src.display()))?;
    }
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        findings.extend(lint_source(&rel, &src, FileClass::from_path(&rel)));
    }
    findings.sort();
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Shared token-walking helpers the rules use (exposed for tests).
pub(crate) fn bracket_matches(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut close_of = vec![None; toks.len()];
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != lexer::TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => stack.push((t.text.chars().next().unwrap_or('('), i)),
            ")" | "]" | "}" => {
                let open = match t.text.as_str() {
                    ")" => '(',
                    "]" => '[',
                    _ => '{',
                };
                // Pop until the matching opener: tolerant of the malformed
                // nesting a lexical scan can produce.
                while let Some((c, j)) = stack.pop() {
                    if c == open {
                        close_of[j] = Some(i);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    close_of
}
