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
//! * **R3 `faults`** — the site names declared in
//!   `crates/aggregate/src/faults.rs` (`SITES`) must exactly equal the set
//!   referenced at `failpoint("…")`/`faults::hit("…")` injection points.
//! * **R4 `panic`** — no `unwrap()`/`expect()`/`panic!`/`unreachable!`/
//!   `todo!`/`unimplemented!` in non-test library code.
//! * **R5 `wildcard`** — no `_` match arms in matches whose patterns
//!   destructure `Value`, so adding a `Value` variant fails loudly.
//! * **R6 `lockorder`** — the inter-procedural lock graph (built from
//!   per-function acquisition summaries in [`locks`], propagated through
//!   direct calls in [`callgraph`]) must be acyclic, never re-acquire a
//!   lock already held, and respect the documented hierarchy (catalog →
//!   cache → store).
//! * **R7 `foreign`** — no `exec::guard`/`guarded_init`/`catch_unwind`
//!   or raw accumulator callback reachable while a store or catalog
//!   lock is held.
//! * **R8 `atomic`** — every `Ordering::Relaxed` needs a stronger
//!   ordering or a reasoned suppression.
//! * **R9 `commit`** — a catalog version commit
//!   (`replace_if_version`/`update_table`) must be followed in the same
//!   function by the cache call that propagates it.
//!
//! Any finding can be suppressed with a justified annotation on the same
//! line or the line above:
//!
//! ```text
//! // cube-lint: allow(panic, len checked above)
//! ```
//!
//! The annotation *requires* a reason — `allow(panic)` alone does not
//! parse and the finding stands.

mod callgraph;
pub mod lexer;
pub mod locks;
mod rules;

pub use callgraph::check_lock_discipline;

use lexer::{tokenize, Tok};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule produced a finding. The `code()` string is what `allow(…)`
/// annotations name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    Checkpoint,
    Guard,
    Faults,
    Panic,
    Wildcard,
    LockOrder,
    Foreign,
    Atomic,
    Commit,
}

impl Rule {
    pub fn code(self) -> &'static str {
        match self {
            Rule::Checkpoint => "checkpoint",
            Rule::Guard => "guard",
            Rule::Faults => "faults",
            Rule::Panic => "panic",
            Rule::Wildcard => "wildcard",
            Rule::LockOrder => "lockorder",
            Rule::Foreign => "foreign",
            Rule::Atomic => "atomic",
            Rule::Commit => "commit",
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

impl Finding {
    /// Render as a JSON object (hand-rolled; no serde in the toolchain).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"file":{},"line":{},"rule":{},"message":{}}}"#,
            json_str(&self.file.display().to_string()),
            self.line,
            json_str(self.rule.code()),
            json_str(&self.message)
        )
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a full findings list as a JSON array.
pub fn render_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings.iter().map(Finding::to_json).collect();
    format!("[{}]", items.join(","))
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
    /// This is the fault-site registry (`crates/aggregate/src/faults.rs`):
    /// R3 reads `SITES` from it and ignores its internal `hit` machinery.
    pub faults_registry: bool,
}

impl FileClass {
    /// Classify by workspace-relative path.
    pub fn from_path(path: &Path) -> FileClass {
        let p = path.to_string_lossy().replace('\\', "/");
        FileClass {
            algorithm: p.contains("crates/core/src/algorithm/")
                || p.ends_with("crates/core/src/groupby.rs"),
            aggregate_crate: p.contains("crates/aggregate/"),
            faults_registry: p.ends_with("crates/aggregate/src/faults.rs"),
        }
    }
}

/// `// cube-lint: allow(rule, reason)` annotations, by line.
#[derive(Debug, Default)]
pub struct Allows {
    /// line -> set of rule codes allowed there.
    by_line: BTreeMap<u32, BTreeSet<String>>,
    /// Annotations that never matched a finding (for future use; also
    /// catches `allow(panic)` written without a reason).
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
                            Some((rule, reason)) if !reason.trim().is_empty() => {
                                allows
                                    .by_line
                                    .entry(line)
                                    .or_default()
                                    .insert(rule.trim().to_string());
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
    /// the line directly below it (annotation-above style).
    pub fn allowed(&self, rule: Rule, line: u32) -> bool {
        let hit = |l: u32| {
            self.by_line
                .get(&l)
                .is_some_and(|set| set.contains(rule.code()))
        };
        hit(line) || (line > 0 && hit(line - 1))
    }
}

/// Everything one file contributes: its findings plus the cross-file
/// fault-site facts R3 aggregates at workspace level.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    /// The path the file was linted under (workspace-relative), so the
    /// cross-file passes can attribute findings and suppressions.
    pub path: PathBuf,
    /// Site names declared in the `SITES` const (registry file only),
    /// with the line of each declaration.
    pub declared_sites: Vec<(String, u32)>,
    /// Line of the `SITES` declaration itself, for orphan diagnostics.
    pub sites_decl_line: Option<u32>,
    /// Site names referenced at injection points in this file.
    pub referenced_sites: Vec<(String, u32)>,
    /// Per-function lock summaries for the R6/R7 call-graph pass.
    pub fns: Vec<locks::FnSummary>,
    /// The file's suppression annotations, re-consulted by the
    /// workspace-level passes (which run after `lint_source` returns).
    pub allows: Allows,
}

/// Lint one file's source. `path` is used only for diagnostics.
pub fn lint_source(path: &Path, src: &str, class: FileClass) -> FileReport {
    let toks = tokenize(src);
    let allows = Allows::parse(src);
    let test_mask = rules::test_region_mask(&toks);
    let ctx = rules::RuleCtx {
        path,
        toks: &toks,
        test_mask: &test_mask,
        class,
    };

    let mut report = FileReport::default();
    let mut push = |rule: Rule, line: u32, message: String| {
        if !allows.allowed(rule, line) {
            report.findings.push(Finding {
                file: path.to_path_buf(),
                line,
                rule,
                message,
            });
        }
    };

    if class.algorithm {
        rules::r1_checkpoint(&ctx, &mut push);
    }
    if !class.aggregate_crate {
        rules::r2_guard(&ctx, &mut push);
    }
    rules::r4_panic(&ctx, &mut push);
    rules::r5_wildcard(&ctx, &mut push);
    callgraph::r8_atomic(&ctx, &mut push);
    callgraph::r9_commit(&ctx, &mut push);

    // A malformed annotation is itself a finding: silent typos must not
    // silently re-enable what the author meant to suppress.
    for (line, msg) in &allows.malformed {
        report.findings.push(Finding {
            file: path.to_path_buf(),
            line: *line,
            rule: Rule::Panic,
            message: msg.clone(),
        });
    }

    if class.faults_registry {
        let (declared, decl_line) = rules::r3_declared_sites(&ctx);
        report.declared_sites = declared;
        report.sites_decl_line = decl_line;
    } else {
        report.referenced_sites = rules::r3_referenced_sites(&ctx);
    }
    report.fns = locks::scan_functions(path, &toks, &test_mask);
    report.path = path.to_path_buf();
    report.allows = allows;
    report
}

/// Cross-file R3 check: declared set == referenced set, no duplicates.
pub fn check_fault_sites(
    registry_path: &Path,
    declared: &[(String, u32)],
    sites_decl_line: Option<u32>,
    referenced: &[(PathBuf, String, u32)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
    for (name, line) in declared {
        if seen.insert(name.as_str(), *line).is_some() {
            findings.push(Finding {
                file: registry_path.to_path_buf(),
                line: *line,
                rule: Rule::Faults,
                message: format!("fault site \"{name}\" declared more than once in SITES"),
            });
        }
    }
    if sites_decl_line.is_none() {
        findings.push(Finding {
            file: registry_path.to_path_buf(),
            line: 1,
            rule: Rule::Faults,
            message: "faults registry has no `SITES` declaration for cube_lint to check".into(),
        });
        return findings;
    }
    let declared_set: BTreeSet<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    let mut referenced_set: BTreeSet<&str> = BTreeSet::new();
    for (file, name, line) in referenced {
        referenced_set.insert(name.as_str());
        if !declared_set.contains(name.as_str()) {
            findings.push(Finding {
                file: file.clone(),
                line: *line,
                rule: Rule::Faults,
                message: format!(
                    "fault site \"{name}\" is injected here but not declared in \
                     faults::SITES — register it so tests can enumerate every site"
                ),
            });
        }
    }
    for (name, line) in declared {
        if !referenced_set.contains(name.as_str()) {
            findings.push(Finding {
                file: registry_path.to_path_buf(),
                line: *line,
                rule: Rule::Faults,
                message: format!(
                    "fault site \"{name}\" is declared in SITES but no failpoint \
                     references it — remove it or wire up the injection point"
                ),
            });
        }
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
    let mut declared: Vec<(String, u32)> = Vec::new();
    let mut sites_decl_line = None;
    let mut registry_path = root.join("crates/aggregate/src/faults.rs");
    let mut referenced: Vec<(PathBuf, String, u32)> = Vec::new();
    let mut reports: Vec<FileReport> = Vec::new();

    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        let class = FileClass::from_path(&rel);
        let mut report = lint_source(&rel, &src, class);
        findings.append(&mut report.findings);
        if class.faults_registry {
            declared = report.declared_sites.clone();
            sites_decl_line = report.sites_decl_line;
            registry_path = rel.clone();
        }
        for (name, line) in &report.referenced_sites {
            referenced.push((rel.clone(), name.clone(), *line));
        }
        reports.push(report);
    }
    findings.extend(check_fault_sites(
        &registry_path,
        &declared,
        sites_decl_line,
        &referenced,
    ));
    let report_refs: Vec<&FileReport> = reports.iter().collect();
    findings.extend(callgraph::check_lock_discipline(&report_refs));
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
