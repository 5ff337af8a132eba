//! Self-test for cube_lint: every rule is exercised against the fixture
//! sources under `tests/fixtures/` (fire cases, allow cases, and edge
//! cases), the cross-file R3 check against synthetic registries, and the
//! CLI end-to-end against a deliberately broken mini-workspace in
//! `tests/fixtures/ws/` — plus a run against the real workspace, which
//! must be clean.
//!
//! Fixture `.rs` files are data, not code: they are never compiled, so
//! they can hold violations the real workspace is forbidden to contain.

use cube_lint::{
    check_fault_sites, check_lock_discipline, lint_source, render_json, FileClass, FileReport, Rule,
};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixture(name: &str, class: FileClass) -> FileReport {
    let path = fixture_dir().join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    lint_source(&path, &src, class)
}

/// The (rule, line) pairs of a report, sorted — the shape every fixture
/// asserts against.
fn rule_lines(report: &FileReport) -> Vec<(Rule, u32)> {
    let mut v: Vec<(Rule, u32)> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    v.sort();
    v
}

#[test]
fn r1_checkpoint_fixture() {
    let report = lint_fixture(
        "checkpoint.rs",
        FileClass {
            algorithm: true,
            ..FileClass::default()
        },
    );
    // Fires: the bare `for row` loop, the `while … n_rows` loop, and the
    // inner loop of the nested pair (the outer one polls). Everything
    // else — ticked, failpointed, annotated, non-data loops, `impl
    // Iterator for Rows`, and the `#[cfg(test)]` module — stays silent.
    assert_eq!(
        rule_lines(&report),
        vec![
            (Rule::Checkpoint, 5),
            (Rule::Checkpoint, 12),
            (Rule::Checkpoint, 20),
        ],
        "unexpected findings: {:#?}",
        report.findings
    );
}

#[test]
fn r1_is_scoped_to_algorithm_files() {
    // The same source with `algorithm: false` produces nothing: R1 only
    // applies to `crates/core/src/algorithm/` and `groupby.rs`.
    let report = lint_fixture("checkpoint.rs", FileClass::default());
    assert_eq!(rule_lines(&report), vec![], "{:#?}", report.findings);
}

#[test]
fn r2_guard_fixture() {
    let report = lint_fixture("guard.rs", FileClass::default());
    // One fire per raw lifecycle call; guarded calls, zero-arg slice
    // `.iter()`, the annotated kernel merge, and test code stay silent.
    assert_eq!(
        rule_lines(&report),
        vec![
            (Rule::Guard, 5),
            (Rule::Guard, 6),
            (Rule::Guard, 7),
            (Rule::Guard, 8),
            (Rule::Guard, 9),
        ],
        "unexpected findings: {:#?}",
        report.findings
    );
}

#[test]
fn r2_is_skipped_inside_the_aggregate_crate() {
    let report = lint_fixture(
        "guard.rs",
        FileClass {
            aggregate_crate: true,
            ..FileClass::default()
        },
    );
    assert_eq!(rule_lines(&report), vec![], "{:#?}", report.findings);
}

#[test]
fn r4_panic_fixture() {
    let report = lint_fixture("panic.rs", FileClass::default());
    // Six panic surfaces fire, plus the malformed annotation: it is
    // itself a finding (line 45) AND fails to suppress the unwrap below
    // it (line 46). Strings, comments, unwrap_or/unwrap_or_else, the two
    // well-formed annotations, and the test module stay silent.
    assert_eq!(
        rule_lines(&report),
        vec![
            (Rule::Panic, 4),
            (Rule::Panic, 8),
            (Rule::Panic, 13),
            (Rule::Panic, 16),
            (Rule::Panic, 17),
            (Rule::Panic, 18),
            (Rule::Panic, 45),
            (Rule::Panic, 46),
        ],
        "unexpected findings: {:#?}",
        report.findings
    );
    let malformed = report
        .findings
        .iter()
        .find(|f| f.line == 45)
        .expect("malformed-annotation finding");
    assert!(
        malformed.message.contains("missing its reason"),
        "got: {}",
        malformed.message
    );
}

#[test]
fn r5_wildcard_fixture() {
    let report = lint_fixture("wildcard.rs", FileClass::default());
    // Fires: the plain `_`, the `_` in a `use Value::*` match (bare `All`
    // marks the domain), the `_` inside a `|` alternative, and both the
    // guarded and unguarded wildcard arms. Exhaustive matches, nested
    // `Value::Int(_)` binders, non-Value matches, the annotated arm, and
    // test code stay silent.
    assert_eq!(
        rule_lines(&report),
        vec![
            (Rule::Wildcard, 7),
            (Rule::Wildcard, 16),
            (Rule::Wildcard, 23),
            (Rule::Wildcard, 30),
            (Rule::Wildcard, 31),
        ],
        "unexpected findings: {:#?}",
        report.findings
    );
}

/// The (rule, line) pairs the cross-procedural pass produces for one
/// fixture, analyzed in isolation.
fn discipline_lines(report: &FileReport) -> Vec<(Rule, u32)> {
    let mut v: Vec<(Rule, u32)> = check_lock_discipline(&[report])
        .iter()
        .map(|f| (f.rule, f.line))
        .collect();
    v.sort();
    v
}

/// Per-file findings of one rule only (R8/R9 fixtures also trip other
/// per-file rules by construction; those are asserted elsewhere).
fn rule_lines_of(report: &FileReport, rule: Rule) -> Vec<(Rule, u32)> {
    let mut v: Vec<(Rule, u32)> = report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.rule, f.line))
        .collect();
    v.sort();
    v
}

#[test]
fn r6_lockorder_fixture() {
    let report = lint_fixture("lockorder.rs", FileClass::default());
    let lockorder: Vec<(Rule, u32)> = discipline_lines(&report)
        .into_iter()
        .filter(|(r, _)| *r == Rule::LockOrder)
        .collect();
    // Fires: cache-under-store (an inversion, and the back edge of the
    // cache → store → cache cycle), the catalog-under-store inversion, and
    // the store re-acquisition. Store-under-cache, the annotated
    // inversion and the test module stay silent.
    assert_eq!(
        lockorder,
        vec![
            (Rule::LockOrder, 17),
            (Rule::LockOrder, 17),
            (Rule::LockOrder, 24),
            (Rule::LockOrder, 31),
        ],
        "unexpected findings: {:#?}",
        check_lock_discipline(&[&report])
    );
}

#[test]
fn r7_foreign_fixture() {
    let report = lint_fixture("foreign.rs", FileClass::default());
    let foreign: Vec<(Rule, u32)> = discipline_lines(&report)
        .into_iter()
        .filter(|(r, _)| *r == Rule::Foreign)
        .collect();
    // Fires: the guard wrapper under the store read-lock, the raw merge
    // under the catalog lock, and the transitive reach through the helper. The
    // unlocked guard, the cache-mutex absorb, the annotated call, and
    // zero-arg slice `.iter()` stay silent.
    assert_eq!(
        foreign,
        vec![(Rule::Foreign, 8), (Rule::Foreign, 14), (Rule::Foreign, 33)],
        "unexpected findings: {:#?}",
        check_lock_discipline(&[&report])
    );
}

#[test]
fn r8_atomic_fixture() {
    let report = lint_fixture("atomic.rs", FileClass::default());
    // Fires: the relaxed store on the publish path and the
    // fully-qualified relaxed shutdown store. Acquire/Release uses, the
    // annotated monotone counter, and test code stay silent.
    assert_eq!(
        rule_lines_of(&report, Rule::Atomic),
        vec![(Rule::Atomic, 7), (Rule::Atomic, 28)],
        "unexpected findings: {:#?}",
        report.findings
    );
}

#[test]
fn r9_commit_fixture() {
    let report = lint_fixture("commit.rs", FileClass::default());
    // Fires: the silent commit and the propagate-*before*-commit. The
    // absorb and invalidate pairings, the annotated commit, plain table
    // registration, and test code stay silent.
    assert_eq!(
        rule_lines_of(&report, Rule::Commit),
        vec![(Rule::Commit, 8), (Rule::Commit, 31)],
        "unexpected findings: {:#?}",
        report.findings
    );
}

#[test]
fn r9_is_skipped_in_catalog_and_cache() {
    // The same source under a catalog.rs / cache.rs path is the
    // mechanism, not a caller: adjacency does not apply.
    let src = std::fs::read_to_string(fixture_dir().join("commit.rs")).unwrap();
    for name in ["catalog.rs", "cache.rs"] {
        let report = lint_source(Path::new(name), &src, FileClass::default());
        assert_eq!(
            rule_lines_of(&report, Rule::Commit),
            vec![],
            "{name}: {:#?}",
            report.findings
        );
    }
}

#[test]
fn r3_registry_extraction() {
    let path = fixture_dir().join("ws/crates/aggregate/src/faults.rs");
    let src = std::fs::read_to_string(&path).unwrap();
    let report = lint_source(
        &path,
        &src,
        FileClass {
            aggregate_crate: true,
            faults_registry: true,
            ..FileClass::default()
        },
    );
    assert_eq!(
        report.declared_sites,
        vec![
            ("core::scan".to_string(), 6),
            ("ghost::site".to_string(), 7)
        ]
    );
    assert_eq!(report.sites_decl_line, Some(5));
    // The registry file itself is clean of per-file findings.
    assert_eq!(rule_lines(&report), vec![]);
}

#[test]
fn r3_cross_file_checks() {
    let reg = PathBuf::from("faults.rs");
    let site = |n: &str, l: u32| (n.to_string(), l);
    let reference = |f: &str, n: &str, l: u32| (PathBuf::from(f), n.to_string(), l);

    // In sync: no findings.
    let clean = check_fault_sites(
        &reg,
        &[site("a", 3), site("b", 4)],
        Some(2),
        &[reference("x.rs", "a", 9), reference("y.rs", "b", 11)],
    );
    assert_eq!(clean, vec![], "in-sync registry must be clean");

    // Duplicate declaration: flagged at the second occurrence.
    let dup = check_fault_sites(
        &reg,
        &[site("a", 3), site("a", 5)],
        Some(2),
        &[reference("x.rs", "a", 9)],
    );
    assert_eq!(dup.len(), 1, "{dup:#?}");
    assert_eq!((dup[0].rule, dup[0].line), (Rule::Faults, 5));
    assert!(dup[0].message.contains("more than once"));

    // Orphan (declared, never injected) and unregistered (injected,
    // never declared) are both findings, each anchored at its own site.
    let drift = check_fault_sites(&reg, &[site("a", 3)], Some(2), &[reference("x.rs", "b", 9)]);
    let mut lines: Vec<(Rule, u32)> = drift.iter().map(|f| (f.rule, f.line)).collect();
    lines.sort();
    assert_eq!(
        lines,
        vec![(Rule::Faults, 3), (Rule::Faults, 9)],
        "{drift:#?}"
    );
    assert!(drift.iter().any(|f| f.message.contains("not declared")));
    assert!(drift.iter().any(|f| f.message.contains("no failpoint")));

    // No SITES declaration at all is a single hard finding.
    let missing = check_fault_sites(&reg, &[], None, &[reference("x.rs", "a", 9)]);
    assert_eq!(missing.len(), 1, "{missing:#?}");
    assert!(missing[0].message.contains("no `SITES` declaration"));
}

#[test]
fn render_json_escapes_and_empty() {
    assert_eq!(render_json(&[]), "[]");
    let report = lint_fixture("panic.rs", FileClass::default());
    let json = render_json(&report.findings);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains(r#""rule":"panic""#));
    assert!(json.contains(r#""line":4"#));
    // Messages quote code with backticks, not raw quotes, but the file
    // path must round-trip; no unescaped control characters allowed.
    assert!(!json.contains('\n'));
}

// ---------------------------------------------------------------------
// CLI end-to-end: the compiled cube_lint binary against the mini
// workspace (broken on purpose) and against the real workspace (clean).
// ---------------------------------------------------------------------

fn run_lint(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cube_lint"))
        .args(args)
        .output()
        .expect("spawn cube_lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_mini_workspace_reports_every_rule_and_exits_nonzero() {
    let ws = fixture_dir().join("ws");
    let ws_arg = ws.to_string_lossy().into_owned();
    let (code, stdout, stderr) = run_lint(&["--root", &ws_arg, "--json"]);
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");

    // Exactly five findings, sorted by (file, line): the orphaned
    // registry entry, the unpolled scan loop, the unwrap, the raw
    // accumulator call, and the unregistered failpoint.
    let expected = [
        (
            r"crates/aggregate/src/faults.rs",
            7,
            "faults",
            "ghost::site",
        ),
        (
            r"crates/core/src/algorithm/bad.rs",
            6,
            "checkpoint",
            "no checkpoint",
        ),
        (r"crates/core/src/lib.rs", 8, "panic", "unwrap"),
        (r"crates/sql/src/lib.rs", 5, "guard", "iter"),
        (r"crates/warehouse/src/lib.rs", 5, "faults", "rogue::site"),
    ];
    let objects: Vec<&str> = stdout
        .trim()
        .trim_matches(['[', ']'])
        .split("},{")
        .collect();
    assert_eq!(objects.len(), expected.len(), "json: {stdout}");
    for (obj, (file, line, rule, needle)) in objects.iter().zip(expected) {
        assert!(obj.contains(file), "expected {file} in: {obj}");
        assert!(
            obj.contains(&format!(r#""line":{line}"#)),
            "expected line {line} in: {obj}"
        );
        assert!(
            obj.contains(&format!(r#""rule":"{rule}""#)),
            "expected rule {rule} in: {obj}"
        );
        assert!(obj.contains(needle), "expected `{needle}` in: {obj}");
    }

    // Human-readable mode: same findings as `file:line: [rule]` lines
    // plus a count on stderr.
    let (code, stdout, stderr) = run_lint(&["--root", &ws_arg]);
    assert_eq!(code, Some(1));
    for (file, line, rule, _) in expected {
        let needle = format!("{file}:{line}: [{rule}]");
        assert!(stdout.contains(&needle), "expected `{needle}` in: {stdout}");
    }
    assert!(stderr.contains("5 finding(s)"), "stderr: {stderr}");
}

#[test]
fn cli_ws2_reports_the_seeded_lock_cycle() {
    let ws = fixture_dir().join("ws2");
    let ws_arg = ws.to_string_lossy().into_owned();
    let (code, stdout, stderr) = run_lint(&["--root", &ws_arg]);
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");

    // Exactly the two seeded findings: the transitive journal
    // re-acquisition (alpha → beta → gamma) at alpha's call into beta,
    // and the journal → wal → journal cycle at beta's call into gamma.
    let expected = [
        (r"crates/sql/src/lib.rs", 19, "lockorder", "re-acquired"),
        (r"crates/sql/src/lib.rs", 25, "lockorder", "cycle"),
    ];
    for (file, line, rule, needle) in expected {
        let prefix = format!("{file}:{line}: [{rule}]");
        let hit = stdout
            .lines()
            .find(|l| l.contains(&prefix))
            .unwrap_or_else(|| panic!("expected `{prefix}` in: {stdout}"));
        assert!(hit.contains(needle), "expected `{needle}` in: {hit}");
    }
    assert!(stderr.contains("2 finding(s)"), "stderr: {stderr}");
}

#[test]
fn cli_json_to_file_keeps_human_output() {
    let ws = fixture_dir().join("ws2");
    let ws_arg = ws.to_string_lossy().into_owned();
    let out = std::env::temp_dir().join(format!("cube-lint-test-{}.json", std::process::id()));
    let out_arg = out.to_string_lossy().into_owned();

    let (code, stdout, stderr) = run_lint(&["--root", &ws_arg, "--json", &out_arg]);
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");
    // The human diagnostics still go to stdout…
    assert!(stdout.contains("[lockorder]"), "stdout: {stdout}");
    // …while the file holds the machine-readable report.
    let json = std::fs::read_to_string(&out).expect("json report file");
    std::fs::remove_file(&out).ok();
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    assert!(json.contains(r#""rule":"lockorder""#), "json: {json}");
    assert!(json.contains(r#""line":19"#), "json: {json}");
    assert!(json.contains(r#""line":25"#), "json: {json}");
}

#[test]
fn cli_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root_arg = root.to_string_lossy().into_owned();
    let (code, stdout, stderr) = run_lint(&["--root", &root_arg]);
    assert_eq!(
        code,
        Some(0),
        "the real workspace must lint clean\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("workspace clean"), "stdout: {stdout}");

    let (code, stdout, _) = run_lint(&["--root", &root_arg, "--json"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout.trim(), "[]");
}

#[test]
fn cli_usage_errors_exit_two() {
    let (code, _, stderr) = run_lint(&["--root"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--root requires a path"));

    let (code, _, stderr) = run_lint(&["--frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown argument"));

    // A root missing one of the five linted crates is a walk error, not
    // a clean pass: silence must never come from looking nowhere.
    let (code, _, stderr) = run_lint(&["--root", "/nonexistent-cube-root"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("walking"), "stderr: {stderr}");

    let (code, stdout, _) = run_lint(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage"));
}
