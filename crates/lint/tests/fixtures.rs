//! Self-test for cube_lint: every rule is exercised against the fixture
//! sources under `tests/fixtures/` (fire cases, allow cases, and edge
//! cases), and the CLI end-to-end against a deliberately broken
//! mini-workspace in `tests/fixtures/ws/` — plus a run against the real
//! workspace, which must be clean.
//!
//! Fixture `.rs` files are data, not code: they are never compiled, so
//! they can hold violations the real workspace is forbidden to contain.

use cube_lint::{lint_source, FileClass, Finding, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixture(name: &str, class: FileClass) -> Vec<Finding> {
    let path = fixture_dir().join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    lint_source(&path, &src, class)
}

/// The (rule, line) pairs of a report, sorted — the shape every fixture
/// asserts against.
fn rule_lines(findings: &[Finding]) -> Vec<(Rule, u32)> {
    let mut v: Vec<(Rule, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
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
        report
    );
}

#[test]
fn r1_is_scoped_to_algorithm_files() {
    // The same source with `algorithm: false` fires no loop: R1 only
    // applies to `crates/core/src/algorithm/` and `groupby.rs`. What is
    // left is the loop's annotation, which now suppresses nothing.
    let report = lint_fixture("checkpoint.rs", FileClass::default());
    assert_eq!(
        rule_lines(&report),
        vec![(Rule::Checkpoint, 41)],
        "{:#?}",
        report
    );
    assert!(report[0].message.contains("suppresses nothing"));
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
        report
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
    // Only the kernel merge's annotation is left, suppressing nothing.
    assert_eq!(
        rule_lines(&report),
        vec![(Rule::Guard, 25)],
        "{:#?}",
        report
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
        report
    );
}

#[test]
fn r8_atomic_fixture() {
    let report = lint_fixture("atomic.rs", FileClass::default());
    // Fires: the relaxed store on the publish path and the
    // fully-qualified relaxed shutdown store. Acquire/Release uses, the
    // annotated monotone counter, and test code stay silent.
    assert_eq!(
        rule_lines(&report),
        vec![(Rule::Atomic, 7), (Rule::Atomic, 28)],
        "unexpected findings: {:#?}",
        report
    );
}

#[test]
fn unused_allow_fixture() {
    let report = lint_fixture("unused.rs", FileClass::default());
    // Unused: the annotation over code that no longer fires (14), the one
    // two lines above its relaxed load (19, which fires at 21), the one
    // naming a rule that does not fire there (25, its load fires at 26),
    // and the one in test code (35). Malformed: the unknown rule (29) and
    // the missing reason (41), which also fails to excuse its load (42).
    // The two annotations that excuse a load stay silent.
    assert_eq!(
        rule_lines(&report),
        vec![
            (Rule::Wildcard, 25),
            (Rule::Atomic, 14),
            (Rule::Atomic, 19),
            (Rule::Atomic, 21),
            (Rule::Atomic, 26),
            (Rule::Atomic, 35),
            (Rule::Atomic, 42),
            (Rule::Allow, 29),
            (Rule::Allow, 41),
        ],
        "unexpected findings: {report:#?}"
    );
    let message = |line| {
        let f = report.iter().find(|f| f.line == line).unwrap();
        f.message.clone()
    };
    assert!(message(14).contains("suppresses nothing"));
    assert!(message(29).contains("names no cube_lint rule"));
    assert!(message(41).contains("missing its reason"));
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
    let (code, stdout, stderr) = run_lint(&["--root", &ws_arg]);
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");

    // Exactly four findings, one per rule, sorted by (file, line): the
    // unpolled scan loop, the wildcard over Value, the raw accumulator
    // call, and the relaxed flag store. The aggregate crate's own raw
    // call stays silent.
    let expected = [
        "crates/core/src/algorithm/bad.rs:6: [checkpoint] ",
        "crates/core/src/lib.rs:9: [wildcard] ",
        "crates/sql/src/lib.rs:5: [guard] ",
        "crates/warehouse/src/lib.rs:5: [atomic] ",
    ];
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), expected.len(), "stdout: {stdout}");
    for (line, prefix) in lines.iter().zip(expected) {
        assert!(line.starts_with(prefix), "expected `{prefix}` in: {line}");
    }
    assert!(stderr.contains("4 finding(s)"), "stderr: {stderr}");
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
