//! `cube_lint` CLI: lint the workspace, print `file:line: [rule] message`
//! diagnostics (or `--json`), exit non-zero when any invariant is broken.
//!
//! ```text
//! cube_lint [--root <workspace-root>] [--json [out.json]]
//! ```
//!
//! `--json` with no operand writes the findings array to stdout; with a
//! path it writes the file *and* keeps the human diagnostics on stdout,
//! which is how `verify.sh` archives the run.

use std::path::PathBuf;
use std::process::ExitCode;

const RULES: &str = "checkpoint, guard, faults, panic, wildcard, atomic";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json = true;
                if let Some(next) = args.peek() {
                    if !next.starts_with('-') {
                        json_path = Some(PathBuf::from(args.next().unwrap_or_default()));
                    }
                }
            }
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("cube_lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: cube_lint [--root <workspace-root>] [--json [out.json]]");
                println!("rules: {RULES} (see DESIGN.md)");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("cube_lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let findings = match cube_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cube_lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, cube_lint::render_json(&findings)) {
            eprintln!("cube_lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json && json_path.is_none() {
        println!("{}", cube_lint::render_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            println!("cube_lint: workspace clean (rules: {RULES})");
        } else {
            eprintln!("cube_lint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
