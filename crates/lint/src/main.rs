//! `cube_lint` CLI: lint the workspace, print `file:line: [rule] message`
//! diagnostics, exit non-zero when any invariant is broken.
//!
//! ```text
//! cube_lint [--root <workspace-root>]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

const RULES: &str = "checkpoint, guard, wildcard, atomic";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("cube_lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: cube_lint [--root <workspace-root>]");
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
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("cube_lint: workspace clean (rules: {RULES})");
        ExitCode::SUCCESS
    } else {
        eprintln!("cube_lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
