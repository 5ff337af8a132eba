//! The differential fuzz entry points.
//!
//! `differential_smoke_200_cases` is the bounded run verify.sh executes on
//! every change: 200 fixed-seed cases, each checked through every
//! algorithm × thread-count combination.
//!
//! `differential_fuzz_extended` is the long-running campaign, ignored by
//! default. Run it with
//!
//! ```text
//! cargo test -p oracle -- --ignored differential_fuzz
//! ```
//!
//! and steer it with `ORACLE_SEED` (base seed, default 1) and
//! `ORACLE_CASES` (iteration budget, default 2000). A failure prints the
//! offending seed, the shrunken witness, and the exact replay command.

use oracle::run_fuzz;

#[test]
fn differential_smoke_200_cases() {
    if let Err(report) = run_fuzz(0xDA7A_C0BE, 200) {
        panic!("{report}");
    }
}

#[test]
#[ignore = "long-running fuzz campaign; run explicitly with -- --ignored"]
fn differential_fuzz_extended() {
    let seed = std::env::var("ORACLE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    let cases = std::env::var("ORACLE_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000u64);
    if let Err(report) = run_fuzz(seed, cases) {
        panic!("{report}");
    }
}
