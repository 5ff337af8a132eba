//! Differential-testing oracle for the cube engine.
//!
//! The paper's central semantic claim (§5) is that every computation
//! strategy — the 2^N scan, the union of GROUP BYs, the from-core
//! cascade, sort- and array-based plans, partition parallelism — produces
//! the *same relation*, with the same ALL/NULL decoration (§3.4), for
//! distributive, algebraic, and holistic aggregates alike. This crate
//! checks that claim continuously:
//!
//! * [`model`] — a deliberately slow, obviously-correct implementation of
//!   GROUP BY / ROLLUP / CUBE / compound specs written straight from the
//!   paper's definitions: a `BTreeMap` over value tuples per grouping set,
//!   boxed accumulators only, no key encoding, no kernels, no parallelism,
//!   and its own grouping-set expansion (so lattice bugs are caught too).
//! * [`gen`] — a seeded deterministic generator of adversarial tables
//!   (NULL-heavy columns, duplicate keys, NaN/±0.0/i64 extremes, empty and
//!   single-row tables, high-cardinality dims, dict-vs-string dims) and
//!   random query specs (compound `GROUP BY g ROLLUP r CUBE c`, holistic
//!   MEDIAN/MODE, user-defined aggregates, budget/cancel settings).
//! * [`runner`] — executes each case through every applicable algorithm ×
//!   {1,4,16} threads and diffs the canonicalized results against the
//!   model (sorted rows, ULP-tolerant float compare).
//! * [`shrink`] — greedily minimizes a failing case (rows, aggregates,
//!   dimensions, governance) while preserving the failure, and the fuzz
//!   driver prints the shrunken case together with its replayable seed.
//!
//! Run the bounded smoke (the verify.sh tier): `cargo test -p oracle`.
//! Run the extended fuzz: `ORACLE_SEED=7 ORACLE_CASES=5000 cargo test -p
//! oracle -- --ignored`.

pub mod diff;
pub mod gen;
pub mod model;
pub mod runner;
pub mod shrink;

pub use gen::{gen_case, AggDesc, Case, Gov, QueryKind};
pub use model::{model_masks, model_result};
pub use runner::{check_case, combos, run_engine, Combo};
pub use shrink::shrink;

/// Drive `cases` seeded cases starting at `base_seed`: generate, run
/// through every engine path, diff against the model. On the first
/// divergence the case is shrunk to a minimum and the returned message
/// carries the exact seed to replay it with.
pub fn run_fuzz(base_seed: u64, cases: u64) -> Result<(), String> {
    for i in 0..cases {
        let seed = base_seed.wrapping_add(i);
        let case = gen::gen_case(seed);
        if let Err(first) = runner::check_case(&case) {
            let minimal = shrink::shrink(&case, &|c| runner::check_case(c).err());
            let min_err = runner::check_case(&minimal)
                .err()
                .unwrap_or_else(|| "shrink lost the failure".into());
            return Err(format!(
                "differential divergence at seed {seed} (case {i} of base seed {base_seed:#x})\n\
                 replay: ORACLE_SEED={seed} ORACLE_CASES=1 cargo test -p oracle -- --ignored differential_fuzz\n\
                 first failure: {first}\n\
                 shrunken failure: {min_err}\n\
                 shrunken case:\n{minimal}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_driver_passes_a_quick_burst() {
        // A tiny independent seed range (the 200-case smoke lives in
        // tests/fuzz.rs); failure messages must carry the replay seed.
        run_fuzz(0x0D15_EA5E, 8).unwrap();
    }
}
