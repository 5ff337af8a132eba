//! Regression tests for the SQL layer's panic-isolation hardening.
//!
//! Each test pins one site that `cube_lint` flagged and the engine then
//! converted from a potential panic into a typed [`SqlError`]: malformed
//! SQL and misbehaving user-defined aggregates must surface as errors,
//! never tear down the process.

use dc_aggregate::{Accumulator, AggKind, AggregateFunction, Retract};
use dc_relation::{row, DataType, Schema, Table, Value};
use dc_sql::{Engine, SqlError};
use std::sync::Arc;

fn sales() -> Table {
    let schema = Schema::from_pairs(&[
        ("Model", DataType::Str),
        ("Year", DataType::Int),
        ("Sales", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for (m, y, u) in [
        ("Chevy", 1994i64, 50i64),
        ("Chevy", 1995, 85),
        ("Ford", 1994, 60),
    ] {
        t.push(row![m, y, u]).unwrap();
    }
    t
}

fn engine() -> Engine {
    let mut e = Engine::new();
    e.register_table("Sales", sales()).unwrap();
    e.register_table(
        "Empty",
        Table::empty(Schema::from_pairs(&[
            ("Model", DataType::Str),
            ("Sales", DataType::Int),
        ])),
    )
    .unwrap();
    e
}

/// A user-defined aggregate that panics at a chosen lifecycle point.
struct Bomb {
    in_iter: bool,
}

struct BombAcc {
    in_iter: bool,
}

impl Accumulator for BombAcc {
    fn iter(&mut self, _v: &Value) {
        if self.in_iter {
            panic!("bomb in Iter");
        }
    }
    fn state(&self) -> Vec<Value> {
        Vec::new()
    }
    fn merge(&mut self, _state: &[Value]) {}
    fn final_value(&self) -> Value {
        if !self.in_iter {
            panic!("bomb in Final");
        }
        Value::Null
    }
    fn retract(&mut self, _v: &Value) -> Retract {
        Retract::Applied
    }
}

impl AggregateFunction for Bomb {
    fn name(&self) -> &str {
        if self.in_iter {
            "BOOM_ITER"
        } else {
            "BOOM_FINAL"
        }
    }
    fn kind(&self) -> AggKind {
        AggKind::Distributive
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(BombAcc {
            in_iter: self.in_iter,
        })
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Int)
    }
}

/// engine.rs empty-input path: the one-row "empty-set aggregates" result
/// calls `init().final_value()` directly — a UDA panicking in Final must
/// come back as `CubeError::AggPanicked`, not a process abort.
#[test]
fn uda_panic_in_final_on_empty_table_is_an_error() {
    let mut e = engine();
    e.register_aggregate(Arc::new(Bomb { in_iter: false }))
        .unwrap();
    let err = e
        .execute("SELECT BOOM_FINAL(Sales) FROM Empty")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("BOOM_FINAL"), "unexpected error: {msg}");
    assert!(matches!(err, SqlError::Cube(_)), "unexpected error: {err}");
}

/// The core scan path: a UDA panicking in Iter during GROUP BY unwinds as
/// an error and the engine remains usable afterwards.
#[test]
fn uda_panic_in_iter_is_contained_and_engine_survives() {
    let mut e = engine();
    e.register_aggregate(Arc::new(Bomb { in_iter: true }))
        .unwrap();
    let err = e
        .execute("SELECT Model, BOOM_ITER(Sales) FROM Sales GROUP BY Model")
        .unwrap_err();
    assert!(err.to_string().contains("BOOM_ITER"), "got: {err}");

    // The engine (and its options mutex) survived the unwind.
    e.set_option("MAX_CELLS", 1_000_000).unwrap();
    let t = e
        .execute("SELECT Model, SUM(Sales) FROM Sales GROUP BY Model")
        .unwrap();
    assert_eq!(t.len(), 2);
}

/// Materialize path: a UDA panicking in Final after a successful scan is
/// still converted, exercising the guard in cell emission.
#[test]
fn uda_panic_in_final_during_group_by_is_an_error() {
    let mut e = engine();
    e.register_aggregate(Arc::new(Bomb { in_iter: false }))
        .unwrap();
    let err = e
        .execute("SELECT Model, BOOM_FINAL(Sales) FROM Sales GROUP BY Model")
        .unwrap_err();
    assert!(err.to_string().contains("BOOM_FINAL"), "got: {err}");
}

/// Parameterized aggregates validate their configuration argument instead
/// of unwrapping it.
#[test]
fn malformed_parameterized_aggregates_error_cleanly() {
    let e = engine();
    for sql in [
        "SELECT MAXN(Sales) FROM Sales",              // missing n
        "SELECT MAXN(Sales, 0) FROM Sales",           // n < 1
        "SELECT MAXN(Sales, Model) FROM Sales",       // non-literal
        "SELECT PERCENTILE(Sales, 2.0) FROM Sales",   // p out of range
        "SELECT PERCENTILE(Sales, Model) FROM Sales", // non-literal
        "SELECT N_TILE(Sales, 0) OVER () FROM Sales", // bad quantile arg
    ] {
        match e.execute(sql) {
            Err(_) => {}
            Ok(_) => panic!("expected an error for: {sql}"),
        }
    }
}

/// The `n` of `MAXN(x, n)` comes from the statement, so no allocation is
/// sized by it: a billion-wide list per cell answers like a short one.
#[test]
fn maxn_with_a_huge_n_answers() {
    let e = engine();
    let t = e
        .execute("SELECT Model, MAXN(Sales, 1000000000) AS m, MINN(Sales, 1000000000) AS n FROM Sales GROUP BY CUBE Model")
        .unwrap();
    assert_eq!(t.len(), 3);
    assert!(t.rows().iter().all(|r| r[1].is_null() && r[2].is_null()));
}

/// GROUPING SETS over unknown names is a plan error, not a panic.
#[test]
fn grouping_sets_with_unknown_column_errors() {
    let e = engine();
    let err = e
        .execute("SELECT Model, SUM(Sales) FROM Sales GROUP BY GROUPING SETS ((Model), (Bogus))")
        .unwrap_err();
    assert!(err.to_string().contains("Bogus"), "got: {err}");
}

/// SET validates its option name and value range without unwrapping.
#[test]
fn set_option_rejects_bad_input() {
    let e = engine();
    assert!(e.set_option("NOT_AN_OPTION", 1).is_err());
    assert!(e.set_option("MAX_CELLS", -1).is_err());
    assert!(e.execute("SET NO_SUCH_KNOB = 3").is_err());
}
