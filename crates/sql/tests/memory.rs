//! Write-path allocation counts: a statement's cost should follow its
//! batch, not the table it lands in.

use dc_alloc_count::{measure, Counting};
use dc_relation::{DataType, Row, Schema, Table, Value};
use dc_sql::Engine;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made by one 256-row `INSERT` into a table of `base_rows`.
fn insert_allocs(base_rows: i64) -> u64 {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let rows = (0..base_rows)
        .map(|i| Row::new(vec![Value::Int(i % 100), Value::Int(i)]))
        .collect();
    let mut engine = Engine::new();
    engine
        .register_table("t", Table::new(schema, rows).unwrap())
        .unwrap();
    let values: Vec<String> = (0..256).map(|i| format!("({i}, {i})")).collect();
    let sql = format!("INSERT INTO t VALUES {}", values.join(", "));
    // The first statement warms whatever the engine initialises lazily.
    engine.execute(&sql).unwrap();
    let (ack, counts) = measure(|| engine.execute(&sql).unwrap());
    assert_eq!(ack.rows()[0][1], Value::Int(256));
    counts.allocs
}

/// Publishing the new snapshot copies the row list as 16-byte handles —
/// one allocation whatever the table's size — instead of cloning every
/// row.
#[test]
fn a_256_row_insert_allocates_the_same_into_50k_and_100k_rows() {
    assert_eq!(insert_allocs(50_000), insert_allocs(100_000));
}
