//! What a table costs in memory, counted by the allocator rather than
//! inferred from RSS.

use dc_alloc_count::{measure, Counting};
use dc_relation::{DataType, Row, Schema, Table, Value};

#[global_allocator]
static ALLOC: Counting = Counting;

/// A row of five `Int`s is one shared allocation of five 16-byte values
/// (96 bytes with the reference counts) plus its 16-byte handle in the
/// table: 112 bytes. A `Vec<Value>` row of 24-byte values cost 144.
#[test]
fn a_five_int_row_costs_at_most_120_bytes() {
    const ROWS: i64 = 100_000;
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("d", DataType::Int),
        ("e", DataType::Int),
    ]);
    let (table, counts) = measure(|| {
        let rows = (0..ROWS)
            .map(|i| Row::new((0..5).map(|c| Value::Int(i * 5 + c)).collect()))
            .collect();
        Table::new(schema, rows).unwrap()
    });
    assert_eq!(table.len(), ROWS as usize);
    let per_row = counts.live as f64 / ROWS as f64;
    assert!(per_row <= 120.0, "{per_row} bytes per row");
}

/// Copying a table's rows copies handles, not values.
#[test]
fn cloning_rows_shares_their_values() {
    let rows: Vec<Row> = (0..1_000i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::str("shared")]))
        .collect();
    let (copy, counts) = measure(|| rows.to_vec());
    assert_eq!(copy, rows);
    assert_eq!(counts.allocs, 1, "one Vec of handles");
    assert_eq!(counts.bytes, 16 * 1_000);
}
