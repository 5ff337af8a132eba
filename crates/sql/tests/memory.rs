//! Allocation counts: a write's cost should follow its batch, not the
//! table it lands in, and a reply's encoding and decoding should follow
//! its cells, not the formatter.

use dc_alloc_count::{measure, Counting};
use dc_relation::{DataType, Row, Schema, Table, Value};
use dc_sql::wire::{self, Response};
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

/// A reply of `rows` rows mixing every cell kind a result carries: Int,
/// integral and fractional Float, a string with an escape, NULL and ALL.
/// No cell is empty, so each decoded cell is one allocation.
fn mixed_reply(rows: i64) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("s", DataType::Float),
        ("a", DataType::Float),
        ("name", DataType::Str),
        ("g", DataType::Int),
    ]);
    let names = [
        Value::str("plain"),
        Value::str("tab\there"),
        Value::str("é"),
    ];
    let rows = (0..rows)
        .map(|i| {
            Row::new(vec![
                Value::Int(i % 97 - 40),
                Value::Float((i % 13 * 1000) as f64),
                Value::Float(i as f64 / 7.0),
                names[(i % 3) as usize].clone(),
                [Value::Null, Value::All, Value::Int(i % 11)][(i % 3) as usize].clone(),
            ])
        })
        .collect();
    // ALL appears only in results, never in a base table.
    Table::from_validated_rows(schema, rows)
}

/// `encode_table` writes every cell into one buffer: its allocations do
/// not grow with the reply (none per cell), and doubling the rows needs
/// no more of them.
#[test]
fn encode_table_allocates_the_same_for_5k_and_10k_rows() {
    let allocs = |rows| {
        let t = mixed_reply(rows);
        measure(|| wire::encode_table(&t)).1.allocs
    };
    let (small, large) = (allocs(5_000), allocs(10_000));
    assert_eq!(small, large);
    assert!(small <= 4, "{small} allocations");
}

/// `decode_response` makes one `String` per cell and one `Vec` per line
/// (the header's included), plus the row list.
#[test]
fn decode_response_allocates_once_per_cell_and_once_per_row() {
    for rows in [5_000, 10_000] {
        let payload = wire::encode_table(&mixed_reply(rows));
        let (decoded, counts) = measure(|| wire::decode_response(&payload).unwrap());
        let Response::Table { columns, .. } = decoded else {
            panic!("expected a table");
        };
        let (lines, cols) = (rows as u64 + 1, columns.len() as u64);
        assert_eq!(counts.allocs, lines * cols + lines + 1, "{rows} rows");
    }
}
