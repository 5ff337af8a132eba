//! Allocation counts of the engine's scan: a table's columnar image — its
//! dimension codes and measure vectors — is built by the first statement
//! over it and shared by every later one.

use datacube::{AggSpec, CubeQuery, Dimension};
use dc_aggregate::builtin;
use dc_alloc_count::{measure, Counting};
use dc_relation::{DataType, Row, Schema, Table, Value};

#[global_allocator]
static ALLOC: Counting = Counting;

/// 100 k rows over four `Int` dimensions of cardinality 5, 4, 3 and 6:
/// at most 840 cells in the whole cube, so the cascade and the
/// materializer stay on the measuring thread.
fn table() -> Table {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("d", DataType::Int),
        ("units", DataType::Int),
    ]);
    let rows = (0..100_000i64)
        .map(|i| {
            let v = [i % 5, i % 4, i % 3, i % 6, i % 97];
            Row::new(v.into_iter().map(Value::Int).collect())
        })
        .collect();
    Table::new(schema, rows).unwrap()
}

#[test]
fn a_second_cube_over_one_table_allocates_at_most_half_the_bytes_of_the_first() {
    let t = table();
    let query = CubeQuery::new()
        .dimensions(["a", "b", "c", "d"].map(Dimension::column).to_vec())
        .aggregate(AggSpec::new(builtin("SUM").unwrap(), "units"));
    let (first, cold) = measure(|| query.cube(&t).unwrap());
    let (second, warm) = measure(|| query.cube(&t).unwrap());
    assert_eq!(first, second);
    assert!(first.len() <= 840);
    // The first pays for four code columns and the measure vector (20 +
    // 8 bytes a row); the second only for its keys (8 bytes a row).
    assert!(
        2 * warm.bytes <= cold.bytes,
        "first {cold:?}, second {warm:?}"
    );
}
