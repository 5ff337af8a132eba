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
/// at most 840 cells in the whole cube.
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

/// `n` values of `a`, each on two rows, and `b = a % 4`: the core and
/// `(a)` hold `n` cells each, `(b)` four and `()` one.
fn pairs(n: i64) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("units", DataType::Int),
    ]);
    let rows = (0..2 * n)
        .map(|i| {
            let a = (i * 7919) % n;
            Row::new(vec![Value::Int(a), Value::Int(a % 4), Value::Int(i % 97)])
        })
        .collect();
    Table::new(schema, rows).unwrap()
}

/// After its scan a statement stays on the calling thread: the cascade
/// and the materializer build every result row there, one allocation a
/// row. The counting allocator counts per thread, so rows a worker built
/// would not show. Both cores hold 2 049–4 096 cells, so the scan's
/// arena grows by doubling through the same capacities, and every other
/// buffer is one allocation whatever its size: from 2 100 to 4 090
/// values of `a`, the allocations grow by exactly the extra rows.
#[test]
fn a_cube_allocates_one_more_per_extra_result_row_on_the_calling_thread() {
    let run = |n| {
        let t = pairs(n);
        let query = CubeQuery::new()
            .dimensions(["a", "b"].map(Dimension::column).to_vec())
            .aggregate(AggSpec::new(builtin("SUM").unwrap(), "units"));
        // The first statement builds the table's image.
        query.cube(&t).unwrap();
        let (out, counts) = measure(|| query.cube(&t).unwrap());
        (out.len() as u64, counts.allocs)
    };
    let (small_rows, small) = run(2_100);
    let (large_rows, large) = run(4_090);
    assert_eq!((small_rows, large_rows), (2 * 2_100 + 5, 2 * 4_090 + 5));
    assert_eq!(large - small, large_rows - small_rows, "{small} vs {large}");
}
