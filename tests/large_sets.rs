//! A cube whose grouping sets run to thousands of cells, through every
//! public way in: `CubeQuery` on the from-core and the four-worker
//! parallel plan, and SQL under `SET THREADS 4`. Each answer equals the
//! `Row`-keyed reference row for row, in order, and the operator's work
//! counters equal the reference's.

use datacube::algorithm::repro::{self, Repro};
use datacube::{AggSpec, Algorithm, CubeQuery, Dimension, ExecStats, Lattice};
use dc_aggregate::builtin;
use dc_relation::{DataType, Row, Schema, Table, Value};
use dc_sql::Engine;

/// 5 120 core cells over `(a, b, c)` of cardinality 16, 20 and 16, each
/// on two adjacent rows, the cells in scrambled order. No cell's rows
/// straddle a 2 048-row morsel or a quarter of the table, so a four-way
/// scan merges nothing in its coalesce, on the engine or the reference.
fn large_cube() -> Table {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("units", DataType::Int),
        ("price", DataType::Float),
    ]);
    let rows = (0..10_240i64)
        .map(|i| {
            let p = (i / 2 * 7919) % 5120;
            let units = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int(i % 97 - 40)
            };
            let price = Value::Float((i % 37) as f64 * 0.25);
            let key = [p % 16, p / 16 % 20, p / 320].map(Value::Int);
            Row::new(key.into_iter().chain([units, price]).collect())
        })
        .collect();
    Table::new(schema, rows).unwrap()
}

/// Kernel lanes, and boxed ones (MEDIAN has no kernel), as
/// `(function, column)` pairs.
const SELECTS: [&[(&str, &str)]; 2] = [
    &[
        ("SUM", "units"),
        ("AVG", "price"),
        ("MIN", "price"),
        ("COUNT", "units"),
    ],
    &[("SUM", "units"), ("MEDIAN", "units"), ("MAX", "price")],
];

fn query(aggs: &[(&str, &str)], algorithm: Algorithm) -> CubeQuery {
    let dims = ["a", "b", "c"].map(Dimension::column).to_vec();
    let query = CubeQuery::new().dimensions(dims).algorithm(algorithm);
    aggs.iter().fold(query, |q, &(f, col)| {
        q.aggregate(AggSpec::new(builtin(f).unwrap(), col).with_name(format!("{f}_{col}")))
    })
}

#[test]
fn a_large_cube_equals_the_reference_on_every_plan_and_over_sql() {
    let t = large_cube();
    let lattice = Lattice::cube(3).unwrap();
    let mut sql = Engine::new();
    sql.register_table("t", t.clone()).unwrap();
    sql.execute("SET CUBE_CACHE OFF").unwrap();
    sql.execute("SET THREADS 4").unwrap();
    for (aggs, kernels) in SELECTS.into_iter().zip([4, 0]) {
        for algorithm in [Algorithm::FromCore, Algorithm::Parallel { threads: 4 }] {
            let tag = format!("{algorithm:?}, {aggs:?}");
            let query = query(aggs, algorithm);
            let (want, want_stats) =
                repro::run(Repro::Reference, &query, &t, &lattice, None).unwrap();
            assert_eq!(want.len(), 6069, "{tag}");
            let (got, stats) = query.cube_with_stats(&t).unwrap();
            assert_eq!(got.rows(), want.rows(), "{tag}");
            assert_eq!(stats.vectorized_kernels_used, kernels, "{tag}");
            assert_eq!(stats.morsels_processed, 5, "{tag}");
            // The reference neither runs kernels nor counts morsels.
            let engine_only = ExecStats {
                vectorized_kernels_used: 0,
                morsels_processed: 0,
                ..stats
            };
            assert_eq!(engine_only, want_stats, "{tag}");
            if let Algorithm::Parallel { .. } = algorithm {
                let calls: Vec<String> =
                    aggs.iter().map(|(f, col)| format!("{f}({col})")).collect();
                let statement = format!(
                    "SELECT a, b, c, {} FROM t GROUP BY CUBE a, b, c",
                    calls.join(", ")
                );
                let over_sql = sql.execute(&statement).unwrap();
                assert_eq!(over_sql.rows(), want.rows(), "{statement}");
            }
        }
    }
}
