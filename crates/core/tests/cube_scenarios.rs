//! Scenario tests for the datacube crate: combinations of features the
//! unit tests exercise in isolation.

use datacube::addressing::CubeView;
use datacube::algorithm::repro::{self, Repro};
use datacube::decoration::decorate;
use datacube::hierarchy::calendar;
use datacube::maintain::MaterializedCube;
use datacube::{AggSpec, Algorithm, CubeQuery, Dimension, GroupingSet, Lattice};
use dc_aggregate::{builtin, AggKind, UdaBuilder};
use dc_relation::{csv, row, DataType, Date, Row, Schema, Table, Value};

fn sales() -> Table {
    let schema = Schema::from_pairs(&[
        ("model", DataType::Str),
        ("year", DataType::Int),
        ("color", DataType::Str),
        ("units", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for (m, y, c, u) in [
        ("Chevy", 1994, "black", 50),
        ("Chevy", 1994, "white", 40),
        ("Chevy", 1995, "black", 85),
        ("Chevy", 1995, "white", 115),
        ("Ford", 1994, "black", 50),
        ("Ford", 1994, "white", 10),
        ("Ford", 1995, "black", 85),
        ("Ford", 1995, "white", 75),
    ] {
        t.push(row![m, y, c, u]).unwrap();
    }
    t
}

fn dims3() -> Vec<Dimension> {
    vec![
        Dimension::column("model"),
        Dimension::column("year"),
        Dimension::column("color"),
    ]
}

fn sum_units() -> AggSpec {
    AggSpec::new(builtin("SUM").unwrap(), "units").with_name("units")
}

/// A cube exported to CSV, re-imported, and re-aggregated gives the same
/// super-aggregates: relations round-trip through the text format.
#[test]
fn cube_round_trips_through_csv() {
    let cube = CubeQuery::new()
        .dimensions(dims3())
        .aggregate(sum_units())
        .cube(&sales())
        .unwrap();
    let text = csv::to_csv(&cube);
    let back = csv::from_csv(&text, cube.schema().clone()).unwrap();
    assert_eq!(back.rows(), cube.rows());
}

/// A maintained cube over an explicit grouping-set family (not a full
/// cube) stays consistent under mutations.
#[test]
fn maintained_grouping_sets() {
    let t = sales();
    let lattice = Lattice::new(
        3,
        vec![
            GroupingSet::full(3),
            GroupingSet::from_dims(&[0]).unwrap(),
            GroupingSet::EMPTY,
        ],
    )
    .unwrap();
    let mat = MaterializedCube::with_lattice(&t, dims3(), vec![sum_units()], lattice).unwrap();
    // Only the requested sets are materialized: no (model, year) cells.
    assert_eq!(
        mat.cell(&[Value::str("Chevy"), Value::Int(1994), Value::All]),
        None
    );
    mat.insert(row!["Ford", 1996, "red", 30]).unwrap();
    mat.delete(&row!["Chevy", 1994, "white", 40]).unwrap();
    assert_eq!(
        mat.cell(&[Value::str("Chevy"), Value::All, Value::All]),
        Some(vec![Value::Int(250)])
    );
    assert_eq!(
        mat.cell(&[Value::All, Value::All, Value::All]),
        Some(vec![Value::Int(500)])
    );
}

/// A user-defined algebraic aggregate cascades through every algorithm
/// identically — the Iter_super contract is what the UDA builder
/// enforces.
#[test]
fn uda_through_all_algorithms() {
    let sum_sq = UdaBuilder::new("SUM_SQ", AggKind::Algebraic, || 0.0f64)
        .iter(|s, v| {
            if let Some(x) = v.as_f64() {
                *s += x * x;
            }
        })
        .state(|s| vec![Value::Float(*s)])
        .merge(|s, st| *s += st[0].as_f64().unwrap_or(0.0))
        .finalize(|s| Value::Float(*s))
        .build()
        .unwrap();
    let t = sales();
    let spec = AggSpec::new(sum_sq, "units").with_name("ssq");
    let reference = CubeQuery::new()
        .dimensions(dims3())
        .aggregate(spec.clone())
        .algorithm(Algorithm::TwoToTheN)
        .cube(&t)
        .unwrap();
    let query = CubeQuery::new().dimensions(dims3()).aggregate(spec);
    for alg in [Algorithm::FromCore, Algorithm::Parallel { threads: 2 }] {
        let got = query.clone().algorithm(alg).cube(&t).unwrap();
        assert_eq!(got.rows(), reference.rows(), "{alg:?}");
    }
    let lattice = Lattice::cube(3).unwrap();
    for which in [Repro::Array, Repro::PipeSort] {
        let (got, _) = repro::run(which, &query, &t, &lattice, None).unwrap();
        assert_eq!(got.rows(), reference.rows(), "{which:?}");
    }
}

/// Calendar hierarchy + decoration + addressing together: a monthly
/// rollup decorated with the quarter, browsed through a view.
#[test]
fn hierarchy_decoration_view_pipeline() {
    let schema = Schema::from_pairs(&[("t", DataType::Date), ("x", DataType::Int)]);
    let mut t = Table::empty(schema);
    let mut d = Date::ymd(1995, 1, 1);
    for i in 0..365 {
        t.push(Row::new(vec![Value::Date(d), Value::Int(i % 10)]))
            .unwrap();
        d = d.plus_days(1);
    }
    let cal = calendar();
    let dims = cal.rollup_dimensions(&t, "t", &["year", "month"]).unwrap();
    let rollup = CubeQuery::new()
        .dimensions(dims)
        .aggregate(AggSpec::new(builtin("COUNT").unwrap(), "x").with_name("days"))
        .rollup(&t)
        .unwrap();
    // Decorate month rows with their quarter (month → quarter FD).
    let decorated = decorate(&rollup, &["month"], "quarter", DataType::Str, |vals| {
        let m = vals[0].as_str()?;
        let month: u8 = m.split('-').nth(1)?.parse().ok()?;
        Some(Value::str(format!("Q{}", (month - 1) / 3 + 1)))
    })
    .unwrap();
    for r in decorated.rows() {
        if r[1].is_all() {
            assert_eq!(r[3], Value::Null, "{r}");
        } else {
            assert_ne!(r[3], Value::Null, "{r}");
        }
    }
    // Addressing: the year row counts all 365 days.
    let view = CubeView::new(rollup, 2, "days").unwrap();
    assert_eq!(view.v(&[Value::Int(1995), Value::All]), Value::Int(365));
    // Drill down from the year into months: 12 children summing to 365.
    let months = view.drill_down(&[Value::Int(1995), Value::All], 1);
    assert_eq!(months.len(), 12);
    let total: i64 = months.iter().map(|(_, v)| v.as_i64().unwrap()).sum();
    assert_eq!(total, 365);
}

/// Multiple aggregates of all three taxonomy classes in one cube: Auto
/// routes to 2^N (MEDIAN present) and everything is still exact.
#[test]
fn mixed_taxonomy_cube() {
    let t = sales();
    let cube = CubeQuery::new()
        .dimensions(vec![Dimension::column("model")])
        .aggregate(sum_units())
        .aggregate(AggSpec::new(builtin("AVG").unwrap(), "units").with_name("avg"))
        .aggregate(AggSpec::new(builtin("MEDIAN").unwrap(), "units").with_name("med"))
        .cube(&t)
        .unwrap();
    let grand = cube.rows().iter().find(|r| r[0].is_all()).unwrap();
    assert_eq!(grand[1], Value::Int(510));
    assert_eq!(grand[2], Value::Float(63.75));
    assert_eq!(grand[3], Value::Float(62.5));
}

/// Computed dimensions (histogram buckets) work through the whole stack:
/// bucketed units as a grouping category.
#[test]
fn histogram_buckets_as_dimension() {
    let t = sales();
    let bucket = Dimension::computed("bucket", DataType::Int, |r: &Row| {
        Value::Int(r[3].as_i64().unwrap_or(0) / 50)
    });
    let cube = CubeQuery::new()
        .dimension(bucket)
        .aggregate(AggSpec::star(builtin("COUNT(*)").unwrap()).with_name("n"))
        .cube(&t)
        .unwrap();
    // Buckets: 10→0, 40→0, 50,50→1, 75,85,85→1, 115→2... compute: 50/50=1,
    // 40/50=0, 85/50=1, 115/50=2, 10/50=0, 75/50=1.
    let find = |b: Value| cube.rows().iter().find(|r| r[0] == b).map(|r| r[1].clone());
    assert_eq!(find(Value::Int(0)), Some(Value::Int(2)));
    assert_eq!(find(Value::Int(1)), Some(Value::Int(5)));
    assert_eq!(find(Value::Int(2)), Some(Value::Int(1)));
    assert_eq!(find(Value::All), Some(Value::Int(8)));
}

/// The operator algebra at the row level: every rollup row appears in the
/// cube, and every grouping-sets row appears in both when its family is a
/// subfamily.
#[test]
fn row_level_algebra_inclusions() {
    let t = sales();
    let q = CubeQuery::new().dimensions(dims3()).aggregate(sum_units());
    let cube = q.cube(&t).unwrap();
    let rollup = q.rollup(&t).unwrap();
    let gs = q
        .grouping_sets(&t, &[vec![0, 1, 2], vec![0, 1], vec![0]])
        .unwrap();
    let cube_set: std::collections::HashSet<&Row> = cube.rows().iter().collect();
    for r in rollup.rows() {
        assert!(cube_set.contains(r));
    }
    let rollup_set: std::collections::HashSet<&Row> = rollup.rows().iter().collect();
    for r in gs.rows() {
        assert!(
            rollup_set.contains(r),
            "{r} (rollup prefixes subsume this family)"
        );
        assert!(cube_set.contains(r));
    }
}

/// Two statements that make the first scan of one shared table race to
/// build its columnar image; both get the answer a private copy gives,
/// and the same work counters.
#[test]
fn two_threads_making_the_first_scan_of_one_table_agree() {
    let schema = Schema::from_pairs(&[
        ("model", DataType::Str),
        ("year", DataType::Int),
        ("units", DataType::Int),
    ]);
    let models = [Value::str("Chevy"), Value::str("Ford"), Value::Null];
    let rows: Vec<Row> = (0..20_000i64)
        .map(|i| {
            let year = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(1990 + i % 7)
            };
            Row::new(vec![
                models[(i % 3) as usize].clone(),
                year,
                Value::Int(i % 101),
            ])
        })
        .collect();
    let query = CubeQuery::new()
        .dimensions(vec![Dimension::column("model"), Dimension::column("year")])
        .aggregate(sum_units())
        .aggregate(AggSpec::new(builtin("MAX").unwrap(), "units").with_name("top"));
    let private = Table::new(schema.clone(), rows.clone()).unwrap();
    let want = query.cube_with_stats(&private).unwrap();

    let shared = std::sync::Arc::new(Table::new(schema, rows).unwrap());
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let scans: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    query.cube_with_stats(&shared).unwrap()
                })
            })
            .collect();
        for scan in scans {
            assert_eq!(scan.join().unwrap(), want);
        }
    });
}
