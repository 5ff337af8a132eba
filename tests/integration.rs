//! Cross-crate integration tests: generators → cube operators → SQL →
//! reports, exercised together the way the examples use them.

use datacube::addressing::CubeView;
use datacube::algorithm::repro::{self, Repro};
use datacube::maintain::MaterializedCube;
use datacube::pivot::cross_tab;
use datacube::{AggSpec, Algorithm, CubeQuery, Dimension, GroupingSet, Lattice};
use dc_aggregate::builtin;
use dc_relation::{DataType, Row, Table, Value};
use dc_sql::scalar::ScalarFn;
use dc_sql::Engine;
use dc_warehouse::retail::{RetailParams, RetailWarehouse};
use dc_warehouse::sales::{synthetic_sales, table4_sales, SalesParams};
use dc_warehouse::weather::{nation_of, weather_table, WeatherParams};

fn sum_units() -> AggSpec {
    AggSpec::new(builtin("SUM").unwrap(), "units").with_name("units")
}

fn dims3() -> Vec<Dimension> {
    vec![
        Dimension::column("model"),
        Dimension::column("year"),
        Dimension::column("color"),
    ]
}

/// The API cube and the SQL cube produce the same relation.
#[test]
fn sql_and_api_agree_on_the_cube() {
    let sales = table4_sales();
    let api = CubeQuery::new()
        .dimensions(dims3())
        .aggregate(sum_units())
        .cube(&sales)
        .unwrap();

    let mut engine = Engine::new();
    engine.register_table("sales", sales).unwrap();
    let sql = engine
        .execute(
            "SELECT model, year, color, SUM(units) AS units
             FROM sales GROUP BY CUBE model, year, color",
        )
        .unwrap();
    assert_eq!(api.len(), sql.len());
    // Compare as sets (SQL output order is the operator's canonical order
    // too, but don't depend on it).
    let api_rows: std::collections::HashSet<&Row> = api.rows().iter().collect();
    for row in sql.rows() {
        assert!(
            api_rows.contains(row),
            "SQL row {row} missing from API cube"
        );
    }
}

/// Every algorithm agrees on a synthetic workload, including computed
/// dimensions coming from the warehouse generators.
#[test]
fn algorithms_agree_on_synthetic_data() {
    let table = synthetic_sales(SalesParams {
        rows: 3_000,
        models: 5,
        years: 3,
        colors: 4,
        seed: 99,
    });
    let reference = CubeQuery::new()
        .dimensions(dims3())
        .aggregate(sum_units())
        .algorithm(Algorithm::TwoToTheN)
        .cube(&table)
        .unwrap();
    let query = CubeQuery::new().dimensions(dims3()).aggregate(sum_units());
    for alg in [
        Algorithm::FromCore,
        Algorithm::UnionGroupBys,
        Algorithm::Parallel { threads: 4 },
    ] {
        let got = query.clone().algorithm(alg).cube(&table).unwrap();
        assert_eq!(got.rows(), reference.rows(), "{alg:?} diverged");
    }
    let lattice = Lattice::cube(3).unwrap();
    for which in [Repro::Array, Repro::PipeSort] {
        let (got, _) = repro::run(which, &query, &table, &lattice, None).unwrap();
        assert_eq!(got.rows(), reference.rows(), "{which:?} diverged");
    }
}

/// The weather pipeline: generator → SQL histogram → decoration → view.
#[test]
fn weather_histogram_end_to_end() {
    let weather = weather_table(WeatherParams {
        rows: 2_000,
        days: 60,
        ..Default::default()
    });
    let mut engine = Engine::new();
    engine.register_table("weather", weather).unwrap();
    engine
        .register_scalar(ScalarFn::new("NATION", 2, DataType::Str, |args| {
            match (args[0].as_f64(), args[1].as_f64()) {
                (Some(lat), Some(lon)) => nation_of(lat, lon).map_or(Value::Null, Value::str),
                _ => Value::Null,
            }
        }))
        .unwrap();
    let out = engine
        .execute(
            "SELECT nation, MAX(temp) AS max_temp, COUNT(*) AS n
             FROM weather
             GROUP BY CUBE NATION(latitude, longitude) AS nation",
        )
        .unwrap();
    // The ALL row's COUNT equals the sum of the per-nation counts.
    let total: i64 = out
        .rows()
        .iter()
        .filter(|r| !r[0].is_all())
        .map(|r| r[2].as_i64().unwrap())
        .sum();
    let all_row = out.rows().iter().find(|r| r[0].is_all()).unwrap();
    assert_eq!(all_row[2].as_i64().unwrap(), total);
    // And its MAX dominates every group max.
    let global = all_row[1].as_f64().unwrap();
    for r in out.rows() {
        assert!(r[1].as_f64().unwrap() <= global);
    }
}

/// Star-join SQL and the denormalized cube agree across a full hierarchy
/// rollup (Figure 6's granularities).
#[test]
fn retail_star_vs_wide_rollup() {
    let w = RetailWarehouse::generate(RetailParams {
        sales: 3_000,
        ..Default::default()
    });
    let mut engine = Engine::new();
    w.register(&mut engine).unwrap();
    let star = engine
        .execute(
            "SELECT geography, region, district, SUM(units) AS u
             FROM sales_fact JOIN office USING (office_id)
             GROUP BY ROLLUP geography, region, district",
        )
        .unwrap();
    let wide = engine
        .execute(
            "SELECT geography, region, district, SUM(units) AS u
             FROM sales_wide GROUP BY ROLLUP geography, region, district",
        )
        .unwrap();
    assert_eq!(star.rows(), wide.rows());
    // Grand total equals the fact-table sum.
    let grand = star
        .rows()
        .iter()
        .find(|r| (0..3).all(|d| r[d].is_all()))
        .unwrap();
    let fact_units: i64 = w.fact.rows().iter().map(|r| r[5].as_i64().unwrap()).sum();
    assert_eq!(grand[3].as_i64().unwrap(), fact_units);
}

/// A maintained cube tracks a stream of inserts/deletes/updates and stays
/// equal to the from-scratch cube of the final state.
#[test]
fn maintained_cube_matches_batch_after_mutation_stream() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut base = synthetic_sales(SalesParams {
        rows: 300,
        models: 4,
        years: 3,
        colors: 3,
        seed: 5,
    });
    let mat = MaterializedCube::cube(
        &base,
        dims3(),
        vec![
            sum_units(),
            AggSpec::new(builtin("MAX").unwrap(), "units").with_name("max_units"),
            AggSpec::new(builtin("AVG").unwrap(), "units").with_name("avg_units"),
        ],
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(11);
    let mut live: Vec<Row> = base.rows().to_vec();
    for step in 0..200 {
        if rng.gen_bool(0.5) || live.is_empty() {
            let row = Row::new(vec![
                Value::str(format!("model-{:03}", rng.gen_range(0..4))),
                Value::Int(1990 + rng.gen_range(0..3)),
                Value::str(format!("color-{:03}", rng.gen_range(0..3))),
                Value::Int(rng.gen_range(1..=100)),
            ]);
            mat.insert(row.clone()).unwrap();
            live.push(row);
        } else {
            let idx = rng.gen_range(0..live.len());
            let row = live.swap_remove(idx);
            mat.delete(&row)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }
    base = Table::from_validated_rows(base.schema().clone(), live);
    let batch = CubeQuery::new()
        .dimensions(dims3())
        .aggregate(sum_units())
        .aggregate(AggSpec::new(builtin("MAX").unwrap(), "units").with_name("max_units"))
        .aggregate(AggSpec::new(builtin("AVG").unwrap(), "units").with_name("avg_units"))
        .cube(&base)
        .unwrap();
    assert_eq!(mat.to_table().unwrap().rows(), batch.rows());
}

/// Report rendering round trip: cube → cross tab, values verified against
/// point lookups.
#[test]
fn cross_tab_agrees_with_cube_view() {
    let sales = table4_sales();
    let cube = CubeQuery::new()
        .dimensions(dims3())
        .aggregate(sum_units())
        .cube(&sales)
        .unwrap();
    let view = CubeView::new(cube.clone(), 3, "units").unwrap();
    let chevy = cube.filter(|r| r[0] == Value::str("Chevy"));
    let xt = cross_tab(&chevy, "color", "year", "units").unwrap();
    // Each cross-tab cell equals the corresponding cube.v() lookup.
    for r in xt.rows() {
        let color = match r[0].as_str().unwrap() {
            "total (ALL)" => Value::All,
            c => Value::str(c),
        };
        for (i, year) in [(1usize, 1994i64), (2, 1995)] {
            let got = &r[i];
            let want = view.v(&[Value::str("Chevy"), Value::Int(year), color.clone()]);
            assert_eq!(*got, want, "cell ({color}, {year})");
        }
    }
}

/// The §3.4 minimalist encoding round-trips through a real cube and keeps
/// GROUPING() semantics.
#[test]
fn null_grouping_encoding_on_a_real_cube() {
    let sales = table4_sales();
    let cube = CubeQuery::new()
        .dimensions(dims3())
        .aggregate(sum_units())
        .cube(&sales)
        .unwrap();
    let enc = cube
        .to_null_grouping_encoding(&["model", "year", "color"])
        .unwrap();
    // No ALL left anywhere.
    assert!(enc.rows().iter().all(|r| r.iter().all(|v| !v.is_all())));
    // grouping(...) columns mark exactly the former ALLs.
    let back = enc
        .from_null_grouping_encoding(&["model", "year", "color"])
        .unwrap();
    assert_eq!(back.rows(), cube.rows());
}

/// Grouping-set row counting matches the lattice combinatorics on a dense
/// cube.
#[test]
fn rows_per_grouping_set_match_cardinalities() {
    let sales = dc_warehouse::sales::figure4_sales(); // dense 2 × 3 × 3
    let cube = CubeQuery::new()
        .dimensions(dims3())
        .aggregate(sum_units())
        .cube(&sales)
        .unwrap();
    let card = [2usize, 3, 3];
    for set in datacube::cube_sets(3).unwrap() {
        let expected: usize = (0..3)
            .filter(|d| set.contains(*d))
            .map(|d| card[d])
            .product();
        assert_eq!(
            datacube::rows_in_set(&cube, 3, set),
            expected,
            "rows in grouping set {set}"
        );
    }
    let _ = GroupingSet::EMPTY; // linked for doc purposes
}
