//! Shared fixtures for the paper's analytic claims.
//!
//! `tests/paper_claims.rs` draws its data from here, so the experiment
//! index in DESIGN.md has one place to point at. Everything is
//! deterministic per seed.

use datacube::{AggSpec, CubeQuery, Dimension};
use dc_relation::Table;
use dc_warehouse::sales::{synthetic_sales, SalesParams};

/// The standard cube dimensions of the sales workloads.
pub fn sales_dims() -> Vec<Dimension> {
    vec![
        Dimension::column("model"),
        Dimension::column("year"),
        Dimension::column("color"),
    ]
}

/// `SUM(units)` — the workhorse distributive aggregate.
pub fn sum_units() -> AggSpec {
    AggSpec::new(dc_aggregate::builtin("SUM").unwrap(), "units").with_name("units")
}

/// `MEDIAN(units)` — the holistic representative (C10).
pub fn median_units() -> AggSpec {
    AggSpec::new(dc_aggregate::builtin("MEDIAN").unwrap(), "units").with_name("med_units")
}

/// A sales table with the given row count and per-dimension cardinality.
pub fn sales_table(rows: usize, cardinality: usize) -> Table {
    synthetic_sales(SalesParams {
        rows,
        models: cardinality,
        years: cardinality,
        colors: cardinality,
        seed: 1996,
    })
}

/// A query over the first `n_dims` sales dimensions with `SUM(units)`.
pub fn sales_query(n_dims: usize) -> CubeQuery {
    CubeQuery::new()
        .dimensions(sales_dims().into_iter().take(n_dims).collect())
        .aggregate(sum_units())
}

/// A wider synthetic table for sweeps beyond three dimensions: dims
/// d0..d{n-1} each with the given cardinality, plus a `units` measure.
pub fn wide_table(rows: usize, n_dims: usize, cardinality: usize) -> Table {
    use dc_relation::{DataType, Row, Schema, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut cols: Vec<(&str, DataType)> = Vec::new();
    let names: Vec<String> = (0..n_dims).map(|d| format!("d{d}")).collect();
    for n in &names {
        cols.push((n.as_str(), DataType::Int));
    }
    cols.push(("units", DataType::Int));
    let schema = Schema::from_pairs(&cols);
    let mut rng = StdRng::seed_from_u64(7 + n_dims as u64);
    let mut t = Table::empty(schema);
    for _ in 0..rows {
        let mut vals: Vec<Value> = (0..n_dims)
            .map(|_| Value::Int(rng.gen_range(0..cardinality.max(1)) as i64))
            .collect();
        vals.push(Value::Int(rng.gen_range(1..=100)));
        t.push_unchecked(Row::new(vals));
    }
    t
}

/// Query over all dimensions of a [`wide_table`].
pub fn wide_query(n_dims: usize) -> CubeQuery {
    CubeQuery::new()
        .dimensions(
            (0..n_dims)
                .map(|d| Dimension::column(format!("d{d}")))
                .collect(),
        )
        .aggregate(sum_units())
}

/// C6's workload: deliberately skewed cardinalities (2 × 16 × 512), so
/// cascading through the wrong parent merges many more cells.
pub fn skewed_table(rows: usize) -> Table {
    use dc_relation::{DataType, Row, Schema, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let schema = Schema::from_pairs(&[
        ("tiny", DataType::Int), // C = 2
        ("mid", DataType::Int),  // C = 16
        ("huge", DataType::Int), // C = 512
        ("units", DataType::Int),
    ]);
    let mut rng = StdRng::seed_from_u64(13);
    let mut t = Table::empty(schema);
    for _ in 0..rows {
        t.push_unchecked(Row::new(vec![
            Value::Int(rng.gen_range(0..2)),
            Value::Int(rng.gen_range(0..16)),
            Value::Int(rng.gen_range(0..512)),
            Value::Int(rng.gen_range(1..=100)),
        ]));
    }
    t
}

/// `SUM(units)` over all three dimensions of a [`skewed_table`].
pub fn skewed_query() -> CubeQuery {
    CubeQuery::new()
        .dimensions(["tiny", "mid", "huge"].map(Dimension::column).to_vec())
        .aggregate(sum_units())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_consistent() {
        let t = sales_table(100, 4);
        assert_eq!(t.len(), 100);
        let cube = sales_query(3).cube(&t).unwrap();
        assert!(!cube.is_empty());
        let w = wide_table(50, 5, 3);
        assert_eq!(w.schema().len(), 6);
        let cube = wide_query(5).cube(&w).unwrap();
        assert!(!cube.is_empty());
    }
}
