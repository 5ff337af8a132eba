//! The 2^N algorithm (§5).
//!
//! "The simplest algorithm to compute the cube is to allocate a handle for
//! each cube cell. When a new tuple (x1, x2, ..., xN, v) arrives, the
//! Iter(handle, v) function is called 2^N times — once for each handle of
//! each cell of the cube matching this value." This is the only algorithm
//! that works for holistic aggregates, and the cost baseline every other
//! algorithm is measured against: `T × |sets| × |aggs|` Iter() calls in a
//! single scan.

use crate::error::CubeResult;
use crate::exec::{self, ExecContext};
use crate::groupby::{full_key, project_key, update_cell, ExecStats, GroupMap, SetMaps};
use crate::lattice::Lattice;
use crate::spec::{BoundAgg, BoundDimension};
use dc_relation::Row;

/// The `Row`-keyed path: fallback when keys don't pack, and the reference
/// the encoded engine is property-tested against.
pub(crate) fn run_row_path(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    exec::failpoint("naive::scan")?;
    let mut maps: SetMaps = lattice
        .sets()
        .iter()
        .map(|&s| (s, GroupMap::default()))
        .collect();
    for (i, row) in rows.iter().enumerate() {
        ctx.tick(i)?;
        stats.rows_scanned += 1;
        let full = full_key(dims, row);
        for (set, map) in maps.iter_mut() {
            let key = project_key(&full, *set);
            update_cell(map, key, row, aggs, stats, ctx)?;
        }
    }
    Ok(maps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::GroupingSet;
    use crate::spec::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Schema, Table, Value};

    fn setup() -> (Table, Vec<BoundDimension>, Vec<BoundAgg>) {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        let t = Table::new(
            schema,
            vec![
                row!["Chevy", 1994, 50],
                row!["Chevy", 1995, 85],
                row!["Ford", 1994, 60],
            ],
        )
        .unwrap();
        let dims = vec![
            Dimension::column("model").bind(t.schema()).unwrap(),
            Dimension::column("year").bind(t.schema()).unwrap(),
        ];
        let aggs = vec![AggSpec::new(builtin("SUM").unwrap(), "units")
            .bind(t.schema())
            .unwrap()];
        (t, dims, aggs)
    }

    #[test]
    fn touches_every_set_per_row() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::cube(2).unwrap();
        let mut stats = ExecStats::default();
        let ctx = ExecContext::unlimited();
        let maps = run_row_path(t.rows(), &dims, &aggs, &lattice, &mut stats, &ctx).unwrap();
        // T × 2^N × |aggs| = 3 × 4 × 1 Iter calls — the paper's cost formula.
        assert_eq!(stats.iter_calls, 12);
        assert_eq!(stats.rows_scanned, 3);
        // Grand total cell.
        let (_, empty_map) = maps.iter().find(|(s, _)| *s == GroupingSet::EMPTY).unwrap();
        let key = Row::new(vec![Value::All, Value::All]);
        assert_eq!(empty_map[&key][0].final_value(), Value::Int(195));
    }
}
