//! The union-of-GROUP-BYs plan (§2).
//!
//! "A six dimension cross-tab requires a 64-way union of 64 different
//! GROUP BY operators ... On most SQL systems this will result in 64 scans
//! of the data, 64 sorts or hashes, and a long wait." This module
//! materializes exactly that plan — one independent GROUP BY scan per
//! grouping set — so the benchmarks can measure what the CUBE operator
//! saves over the hand-written query.

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
    exec::failpoint("unions::scan")?;
    let mut maps = SetMaps::with_capacity(lattice.sets().len());
    for &set in lattice.sets() {
        // One full scan per grouping set — the cost §2 complains about.
        let mut map = GroupMap::default();
        for (i, row) in rows.iter().enumerate() {
            ctx.tick(i)?;
            stats.rows_scanned += 1;
            let key = project_key(&full_key(dims, row), set);
            update_cell(&mut map, key, row, aggs, stats, ctx)?;
        }
        maps.push((set, map));
    }
    Ok(maps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Schema, Table};

    #[test]
    fn one_scan_per_grouping_set() {
        let schema = Schema::from_pairs(&[("model", DataType::Str), ("units", DataType::Int)]);
        let t = Table::new(schema, vec![row!["Chevy", 50], row!["Ford", 60]]).unwrap();
        let dims = vec![Dimension::column("model").bind(t.schema()).unwrap()];
        let aggs = vec![AggSpec::new(builtin("SUM").unwrap(), "units")
            .bind(t.schema())
            .unwrap()];
        let lattice = Lattice::cube(1).unwrap();
        let mut stats = ExecStats::default();
        run_row_path(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut stats,
            &ExecContext::unlimited(),
        )
        .unwrap();
        // 2 sets × 2 rows: each set re-scans the base table.
        assert_eq!(stats.rows_scanned, 4);
    }
}
