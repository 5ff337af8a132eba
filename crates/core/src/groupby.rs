//! The GROUP BY execution core (Figure 2: partition, then aggregate).
//!
//! Every cube algorithm is built from the pieces here: hash-partitioned
//! cells of live accumulators (`GroupMap`), key projection onto a
//! grouping set (replacing dropped dimensions with `ALL`), and
//! materialization of cell maps into result [`Table`]s. [`ExecStats`]
//! counts the work each algorithm does — the unit the paper's §5 cost
//! arguments are phrased in (Iter() calls, scans, merges).

use crate::error::CubeResult;
use crate::exec::{self, ExecContext};
use crate::lattice::GroupingSet;
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::faults::Site;
use dc_aggregate::Accumulator;
use dc_relation::{ColumnDef, FxHashMap, Row, Schema, Table, Value};

/// Work counters for one cube execution; the currency of the paper's cost
/// analysis ("the 2^N-algorithm invokes the Iter() function T × 2^N
/// times").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-table rows scanned (counted once per scan pass).
    pub rows_scanned: u64,
    /// Iter() calls — one per (row, cell, aggregate) touch.
    pub iter_calls: u64,
    /// Iter_super() calls — scratchpad merges in the cascade.
    pub merge_calls: u64,
    /// Final() calls — one per output cell per aggregate.
    pub final_calls: u64,
    /// Sort passes performed — 0 on the engine, which hashes; counted by
    /// `repro`'s Sort and PipeSort.
    pub sorts: u64,
    /// Worker threads the parallel paths actually used after clamping to
    /// the partition count (0 for serial algorithms).
    pub threads_used: u64,
    /// The cascade's projected lattice size exceeded the cell budget and
    /// the query fell back to per-grouping-set streaming scans.
    pub degraded_to_streaming: bool,
    /// Number of aggregate lanes the vectorized columnar kernels carried
    /// (0 when the query ran boxed Init/Iter/Final accumulators — holistic
    /// or user-defined aggregates, or non-primitive measure columns).
    pub vectorized_kernels_used: u64,
    /// Fixed-size row-range morsels pulled by the engine's scan workers
    /// (0 under `repro`, whose algorithms do not scan by morsel).
    pub morsels_processed: u64,
}

impl ExecStats {
    pub fn add(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.iter_calls += other.iter_calls;
        self.merge_calls += other.merge_calls;
        self.final_calls += other.final_calls;
        self.sorts += other.sorts;
        self.threads_used = self.threads_used.max(other.threads_used);
        self.degraded_to_streaming |= other.degraded_to_streaming;
        self.vectorized_kernels_used = self
            .vectorized_kernels_used
            .max(other.vectorized_kernels_used);
        self.morsels_processed += other.morsels_processed;
    }
}

/// The cells of one grouping set: key (one value per *member* replaced by
/// its actual value, dropped dimensions already `ALL`) → one accumulator
/// per aggregate. Hashed with the Fx hash — group keys are not
/// attacker-controlled, so SipHash's DoS resistance buys nothing here.
pub(crate) type GroupMap = FxHashMap<Row, Vec<Box<dyn Accumulator>>>;

/// Cells for a whole family of grouping sets.
pub(crate) type SetMaps = Vec<(GroupingSet, GroupMap)>;

/// Evaluate all dimensions of one row — the full cube coordinate.
#[inline]
pub(crate) fn full_key(dims: &[BoundDimension], row: &Row) -> Row {
    Row::new(dims.iter().map(|d| d.eval(row)).collect())
}

/// Project a full coordinate onto a grouping set: members keep their
/// value, dropped dimensions become `ALL`.
#[inline]
pub(crate) fn project_key(full: &Row, set: GroupingSet) -> Row {
    Row::new(
        full.iter()
            .enumerate()
            .map(|(d, v)| {
                if set.contains(d) {
                    v.clone()
                } else {
                    Value::All
                }
            })
            .collect(),
    )
}

/// Fold one row into one grouping-set map (Init on first touch, then Iter
/// per aggregate). A fresh cell charges the budget; every Init and Iter
/// callback runs under the panic guard.
#[inline]
pub(crate) fn update_cell(
    map: &mut GroupMap,
    key: Row,
    row: &Row,
    aggs: &[BoundAgg],
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<()> {
    use std::collections::hash_map::Entry;
    let accs = match map.entry(key) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            ctx.charge_cells(1)?;
            e.insert(exec::guarded_init(aggs)?)
        }
    };
    for (acc, agg) in accs.iter_mut().zip(aggs.iter()) {
        exec::guard(agg.func.name(), || acc.iter(agg.input_value(row)))?;
        stats.iter_calls += 1;
    }
    Ok(())
}

/// One full scan computing the cube *core* — the ordinary GROUP BY over
/// all dimensions.
pub(crate) fn compute_core(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<GroupMap> {
    exec::failpoint(Site::CoreScan)?;
    let mut map = GroupMap::default();
    for (i, row) in rows.iter().enumerate() {
        ctx.tick(i)?;
        stats.rows_scanned += 1;
        let key = full_key(dims, row);
        update_cell(&mut map, key, row, aggs, stats, ctx)?;
    }
    Ok(map)
}

/// Distinct-value count per dimension, read off the core's keys. These are
/// the `C_i` of the paper's cardinality formula and drive smallest-parent
/// selection. Only the `Row`-keyed reference pays this scan — the engine
/// reads the same counts off the symbol tables built during encoding
/// ([`crate::encode::KeyEncoder::cardinalities`]).
pub(crate) fn core_cardinalities(core: &GroupMap, n_dims: usize) -> Vec<usize> {
    let mut seen: Vec<dc_relation::FxHashSet<&Value>> = (0..n_dims)
        .map(|_| dc_relation::FxHashSet::default())
        .collect();
    for key in core.keys() {
        for (d, v) in key.iter().enumerate() {
            seen[d].insert(v);
        }
    }
    seen.into_iter().map(|s| s.len()).collect()
}

/// The result schema: grouping columns (marked `ALL ALLOWED`) followed by
/// one column per aggregate.
pub(crate) fn result_schema(
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    agg_types: &[dc_relation::DataType],
) -> CubeResult<Schema> {
    let mut cols: Vec<ColumnDef> = dims
        .iter()
        .map(|d| ColumnDef::with_all(&*d.name, d.dtype))
        .collect();
    for (a, ty) in aggs.iter().zip(agg_types.iter()) {
        cols.push(ColumnDef::new(&*a.output, *ty));
    }
    Ok(Schema::new(cols)?)
}

/// Materialize cell maps into one relation, in the set order given
/// (core first), each set's rows sorted by key so output is deterministic.
/// Each Final() callback runs under the panic guard.
pub(crate) fn materialize(
    schema: Schema,
    set_maps: SetMaps,
    aggs: &[BoundAgg],
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Table> {
    exec::failpoint(Site::Materialize)?;
    let mut out = Table::empty(schema);
    for (_set, map) in set_maps {
        ctx.checkpoint()?;
        let mut cells: Vec<(Row, Vec<Box<dyn Accumulator>>)> = map.into_iter().collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (key, accs)) in cells.into_iter().enumerate() {
            ctx.tick(i)?;
            let mut vals = Vec::with_capacity(key.len() + accs.len());
            vals.extend_from_slice(key.values());
            for (acc, agg) in accs.iter().zip(aggs.iter()) {
                vals.push(exec::guard(agg.func.name(), || acc.final_value())?);
                stats.final_calls += 1;
            }
            out.push_unchecked(Row::new(vals));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType};

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        Table::new(
            schema,
            vec![
                row!["Chevy", 1994, 50],
                row!["Chevy", 1994, 40],
                row!["Chevy", 1995, 85],
                row!["Ford", 1994, 60],
            ],
        )
        .unwrap()
    }

    fn bind(
        t: &Table,
        dims: &[&str],
        agg: &str,
        col: &str,
    ) -> (Vec<BoundDimension>, Vec<BoundAgg>) {
        let dims: Vec<BoundDimension> = dims
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let aggs = vec![AggSpec::new(builtin(agg).unwrap(), col)
            .bind(t.schema())
            .unwrap()];
        (dims, aggs)
    }

    #[test]
    fn core_partitions_and_aggregates() {
        let t = sales();
        let (dims, aggs) = bind(&t, &["model", "year"], "SUM", "units");
        let mut stats = ExecStats::default();
        let core = compute_core(
            t.rows(),
            &dims,
            &aggs,
            &mut stats,
            &ExecContext::unlimited(),
        )
        .unwrap();
        assert_eq!(core.len(), 3); // (Chevy,94) (Chevy,95) (Ford,94)
        assert_eq!(stats.rows_scanned, 4);
        assert_eq!(stats.iter_calls, 4); // one agg × four rows
        let key = row!["Chevy", 1994];
        assert_eq!(core[&key][0].final_value(), Value::Int(90));
    }

    #[test]
    fn cardinalities_from_core() {
        let t = sales();
        let (dims, aggs) = bind(&t, &["model", "year"], "SUM", "units");
        let core = compute_core(
            t.rows(),
            &dims,
            &aggs,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        )
        .unwrap();
        assert_eq!(core_cardinalities(&core, 2), vec![2, 2]);
    }

    #[test]
    fn project_key_substitutes_all() {
        let full = row!["Chevy", 1994];
        let set = GroupingSet::from_dims(&[1]).unwrap();
        let p = project_key(&full, set);
        assert_eq!(p[0], Value::All);
        assert_eq!(p[1], Value::Int(1994));
    }

    #[test]
    fn materialize_sorts_cells() {
        let t = sales();
        let (dims, aggs) = bind(&t, &["model"], "SUM", "units");
        let mut stats = ExecStats::default();
        let ctx = ExecContext::unlimited();
        let core = compute_core(t.rows(), &dims, &aggs, &mut stats, &ctx).unwrap();
        let schema = result_schema(&dims, &aggs, &[DataType::Int]).unwrap();
        let table = materialize(
            schema,
            vec![(GroupingSet::full(1), core)],
            &aggs,
            &mut stats,
            &ctx,
        )
        .unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows()[0], row!["Chevy", 175]);
        assert_eq!(table.rows()[1], row!["Ford", 60]);
        assert_eq!(stats.final_calls, 2);
    }
}
