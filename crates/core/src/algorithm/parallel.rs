//! Partition-parallel aggregation (§5).
//!
//! "If the source data spans many disks or nodes, use parallelism to
//! aggregate each partition and then coalesce these aggregates." And the
//! taxonomy discussion adds: "the distributive, algebraic, and holistic
//! taxonomy is very useful in computing aggregates for parallel database
//! systems ... The combination step is very similar to the logic and
//! mechanism used in Figure 8." Here each worker thread computes the core
//! cells of its row partition; partitions are coalesced by scratchpad
//! merging (the same `Iter_super` as the cascade), and the cascade then
//! produces the super-aggregates.

use crate::algorithm::from_core::{cascade, ParentChoice};
use crate::error::CubeResult;
use crate::exec::{self, ExecContext};
use crate::groupby::{compute_core, ExecStats, GroupMap, SetMaps};
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
    threads: usize,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    let threads = threads.max(1).min(rows.len().max(1));
    stats.threads_used = stats.threads_used.max(threads as u32);
    let chunk = rows.len().div_ceil(threads);

    // Aggregate each partition's core in parallel. Every handle is joined
    // before any error propagates: an early `?` would drop the remaining
    // handles and let a second panicking worker unwind through the scope.
    let partials: Vec<CubeResult<(GroupMap, ExecStats)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(chunk.max(1))
            .map(|part| {
                scope.spawn(move |_| -> CubeResult<(GroupMap, ExecStats)> {
                    exec::failpoint("parallel::worker")?;
                    let mut local = ExecStats::default();
                    let core = compute_core(part, dims, aggs, &mut local, ctx)?;
                    Ok((core, local))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|p| Err(exec::panic_error("parallel::worker", p.as_ref())))
            })
            .collect()
    })
    .unwrap_or_else(|p| vec![Err(exec::panic_error("parallel::worker", p.as_ref()))]);

    // Coalesce: merge every partition's cells into one core.
    let mut core = GroupMap::default();
    for partial in partials {
        let (partial, local) = partial?;
        stats.add(&local);
        for (key, accs) in partial {
            match core.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for ((t, s), agg) in e.get_mut().iter_mut().zip(accs.iter()).zip(aggs.iter()) {
                        exec::guard(agg.func.name(), || t.merge(&s.state()))?;
                        stats.merge_calls += 1;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    // First partition to produce this cell: adopt its
                    // scratchpads outright — they are already exactly the
                    // cell's state, so an Init + merge round-trip per
                    // aggregate is pure waste. Later partitions that
                    // revisit the cell hit the Occupied arm and merge.
                    e.insert(accs);
                }
            }
        }
    }

    cascade(
        core,
        aggs,
        lattice,
        ParentChoice::SmallestCardinality,
        stats,
        ctx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::naive;
    use crate::spec::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Schema, Table, Value};

    fn setup(n_rows: usize) -> (Table, Vec<BoundDimension>, Vec<BoundAgg>) {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        let mut t = Table::empty(schema);
        let models = ["Chevy", "Ford", "Dodge"];
        for i in 0..n_rows {
            t.push(row![
                models[i % 3],
                1990 + (i % 5) as i64,
                (i * 7 % 100) as i64
            ])
            .unwrap();
        }
        let dims = ["model", "year"]
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let aggs = vec![
            AggSpec::new(builtin("SUM").unwrap(), "units")
                .bind(t.schema())
                .unwrap(),
            AggSpec::new(builtin("AVG").unwrap(), "units")
                .bind(t.schema())
                .unwrap(),
        ];
        (t, dims, aggs)
    }

    #[test]
    fn matches_naive_across_thread_counts() {
        let (t, dims, aggs) = setup(101);
        let lattice = Lattice::cube(2).unwrap();
        let ctx = ExecContext::unlimited();
        let expected = naive::run_row_path(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ctx,
        )
        .unwrap();
        for threads in [1, 2, 4, 7] {
            let got = run_row_path(
                t.rows(),
                &dims,
                &aggs,
                &lattice,
                threads,
                &mut ExecStats::default(),
                &ctx,
            )
            .unwrap();
            for (set, map) in &expected {
                let (_, gmap) = got.iter().find(|(s, _)| s == set).unwrap();
                assert_eq!(gmap.len(), map.len(), "{threads} threads, set {set}");
                for (k, accs) in map {
                    for (i, acc) in accs.iter().enumerate() {
                        assert_eq!(
                            gmap[k][i].final_value(),
                            acc.final_value(),
                            "{threads} threads, {k}, agg {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let (t, dims, aggs) = setup(3);
        let lattice = Lattice::cube(2).unwrap();
        let maps = run_row_path(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            16,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        )
        .unwrap();
        let (_, grand) = maps.iter().find(|(s, _)| s.is_empty()).unwrap();
        let key = Row::new(vec![Value::All, Value::All]);
        assert_eq!(grand[&key][0].final_value(), Value::Int(7 + 14));
    }

    #[test]
    fn empty_input() {
        let (t, dims, aggs) = setup(0);
        let lattice = Lattice::cube(2).unwrap();
        let maps = run_row_path(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            4,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        )
        .unwrap();
        assert!(maps.iter().all(|(_, m)| m.is_empty()));
    }
}
