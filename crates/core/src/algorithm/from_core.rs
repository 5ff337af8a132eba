//! Computing super-aggregates from the core GROUP BY (§5, Figure 8).
//!
//! "It is often faster to compute the super-aggregates from the core
//! GROUP BY, reducing the number of calls by approximately a factor of T."
//! One scan computes the core cells; every other grouping set is then
//! produced by folding a *parent* set's scratchpads (the paper's
//! `Iter_super` call) — never touching base rows again. Parent selection
//! follows the paper's rule: drop the dimension with the smallest
//! cardinality ("pick the * with the smallest Cᵢ").
//!
//! This works for distributive and algebraic aggregates because their
//! scratchpads are closed under merging; holistic aggregates technically
//! merge here too (their scratchpad is the whole multiset) but gain
//! nothing — `Algorithm::Auto` routes them to the 2^N algorithm instead,
//! and benchmark C10 shows why.

use crate::error::CubeResult;
use crate::exec::{self, ExecContext};
use crate::groupby::{compute_core, core_cardinalities, project_key, ExecStats, GroupMap, SetMaps};
use crate::lattice::{GroupingSet, Lattice};
use crate::spec::{BoundAgg, BoundDimension};
use dc_relation::Row;
use std::collections::HashMap;

/// How the cascade picks each set's parent — ablated by benchmark C6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParentChoice {
    /// The paper's rule: aggregate away the smallest-cardinality dimension.
    SmallestCardinality,
    /// Adversarial ablation: aggregate away the largest-cardinality
    /// dimension.
    LargestCardinality,
    /// Always cascade directly from the core (no intermediate reuse).
    AlwaysCore,
}

/// The `Row`-keyed path: fallback when keys don't pack, and the reference
/// the encoded engine is property-tested against.
#[cfg(test)]
pub(crate) fn run_row_path(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    run_with_choice_row_path(
        rows,
        dims,
        aggs,
        lattice,
        ParentChoice::SmallestCardinality,
        stats,
        ctx,
    )
}

pub(crate) fn run_with_choice_row_path(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    choice: ParentChoice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    let core = compute_core(rows, dims, aggs, stats, ctx)?;
    cascade(core, aggs, lattice, choice, stats, ctx)
}

/// The cascade proper: given the core cells, materialize every other
/// grouping set by scratchpad merging. Shared with the parallel algorithm,
/// which builds its core by coalescing per-partition cores first.
pub(crate) fn cascade(
    core: GroupMap,
    aggs: &[BoundAgg],
    lattice: &Lattice,
    choice: ParentChoice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    exec::failpoint("cascade::level")?;
    let core_set = lattice.core();
    let cardinalities = core_cardinalities(&core, lattice.n_dims());

    // Materialized sets, in cascade order (lattice is ordered core-first,
    // decreasing arity, so every set's one-step parents precede it).
    let mut done: HashMap<GroupingSet, GroupMap> = HashMap::new();
    let mut order: Vec<GroupingSet> = Vec::with_capacity(lattice.sets().len());
    done.insert(core_set, core);
    order.push(core_set);

    for &set in lattice.sets() {
        if set == core_set {
            continue;
        }
        let parent = match choice {
            ParentChoice::AlwaysCore => core_set,
            ParentChoice::SmallestCardinality => lattice.choose_parent(set, &cardinalities, &order),
            ParentChoice::LargestCardinality => {
                choose_largest(lattice, set, &cardinalities, &order)
            }
        };
        ctx.checkpoint()?;
        let parent_map = &done[&parent];
        let mut map =
            GroupMap::with_capacity_and_hasher(parent_map.len() / 2 + 1, Default::default());
        for (pkey, paccs) in parent_map {
            let key = project_key(pkey, set);
            let accs = match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    ctx.charge_cells(1)?;
                    e.insert(exec::guarded_init(aggs)?)
                }
            };
            for ((acc, pacc), agg) in accs.iter_mut().zip(paccs.iter()).zip(aggs.iter()) {
                exec::guard(agg.func.name(), || acc.merge(&pacc.state()))?;
                stats.merge_calls += 1;
            }
        }
        done.insert(set, map);
        order.push(set);
    }

    // Emit in lattice order.
    Ok(lattice
        .sets()
        .iter()
        // cube-lint: allow(panic, the cascade above materializes each lattice set exactly once)
        .map(|s| (*s, done.remove(s).expect("every set materialized")))
        .collect())
}

pub(crate) fn choose_largest(
    lattice: &Lattice,
    set: GroupingSet,
    cardinalities: &[usize],
    materialized: &[GroupingSet],
) -> GroupingSet {
    set.parents(lattice.n_dims())
        .into_iter()
        .filter(|p| materialized.contains(p))
        .max_by_key(|p| {
            let added = p.bits() & !set.bits();
            let d = added.trailing_zeros() as usize;
            cardinalities.get(d).copied().unwrap_or(0)
        })
        .unwrap_or_else(|| lattice.core())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::naive;
    use crate::spec::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Schema, Table, Value};

    fn setup() -> (Table, Vec<BoundDimension>, Vec<BoundAgg>) {
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
        let dims = ["model", "year", "color"]
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let aggs = vec![AggSpec::new(builtin("SUM").unwrap(), "units")
            .bind(t.schema())
            .unwrap()];
        (t, dims, aggs)
    }

    // Consumes the maps so keys move instead of cloning per final value.
    fn finals(maps: SetMaps) -> Vec<(GroupingSet, Vec<(Row, Value)>)> {
        maps.into_iter()
            .map(|(s, m)| {
                let mut cells: Vec<(Row, Value)> = m
                    .into_iter()
                    .map(|(k, a)| (k, a[0].final_value()))
                    .collect();
                cells.sort();
                (s, cells)
            })
            .collect()
    }

    #[test]
    fn matches_the_2n_algorithm() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::cube(3).unwrap();
        let ctx = ExecContext::unlimited();
        let mut s1 = ExecStats::default();
        let a = run_row_path(t.rows(), &dims, &aggs, &lattice, &mut s1, &ctx).unwrap();
        let mut s2 = ExecStats::default();
        let b = naive::run_row_path(t.rows(), &dims, &aggs, &lattice, &mut s2, &ctx).unwrap();
        assert_eq!(finals(a), finals(b));
        // And it does it in ONE scan with T iters, vs T × 2^N.
        assert_eq!(s1.rows_scanned, 8);
        assert_eq!(s1.iter_calls, 8);
        assert_eq!(s2.iter_calls, 8 * 8);
    }

    #[test]
    fn parent_choices_agree_on_results() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::cube(3).unwrap();
        let ctx = ExecContext::unlimited();
        let mut base = ExecStats::default();
        let expected = finals(
            run_with_choice_row_path(
                t.rows(),
                &dims,
                &aggs,
                &lattice,
                ParentChoice::SmallestCardinality,
                &mut base,
                &ctx,
            )
            .unwrap(),
        );
        for choice in [ParentChoice::LargestCardinality, ParentChoice::AlwaysCore] {
            let mut stats = ExecStats::default();
            let got = finals(
                run_with_choice_row_path(
                    t.rows(),
                    &dims,
                    &aggs,
                    &lattice,
                    choice,
                    &mut stats,
                    &ctx,
                )
                .unwrap(),
            );
            assert_eq!(got, expected, "{choice:?} must produce identical cells");
        }
    }

    #[test]
    fn algebraic_cascade_gives_exact_average() {
        // Figure 8's scenario: AVG super-aggregates need the (sum, count)
        // scratchpads, not the averaged results.
        let (t, dims, aggs_sum) = setup();
        let _ = aggs_sum;
        let aggs = vec![AggSpec::new(builtin("AVG").unwrap(), "units")
            .bind(t.schema())
            .unwrap()];
        let lattice = Lattice::cube(3).unwrap();
        let maps = run_row_path(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        )
        .unwrap();
        let (_, grand) = maps.iter().find(|(s, _)| s.is_empty()).unwrap();
        let key = Row::new(vec![Value::All, Value::All, Value::All]);
        // Mean of the 8 unit values = 510 / 8.
        assert_eq!(grand[&key][0].final_value(), Value::Float(510.0 / 8.0));
    }

    #[test]
    fn works_on_rollup_lattices() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::rollup(3).unwrap();
        let maps = run_row_path(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        )
        .unwrap();
        assert_eq!(maps.len(), 4);
        // Each rollup level's sub-totals sum to the grand total.
        for (_, map) in &maps {
            let total: i64 = map
                .values()
                .map(|a| a[0].final_value().as_i64().unwrap())
                .sum();
            assert_eq!(total, 510);
        }
    }
}
