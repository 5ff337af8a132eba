//! The paper's analytic claims that are *counts*, asserted.
//!
//! §5 and §6 argue in units of work — Iter() calls, scans, Iter_super
//! merges, cells recomputed, cells read — and [`ExecStats`],
//! `MaintainStats` and [`SizeModel`] count exactly those. One test per
//! claim id of EXPERIMENTS.md, each a table of cases over the fixtures in
//! `dc_bench`: structural identities are asserted as formulas,
//! data-dependent values as constants (the generators are seeded, so they
//! move only when the engine's work does). C1, C2 and C12 are pinned
//! elsewhere (`tests/properties.rs::cardinality_bounds`, the
//! `paper_tables` golden, `pipesort`'s `sorts == 6` unit test).

use datacube::algorithm::repro::{self, Repro};
use datacube::subcube::total_cost;
use datacube::{
    cube_sets, greedy_select, AggSpec, Algorithm, CachedView, CubeError, CubeQuery, ExecStats,
    Lattice, MaterializedCube, ParentChoice, SizeModel,
};
use dc_aggregate::builtin;
use dc_bench::{
    median_units, sales_dims, sales_query, sales_table, skewed_query, skewed_table, sum_units,
    wide_query, wide_table,
};
use dc_relation::Table;

fn cube_stats(query: CubeQuery, algorithm: Algorithm, table: &Table) -> ExecStats {
    query.algorithm(algorithm).cube_with_stats(table).unwrap().1
}

/// C3 — "the 2^N-algorithm invokes the Iter() function T × 2^N times";
/// from the core it is T, plus one merge per cell folded.
#[test]
fn c3_two_to_the_n_iters_vs_from_core() {
    // (T, Iter_super merges of the from-core cascade); N = 3, Cᵢ = 8.
    for (t, merges) in [(1_000u64, 1_517u64), (10_000, 1_736)] {
        let table = sales_table(t as usize, 8);
        let naive = cube_stats(sales_query(3), Algorithm::TwoToTheN, &table);
        assert_eq!(naive.iter_calls, t << 3, "T x 2^N at T = {t}");
        assert_eq!((naive.rows_scanned, naive.merge_calls), (t, 0));
        let cascade = cube_stats(sales_query(3), Algorithm::FromCore, &table);
        assert_eq!((cascade.rows_scanned, cascade.iter_calls), (t, t));
        assert_eq!(cascade.merge_calls, merges, "merges at T = {t}");
    }
}

/// C4 — §2: an N-dimensional cross-tab written as a UNION of GROUP BYs
/// costs 2^N scans of the data ("64 scans" at N = 6); CUBE scans once.
#[test]
fn c4_union_scans_2n_times_cube_once() {
    let t = 2_000u64;
    for n in 2..=6usize {
        let table = wide_table(t as usize, n, 4);
        let union = cube_stats(wide_query(n), Algorithm::UnionGroupBys, &table);
        assert_eq!(union.rows_scanned / t, 1 << n, "union scans at N = {n}");
        let cube = cube_stats(wide_query(n), Algorithm::FromCore, &table);
        assert_eq!(cube.rows_scanned / t, 1, "cube scans at N = {n}");
    }
}

/// C5 — sort-based ROLLUP: one sort, one scan of T Iter() calls (the
/// order-N scan does T × (N + 1)), and one merge per closed frame.
#[test]
fn c5_sort_rollup_is_one_sort_and_t_iters() {
    let rollup = Lattice::rollup(3).unwrap();
    // (T, Iter_super merges): 512 + 64 + 8 frames once the core is dense.
    for (t, merges) in [(1_000u64, 511u64), (10_000, 584)] {
        let table = sales_table(t as usize, 8);
        let (_, sort) = repro::run(Repro::Sort, &sales_query(3), &table, &rollup, None).unwrap();
        assert_eq!((sort.sorts, sort.rows_scanned, sort.iter_calls), (1, t, t));
        assert_eq!(sort.merge_calls, merges, "merges at T = {t}");
        let (_, order_n) = sales_query(3)
            .algorithm(Algorithm::TwoToTheN)
            .rollup_with_stats(&table)
            .unwrap();
        assert_eq!(order_n.iter_calls, t * 4, "T x (N + 1) at T = {t}");
    }
}

/// C6 — "pick the * with the smallest Cᵢ": on 2 × 16 × 512 the paper's
/// rule merges strictly fewer cells than its inverse, which merges
/// strictly fewer than cascading everything from the core.
#[test]
fn c6_smallest_parent_merges_least() {
    let table = skewed_table(50_000);
    let run = |choice| {
        skewed_query()
            .cube_with_parent_choice(&table, choice)
            .unwrap()
    };
    let (smallest, s) = run(ParentChoice::SmallestCardinality);
    let (largest, l) = run(ParentChoice::LargestCardinality);
    let (always_core, c) = run(ParentChoice::AlwaysCore);
    assert_eq!(smallest.rows(), largest.rows());
    assert_eq!(smallest.rows(), always_core.rows());
    assert!(s.merge_calls < l.merge_calls && l.merge_calls < c.merge_calls);
    assert_eq!(
        (s.merge_calls, l.merge_calls, c.merge_calls),
        (47_965, 64_761, 109_375)
    );
}

/// C9 — §6: INSERT visits the record's 2^N cells whatever the function;
/// SUM is algebraic for DELETE (retracted in place), MAX is holistic for
/// DELETE (the champion's 2^N cells are recomputed from one rescan of the
/// base).
#[test]
fn c9_delete_retracts_sum_and_recomputes_max_champions() {
    let table = sales_table(20_000, 8);
    let max_units = AggSpec::new(builtin("MAX").unwrap(), "units").with_name("max_units");
    let champion = table.rows().iter().max_by_key(|r| r[3].as_i64().unwrap());
    let champion = champion.unwrap().clone();
    // (aggregate, victim, cells recomputed, base rows rescanned)
    for (agg, victim, cells, rows) in [
        (sum_units(), table.rows()[0].clone(), 0, 0),
        (max_units, champion, 8, 19_999),
    ] {
        let name = agg.func.name().to_string();
        let cube = MaterializedCube::cube(&table, sales_dims(), vec![agg]).unwrap();
        cube.delete(&victim).unwrap();
        let deleted = cube.stats();
        assert_eq!(
            (deleted.cells_recomputed, deleted.rows_rescanned),
            (cells, rows),
            "{name}"
        );
        assert_eq!(deleted.cells_updated, 8 - cells, "{name}");
        // Putting the row back touches its 8 cells and rescans nothing.
        cube.insert(victim).unwrap();
        let inserted = cube.stats();
        assert_eq!(inserted.cells_updated, deleted.cells_updated + 8, "{name}");
        assert_eq!(inserted.rows_rescanned, rows, "{name}");
    }
}

/// C10 — "We know of no more efficient way of computing super-aggregates
/// of holistic functions": `Auto` gives MEDIAN the 2^N algorithm, not a
/// cascade, and the store refuses to keep it as mergeable state.
#[test]
fn c10_holistic_gets_no_shortcut() {
    let t = 2_000u64;
    let table = sales_table(t as usize, 8);
    let query = CubeQuery::new()
        .dimensions(sales_dims())
        .aggregate(median_units());
    let auto = cube_stats(query, Algorithm::Auto, &table);
    assert_eq!((auto.iter_calls, auto.merge_calls), (t << 3, 0));
    assert!(matches!(
        CachedView::build(&table, &sales_dims(), &[median_units()]),
        Err(CubeError::Unsupported(_))
    ));
}

/// C11 — HRU: the cells read to answer all 8 sets of a 3D cube from k
/// greedily materialized views, measured off the store's node sizes, is
/// what the selection's cost model predicted.
#[test]
fn c11_cells_read_fall_with_materialized_views() {
    let table = sales_table(50_000, 16);
    let model = SizeModel::independent(&[16, 16, 16], table.len() as u64).unwrap();
    let sets = cube_sets(3).unwrap();
    for (k, cells_read) in [(0, 32_768), (2, 9_728), (4, 5_408), (7, 4_913)] {
        let (selection, predicted) = greedy_select(3, k, &model).unwrap();
        assert_eq!(selection.len(), k + 1, "the core plus k = {k} picks");
        let lattice = Lattice::new(3, selection.clone()).unwrap();
        let store =
            MaterializedCube::with_lattice(&table, sales_dims(), vec![sum_units()], lattice);
        let measured = SizeModel::measured(&store.unwrap()).unwrap();
        assert_eq!(
            total_cost(&sets, &selection, &measured),
            cells_read,
            "k = {k}"
        );
        assert_eq!(predicted, cells_read, "k = {k}");
    }
}
