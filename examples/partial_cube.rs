//! Partial cube materialization — §6's pointer to Harinarayan, Rajaraman
//! and Ullman, exercised end to end: size estimation, greedy view
//! selection, and answering the whole lattice from a handful of views.
//!
//! Run with `cargo run --example partial_cube`.

use datacube::subcube::total_cost;
use datacube::{cube_sets, greedy_select, GroupingSet, Lattice, MaterializedCube, SizeModel};
use datacube::{AggSpec, AncestorRequest, Dimension, ExecContext};
use dc_aggregate::builtin;
use dc_warehouse::sales::{synthetic_sales, SalesParams};

fn main() {
    // A 3D workload with skewed cardinalities: many models, few years.
    let table = synthetic_sales(SalesParams {
        rows: 50_000,
        models: 200,
        years: 5,
        colors: 20,
        seed: 2,
    });
    let dims = vec![
        Dimension::column("model"),
        Dimension::column("year"),
        Dimension::column("color"),
    ];
    let sum = AggSpec::new(builtin("SUM").unwrap(), "units").with_name("units");

    let model = SizeModel::independent(&[200, 5, 20], table.len() as u64).unwrap();
    println!("estimated view sizes (independence model):");
    for set in cube_sets(3).unwrap() {
        println!("  {set:<10} ~{} rows", model.size(set));
    }

    // HRU greedy: how much does each extra materialized view buy?
    println!("\nHRU greedy selection (cost = rows read to answer all 8 sets):");
    for k in 0..=7 {
        let (selection, cost) = greedy_select(3, k, &model).unwrap();
        let picks: Vec<String> = selection.iter().skip(1).map(|s| s.to_string()).collect();
        println!(
            "  k={k}: cost {cost:>8}   picks beyond core: [{}]",
            picks.join(", ")
        );
    }

    // Materialize the k=2 selection and answer every grouping set — AVG
    // included: cells are scratchpads, so a coarser node re-derives it.
    let avg = AggSpec::new(builtin("AVG").unwrap(), "units").with_name("avg_units");
    let (selection, _) = greedy_select(3, 2, &model).unwrap();
    let lattice = Lattice::new(3, selection.clone()).unwrap();
    let store = MaterializedCube::with_lattice(&table, dims, vec![sum, avg], lattice).unwrap();
    println!("\nmaterialized sets (cells):");
    for (set, cells) in store.node_sizes() {
        println!("  {set:<10} {cells}");
    }
    let answer = |set: GroupingSet| {
        let req = AncestorRequest {
            dim_map: &[0, 1, 2],
            dim_names: &["model", "year", "color"],
            agg_map: &[0, 1],
            agg_names: &["units", "avg_units"],
            sets: &[set],
        };
        store.answer(&req, &ExecContext::unlimited()).unwrap()
    };
    let sets = cube_sets(3).unwrap();
    for &set in &sets {
        println!("  answered {set:<10} -> {} rows", answer(set).len());
    }
    let measured = SizeModel::measured(&store).unwrap();
    println!(
        "cells read to answer all 8 sets from the selection: {}",
        total_cost(&sets, &selection, &measured)
    );

    // The grand total, straight off the partial cube.
    println!("grand total row: {}", answer(GroupingSet::EMPTY).rows()[0]);
}
