//! C11 (extension): HRU partial-cube materialization — the §6 citation,
//! measured.
//!
//! Sweep the number of greedily-materialized views k and measure the cost
//! of materializing the selection and answering the whole lattice from it.
//! More views → fewer cells read per query, with diminishing returns —
//! HRU's benefit curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datacube::subcube::total_cost;
use datacube::{
    cube_sets, greedy_select, AncestorRequest, ExecContext, GroupingSet, Lattice, MaterializedCube,
    SizeModel,
};
use dc_bench::{sales_dims, sales_table, sum_units};
use dc_relation::Table;

fn materialize(table: &Table, selection: &[GroupingSet]) -> MaterializedCube {
    let lattice = Lattice::new(3, selection.to_vec()).unwrap();
    MaterializedCube::with_lattice(table, sales_dims(), vec![sum_units()], lattice).unwrap()
}

fn answer_all(store: &MaterializedCube, sets: &[GroupingSet]) -> usize {
    let req = AncestorRequest {
        dim_map: &[0, 1, 2],
        dim_names: &["model", "year", "color"],
        agg_map: &[0],
        agg_names: &["units"],
        sets,
    };
    store.answer(&req, &ExecContext::unlimited()).unwrap().len()
}

fn bench_subcube(c: &mut Criterion) {
    let table = sales_table(50_000, 16);
    let cards = [16usize, 16, 16];
    let model = SizeModel::independent(&cards, table.len() as u64).unwrap();
    let sets = cube_sets(3).unwrap();

    let mut group = c.benchmark_group("C11_partial_cube");
    group.sample_size(10);
    for k in [0usize, 2, 4, 7] {
        let (selection, predicted) = greedy_select(3, k, &model).unwrap();
        group.bench_with_input(BenchmarkId::new("answer_all_sets", k), &table, |b, t| {
            b.iter_batched(
                || materialize(t, &selection),
                |store| answer_all(&store, &sets),
                criterion::BatchSize::LargeInput,
            );
        });
        let measured = SizeModel::measured(&materialize(&table, &selection)).unwrap();
        println!(
            "C11 k={k}: materialized {} views, predicted cost {predicted}, cells read {}",
            selection.len(),
            total_cost(&sets, &selection, &measured)
        );
    }
    group.finish();
}

criterion_group!(benches, bench_subcube);
criterion_main!(benches);
