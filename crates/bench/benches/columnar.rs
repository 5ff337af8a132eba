//! Columnar measure batches + vectorized kernels, measured.
//!
//! An all-kernel cube query (SUM/AVG/MIN/MAX/COUNT/COUNT(*) over a numeric
//! measure, 4 integer dimensions) through the engine's kernel lanes: typed
//! column vectors scanned in morsels by the monomorphized kernels, serial
//! and morsel-parallel (`Algorithm::Parallel` rides on the same plan).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datacube::Algorithm;
use dc_bench::{kernel_query, wide_table};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_kernels");
    group.sample_size(10);
    for rows in [20_000usize, 100_000] {
        let t = wide_table(rows, 4, 10);
        group.bench_with_input(BenchmarkId::new("vectorized", rows), &t, |b, t| {
            let q = kernel_query(4);
            b.iter(|| q.cube(t).unwrap());
        });
    }
    group.finish();
}

fn bench_morsel_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_morsel_parallel");
    group.sample_size(10);
    let t = wide_table(100_000, 4, 10);
    for threads in [1usize, 2, 4] {
        let id = BenchmarkId::new(format!("vectorized_t{threads}"), 100_000);
        group.bench_with_input(id, &t, |b, t| {
            let q = kernel_query(4).algorithm(Algorithm::Parallel { threads });
            b.iter(|| q.cube(t).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_morsel_parallel);
criterion_main!(benches);
