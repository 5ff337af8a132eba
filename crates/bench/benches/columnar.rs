//! Columnar measure batches + vectorized kernels, measured.
//!
//! The same all-kernel cube query (SUM/AVG/MIN/MAX/COUNT/COUNT(*) over a
//! numeric measure, 4 integer dimensions) through both paths:
//!
//! * **vectorized** — the engine's kernel lanes: typed column vectors
//!   scanned in morsels by the monomorphized kernels;
//! * **row_keys** — the `Row`-keyed reference hash path.
//!
//! Morsel-parallel scaling rides on the same plan via
//! `Algorithm::Parallel`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datacube::Algorithm;
use dc_bench::{kernel_query, wide_table};

/// `(axis name, encoded_keys)`.
const VARIANTS: [(&str, bool); 2] = [("vectorized", true), ("row_keys", false)];

fn bench_kernels_vs_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_kernels_vs_row");
    group.sample_size(10);
    for rows in [20_000usize, 100_000] {
        let t = wide_table(rows, 4, 10);
        for (name, encoded) in VARIANTS {
            group.bench_with_input(BenchmarkId::new(name, rows), &t, |b, t| {
                let q = kernel_query(4).encoded_keys(encoded);
                b.iter(|| q.cube(t).unwrap());
            });
        }
    }
    group.finish();
}

fn bench_morsel_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_morsel_parallel");
    group.sample_size(10);
    let t = wide_table(100_000, 4, 10);
    for threads in [1usize, 2, 4] {
        for (name, encoded) in VARIANTS {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_t{threads}"), 100_000),
                &t,
                |b, t| {
                    let q = kernel_query(4)
                        .encoded_keys(encoded)
                        .algorithm(Algorithm::Parallel { threads });
                    b.iter(|| q.cube(t).unwrap());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels_vs_row, bench_morsel_parallel);
criterion_main!(benches);
