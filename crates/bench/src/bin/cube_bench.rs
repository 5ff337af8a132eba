//! `cube_bench`: the PR-level acceptance harness, writing `BENCH_pr*.json`.
//!
//! Six workloads, timed with `std::time::Instant` (criterion's report
//! machinery is deliberately avoided so the binary can run in CI and
//! emit one machine-readable file):
//!
//! * **ekeys_sales** — the E-keys workload: the 3-dimension sales cube
//!   with packed-`u64` keys on vs the `Row`-key fallback;
//! * **columnar_wide** — the columnar workload: a 100k-row, 4-dimension
//!   numeric cube with every built-in kernel in the select list, run
//!   through the engine's kernel lanes and the plain `Row`-key path;
//! * **rle_sorted** — a 100k-row sorted table with a piecewise-constant
//!   measure, where the run-folding scan engages by sample;
//! * **service_concurrent** — sustained throughput through the shared
//!   `Engine` service: 1 vs 8 concurrent sessions, each alternating a
//!   cheap single-set GROUP BY with a full 2-dimension CUBE under the
//!   admission controller (`ns_per_op` is wall time per query, so lower
//!   at 8 sessions means the shared catalog and admission gate scale).
//!   The lattice cache is pinned OFF here so the record stays comparable
//!   with earlier BENCH files — cache serving has its own workload;
//! * **cache_serving** — repeated ancestor queries (GROUP BY d0, GROUP BY
//!   d1, and the full CUBE) against one shared engine, 1 and 8 sessions,
//!   with the lattice cache on vs off: the `on` axes answer from the
//!   materialized core cuboid, the `off` axes rescan the base rows;
//! * **ingest_serving** — sustained SQL `INSERT` throughput through the
//!   batched write path at batch sizes 1, 256, and 8192 rows per
//!   statement, while 8 reader sessions keep querying the same table
//!   (`ns_per_op` is wall time per *ingested row*, so rows/sec is
//!   `1e9 / ns_per_op`; bigger batches amortize the per-batch
//!   grouping-set fold and the cache delta-propagation).
//!
//! Output: a JSON array of `{workload, rows, dims, algorithm, ns_per_op}`
//! records, written to `--json <path>` (default: `BENCH_pr9.json` at the
//! repository root; see EXPERIMENTS.md "BENCH files"). `--smoke` shrinks
//! every workload to a few thousand rows and a single iteration — a
//! seconds-long sanity pass for verify.sh, not a measurement — and
//! prints to stderr without writing any file. `--cache-smoke` runs only
//! the cache_serving workload at smoke sizes and fails unless cache-on
//! beats cache-off; `--ingest-smoke` runs only ingest_serving at smoke
//! sizes and fails unless batch-8192 ingest is at least 5× the rows/sec
//! of row-at-a-time ingest — both wiring PR headline claims into
//! verify.sh.

use datacube::CubeQuery;
use dc_bench::{kernel_query, sales_query, sales_table, sorted_table, wide_table};
use dc_relation::Table;
use dc_sql::{Engine, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

struct Record {
    workload: &'static str,
    rows: usize,
    dims: usize,
    algorithm: &'static str,
    ns_per_op: u128,
}

/// Median-of-`iters` wall time for one full cube computation.
fn time_cube(query: &CubeQuery, table: &Table, iters: usize) -> u128 {
    // One warmup pass touches every page the timed passes will.
    let warm = query.cube(table).expect("bench query");
    assert!(!warm.is_empty());
    let mut samples: Vec<u128> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            let out = query.cube(table).expect("bench query");
            let ns = start.elapsed().as_nanos();
            std::hint::black_box(out);
            ns
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The cache_serving workload: repeated ancestor queries through the
/// shared engine, 1 and 8 sessions, lattice cache on vs off. Every query
/// after the warmup CUBE is answerable from the materialized core cuboid
/// when the cache is on; off, each one rescans the base table.
fn cache_serving(service_rows: usize, service_queries: usize, records: &mut Vec<Record>) {
    let service = wide_table(service_rows, 2, 16);
    const ANCESTOR_SQLS: [&str; 3] = [
        "SELECT d0, d1, SUM(units) AS s FROM t GROUP BY CUBE d0, d1",
        "SELECT d0, SUM(units) AS s FROM t GROUP BY d0",
        "SELECT d1, SUM(units) AS s FROM t GROUP BY d1",
    ];
    for (algorithm, cache_on, sessions) in [
        ("cache_on_1", true, 1usize),
        ("cache_off_1", false, 1),
        ("cache_on_8", true, 8),
        ("cache_off_8", false, 8),
    ] {
        let mut engine = Engine::with_service(ServiceConfig {
            max_concurrent: 8,
            cheap_reserved: 2,
            cheap_cells: service_rows as u64 + 1,
            global_cells: 64 * (service_rows as u64 + 1),
            min_grant_cells: 1,
            queue_depth: 64,
        });
        engine.cube_cache().set_enabled(cache_on);
        engine
            .register_table("t", service.clone())
            .expect("bench table");
        let engine = Arc::new(engine);
        // The warmup CUBE touches every page and, cache on, materializes
        // the core cuboid every later query re-aggregates from.
        std::hint::black_box(engine.execute(ANCESTOR_SQLS[0]).expect("bench query"));
        let start = Instant::now();
        let workers: Vec<_> = (0..sessions)
            .map(|w| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let session = engine.session();
                    for q in 0..service_queries {
                        let sql = ANCESTOR_SQLS[(w + q) % ANCESTOR_SQLS.len()];
                        std::hint::black_box(session.execute(sql).expect("bench query"));
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().expect("bench session");
        }
        let total = (sessions * service_queries) as u128;
        records.push(Record {
            workload: "cache_serving",
            rows: service_rows,
            dims: 2,
            algorithm,
            ns_per_op: start.elapsed().as_nanos() / total,
        });
        eprintln!(
            "cache_serving/{algorithm}: {} ns/op",
            records.last().unwrap().ns_per_op
        );
    }
}

/// One multi-row `INSERT` statement with `batch_rows` value tuples over
/// the `(d0, d1, units)` schema, deterministic so every batch folds into
/// the same 16 × 16 cell neighbourhood.
fn insert_stmt(batch_rows: usize) -> String {
    let mut stmt = String::from("INSERT INTO t VALUES ");
    for i in 0..batch_rows {
        if i > 0 {
            stmt.push_str(", ");
        }
        let d0 = i % 16;
        let d1 = (i / 16) % 16;
        let units = 1 + (i % 100);
        stmt.push_str(&format!("({d0}, {d1}, {units})"));
    }
    stmt
}

/// The ingest_serving workload: one writer session streams `ingest_rows`
/// rows through SQL `INSERT` at a fixed batch size while 8 reader
/// sessions keep issuing the same cached GROUP BY. `ns_per_op` is wall
/// time per ingested row. After the stream drains, a repeat read must
/// still answer from the lattice cache — delta-propagation, not
/// invalidate-everything.
fn ingest_serving(seed_rows: usize, ingest_rows: usize, records: &mut Vec<Record>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    const READERS: usize = 8;
    const READER_SQL: &str = "SELECT d0, SUM(units) AS s FROM t GROUP BY d0";
    for (algorithm, batch_rows) in [
        ("batch_1", 1usize),
        ("batch_256", 256),
        ("batch_8192", 8192),
    ] {
        let budget = (seed_rows + ingest_rows) as u64 + 1;
        let mut engine = Engine::with_service(ServiceConfig {
            max_concurrent: 8,
            cheap_reserved: 2,
            cheap_cells: budget,
            global_cells: 64 * budget,
            min_grant_cells: 1,
            queue_depth: 64,
        });
        engine
            .register_table("t", wide_table(seed_rows, 2, 16))
            .expect("bench table");
        let engine = Arc::new(engine);
        // Warm the cache so the readers serve from the materialized view.
        std::hint::black_box(engine.execute(READER_SQL).expect("bench query"));
        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let session = engine.session();
                    let mut served = 0usize;
                    while !done.load(Ordering::Relaxed) {
                        std::hint::black_box(session.execute(READER_SQL).expect("bench query"));
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        let stmt = insert_stmt(batch_rows);
        // Cap the statement count: row-at-a-time ingest is ~1000× slower
        // per row (that is the finding), so 256 single-row statements
        // already measure it to a few percent without making the axis
        // take minutes.
        let batches = (ingest_rows / batch_rows).clamp(1, 256);
        let writer = engine.session();
        let start = Instant::now();
        for _ in 0..batches {
            std::hint::black_box(writer.execute(&stmt).expect("bench insert"));
        }
        let ns = start.elapsed().as_nanos();
        done.store(true, Ordering::Relaxed);
        let served: usize = readers
            .into_iter()
            .map(|h| h.join().expect("bench reader"))
            .sum();
        // The cache keeps answering after sustained ingest: a repeat read
        // is a hit, proving the deltas were absorbed, not just dropped.
        let check = engine.session();
        check.execute(READER_SQL).expect("bench query");
        check.execute(READER_SQL).expect("bench query");
        assert!(
            check.last_admission().answered_from_cache,
            "lattice cache must keep answering after ingest ({algorithm})"
        );
        let rows_ingested = batches * batch_rows;
        records.push(Record {
            workload: "ingest_serving",
            rows: rows_ingested,
            dims: 2,
            algorithm,
            ns_per_op: ns / rows_ingested as u128,
        });
        eprintln!(
            "ingest_serving/{algorithm}: {} ns/row ({served} reads served alongside)",
            records.last().unwrap().ns_per_op
        );
    }
}

/// Rows-per-second ratio of batch-8192 over row-at-a-time ingest from
/// ingest_serving records, for the `--ingest-smoke` gate.
fn ingest_speedup(records: &[Record]) -> f64 {
    let ns_of = |alg: &str| {
        records
            .iter()
            .find(|r| r.workload == "ingest_serving" && r.algorithm == alg)
            .map(|r| r.ns_per_op as f64)
            .expect("ingest_serving record")
    };
    ns_of("batch_1") / ns_of("batch_8192")
}

/// The on-vs-off wall-time ratio per session count from cache_serving
/// records, for the `--cache-smoke` gate.
fn cache_speedups(records: &[Record]) -> Vec<(usize, f64)> {
    let ns_of = |alg: &str| {
        records
            .iter()
            .find(|r| r.workload == "cache_serving" && r.algorithm == alg)
            .map(|r| r.ns_per_op as f64)
            .expect("cache_serving record")
    };
    vec![
        (1, ns_of("cache_off_1") / ns_of("cache_on_1")),
        (8, ns_of("cache_off_8") / ns_of("cache_on_8")),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cache_smoke = args.iter().any(|a| a == "--cache-smoke");
    let ingest_smoke = args.iter().any(|a| a == "--ingest-smoke");
    let mut json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json").to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_path = it.next().expect("--json requires a path").clone();
        }
    }
    let (sales_rows, wide_rows, rle_rows, iters) = if smoke {
        (2_000, 5_000, 5_000, 1)
    } else {
        (50_000, 100_000, 100_000, 5)
    };
    let (service_rows, service_queries) = if smoke || cache_smoke || ingest_smoke {
        (5_000, 4)
    } else {
        (50_000, 32)
    };
    let ingest_rows = if smoke || ingest_smoke { 8_192 } else { 65_536 };
    let mut records: Vec<Record> = Vec::new();

    // The verify.sh gate for the lattice cache: run only cache_serving at
    // smoke sizes and require cache-on to beat cache-off outright.
    if cache_smoke {
        cache_serving(service_rows, service_queries, &mut records);
        for (sessions, speedup) in cache_speedups(&records) {
            eprintln!("cache_serving sessions_{sessions}: {speedup:.1}x on-vs-off");
            assert!(
                speedup > 1.0,
                "lattice cache must not be slower than the base scan \
                 (sessions={sessions}, {speedup:.2}x)"
            );
        }
        println!("cache smoke pass ok");
        return;
    }

    // The verify.sh gate for the write path: run only ingest_serving at
    // smoke sizes and require batched ingest to amortize — at least 5×
    // the rows/sec of row-at-a-time — with the cache still answering.
    if ingest_smoke {
        ingest_serving(service_rows, ingest_rows, &mut records);
        let speedup = ingest_speedup(&records);
        eprintln!("ingest_serving: {speedup:.1}x rows/sec, batch 8192 vs 1");
        assert!(
            speedup >= 5.0,
            "batched ingest must amortize at least 5x over row-at-a-time \
             ({speedup:.2}x)"
        );
        println!("ingest smoke pass ok");
        return;
    }

    // ---- E-keys: encoded vs Row keys over string dimensions ----------
    let sales = sales_table(sales_rows, 8);
    for (algorithm, encoded) in [("encoded", true), ("row_keys", false)] {
        let q = sales_query(3).encoded_keys(encoded);
        records.push(Record {
            workload: "ekeys_sales",
            rows: sales_rows,
            dims: 3,
            algorithm,
            ns_per_op: time_cube(&q, &sales, iters),
        });
        eprintln!(
            "ekeys_sales/{algorithm}: {} ns/op",
            records.last().unwrap().ns_per_op
        );
    }

    // ---- Columnar: kernel lanes vs the Row-keyed reference path ------
    let wide = wide_table(wide_rows, 4, 10);
    for (algorithm, encoded) in [("vectorized", true), ("row_keys", false)] {
        let q = kernel_query(4).encoded_keys(encoded);
        records.push(Record {
            workload: "columnar_wide",
            rows: wide_rows,
            dims: 4,
            algorithm,
            ns_per_op: time_cube(&q, &wide, iters),
        });
        eprintln!(
            "columnar_wide/{algorithm}: {} ns/op",
            records.last().unwrap().ns_per_op
        );
    }

    // ---- RLE: the run-folding scan engages on sorted input ----------
    let sorted = sorted_table(rle_rows, 64);
    records.push(Record {
        workload: "rle_sorted",
        rows: rle_rows,
        dims: 1,
        algorithm: "rle",
        ns_per_op: time_cube(&kernel_query(1), &sorted, iters),
    });
    eprintln!(
        "rle_sorted/rle: {} ns/op",
        records.last().unwrap().ns_per_op
    );

    // ---- Service: concurrent sessions through the shared engine ------
    let service = wide_table(service_rows, 2, 16);
    const CHEAP_SQL: &str = "SELECT d0, SUM(units) AS s FROM t GROUP BY d0";
    const CUBE_SQL: &str = "SELECT d0, d1, SUM(units) AS s FROM t GROUP BY CUBE d0, d1";
    for (algorithm, sessions) in [("sessions_1", 1usize), ("sessions_8", 8)] {
        let mut engine = Engine::with_service(ServiceConfig {
            max_concurrent: 8,
            cheap_reserved: 2,
            cheap_cells: service_rows as u64 + 1,
            global_cells: 64 * (service_rows as u64 + 1),
            min_grant_cells: 1,
            queue_depth: 64,
        });
        // Cache off: this record measures admission + base-scan scaling,
        // comparable with earlier BENCH files; cache_serving below owns
        // the lattice-cache axes.
        engine.cube_cache().set_enabled(false);
        engine
            .register_table("t", service.clone())
            .expect("bench table");
        let engine = Arc::new(engine);
        // One warmup query touches every page the timed sessions will.
        std::hint::black_box(engine.execute(CUBE_SQL).expect("bench query"));
        let start = Instant::now();
        let workers: Vec<_> = (0..sessions)
            .map(|w| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let session = engine.session();
                    for q in 0..service_queries {
                        let sql = if (w + q) % 2 == 0 {
                            CHEAP_SQL
                        } else {
                            CUBE_SQL
                        };
                        std::hint::black_box(session.execute(sql).expect("bench query"));
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().expect("bench session");
        }
        let total = (sessions * service_queries) as u128;
        records.push(Record {
            workload: "service_concurrent",
            rows: service_rows,
            dims: 2,
            algorithm,
            ns_per_op: start.elapsed().as_nanos() / total,
        });
        eprintln!(
            "service_concurrent/{algorithm}: {} ns/op",
            records.last().unwrap().ns_per_op
        );
    }

    // ---- Lattice cache: ancestor serving vs base rescans --------------
    cache_serving(service_rows, service_queries, &mut records);

    // ---- Write path: batched ingest under concurrent serving ----------
    ingest_serving(service_rows, ingest_rows, &mut records);

    // The deliverable: one BENCH_pr*.json at the repository root. Smoke
    // runs are sanity passes, not measurements — they write nothing.
    if smoke {
        println!("smoke pass ok ({} records, no file written)", records.len());
        return;
    }
    let json: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"workload\": \"{}\", \"rows\": {}, \"dims\": {}, \
                 \"algorithm\": \"{}\", \"ns_per_op\": {}}}",
                r.workload, r.rows, r.dims, r.algorithm, r.ns_per_op
            )
        })
        .collect();
    std::fs::write(&json_path, format!("[\n{}\n]\n", json.join(",\n"))).expect("write bench json");
    println!("wrote {} records to {json_path}", records.len());
}
