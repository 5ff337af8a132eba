//! Concurrency stress: the morsel-claiming atomic cursor, partition
//! coalescing, and cancellation under parallel execution.
//!
//! Loom-free by design — these tests hammer the real engine through its
//! public API and assert *exact* result counts, so a lost or double-claimed
//! morsel shows up as a wrong aggregate, not a flaky hang.

use datacube::maintain::MaterializedCube;
use datacube::{AggSpec, Algorithm, CancelToken, CubeError, CubeQuery, Dimension, ExecLimits};
use dc_aggregate::{builtin, Accumulator, AggKind, AggregateFunction, Retract};
use dc_relation::{row, DataType, Schema, Table, Value};
use std::sync::Arc;

const ROWS: usize = 40_000;
const MODELS: i64 = 7;
const YEARS: i64 = 11;

/// A deterministic table large enough to span many morsels (MORSEL_ROWS =
/// 1024) with a closed-form SUM for every cube cell.
fn big_table() -> Table {
    let schema = Schema::from_pairs(&[
        ("model", DataType::Int),
        ("year", DataType::Int),
        ("units", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..ROWS as i64 {
        t.push(row![i % MODELS, i % YEARS, 1i64]).unwrap();
    }
    t
}

/// `SUM(units)` under `Parallel { threads }`. With `kernel_lanes` the
/// select list is all-kernel; without, a VARIANCE (no kernel) rides along
/// and gives the whole query boxed accumulator lanes.
fn sum_query(threads: usize, kernel_lanes: bool) -> CubeQuery {
    let query = CubeQuery::new()
        .dimensions(vec![Dimension::column("model"), Dimension::column("year")])
        .aggregate(AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s"))
        .algorithm(Algorithm::Parallel { threads });
    if kernel_lanes {
        query
    } else {
        query.aggregate(AggSpec::new(builtin("VARIANCE").unwrap(), "units").with_name("v"))
    }
}

fn grand_total(cube: &Table) -> i64 {
    let s = cube.schema().index_of("s").unwrap();
    cube.rows()
        .iter()
        .find(|r| r[0].is_all() && r[1].is_all())
        .and_then(|r| r[s].as_i64())
        .unwrap()
}

/// Workers race on one atomic cursor; every repetition must claim each
/// morsel exactly once, or the grand total (one unit per row) drifts.
#[test]
fn parallel_morsel_claims_are_exact_under_contention() {
    let t = big_table();
    let serial = [false, true].map(|kernel_lanes| sum_query(1, kernel_lanes).cube(&t).unwrap());
    for round in 0..8 {
        for &threads in &[2usize, 4, 8] {
            let kernel_lanes = round % 2 == 0;
            let cube = sum_query(threads, kernel_lanes).cube(&t).unwrap();
            assert_eq!(
                grand_total(&cube),
                ROWS as i64,
                "lost/duplicated morsel at threads={threads} round={round}"
            );
            assert_eq!(
                cube.rows(),
                serial[kernel_lanes as usize].rows(),
                "parallel result diverged at threads={threads} round={round}"
            );
        }
    }
}

/// Cancellation racing a parallel scan: the query either completes with
/// the exact answer or unwinds with `Cancelled` — never a torn result.
#[test]
fn cancellation_race_is_all_or_nothing() {
    let t = big_table();
    for delay_us in [0u64, 20, 50, 100, 400, 2_000] {
        for kernel_lanes in [false, true] {
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(delay_us));
                    token.cancel();
                })
            };
            let result = sum_query(4, kernel_lanes)
                .limits(ExecLimits::none().cancel_token(token))
                .cube(&t);
            canceller.join().unwrap();
            match result {
                Ok(cube) => assert_eq!(
                    grand_total(&cube),
                    ROWS as i64,
                    "completed query returned a torn result (delay={delay_us}us)"
                ),
                Err(CubeError::Cancelled { .. }) => {}
                Err(other) => panic!("unexpected error under cancellation: {other}"),
            }
        }
    }
}

/// Many queries cancel concurrently on distinct tokens while others run
/// to completion — no cross-talk between sessions.
#[test]
fn concurrent_cancel_and_complete_sessions_do_not_interfere() {
    let t = Arc::new(big_table());
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let token = CancelToken::new();
                if i % 2 == 0 {
                    // This session cancels itself almost immediately.
                    let tok = token.clone();
                    std::thread::spawn(move || tok.cancel());
                }
                let result = sum_query(2, i % 3 == 0)
                    .limits(ExecLimits::none().cancel_token(token))
                    .cube(&t);
                match result {
                    Ok(cube) => assert_eq!(grand_total(&cube), ROWS as i64),
                    Err(CubeError::Cancelled { .. }) => {}
                    Err(other) => panic!("unexpected error: {other}"),
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// A user-defined aggregate that panics in a chosen lifecycle call.
struct Bomb {
    in_iter: bool,
}

struct BombAcc {
    in_iter: bool,
}

impl Accumulator for BombAcc {
    fn iter(&mut self, _v: &Value) {
        if self.in_iter {
            panic!("bomb in Iter");
        }
    }
    fn state(&self) -> Vec<Value> {
        Vec::new()
    }
    fn merge(&mut self, _state: &[Value]) {}
    fn final_value(&self) -> Value {
        if !self.in_iter {
            panic!("bomb in Final");
        }
        Value::Null
    }
    fn retract(&mut self, _v: &Value) -> Retract {
        Retract::Applied
    }
}

impl AggregateFunction for Bomb {
    fn name(&self) -> &str {
        "BOMB"
    }
    fn kind(&self) -> AggKind {
        AggKind::Distributive
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(BombAcc {
            in_iter: self.in_iter,
        })
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Int)
    }
}

fn small_table() -> Table {
    let schema = Schema::from_pairs(&[("k", DataType::Str), ("v", DataType::Int)]);
    Table::new(schema, vec![row!["a", 1], row!["a", 2], row!["b", 3]]).unwrap()
}

/// Maintenance triggers run UDA code under the panic guard: a bomb in
/// Iter fails construction with `AggPanicked` instead of tearing down.
#[test]
fn materialized_cube_contains_uda_panics() {
    let t = small_table();
    let spec = AggSpec::new(Arc::new(Bomb { in_iter: true }), "v").with_name("b");
    let err = match MaterializedCube::cube(&t, vec![Dimension::column("k")], vec![spec]) {
        Err(e) => e,
        Ok(_) => panic!("bomb in Iter must fail construction"),
    };
    assert!(matches!(err, CubeError::AggPanicked { .. }), "got: {err}");

    // A bomb in Final builds fine but fails the snapshot, not the process.
    let spec = AggSpec::new(Arc::new(Bomb { in_iter: false }), "v").with_name("b");
    let mat = MaterializedCube::cube(&t, vec![Dimension::column("k")], vec![spec]).unwrap();
    let err = mat.to_table().unwrap_err();
    assert!(matches!(err, CubeError::AggPanicked { .. }), "got: {err}");
    // The contained read path degrades to None rather than panicking.
    assert_eq!(mat.cell(&[Value::All]), None);
    // The cube object itself is still usable for maintenance.
    mat.insert(row!["c", 4]).unwrap();
}

// ------------------------------------------------------ shared service --

/// 128 concurrent sessions storm one shared engine under a tight
/// admission budget, mixing cheap GROUP BYs, 2^N cubes, mid-flight
/// cancellations, and a panicking UDA. Every request must end in a
/// result or a typed error, the cheap lane must never starve behind the
/// cubes, and the engine must still serve exact answers afterwards.
#[test]
fn service_storm_128_sessions_survive_overload() {
    use dc_sql::{Engine, ServiceConfig, SqlError};
    use std::sync::atomic::{AtomicU64, Ordering};

    const SESSIONS: usize = 128;

    let mut engine = Engine::with_service(ServiceConfig {
        max_concurrent: 8,
        cheap_reserved: 2,
        // One-set GROUP BYs (40_001 estimated cells) ride the cheap lane.
        cheap_cells: 100_000,
        // A two-dimension CUBE estimates 4 * 40_001 cells, so the budget
        // admits one at a time; a three-dimension CUBE (320_008) is
        // oversized outright and must shed immediately.
        global_cells: 200_000,
        min_grant_cells: 1,
        // Deep enough that queueing, not shedding, is the normal fate.
        queue_depth: SESSIONS,
    });
    engine.register_table("t", big_table()).unwrap();
    engine
        .register_aggregate(Arc::new(Bomb { in_iter: true }))
        .unwrap();
    let engine = Arc::new(engine);

    let cheap_ok = Arc::new(AtomicU64::new(0));
    let heavy_ok = Arc::new(AtomicU64::new(0));
    let heavy_shed = Arc::new(AtomicU64::new(0));
    let cancelled = Arc::new(AtomicU64::new(0));
    let panicked = Arc::new(AtomicU64::new(0));
    let oversized_shed = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let engine = Arc::clone(&engine);
            let cheap_ok = Arc::clone(&cheap_ok);
            let heavy_ok = Arc::clone(&heavy_ok);
            let heavy_shed = Arc::clone(&heavy_shed);
            let cancelled = Arc::clone(&cancelled);
            let panicked = Arc::clone(&panicked);
            let oversized_shed = Arc::clone(&oversized_shed);
            std::thread::spawn(move || {
                let session = engine.session();
                match i % 4 {
                    // The cheap lane is reserved and budget-exempt: these
                    // must all succeed no matter how many cubes are queued.
                    0 => {
                        let cube = session
                            .execute("SELECT model, SUM(units) AS s FROM t GROUP BY model")
                            .expect("cheap GROUP BY must never be starved or shed");
                        assert_eq!(cube.rows().len(), MODELS as usize);
                        cheap_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    // Full cubes compete for the cell budget: each either
                    // runs to the exact answer or sheds with a typed error.
                    1 => {
                        let sql =
                            "SELECT model, year, SUM(units) AS s FROM t GROUP BY CUBE model, year";
                        match session.execute(sql) {
                            Ok(cube) => {
                                assert_eq!(grand_total(&cube), ROWS as i64);
                                heavy_ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(SqlError::Cube(CubeError::ResourceExhausted { .. })) => {
                                heavy_shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("heavy cube: unexpected error {other}"),
                        }
                    }
                    // Cancellation racing admission and execution: all
                    // three outcomes are legal, torn results are not.
                    2 => {
                        let token = CancelToken::new();
                        session.set_cancel_token(Some(token.clone()));
                        let delay_us = (i as u64 * 37) % 2_000;
                        let canceller = std::thread::spawn(move || {
                            std::thread::sleep(std::time::Duration::from_micros(delay_us));
                            token.cancel();
                        });
                        let sql =
                            "SELECT model, year, SUM(units) AS s FROM t GROUP BY CUBE model, year";
                        let result = session.execute(sql);
                        canceller.join().unwrap();
                        match result {
                            Ok(cube) => {
                                assert_eq!(grand_total(&cube), ROWS as i64);
                                heavy_ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(SqlError::Cube(CubeError::Cancelled { .. })) => {
                                cancelled.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(SqlError::Cube(CubeError::ResourceExhausted { .. })) => {
                                heavy_shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("cancel race: unexpected error {other}"),
                        }
                    }
                    // Half bombs (the UDA panics in Iter and must be
                    // contained to this session), half oversized cubes
                    // (estimated over the whole budget: shed immediately).
                    _ => {
                        if i % 8 == 3 {
                            let err = session
                                .execute("SELECT model, BOMB(units) AS b FROM t GROUP BY model")
                                .expect_err("bomb UDA must fail, not succeed");
                            assert!(
                                matches!(err, SqlError::Cube(CubeError::AggPanicked { .. })),
                                "bomb: {err:?}"
                            );
                            panicked.fetch_add(1, Ordering::Relaxed);
                        } else {
                            let err = session
                                .execute(
                                    "SELECT model, year, units, SUM(units) AS s FROM t \
                                     GROUP BY CUBE model, year, units",
                                )
                                .expect_err("oversized cube must shed, not run");
                            assert!(
                                matches!(err, SqlError::Cube(CubeError::ResourceExhausted { .. })),
                                "oversized: {err:?}"
                            );
                            oversized_shed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Every request resolved, and each class resolved the way it must.
    assert_eq!(cheap_ok.load(Ordering::Relaxed), 32);
    assert_eq!(panicked.load(Ordering::Relaxed), 16);
    assert_eq!(oversized_shed.load(Ordering::Relaxed), 16);
    assert_eq!(
        heavy_ok.load(Ordering::Relaxed)
            + heavy_shed.load(Ordering::Relaxed)
            + cancelled.load(Ordering::Relaxed),
        64
    );
    let counters = engine.admission().counters();
    assert!(counters.shed >= 16, "oversized cubes must register as shed");

    // The storm leaves no residue: a fresh session still gets the exact
    // cube, and the admission slots have all been returned.
    let cube = engine
        .session()
        .execute("SELECT model, year, SUM(units) AS s FROM t GROUP BY CUBE model, year")
        .expect("engine must serve correctly after the storm");
    assert_eq!(grand_total(&cube), ROWS as i64);
    assert_eq!(
        cube.rows().len(),
        ((MODELS + 1) * (YEARS + 1)) as usize,
        "cube cardinality after the storm"
    );
}

/// Concurrent writers republish new table versions while readers may be
/// served from the lattice cache: every read must reflect exactly one
/// *published* version (`units` are uniform per version, so a stale or
/// torn answer produces an impossible total), and once the writer
/// finishes, reads must converge on the final version — a cached cell
/// from any earlier version would be stale.
#[test]
fn cached_reads_race_republishes_without_staleness() {
    use dc_sql::{Engine, ServiceConfig};

    const N: i64 = 1_000;
    const VERSIONS: i64 = 24;
    const READERS: usize = 7; // + 1 writer = 8 sessions

    // Version v: N rows, every `units` equal to v.
    let versioned = |v: i64| -> Table {
        let schema = Schema::from_pairs(&[("model", DataType::Int), ("units", DataType::Int)]);
        let mut t = Table::empty(schema);
        for i in 0..N {
            t.push(row![i % MODELS, v]).unwrap();
        }
        t
    };

    let mut engine = Engine::with_service(ServiceConfig::default());
    engine.register_table("w", versioned(1)).unwrap();
    let engine = Arc::new(engine);
    let sql = "SELECT model, SUM(units) AS s FROM w GROUP BY model";
    let total_of = |t: &Table| -> i64 { t.rows().iter().filter_map(|r| r[1].as_i64()).sum() };

    let writer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            for v in 2..=VERSIONS {
                engine.update_table("w", versioned(v)).unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let session = engine.session();
                for _ in 0..40 {
                    let t = session.execute(sql).unwrap();
                    let total = total_of(&t);
                    // total = N * v for exactly one published version v.
                    assert_eq!(total % N, 0, "torn or mixed-version read: {total}");
                    let v = total / N;
                    assert!(
                        (1..=VERSIONS).contains(&v),
                        "read reflects no published version: {v}"
                    );
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    // Quiesced: the cache must now serve the final version, nothing older.
    let session = engine.session();
    for _ in 0..2 {
        let t = session.execute(sql).unwrap();
        assert_eq!(total_of(&t), N * VERSIONS, "stale cell after maintenance");
    }
    assert!(
        session.last_admission().answered_from_cache,
        "repeat read of the settled table should be a cache hit"
    );
}

/// Four SQL `INSERT INTO` writer sessions stream batches into one table
/// while eight readers answer through the lattice cache. Every batch sums
/// to exactly `BATCH_SUM`, so a read that observed a torn batch — or a
/// cached cell mixing two published versions — produces a total that is
/// not `T0 + k * BATCH_SUM` for any whole k. Afterwards, a cancelled
/// mid-batch INSERT must leave the table at the pre-batch version with
/// the cache still warm.
#[test]
fn sql_ingest_race_exposes_only_whole_batches() {
    use dc_sql::{Engine, ServiceConfig, SqlError};

    const WRITERS: usize = 4;
    const BATCHES: usize = 10; // per writer
    const BATCH_SUM: i64 = 100;
    const READERS: usize = 8;

    let schema = Schema::from_pairs(&[("model", DataType::Int), ("units", DataType::Int)]);
    let mut t = Table::empty(schema);
    let mut t0 = 0i64;
    for i in 0..64i64 {
        t.push(row![i % MODELS, 3i64]).unwrap();
        t0 += 3;
    }
    let mut engine = Engine::with_service(ServiceConfig::default());
    engine.register_table("ingest", t).unwrap();
    let engine = Arc::new(engine);
    let sql = "SELECT model, SUM(units) AS s FROM ingest GROUP BY model";
    let total_of = |t: &Table| -> i64 { t.rows().iter().filter_map(|r| r[1].as_i64()).sum() };

    // Seven rows of 10 plus one of 30: each statement is one whole batch
    // worth exactly BATCH_SUM.
    let batch_sql = {
        let mut vals: Vec<String> = (0..7).map(|i| format!("({}, 10)", i % MODELS)).collect();
        vals.push("(6, 30)".to_string());
        format!("INSERT INTO ingest VALUES {}", vals.join(", "))
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let batch_sql = batch_sql.clone();
            std::thread::spawn(move || {
                let session = engine.session();
                for _ in 0..BATCHES {
                    let ack = session.execute(&batch_sql).unwrap();
                    assert_eq!(ack.rows()[0][1].as_i64(), Some(8), "batch row count ack");
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let session = engine.session();
                for _ in 0..40 {
                    let total = total_of(&session.execute(sql).unwrap());
                    let delta = total - t0;
                    assert!(
                        delta >= 0 && delta % BATCH_SUM == 0,
                        "torn batch visible: total {total} (t0 {t0})"
                    );
                    assert!(
                        delta / BATCH_SUM <= (WRITERS * BATCHES) as i64,
                        "read reflects more batches than were written: {total}"
                    );
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    for r in readers {
        r.join().unwrap();
    }

    // Quiesced: every batch landed exactly once.
    let session = engine.session();
    let before = total_of(&session.execute(sql).unwrap());
    assert_eq!(
        before,
        t0 + (WRITERS * BATCHES) as i64 * BATCH_SUM,
        "lost or duplicated batch"
    );
    let _ = session.execute(sql).unwrap();
    assert!(
        session.last_admission().answered_from_cache,
        "settled table should be served from the cache"
    );

    // A cancelled mid-batch INSERT is all-or-nothing: pre-batch totals,
    // pre-batch version (the cached view stays valid — a version bump
    // would have re-keyed or dropped it).
    let token = CancelToken::new();
    token.cancel();
    session.set_cancel_token(Some(token));
    let err = session
        .execute(&batch_sql)
        .expect_err("cancelled INSERT must not commit");
    assert!(
        matches!(err, SqlError::Cube(CubeError::Cancelled { .. })),
        "cancelled INSERT: {err:?}"
    );
    session.set_cancel_token(None);
    let after = total_of(&session.execute(sql).unwrap());
    assert_eq!(
        after, before,
        "cancelled batch must leave the pre-batch table"
    );
    assert!(
        session.last_admission().answered_from_cache,
        "cancelled batch must not bump the version or cool the cache"
    );
}

/// Loom-free lock torture: two writers submit delta batches whose rows
/// are enumerated in *opposite* key orders while a reader pulls point
/// cells and whole snapshots. Every batch takes the store's one lock, so
/// there is no order to get wrong: everything has to finish inside the
/// watchdog budget, and the final SUM must be exact — a lost batch or a
/// torn fold shows up as a wrong cell, not a flaky hang.
#[test]
fn opposed_order_writers_never_deadlock_or_lose_a_batch() {
    use datacube::DeltaBatch;
    use datacube::ExecContext;
    use std::sync::mpsc;
    use std::time::Duration;

    const KEYS: i64 = 64;
    const ROUNDS: usize = 40;

    let schema = Schema::from_pairs(&[("k", DataType::Int), ("units", DataType::Int)]);
    let mut t = Table::empty(schema);
    for k in 0..KEYS {
        t.push(row![k, 0i64]).unwrap();
    }
    let spec = AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s");
    let mat =
        Arc::new(MaterializedCube::cube(&t, vec![Dimension::column("k")], vec![spec]).unwrap());

    let (done_tx, done_rx) = mpsc::channel();
    let mut handles = Vec::new();
    for dir in 0..2u8 {
        let mat = Arc::clone(&mat);
        let done = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let mut batch = DeltaBatch::new();
                for i in 0..KEYS {
                    let k = if dir == 0 { i } else { KEYS - 1 - i };
                    batch.insert(row![k, 1i64]).unwrap();
                }
                mat.apply(&batch, &ExecContext::unlimited()).unwrap();
            }
            done.send(()).unwrap();
        }));
    }
    {
        let mat = Arc::clone(&mat);
        let done = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            for k in (0..KEYS).cycle().take(KEYS as usize * 8) {
                let _ = mat.cell(&[Value::Int(k)]);
                if k % 16 == 0 {
                    let _ = mat.to_table();
                }
            }
            done.send(()).unwrap();
        }));
    }
    drop(done_tx);

    // Watchdog: a deadlock presents as a hang, so every
    // worker must report inside the deadline budget.
    for _ in 0..3 {
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("deadlock suspected: a worker failed to finish within 30s");
    }
    for h in handles {
        h.join().unwrap();
    }

    let per_key = 2 * ROUNDS as i64; // two writers, one unit per round
    for k in 0..KEYS {
        let cell = mat.cell(&[Value::Int(k)]).expect("cell present");
        assert_eq!(cell[0], Value::Int(per_key), "cell k={k}");
    }
    let all = mat.cell(&[Value::All]).expect("ALL cell present");
    assert_eq!(all[0], Value::Int(per_key * KEYS));
}
