//! Execution-governance integration tests: resource budgets, cooperative
//! cancellation, panic isolation, graceful degradation, and (behind the
//! `faults` feature) the fault-injection suite.
//!
//! The invariant under test everywhere: the engine returns `Ok` or a
//! *typed* `CubeError` — it never aborts the process, never leaks a
//! wedged thread scope, and attaches the partial [`ExecStats`] to budget
//! and cancellation errors.

use datacube::algorithm::repro::{self, Repro};
use datacube::{
    AggSpec, Algorithm, CancelToken, CubeError, CubeQuery, CubeResult, Dimension, ExecLimits,
    Lattice, Resource,
};
use dc_aggregate::{builtin, AggKind, UdaBuilder};
use dc_relation::{DataType, Row, Schema, Table, Value};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------- fixtures --

/// `nx × ny` distinct (x, y) pairs — a dense grid core.
fn grid(nx: i64, ny: i64) -> Table {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Int),
        ("y", DataType::Int),
        ("units", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for x in 0..nx {
        for y in 0..ny {
            t.push_unchecked(Row::new(vec![
                Value::Int(x),
                Value::Int(y),
                Value::Int((x + y) % 17),
            ]));
        }
    }
    t
}

/// `n` rows along the diagonal — maximally sparse: the dense array wants
/// `(n+1)^2` cells but only `3n + 1` are ever backed by data.
fn diagonal(n: i64) -> Table {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Int),
        ("y", DataType::Int),
        ("units", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..n {
        t.push_unchecked(Row::new(vec![Value::Int(i), Value::Int(i), Value::Int(1)]));
    }
    t
}

/// 11 dimensions `d0..d10` of 40 values each — 6 bits apiece, 66 in all,
/// so the coordinate packs into the engine's wide key, not a `u64` — over
/// `n` rows with 1600 distinct coordinates (fewer when `n` is).
fn wide(n: i64) -> (Table, Vec<Dimension>) {
    let names: Vec<String> = (0..11).map(|d| format!("d{d}")).collect();
    let mut cols: Vec<(&str, DataType)> =
        names.iter().map(|s| (s.as_str(), DataType::Int)).collect();
    cols.push(("units", DataType::Int));
    let mut t = Table::empty(Schema::from_pairs(&cols));
    for i in 0..n {
        let mut vals = vec![Value::Int(i % 40), Value::Int(i / 40 % 40)];
        vals.extend((2..11).map(|d| Value::Int((i + d) % 40)));
        vals.push(Value::Int(1));
        t.push_unchecked(Row::new(vals));
    }
    let dims = names.iter().map(Dimension::column).collect();
    (t, dims)
}

fn xy_dims() -> Vec<Dimension> {
    vec![Dimension::column("x"), Dimension::column("y")]
}

fn sum_units() -> AggSpec {
    AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s")
}

/// `query` over `(x, y)` on a `repro` algorithm — ROLLUP for Sort, the
/// full cube for the others — under the query's own limits.
fn run_repro(which: Repro, query: &CubeQuery, t: &Table) -> CubeResult<Table> {
    let lattice = match which {
        Repro::Sort => Lattice::rollup(2),
        _ => Lattice::cube(2),
    };
    Ok(repro::run(which, query, t, &lattice.unwrap(), None)?.0)
}

static PANIC_GATE: Mutex<()> = Mutex::new(());

/// Run `f` with panic output silenced. These tests deliberately panic
/// inside UDA callbacks and worker threads; the engine converts every one
/// into a typed error, but the process-global panic hook would still
/// spray backtraces over the test output. Serialized by a mutex because
/// the hook is global.
fn silent_panics<T>(f: impl FnOnce() -> T) -> T {
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
    struct RestoreHook(Option<PanicHook>);
    impl Drop for RestoreHook {
        fn drop(&mut self) {
            // `set_hook` panics on a panicking thread, which would turn a
            // failing assertion into a process abort; leave the silent
            // hook in place on that path.
            if !std::thread::panicking() {
                if let Some(prev) = self.0.take() {
                    std::panic::set_hook(prev);
                }
            }
        }
    }
    let _gate = PANIC_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let _restore = if std::env::var_os("GOVERNANCE_TRACE").is_some() {
        RestoreHook(None)
    } else {
        let prev = RestoreHook(Some(std::panic::take_hook()));
        std::panic::set_hook(Box::new(|_| {}));
        prev
    };
    f()
}

// ------------------------------------------------------------ budgets --

#[test]
fn cell_budget_trips_fast_with_partial_stats() {
    // A query projecting a 2^16-cell core (256 × 256 distinct values in
    // each dimension) under a 2^10-cell budget must fail with
    // ResourceExhausted carrying partial stats — and quickly, not after
    // materializing the whole cube. The data itself is a sparse cover:
    // every value of x and y appears, so the projected core is 2^16
    // cells, but only 2048 distinct pairs exist.
    let schema = Schema::from_pairs(&[
        ("x", DataType::Int),
        ("y", DataType::Int),
        ("units", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for x in 0..256i64 {
        for j in 0..8i64 {
            t.push_unchecked(Row::new(vec![
                Value::Int(x),
                Value::Int((x + j * 32) % 256),
                Value::Int(1),
            ]));
        }
    }
    let query = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .limits(ExecLimits::none().max_cells(1 << 10));
    let start = Instant::now();
    let err = query.cube_with_stats(&t).unwrap_err();
    let elapsed = start.elapsed();
    match err {
        CubeError::ResourceExhausted {
            resource,
            limit,
            observed,
            stats,
        } => {
            assert_eq!(resource, Resource::Cells);
            assert_eq!(limit, 1 << 10);
            assert!(observed > limit);
            assert!(stats.rows_scanned > 0, "partial stats missing: {stats:?}");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert!(elapsed < Duration::from_millis(100), "took {elapsed:?}");
}

#[test]
fn memory_budget_trips_via_cell_model() {
    let t = grid(64, 64);
    let query = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .limits(ExecLimits::none().max_memory_bytes(1024));
    match query.cube_with_stats(&t).unwrap_err() {
        CubeError::ResourceExhausted {
            resource: Resource::MemoryBytes,
            observed,
            ..
        } => {
            assert!(observed > 1024);
        }
        other => panic!("expected memory exhaustion, got {other:?}"),
    }
}

#[test]
fn cancel_token_stops_the_query() {
    let token = CancelToken::new();
    token.cancel();
    let t = grid(32, 32);
    let query = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .limits(ExecLimits::none().cancel_token(token));
    assert!(matches!(
        query.cube_with_stats(&t).unwrap_err(),
        CubeError::Cancelled { .. }
    ));
}

#[test]
fn expired_deadline_stops_the_query() {
    let t = grid(64, 64);
    let query = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .limits(ExecLimits::none().timeout(Duration::from_nanos(1)));
    match query.cube_with_stats(&t).unwrap_err() {
        CubeError::ResourceExhausted {
            resource: Resource::TimeMs,
            ..
        } => {}
        other => panic!("expected time exhaustion, got {other:?}"),
    }
}

#[test]
fn budgets_apply_across_every_algorithm() {
    let t = grid(64, 64);
    let query = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .limits(ExecLimits::none().max_cells(16));
    for alg in [
        Algorithm::TwoToTheN,
        Algorithm::UnionGroupBys,
        Algorithm::FromCore,
        Algorithm::Parallel { threads: 4 },
    ] {
        let err = query.clone().algorithm(alg).cube(&t).unwrap_err();
        assert!(
            matches!(err, CubeError::ResourceExhausted { .. }),
            "{alg:?} returned {err:?}"
        );
    }
    // Same budget, same trip on the reproduction algorithms (Sort is
    // rollup-only).
    for which in [Repro::PipeSort, Repro::Sort] {
        let err = run_repro(which, &query, &t).unwrap_err();
        assert!(
            matches!(err, CubeError::ResourceExhausted { .. }),
            "{which:?} returned {err:?}"
        );
    }
}

// ------------------------------------------------------- degradation --

#[test]
fn array_over_budget_is_refused_typed_before_allocating() {
    // (50+1)^2 = 2601 projected dense cells against a 200-cell budget:
    // the array refuses up front, typed, with nothing charged. The same
    // query on the engine projects its cascade over the budget too and
    // lands on per-set streaming — which fits, because only 151 cells
    // have data.
    let t = diagonal(50);
    let query = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units());
    let unlimited = run_repro(Repro::Array, &query, &t).unwrap();
    let budgeted = query.limits(ExecLimits::none().max_cells(200));
    match run_repro(Repro::Array, &budgeted, &t).unwrap_err() {
        CubeError::ResourceExhausted {
            resource: Resource::Cells,
            limit,
            observed,
            ..
        } => assert_eq!((limit, observed), (200, 2601)),
        other => panic!("expected a cell refusal, got {other:?}"),
    }
    let (cube, stats) = budgeted.cube_with_stats(&t).unwrap();
    assert!(
        stats.degraded_to_streaming,
        "cascade → streaming flag missing: {stats:?}"
    );
    assert_eq!(
        cube.rows(),
        unlimited.rows(),
        "degraded plan changed the answer"
    );
    assert_eq!(cube.len(), 50 + 50 + 50 + 1);
}

#[test]
fn cascade_degrades_to_streaming_only() {
    let t = diagonal(50);
    let (cube, stats) = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .algorithm(Algorithm::FromCore)
        .limits(ExecLimits::none().max_cells(200))
        .cube_with_stats(&t)
        .unwrap();
    assert!(stats.degraded_to_streaming);
    assert_eq!(cube.len(), 151);
}

#[test]
fn no_degradation_within_budget() {
    let t = diagonal(10);
    let (_, stats) = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .limits(ExecLimits::none().max_cells(10_000))
        .cube_with_stats(&t)
        .unwrap();
    assert!(!stats.degraded_to_streaming);
}

// ---------------------------------------------------- panic isolation --

fn panicky_sum() -> AggSpec {
    let f = UdaBuilder::new("BADSUM", AggKind::Algebraic, || 0i64)
        .iter(|s, v| {
            if *v == Value::Int(13) {
                panic!("BADSUM cannot digest 13");
            }
            *s += v.as_i64().unwrap_or(0);
        })
        .state(|s| vec![Value::Int(*s)])
        .merge(|s, st| *s += st[0].as_i64().unwrap_or(0))
        .finalize(|s| Value::Int(*s))
        .build()
        .unwrap();
    AggSpec::new(f, "units").with_name("bs")
}

#[test]
fn uda_panics_become_typed_errors_serial_and_parallel() {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Int),
        ("y", DataType::Int),
        ("units", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..40i64 {
        t.push_unchecked(Row::new(vec![
            Value::Int(i % 4),
            Value::Int(i % 3),
            Value::Int(if i == 25 { 13 } else { 1 }),
        ]));
    }
    silent_panics(|| {
        let query = CubeQuery::new()
            .dimensions(xy_dims())
            .aggregate(panicky_sum());
        let engine = [
            Algorithm::TwoToTheN,
            Algorithm::UnionGroupBys,
            Algorithm::FromCore,
            Algorithm::Parallel { threads: 4 },
        ]
        .map(|alg| (format!("{alg:?}"), query.clone().algorithm(alg).cube(&t)));
        let repro = [Repro::Array, Repro::PipeSort]
            .map(|which| (format!("{which:?}"), run_repro(which, &query, &t)));
        for (path, result) in engine.into_iter().chain(repro) {
            match result.unwrap_err() {
                CubeError::AggPanicked { agg, message } => {
                    assert_eq!(agg, "BADSUM", "{path}");
                    assert!(message.contains("cannot digest 13"), "{path}: {message}");
                }
                other => panic!("{path}: expected AggPanicked, got {other:?}"),
            }
        }
    });
}

// --------------------------------------------- parallel path coverage --

#[test]
fn holistic_median_survives_adversarial_thread_counts() {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Int),
        ("y", DataType::Int),
        ("units", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..23i64 {
        t.push_unchecked(Row::new(vec![
            Value::Int(i % 5),
            Value::Int(i % 2),
            Value::Int(i * 3 % 19),
        ]));
    }
    for holistic in ["MEDIAN", "MODE"] {
        let agg = AggSpec::new(builtin(holistic).unwrap(), "units").with_name("m");
        let reference = CubeQuery::new()
            .dimensions(xy_dims())
            .aggregate(agg.clone())
            .algorithm(Algorithm::TwoToTheN)
            .cube(&t)
            .unwrap();
        // 1 (degenerate), rows+1 (more workers than rows), 7 (prime:
        // uneven partitions).
        for threads in [1, 24, 7] {
            let got = CubeQuery::new()
                .dimensions(xy_dims())
                .aggregate(agg.clone())
                .algorithm(Algorithm::Parallel { threads })
                .cube(&t)
                .unwrap();
            assert_eq!(
                got.rows(),
                reference.rows(),
                "{holistic}, {threads} threads"
            );
        }
    }
}

#[test]
fn stats_record_clamped_thread_count() {
    let t = diagonal(3);
    let (_, stats) = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .algorithm(Algorithm::Parallel { threads: 16 })
        .cube_with_stats(&t)
        .unwrap();
    assert_eq!(stats.threads_used, 3, "3 rows cap the worker count");

    let t = grid(10, 10);
    let (_, stats) = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .algorithm(Algorithm::Parallel { threads: 4 })
        .cube_with_stats(&t)
        .unwrap();
    assert_eq!(stats.threads_used, 4);
}

#[test]
fn wide_keys_run_the_engine() {
    // 66 key bits do not fit a u64: the same engine carries the query on
    // its wide key — morsels, kernels and all — and computes exactly what
    // the Row-keyed reference does.
    let (t, dims) = wide(40);
    let query = CubeQuery::new().dimensions(dims).aggregate(sum_units());
    let (rollup, stats) = query.rollup_with_stats(&t).unwrap();
    assert!(stats.morsels_processed > 0, "{stats:?}");
    assert_eq!(stats.vectorized_kernels_used, 1);
    let rollup_11 = Lattice::rollup(11).unwrap();
    let (want, want_stats) = repro::run(Repro::Reference, &query, &t, &rollup_11, None).unwrap();
    assert_eq!(rollup.rows(), want.rows());
    assert_eq!(
        (stats.rows_scanned, stats.iter_calls, stats.merge_calls),
        (
            want_stats.rows_scanned,
            want_stats.iter_calls,
            want_stats.merge_calls
        )
    );
}

// ------------------------------------- governance in the morsel loop --

#[test]
fn cell_budget_trips_inside_the_vectorized_morsel_loop() {
    // 64 × 64 = 4096 rows (two full morsels) over an all-numeric,
    // all-kernel query: the vectorized engine is on the path, and the
    // 256-cell budget must trip mid-scan with the partial stats showing
    // both that kernels ran and how far the scan got. The parallel
    // algorithm is the one plan without the projected-size pre-check
    // (degradation rung 2), so the trip genuinely happens inside a
    // worker's morsel loop — on either key width: `wide` has the same row
    // count over 1600 distinct 66-bit coordinates.
    let (wide_t, wide_dims) = wide(4096);
    for (t, dims) in [(grid(64, 64), xy_dims()), (wide_t, wide_dims)] {
        let err = CubeQuery::new()
            .dimensions(dims)
            .aggregate(sum_units())
            .aggregate(AggSpec::star(builtin("COUNT(*)").unwrap()).with_name("n"))
            .algorithm(Algorithm::Parallel { threads: 2 })
            .limits(ExecLimits::none().max_cells(256))
            .cube_with_stats(&t)
            .unwrap_err();
        match err {
            CubeError::ResourceExhausted {
                resource,
                limit,
                observed,
                stats,
            } => {
                assert_eq!(resource, Resource::Cells);
                assert_eq!(limit, 256);
                assert!(observed > limit);
                assert_eq!(stats.vectorized_kernels_used, 2, "kernels were running");
                assert!(stats.rows_scanned > 0, "partial stats missing: {stats:?}");
                assert!(
                    stats.rows_scanned < t.len() as u64,
                    "budget should trip mid-scan"
                );
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }
}

#[test]
fn cancellation_is_observed_between_morsels() {
    let token = CancelToken::new();
    token.cancel();
    let t = grid(64, 64);
    let err = CubeQuery::new()
        .dimensions(xy_dims())
        .aggregate(sum_units())
        .limits(ExecLimits::none().cancel_token(token))
        .cube_with_stats(&t)
        .unwrap_err();
    match err {
        CubeError::Cancelled { stats } => {
            // The per-morsel checkpoint fires before any row of the first
            // morsel, but the kernel plan was already compiled.
            assert_eq!(stats.vectorized_kernels_used, 1);
            assert!(stats.morsels_processed < (t.len() as u64).div_ceil(2048));
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// A cacheable miss answers from the view it builds, so that build is the
/// statement's scan and runs under its deadline: a build that outlives
/// `TIMEOUT_MS` fails the statement typed and installs nothing. Without
/// the stall the same statement misses, populates, and then hits.
#[test]
fn cacheable_miss_past_the_statement_deadline_fails_typed() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    // The first Iter() call stalls the build past the deadline; later
    // ones do not.
    let stall = Arc::new(AtomicBool::new(true));
    let slow_once = UdaBuilder::new("SLOWSUM", AggKind::Algebraic, || 0i64)
        .iter(move |s, v| {
            if stall.swap(false, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(700));
            }
            *s += v.as_i64().unwrap_or(0);
        })
        .state(|s| vec![Value::Int(*s)])
        .merge(|s, st| *s += st[0].as_i64().unwrap_or(0))
        .finalize(|s| Value::Int(*s))
        .build()
        .unwrap();
    let mut engine = dc_sql::Engine::new();
    engine.register_table("g", grid(4, 3)).unwrap();
    engine.register_aggregate(slow_once).unwrap();
    engine.execute("SET TIMEOUT_MS = 500").unwrap();
    let sql = "SELECT x, SLOWSUM(units) AS s FROM g GROUP BY x";
    match engine.execute(sql).unwrap_err() {
        dc_sql::SqlError::Cube(CubeError::ResourceExhausted {
            resource: Resource::TimeMs,
            ..
        }) => {}
        other => panic!("expected ResourceExhausted(TimeMs), got {other:?}"),
    }
    let c = engine.cube_cache().counters();
    assert_eq!((c.misses, c.entries, c.cells), (1, 0, 0), "{c:?}");

    let miss = engine.execute(sql).unwrap();
    assert_eq!(miss.len(), 4);
    let c = engine.cube_cache().counters();
    assert_eq!((c.misses, c.hits, c.entries), (2, 0, 1), "{c:?}");
    assert_eq!(engine.execute(sql).unwrap().rows(), miss.rows());
    assert_eq!(engine.cube_cache().counters().hits, 1);
}

// ------------------------------------------------- fault injection ----

#[cfg(feature = "faults")]
mod faults_suite {
    use super::*;
    use dc_aggregate::faults::{arm, disarm_all, hits, Fault, Site};

    /// Disarms all faults when dropped, so a failing assertion cannot
    /// leak an armed fault into the next combination.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            disarm_all();
        }
    }

    fn uda_sum() -> AggSpec {
        // Built through UdaBuilder so the uda::* failpoints are live.
        let f = UdaBuilder::new("GSUM", AggKind::Algebraic, || 0i64)
            .iter(|s, v| *s += v.as_i64().unwrap_or(0))
            .state(|s| vec![Value::Int(*s)])
            .merge(|s, st| *s += st[0].as_i64().unwrap_or(0))
            .finalize(|s| Value::Int(*s))
            .build()
            .unwrap();
        AggSpec::new(f, "units").with_name("g")
    }

    /// One way to compute the faulted query: the engine under an
    /// algorithm, or a `repro` algorithm.
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Engine(Algorithm),
        Repro(Repro),
    }

    fn under_fault(t: &Table, path: Path) -> CubeResult<Table> {
        let query = CubeQuery::new().dimensions(xy_dims()).aggregate(uda_sum());
        match path {
            Path::Engine(alg) => query.algorithm(alg).cube(t),
            Path::Repro(which) => run_repro(which, &query, t),
        }
    }

    fn cube_under_fault(t: &Table, alg: Algorithm) -> CubeResult<Table> {
        under_fault(t, Path::Engine(alg))
    }

    /// The tentpole property: with a fault armed at every site in turn,
    /// under every algorithm and thread count, the engine either returns
    /// the correct table (site not on this plan's path) or a typed error
    /// — never a process abort, never a hung scope.
    #[test]
    fn every_site_every_algorithm_returns_ok_or_typed_error() {
        let t = grid(6, 5);
        let paths = [
            Path::Engine(Algorithm::TwoToTheN),
            Path::Engine(Algorithm::UnionGroupBys),
            Path::Engine(Algorithm::FromCore),
            Path::Repro(Repro::Array),
            Path::Repro(Repro::PipeSort),
            Path::Engine(Algorithm::Parallel { threads: 1 }),
            Path::Engine(Algorithm::Parallel { threads: 4 }),
            Path::Engine(Algorithm::Parallel { threads: 16 }),
        ];
        // Failures are collected and asserted after the panic hook is
        // restored — asserting inside the silenced region would swallow
        // the test's own failure message.
        let failures = silent_panics(|| {
            let mut failures: Vec<String> = Vec::new();
            let _cleanup = Disarm;
            disarm_all();
            let reference = cube_under_fault(&t, Algorithm::TwoToTheN).unwrap();
            for &site in Site::ALL {
                for fault in [
                    Fault::Panic(format!("injected at {site}")),
                    Fault::TripBudget,
                ] {
                    for alg in paths {
                        if std::env::var_os("GOVERNANCE_TRACE").is_some() {
                            eprintln!("combo: {site} {fault:?} {alg:?}");
                        }
                        arm(site, fault.clone());
                        let result = under_fault(&t, alg);
                        disarm_all();
                        match result {
                            Ok(table) if table.rows() != reference.rows() => {
                                failures.push(format!(
                                    "site {site}, fault {fault:?}, {alg:?}: \
                                     unexercised fault changed the answer"
                                ));
                            }
                            Ok(_)
                            | Err(
                                CubeError::AggPanicked { .. } | CubeError::ResourceExhausted { .. },
                            ) => {}
                            Err(other) => failures.push(format!(
                                "site {site}, fault {fault:?}, {alg:?}: \
                                 unexpected error {other:?}"
                            )),
                        }
                    }
                    // The rollup-only sort algorithm.
                    arm(site, fault.clone());
                    let result = under_fault(&t, Path::Repro(Repro::Sort));
                    disarm_all();
                    if !matches!(
                        result,
                        Ok(_)
                            | Err(
                                CubeError::AggPanicked { .. } | CubeError::ResourceExhausted { .. }
                            )
                    ) {
                        failures.push(format!("sort at {site} with {fault:?}: {result:?}"));
                    }
                }
            }
            failures
        });
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    /// Run the path that reaches `site`, ignoring what it answers. The
    /// match has no `_` arm, so a new site cannot be declared without
    /// saying how a statement reaches it.
    fn drive(site: Site) {
        let t = grid(6, 5);
        let sql = "SELECT x, SUM(units) AS s FROM g GROUP BY x";
        let engine = || service_engine(dc_sql::ServiceConfig::default());
        let apply = |insert| {
            let cube =
                MaterializedCube::cube(&t, xy_dims(), vec![sum_units(), max_units()]).unwrap();
            let _ = cube.apply(&champion_batch(&t, insert), &ExecContext::unlimited());
        };
        match site {
            Site::UdaInit | Site::UdaIter | Site::UdaFinal | Site::NaiveScan => {
                let _ = cube_under_fault(&t, Algorithm::TwoToTheN);
            }
            Site::UdaMerge | Site::ParallelWorker => {
                let _ = cube_under_fault(&t, Algorithm::Parallel { threads: 2 });
            }
            Site::CoreScan | Site::Materialize | Site::CascadeLevel | Site::VectorizedMorsel => {
                let _ = cube_under_fault(&t, Algorithm::FromCore);
            }
            Site::UnionsScan => {
                let _ = cube_under_fault(&t, Algorithm::UnionGroupBys);
            }
            Site::ArraySweep => {
                let _ = under_fault(&t, Path::Repro(Repro::Array));
            }
            Site::SortScan => {
                let _ = under_fault(&t, Path::Repro(Repro::Sort));
            }
            Site::PipesortPipeline => {
                let _ = under_fault(&t, Path::Repro(Repro::PipeSort));
            }
            Site::ServiceAdmit | Site::CacheLookup | Site::CacheRewrite => {
                let _ = engine().execute(sql);
            }
            Site::ServiceQueueWait => {
                let engine = service_engine(dc_sql::ServiceConfig {
                    max_concurrent: 1,
                    queue_depth: 4,
                    ..Default::default()
                });
                let cost = dc_sql::QueryCost::new(100, 2);
                let _permit = engine.admission().admit(&cost, None, None).unwrap();
                let _ = engine.execute(sql);
            }
            Site::ServiceRespond => {
                let engine = engine();
                let handle =
                    dc_sql::serve(&engine, "127.0.0.1:0", dc_sql::ServerConfig::default()).unwrap();
                let mut conn = std::net::TcpStream::connect(handle.local_addr()).unwrap();
                let _ = dc_sql::wire::request(&mut conn, sql);
                handle.shutdown();
            }
            Site::CacheEvict => {
                let engine = engine();
                engine.cube_cache().set_budget_cells(8);
                let _ = engine.execute(sql);
                let _ = engine.execute("SELECT y, SUM(units) AS s FROM g GROUP BY y");
            }
            Site::CacheAbsorb => {
                let engine = engine();
                let _ = engine.execute(sql);
                let _ = engine.execute("INSERT INTO g VALUES (9, 9, 1)");
            }
            Site::MaintainBatchFold | Site::MaintainLock => apply([9, 9, 5]),
            Site::MaintainRecompute => apply([3, 2, 4]),
        }
    }

    /// Every declared site is injected on some path: armed with a budget
    /// trip, each is reached by the path `drive` runs for it.
    #[test]
    fn every_site_fires_on_its_path() {
        let _cleanup = Disarm;
        let mut silent = Vec::new();
        for &site in Site::ALL {
            arm(site, Fault::TripBudget);
            drive(site);
            if hits(site) == 0 {
                silent.push(site);
            }
            disarm_all();
        }
        assert!(silent.is_empty(), "declared but never reached: {silent:?}");
    }

    /// Slow workers delay but do not wedge: the scope joins every handle.
    #[test]
    fn slow_workers_complete() {
        let t = grid(8, 8);
        let _cleanup = Disarm;
        for site in [Site::ParallelWorker, Site::CascadeLevel] {
            arm(site, Fault::SleepMs(2));
            let got = cube_under_fault(&t, Algorithm::Parallel { threads: 4 }).unwrap();
            disarm_all();
            let want = cube_under_fault(&t, Algorithm::TwoToTheN).unwrap();
            assert_eq!(got.rows(), want.rows(), "{site}");
        }
    }

    /// A panic in one worker must not leak other workers' panics through
    /// the scope: every handle is joined, then the first error wins.
    #[test]
    fn worker_panics_are_contained_across_thread_counts() {
        let t = grid(16, 4);
        silent_panics(|| {
            let _cleanup = Disarm;
            for threads in [1, 4, 16] {
                arm(Site::ParallelWorker, Fault::Panic("worker down".into()));
                let err = cube_under_fault(&t, Algorithm::Parallel { threads }).unwrap_err();
                disarm_all();
                match err {
                    CubeError::AggPanicked { agg, message } => {
                        assert_eq!(agg, "parallel::worker", "{threads} threads");
                        assert!(message.contains("worker down"), "{threads}: {message}");
                    }
                    other => panic!("{threads} threads: {other:?}"),
                }
            }
        });
    }

    /// Budget-trip faults surface as ResourceExhausted from the failpoint
    /// itself — proof the error plumbing reaches every site.
    #[test]
    fn tripped_budgets_surface_from_engine_sites() {
        let t = grid(6, 5);
        let _cleanup = Disarm;
        for (site, alg) in [
            (Site::CoreScan, Algorithm::FromCore),
            (Site::NaiveScan, Algorithm::TwoToTheN),
            (Site::UnionsScan, Algorithm::UnionGroupBys),
            (Site::Materialize, Algorithm::FromCore),
            // The UDA gives these plans boxed lanes: the morsel, worker
            // and cascade sites sit on the one scan both lane kinds share.
            (Site::VectorizedMorsel, Algorithm::FromCore),
            (Site::ParallelWorker, Algorithm::Parallel { threads: 2 }),
            (Site::CascadeLevel, Algorithm::FromCore),
        ] {
            arm(site, Fault::TripBudget);
            let result = cube_under_fault(&t, alg);
            disarm_all();
            assert!(
                matches!(result, Err(CubeError::ResourceExhausted { .. })),
                "{site} under {alg:?}: {result:?}"
            );
        }
    }

    /// The engine's own sites sit on code written once for both key
    /// widths; on the wide instantiation (`wide`: 66 key bits) both fault
    /// flavors still unwind typed, for both lane kinds.
    #[test]
    fn engine_sites_unwind_typed_on_wide_keys() {
        let (t, dims) = wide(400);
        silent_panics(|| {
            let _cleanup = Disarm;
            for site in [
                Site::VectorizedMorsel,
                Site::CascadeLevel,
                Site::Materialize,
            ] {
                for agg in [sum_units(), uda_sum()] {
                    let query = CubeQuery::new().dimensions(dims.clone()).aggregate(agg);
                    arm(site, Fault::TripBudget);
                    let result = query.rollup(&t);
                    disarm_all();
                    assert!(
                        matches!(result, Err(CubeError::ResourceExhausted { .. })),
                        "{site} TripBudget: {result:?}"
                    );

                    arm(site, Fault::Panic("wide down".into()));
                    let result = query.rollup(&t);
                    disarm_all();
                    match result {
                        Err(CubeError::AggPanicked { message, .. }) => {
                            assert!(message.contains("wide down"), "{site}: {message}");
                        }
                        other => panic!("{site} Panic: {other:?}"),
                    }
                    // Ten prefixes of 400 coordinates, 40 values of d0, the total.
                    assert_eq!(query.rollup(&t).unwrap().len(), 4041, "{site}");
                }
            }
        });
    }

    /// `cube_under_fault` aggregates through a UDA, which never
    /// kernelizes — so the vectorized morsel site needs its own probe
    /// with a built-in aggregate. Both fault flavors must surface as
    /// typed errors carrying the partial stats, serial and parallel.
    #[test]
    fn vectorized_morsel_site_fires_with_builtin_aggregates() {
        let t = grid(16, 8);
        let run = |alg: Algorithm| {
            CubeQuery::new()
                .dimensions(xy_dims())
                .aggregate(sum_units())
                .algorithm(alg)
                .cube_with_stats(&t)
        };
        silent_panics(|| {
            let _cleanup = Disarm;
            for alg in [Algorithm::FromCore, Algorithm::Parallel { threads: 4 }] {
                arm(Site::VectorizedMorsel, Fault::TripBudget);
                let result = run(alg);
                disarm_all();
                match result {
                    Err(CubeError::ResourceExhausted { stats, .. }) => {
                        assert_eq!(
                            stats.vectorized_kernels_used, 1,
                            "{alg:?}: fault must have fired inside the kernel scan"
                        );
                    }
                    other => panic!("{alg:?} TripBudget: {other:?}"),
                }

                arm(Site::VectorizedMorsel, Fault::Panic("morsel down".into()));
                let result = run(alg);
                disarm_all();
                match result {
                    Err(CubeError::AggPanicked { message, .. }) => {
                        assert!(message.contains("morsel down"), "{alg:?}: {message}");
                    }
                    other => panic!("{alg:?} Panic: {other:?}"),
                }
            }
        });
    }

    // --------------------------------------------- service-layer sites --

    fn service_engine(cfg: dc_sql::ServiceConfig) -> dc_sql::Engine {
        let mut engine = dc_sql::Engine::with_service(cfg);
        engine.register_table("g", grid(6, 5)).unwrap();
        engine
    }

    /// Faults at the admission gate surface as typed errors through the
    /// session guard, and the engine keeps serving afterwards.
    #[test]
    fn service_admit_faults_yield_only_typed_errors() {
        let engine = service_engine(dc_sql::ServiceConfig::default());
        let sql = "SELECT x, y, SUM(units) AS s FROM g GROUP BY CUBE x, y";
        silent_panics(|| {
            let _cleanup = Disarm;
            arm(Site::ServiceAdmit, Fault::TripBudget);
            let err = engine.execute(sql).unwrap_err();
            disarm_all();
            assert!(
                matches!(
                    err,
                    dc_sql::SqlError::Cube(CubeError::ResourceExhausted {
                        resource: Resource::AdmissionQueue { .. },
                        ..
                    })
                ),
                "{err:?}"
            );

            arm(Site::ServiceAdmit, Fault::Panic("admission down".into()));
            let err = engine.execute(sql).unwrap_err();
            disarm_all();
            assert!(
                matches!(err, dc_sql::SqlError::Cube(CubeError::AggPanicked { .. })),
                "{err:?}"
            );

            // The engine survives both faults.
            assert!(engine.execute(sql).is_ok());
        });
    }

    /// Faults inside the bounded queue wait (reached only when the query
    /// actually queues behind a held slot) also stay typed, and the
    /// queued-count bookkeeping survives the unwind: the engine still
    /// admits normally afterwards.
    #[test]
    fn service_queue_wait_faults_yield_only_typed_errors() {
        let engine = service_engine(dc_sql::ServiceConfig {
            max_concurrent: 1,
            queue_depth: 4,
            ..Default::default()
        });
        let sql = "SELECT x, SUM(units) AS s FROM g GROUP BY x";
        silent_panics(|| {
            let _cleanup = Disarm;
            for fault in [Fault::TripBudget, Fault::Panic("queue down".into())] {
                // Hold the only execution slot so the query must queue.
                let permit = engine
                    .admission()
                    .admit(&dc_sql::QueryCost::new(100, 2), None, None)
                    .unwrap();
                arm(Site::ServiceQueueWait, fault);
                let err = engine.execute(sql).unwrap_err();
                disarm_all();
                drop(permit);
                assert!(
                    matches!(
                        err,
                        dc_sql::SqlError::Cube(
                            CubeError::ResourceExhausted { .. } | CubeError::AggPanicked { .. }
                        )
                    ),
                    "{err:?}"
                );
            }
            assert!(engine.execute(sql).is_ok());
        });
    }

    /// Faults at the server's respond path become typed ERR frames on one
    /// connection; the process and the connection both keep serving.
    #[test]
    fn service_respond_faults_become_typed_frames_and_server_survives() {
        use dc_sql::wire::{self, Response};
        let engine = service_engine(dc_sql::ServiceConfig::default());
        let handle =
            dc_sql::serve(&engine, "127.0.0.1:0", dc_sql::ServerConfig::default()).unwrap();
        let mut conn = std::net::TcpStream::connect(handle.local_addr()).unwrap();
        let sql = "SELECT x, SUM(units) AS s FROM g GROUP BY x";
        silent_panics(|| {
            let _cleanup = Disarm;
            arm(Site::ServiceRespond, Fault::TripBudget);
            let resp = wire::request(&mut conn, sql).unwrap();
            disarm_all();
            assert!(
                matches!(resp, Response::Error { ref code, .. } if code == "RESOURCE_EXHAUSTED"),
                "{resp:?}"
            );

            arm(Site::ServiceRespond, Fault::Panic("respond down".into()));
            let resp = wire::request(&mut conn, sql).unwrap();
            disarm_all();
            assert!(
                matches!(resp, Response::Error { ref code, .. } if code == "AGG_PANICKED"),
                "{resp:?}"
            );

            // Same connection, same process: still serving.
            let resp = wire::request(&mut conn, sql).unwrap();
            assert!(matches!(resp, Response::Table { .. }), "{resp:?}");
        });
        handle.shutdown();
    }

    // ---------------------------------------------- lattice-cache sites --

    /// A budget trip or panic inside the cache lookup loop surfaces as a
    /// typed error through the session guard, and the engine serves again
    /// once the fault is disarmed.
    #[test]
    fn cache_lookup_faults_yield_only_typed_errors() {
        let engine = service_engine(dc_sql::ServiceConfig::default());
        let sql = "SELECT x, SUM(units) AS s FROM g GROUP BY x";
        silent_panics(|| {
            let _cleanup = Disarm;
            for fault in [Fault::TripBudget, Fault::Panic("lookup down".into())] {
                arm(Site::CacheLookup, fault);
                let err = engine.execute(sql).unwrap_err();
                disarm_all();
                assert!(
                    matches!(
                        err,
                        dc_sql::SqlError::Cube(
                            CubeError::ResourceExhausted { .. } | CubeError::AggPanicked { .. }
                        )
                    ),
                    "{err:?}"
                );
            }
            assert!(engine.execute(sql).is_ok());
        });
    }

    /// The rewrite failpoint fires in every answer from a view; populate
    /// the view first so the faulted runs are hits. Both fault flavours
    /// stay typed and the cached view still answers after disarm.
    #[test]
    fn cache_rewrite_faults_yield_only_typed_errors() {
        let engine = service_engine(dc_sql::ServiceConfig::default());
        let sql = "SELECT x, SUM(units) AS s FROM g GROUP BY x";
        silent_panics(|| {
            let _cleanup = Disarm;
            // Miss + populate, so the next run takes the rewrite path.
            assert!(engine.execute(sql).is_ok());
            for fault in [Fault::TripBudget, Fault::Panic("rewrite down".into())] {
                arm(Site::CacheRewrite, fault);
                let err = engine.execute(sql).unwrap_err();
                disarm_all();
                assert!(
                    matches!(
                        err,
                        dc_sql::SqlError::Cube(
                            CubeError::ResourceExhausted { .. } | CubeError::AggPanicked { .. }
                        )
                    ),
                    "{err:?}"
                );
            }
            assert!(engine.execute(sql).is_ok());
            assert!(engine.cube_cache().counters().hits >= 1);
        });
    }

    /// Eviction runs inside best-effort population, so a budget trip
    /// there never fails the query; a panic unwinds into the session
    /// guard's typed error at worst. The engine serves either way.
    #[test]
    fn cache_evict_faults_yield_only_typed_errors() {
        let engine = service_engine(dc_sql::ServiceConfig::default());
        // Budget fits the 6-cell x-view alone: the second view must evict.
        engine.cube_cache().set_budget_cells(8);
        let sql = "SELECT x, SUM(units) AS s FROM g GROUP BY x";
        silent_panics(|| {
            let _cleanup = Disarm;
            assert!(engine.execute(sql).is_ok()); // populate the x-view
            arm(Site::CacheEvict, Fault::TripBudget);
            let r = engine.execute("SELECT y, SUM(units) AS s FROM g GROUP BY y");
            disarm_all();
            assert!(r.is_ok(), "{r:?}"); // population error swallowed
            arm(Site::CacheEvict, Fault::Panic("evict down".into()));
            let r = engine.execute("SELECT y, COUNT(units) AS c FROM g GROUP BY y");
            disarm_all();
            assert!(
                matches!(
                    r,
                    Ok(_) | Err(dc_sql::SqlError::Cube(CubeError::AggPanicked { .. }))
                ),
                "{r:?}"
            );
            assert!(engine.execute(sql).is_ok());
        });
    }

    // ---------------------------------------------- maintenance sites --

    use datacube::{DeltaBatch, ExecContext, MaterializedCube};

    fn max_units() -> AggSpec {
        AggSpec::new(builtin("MAX").unwrap(), "units").with_name("hi")
    }

    /// `grid(4, 3)`'s unique MAX champion (3, 2, units = 5) deleted beside
    /// one insert: the delete forces the deferred-recompute path on every
    /// super-aggregate cell that contained the champion. An insert of
    /// seen values folds into the cells; (9, 9, 5) makes `y` (three values
    /// in a two-bit field) outgrow its field, so the batch re-groups the
    /// post-batch table instead.
    fn champion_batch(t: &Table, insert: [i64; 3]) -> DeltaBatch {
        let champion = t
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(3) && r[1] == Value::Int(2))
            .cloned()
            .unwrap();
        let mut batch = DeltaBatch::new();
        batch
            .insert(Row::new(insert.map(Value::Int).to_vec()))
            .unwrap();
        batch.delete(champion);
        batch
    }

    /// Every maintenance failpoint — batch fold, the lock, the re-group's
    /// scan, deferred recompute — unwinds as a typed error for both fault
    /// flavours, the cube is bit-identical to its pre-batch state (version
    /// included), and the same batch applies cleanly once the fault is
    /// disarmed. The outgrowing batch drives the re-group; one of seen
    /// values — not the champion's own row, which would annihilate with
    /// its delete — drives the recompute.
    #[test]
    fn maintain_batch_faults_yield_typed_errors_and_pristine_cube() {
        let t = grid(4, 3);
        let (outgrowing, seen) = ([9, 9, 5], [3, 2, 4]);
        silent_panics(|| {
            let _cleanup = Disarm;
            for (site, insert) in [
                (Site::MaintainBatchFold, outgrowing),
                (Site::MaintainLock, outgrowing),
                (Site::CoreScan, outgrowing),
                (Site::MaintainRecompute, seen),
            ] {
                for fault in [Fault::TripBudget, Fault::Panic(format!("{site} down"))] {
                    let cube =
                        MaterializedCube::cube(&t, xy_dims(), vec![sum_units(), max_units()])
                            .unwrap();
                    let before = cube.to_table().unwrap();
                    let batch = champion_batch(&t, insert);
                    arm(site, fault.clone());
                    let err = cube.apply(&batch, &ExecContext::unlimited()).unwrap_err();
                    disarm_all();
                    match fault {
                        Fault::TripBudget => assert!(
                            matches!(err, CubeError::ResourceExhausted { .. }),
                            "{site}: {err:?}"
                        ),
                        _ => assert!(
                            matches!(err, CubeError::AggPanicked { .. }),
                            "{site}: {err:?}"
                        ),
                    }
                    // Nothing was installed: same version, same cells.
                    assert_eq!(cube.version(), 0, "{site}: version must not advance");
                    assert_eq!(
                        cube.to_table().unwrap().rows(),
                        before.rows(),
                        "{site}: cube changed under a failed batch"
                    );
                    // The failed batch is not poisoned — it applies cleanly.
                    cube.apply(&batch, &ExecContext::unlimited()).unwrap();
                    assert_eq!(cube.version(), batch.len() as u64);
                    assert!(cube.stats().cells_recomputed > 0, "{site}");
                }
            }
        });
    }

    /// A stalled batch fold still honours the caller's deadline: the
    /// checkpoint right after the stall trips `TimeMs` and the cube stays
    /// at version 0.
    #[test]
    fn maintain_batch_fold_honors_the_deadline() {
        let t = grid(4, 3);
        let cube = MaterializedCube::cube(&t, xy_dims(), vec![sum_units()]).unwrap();
        let _cleanup = Disarm;
        arm(Site::MaintainBatchFold, Fault::SleepMs(30));
        let limits = ExecLimits::none().timeout(Duration::from_millis(5));
        let ctx = ExecContext::new(&limits, 1);
        let mut batch = DeltaBatch::new();
        for i in 0..8 {
            batch
                .insert(Row::new(vec![Value::Int(i), Value::Int(i), Value::Int(1)]))
                .unwrap();
        }
        let err = cube.apply(&batch, &ctx).unwrap_err();
        disarm_all();
        assert!(
            matches!(
                err,
                CubeError::ResourceExhausted {
                    resource: Resource::TimeMs,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(cube.version(), 0);
        // The deadline-free retry goes through.
        cube.apply(&batch, &ExecContext::unlimited()).unwrap();
        assert_eq!(cube.version(), batch.len() as u64);
    }

    /// An insert-only batch moves the cube's base rows into the table it
    /// leaves; a fault in the fold, a panic included, hands them back: the
    /// base, cells and version are as before, and the batch then applies.
    #[test]
    fn a_failed_insert_only_batch_gives_the_base_back() {
        let t = grid(4, 3);
        silent_panics(|| {
            let _cleanup = Disarm;
            for fault in [Fault::TripBudget, Fault::Panic("fold down".into())] {
                let cube = MaterializedCube::cube(&t, xy_dims(), vec![sum_units()]).unwrap();
                let before = cube.to_table().unwrap();
                let mut batch = DeltaBatch::new();
                let row = Row::new(vec![Value::Int(9), Value::Int(9), Value::Int(1)]);
                batch.insert(row).unwrap();
                arm(Site::MaintainBatchFold, fault);
                assert!(cube.apply(&batch, &ExecContext::unlimited()).is_err());
                disarm_all();
                assert_eq!(cube.base().rows(), t.rows());
                assert_eq!((cube.to_table().unwrap(), cube.version()), (before, 0));
                cube.apply(&batch, &ExecContext::unlimited()).unwrap();
                assert_eq!(cube.base().len(), t.len() + 1);
            }
        });
    }

    /// A fault inside cache delta-absorption never fails the committed
    /// write: the INSERT succeeds, the poisoned entry degrades to a cache
    /// miss, and the view re-warms on the next read.
    #[test]
    fn cache_absorb_faults_degrade_to_invalidation() {
        let engine = service_engine(dc_sql::ServiceConfig::default());
        let sql = "SELECT x, SUM(units) AS s FROM g GROUP BY x";
        // grid(6, 5): x + y < 17, so SUM(units) = Σ(x + y) = 135.
        let mut expected_total = 135i64;
        silent_panics(|| {
            let _cleanup = Disarm;
            let session = engine.session();
            for fault in [Fault::TripBudget, Fault::Panic("absorb down".into())] {
                // Warm the x-view and prove it answers from cache.
                session.execute(sql).unwrap();
                session.execute(sql).unwrap();
                assert!(session.last_statement().cache_ancestor.is_some());

                arm(Site::CacheAbsorb, fault);
                let ack = session.execute("INSERT INTO g VALUES (9, 9, 1)");
                disarm_all();
                let ack = ack.unwrap(); // the write itself must commit
                assert_eq!(ack.rows()[0][1].as_i64(), Some(1));
                expected_total += 1;

                // The entry was invalidated, not left stale: the next read
                // misses, yet sees the post-insert data...
                let table = session.execute(sql).unwrap();
                assert!(session.last_statement().cache_ancestor.is_none());
                let total: i64 = table.rows().iter().filter_map(|r| r[1].as_i64()).sum();
                assert_eq!(total, expected_total);
                // ...and that miss re-warmed the view.
                session.execute(sql).unwrap();
                assert!(session.last_statement().cache_ancestor.is_some());
            }
        });
    }
}
