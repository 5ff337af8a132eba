//! Lattice-cache behaviour through the public SQL engine: ancestor
//! rewriting must be invisible except for speed — same rows, same order,
//! never a stale cell after maintenance, and holistic aggregates must
//! fall through to the base scan.

use datacube::maintain::MaterializedCube;
use datacube::{AggSpec, Dimension};
use dc_aggregate::{builtin, AggKind, Retract, UdaBuilder};
use dc_relation::{row, DataType, Schema, Table, Value};
use dc_sql::{Engine, ServiceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The paper's Table 4 shape: model × year × color with unit counts.
fn sales() -> Table {
    let schema = Schema::from_pairs(&[
        ("model", DataType::Str),
        ("year", DataType::Int),
        ("color", DataType::Str),
        ("units", DataType::Int),
    ]);
    let rows = vec![
        row!["Chevy", 1994, "black", 50],
        row!["Chevy", 1994, "white", 40],
        row!["Chevy", 1995, "black", 115],
        row!["Chevy", 1995, "white", 85],
        row!["Ford", 1994, "black", 50],
        row!["Ford", 1994, "white", 10],
        row!["Ford", 1995, "black", 85],
        row!["Ford", 1995, "white", 75],
    ];
    Table::new(schema, rows).unwrap()
}

fn engine_with_sales() -> Engine {
    let mut engine = Engine::with_service(ServiceConfig::default());
    engine.register_table("sales", sales()).unwrap();
    engine
}

#[test]
fn repeated_cube_is_served_from_cache_with_identical_rows() {
    let engine = engine_with_sales();
    let session = engine.session();
    let sql = "SELECT model, year, SUM(units) AS s FROM sales GROUP BY CUBE model, year";
    let first = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_none());
    let second = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_some());
    assert_eq!(first.rows(), second.rows(), "cache hit changed the answer");
    let counters = engine.cube_cache().counters();
    assert_eq!(counters.hits, 1, "{counters:?}");
    assert_eq!(counters.entries, 1, "{counters:?}");
}

#[test]
fn exec_stats_report_the_serving_ancestor() {
    let engine = engine_with_sales();
    let session = engine.session();
    let sql = "SELECT model, year, SUM(units) AS s FROM sales GROUP BY CUBE model, year";
    session.execute(sql).unwrap();
    assert_eq!(session.last_statement().cache_ancestor, None);
    session.execute(sql).unwrap();
    // The serving ancestor is the 2-dimension core cuboid: bits 0b11.
    assert_eq!(session.last_statement().cache_ancestor, Some(0b11));
}

/// A coarser query (GROUP BY model) must be answered from the finer
/// materialized ancestor (model × year core) and agree with a cache-off
/// session bit for bit.
#[test]
fn subset_query_is_answered_from_the_finer_ancestor() {
    let engine = engine_with_sales();
    let warm = "SELECT model, year, SUM(units) AS s FROM sales GROUP BY model, year";
    engine.execute(warm).unwrap();

    let coarse = "SELECT model, SUM(units) AS s FROM sales GROUP BY model";
    let session = engine.session();
    let cached = session.execute(coarse).unwrap();
    assert!(session.last_statement().cache_ancestor.is_some());

    let reference = engine.session();
    reference.execute("SET CUBE_CACHE OFF").unwrap();
    let scanned = reference.execute(coarse).unwrap();
    assert!(reference.last_statement().cache_ancestor.is_none());
    assert_eq!(cached.rows(), scanned.rows());
}

/// AVG is algebraic: the cache must re-derive it from SUM/COUNT partial
/// state, not average the ancestor's averages.
#[test]
fn avg_is_rederived_from_partial_state_not_averaged() {
    let engine = engine_with_sales();
    let warm = "SELECT model, year, AVG(units) AS a FROM sales GROUP BY model, year";
    engine.execute(warm).unwrap();
    let session = engine.session();
    let table = session
        .execute("SELECT model, AVG(units) AS a FROM sales GROUP BY model")
        .unwrap();
    assert!(session.last_statement().cache_ancestor.is_some());
    // Chevy: (50+40+115+85)/4 = 72.5 — the average of the two per-year
    // averages would be (45 + 100)/2 = 72.5 here, so also pin Ford:
    // (50+10+85+75)/4 = 55, vs averaged-averages (30 + 80)/2 = 55.
    // Use a skewed row count instead: republish with an extra Ford row.
    let chevy = table
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("Chevy"))
        .unwrap();
    assert_eq!(chevy[1], Value::Float(72.5));

    // Skew the group sizes so avg-of-avgs diverges from the true mean.
    let mut skewed = sales();
    skewed.push(row!["Ford", 1996, "red", 1000]).unwrap();
    engine.update_table("sales", skewed).unwrap();
    engine
        .execute("SELECT model, year, AVG(units) AS a FROM sales GROUP BY model, year")
        .unwrap();
    let table = session
        .execute("SELECT model, AVG(units) AS a FROM sales GROUP BY model")
        .unwrap();
    assert!(session.last_statement().cache_ancestor.is_some());
    let ford = table
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("Ford"))
        .unwrap();
    // True mean: (50+10+85+75+1000)/5 = 244. Avg-of-avgs would be
    // (30 + 80 + 1000)/3 = 370.
    assert_eq!(ford[1], Value::Float(244.0));
}

/// Rebuild the table a `MaterializedCube` maintains into a fresh
/// relation, for republishing through `Engine::update_table`.
fn republish(mat: &MaterializedCube, schema: &Schema) -> Table {
    Table::new(schema.clone(), mat.base().rows().to_vec()).unwrap()
}

#[test]
fn insert_through_materialized_cube_never_serves_stale_cells() {
    let base = sales();
    let schema = base.schema().clone();
    let mat = MaterializedCube::cube(
        &base,
        vec![Dimension::column("model"), Dimension::column("year")],
        vec![AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s")],
    )
    .unwrap();

    let mut engine = Engine::with_service(ServiceConfig::default());
    engine
        .register_table("sales", republish(&mat, &schema))
        .unwrap();
    let session = engine.session();
    let total = |t: &Table| t.rows()[0][0].as_i64().unwrap();

    // Grand total: a global aggregate is the apex of the lattice, served
    // from the finest cuboid's merged state.
    let sql = "SELECT SUM(units) AS total FROM sales";
    let before = session.execute(sql).unwrap();
    assert_eq!(total(&before), 510);
    let hit = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_some());
    assert_eq!(total(&hit), 510);

    // Maintenance: insert through the materialized cube, republish.
    mat.insert(row!["Chevy", 1996, "red", 90]).unwrap();
    engine
        .update_table("sales", republish(&mat, &schema))
        .unwrap();

    // The next read must see the new row — never the cached 510.
    let after = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_none());
    assert_eq!(total(&after), 600);
    // And the repopulated view serves the *new* version.
    let again = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_some());
    assert_eq!(total(&again), 600);
}

#[test]
fn delete_through_materialized_cube_never_serves_stale_cells() {
    let base = sales();
    let schema = base.schema().clone();
    let mat = MaterializedCube::cube(
        &base,
        vec![Dimension::column("model"), Dimension::column("year")],
        vec![AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s")],
    )
    .unwrap();

    let mut engine = Engine::with_service(ServiceConfig::default());
    engine
        .register_table("sales", republish(&mat, &schema))
        .unwrap();
    let session = engine.session();
    let sql = "SELECT model, SUM(units) AS s FROM sales GROUP BY model";
    let chevy_total = |t: &Table| {
        t.rows()
            .iter()
            .find(|r| r[0] == Value::str("Chevy"))
            .and_then(|r| r[1].as_i64())
            .unwrap()
    };

    session.execute(sql).unwrap();
    let hit = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_some());
    assert_eq!(chevy_total(&hit), 290);

    mat.delete(&row!["Chevy", 1994, "black", 50]).unwrap();
    engine
        .update_table("sales", republish(&mat, &schema))
        .unwrap();

    let after = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_none());
    assert_eq!(chevy_total(&after), 240);

    // Old-version entries are collected, not resurrected: the cache holds
    // only current-version views after the republished table is queried.
    session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_some());
    assert_eq!(chevy_total(&session.execute(sql).unwrap()), 240);
}

/// Holistic and DISTINCT aggregates are not mergeable from subcube state
/// (the paper's taxonomy): they must fall through to the base scan and
/// leave no cache entry behind.
#[test]
fn holistic_aggregates_fall_through_to_base_scan() {
    let engine = engine_with_sales();
    let session = engine.session();
    let sql = "SELECT model, COUNT(DISTINCT color) AS c FROM sales GROUP BY model";
    let first = session.execute(sql).unwrap();
    let second = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_none());
    assert_eq!(first.rows(), second.rows());
    let counters = engine.cube_cache().counters();
    assert_eq!(counters.entries, 0, "{counters:?}");
    assert_eq!(counters.hits, 0, "{counters:?}");
}

#[test]
fn set_cube_cache_off_is_per_session() {
    let engine = engine_with_sales();
    let off = engine.session();
    off.execute("SET CUBE_CACHE OFF").unwrap();
    let on = engine.session();
    let sql = "SELECT model, SUM(units) AS s FROM sales GROUP BY ROLLUP model, year";

    // The opted-out session never populates or hits.
    off.execute(sql).unwrap();
    off.execute(sql).unwrap();
    assert!(off.last_statement().cache_ancestor.is_none());
    assert_eq!(engine.cube_cache().counters().entries, 0);

    // The default session still benefits.
    on.execute(sql).unwrap();
    on.execute(sql).unwrap();
    assert!(on.last_statement().cache_ancestor.is_some());

    // Opting back in reuses the shared view.
    off.execute("SET CUBE_CACHE ON").unwrap();
    off.execute(sql).unwrap();
    assert!(off.last_statement().cache_ancestor.is_some());
}

/// An engine over `sales` with `CSUM`, a rewritable SUM that counts its
/// Iter() calls — one per base row a statement scans — and retracts a
/// deleted value by subtraction.
fn engine_counting_scans() -> (Engine, Arc<AtomicUsize>) {
    let iter_calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&iter_calls);
    let counted_sum = UdaBuilder::new("CSUM", AggKind::Algebraic, || 0i64)
        .iter(move |s, v| {
            seen.fetch_add(1, Ordering::SeqCst);
            *s += v.as_i64().unwrap_or(0);
        })
        .state(|s| vec![Value::Int(*s)])
        .merge(|s, st| *s += st[0].as_i64().unwrap_or(0))
        .finalize(|s| Value::Int(*s))
        .retract(|s, v| {
            *s -= v.as_i64().unwrap_or(0);
            Retract::Applied
        })
        .build()
        .unwrap();
    let mut engine = engine_with_sales();
    engine.register_aggregate(counted_sum).unwrap();
    (engine, iter_calls)
}

/// A repeated dashboard statement is answered from the cached view: it
/// scans zero base rows and says where its answer came from. The miss
/// that built the view scanned the base once, like a cache-off run, and
/// all three agree row for row.
#[test]
fn cache_hit_scans_no_base_rows() {
    let (engine, iter_calls) = engine_counting_scans();
    let session = engine.session();
    let sql = "SELECT model, year, CSUM(units) AS s FROM sales GROUP BY CUBE model, year";
    let first = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_none());
    let scanned = iter_calls.load(Ordering::SeqCst);
    assert_eq!(scanned, sales().len(), "the miss scans the base table once");
    for _ in 0..3 {
        let again = session.execute(sql).unwrap();
        assert_eq!(again.rows(), first.rows());
        assert!(session.last_statement().cache_ancestor.is_some());
    }
    assert_eq!(
        iter_calls.load(Ordering::SeqCst),
        scanned,
        "a hit scans nothing"
    );
    let off = engine.session();
    off.execute("SET CUBE_CACHE OFF").unwrap();
    assert_eq!(off.execute(sql).unwrap().rows(), first.rows());
    assert_eq!(iter_calls.load(Ordering::SeqCst), 2 * scanned);
    let counters = engine.cube_cache().counters();
    assert_eq!((counters.misses, counters.hits), (1, 3), "{counters:?}");
}

/// A DELETE retracts its rows from the warm view: the next read scans no
/// base row, is a hit, and agrees with a cache-off read of the table the
/// DELETE left.
#[test]
fn a_delete_retracts_into_the_warm_view_and_scans_nothing() {
    let (engine, iter_calls) = engine_counting_scans();
    let session = engine.session();
    let sql = "SELECT model, year, CSUM(units) AS s FROM sales GROUP BY CUBE model, year";
    session.execute(sql).unwrap();
    let ack = session.execute("DELETE FROM sales WHERE year = 1994 AND model = 'Ford'");
    assert_eq!(ack.unwrap().rows()[0][1], Value::Int(2));
    let scanned = iter_calls.load(Ordering::SeqCst);
    let after = session.execute(sql).unwrap();
    assert!(session.last_statement().cache_ancestor.is_some());
    assert_eq!(
        iter_calls.load(Ordering::SeqCst),
        scanned,
        "the read after a DELETE scans nothing"
    );
    let off = engine.session();
    off.execute("SET CUBE_CACHE OFF").unwrap();
    assert_eq!(off.execute(sql).unwrap().rows(), after.rows());
    let counters = engine.cube_cache().counters();
    assert_eq!((counters.misses, counters.hits), (1, 1), "{counters:?}");
}

/// Floating-point subtraction is no inverse: retracting `1e20` from
/// `1e20 + 1.0` leaves `0.0`. So a DELETE of a Float row recomputes the
/// warm view's touched cells, and the view answers what a cold scan does.
#[test]
fn a_float_delete_recomputes_instead_of_subtracting() {
    let mut engine = Engine::with_service(ServiceConfig::default());
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("x", DataType::Float)]);
    let t = Table::new(schema, vec![row![1, 1e20], row![1, 1.0], row![2, 5.0]]).unwrap();
    engine.register_table("t", t).unwrap();
    let session = engine.session();
    for sql in [
        "SELECT k, SUM(x) AS s FROM t GROUP BY CUBE k",
        "SELECT k, AVG(x) AS a FROM t GROUP BY CUBE k",
    ] {
        session.execute(sql).unwrap();
    }
    session.execute("DELETE FROM t WHERE x > 1000.0").unwrap();
    let cold = engine.session();
    cold.execute("SET CUBE_CACHE OFF").unwrap();
    for (sql, want) in [
        (
            "SELECT k, SUM(x) AS s FROM t GROUP BY CUBE k",
            [1.0, 5.0, 6.0],
        ),
        (
            "SELECT k, AVG(x) AS a FROM t GROUP BY CUBE k",
            [1.0, 5.0, 3.0],
        ),
    ] {
        let warm = session.execute(sql).unwrap();
        assert!(session.last_statement().cache_ancestor.is_some(), "{sql}");
        let got: Vec<Value> = warm.rows().iter().map(|r| r[1].clone()).collect();
        assert_eq!(got, want.map(Value::Float), "{sql}");
        assert_eq!(warm.rows(), cold.execute(sql).unwrap().rows(), "{sql}");
    }
}

/// An integer SUM is exact. Over `i64::MAX` and `1` it is NULL — the
/// evaluator's rule for an integer result outside `i64` — never a wrapped
/// value, and over `i64::MAX`, `1` and `-1` it is `i64::MAX` in every row
/// order. That holds over kernel lanes and boxed ones (VARIANCE and MEDIAN
/// have no kernel), on one thread and on four with each value in a morsel
/// of its own, from a cold scan and from a warm view, and after the view
/// absorbs an INSERT and a DELETE. Group `k = 2` holds `-5` and filler
/// zeros, so the ALL row is back inside `i64`.
#[test]
fn an_integer_sum_is_null_past_i64_and_exact_within_it() {
    const MAX: i64 = i64::MAX;
    // Rows of filler after each value: more than one 2 048-row morsel.
    const GAP: usize = 2100;
    let table = |values: &[i64]| {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("x", DataType::Int)]);
        let mut rows = vec![row![2, -5]];
        for &v in values {
            rows.push(row![1, v]);
            rows.extend((0..GAP).map(|_| row![2, 0]));
        }
        Table::new(schema, rows).unwrap()
    };
    let sums = |t: &Table| -> Vec<Value> { t.rows().iter().map(|r| r[1].clone()).collect() };
    let past = vec![Value::Null, Value::Int(-5), Value::Int(MAX - 4)];
    let within = vec![Value::Int(MAX), Value::Int(-5), Value::Int(MAX - 5)];
    let mut cases = vec![(vec![MAX, 1], past.clone()), (vec![1, MAX], past.clone())];
    for order in [
        [MAX, 1, -1],
        [MAX, -1, 1],
        [1, MAX, -1],
        [1, -1, MAX],
        [-1, MAX, 1],
        [-1, 1, MAX],
    ] {
        cases.push((order.to_vec(), within.clone()));
    }
    let cached = [
        "SELECT k, SUM(x) AS s FROM t GROUP BY CUBE k",
        "SELECT k, SUM(x) AS s, VARIANCE(x) AS v FROM t GROUP BY CUBE k",
    ];
    let boxed_uncached = "SELECT k, SUM(x) AS s, MEDIAN(x) AS m FROM t GROUP BY CUBE k";
    for (values, want) in cases {
        let mut engine = Engine::with_service(ServiceConfig::default());
        engine.register_table("t", table(&values)).unwrap();
        let warm = engine.session();
        let check = |want: &[Value]| {
            for sql in cached.iter().chain([&boxed_uncached]) {
                for threads in [1, 4] {
                    let cold = engine.session();
                    cold.execute("SET CUBE_CACHE OFF").unwrap();
                    cold.execute(&format!("SET THREADS {threads}")).unwrap();
                    let got = sums(&cold.execute(sql).unwrap());
                    assert_eq!(got, want, "{sql}, {threads} threads, {values:?}");
                }
            }
            for sql in cached {
                for _ in 0..2 {
                    assert_eq!(sums(&warm.execute(sql).unwrap()), want, "{sql}, {values:?}");
                }
                assert!(warm.last_statement().cache_ancestor.is_some(), "{sql}");
            }
        };
        check(&want);
        if want == past {
            warm.execute("INSERT INTO t VALUES (1, -1)").unwrap();
            check(&within);
            warm.execute("DELETE FROM t WHERE x = -1").unwrap();
            check(&past);
        }
    }
}

/// An integer mean retracts exactly. Past 2^53 an `f64` running sum
/// rounds: `2^53 + 1 + 1` folds to `2^53`, and taking the two `1`s back
/// out leaves `2^53 - 2`. The exact sum divides once, so after the DELETE
/// a warm view answers what a cold scan does, over kernel lanes (`AVG`
/// alone) and boxed ones (beside `VARIANCE` warm, `MEDIAN` cold).
#[test]
fn an_integer_avg_retracts_exactly_past_2_pow_53() {
    const BIG: i64 = 1 << 53;
    let mut engine = Engine::with_service(ServiceConfig::default());
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("x", DataType::Int)]);
    let rows = vec![row![1, BIG], row![1, 1], row![1, 1], row![2, 3]];
    engine
        .register_table("t", Table::new(schema, rows).unwrap())
        .unwrap();
    let cached = [
        "SELECT k, AVG(x) AS a FROM t GROUP BY CUBE k",
        "SELECT k, AVG(x) AS a, VARIANCE(x) AS v FROM t GROUP BY CUBE k",
    ];
    let boxed_uncached = "SELECT k, AVG(x) AS a, MEDIAN(x) AS m FROM t GROUP BY CUBE k";
    let means = |t: &Table| -> Vec<Value> { t.rows().iter().map(|r| r[1].clone()).collect() };
    let warm = engine.session();
    for sql in cached {
        warm.execute(sql).unwrap();
    }
    warm.execute("DELETE FROM t WHERE x = 1").unwrap();
    // `2^53 + 3` rounds to `2^53 + 4` once, then halves exactly.
    let want = [BIG as f64, 3.0, (BIG / 2 + 2) as f64].map(Value::Float);
    let cold = engine.session();
    cold.execute("SET CUBE_CACHE OFF").unwrap();
    for sql in cached.iter().chain([&boxed_uncached]) {
        assert_eq!(means(&cold.execute(sql).unwrap()), want, "cold: {sql}");
    }
    for sql in cached {
        assert_eq!(means(&warm.execute(sql).unwrap()), want, "warm: {sql}");
        assert!(warm.last_statement().cache_ancestor.is_some(), "{sql}");
    }
}

/// 20 000 rows of `k` < 50, `j` < 70 and a non-dyadic float `x`
/// (`n / 7 · 10^e`, `e` in −4..=2), from a fixed-seed xorshift: a sum of
/// them depends on the order its terms are added in.
fn non_dyadic_floats() -> Table {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("j", DataType::Int),
        ("x", DataType::Float),
    ]);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below) as i64
    };
    let rows = (0..20_000)
        .map(|_| {
            let (k, j, n, e) = (next(50), next(70), next(1000) + 1, next(7) - 4);
            row![k, j, n as f64 / 7.0 * 10f64.powi(e as i32)]
        })
        .collect();
    Table::new(schema, rows).unwrap()
}

/// Rows equal with every float compared by its bits.
fn assert_same_bits(got: &Table, want: &Table, what: &str) {
    let bits = |t: &Table| -> Vec<Vec<Result<u64, Value>>> {
        let value = |v: &Value| match v {
            Value::Float(f) => Ok(f.to_bits()),
            other => Err(other.clone()),
        };
        t.rows()
            .iter()
            .map(|r| r.iter().map(value).collect())
            .collect()
    };
    let (got, want) = (bits(got), bits(want));
    assert_eq!(got.len(), want.len(), "{what}: row counts");
    let differ = got.iter().zip(&want).filter(|(g, w)| g != w).count();
    assert_eq!(differ, 0, "{what}: {differ} of {} rows differ", want.len());
}

/// A warm answer from a view over the query's own dimensions derives
/// every set from the parent a cold `FromCore` cube derives it from — the
/// cascade's smallest-cardinality rule — so even a float SUM, whose bits
/// follow the order of its additions, answers with the same bits warm and
/// cold, the ALL rows included.
#[test]
fn a_warm_float_cube_has_the_cold_cubes_bits() {
    let mut engine = Engine::with_service(ServiceConfig::default());
    engine.register_table("t", non_dyadic_floats()).unwrap();
    let (warm, cold) = (engine.session(), engine.session());
    cold.execute("SET CUBE_CACHE OFF").unwrap();
    for family in ["CUBE", "ROLLUP"] {
        let sql = format!("SELECT k, j, SUM(x) AS s, AVG(x) AS a FROM t GROUP BY {family} k, j");
        let want = cold.execute(&sql).unwrap();
        for _ in 0..2 {
            let got = warm.execute(&sql).unwrap();
            assert_same_bits(&got, &want, &sql);
        }
        assert!(warm.last_statement().cache_ancestor.is_some(), "{sql}");
    }
    let counters = engine.cube_cache().counters();
    assert_eq!((counters.misses, counters.hits), (1, 3), "{counters:?}");
}

/// A cacheable miss builds its view and answers from it, each under its
/// own cell count, so it fits exactly the `MAX_CELLS` the direct cube
/// fits: the cube's cell count admits both, one cell less refuses both.
#[test]
fn a_cacheable_miss_fits_the_cell_budget_the_direct_cube_fits() {
    let sql = "SELECT model, year, SUM(units) AS s FROM sales GROUP BY CUBE model, year";
    let cells = engine_with_sales().execute(sql).unwrap().len() as i64;
    for cache in ["ON", "OFF"] {
        for (budget, fits) in [(cells, true), (cells - 1, false)] {
            let engine = engine_with_sales();
            engine.execute(&format!("SET CUBE_CACHE {cache}")).unwrap();
            engine.set_option("MAX_CELLS", budget).unwrap();
            let ok = engine.execute(sql).is_ok();
            assert_eq!(ok, fits, "CUBE_CACHE {cache}, MAX_CELLS {budget}");
        }
    }
}

/// With the engine-wide switch off, a cache-eligible statement neither
/// touches the cache's counters nor pays for a view build it would only
/// throw away: its UDA sees each base row exactly once.
#[test]
fn disabled_cache_neither_builds_nor_counts() {
    let (engine, iter_calls) = engine_counting_scans();
    engine.cube_cache().set_enabled(false);
    let before = engine.cube_cache().counters();

    let sql = "SELECT model, year, CSUM(units) AS s FROM sales GROUP BY CUBE model, year";
    let session = engine.session();
    for _ in 0..2 {
        session.execute(sql).unwrap();
        assert!(session.last_statement().cache_ancestor.is_none());
    }
    assert_eq!(
        iter_calls.load(Ordering::SeqCst),
        2 * sales().len(),
        "one scan per statement, no discarded view build"
    );
    let after = engine.cube_cache().counters();
    assert_eq!((after.entries, after.cells), (0, 0), "{after:?}");
    assert_eq!(
        (after.misses, after.hits, after.evictions),
        (before.misses, before.hits, before.evictions),
        "{after:?}"
    );
}

/// WHERE clauses, joins, and computed dimensions disqualify a statement
/// from cache serving — correctness over cleverness.
#[test]
fn filtered_queries_bypass_the_cache() {
    let engine = engine_with_sales();
    let session = engine.session();
    let warm = "SELECT model, year, SUM(units) AS s FROM sales GROUP BY model, year";
    session.execute(warm).unwrap();

    let filtered = "SELECT model, SUM(units) AS s FROM sales WHERE year = 1994 GROUP BY model";
    let t = session.execute(filtered).unwrap();
    assert!(session.last_statement().cache_ancestor.is_none());
    let chevy = t
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("Chevy"))
        .unwrap();
    assert_eq!(chevy[1], Value::Int(90));
}

/// A parameterized aggregate's parameter is part of its identity: the
/// cached `MAXN(v, 2)` view must never answer `MAXN(v, 3)` (it would
/// return the 2nd largest), nor the other way round, nor for `MINN`.
#[test]
fn parameterized_aggregates_are_keyed_by_their_parameter() {
    let schema = Schema::from_pairs(&[("k", DataType::Str), ("v", DataType::Int)]);
    let rows = vec![
        row!["a", 1],
        row!["a", 2],
        row!["a", 3],
        row!["a", 4],
        row!["b", 10],
        row!["b", 20],
        row!["b", 30],
    ];
    let statement = |f: &str, n: u8| format!("SELECT k, {f}(v, {n}) AS x FROM t GROUP BY k");
    for f in ["MAXN", "MINN"] {
        for (first, second) in [(2, 3), (3, 2)] {
            let mut engine = Engine::with_service(ServiceConfig::default());
            let table = Table::new(schema.clone(), rows.clone()).unwrap();
            engine.register_table("t", table).unwrap();
            let reference = engine.session();
            reference.execute("SET CUBE_CACHE OFF").unwrap();

            let session = engine.session();
            session.execute(&statement(f, first)).unwrap();
            let cached = session.execute(&statement(f, second)).unwrap();
            assert!(
                session.last_statement().cache_ancestor.is_none(),
                "{f}(v, {second}) was answered from the {f}(v, {first}) view"
            );
            let scanned = reference.execute(&statement(f, second)).unwrap();
            assert_eq!(cached.rows(), scanned.rows(), "{f}: {first} then {second}");
            // The same call does hit its own view.
            session.execute(&statement(f, second)).unwrap();
            assert!(session.last_statement().cache_ancestor.is_some());
        }
    }
}
