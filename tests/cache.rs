//! Lattice-cache behaviour through the public SQL engine: ancestor
//! rewriting must be invisible except for speed — same rows, same order,
//! never a stale cell after maintenance, and holistic aggregates must
//! fall through to the base scan.

use datacube::maintain::MaterializedCube;
use datacube::{AggSpec, Dimension};
use dc_aggregate::{builtin, AggKind, UdaBuilder};
use dc_relation::{row, DataType, Row, Schema, Table, Value};
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
    let sql = "SELECT model, year, SUM(units) AS s FROM sales GROUP BY CUBE model, year";
    let first = engine.execute(sql).unwrap();
    assert!(!engine.session().last_admission().answered_from_cache);
    let second = engine.execute(sql).unwrap();
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
    let stats = session.last_admission();
    assert!(!stats.answered_from_cache);
    assert_eq!(stats.cache_ancestor_bits, 0);
    session.execute(sql).unwrap();
    let stats = session.last_admission();
    assert!(stats.answered_from_cache);
    // The serving ancestor is the 2-dimension core cuboid: bits 0b11.
    assert_eq!(stats.cache_ancestor_bits, 0b11);
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
    assert!(session.last_admission().answered_from_cache);

    let reference = engine.session();
    reference.execute("SET CUBE_CACHE OFF").unwrap();
    let scanned = reference.execute(coarse).unwrap();
    assert!(!reference.last_admission().answered_from_cache);
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
    assert!(session.last_admission().answered_from_cache);
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
    assert!(session.last_admission().answered_from_cache);
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
    let rows: Vec<Row> = mat.base_rows();
    Table::new(schema.clone(), rows).unwrap()
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
    assert!(session.last_admission().answered_from_cache);
    assert_eq!(total(&hit), 510);

    // Maintenance: insert through the materialized cube, republish.
    mat.insert(row!["Chevy", 1996, "red", 90]).unwrap();
    engine
        .update_table("sales", republish(&mat, &schema))
        .unwrap();

    // The next read must see the new row — never the cached 510.
    let after = session.execute(sql).unwrap();
    assert!(!session.last_admission().answered_from_cache);
    assert_eq!(total(&after), 600);
    // And the repopulated view serves the *new* version.
    let again = session.execute(sql).unwrap();
    assert!(session.last_admission().answered_from_cache);
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
    assert!(session.last_admission().answered_from_cache);
    assert_eq!(chevy_total(&hit), 290);

    mat.delete(&row!["Chevy", 1994, "black", 50]).unwrap();
    engine
        .update_table("sales", republish(&mat, &schema))
        .unwrap();

    let after = session.execute(sql).unwrap();
    assert!(!session.last_admission().answered_from_cache);
    assert_eq!(chevy_total(&after), 240);

    // Old-version entries are collected, not resurrected: the cache holds
    // only current-version views after the republished table is queried.
    session.execute(sql).unwrap();
    assert!(session.last_admission().answered_from_cache);
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
    assert!(!session.last_admission().answered_from_cache);
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
    assert!(!off.last_admission().answered_from_cache);
    assert_eq!(engine.cube_cache().counters().entries, 0);

    // The default session still benefits.
    on.execute(sql).unwrap();
    on.execute(sql).unwrap();
    assert!(on.last_admission().answered_from_cache);

    // Opting back in reuses the shared view.
    off.execute("SET CUBE_CACHE ON").unwrap();
    off.execute(sql).unwrap();
    assert!(off.last_admission().answered_from_cache);
}

/// An engine over `sales` with `CSUM`, a rewritable SUM that counts its
/// Iter() calls — one per base row a statement scans.
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
        .build()
        .unwrap();
    let mut engine = engine_with_sales();
    engine.register_aggregate(counted_sum).unwrap();
    (engine, iter_calls)
}

/// A repeated dashboard statement is answered from the cached view: it
/// scans zero base rows and says where its answer came from.
#[test]
fn cache_hit_scans_no_base_rows() {
    let (engine, iter_calls) = engine_counting_scans();
    let session = engine.session();
    let sql = "SELECT model, year, CSUM(units) AS s FROM sales GROUP BY CUBE model, year";
    let first = session.execute(sql).unwrap();
    assert!(!session.last_admission().answered_from_cache);
    let scanned = iter_calls.load(Ordering::SeqCst);
    assert!(scanned >= sales().len(), "the miss scans the base table");
    for _ in 0..3 {
        let again = session.execute(sql).unwrap();
        assert_eq!(again.rows(), first.rows());
        assert!(session.last_admission().answered_from_cache);
    }
    assert_eq!(
        iter_calls.load(Ordering::SeqCst),
        scanned,
        "a hit scans nothing"
    );
    let counters = engine.cube_cache().counters();
    assert_eq!((counters.misses, counters.hits), (1, 3), "{counters:?}");
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
    for _ in 0..2 {
        engine.execute(sql).unwrap();
        assert!(!engine.session().last_admission().answered_from_cache);
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
    assert!(!session.last_admission().answered_from_cache);
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
                !session.last_admission().answered_from_cache,
                "{f}(v, {second}) was answered from the {f}(v, {first}) view"
            );
            let scanned = reference.execute(&statement(f, second)).unwrap();
            assert_eq!(cached.rows(), scanned.rows(), "{f}: {first} then {second}");
            // The same call does hit its own view.
            session.execute(&statement(f, second)).unwrap();
            assert!(session.last_admission().answered_from_cache);
        }
    }
}
