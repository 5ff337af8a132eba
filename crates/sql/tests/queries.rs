//! End-to-end SQL tests over the paper's running examples.

use dc_relation::{row, DataType, Date, Row, Schema, Table, Value};
use dc_sql::scalar::ScalarFn;
use dc_sql::{Engine, SqlError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The Table 4/5/6 sales data: Chevy & Ford × 1994/1995 × black/white.
fn sales() -> Table {
    let schema = Schema::from_pairs(&[
        ("Model", DataType::Str),
        ("Year", DataType::Int),
        ("Color", DataType::Str),
        ("Sales", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for (m, y, c, u) in [
        ("Chevy", 1994, "black", 50),
        ("Chevy", 1994, "white", 40),
        ("Chevy", 1995, "black", 85),
        ("Chevy", 1995, "white", 115),
        ("Ford", 1994, "black", 50),
        ("Ford", 1994, "white", 10),
        ("Ford", 1995, "black", 85),
        ("Ford", 1995, "white", 75),
    ] {
        t.push(row![m, y, c, u]).unwrap();
    }
    t
}

fn weather() -> Table {
    let schema = Schema::from_pairs(&[
        ("Time", DataType::Date),
        ("Latitude", DataType::Float),
        ("Longitude", DataType::Float),
        ("Altitude", DataType::Int),
        ("Temp", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for (time, lat, lon, alt, temp) in [
        (
            Date::new_at(1995, 1, 25, 15, 0).unwrap(),
            37.97,
            -122.75,
            102,
            28,
        ),
        (
            Date::new_at(1995, 1, 25, 18, 0).unwrap(),
            19.43,
            -99.13,
            2240,
            41,
        ),
        (
            Date::new_at(1995, 1, 26, 15, 0).unwrap(),
            37.97,
            -122.75,
            102,
            37,
        ),
        (
            Date::new_at(1995, 1, 26, 18, 0).unwrap(),
            35.68,
            139.69,
            40,
            48,
        ),
    ] {
        t.push(Row::new(vec![
            Value::Date(time),
            Value::Float(lat),
            Value::Float(lon),
            Value::Int(alt),
            Value::Int(temp),
        ]))
        .unwrap();
    }
    t
}

fn engine() -> Engine {
    let mut e = Engine::new();
    e.register_table("Sales", sales()).unwrap();
    e.register_table("Weather", weather()).unwrap();
    // The paper's Nation() function, §2.
    e.register_scalar(ScalarFn::new("NATION", 2, DataType::Str, |args| {
        match (args[0].as_f64(), args[1].as_f64()) {
            (Some(lat), Some(lon)) if lat > 30.0 && lon < -100.0 => Value::str("USA"),
            (Some(lat), Some(lon)) if lat < 30.0 && lon < -90.0 => Value::str("Mexico"),
            (Some(_), Some(lon)) if lon > 100.0 => Value::str("Japan"),
            _ => Value::Null,
        }
    }))
    .unwrap();
    e
}

fn col(t: &Table, name: &str) -> usize {
    t.schema().index_of(name).unwrap()
}

#[test]
fn simple_aggregate_without_group_by() {
    let out = engine().execute("SELECT AVG(Temp) FROM Weather").unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows()[0][0], Value::Float(38.5));
}

#[test]
fn count_distinct_reporting_times() {
    // §1.1: "counts the distinct number of reporting times".
    let out = engine()
        .execute("SELECT COUNT(DISTINCT Time) FROM Weather")
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::Int(4));
}

#[test]
fn group_by_time_altitude() {
    let out = engine()
        .execute("SELECT Time, Altitude, AVG(Temp) FROM Weather GROUP BY Time, Altitude")
        .unwrap();
    assert_eq!(out.len(), 4);
}

#[test]
fn histogram_group_by_computed_day_and_nation() {
    // §2's histogram query: GROUP BY Day(Time), Nation(Latitude, Longitude).
    let out = engine()
        .execute(
            "SELECT day, nation, MAX(Temp)
             FROM Weather
             GROUP BY Day(Time) AS day, Nation(Latitude, Longitude) AS nation",
        )
        .unwrap();
    // (25th, USA), (25th, Mexico), (26th, USA), (26th, Japan).
    assert_eq!(out.len(), 4);
    let usa_25 = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::Date(Date::ymd(1995, 1, 25)) && r[1] == Value::str("USA"))
        .unwrap();
    assert_eq!(usa_25[2], Value::Int(28));
}

#[test]
fn full_cube_matches_figure_4_arithmetic() {
    let out = engine()
        .execute(
            "SELECT Model, Year, Color, SUM(Sales) AS units
             FROM Sales GROUP BY CUBE Model, Year, Color",
        )
        .unwrap();
    // 2×2×2 core + supers: Π(C_i + 1) = 3 × 3 × 3 = 27 (dense core).
    assert_eq!(out.len(), 27);
    let grand = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::All && r[1] == Value::All && r[2] == Value::All)
        .unwrap();
    assert_eq!(grand[3], Value::Int(510));
}

#[test]
fn rollup_produces_table_5a() {
    let out = engine()
        .execute(
            "SELECT Model, Year, Color, SUM(Sales) AS Units
             FROM Sales WHERE Model = 'Chevy'
             GROUP BY ROLLUP Model, Year, Color",
        )
        .unwrap();
    // Table 5.a: 4 core + 2 (model,year) + 1 (model) + 1 grand = 8 rows.
    assert_eq!(out.len(), 8);
    let m = col(&out, "Model");
    let y = col(&out, "Year");
    let c = col(&out, "Color");
    let u = col(&out, "Units");
    let find = |mv: Value, yv: Value, cv: Value| {
        out.rows()
            .iter()
            .find(|r| r[m] == mv && r[y] == yv && r[c] == cv)
            .map(|r| r[u].clone())
    };
    assert_eq!(
        find(Value::str("Chevy"), Value::Int(1994), Value::All),
        Some(Value::Int(90))
    );
    assert_eq!(
        find(Value::str("Chevy"), Value::Int(1995), Value::All),
        Some(Value::Int(200))
    );
    assert_eq!(
        find(Value::str("Chevy"), Value::All, Value::All),
        Some(Value::Int(290))
    );
}

#[test]
fn union_of_group_bys_equals_rollup() {
    // §2's hand-written 4-way union vs the ROLLUP operator.
    let e = engine();
    let union = e
        .execute(
            "SELECT 'ALL', 'ALL', 'ALL', SUM(Sales) FROM Sales WHERE Model = 'Chevy'
             UNION
             SELECT Model, 'ALL', 'ALL', SUM(Sales) FROM Sales WHERE Model = 'Chevy'
                 GROUP BY Model
             UNION
             SELECT Model, STR(Year), 'ALL', SUM(Sales) FROM Sales WHERE Model = 'Chevy'
                 GROUP BY Model, Year
             UNION
             SELECT Model, STR(Year), Color, SUM(Sales) FROM Sales WHERE Model = 'Chevy'
                 GROUP BY Model, Year, Color",
        )
        .unwrap();
    assert_eq!(union.len(), 8); // same 8 logical rows as Table 5.a
                                // Sub-total values agree with the rollup (the 'ALL' strings here are
                                // the paper's *display* convention; the rollup uses the ALL token).
    let total: Vec<&Row> = union
        .rows()
        .iter()
        .filter(|r| r[0] == Value::str("ALL"))
        .collect();
    assert_eq!(total.len(), 1);
    assert_eq!(total[0][3], Value::Int(290));
}

#[test]
fn grouping_sets_explicit_family() {
    let out = engine()
        .execute(
            "SELECT Model, Year, SUM(Sales) AS s FROM Sales
             GROUP BY GROUPING SETS ((Model), (Year), ())",
        )
        .unwrap();
    // 2 model rows + 2 year rows + 1 grand total.
    assert_eq!(out.len(), 5);
}

#[test]
fn compound_group_by_rollup_cube() {
    // Figure 5's shape on the sales data.
    let out = engine()
        .execute(
            "SELECT Model, Year, Color, SUM(Sales) AS s FROM Sales
             GROUP BY Model ROLLUP Year CUBE Color",
        )
        .unwrap();
    // Sets: {M,Y,C}=8, {M,Y}=4, {M,C}=4, {M}=2 → 18 rows.
    assert_eq!(out.len(), 18);
    // Model is never ALL (it is in the plain GROUP BY block).
    let m = col(&out, "Model");
    assert!(out.rows().iter().all(|r| r[m] != Value::All));
}

#[test]
fn grouping_function_discriminates() {
    // §3.4's minimalist encoding through SQL.
    let out = engine()
        .execute(
            "SELECT Model, SUM(Sales) AS s, GROUPING(Model) AS g
             FROM Sales GROUP BY CUBE Model",
        )
        .unwrap();
    for r in out.rows() {
        assert_eq!(r[2], Value::Bool(r[0].is_all()));
    }
}

#[test]
fn having_filters_super_aggregates() {
    let out = engine()
        .execute(
            "SELECT Model, SUM(Sales) AS s FROM Sales
             GROUP BY CUBE Model HAVING SUM(Sales) > 250",
        )
        .unwrap();
    // Chevy (290) and the grand total (510); Ford (220) filtered out.
    assert_eq!(out.len(), 2);
}

#[test]
fn percent_of_total_with_scalar_subquery() {
    // §4's percent-of-total query.
    let out = engine()
        .execute(
            "SELECT Model, Year, Color, SUM(Sales),
                    SUM(Sales) / (SELECT SUM(Sales) FROM Sales
                                  WHERE Model IN ('Ford', 'Chevy')
                                    AND Year BETWEEN 1990 AND 1995)
             FROM Sales
             WHERE Model IN ('Ford', 'Chevy') AND Year BETWEEN 1990 AND 1995
             GROUP BY CUBE Model, Year, Color",
        )
        .unwrap();
    let grand = out
        .rows()
        .iter()
        .find(|r| (0..3).all(|d| r[d] == Value::All))
        .unwrap();
    assert_eq!(grand[4], Value::Float(1.0)); // 510 / 510
}

#[test]
fn order_by_and_limit() {
    let out = engine()
        .execute(
            "SELECT Model, SUM(Sales) AS total FROM Sales
             GROUP BY Model ORDER BY total DESC LIMIT 1",
        )
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows()[0], row!["Chevy", 290]);
}

#[test]
fn order_by_ordinal() {
    let out = engine()
        .execute("SELECT Model, SUM(Sales) FROM Sales GROUP BY Model ORDER BY 2 ASC")
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::str("Ford"));
}

#[test]
fn decoration_functionally_dependent() {
    // §3.5: decorate with a column not in the GROUP BY. Build a table
    // where nation → continent.
    let mut e = Engine::new();
    let schema = Schema::from_pairs(&[
        ("nation", DataType::Str),
        ("continent", DataType::Str),
        ("temp", DataType::Int),
    ]);
    let t = Table::new(
        schema,
        vec![
            row!["USA", "North America", 28],
            row!["USA", "North America", 37],
            row!["Mexico", "North America", 41],
            row!["Japan", "Asia", 48],
        ],
    )
    .unwrap();
    e.register_table("obs", t).unwrap();
    let out = e
        .execute("SELECT nation, continent, MAX(temp) FROM obs GROUP BY CUBE nation")
        .unwrap();
    let n = col(&out, "nation");
    let c = col(&out, "continent");
    for r in out.rows() {
        if r[n].is_all() {
            // Table 7: continent is NULL when nation is aggregated away.
            assert_eq!(r[c], Value::Null);
        } else {
            assert_ne!(r[c], Value::Null);
        }
    }
}

#[test]
fn decoration_requires_fd() {
    let mut e = Engine::new();
    let schema = Schema::from_pairs(&[
        ("a", DataType::Str),
        ("b", DataType::Str),
        ("x", DataType::Int),
    ]);
    let t = Table::new(schema, vec![row!["k", "one", 1], row!["k", "two", 2]]).unwrap();
    e.register_table("t", t).unwrap();
    let err = e
        .execute("SELECT a, b, SUM(x) FROM t GROUP BY a")
        .unwrap_err();
    assert!(matches!(err, SqlError::Plan(_)), "{err}");
}

#[test]
fn join_using_star_query() {
    // A small star query (§3.6): fact JOIN dimension USING (key).
    let mut e = Engine::new();
    let fact = Table::new(
        Schema::from_pairs(&[("office_id", DataType::Int), ("amount", DataType::Int)]),
        vec![row![1, 100], row![1, 50], row![2, 70]],
    )
    .unwrap();
    let dim = Table::new(
        Schema::from_pairs(&[("office_id", DataType::Int), ("region", DataType::Str)]),
        vec![row![1, "Western"], row![2, "Eastern"]],
    )
    .unwrap();
    e.register_table("fact", fact).unwrap();
    e.register_table("office", dim).unwrap();
    let out = e
        .execute(
            "SELECT region, SUM(amount) AS total
             FROM fact JOIN office USING (office_id)
             GROUP BY ROLLUP region",
        )
        .unwrap();
    assert_eq!(out.len(), 3);
    let grand = out.rows().iter().find(|r| r[0] == Value::All).unwrap();
    assert_eq!(grand[1], Value::Int(220));
}

#[test]
fn aggregate_over_computed_expression() {
    let out = engine()
        .execute("SELECT Model, SUM(Sales * 2) AS dbl FROM Sales GROUP BY Model")
        .unwrap();
    let chevy = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("Chevy"))
        .unwrap();
    assert_eq!(chevy[1], Value::Int(580));
}

#[test]
fn arithmetic_over_aggregates() {
    let out = engine()
        .execute(
            "SELECT Model, SUM(Sales) / COUNT(*) AS mean, AVG(Sales) AS avg
             FROM Sales GROUP BY Model",
        )
        .unwrap();
    for r in out.rows() {
        assert_eq!(r[1], r[2], "SUM/COUNT must equal AVG for {}", r[0]);
    }
}

#[test]
fn where_three_valued_logic_excludes_unknown() {
    let mut e = Engine::new();
    let schema = Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]);
    let t = Table::new(
        schema,
        vec![
            row![1, 10],
            Row::new(vec![Value::Null, Value::Int(20)]),
            row![3, 30],
        ],
    )
    .unwrap();
    e.register_table("t", t).unwrap();
    // The NULL x row is neither > 1 nor NOT > 1: excluded both ways.
    let gt = e.execute("SELECT SUM(y) FROM t WHERE x > 1").unwrap();
    assert_eq!(gt.rows()[0][0], Value::Int(30));
    let not_gt = e.execute("SELECT SUM(y) FROM t WHERE NOT (x > 1)").unwrap();
    assert_eq!(not_gt.rows()[0][0], Value::Int(10));
}

#[test]
fn global_aggregate_over_empty_input() {
    let mut e = Engine::new();
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    e.register_table("t", Table::empty(schema)).unwrap();
    let out = e.execute("SELECT COUNT(*), SUM(x) FROM t").unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows()[0][0], Value::Int(0));
    assert_eq!(out.rows()[0][1], Value::Null);
}

#[test]
fn error_unknown_table_column_function() {
    let e = engine();
    assert!(matches!(
        e.execute("SELECT x FROM nope"),
        Err(SqlError::Plan(_))
    ));
    assert!(e.execute("SELECT nope FROM Sales").is_err());
    assert!(e.execute("SELECT NOPE(Sales) FROM Sales").is_err());
    assert!(e.execute("SELECT SUM(Sales) FROM Sales GROUP BY").is_err());
}

#[test]
fn error_distinct_on_non_count() {
    let err = engine()
        .execute("SELECT SUM(DISTINCT Sales) FROM Sales")
        .unwrap_err();
    assert!(matches!(err, SqlError::Plan(_)));
}

#[test]
fn select_star_passthrough() {
    let out = engine()
        .execute("SELECT * FROM Sales WHERE Year = 1995")
        .unwrap();
    assert_eq!(out.len(), 4);
    assert_eq!(out.schema().len(), 4);
}

#[test]
fn union_all_keeps_duplicates() {
    let e = engine();
    let out = e
        .execute(
            "SELECT Model FROM Sales WHERE Year = 1994
             UNION ALL SELECT Model FROM Sales WHERE Year = 1995",
        )
        .unwrap();
    assert_eq!(out.len(), 8);
    let distinct = e
        .execute(
            "SELECT Model FROM Sales WHERE Year = 1994
             UNION SELECT Model FROM Sales WHERE Year = 1995",
        )
        .unwrap();
    assert_eq!(distinct.len(), 2);
}

#[test]
fn registered_uda_usable_from_sql() {
    use dc_aggregate::{AggKind, UdaBuilder};
    let mut e = engine();
    let range = UdaBuilder::new("RANGE", AggKind::Algebraic, || (None::<f64>, None::<f64>))
        .iter(|s, v| {
            if let Some(x) = v.as_f64() {
                s.0 = Some(s.0.map_or(x, |m: f64| m.min(x)));
                s.1 = Some(s.1.map_or(x, |m: f64| m.max(x)));
            }
        })
        .state(|s| {
            vec![
                s.0.map_or(Value::Null, Value::Float),
                s.1.map_or(Value::Null, Value::Float),
            ]
        })
        .merge(|s, st| {
            if let Some(x) = st[0].as_f64() {
                s.0 = Some(s.0.map_or(x, |m: f64| m.min(x)));
            }
            if let Some(x) = st[1].as_f64() {
                s.1 = Some(s.1.map_or(x, |m: f64| m.max(x)));
            }
        })
        .finalize(|s| match (s.0, s.1) {
            (Some(lo), Some(hi)) => Value::Float(hi - lo),
            _ => Value::Null,
        })
        .build()
        .unwrap();
    e.register_aggregate(range).unwrap();
    let out = e
        .execute("SELECT Model, RANGE(Sales) AS spread FROM Sales GROUP BY CUBE Model")
        .unwrap();
    let grand = out.rows().iter().find(|r| r[0] == Value::All).unwrap();
    assert_eq!(grand[1], Value::Float(105.0)); // 115 - 10
}

#[test]
fn explain_describes_the_plan() {
    let out = engine()
        .execute(
            "EXPLAIN SELECT Model, MEDIAN(Sales), SUM(Sales) FROM Sales
             GROUP BY Model ROLLUP Year CUBE Color
             HAVING SUM(Sales) > 10 ORDER BY 1 LIMIT 5",
        )
        .unwrap();
    let text: Vec<String> = out.rows().iter().map(|r| r[0].to_string()).collect();
    let plan = text.join("\n");
    assert!(plan.contains("scan: Sales"), "{plan}");
    assert!(
        plan.contains("GROUP BY 1 dim(s), ROLLUP 1, CUBE 1"),
        "{plan}"
    );
    assert!(plan.contains("grouping sets: 4"), "{plan}");
    assert!(plan.contains("MEDIAN(Sales) [Holistic]"), "{plan}");
    assert!(plan.contains("SUM(Sales) [Distributive]"), "{plan}");
    // A holistic aggregate forces the 2^N route (§5).
    assert!(plan.contains("algorithm: 2^N"), "{plan}");
    assert!(plan.contains("HAVING"), "{plan}");
    assert!(plan.contains("sort: ORDER BY 1 key(s)"), "{plan}");
    assert!(plan.contains("limit: 5"), "{plan}");
    // EXPLAIN renders the bound plan, so a statement execution rejects at
    // planning is rejected by EXPLAIN with the same error.
    let sql = "SELECT NOPEFN(Sales) FROM Sales GROUP BY Model";
    let err = engine().execute(&format!("EXPLAIN {sql}")).unwrap_err();
    assert!(matches!(err, SqlError::Plan(_)), "{err}");
    assert_eq!(
        err.to_string(),
        engine().execute(sql).unwrap_err().to_string()
    );
}

#[test]
fn explain_without_holistic_uses_cascade() {
    let out = engine()
        .execute("EXPLAIN SELECT Model, SUM(Sales) FROM Sales GROUP BY CUBE Model, Year")
        .unwrap();
    let plan: String = out.rows().iter().map(|r| r[0].to_string() + "\n").collect();
    assert!(plan.contains("from-core cascade"), "{plan}");
    assert!(plan.contains("grouping sets: 4"), "{plan}");
}

/// SUM under another name, declaring that it has no Iter_super — the
/// property a UDA built without `state()`/`merge()` has, here on a
/// function that is not holistic.
struct SumWithoutSuper(dc_aggregate::AggRef);

impl dc_aggregate::AggregateFunction for SumWithoutSuper {
    fn name(&self) -> &str {
        "SUM_NOSUPER"
    }
    fn kind(&self) -> dc_aggregate::AggKind {
        self.0.kind()
    }
    fn init(&self) -> Box<dyn dc_aggregate::Accumulator> {
        self.0.init()
    }
    fn mergeable(&self) -> bool {
        false
    }
}

/// EXPLAIN prints the plan the statement would run, not a restatement of
/// the selection rule: a function without Iter_super is pinned to the 2^N
/// shape whatever its kind, and `SET THREADS` selects the parallel cascade
/// — for holistic aggregates too, which then coalesce whole multisets.
#[test]
fn explain_follows_mergeability_and_set_threads() {
    let mut e = engine();
    let sum = dc_aggregate::builtin("SUM").unwrap();
    e.register_aggregate(std::sync::Arc::new(SumWithoutSuper(sum)))
        .unwrap();
    let algorithm_of = |e: &Engine, call: &str| -> String {
        let sql = format!("EXPLAIN SELECT Model, {call} FROM Sales GROUP BY CUBE Model, Year");
        let out = e.execute(&sql).unwrap();
        let line = out.rows().iter().map(|r| r[0].to_string());
        line.filter(|l| l.contains("algorithm:")).collect()
    };
    let starts = |line: String, want: &str| {
        assert!(line.trim_start().starts_with(want), "{line:?} vs {want:?}");
    };

    starts(
        algorithm_of(&e, "SUM(Sales)"),
        "algorithm: from-core cascade",
    );
    starts(algorithm_of(&e, "MEDIAN(Sales)"), "algorithm: 2^N");
    starts(algorithm_of(&e, "SUM_NOSUPER(Sales)"), "algorithm: 2^N");

    e.execute("SET THREADS = 4").unwrap();
    let parallel = "algorithm: parallel from-core cascade (4 scan workers";
    starts(algorithm_of(&e, "SUM(Sales)"), parallel);
    starts(algorithm_of(&e, "MEDIAN(Sales)"), parallel);
    starts(algorithm_of(&e, "SUM_NOSUPER(Sales)"), "algorithm: 2^N");
}

#[test]
fn ordered_aggregates_over_base_rows() {
    // §1.2's Red Brick functions on a plain selection.
    let out = engine()
        .execute("SELECT Model, Sales, RANK(Sales), RATIO_TO_TOTAL(Sales) FROM Sales")
        .unwrap();
    // Ranks: 10 is rank 1; 115 is rank 8.
    let lowest = out.rows().iter().find(|r| r[1] == Value::Int(10)).unwrap();
    assert_eq!(lowest[2], Value::Int(1));
    let highest = out.rows().iter().find(|r| r[1] == Value::Int(115)).unwrap();
    assert_eq!(highest[2], Value::Int(8));
    // Ratios sum to 1.
    let total: f64 = out.rows().iter().map(|r| r[3].as_f64().unwrap()).sum();
    assert!((total - 1.0).abs() < 1e-12);
}

#[test]
fn n_tile_middle_decile_query() {
    // The paper's §1.2 example: min/max of the middle 10% via N_tile.
    let out = engine()
        .execute("SELECT Sales, N_TILE(Sales, 4) AS quartile FROM Sales")
        .unwrap();
    // 8 values into 4 tiles of ~2; the tied 85s share tile 3, so the
    // populations are 2/2/3/1 (ties never straddle a boundary).
    let counts: Vec<usize> = (1..=4i64)
        .map(|q| out.rows().iter().filter(|r| r[1] == Value::Int(q)).count())
        .collect();
    assert_eq!(counts, vec![2, 2, 3, 1]);
    // Tiles are monotone in the value.
    let mut pairs: Vec<(i64, i64)> = out
        .rows()
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    pairs.sort();
    for w in pairs.windows(2) {
        assert!(w[0].1 <= w[1].1);
    }
}

#[test]
fn cumulative_over_rollup_output() {
    // §3: "Cumulative aggregates ... work especially well with ROLLUP
    // because the answer set is naturally sequential."
    let out = engine()
        .execute(
            "SELECT Model, SUM(Sales) AS s, CUMULATIVE(SUM(Sales)) AS running
             FROM Sales GROUP BY Model",
        )
        .unwrap();
    // Canonical order: Chevy (290) then Ford (220); running 290, 510.
    assert_eq!(out.rows()[0][2], Value::Float(290.0));
    assert_eq!(out.rows()[1][2], Value::Float(510.0));
}

#[test]
fn running_sum_requires_literal_n() {
    let err = engine()
        .execute("SELECT RUNNING_SUM(Sales, Sales) FROM Sales")
        .unwrap_err();
    assert!(matches!(err, SqlError::Plan(_)));
    let ok = engine()
        .execute("SELECT RUNNING_SUM(Sales, 2) FROM Sales")
        .unwrap();
    assert_eq!(ok.rows()[0][0], Value::Null); // first n-1 values are NULL
    assert_eq!(ok.rows()[1][0], Value::Float(90.0));
}

#[test]
fn parameterized_aggregates_maxn_percentile() {
    // §5 lists MaxN/MinN among the algebraic functions; PERCENTILE is the
    // holistic rank question of §1.2.
    let out = engine()
        .execute(
            "SELECT Model, MAXN(Sales, 2) AS second_best, MINN(Sales, 1) AS worst,
                    PERCENTILE(Sales, 0.5) AS median_ish
             FROM Sales GROUP BY CUBE Model",
        )
        .unwrap();
    let chevy = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("Chevy"))
        .unwrap();
    // Chevy sales 50,40,85,115: 2nd largest 85, smallest 40.
    assert_eq!(chevy[1], Value::Int(85));
    assert_eq!(chevy[2], Value::Int(40));
    let grand = out.rows().iter().find(|r| r[0].is_all()).unwrap();
    assert_eq!(grand[1], Value::Int(85)); // 2nd largest overall
                                          // Nearest-rank median of 8 values.
    assert_eq!(grand[3], Value::Int(50));
    // Parameter must be a literal.
    assert!(engine()
        .execute("SELECT MAXN(Sales, Sales) FROM Sales")
        .is_err());
    assert!(engine()
        .execute("SELECT PERCENTILE(Sales, 1.5) FROM Sales")
        .is_err());
}

#[test]
fn median_is_usable_but_holistic() {
    let out = engine()
        .execute("SELECT Model, MEDIAN(Sales) FROM Sales GROUP BY CUBE Model")
        .unwrap();
    let grand = out.rows().iter().find(|r| r[0] == Value::All).unwrap();
    assert_eq!(grand[1], Value::Float(62.5)); // between 50 and 75
}

// ---- execution governance (SET) and degenerate inputs ------------------

#[test]
fn set_budget_trips_and_reset_restores() {
    let e = engine();
    // Tiny cell budget: the 3×3×3-cell cube cannot fit in 2.
    let ack = e.execute("SET MAX_CELLS = 2").unwrap();
    assert_eq!(ack.rows()[0][0], Value::str("MAX_CELLS"));
    assert_eq!(ack.rows()[0][1], Value::Int(2));
    let err = e
        .execute("SELECT Model, SUM(Sales) FROM Sales GROUP BY CUBE Model, Year")
        .unwrap_err();
    assert!(
        matches!(&err, SqlError::Cube(c) if c.to_string().contains("resource budget")),
        "expected a resource error, got {err:?}"
    );
    // 0 resets to unlimited; the same query then succeeds.
    e.execute("SET MAX_CELLS = 0").unwrap();
    let out = e
        .execute("SELECT Model, SUM(Sales) FROM Sales GROUP BY CUBE Model, Year")
        .unwrap();
    assert_eq!(out.len(), 3 * 3);
}

#[test]
fn set_threads_routes_through_parallel() {
    let e = engine();
    e.execute("SET THREADS = 4").unwrap();
    let out = e
        .execute("SELECT Model, SUM(Sales) FROM Sales GROUP BY CUBE Model")
        .unwrap();
    let grand = out.rows().iter().find(|r| r[0] == Value::All).unwrap();
    assert_eq!(grand[1], Value::Int(510));
    // A holistic aggregate survives the parallel coalesce too.
    let med = e
        .execute("SELECT Model, MEDIAN(Sales) FROM Sales GROUP BY CUBE Model")
        .unwrap();
    let grand = med.rows().iter().find(|r| r[0] == Value::All).unwrap();
    assert_eq!(grand[1], Value::Float(62.5));
}

#[test]
fn set_rejects_unknown_or_negative_options() {
    let e = engine();
    assert!(matches!(
        e.execute("SET NO_SUCH_OPTION = 1"),
        Err(SqlError::Plan(_))
    ));
    // A retired knob is unknown like any other: lane kind is the engine's
    // decision, not a session option.
    assert!(matches!(
        e.execute("SET VECTORIZED = 0"),
        Err(SqlError::Plan(m)) if m.contains("unknown option: VECTORIZED")
    ));
    assert!(matches!(
        e.execute("SET MAX_CELLS = -1"),
        Err(SqlError::Plan(_))
    ));
    // Malformed SET: missing value.
    assert!(matches!(
        e.execute("SET MAX_CELLS ="),
        Err(SqlError::Parse { .. })
    ));
}

#[test]
fn cube_over_empty_table_is_empty() {
    let mut e = engine();
    let empty = Table::empty(sales().schema().clone());
    e.register_table("NoSales", empty).unwrap();
    let out = e
        .execute("SELECT Model, Year, SUM(Sales) FROM NoSales GROUP BY CUBE Model, Year")
        .unwrap();
    assert!(out.is_empty());
    // The global aggregate still returns the SQL empty-set row.
    let g = e
        .execute("SELECT COUNT(Sales), SUM(Sales) FROM NoSales")
        .unwrap();
    assert_eq!(g.rows()[0][0], Value::Int(0));
    assert_eq!(g.rows()[0][1], Value::Null);
}

#[test]
fn all_null_dimension_groups_as_one_value() {
    let mut e = engine();
    let schema = Schema::from_pairs(&[("Region", DataType::Str), ("Units", DataType::Int)]);
    let mut t = Table::empty(schema);
    for u in [10, 20, 30] {
        t.push(Row::new(vec![Value::Null, Value::Int(u)])).unwrap();
    }
    e.register_table("NullRegions", t).unwrap();
    let out = e
        .execute("SELECT Region, SUM(Units) FROM NullRegions GROUP BY CUBE Region")
        .unwrap();
    // One NULL group plus the ALL row, both totalling 60 — NULL is "an
    // ordinary grouping value" distinct from ALL (§3.4).
    assert_eq!(out.len(), 2);
    let null_row = out.rows().iter().find(|r| r[0] == Value::Null).unwrap();
    let all_row = out.rows().iter().find(|r| r[0] == Value::All).unwrap();
    assert_eq!(null_row[1], Value::Int(60));
    assert_eq!(all_row[1], Value::Int(60));
}

#[test]
fn set_timeout_expires_long_query() {
    let e = engine();
    // A zero-width window: any aggregation trips the deadline at its
    // first checkpoint. (TIMEOUT_MS = 0 means "no timeout", so use 1ms
    // and an engine-side sleep via a big cross join... keep it simple:
    // rely on the first checkpoint happening after >1ms of planning.)
    e.execute("SET TIMEOUT_MS = 1").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(5));
    // The deadline is measured from query start, not SET time, so a small
    // query still completes; just assert it doesn't wedge or abort.
    let _ = e.execute("SELECT Model, SUM(Sales) FROM Sales GROUP BY CUBE Model");
    e.execute("SET TIMEOUT_MS = 0").unwrap();
    let out = e
        .execute("SELECT Model, SUM(Sales) FROM Sales GROUP BY CUBE Model")
        .unwrap();
    assert_eq!(out.len(), 3);
}

/// A `nation → continent` table for the §3.5 decoration cases.
fn observations() -> Table {
    let schema = Schema::from_pairs(&[
        ("nation", DataType::Str),
        ("continent", DataType::Str),
        ("temp", DataType::Int),
    ]);
    let rows = vec![
        row!["USA", "North America", 28],
        row!["Mexico", "North America", 41],
        row!["Japan", "Asia", 48],
    ];
    Table::new(schema, rows).unwrap()
}

/// The N of every "grouping sets: N" line of an EXPLAIN result, one per
/// aggregate block.
fn explained_sets(plan: &Table) -> Vec<usize> {
    let line = |r: &Row| r[0].to_string();
    plan.rows()
        .iter()
        .filter_map(|r| line(r).trim().strip_prefix("grouping sets: ")?.parse().ok())
        .collect()
}

/// EXPLAIN is a rendering of the plan execution runs: a statement that
/// cannot be planned fails both ways with the same text, and one that can
/// reports exactly the grouping sets the result then contains (counted as
/// distinct ALL patterns over the leading `dims` columns; every branch of
/// a UNION contributes its own sets).
#[test]
fn explain_and_execute_agree() {
    let mut e = engine();
    e.register_table("obs", observations()).unwrap();
    // (statement, leading dimension columns of its result)
    let cases: &[(&str, usize)] = &[
        // Rejected at planning.
        ("SELECT MODEL, SUM(Sales) FROM Sales GROUP BY Model", 0),
        ("SELECT Model, SUM(*) FROM Sales GROUP BY Model", 0),
        (
            "SELECT Model, SUM(DISTINCT Sales) FROM Sales GROUP BY Model",
            0,
        ),
        ("SELECT Model, SUM(nope) FROM Sales GROUP BY Model", 0),
        (
            "SELECT Model, SUM(Sales, Sales) FROM Sales GROUP BY Model",
            0,
        ),
        (
            "SELECT Model, SUM(Sales) FROM Sales GROUP BY Model, Model",
            0,
        ),
        ("SELECT Model FROM Sales GROUP BY Model", 0),
        ("SELECT Model, SUM(Sales) FROM nope GROUP BY Model", 0),
        (
            "SELECT Model, SUM(Sales) > nope FROM Sales GROUP BY Model",
            0,
        ),
        (
            "SELECT Model, SUM(Sales) FROM Sales GROUP BY Model HAVING nope > 1",
            0,
        ),
        ("SELECT Model FROM Sales WHERE nope = 1", 0),
        (
            "SELECT x, Year, SUM(Sales) FROM Sales
             GROUP BY GROUPING SETS ((Model AS x), (Model AS y, Year))",
            0,
        ),
        // Planned: "grouping sets: N" is what the result contains.
        (
            "SELECT Model, Year, Color, SUM(Sales) FROM Sales
             GROUP BY Model ROLLUP Year CUBE Color",
            3,
        ),
        (
            "SELECT Model, Year, SUM(Sales) FROM Sales
             GROUP BY GROUPING SETS ((Model), (Model), (Year, Model), ())",
            2,
        ),
        (
            "SELECT m, Year, SUM(Sales) FROM Sales
             GROUP BY GROUPING SETS ((Model AS m), (Model, Year))",
            2,
        ),
        (
            "SELECT Model, Year, SUM(Sales) FROM Sales
             GROUP BY CUBE Model, Year HAVING COUNT(*) > 0",
            2,
        ),
        (
            "SELECT nation, continent, MAX(temp) FROM obs GROUP BY CUBE nation",
            1,
        ),
        (
            "SELECT Model, Year, SUM(Sales) AS s FROM Sales GROUP BY Model, Year
             UNION ALL SELECT Model, Year, SUM(Sales) AS s FROM Sales
             GROUP BY GROUPING SETS ((Model), (Year), ())",
            2,
        ),
        ("SET THREADS = 2", 0),
        (
            "SELECT Model, Year, MEDIAN(Sales) FROM Sales GROUP BY ROLLUP Model, Year",
            2,
        ),
    ];
    for &(sql, dims) in cases {
        if sql.starts_with("SET") {
            e.execute(sql).unwrap();
            continue;
        }
        let explained = e.execute(&format!("EXPLAIN {sql}"));
        let (plan, out) = match (explained, e.execute(sql)) {
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{sql}");
                continue;
            }
            (Ok(plan), Ok(out)) => (plan, out),
            (a, b) => panic!("{sql}: EXPLAIN gave {a:?}, execution gave {b:?}"),
        };
        let sets: usize = explained_sets(&plan).iter().sum();
        let patterns: std::collections::HashSet<Vec<bool>> = out
            .rows()
            .iter()
            .map(|r| (0..dims).map(|d| r[d].is_all()).collect())
            .collect();
        assert_eq!(sets, patterns.len(), "{sql}");
    }
}

/// A statement that cannot be planned costs no work: no `Iter()` call on
/// the aggregate it names, no cache lookup, no view build. Only what the
/// data decides (the §3.5 FD check) still fails at execution time.
#[test]
fn planning_errors_cost_no_work() {
    use dc_aggregate::{AggKind, UdaBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let iters = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&iters);
    let cnt = UdaBuilder::new("CNT", AggKind::Distributive, || 0i64)
        .iter(move |s, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            *s += 1;
        })
        .state(|s| vec![Value::Int(*s)])
        .merge(|s, st| *s += st[0].as_i64().unwrap_or(0))
        .finalize(|s| Value::Int(*s))
        .build()
        .unwrap();
    let mut e = Engine::new();
    e.register_aggregate(cnt).unwrap();
    let schema = Schema::from_pairs(&[("a", DataType::Int), ("v", DataType::Int)]);
    let rows = (0..32).map(|i| row![i % 4, i]).collect();
    e.register_table("t", Table::new(schema, rows).unwrap())
        .unwrap();

    let untouched = e.cube_cache().counters();
    for sql in [
        "SELECT A, CNT(v) FROM t GROUP BY a",
        "SELECT a, CNT(*) FROM t GROUP BY a",
        "SELECT a, CNT(DISTINCT v) FROM t GROUP BY a",
        "SELECT a, CNT(v, v) FROM t GROUP BY a",
        "SELECT a, CNT(v) FROM t GROUP BY a, a",
        "SELECT a FROM t GROUP BY a",
        "SELECT a, CNT(v) FROM t GROUP BY CUBE a UNION ALL SELECT A, CNT(v) FROM t GROUP BY a",
    ] {
        for _ in 0..2 {
            let err = e.execute(sql).unwrap_err();
            assert!(matches!(err, SqlError::Plan(_)), "{sql}: {err}");
        }
        assert_eq!(iters.load(Ordering::SeqCst), 0, "{sql}");
        assert_eq!(e.cube_cache().counters(), untouched, "{sql}");
    }
    // The same statement, planned: the counters do move.
    e.execute("SELECT a, CNT(v) FROM t GROUP BY a").unwrap();
    assert!(iters.load(Ordering::SeqCst) >= 32);
    assert_ne!(e.cube_cache().counters(), untouched);
}

/// GROUPING SETS keys its dimensions by expression, not by output name: an
/// alias given once names the dimension wherever the expression recurs,
/// and a repeated set is one set.
#[test]
fn grouping_sets_key_dimensions_by_expression() {
    let e = engine();
    let aliased = e
        .execute(
            "SELECT m, Year, SUM(Sales) AS s FROM Sales
             GROUP BY GROUPING SETS ((Model), (Model AS m, Year))",
        )
        .unwrap();
    assert_eq!(aliased.schema().names(), vec!["m", "Year", "s"]);
    assert_eq!(aliased.len(), 2 + 4);

    let repeated = "SELECT Model, SUM(Sales) FROM Sales GROUP BY GROUPING SETS ((Model), (Model))";
    assert_eq!(e.execute(repeated).unwrap().len(), 2);

    let err = e
        .execute(
            "SELECT x, SUM(Sales) FROM Sales
             GROUP BY GROUPING SETS ((Model AS x), (Model AS y, Year))",
        )
        .unwrap_err();
    let text = err.to_string();
    assert!(matches!(err, SqlError::Plan(_)), "{text}");
    assert!(text.contains("x") && text.contains("y"), "{text}");
}

/// The saturating set count admission prices a statement by, before it is
/// bound, equals the size of the family binding then enumerates (what
/// EXPLAIN prints). Over an empty table the granted reservation is
/// `sets × (0 + 1)`, so the grant *is* admission's count.
#[test]
fn admission_set_count_is_the_family_size() {
    let mut e = Engine::with_service(dc_sql::ServiceConfig {
        global_cells: 1 << 40,
        ..Default::default()
    });
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("v", DataType::Int),
    ]);
    e.register_table("t", Table::empty(schema)).unwrap();
    // Every way to put each of a, b, c in no block, GROUP BY, ROLLUP or CUBE.
    let mut clauses: Vec<String> = Vec::new();
    for assignment in 1..4usize.pow(3) {
        let block = |which: usize, kw: &str| {
            let cols: Vec<&str> = ["a", "b", "c"]
                .into_iter()
                .enumerate()
                .filter(|(i, _)| assignment / 4usize.pow(*i as u32) % 4 == which)
                .map(|(_, c)| c)
                .collect();
            match cols.is_empty() {
                true => String::new(),
                false => format!(" {kw} {}", cols.join(", ")),
            }
        };
        clauses.push(block(1, "") + &block(2, "ROLLUP") + &block(3, "CUBE"));
    }
    clauses.extend(
        [
            " GROUPING SETS ((a), (b), ())",
            " GROUPING SETS ((a), (a), (a, b), (b, a))",
            " GROUPING SETS ((a AS x, b), (b, a), (c))",
            " GROUPING SETS (())",
        ]
        .map(String::from),
    );
    let session = e.session();
    for clause in &clauses {
        let sql = format!("SELECT SUM(v) FROM t GROUP BY{clause}");
        let plan = session.execute(&format!("EXPLAIN {sql}")).unwrap();
        let family = explained_sets(&plan)[0] as u64;
        session.execute(&sql).unwrap();
        assert_eq!(session.last_statement().granted_cells, family, "{sql}");
    }
}

/// A 10 000-row table `t(batch, a, b, late, units)`: `batch` takes 8
/// values, `a` and `b` are unique per row, `late` is 0 on the first 4 096
/// rows and unique after them; with `PROBE(x)` (returns `x`) and
/// `PAIR(x, y)` (returns `x + y`) registered, both counting their calls.
fn probed_engine() -> (Engine, Arc<AtomicUsize>) {
    let schema = Schema::from_pairs(&[
        ("batch", DataType::Int),
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("late", DataType::Int),
        ("units", DataType::Int),
    ]);
    let rows = (0..10_000i64)
        .map(|i| {
            row![
                i % 8,
                i,
                (i * 7919) % 10_007,
                i * i64::from(i >= 4096),
                1i64
            ]
        })
        .collect();
    let mut e = Engine::new();
    e.register_table("t", Table::new(schema, rows).unwrap())
        .unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    e.register_scalar(ScalarFn::new("PROBE", 1, DataType::Int, move |args| {
        counter.fetch_add(1, Ordering::Relaxed);
        args[0].clone()
    }))
    .unwrap();
    let counter = Arc::clone(&calls);
    e.register_scalar(ScalarFn::new("PAIR", 2, DataType::Int, move |args| {
        counter.fetch_add(1, Ordering::Relaxed);
        match (&args[0], &args[1]) {
            (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
            _ => Value::Null,
        }
    }))
    .unwrap();
    (e, calls)
}

fn only_int(t: &Table) -> i64 {
    assert_eq!(t.len(), 1, "{t:?}");
    t.rows()[0].values().last().and_then(Value::as_i64).unwrap()
}

/// A predicate over a column of 8 distinct values is decided once per
/// value, not once per row, by DELETE, UPDATE and WHERE alike; one over
/// two unique columns is decided per row and answers the same.
#[test]
fn a_predicate_is_evaluated_once_per_distinct_value() {
    let answer = |sql: &str| {
        let (e, calls) = probed_engine();
        let out = e.execute(sql).unwrap();
        (e, out, calls.load(Ordering::Relaxed))
    };
    let run = |sql: &str| {
        let (e, out, calls) = answer(sql);
        (e, only_int(&out), calls)
    };
    let (e, deleted, calls) = run("DELETE FROM t WHERE PROBE(batch) = 3");
    assert_eq!((deleted, calls <= 8), (1250, true), "{calls} calls");
    let left = e.execute("SELECT COUNT(*) AS n FROM t").unwrap();
    let gone = e
        .execute("SELECT COUNT(*) AS n FROM t WHERE batch = 3")
        .unwrap();
    assert_eq!((only_int(&left), only_int(&gone)), (8750, 0));

    let (e, updated, calls) = run("UPDATE t SET units = units + 1 WHERE PROBE(batch) = 3");
    assert_eq!((updated, calls <= 8), (1250, true), "{calls} calls");
    let sum = e
        .execute("SELECT batch, SUM(units) AS s FROM t GROUP BY batch")
        .unwrap();
    for r in sum.rows() {
        let want = if r[0] == Value::Int(3) { 2500 } else { 1250 };
        assert_eq!(r[1], Value::Int(want), "{r:?}");
    }

    let (_, counted, calls) = run("SELECT COUNT(*) AS n FROM t WHERE PROBE(batch) = 3");
    assert_eq!((counted, calls <= 8), (1250, true), "{calls} calls");

    // HAVING over the cube relation: 10 000 groups, one COUNT value.
    let (_, groups, calls) =
        answer("SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING PROBE(COUNT(*)) = 1");
    assert_eq!((groups.len(), calls), (10_000, 1));

    // Two unique columns: 10 000 distinct tuples, so every row is evaluated.
    let want = (0..10_000i64)
        .filter(|i| (i + (i * 7919) % 10_007) % 3 == 0)
        .count() as i64;
    let (_, counted, calls) = run("SELECT COUNT(*) AS n FROM t WHERE PAIR(a, b) % 3 = 0");
    assert_eq!((counted, calls), (want, 10_000));
    let (e, deleted, calls) = run("DELETE FROM t WHERE PAIR(a, b) % 3 = 0");
    assert_eq!((deleted, calls), (want, 10_000));
    let left = e.execute("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(only_int(&left), 10_000 - want);

    // `late` looks constant on its first rows: its dictionary is built
    // under a cap, found too large, and every row is evaluated.
    let late = |i: i64| i * i64::from(i >= 4096);
    let want = (0..10_000i64)
        .filter(|i| (i % 8 + late(*i)) % 3 == 0)
        .count() as i64;
    let (_, counted, calls) = run("SELECT COUNT(*) AS n FROM t WHERE PAIR(batch, late) % 3 = 0");
    assert_eq!((counted, calls), (want, 10_000));
    let (_, counted, calls) = run("SELECT COUNT(*) AS n FROM t WHERE PROBE(late) > 9000");
    assert_eq!((counted, calls), (999, 10_000));
}

/// A symbol table gives `Int(1)` and `Float(1.0)` one code, but `STR`
/// tells them apart: a Float column holding both is evaluated per row.
#[test]
fn int_and_float_of_one_value_are_told_apart() {
    let engine = || {
        let schema = Schema::from_pairs(&[("x", DataType::Float)]);
        let mut rows = vec![Row::new(vec![Value::Int(1)]), row![1.0f64]];
        rows.extend((0..30).map(|_| row![2.0f64]));
        let mut e = Engine::new();
        e.register_table("t", Table::new(schema, rows).unwrap())
            .unwrap();
        e
    };
    let e = engine();
    let deleted = e.execute("DELETE FROM t WHERE STR(x) = '1.0'").unwrap();
    assert_eq!(only_int(&deleted), 1);
    let left = e.table("t").unwrap();
    assert_eq!(left.rows()[0][0], Value::Int(1));
    let n = engine()
        .execute("SELECT COUNT(*) AS n FROM t WHERE STR(x) = '1'")
        .unwrap();
    assert_eq!(only_int(&n), 1);
}

/// A cell is a function of its group's rows, not of the table's layout:
/// 8 groups × 10 rows of `x = 0.1`, stored sorted by `k` and round-robin,
/// give bit-identical replies (floats compared by `to_bits`) with the cube
/// cache on and off. Ten sequential adds of 0.1 are 0.9999999999999999.
#[test]
fn a_reply_does_not_depend_on_row_order() {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("x", DataType::Float)]);
    let layout = |k: fn(i64) -> i64| {
        let rows = (0..80).map(|i| row![k(i), 0.1]).collect();
        Table::new(schema.clone(), rows).unwrap()
    };
    let bits = |t: &Table| -> Vec<Vec<Result<u64, Value>>> {
        let cell = |v: &Value| match v {
            Value::Float(f) => Ok(f.to_bits()),
            v => Err(v.clone()),
        };
        t.rows()
            .iter()
            .map(|r| r.iter().map(cell).collect())
            .collect()
    };
    let ten_adds = (0..10).fold(0.0f64, |sum, _| sum + 0.1);
    for cache in [1, 0] {
        let reply = |t: Table| {
            let mut e = Engine::new();
            e.register_table("t", t).unwrap();
            e.set_option("CUBE_CACHE", cache).unwrap();
            bits(
                &e.execute("SELECT k, SUM(x), AVG(x) FROM t GROUP BY k")
                    .unwrap(),
            )
        };
        let sorted = reply(layout(|i| i / 10));
        assert_eq!(sorted, reply(layout(|i| i % 8)), "CUBE_CACHE {cache}");
        assert_eq!(sorted[0][1], Ok(ten_adds.to_bits()), "CUBE_CACHE {cache}");
    }
}

/// Integer arithmetic that overflows is NULL, not a panic or a wrapped
/// value: `+`, `-`, `*`, `%`, unary `-` and `ABS` at `i64::MIN` / `MAX`.
#[test]
fn integer_overflow_is_null() {
    let schema = Schema::from_pairs(&[("k", DataType::Int)]);
    let rows = vec![row![i64::MIN], row![i64::MAX]];
    let mut e = Engine::new();
    e.register_table("t", Table::new(schema, rows).unwrap())
        .unwrap();
    for (expr, want) in [
        ("k % -1", [Value::Null, Value::Int(0)]),
        ("k + 1", [Value::Int(i64::MIN + 1), Value::Null]),
        ("k - 1", [Value::Null, Value::Int(i64::MAX - 1)]),
        ("k * 2", [Value::Null, Value::Null]),
        ("-k", [Value::Null, Value::Int(-i64::MAX)]),
        ("ABS(k)", [Value::Null, Value::Int(i64::MAX)]),
    ] {
        let out = e.execute(&format!("SELECT {expr} AS m FROM t")).unwrap();
        let got: Vec<Value> = out.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, want, "{expr}");
    }
}
