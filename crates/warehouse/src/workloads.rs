//! Reconstruction of Table 2: "SQL Aggregates in Standard Benchmarks".
//!
//! The paper counts aggregate calls and GROUP BY clauses in six benchmark
//! query sets. The original query texts are licensed artifacts we cannot
//! embed, so this module carries *reconstructions* — queries in the
//! spirit and schema vocabulary of each benchmark, written so their
//! aggregate/GROUP BY profile matches the counts the paper reports. The
//! counting itself is mechanical: every query is parsed by `dc-sql` and
//! its AST walked ([`analyze`]), so Table 2's regeneration exercises the
//! parser on ~90 realistic queries rather than quoting constants.

use dc_sql::ast::{Expr, GroupByClause, SelectStmt, Statement, TableRef};
use dc_sql::parser::parse;
use dc_sql::{SqlError, SqlResult};

/// One benchmark's aggregation profile — a row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadProfile {
    pub name: &'static str,
    pub queries: usize,
    pub aggregates: usize,
    pub group_bys: usize,
}

/// The aggregate functions the paper counts (§1.1's standard five; COUNT
/// DISTINCT counts as an aggregate use of COUNT).
fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX"
    )
}

fn count_aggs_expr(e: &Expr) -> usize {
    match e {
        Expr::Func { name, args, .. } => {
            let own = usize::from(is_aggregate_name(name));
            own + args.iter().map(count_aggs_expr).sum::<usize>()
        }
        Expr::Grouping(inner) => count_aggs_expr(inner),
        Expr::Chain { first, rest } => {
            count_aggs_expr(first) + rest.iter().map(|(_, e)| count_aggs_expr(e)).sum::<usize>()
        }
        Expr::Not(e) | Expr::Neg(e) => count_aggs_expr(e),
        Expr::IsNull { expr, .. } => count_aggs_expr(expr),
        Expr::Between {
            expr, low, high, ..
        } => count_aggs_expr(expr) + count_aggs_expr(low) + count_aggs_expr(high),
        Expr::InList { expr, list, .. } => {
            count_aggs_expr(expr) + list.iter().map(count_aggs_expr).sum::<usize>()
        }
        Expr::ScalarSubquery(s) => count_select(s).0,
        _ => 0,
    }
}

fn count_group_exprs(g: &GroupByClause) -> usize {
    usize::from(
        !g.plain.is_empty()
            || !g.rollup.is_empty()
            || !g.cube.is_empty()
            || g.grouping_sets.is_some(),
    )
}

/// (aggregates, group-bys) in one select block and its unions.
fn count_select(s: &SelectStmt) -> (usize, usize) {
    let mut aggs = 0;
    let mut gbs = 0;
    let mut cursor = Some(s);
    while let Some(sel) = cursor {
        for item in &sel.items {
            aggs += count_aggs_expr(&item.expr);
        }
        if let Some(w) = &sel.where_clause {
            aggs += count_aggs_expr(w);
        }
        if let Some(h) = &sel.having {
            aggs += count_aggs_expr(h);
        }
        if let Some(g) = &sel.group_by {
            gbs += count_group_exprs(g);
        }
        let _ = &sel.from as &TableRef;
        cursor = sel.union.as_ref().map(|(_, rhs)| rhs.as_ref());
    }
    (aggs, gbs)
}

/// Parse every query and tally the profile. Any unparseable query is an
/// error — the reconstruction must stay inside the supported grammar.
pub fn analyze(name: &'static str, queries: &[&str]) -> SqlResult<WorkloadProfile> {
    let mut aggregates = 0;
    let mut group_bys = 0;
    for (i, q) in queries.iter().enumerate() {
        let stmt = match parse(q).map_err(|e| match e {
            SqlError::Parse { near, message } => SqlError::Parse {
                near,
                message: format!("{name} query #{}: {message}", i + 1),
            },
            other => other,
        })? {
            Statement::Select(stmt) | Statement::Explain(stmt) => stmt,
            Statement::Set { .. }
            | Statement::Insert { .. }
            | Statement::Delete { .. }
            | Statement::Update { .. } => continue,
        };
        let (a, g) = count_select(&stmt);
        aggregates += a;
        group_bys += g;
    }
    Ok(WorkloadProfile {
        name,
        queries: queries.len(),
        aggregates,
        group_bys,
    })
}

/// The TPC-A/B debit-credit read query: no aggregation at all.
pub fn tpc_ab() -> Vec<&'static str> {
    vec!["SELECT a_balance FROM account WHERE a_id = 4242"]
}

/// TPC-C-flavored transaction reads: 18 queries, 4 aggregates, no
/// GROUP BY — OLTP touches rows, not groups.
pub fn tpc_c() -> Vec<&'static str> {
    vec![
        "SELECT w_name, w_tax FROM warehouse WHERE w_id = 1",
        "SELECT d_name, d_tax, d_next_o_id FROM district WHERE d_id = 7",
        "SELECT c_first, c_last, c_credit FROM customer WHERE c_id = 101",
        "SELECT c_balance, c_ytd_payment FROM customer WHERE c_id = 101",
        "SELECT i_name, i_price FROM item WHERE i_id = 5005",
        "SELECT s_quantity FROM stock WHERE s_i_id = 5005",
        "SELECT o_id, o_carrier_id FROM orders WHERE o_c_id = 101",
        "SELECT ol_i_id, ol_quantity FROM order_line WHERE ol_o_id = 9001",
        "SELECT no_o_id FROM new_order WHERE no_d_id = 7 ORDER BY no_o_id LIMIT 1",
        "SELECT COUNT(DISTINCT s_i_id) FROM stock WHERE s_quantity < 10",
        "SELECT SUM(ol_amount) FROM order_line WHERE ol_o_id = 9001",
        "SELECT MAX(o_id) FROM orders WHERE o_d_id = 7",
        "SELECT COUNT(*) FROM new_order WHERE no_d_id = 7",
        "SELECT c_discount FROM customer WHERE c_id = 102",
        "SELECT w_ytd FROM warehouse WHERE w_id = 1",
        "SELECT d_ytd FROM district WHERE d_id = 7",
        "SELECT c_city, c_state FROM customer WHERE c_id = 103",
        "SELECT ol_delivery_d FROM order_line WHERE ol_o_id = 9002",
    ]
}

/// TPC-D-flavored decision support: 16 queries, 27 aggregates, 15
/// GROUP BYs (the paper's Table 2 row, including the famous pricing
/// summary with its aggregate battery).
pub fn tpc_d() -> Vec<&'static str> {
    vec![
        // Q1, the pricing summary: 7 aggregates.
        "SELECT returnflag, linestatus,
                SUM(quantity), SUM(extendedprice), SUM(discount),
                AVG(quantity), AVG(extendedprice), AVG(discount),
                COUNT(*)
         FROM lineitem WHERE shipdate <= 19981201
         GROUP BY returnflag, linestatus
         ORDER BY returnflag, linestatus",
        // Q2-style minimum-cost supplier: no aggregation, no grouping.
        "SELECT acctbal, name, nation FROM supplier JOIN nation USING (nationkey)
         WHERE size = 15 AND region = 'EUROPE' ORDER BY acctbal DESC",
        "SELECT orderkey, SUM(extendedprice * (1 - discount)) AS revenue, COUNT(*)
         FROM lineitem JOIN orders USING (orderkey)
         WHERE orderdate < 19950315 GROUP BY orderkey ORDER BY revenue DESC",
        "SELECT orderpriority, COUNT(*) AS order_count FROM orders
         WHERE orderdate BETWEEN 19930701 AND 19931001 GROUP BY orderpriority",
        "SELECT nation, SUM(extendedprice * (1 - discount)) AS revenue,
                AVG(extendedprice) AS avg_price
         FROM lineitem JOIN supplier USING (suppkey)
         GROUP BY nation ORDER BY revenue DESC",
        "SELECT shipmode, SUM(extendedprice * discount) AS revenue
         FROM lineitem WHERE quantity < 24 GROUP BY shipmode",
        "SELECT supp_nation, cust_nation, SUM(volume) AS revenue
         FROM shipping GROUP BY supp_nation, cust_nation",
        "SELECT o_year, SUM(volume) AS mkt_share FROM all_nations GROUP BY o_year",
        "SELECT nation, o_year, SUM(amount) AS sum_profit FROM profit
         GROUP BY nation, o_year ORDER BY nation",
        "SELECT custkey, name, SUM(extendedprice * (1 - discount)) AS revenue,
                COUNT(*) AS order_count
         FROM customer JOIN orders USING (custkey)
         WHERE returnflag = 'R' GROUP BY custkey, name ORDER BY revenue DESC",
        "SELECT partkey, SUM(supplycost * availqty) AS value
         FROM partsupp JOIN supplier USING (suppkey)
         GROUP BY partkey HAVING SUM(supplycost * availqty) > 100000",
        "SELECT shipmode, SUM(high_line) AS high_line_count,
                SUM(low_line) AS low_line_count
         FROM lineitem WHERE receiptdate < 19950101 GROUP BY shipmode",
        "SELECT c_count, COUNT(*) AS custdist FROM c_orders GROUP BY c_count",
        "SELECT promo_flag, SUM(promo_price) / SUM(extendedprice) AS promo_revenue
         FROM lineitem GROUP BY promo_flag",
        "SELECT suppkey, SUM(extendedprice * (1 - discount)) AS total_revenue
         FROM lineitem WHERE shipdate >= 19960101 GROUP BY suppkey",
        "SELECT brand, container, COUNT(DISTINCT suppkey) AS supplier_cnt
         FROM partsupp JOIN part USING (partkey)
         WHERE size IN (1, 4, 7) GROUP BY brand, container",
    ]
}

/// Wisconsin-benchmark-flavored: 18 queries, 3 aggregates, 2 GROUP BYs.
pub fn wisconsin() -> Vec<&'static str> {
    vec![
        "SELECT * FROM tenktup1 WHERE unique2 BETWEEN 0 AND 99",
        "SELECT * FROM tenktup1 WHERE unique2 BETWEEN 792 AND 1791",
        "SELECT * FROM tenktup1 WHERE unique2 = 2001",
        "SELECT unique1, unique2, two, four FROM tenktup1 WHERE unique1 < 100",
        "SELECT * FROM tenktup1 JOIN tenktup2 USING (unique2)",
        "SELECT * FROM tenktup1 JOIN tenktup2 USING (unique2) WHERE unique2 < 1000",
        "SELECT * FROM onektup JOIN tenktup1 USING (unique2)",
        "SELECT DISTINCT_COL FROM tenktup1 WHERE even100 = 0",
        "SELECT two, four, ten FROM tenktup1 WHERE stringu1 = 'AAAAKXA'",
        "SELECT MIN(unique2) FROM tenktup1",
        "SELECT MIN(unique2) FROM tenktup1 GROUP BY onePercent",
        "SELECT SUM(unique2) FROM tenktup1 GROUP BY onePercent",
        "SELECT * FROM tenktup1 WHERE odd100 = 1",
        "SELECT unique3 FROM tenktup1 WHERE unique1 < 5000",
        "SELECT * FROM bprime JOIN tenktup2 USING (unique2)",
        "SELECT unique1 FROM tenktup1 WHERE unique1 BETWEEN 0 AND 4999",
        "SELECT * FROM tenktup2 WHERE unique3 = 42",
        "SELECT stringu1 FROM tenktup1 WHERE unique2 = 1001",
    ]
}

/// AS3AP-flavored: 23 queries, 20 aggregates, 2 GROUP BYs — the paper's
/// point being that single-table aggregate scans dominate that suite.
pub fn as3ap() -> Vec<&'static str> {
    vec![
        "SELECT COUNT(*) FROM uniques",
        "SELECT COUNT(*) FROM updates",
        "SELECT COUNT(*) FROM hundred WHERE key < 1000",
        "SELECT MIN(key) FROM uniques",
        "SELECT MAX(key) FROM uniques",
        "SELECT SUM(signed) FROM uniques",
        "SELECT AVG(signed) FROM uniques",
        "SELECT MIN(signed), MAX(signed) FROM updates",
        "SELECT COUNT(*) FROM tenpct WHERE name = 'THE+ASAP+BENCHMARKS+'",
        "SELECT AVG(signed) FROM tenpct WHERE signed BETWEEN 0 AND 500000000",
        "SELECT SUM(decim) FROM hundred",
        "SELECT MAX(decim) FROM hundred",
        "SELECT COUNT(*) FROM uniques JOIN hundred USING (key)",
        "SELECT AVG(decim) FROM updates WHERE key BETWEEN 5000 AND 6000",
        "SELECT MAX(name) FROM tenpct",
        "SELECT COUNT(DISTINCT code) FROM tenpct",
        "SELECT SUM(signed) FROM hundred GROUP BY code",
        "SELECT AVG(signed), COUNT(*) FROM updates GROUP BY code",
        "SELECT * FROM uniques WHERE key = 1000",
        "SELECT name, code FROM tenpct WHERE key < 100",
        "SELECT * FROM updates WHERE key BETWEEN 0 AND 99",
        "SELECT key FROM hundred WHERE code = 'BENCHMARKS'",
        "SELECT name FROM uniques WHERE key = 500000",
    ]
}

/// Set Query-flavored: 7 queries, 5 aggregates, 1 GROUP BY.
pub fn set_query() -> Vec<&'static str> {
    vec![
        "SELECT COUNT(*) FROM bench WHERE kseq BETWEEN 400000 AND 500000",
        "SELECT COUNT(*) FROM bench WHERE k2 = 2 AND k100 > 80",
        "SELECT SUM(k1k) FROM bench WHERE k10 = 7",
        "SELECT MIN(kseq) FROM bench WHERE k5 = 3",
        "SELECT k10, COUNT(*) FROM bench WHERE k25 = 11 GROUP BY k10",
        "SELECT kseq FROM bench WHERE k100k BETWEEN 30000 AND 40000",
        "SELECT kseq, k500k FROM bench WHERE k4 = 3 AND k25 IN (11, 19)",
    ]
}

/// Table 2, regenerated: profiles of all six workloads.
pub fn table2() -> SqlResult<Vec<WorkloadProfile>> {
    Ok(vec![
        analyze("TPC-A, B", &tpc_ab())?,
        analyze("TPC-C", &tpc_c())?,
        analyze("TPC-D", &tpc_d())?,
        analyze("Wisconsin", &wisconsin())?,
        analyze("AS3AP", &as3ap())?,
        analyze("SetQuery", &set_query())?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reconstruction_parses() {
        table2().unwrap();
    }

    #[test]
    fn profiles_match_table_2() {
        // The counts the paper reports in Table 2.
        let expected = [
            ("TPC-A, B", 1, 0, 0),
            ("TPC-C", 18, 4, 0),
            ("TPC-D", 16, 27, 15),
            ("Wisconsin", 18, 3, 2),
            ("AS3AP", 23, 20, 2),
            ("SetQuery", 7, 5, 1),
        ];
        let got = table2().unwrap();
        for ((name, q, a, g), profile) in expected.iter().zip(got.iter()) {
            assert_eq!(profile.name, *name);
            assert_eq!(profile.queries, *q, "{name} query count");
            assert_eq!(profile.aggregates, *a, "{name} aggregate count");
            assert_eq!(profile.group_bys, *g, "{name} GROUP BY count");
        }
    }

    #[test]
    fn counting_sees_through_unions_and_subqueries() {
        let p = analyze(
            "synthetic",
            &["SELECT COUNT(*) FROM t GROUP BY a
               UNION SELECT SUM(x) / (SELECT MAX(y) FROM u) FROM t GROUP BY b"],
        )
        .unwrap();
        assert_eq!(p.aggregates, 3);
        assert_eq!(p.group_bys, 2);
    }
}
