//! The row selection DELETE, UPDATE and WHERE share, against a reference
//! that evaluates the predicate on every row with the public
//! [`dc_sql::eval::eval`]. Tables and predicates come from a fixed-seed
//! xorshift generator: Int, Str, NULL-heavy and Float-with-Int columns at
//! cardinalities on both sides of the per-value memo's gate, and
//! predicates over zero to three of them with comparisons, `BETWEEN`,
//! `IN`, `IS [NOT] NULL`, `NOT` / `AND` / `OR`, arithmetic (overflowing
//! constants included), `STR`, `ABS` and, now and then, an unknown
//! function only some rows reach.

use dc_relation::{DataType, Row, Schema, Table, Value};
use dc_sql::ast::Statement;
use dc_sql::eval::{eval, infer_type, EvalContext};
use dc_sql::parser::parse;
use dc_sql::scalar::builtins;
use dc_sql::Engine;

const SEED: u64 = 0x5EED_1996;
const CASES: usize = 200;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// `t(i, s, n, f, k, u)`: `i` Int, `s` Str or NULL, `n` mostly NULL, `f`
/// a Float column holding Ints and Floats of equal value, `k` Int at the
/// extremes of `i64`, `u` the UPDATE target (0).
fn schema() -> Schema {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("s", DataType::Str),
        ("n", DataType::Int),
        ("f", DataType::Float),
        ("k", DataType::Int),
        ("u", DataType::Int),
    ])
}

fn table(rng: &mut XorShift) -> Table {
    let rows = *rng.pick(&[3usize, 9, 40, 200, 1200]);
    // Per column, the size of the pool its values are drawn from: small
    // pools let the memo engage, a pool of `rows` turns it away.
    let mut pool = || *rng.pick(&[1usize, 2, 3, 5, 50, rows]);
    let (ci, cs, cn) = (pool(), pool(), pool());
    let floats = [
        Value::Int(1),
        Value::Float(1.0),
        Value::Float(2.5),
        Value::Int(-3),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Null,
    ];
    let extremes = [i64::MIN, i64::MAX, 0, -1, 1, 7];
    let data = (0..rows)
        .map(|_| {
            let i = Value::Int(rng.below(ci) as i64 - 2);
            let s = match rng.below(cs + 1) {
                0 => Value::Null,
                v => Value::str(format!("s{v}")),
            };
            let n = match rng.chance(80) {
                true => Value::Null,
                false => Value::Int(rng.below(cn) as i64),
            };
            let f = rng.pick(&floats).clone();
            let k = Value::Int(*rng.pick(&extremes));
            Row::new(vec![i, s, n, f, k, Value::Int(0)])
        })
        .collect();
    Table::new(schema(), data).expect("generated rows fit the schema")
}

/// A numeric expression in SQL text.
fn number(rng: &mut XorShift, depth: usize) -> String {
    let leaf = depth == 0 || rng.chance(40);
    if leaf {
        return match rng.below(3) {
            0 => rng.pick(&["i", "n", "k", "f"]).to_string(),
            1 => rng.pick(&["i", "k"]).to_string(),
            _ => rng
                .pick(&[
                    "0",
                    "1",
                    "-2",
                    "3",
                    "2.5",
                    "1.0",
                    "9223372036854775807",
                    "4611686018427387904",
                    "NULL",
                ])
                .to_string(),
        };
    }
    let (a, b) = (number(rng, depth - 1), number(rng, depth - 1));
    match rng.below(5) {
        0 => format!("({a} {} {b})", rng.pick(&["+", "-", "*", "%"])),
        1 => format!("-({a})"),
        2 => format!("ABS({a})"),
        3 => format!("({a} / {b})"),
        _ => format!("({a} + 1)"),
    }
}

/// A predicate in SQL text.
fn predicate(rng: &mut XorShift, depth: usize) -> String {
    let leaf = depth == 0 || rng.chance(35);
    if leaf {
        return match rng.below(11) {
            0..=2 => {
                let op = rng.pick(&["=", "<>", "<", "<=", ">", ">="]);
                format!("{} {op} {}", number(rng, 2), number(rng, 1))
            }
            3 => {
                let not = if rng.chance(30) { "NOT " } else { "" };
                let (v, lo, hi) = (number(rng, 1), number(rng, 0), number(rng, 0));
                format!("{v} {not}BETWEEN {lo} AND {hi}")
            }
            4 => {
                let not = if rng.chance(30) { "NOT " } else { "" };
                let list = ["0", "1", "-1", "2.5", "NULL"];
                let items: Vec<&str> = (0..1 + rng.below(3)).map(|_| *rng.pick(&list)).collect();
                format!("{} {not}IN ({})", number(rng, 1), items.join(", "))
            }
            5 => {
                let not = if rng.chance(50) { "NOT " } else { "" };
                format!("{} IS {not}NULL", rng.pick(&["i", "s", "n", "f"]))
            }
            6 => {
                let lit = rng.pick(&["'1'", "'1.0'", "'-3'", "'2.5'", "'-0.0'", "'s1'", "'NULL'"]);
                format!("STR({}) = {lit}", rng.pick(&["f", "i", "s", "n", "k"]))
            }
            7 => {
                let op = rng.pick(&["=", "<>", "<"]);
                format!("s {op} {}", rng.pick(&["'s1'", "'s2'", "'s3'", "NULL"]))
            }
            8 => format!("s IN ('s1', {})", rng.pick(&["'s2'", "'s4'", "NULL"])),
            9 => rng
                .pick(&["1 = 1", "1 = 0", "NULL IS NULL", "NULL = 1"])
                .to_string(),
            // An error only the rows that reach the second item raise.
            _ => format!("{} IN (0, NOPE(i))", rng.pick(&["i", "k", "n"])),
        };
    }
    let (a, b) = (predicate(rng, depth - 1), predicate(rng, depth - 1));
    match rng.below(3) {
        0 => format!("NOT ({a})"),
        1 => format!("({a}) AND ({b})"),
        _ => format!("({a}) OR ({b})"),
    }
}

fn parsed(pred: &str) -> dc_sql::ast::Expr {
    match parse(&format!("SELECT * FROM t WHERE {pred}")) {
        Ok(Statement::Select(stmt)) => stmt.where_clause.expect("has a WHERE"),
        other => panic!("{pred}: {other:?}"),
    }
}

/// Per row, whether the predicate selects it; or the error text of the
/// first row whose evaluation fails.
fn reference(rows: &[Row], pred: &str) -> Result<Vec<bool>, String> {
    let (schema, scalars) = (schema(), builtins());
    let ctx = EvalContext::base(&schema, &scalars);
    let expr = parsed(pred);
    rows.iter()
        .map(|row| match eval(&expr, row, &ctx) {
            Ok(v) => Ok(v == Value::Bool(true)),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

/// WHERE binds its predicate before the scan, so a planning error is
/// raised whatever the rows.
fn planned(pred: &str) -> Result<(), String> {
    let (schema, scalars) = (schema(), builtins());
    let ctx = EvalContext::base(&schema, &scalars);
    infer_type(&parsed(pred), &ctx)
        .map(drop)
        .map_err(|e| e.to_string())
}

fn engine(t: &Table) -> Engine {
    let mut e = Engine::new();
    e.register_table("t", t.clone()).expect("register");
    e
}

fn count(out: &Table) -> i64 {
    out.rows()[0][1].as_i64().expect("an ack count")
}

fn check(t: &Table, pred: &str) {
    let want = reference(t.rows(), pred);
    let picked = |sel: &[bool], keep: bool| -> Vec<Row> {
        (t.rows().iter().zip(sel))
            .filter(|(_, &s)| s == keep)
            .map(|(r, _)| r.clone())
            .collect()
    };

    let select = engine(t).execute(&format!("SELECT * FROM t WHERE {pred}"));
    match (planned(pred).and(want.clone()), select) {
        (Ok(sel), Ok(out)) => assert_eq!(out.rows(), picked(&sel, true), "WHERE {pred}"),
        (Err(w), Err(e)) => assert_eq!(e.to_string(), w, "WHERE {pred}"),
        (w, got) => panic!("WHERE {pred}: want {w:?}, got {got:?}"),
    }

    let e = engine(t);
    match (&want, e.execute(&format!("DELETE FROM t WHERE {pred}"))) {
        (Ok(sel), Ok(out)) => {
            let removed = sel.iter().filter(|&&s| s).count() as i64;
            assert_eq!(count(&out), removed, "DELETE {pred}");
            let left = e.table("t").expect("t");
            assert_eq!(left.rows(), picked(sel, false), "DELETE {pred}");
        }
        (Err(w), Err(got)) => {
            assert_eq!(&got.to_string(), w, "DELETE {pred}");
            assert_eq!(e.table("t").expect("t").rows(), t.rows());
        }
        (w, got) => panic!("DELETE {pred}: want {w:?}, got {got:?}"),
    }

    let e = engine(t);
    match (
        &want,
        e.execute(&format!("UPDATE t SET u = u + 1 WHERE {pred}")),
    ) {
        (Ok(sel), Ok(out)) => {
            let rewritten = sel.iter().filter(|&&s| s).count() as i64;
            assert_eq!(count(&out), rewritten, "UPDATE {pred}");
            let after = e.table("t").expect("t");
            let expected: Vec<Row> = (t.rows().iter().zip(sel))
                .map(|(r, &s)| {
                    let mut vals = r.values().to_vec();
                    vals[5] = Value::Int(i64::from(s));
                    Row::new(vals)
                })
                .collect();
            assert_eq!(after.rows(), expected, "UPDATE {pred}");
        }
        (Err(w), Err(got)) => assert_eq!(&got.to_string(), w, "UPDATE {pred}"),
        (w, got) => panic!("UPDATE {pred}: want {w:?}, got {got:?}"),
    }
}

#[test]
fn delete_update_and_where_select_what_per_row_eval_selects() {
    let mut rng = XorShift(SEED);
    let mut errors = 0;
    for _ in 0..CASES {
        let t = table(&mut rng);
        let pred = predicate(&mut rng, 3);
        errors += usize::from(reference(t.rows(), &pred).is_err());
        check(&t, &pred);
    }
    // The generator reaches the error path, and mostly answers.
    assert!((1..CASES / 2).contains(&errors), "{errors} erroring cases");
}
