//! Operator precedence, pinned: each statement maps to the canonical text
//! of its parsed clauses, or to its error text. The expected column was
//! generated by the recursive-descent parser the precedence-climbing one
//! replaced, so this table is the contract that the rewrite kept every
//! grouping, every associativity and every refusal.

use dc_sql::ast::{Expr, Statement};
use dc_sql::parser::parse;

/// The parse of `sql`, as text: a SELECT's items, then its WHERE, GROUP BY,
/// HAVING and ORDER BY expressions (canonical text, `|` between clauses);
/// or `Err: ` and the error's display.
fn render(sql: &str) -> String {
    let stmt = match parse(sql) {
        Ok(Statement::Select(s)) => s,
        Ok(other) => return format!("not a SELECT: {other:?}"),
        Err(e) => return format!("Err: {e}"),
    };
    let list = |exprs: Vec<&Expr>| {
        let texts: Vec<String> = exprs.into_iter().map(Expr::canonical).collect();
        texts.join(", ")
    };
    let mut out = list(stmt.items.iter().map(|it| &it.expr).collect());
    if let Some(w) = &stmt.where_clause {
        out += &format!(" | WHERE {}", w.canonical());
    }
    if let Some(g) = &stmt.group_by {
        out += &format!(
            " | GROUP BY {}",
            list(g.all_exprs().iter().map(|g| &g.expr).collect())
        );
    }
    if let Some(h) = &stmt.having {
        out += &format!(" | HAVING {}", h.canonical());
    }
    if !stmt.order_by.is_empty() {
        out += &format!(
            " | ORDER BY {}",
            list(stmt.order_by.iter().map(|k| &k.expr).collect())
        );
    }
    out
}

const CORPUS: &[(&str, &str)] = &[
    ("SELECT NOT a = 1 AND b FROM t", "((NOT (a = 1)) AND b)"),
    ("SELECT -a * b FROM t", "((-a) * b)"),
    ("SELECT a BETWEEN 1 AND 2 AND c FROM t", "((a BETWEEN 1 AND 2) AND c)"),
    ("SELECT a NOT BETWEEN 1 + 1 AND 2 * 3 OR c FROM t", "((a NOT BETWEEN (1 + 1) AND (2 * 3)) OR c)"),
    ("SELECT a < b + c * d - e / f % g FROM t", "(a < ((b + (c * d)) - ((e / f) % g)))"),
    ("SELECT a - (b - c) FROM t", "(a - (b - c))"),
    ("SELECT a OR NOT b AND c FROM t", "(a OR ((NOT b) AND c))"),
    ("SELECT - (SELECT 1 FROM t) FROM t", "(-(SELECT ...))"),
    ("SELECT (a) FROM t", "a"),
    ("SELECT a FROM t WHERE a = b = c", "Err: parse error near '=': trailing input after statement"),
    ("SELECT a FROM t WHERE a IS NULL = TRUE", "Err: parse error near '=': trailing input after statement"),
    ("SELECT a FROM t WHERE a IN (1) IS NULL", "Err: parse error near 'IS': trailing input after statement"),
    ("SELECT a + b - c FROM t", "((a + b) - c)"),
    ("SELECT a * b / c % d FROM t", "(((a * b) / c) % d)"),
    ("SELECT a + b * c - d FROM t", "((a + (b * c)) - d)"),
    ("SELECT a * b + c * d FROM t", "((a * b) + (c * d))"),
    ("SELECT a OR b OR c AND d AND e OR f FROM t", "(((a OR b) OR ((c AND d) AND e)) OR f)"),
    ("SELECT NOT NOT a FROM t", "(NOT (NOT a))"),
    ("SELECT NOT a IS NULL FROM t", "(NOT (a IS NULL))"),
    ("SELECT a IS NOT NULL AND b IS NULL FROM t", "((a IS NOT NULL) AND (b IS NULL))"),
    ("SELECT a IN (1, 2 + 3, b * 2) OR c NOT IN (4) FROM t", "((a IN (1, (2 + 3), (b * 2))) OR (c NOT IN (4)))"),
    ("SELECT - - a FROM t", "(-(-a))"),
    ("SELECT -a + -b FROM t", "((-a) + (-b))"),
    ("SELECT NOT a + 1 FROM t", "(NOT (a + 1))"),
    ("SELECT (a + b) * c FROM t", "((a + b) * c)"),
    ("SELECT a * (b + c) FROM t", "(a * (b + c))"),
    ("SELECT SUM(a + b * c) / COUNT(*) FROM t GROUP BY d", "(SUM((a + (b * c))) / COUNT(*)) | GROUP BY d"),
    ("SELECT GROUPING(a) OR b = 1 FROM t", "(GROUPING(a) OR (b = 1))"),
    ("SELECT a <> b AND c <= d OR e >= f AND g > h FROM t", "(((a <> b) AND (c <= d)) OR ((e >= f) AND (g > h)))"),
    ("SELECT a BETWEEN b + 1 AND c * 2 FROM t", "(a BETWEEN (b + 1) AND (c * 2))"),
    ("SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3", "a | WHERE (((a = 1) AND (b = 2)) OR (c = 3))"),
    ("SELECT a FROM t GROUP BY a HAVING SUM(b) > 2 AND COUNT(*) < 3 OR a = 1", "a | GROUP BY a | HAVING (((SUM(b) > 2) AND (COUNT(*) < 3)) OR (a = 1))"),
    ("SELECT 1 - -1 FROM t", "(1 - (-1))"),
    ("SELECT a - b - c - d FROM t", "(((a - b) - c) - d)"),
    ("SELECT a / b * c FROM t", "((a / b) * c)"),
    ("SELECT (a OR b) AND c FROM t", "((a OR b) AND c)"),
    ("SELECT a AND (b OR c) FROM t", "(a AND (b OR c))"),
    ("SELECT a = (b = c) FROM t", "(a = (b = c))"),
    ("SELECT a FROM t WHERE a +", "Err: parse error near '<end of input>': expected an expression"),
    ("SELECT a FROM t WHERE NOT a BETWEEN 1 AND 2 AND b", "a | WHERE ((NOT (a BETWEEN 1 AND 2)) AND b)"),
    ("SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL AND NOT c", "a | WHERE ((a IS NULL) OR ((b IS NOT NULL) AND (NOT c)))"),
    ("SELECT f(a + 1, -b) * 2 FROM t", "(F((a + 1), (-b)) * 2)"),
    ("SELECT a FROM t ORDER BY a + b DESC", "a | ORDER BY (a + b)"),
    ("SELECT a FROM t WHERE a < b < c", "Err: parse error near '<': trailing input after statement"),
    ("SELECT a FROM t WHERE a IS NOT NULL IS NULL", "Err: parse error near 'IS': trailing input after statement"),
    ("SELECT a * -b - c FROM t", "((a * (-b)) - c)"),
    ("SELECT (a + b) + c FROM t", "((a + b) + c)"),
    ("SELECT a + (b + c) FROM t", "(a + (b + c))"),
    ("SELECT a FROM t WHERE a IN (1, 2) = TRUE", "Err: parse error near '=': trailing input after statement"),
    ("SELECT a FROM t WHERE a = 1 IS NULL", "Err: parse error near 'IS': trailing input after statement"),
    ("SELECT 1 + 2 * 3 FROM t GROUP BY CUBE a + b, c * d", "(1 + (2 * 3)) | GROUP BY (a + b), (c * d)"),
    ("SELECT a FROM t WHERE a BETWEEN 1 AND 2 OR a NOT BETWEEN 3 AND 4 AND b", "a | WHERE ((a BETWEEN 1 AND 2) OR ((a NOT BETWEEN 3 AND 4) AND b))"),
    ("SELECT a FROM t WHERE NOT (a = 1 OR b = 2)", "a | WHERE (NOT ((a = 1) OR (b = 2)))"),
    ("SELECT -a IS NULL FROM t", "((-a) IS NULL)"),
    ("SELECT a = b AND c FROM t", "((a = b) AND c)"),
    ("SELECT a % b + c FROM t", "((a % b) + c)"),
    ("SELECT a FROM t WHERE a = 1 + 2 * 3 - 4", "a | WHERE (a = ((1 + (2 * 3)) - 4))"),
    ("SELECT a FROM t WHERE a = ((b))", "a | WHERE (a = b)"),
    ("SELECT a FROM t WHERE (a", "Err: parse error near '<end of input>': expected ')'"),
    ("SELECT a FROM t WHERE a NOT IN (1, 2) AND b IN (3) OR c", "a | WHERE (((a NOT IN (1, 2)) AND (b IN (3))) OR c)"),
    ("SELECT a FROM t WHERE a IN ()", "Err: parse error near ')': expected an expression"),
    ("SELECT a FROM t WHERE - NOT a", "Err: parse error near 'NOT': expected an expression"),
    ("SELECT a FROM t WHERE a * = 1", "Err: parse error near '=': expected an expression"),
    ("SELECT a + b AS s, c * d FROM t WHERE a > 0 AND b > 1 AND c > 3 GROUP BY a + b, c HAVING COUNT(*) > 1 + 1", "(a + b), (c * d) | WHERE (((a > 0) AND (b > 1)) AND (c > 3)) | GROUP BY (a + b), c | HAVING (COUNT(*) > (1 + 1))"),
];

#[test]
fn precedence_is_pinned() {
    let mut wrong = Vec::new();
    for (sql, want) in CORPUS {
        let got = render(sql);
        if got != *want {
            wrong.push(format!("    ({sql:?}, {got:?}),"));
        }
    }
    assert!(
        CORPUS.len() >= 40 && wrong.is_empty(),
        "{} of {} statements parse differently:\n{}",
        wrong.len(),
        CORPUS.len(),
        wrong.join("\n")
    );
}
