//! The abstract syntax tree.

use dc_relation::Value;
use std::fmt;

/// A parsed statement: queries, session options, and the DML write path
/// (`INSERT INTO` / `DELETE FROM`) that feeds batched cube maintenance.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    /// `EXPLAIN SELECT ...`: describe the plan instead of executing it.
    Explain(SelectStmt),
    /// `SET <option> = <integer>`: session execution options (resource
    /// budgets, thread count). `0` resets an option to its default.
    Set {
        name: String,
        value: i64,
    },
    /// `INSERT INTO <table> VALUES (...), (...)` — one statement is one
    /// delta batch against the named table.
    Insert {
        table: String,
        rows: Vec<Vec<Expr>>,
    },
    /// `DELETE FROM <table> [WHERE <predicate>]` — the matching rows form
    /// one delete batch.
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    /// `UPDATE <table> SET c1 = e1, ... [WHERE <predicate>]` — sugar for a
    /// delete of the matching rows plus an insert of their rewritten
    /// images, executed as one batch under a single admission permit.
    Update {
        table: String,
        /// `(column, value-expression)` pairs, applied left to right; the
        /// expressions see the *old* row, per SQL semantics.
        sets: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
}

/// One `SELECT` block, possibly chained with `UNION [ALL]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub from: TableRef,
    pub where_clause: Option<Expr>,
    pub group_by: Option<GroupByClause>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
    /// `UNION [ALL] <next select>`.
    pub union: Option<(bool, Box<SelectStmt>)>,
}

/// A FROM item: a named table, optionally joined.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Named(String),
    /// `a JOIN b USING (c1, c2, ...)` — inner equi-join, the form §3.5's
    /// decoration example uses.
    JoinUsing {
        left: Box<TableRef>,
        right: Box<TableRef>,
        using: Vec<String>,
    },
}

/// One select-list item: an expression with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl SelectItem {
    /// The output column name: the alias, or the expression's canonical
    /// text.
    pub fn output_name(&self) -> String {
        self.alias.clone().unwrap_or_else(|| self.expr.canonical())
    }
}

/// The §3.2 grammar: `GROUP BY [list] [ROLLUP list] [CUBE list]`, or
/// `GROUP BY GROUPING SETS ((...), ...)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupByClause {
    pub plain: Vec<GroupExpr>,
    pub rollup: Vec<GroupExpr>,
    pub cube: Vec<GroupExpr>,
    /// Mutually exclusive with the three blocks above.
    pub grouping_sets: Option<Vec<Vec<GroupExpr>>>,
}

impl GroupByClause {
    /// All grouping expressions in answer-column order.
    pub fn all_exprs(&self) -> Vec<&GroupExpr> {
        if let Some(sets) = &self.grouping_sets {
            // Deduplicate by canonical text, preserving first appearance.
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for set in sets {
                for g in set {
                    if seen.insert(g.expr.canonical()) {
                        out.push(g);
                    }
                }
            }
            out
        } else {
            self.plain
                .iter()
                .chain(self.rollup.iter())
                .chain(self.cube.iter())
                .collect()
        }
    }
}

/// A grouping expression with an optional alias: `Day(Time) AS day`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupExpr {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl GroupExpr {
    /// The dimension's output name.
    pub fn output_name(&self) -> String {
        self.alias.clone().unwrap_or_else(|| self.expr.canonical())
    }
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub descending: bool,
}

/// Binary operators by precedence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Neq,
    Lt,
    Lte,
    Gt,
    Gte,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Lte => "<=",
            BinOp::Gt => ">",
            BinOp::Gte => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference; the optional qualifier (`sales.model`) is kept
    /// for display but resolution is by bare name after joins.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    /// `*` — only legal as the argument of COUNT.
    Star,
    /// Function call: aggregate or scalar, resolved at plan time.
    /// `distinct` is only legal on aggregates (`COUNT(DISTINCT x)`).
    Func {
        name: String,
        distinct: bool,
        args: Vec<Expr>,
    },
    /// The §3.4 `GROUPING(column)` discriminator.
    Grouping(Box<Expr>),
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Not(Box<Expr>),
    Neg(Box<Expr>),
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// Uncorrelated scalar subquery, e.g. §4's
    /// `SUM(Sales) / (SELECT SUM(Sales) FROM Sales WHERE ...)`.
    ScalarSubquery(Box<SelectStmt>),
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Canonical text used for output naming and matching select items to
    /// grouping expressions.
    pub fn canonical(&self) -> String {
        match self {
            Expr::Column {
                qualifier: Some(q),
                name,
            } => format!("{q}.{name}"),
            Expr::Column {
                qualifier: None,
                name,
            } => name.clone(),
            Expr::Literal(v) => match v {
                Value::Str(s) => format!("'{s}'"),
                other => other.to_string(),
            },
            Expr::Star => "*".into(),
            Expr::Func {
                name,
                distinct,
                args,
            } => {
                let args: Vec<String> = args.iter().map(Expr::canonical).collect();
                if *distinct {
                    format!("{}(DISTINCT {})", name.to_uppercase(), args.join(", "))
                } else {
                    format!("{}({})", name.to_uppercase(), args.join(", "))
                }
            }
            Expr::Grouping(e) => format!("GROUPING({})", e.canonical()),
            Expr::Binary { op, lhs, rhs } => {
                format!("({} {} {})", lhs.canonical(), op.symbol(), rhs.canonical())
            }
            Expr::Not(e) => format!("(NOT {})", e.canonical()),
            Expr::Neg(e) => format!("(-{})", e.canonical()),
            Expr::IsNull { expr, negated } => {
                format!(
                    "({} IS {}NULL)",
                    expr.canonical(),
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => format!(
                "({} {}BETWEEN {} AND {})",
                expr.canonical(),
                if *negated { "NOT " } else { "" },
                low.canonical(),
                high.canonical()
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(Expr::canonical).collect();
                format!(
                    "({} {}IN ({}))",
                    expr.canonical(),
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::ScalarSubquery(_) => "(SELECT ...)".into(),
        }
    }

    /// The direct sub-expressions, in source order. A scalar subquery is
    /// a statement of its own, not a sub-expression.
    pub(crate) fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::Star | Expr::ScalarSubquery(_) => vec![],
            Expr::Func { args, .. } => args.iter().collect(),
            Expr::Grouping(e) | Expr::Not(e) | Expr::Neg(e) | Expr::IsNull { expr: e, .. } => {
                vec![e]
            }
            Expr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
        }
    }

    /// [`Self::children`], for rewriting in place.
    pub(crate) fn children_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::Star | Expr::ScalarSubquery(_) => vec![],
            Expr::Func { args, .. } => args.iter_mut().collect(),
            Expr::Grouping(e) | Expr::Not(e) | Expr::Neg(e) | Expr::IsNull { expr: e, .. } => {
                vec![e]
            }
            Expr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            Expr::InList { expr, list, .. } => std::iter::once(&mut **expr).chain(list).collect(),
        }
    }

    /// Does this expression (transitively) contain an aggregate call or
    /// `GROUPING()`? Used to classify select items.
    pub fn contains_aggregate(&self, is_aggregate: &dyn Fn(&str) -> bool) -> bool {
        match self {
            Expr::Grouping(_) => true,
            Expr::Func { name, .. } if is_aggregate(name) => true,
            _ => self
                .children()
                .iter()
                .any(|c| c.contains_aggregate(is_aggregate)),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_text() {
        let e = Expr::Func {
            name: "sum".into(),
            distinct: false,
            args: vec![Expr::col("units")],
        };
        assert_eq!(e.canonical(), "SUM(units)");
        let g = Expr::Grouping(Box::new(Expr::col("model")));
        assert_eq!(g.canonical(), "GROUPING(model)");
        let b = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(e),
            rhs: Box::new(Expr::Literal(Value::Int(2))),
        };
        assert_eq!(b.canonical(), "(SUM(units) / 2)");
    }

    #[test]
    fn aggregate_detection_recurses() {
        let is_agg = |n: &str| n.eq_ignore_ascii_case("sum");
        let plain = Expr::col("x");
        assert!(!plain.contains_aggregate(&is_agg));
        let nested = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::col("x")),
            rhs: Box::new(Expr::Func {
                name: "SUM".into(),
                distinct: false,
                args: vec![Expr::col("y")],
            }),
        };
        assert!(nested.contains_aggregate(&is_agg));
        let grouping = Expr::Grouping(Box::new(Expr::col("x")));
        assert!(grouping.contains_aggregate(&is_agg));
    }

    #[test]
    fn grouping_sets_dedup_in_order() {
        let g = |n: &str| GroupExpr {
            expr: Expr::col(n),
            alias: None,
        };
        let clause = GroupByClause {
            grouping_sets: Some(vec![vec![g("a"), g("b")], vec![g("b"), g("c")], vec![]]),
            ..Default::default()
        };
        let names: Vec<String> = clause.all_exprs().iter().map(|e| e.output_name()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
