//! Expression evaluation.
//!
//! Expressions are evaluated in two contexts:
//!
//! * the **base context** — a row of the FROM table (WHERE clauses,
//!   grouping expressions, aggregate arguments), and
//! * the **result context** — a row of the cube relation (select items,
//!   HAVING, ORDER BY), where aggregate calls have been *substituted* by
//!   the cube's output columns.
//!
//! The substitution map keyed by canonical expression text is what lets
//! one `Expr` type serve both: by the time a result-context expression is
//! evaluated, every aggregate inside it resolves through the map.
//!
//! Comparison and boolean logic are three-valued (SQL semantics):
//! anything involving NULL — or the `ALL` token, whose set semantics §3.3
//! deliberately leaves out of scalar comparison — evaluates to NULL, and
//! `WHERE` keeps only rows that evaluate to `TRUE`.

use crate::ast::{BinOp, Expr};
use crate::error::{Boxed, SqlError, SqlResult};
use crate::scalar::{ScalarFn, ScalarRegistry};
use dc_relation::{CodeColumn, DataType, FxHashSet, Row, Schema, Table, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything needed to evaluate expressions against rows of one schema.
pub struct EvalContext<'a> {
    pub schema: &'a Schema,
    pub scalars: &'a ScalarRegistry,
    /// Canonical expression text → column index in this context's rows.
    /// Populated in the result context with grouping aliases and
    /// aggregate-call columns; empty in the base context.
    pub substitutions: HashMap<String, usize>,
}

impl<'a> EvalContext<'a> {
    pub fn base(schema: &'a Schema, scalars: &'a ScalarRegistry) -> Self {
        EvalContext {
            schema,
            scalars,
            substitutions: HashMap::new(),
        }
    }

    fn resolve_column(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        if let Some(q) = qualifier {
            if let Some(&i) = self.substitutions.get(&format!("{q}.{name}")) {
                return Some(i);
            }
        }
        if let Some(&i) = self.substitutions.get(name) {
            return Some(i);
        }
        self.schema.index_of(name).ok()
    }
}

/// Evaluate `expr` against one row.
pub fn eval(expr: &Expr, row: &Row, ctx: &EvalContext) -> SqlResult<Value> {
    value_of(expr, row, ctx).map_err(|e| *e)
}

/// [`eval`], one node.
fn value_of(expr: &Expr, row: &Row, ctx: &EvalContext) -> Boxed<Value> {
    // Substitution by canonical text first: in the result context this is
    // how `SUM(units)` becomes a column read.
    if !ctx.substitutions.is_empty() {
        if let Some(&i) = ctx.substitutions.get(&expr.canonical()) {
            return Ok(row[i].clone());
        }
    }
    match expr {
        Expr::Column { qualifier, name } => match ctx.resolve_column(qualifier.as_deref(), name) {
            Some(i) => Ok(row[i].clone()),
            None => Err(unresolved(expr)),
        },
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Star | Expr::ScalarSubquery(_) => Err(unresolved(expr)),
        Expr::Func { name, args, .. } => {
            let f = scalar(ctx.scalars, name, args.len())?;
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(value_of(a, row, ctx)?);
            }
            Ok(f.call(&vals))
        }
        Expr::Grouping(inner) => {
            // §3.4: TRUE iff the element is an ALL value. Base rows are
            // never ALL, so GROUPING() is FALSE there — consistent.
            Ok(Value::Bool(value_of(inner, row, ctx)?.is_all()))
        }
        // Every operand is evaluated, in source order: no short circuit.
        Expr::Chain { first, rest } => {
            let mut acc = value_of(first, row, ctx)?;
            for (op, e) in rest {
                acc = eval_binary(*op, &acc, &value_of(e, row, ctx)?);
            }
            Ok(acc)
        }
        Expr::Not(e) => Ok(match value_of(e, row, ctx)? {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null
            | Value::All
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Date(_) => Value::Null,
        }),
        Expr::Neg(e) => Ok(match value_of(e, row, ctx)? {
            Value::Int(i) => i.checked_neg().map_or(Value::Null, Value::Int),
            Value::Float(f) => Value::Float(-f),
            Value::Null | Value::All | Value::Bool(_) | Value::Str(_) | Value::Date(_) => {
                Value::Null
            }
        }),
        Expr::IsNull { expr, negated } => {
            Ok(Value::Bool(value_of(expr, row, ctx)?.is_null() != *negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = value_of(expr, row, ctx)?;
            let ge = v.sql_cmp(&value_of(low, row, ctx)?).map(Ordering::is_ge);
            let le = v.sql_cmp(&value_of(high, row, ctx)?).map(Ordering::is_le);
            Ok(match (ge, le) {
                (Some(a), Some(b)) => Value::Bool((a && b) != *negated),
                _ => Value::Null,
            })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => in_list(value_of(expr, row, ctx)?, list, *negated, row, ctx),
    }
}

/// `v [NOT] IN (list)`: TRUE at the first item equal to `v`, else NULL if
/// an item compared unknown, else FALSE (negated, the other way round).
fn in_list(v: Value, list: &[Expr], negated: bool, row: &Row, ctx: &EvalContext) -> Boxed<Value> {
    let mut saw_unknown = false;
    for item in list {
        match v.sql_eq(&value_of(item, row, ctx)?) {
            Some(true) => return Ok(Value::Bool(!negated)),
            Some(false) => {}
            None => saw_unknown = true,
        }
    }
    Ok(match saw_unknown {
        true => Value::Null,
        false => Value::Bool(negated),
    })
}

/// The error for a node no row can evaluate: an unknown column, a `*`
/// outside COUNT, or a subquery left unresolved.
#[cold]
fn unresolved(expr: &Expr) -> Box<SqlError> {
    Box::new(SqlError::Plan(match expr {
        Expr::Star => "'*' is only valid in COUNT(*)".into(),
        Expr::ScalarSubquery(_) => {
            "internal: scalar subquery not resolved before evaluation".into()
        }
        other => format!("unknown column: {}", other.canonical()),
    }))
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Value {
    use BinOp::*;
    let holds =
        |test: fn(Ordering) -> bool| l.sql_cmp(r).map_or(Value::Null, |o| Value::Bool(test(o)));
    match op {
        And => kleene_and(l, r),
        Or => kleene_or(l, r),
        Eq => holds(Ordering::is_eq),
        Neq => holds(Ordering::is_ne),
        Lt => holds(Ordering::is_lt),
        Lte => holds(Ordering::is_le),
        Gt => holds(Ordering::is_gt),
        Gte => holds(Ordering::is_ge),
        // An integer result that overflows `i64` (`i64::MAX + 1`,
        // `i64::MIN % -1`) is NULL, the evaluator's one rule for arithmetic
        // without an answer: so is a modulo here, or a division below, by
        // zero. `-i64::MIN` and `ABS(i64::MIN)` follow it too.
        Add | Sub | Mul | Mod => match (l, r) {
            (Value::Int(a), Value::Int(b)) => match op {
                Add => a.checked_add(*b),
                Sub => a.checked_sub(*b),
                Mul => a.checked_mul(*b),
                Mod => a.checked_rem(*b),
                _ => None,
            }
            .map_or(Value::Null, Value::Int),
            // cube-lint: allow(wildcard, numeric coercion defers to as_f64, which is exhaustive)
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => match op {
                    Add => Value::Float(a + b),
                    Sub => Value::Float(a - b),
                    Mul => Value::Float(a * b),
                    Mod if b != 0.0 => Value::Float(a % b),
                    _ => Value::Null,
                },
                _ => Value::Null,
            },
        },
        // SQL engines disagree on integer division; we follow the paper's
        // §4 usage (percent-of-total) and always divide as floats. By zero,
        // NULL.
        Div => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) if b != 0.0 => Value::Float(a / b),
            _ => Value::Null,
        },
    }
}

fn kleene_and(l: &Value, r: &Value) -> Value {
    match (l.as_bool(), r.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn kleene_or(l: &Value, r: &Value) -> Value {
    match (l.as_bool(), r.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

/// Which rows of one table a predicate selects: the one row selection of
/// DELETE, UPDATE, WHERE and HAVING. SQL semantics: only a `TRUE` verdict
/// selects, so a NULL (or ALL) verdict leaves the row out; no predicate
/// selects every row.
///
/// A verdict depends only on the values of the columns the predicate
/// reads (scalar functions are pure), so where those columns have few
/// distinct values §5's symbol tables ([`Table::codes`]) decide it once
/// per distinct value: the verdict of a tuple of codes is [`eval`]'s on
/// the first row that carries it, and every later row with the same tuple
/// reuses it. Errors are therefore [`eval`]'s, raised by the same row, and
/// a scalar function is called at most once per distinct tuple. The memo
/// is kept only where it is sound and where it pays (see
/// [`Selection::new`]); otherwise every row is evaluated.
pub(crate) struct Selection<'a> {
    rows: &'a [Row],
    predicate: Option<&'a Expr>,
    ctx: &'a EvalContext<'a>,
    memo: Option<Memo>,
}

/// Verdicts by code tuple: a dense table indexed by the mixed-radix
/// number the codes of one row's columns spell.
struct Memo {
    /// Each column the predicate reads: its codes, and its place value.
    columns: Vec<(Arc<CodeColumn>, usize)>,
    /// Per tuple, its verdict once a row carrying it was evaluated.
    verdicts: Vec<Option<bool>>,
}

/// Rows [`may_fit`] samples.
const SAMPLE_ROWS: usize = 4096;

impl<'a> Selection<'a> {
    /// The selection `predicate` makes over `table`, under `ctx` (whose
    /// schema is the table's). The memo is built here when three things
    /// hold, else every row is evaluated:
    ///
    /// * the predicate's verdict is a function of the columns it reads:
    ///   it holds no scalar subquery, no `*` and no column `eval` cannot
    ///   resolve (those rows fail, or read more than a column, per row);
    /// * the tuples fit: the product of the columns' cardinalities is at
    ///   most an eighth of the rows (at least 1), decided from the data.
    ///   A prefix of the rows turns most misfits away ([`may_fit`]), and
    ///   each dictionary is built under a cap ([`Table::codes_at_most`]),
    ///   so a misfit costs at most about an eighth of a dictionary;
    /// * each column's codes tell apart every two values `eval` can. A
    ///   symbol table gives `Int(1)` and `Float(1.0)` one code, which
    ///   `STR` renders as `'1'` and `'1.0'`. A Float column may hold Ints
    ///   ([`DataType::accepts`]), so it is memoized only when its typed
    ///   form shows one numeric type; a column of any other type holds
    ///   values of that type and `NULL` only.
    pub(crate) fn new(
        table: &'a Table,
        predicate: Option<&'a Expr>,
        ctx: &'a EvalContext<'a>,
    ) -> Self {
        Selection {
            rows: table.rows(),
            predicate,
            ctx,
            memo: predicate.and_then(|p| Memo::over(table, p, ctx)),
        }
    }

    /// Whether row `i` of the table is in the selection.
    pub(crate) fn contains(&mut self, i: usize) -> SqlResult<bool> {
        let Some(predicate) = self.predicate else {
            return Ok(true);
        };
        let decide = || Ok(eval(predicate, &self.rows[i], self.ctx)? == Value::Bool(true));
        let Some(memo) = &mut self.memo else {
            return decide();
        };
        let tuple = memo.columns.iter();
        let slot = tuple
            .map(|(col, place)| col.codes.get(i) as usize * place)
            .sum::<usize>();
        match memo.verdicts[slot] {
            Some(verdict) => Ok(verdict),
            None => {
                let verdict = decide()?;
                memo.verdicts[slot] = Some(verdict);
                Ok(verdict)
            }
        }
    }
}

impl Memo {
    /// The memo `predicate` over `table` gets, if any ([`Selection::new`]).
    fn over(table: &Table, predicate: &Expr, ctx: &EvalContext) -> Option<Memo> {
        let mut columns = Vec::new();
        reads(predicate, ctx, &mut columns)?;
        if !may_fit(table.rows(), &columns) {
            return None;
        }
        let budget = (table.len() / 8).max(1);
        let mut places = 1usize;
        let mut coded = Vec::with_capacity(columns.len());
        for c in columns {
            // At most `budget / places` values keeps the product in budget.
            let codes = table.codes_at_most(c, budget / places)?;
            let place = places;
            places *= codes.symbols.cardinality().max(1);
            let exact = match table.schema().column_at(c).dtype {
                DataType::Float => table.typed(c).is_some(),
                DataType::Bool | DataType::Int | DataType::Str | DataType::Date => true,
            };
            if !exact {
                return None;
            }
            coded.push((codes, place));
        }
        Some(Memo {
            columns: coded,
            verdicts: vec![None; places],
        })
    }
}

/// Collect into `out`, each once, the columns `expr` reads, resolved the
/// way [`eval`] resolves them: substitution by canonical text first, then
/// by name. `None` when the verdict may depend on more than those values:
/// a scalar subquery, `*`, or a column `eval` cannot resolve.
fn reads(expr: &Expr, ctx: &EvalContext, out: &mut Vec<usize>) -> Option<()> {
    let substituted = match ctx.substitutions.is_empty() {
        true => None,
        false => ctx.substitutions.get(&expr.canonical()).copied(),
    };
    let column = match (substituted, expr) {
        (Some(i), _) => i,
        (None, Expr::Column { qualifier, name }) => {
            ctx.resolve_column(qualifier.as_deref(), name)?
        }
        (None, Expr::Star | Expr::ScalarSubquery(_)) => return None,
        (None, _) => {
            return expr
                .children()
                .into_iter()
                .try_for_each(|c| reads(c, ctx, out));
        }
    };
    if !out.contains(&column) {
        out.push(column);
    }
    Some(())
}

/// Whether `columns`' code tuples may fit an eighth of the rows, judged
/// on a prefix of at most [`SAMPLE_ROWS`] rows: a prefix whose columns'
/// distinct values multiply past an eighth of its own rows turns the memo
/// away before any dictionary is built. (A whole table up to that size is
/// judged exactly.)
fn may_fit(rows: &[Row], columns: &[usize]) -> bool {
    let prefix = &rows[..rows.len().min(SAMPLE_ROWS)];
    let budget = (prefix.len() / 8).max(1);
    let mut product = 1usize;
    for &c in columns {
        let mut seen = FxHashSet::default();
        for row in prefix {
            seen.insert(&row[c]);
            if product.saturating_mul(seen.len()) > budget {
                return false;
            }
        }
        product = product.saturating_mul(seen.len().max(1));
    }
    true
}

/// Infer an expression's output type against a context — and, on the way,
/// check that [`eval`] would resolve every column and function in it (the
/// same resolution rules, but over the schema's types and no row): what
/// lets a statement be rejected when it is bound rather than at its first
/// row.
pub fn infer_type(expr: &Expr, ctx: &EvalContext) -> SqlResult<DataType> {
    type_of(expr, ctx).map_err(|e| *e)
}

/// [`infer_type`], one node.
fn type_of(expr: &Expr, ctx: &EvalContext) -> Boxed<DataType> {
    let column_type = |i: usize| ctx.schema.column_at(i).dtype;
    if let Some(&i) = ctx.substitutions.get(&expr.canonical()) {
        return Ok(column_type(i));
    }
    match expr {
        Expr::Column { qualifier, name } => ctx
            .resolve_column(qualifier.as_deref(), name)
            .map(column_type)
            .ok_or_else(|| unresolved(expr)),
        Expr::Literal(v) => Ok(v.dtype().unwrap_or(DataType::Str)),
        Expr::Star => Err(unresolved(expr)),
        Expr::Func { name, args, .. } => {
            let f = scalar(ctx.scalars, name, args.len())?;
            for a in args {
                type_of(a, ctx)?;
            }
            Ok(f.ret)
        }
        Expr::Grouping(_)
        | Expr::Not(_)
        | Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::InList { .. } => {
            for child in expr.children() {
                type_of(child, ctx)?;
            }
            Ok(DataType::Bool)
        }
        Expr::Neg(e) => type_of(e, ctx),
        Expr::Chain { first, rest } => {
            use BinOp::*;
            let mut acc = type_of(first, ctx)?;
            for (op, e) in rest {
                let r = type_of(e, ctx)?;
                acc = match op {
                    Add | Sub | Mul | Mod if (acc, r) == (DataType::Int, DataType::Int) => acc,
                    Add | Sub | Mul | Mod | Div => DataType::Float,
                    And | Or | Eq | Neq | Lt | Lte | Gt | Gte => DataType::Bool,
                };
            }
            Ok(acc)
        }
        Expr::ScalarSubquery(_) => Ok(DataType::Float),
    }
}

/// The scalar function a call denotes, arity checked.
fn scalar<'a>(scalars: &'a ScalarRegistry, name: &str, n_args: usize) -> SqlResult<&'a ScalarFn> {
    let f = scalars
        .get(name)
        .ok_or_else(|| SqlError::Plan(format!("unknown function in this context: {name}")))?;
    if n_args != f.arity {
        return Err(SqlError::Plan(format!(
            "{} takes {} argument(s), got {n_args}",
            f.name, f.arity
        )));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar;
    use dc_relation::row;

    fn ctx_fixture() -> (Schema, ScalarRegistry) {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        (schema, scalar::builtins())
    }

    fn eval_str(expr: &Expr, row: &Row) -> Value {
        let (schema, scalars) = ctx_fixture();
        let ctx = EvalContext::base(&schema, &scalars);
        eval(expr, row, &ctx).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let r = row!["Chevy", 1994, 50];
        let e = Expr::Chain {
            first: Box::new(Expr::col("units")),
            rest: vec![(BinOp::Mul, Expr::Literal(Value::Int(2)))],
        };
        assert_eq!(eval_str(&e, &r), Value::Int(100));
        let c = Expr::Chain {
            first: Box::new(Expr::col("year")),
            rest: vec![(BinOp::Gte, Expr::Literal(Value::Int(1994)))],
        };
        assert_eq!(eval_str(&c, &r), Value::Bool(true));
    }

    #[test]
    fn division_is_float() {
        let r = row!["Chevy", 1994, 50];
        let e = Expr::Chain {
            first: Box::new(Expr::col("units")),
            rest: vec![(BinOp::Div, Expr::Literal(Value::Int(4)))],
        };
        assert_eq!(eval_str(&e, &r), Value::Float(12.5));
        // Division by zero → NULL, not a panic.
        let z = Expr::Chain {
            first: Box::new(Expr::col("units")),
            rest: vec![(BinOp::Div, Expr::Literal(Value::Int(0)))],
        };
        assert_eq!(eval_str(&z, &r), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let r = Row::new(vec![Value::Null, Value::Int(1994), Value::Int(50)]);
        let null_eq = Expr::Chain {
            first: Box::new(Expr::col("model")),
            rest: vec![(BinOp::Eq, Expr::Literal(Value::str("Chevy")))],
        };
        assert_eq!(eval_str(&null_eq, &r), Value::Null);
        // NULL AND FALSE = FALSE (Kleene).
        let and = Expr::Chain {
            first: Box::new(null_eq.clone()),
            rest: vec![(BinOp::And, Expr::Literal(Value::Bool(false)))],
        };
        assert_eq!(eval_str(&and, &r), Value::Bool(false));
        // NULL OR TRUE = TRUE.
        let or = Expr::Chain {
            first: Box::new(null_eq),
            rest: vec![(BinOp::Or, Expr::Literal(Value::Bool(true)))],
        };
        assert_eq!(eval_str(&or, &r), Value::Bool(true));
    }

    /// A run folds left over every operand in source order, with no short
    /// circuit: `FALSE AND x` still reads `x`, and the first operand that
    /// fails is the one the error names.
    #[test]
    fn a_chain_evaluates_every_operand_in_order() {
        let (schema, scalars) = ctx_fixture();
        let ctx = EvalContext::base(&schema, &scalars);
        let r = row!["Chevy", 1994, 50];
        let chain = |first: Expr, rest: Vec<(BinOp, Expr)>| Expr::Chain {
            first: Box::new(first),
            rest,
        };
        let sum = chain(
            Expr::col("units"),
            vec![
                (BinOp::Sub, Expr::Literal(Value::Int(8))),
                (BinOp::Mul, Expr::Literal(Value::Int(2))),
            ],
        );
        assert_eq!(eval(&sum, &r, &ctx).unwrap(), Value::Int(84));
        let and = chain(
            Expr::Literal(Value::Bool(false)),
            vec![(BinOp::And, Expr::col("x")), (BinOp::And, Expr::col("y"))],
        );
        match eval(&and, &r, &ctx) {
            Err(SqlError::Plan(m)) => assert_eq!(m, "unknown column: x"),
            other => panic!("expected the unknown column x, got {other:?}"),
        }
    }

    #[test]
    fn in_list_and_between() {
        let r = row!["Chevy", 1994, 50];
        let e = Expr::InList {
            expr: Box::new(Expr::col("model")),
            list: vec![
                Expr::Literal(Value::str("Ford")),
                Expr::Literal(Value::str("Chevy")),
            ],
            negated: false,
        };
        assert_eq!(eval_str(&e, &r), Value::Bool(true));
        let b = Expr::Between {
            expr: Box::new(Expr::col("year")),
            low: Box::new(Expr::Literal(Value::Int(1990))),
            high: Box::new(Expr::Literal(Value::Int(1992))),
            negated: false,
        };
        assert_eq!(eval_str(&b, &r), Value::Bool(false));
    }

    #[test]
    fn grouping_reads_all_tokens() {
        let (schema, scalars) = ctx_fixture();
        let mut ctx = EvalContext::base(&schema, &scalars);
        ctx.substitutions.insert("model".into(), 0);
        let g = Expr::Grouping(Box::new(Expr::col("model")));
        let all_row = Row::new(vec![Value::All, Value::Int(0), Value::Int(0)]);
        assert_eq!(eval(&g, &all_row, &ctx).unwrap(), Value::Bool(true));
        let data_row = row!["Chevy", 1994, 50];
        assert_eq!(eval(&g, &data_row, &ctx).unwrap(), Value::Bool(false));
    }

    #[test]
    fn substitution_takes_precedence() {
        let (schema, scalars) = ctx_fixture();
        let mut ctx = EvalContext::base(&schema, &scalars);
        // Pretend "SUM(units)" is column 2 of the result row.
        ctx.substitutions.insert("SUM(units)".into(), 2);
        let e = Expr::Func {
            name: "sum".into(),
            distinct: false,
            args: vec![Expr::col("units")],
        };
        assert_eq!(eval(&e, &row!["x", 1, 290], &ctx).unwrap(), Value::Int(290));
    }

    #[test]
    fn type_inference() {
        let (schema, scalars) = ctx_fixture();
        let ctx = EvalContext::base(&schema, &scalars);
        let t = |e: &Expr| infer_type(e, &ctx).unwrap();
        assert_eq!(t(&Expr::col("model")), DataType::Str);
        assert_eq!(t(&Expr::col("units")), DataType::Int);
        let div = Expr::Chain {
            first: Box::new(Expr::col("units")),
            rest: vec![(BinOp::Div, Expr::Literal(Value::Int(2)))],
        };
        assert_eq!(t(&div), DataType::Float);
        let add = Expr::Chain {
            first: Box::new(Expr::col("units")),
            rest: vec![(BinOp::Add, Expr::Literal(Value::Int(2)))],
        };
        assert_eq!(t(&add), DataType::Int);
    }
}
