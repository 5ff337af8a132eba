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
use crate::error::{SqlError, SqlResult};
use crate::scalar::{ScalarFn, ScalarRegistry};
use dc_relation::{DataType, Row, Schema, Value};
use std::collections::HashMap;

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
    // Substitution by canonical text first: in the result context this is
    // how `SUM(units)` becomes a column read.
    if !ctx.substitutions.is_empty() {
        if let Some(&i) = ctx.substitutions.get(&expr.canonical()) {
            return Ok(row[i].clone());
        }
    }
    match expr {
        Expr::Column { qualifier, name } => ctx
            .resolve_column(qualifier.as_deref(), name)
            .map(|i| row[i].clone())
            .ok_or_else(|| SqlError::Plan(format!("unknown column: {}", expr.canonical()))),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Star => Err(SqlError::Plan("'*' is only valid in COUNT(*)".into())),
        Expr::Func { name, args, .. } => {
            let f = scalar(ctx.scalars, name, args.len())?;
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(a, row, ctx))
                .collect::<SqlResult<_>>()?;
            Ok(f.call(&vals))
        }
        Expr::Grouping(inner) => {
            // §3.4: TRUE iff the element is an ALL value. Base rows are
            // never ALL, so GROUPING() is FALSE there — consistent.
            let v = eval(inner, row, ctx)?;
            Ok(Value::Bool(v.is_all()))
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, row, ctx)?;
            let r = eval(rhs, row, ctx)?;
            eval_binary(*op, &l, &r)
        }
        Expr::Not(e) => Ok(match eval(e, row, ctx)? {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null
            | Value::All
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Date(_) => Value::Null,
        }),
        Expr::Neg(e) => Ok(match eval(e, row, ctx)? {
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            Value::Null | Value::All | Value::Bool(_) | Value::Str(_) | Value::Date(_) => {
                Value::Null
            }
        }),
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row, ctx)?;
            let is_null = v.is_null();
            Ok(Value::Bool(is_null != *negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, row, ctx)?;
            let lo = eval(low, row, ctx)?;
            let hi = eval(high, row, ctx)?;
            let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
            let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
            Ok(match (ge, le) {
                (Some(a), Some(b)) => Value::Bool((a && b) != *negated),
                _ => Value::Null,
            })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, ctx)?;
            let mut saw_unknown = false;
            for item in list {
                let w = eval(item, row, ctx)?;
                match v.sql_eq(&w) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_unknown = true,
                }
            }
            Ok(if saw_unknown {
                Value::Null
            } else {
                Value::Bool(*negated)
            })
        }
        Expr::ScalarSubquery(_) => Err(SqlError::Plan(
            "internal: scalar subquery not resolved before evaluation".into(),
        )),
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    use BinOp::*;
    match op {
        And => Ok(kleene_and(l, r)),
        Or => Ok(kleene_or(l, r)),
        Eq | Neq | Lt | Lte | Gt | Gte => {
            let cmp = l.sql_cmp(r);
            Ok(match cmp {
                None => Value::Null,
                Some(o) => Value::Bool(match op {
                    Eq => o == std::cmp::Ordering::Equal,
                    Neq => o != std::cmp::Ordering::Equal,
                    Lt => o == std::cmp::Ordering::Less,
                    Lte => o != std::cmp::Ordering::Greater,
                    Gt => o == std::cmp::Ordering::Greater,
                    Gte => o != std::cmp::Ordering::Less,
                    // cube-lint: allow(panic, the outer arm admits only the six comparison ops)
                    _ => unreachable!(),
                }),
            })
        }
        Add | Sub | Mul | Mod => Ok(match (l, r) {
            (Value::Int(a), Value::Int(b)) => match op {
                Add => Value::Int(a + b),
                Sub => Value::Int(a - b),
                Mul => Value::Int(a * b),
                Mod if *b != 0 => Value::Int(a % b),
                _ => Value::Null,
            },
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
        }),
        // SQL engines disagree on integer division; we follow the paper's
        // §4 usage (percent-of-total) and always divide as floats.
        Div => Ok(match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) if b != 0.0 => Value::Float(a / b),
            _ => Value::Null,
        }),
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

/// Infer an expression's output type against a context — and, on the way,
/// check that [`eval`] would resolve every column and function in it (the
/// same resolution rules, but over the schema's types and no row): what
/// lets a statement be rejected when it is bound rather than at its first
/// row.
pub fn infer_type(expr: &Expr, ctx: &EvalContext) -> SqlResult<DataType> {
    let column_type = |i: usize| ctx.schema.column_at(i).dtype;
    if let Some(&i) = ctx.substitutions.get(&expr.canonical()) {
        return Ok(column_type(i));
    }
    match expr {
        Expr::Column { qualifier, name } => ctx
            .resolve_column(qualifier.as_deref(), name)
            .map(column_type)
            .ok_or_else(|| SqlError::Plan(format!("unknown column: {}", expr.canonical()))),
        Expr::Literal(v) => Ok(v.dtype().unwrap_or(DataType::Str)),
        Expr::Star => Err(SqlError::Plan("'*' is only valid in COUNT(*)".into())),
        Expr::Func { name, args, .. } => {
            let f = scalar(ctx.scalars, name, args.len())?;
            for a in args {
                infer_type(a, ctx)?;
            }
            Ok(f.ret)
        }
        Expr::Grouping(_)
        | Expr::Not(_)
        | Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::InList { .. } => {
            for child in expr.children() {
                infer_type(child, ctx)?;
            }
            Ok(DataType::Bool)
        }
        Expr::Neg(e) => infer_type(e, ctx),
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (infer_type(lhs, ctx)?, infer_type(rhs, ctx)?);
            Ok(match op {
                BinOp::And
                | BinOp::Or
                | BinOp::Eq
                | BinOp::Neq
                | BinOp::Lt
                | BinOp::Lte
                | BinOp::Gt
                | BinOp::Gte => DataType::Bool,
                BinOp::Div => DataType::Float,
                _ if l == DataType::Int && r == DataType::Int => DataType::Int,
                _ => DataType::Float,
            })
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
        let e = Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(Expr::col("units")),
            rhs: Box::new(Expr::Literal(Value::Int(2))),
        };
        assert_eq!(eval_str(&e, &r), Value::Int(100));
        let c = Expr::Binary {
            op: BinOp::Gte,
            lhs: Box::new(Expr::col("year")),
            rhs: Box::new(Expr::Literal(Value::Int(1994))),
        };
        assert_eq!(eval_str(&c, &r), Value::Bool(true));
    }

    #[test]
    fn division_is_float() {
        let r = row!["Chevy", 1994, 50];
        let e = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::col("units")),
            rhs: Box::new(Expr::Literal(Value::Int(4))),
        };
        assert_eq!(eval_str(&e, &r), Value::Float(12.5));
        // Division by zero → NULL, not a panic.
        let z = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::col("units")),
            rhs: Box::new(Expr::Literal(Value::Int(0))),
        };
        assert_eq!(eval_str(&z, &r), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let r = Row::new(vec![Value::Null, Value::Int(1994), Value::Int(50)]);
        let null_eq = Expr::Binary {
            op: BinOp::Eq,
            lhs: Box::new(Expr::col("model")),
            rhs: Box::new(Expr::Literal(Value::str("Chevy"))),
        };
        assert_eq!(eval_str(&null_eq, &r), Value::Null);
        // NULL AND FALSE = FALSE (Kleene).
        let and = Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(null_eq.clone()),
            rhs: Box::new(Expr::Literal(Value::Bool(false))),
        };
        assert_eq!(eval_str(&and, &r), Value::Bool(false));
        // NULL OR TRUE = TRUE.
        let or = Expr::Binary {
            op: BinOp::Or,
            lhs: Box::new(null_eq),
            rhs: Box::new(Expr::Literal(Value::Bool(true))),
        };
        assert_eq!(eval_str(&or, &r), Value::Bool(true));
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
        let div = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::col("units")),
            rhs: Box::new(Expr::Literal(Value::Int(2))),
        };
        assert_eq!(t(&div), DataType::Float);
        let add = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::col("units")),
            rhs: Box::new(Expr::Literal(Value::Int(2))),
        };
        assert_eq!(t(&add), DataType::Int);
    }
}
