#![deny(clippy::too_many_lines)]
//! Statement binding: one `SELECT` block becomes one plan value.
//!
//! [`bind`] reads schemas and registries only — no base row, no subquery
//! execution, no cache counter. `EXPLAIN`, the lattice-cache key and the
//! executor all read the value it returns, so a statement that cannot be
//! planned fails here, with one error text and before any work (DESIGN.md
//! "SQL statement pipeline"). Two rules live here and nowhere else: clause
//! → grouping-set family ([`family`]; [`set_count`] is its closed form for
//! admission) and aggregate call → function ([`resolve_call`]).

use crate::ast::*;
use crate::catalog::CatalogSnapshot;
use crate::error::{SqlError, SqlResult};
use crate::eval::{eval, infer_type, EvalContext};
use datacube::{AggSpec, CompoundSpec, Dimension, GroupingSet};
use dc_aggregate::AggRef;
use dc_relation::{ColumnDef, DataType, Row, Schema, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// What one `SELECT` block binds to.
pub(crate) enum Bound {
    Aggregate(AggregatePlan),
    /// No GROUP BY, no aggregate: the select list over the FROM relation.
    Projection(Vec<Output>),
}

/// One aggregate block, bound. Its cube relation has the dimensions as
/// first columns and the aggregate calls after them; HAVING and the
/// outputs are expressed over that relation.
pub(crate) struct AggregatePlan {
    pub(crate) dims: Vec<PlanDim>,
    pub(crate) aggs: Vec<PlanAgg>,
    /// Computed aggregate arguments (`SUM(a * b)`): columns the widen stage
    /// appends to the input, each evaluated once per base row.
    pub(crate) computed: Vec<(ColumnDef, Expr)>,
    /// The grouping-set family over `dims`, without duplicates.
    pub(crate) sets: Vec<GroupingSet>,
    pub(crate) having: Option<Expr>,
    pub(crate) outputs: Vec<Output>,
    /// Canonical text → cube-relation column: every dimension, its alias,
    /// and every aggregate call.
    pub(crate) substitutions: HashMap<String, usize>,
}

/// A grouping dimension: `Day(Time) AS day`.
pub(crate) struct PlanDim {
    /// Ready for the cube operator; carries the output name and type.
    pub(crate) dimension: Dimension,
    pub(crate) expr: Expr,
    /// The base column, when the dimension is a plain unqualified column
    /// reference — the name the lattice cache keys views by.
    pub(crate) column: Option<String>,
}

/// An aggregate call as written, plus its canonical text: the identity it
/// is de-duplicated, substituted and cached under (parameters included, so
/// `MAXN(v, 2)` is never `MAXN(v, 3)`).
#[derive(Debug, Clone)]
pub(crate) struct AggCall {
    pub(crate) name: String,
    pub(crate) distinct: bool,
    pub(crate) args: Vec<Expr>,
    pub(crate) canonical: String,
}

/// A bound aggregate call. `spec.input` is the argument: `None` for `*`,
/// else a base column or one of the plan's `computed` columns.
pub(crate) struct PlanAgg {
    pub(crate) call: AggCall,
    pub(crate) spec: AggSpec,
}

/// One output column of a block.
pub(crate) struct Output {
    pub(crate) def: ColumnDef,
    pub(crate) source: Source,
}

/// Where an output column's values come from, per row of the relation the
/// select list is computed over (the cube relation, or the FROM relation
/// of a plain block).
pub(crate) enum Source {
    /// That relation's column, moved rather than evaluated: a dimension or
    /// an aggregate of the cube relation, or a column of `SELECT *`.
    Column(usize),
    /// A scalar expression: the post-aggregation projection stage.
    Expr(Expr),
    /// A Red Brick ordered aggregate (§1.2) over the column of `arg`,
    /// applied in the relation's order — which for ROLLUP is exactly the
    /// sequential order the paper says cumulative operators need.
    Ordered { kind: OrderedKind, arg: Expr },
    /// A §3.5 decoration candidate: a base column that must turn out
    /// functionally dependent on the grouping columns — the data's to say.
    Decoration(String),
}

/// The UNION chain of a statement: each block with the `ALL` flag of the
/// `UNION` that joins it to the blocks before it.
pub(crate) fn branches(stmt: &SelectStmt) -> impl Iterator<Item = (bool, &SelectStmt)> {
    std::iter::successors(Some((false, stmt)), |(_, s)| {
        s.union.as_ref().map(|(all, rhs)| (*all, rhs.as_ref()))
    })
}

/// Is `name` an aggregate in this snapshot (registry built-ins, UDAs, or
/// the parameterized MAXN/MINN/PERCENTILE family)?
fn is_aggregate_name(snap: &CatalogSnapshot, name: &str) -> bool {
    snap.aggs.get(name).is_ok()
        || matches!(name.to_uppercase().as_str(), "MAXN" | "MINN" | "PERCENTILE")
}

/// Bind one block (subqueries already literals, or left as written for
/// EXPLAIN) against the schema of its FROM relation.
pub(crate) fn bind(sel: &SelectStmt, input: &Schema, snap: &CatalogSnapshot) -> SqlResult<Bound> {
    let base = EvalContext::base(input, &snap.scalars);
    if let Some(pred) = &sel.where_clause {
        infer_type(pred, &base)?;
    }
    let is_agg = |n: &str| is_aggregate_name(snap, n);
    let aggregates = sel
        .items
        .iter()
        .any(|it| it.expr.contains_aggregate(&is_agg))
        || sel
            .having
            .as_ref()
            .is_some_and(|h| h.contains_aggregate(&is_agg));
    if sel.group_by.is_none() && !aggregates {
        if sel.having.is_some() {
            return Err(SqlError::Plan(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        return bind_projection(&sel.items, base).map(Bound::Projection);
    }

    let empty_clause = GroupByClause::default();
    let clause = sel.group_by.as_ref().unwrap_or(&empty_clause);
    let dims = bind_dims(clause, &base)?;
    let mut calls = Vec::new();
    for e in sel.items.iter().map(|it| &it.expr).chain(&sel.having) {
        collect_aggregates(e, &is_agg, &mut calls);
    }
    let (aggs, computed, widened) = bind_aggs(calls, &base, snap)?;
    let sets = family(clause, &dims)?;

    // The cube relation: what HAVING and the select list are typed against.
    let mut cube_cols = Vec::with_capacity(dims.len() + aggs.len());
    let mut substitutions = HashMap::new();
    for d in &dims {
        substitutions.insert(d.expr.canonical(), cube_cols.len());
        substitutions.insert(d.dimension.name.to_string(), cube_cols.len());
        cube_cols.push(ColumnDef::with_all(&*d.dimension.name, d.dimension.dtype));
    }
    for a in &aggs {
        substitutions.insert(a.call.canonical.clone(), cube_cols.len());
        cube_cols.push(ColumnDef::new(
            &*a.spec.output,
            a.spec.output_type(&widened)?,
        ));
    }
    let cube_schema = Schema::new(cube_cols)?;
    let (mut items, mut having) = (sel.items.clone(), sel.having.clone());
    let longest = substitutions.keys().map(String::len).max().unwrap_or(0);
    for e in items.iter_mut().map(|it| &mut it.expr).chain(&mut having) {
        nest_prefixes(e, &substitutions, longest);
    }
    let scope = Scope {
        ctx: EvalContext {
            schema: &cube_schema,
            scalars: &snap.scalars,
            substitutions,
        },
        base: Some(&widened),
    };
    if let Some(h) = &having {
        infer_type(h, &scope.ctx)?;
    }
    let outputs = scope.bind_outputs(&items)?;
    Ok(Bound::Aggregate(AggregatePlan {
        dims,
        aggs,
        computed,
        sets,
        having,
        outputs,
        substitutions: scope.ctx.substitutions,
    }))
}

/// Re-nest each operator run in `expr` at its longest head whose text is a
/// substitution key (`a + b + 1` under `GROUP BY a + b`), so [`eval`] reads
/// that head from the cube relation; the canonical text is unchanged. A
/// head's text grows a link at a time, up to `longest`, the longest key.
fn nest_prefixes(expr: &mut Expr, keys: &HashMap<String, usize>, longest: usize) {
    if let Expr::Chain { first, rest } = expr {
        let (mut head, mut at) = (first.canonical(), 0);
        for (k, (op, e)) in rest.iter().enumerate() {
            if head.len() >= longest {
                break;
            }
            head = format!("({head} {} {})", op.symbol(), e.canonical());
            at = if keys.contains_key(&head) { k + 1 } else { at };
        }
        if (1..rest.len()).contains(&at) {
            let head = std::mem::replace(&mut **first, Expr::Star);
            **first = Expr::Chain {
                first: Box::new(head),
                rest: rest.drain(..at).collect(),
            };
        }
    }
    for child in expr.children_mut() {
        nest_prefixes(child, keys, longest);
    }
}

/// The select list of a plain block. A lone `*` is every input column.
fn bind_projection(items: &[SelectItem], input: EvalContext) -> SqlResult<Vec<Output>> {
    if let [SelectItem {
        expr: Expr::Star, ..
    }] = items
    {
        let column = |(i, def): (usize, &ColumnDef)| Output {
            def: def.clone(),
            source: Source::Column(i),
        };
        let columns = input.schema.columns().iter().enumerate();
        return Ok(columns.map(column).collect());
    }
    let scope = Scope {
        ctx: input,
        base: None,
    };
    scope.bind_outputs(items)
}

/// The dimension list of a clause, in answer-column order. A GROUPING SETS
/// clause names each distinct expression once (keyed by canonical text);
/// an alias given at any of its occurrences names the dimension, and two
/// different aliases for one expression are an error.
pub(crate) fn bind_dims(clause: &GroupByClause, input: &EvalContext) -> SqlResult<Vec<PlanDim>> {
    let mut exprs: Vec<&GroupExpr> = clause.all_exprs();
    for g in clause.grouping_sets.iter().flatten().flatten() {
        let (Some(alias), canon) = (&g.alias, g.expr.canonical()) else {
            continue;
        };
        let Some(first) = exprs.iter_mut().find(|e| e.expr.canonical() == canon) else {
            continue;
        };
        match &first.alias {
            None => *first = g,
            Some(other) if other == alias => {}
            Some(other) => {
                return Err(SqlError::Plan(format!(
                    "grouping expression {canon} has two aliases: {other} and {alias}"
                )))
            }
        }
    }
    let mut dims: Vec<PlanDim> = Vec::with_capacity(exprs.len());
    for g in exprs {
        let name = g.output_name();
        if dims.iter().any(|d| *d.dimension.name == *name) {
            return Err(SqlError::Plan(format!("duplicate grouping column: {name}")));
        }
        let ty = infer_type(&g.expr, input)?;
        let column = match &g.expr {
            Expr::Column {
                qualifier: None,
                name,
            } => Some(name.clone()),
            _ => None,
        };
        let mut dimension = if column.as_deref() == Some(&*name) {
            Dimension::column(&name)
        } else {
            let (expr, schema) = (g.expr.clone(), input.schema.clone());
            let scalars = input.scalars.clone();
            Dimension::computed(&name, ty, move |row: &Row| {
                let ctx = EvalContext::base(&schema, &scalars);
                eval(&expr, row, &ctx).unwrap_or(Value::Null)
            })
        };
        dimension.dtype = ty;
        dims.push(PlanDim {
            dimension,
            expr: g.expr.clone(),
            column,
        });
    }
    Ok(dims)
}

/// The grouping-set family a clause denotes over its dimension list: §3.1's
/// algebra for the compound form ([`CompoundSpec`]), or the listed GROUPING
/// SETS, each expression looked up by the canonical text [`bind_dims`]
/// keyed it by.
pub(crate) fn family(clause: &GroupByClause, dims: &[PlanDim]) -> SqlResult<Vec<GroupingSet>> {
    let Some(sets) = &clause.grouping_sets else {
        let mut blocks = dims.iter().map(|d| d.dimension.clone());
        let mut block = |n: usize| blocks.by_ref().take(n).collect::<Vec<_>>();
        let spec = CompoundSpec::new()
            .group_by(block(clause.plain.len()))
            .rollup(block(clause.rollup.len()))
            .cube(block(clause.cube.len()));
        return Ok(spec.grouping_sets()?);
    };
    let mut family = Vec::with_capacity(sets.len());
    for set in sets {
        let position = |g: &GroupExpr| {
            let canon = g.expr.canonical();
            let at = dims.iter().position(|d| d.expr.canonical() == canon);
            at.ok_or_else(|| SqlError::Plan(format!("{canon} is not a grouping dimension")))
        };
        let indices: Vec<usize> = set.iter().map(position).collect::<SqlResult<_>>()?;
        let set = GroupingSet::from_dims(&indices)?;
        if !family.contains(&set) {
            family.push(set);
        }
    }
    Ok(family)
}

/// How many grouping sets [`family`] enumerates for `clause`, in closed
/// form and saturating: what admission prices a statement by before it is
/// bound (a 40-dimension CUBE must be refused, not enumerated).
pub(crate) fn set_count(clause: &GroupByClause) -> u64 {
    match &clause.grouping_sets {
        Some(sets) => {
            let key = |set: &Vec<GroupExpr>| -> BTreeSet<String> {
                set.iter().map(|g| g.expr.canonical()).collect()
            };
            sets.iter().map(key).collect::<HashSet<_>>().len() as u64
        }
        None => {
            let cube_bits = (clause.cube.len() as u32).min(40);
            (clause.rollup.len() as u64 + 1).saturating_mul(1u64 << cube_bits)
        }
    }
}

/// Bind the collected calls: resolve each function, and give each computed
/// argument a column (`__arg<k>`, shared by calls with the same argument
/// text) of the widened schema, returned too.
#[allow(clippy::type_complexity)]
fn bind_aggs(
    calls: Vec<AggCall>,
    input: &EvalContext,
    snap: &CatalogSnapshot,
) -> SqlResult<(Vec<PlanAgg>, Vec<(ColumnDef, Expr)>, Schema)> {
    let mut widened = input.schema.clone();
    let mut computed: Vec<(ColumnDef, Expr)> = Vec::new();
    let mut aggs = Vec::with_capacity(calls.len());
    for (k, call) in calls.into_iter().enumerate() {
        let func = resolve_call(&call, snap)?;
        let spec = match &call.args[0] {
            Expr::Star => AggSpec::star(func),
            Expr::Column { name, .. } => {
                widened.index_of(name)?;
                AggSpec::new(func, name)
            }
            arg => {
                let canon = arg.canonical();
                let at = match computed.iter().position(|(_, e)| e.canonical() == canon) {
                    Some(at) => at,
                    None => {
                        let def = ColumnDef::new(format!("__arg{k}"), infer_type(arg, input)?);
                        widened.push(def.clone())?;
                        computed.push((def, arg.clone()));
                        computed.len() - 1
                    }
                };
                AggSpec::new(func, &*computed[at].0.name)
            }
        };
        aggs.push(PlanAgg {
            spec: spec.with_name(format!("__agg{k}")),
            call,
        });
    }
    if aggs.is_empty() {
        return Err(SqlError::Plan(
            "GROUP BY queries need at least one aggregate in the select list".into(),
        ));
    }
    Ok((aggs, computed, widened))
}

/// The function an aggregate call denotes — the one place the call →
/// function rule lives: `COUNT(*)`, `COUNT(DISTINCT x)`, the parameterized
/// family, then the registry. Guarantees the call has a first argument.
fn resolve_call(call: &AggCall, snap: &CatalogSnapshot) -> SqlResult<AggRef> {
    let is_count = call.name.eq_ignore_ascii_case("count");
    let bad = |what: &str| Err(SqlError::Plan(format!("{what}: {}", call.canonical)));
    match (call.args.first(), call.distinct) {
        (None, _) => bad("aggregate needs an argument"),
        (Some(Expr::Star), false) if is_count => Ok(snap.aggs.get("COUNT(*)")?),
        (Some(Expr::Star), _) => bad("'*' is only valid in COUNT(*)"),
        (Some(_), true) if !is_count => bad("DISTINCT is only supported on COUNT"),
        (Some(_), true) if call.args.len() != 1 => bad("COUNT(DISTINCT ...) takes one argument"),
        (Some(_), true) => Ok(snap.aggs.get("COUNT DISTINCT")?),
        (Some(_), false) => match parameterized_aggregate(&call.name, &call.args)? {
            Some(f) => Ok(f),
            None if call.args.len() != 1 => bad("aggregates take one argument"),
            None => Ok(snap.aggs.get(&call.name)?),
        },
    }
}

/// The relation a select list is bound against.
struct Scope<'a> {
    /// The cube relation with the plan's substitutions, or the FROM
    /// relation of a plain block.
    ctx: EvalContext<'a>,
    /// The (widened) FROM relation whose columns may decorate an aggregate
    /// block's output; `None` for a plain block.
    base: Option<&'a Schema>,
}

impl Scope<'_> {
    fn bind_outputs(&self, items: &[SelectItem]) -> SqlResult<Vec<Output>> {
        let bound: Vec<(DataType, Source)> = items
            .iter()
            .map(|it| self.bind_item(&it.expr))
            .collect::<SqlResult<_>>()?;
        let names = uniquify(items.iter().map(SelectItem::output_name).collect());
        let output = |(name, (dtype, source)): (String, (DataType, Source))| Output {
            def: ColumnDef {
                name: name.as_str().into(),
                dtype,
                // Output grouping columns keep ALL-permission.
                all_allowed: self.base.is_some(),
            },
            source,
        };
        Ok(names.into_iter().zip(bound).map(output).collect())
    }

    /// Classify one select item.
    fn bind_item(&self, expr: &Expr) -> SqlResult<(DataType, Source)> {
        if *expr == Expr::Star {
            return Err(SqlError::Plan(match self.base {
                Some(_) => "SELECT * cannot be combined with GROUP BY".into(),
                None => "'*' must be the only select item".into(),
            }));
        }
        if let Some((kind, arg)) = ordered_aggregate(expr)? {
            infer_type(&arg, &self.ctx)?;
            return Ok((kind.output_type(), Source::Ordered { kind, arg }));
        }
        match (infer_type(expr, &self.ctx), self.base) {
            (Ok(ty), _) => Ok(match self.ctx.substitutions.get(&expr.canonical()) {
                Some(&i) => (ty, Source::Column(i)),
                None => (ty, Source::Expr(expr.clone())),
            }),
            (Err(e), None) => Err(e),
            // Not resolvable over the cube relation: a base column
            // functionally dependent on the grouping columns (§3.5)?
            (Err(_), Some(base)) => {
                let Expr::Column { name: col, .. } = expr else {
                    return Err(SqlError::Plan(format!(
                        "select item is neither a grouping expression, an \
                         aggregate, nor a decoration: {}",
                        expr.canonical()
                    )));
                };
                let def = base.column(col).map_err(|_| {
                    SqlError::Plan(format!(
                        "select item '{col}' is neither a grouping column, an aggregate, \
                         nor a base column"
                    ))
                })?;
                Ok((def.dtype, Source::Decoration(col.clone())))
            }
        }
    }
}

/// The literal second argument that configures a function (`MAXN(x, n)`,
/// `N_TILE(x, n)`) rather than feeding it data: a positive integer.
fn count_parameter(upper: &str, args: &[Expr]) -> SqlResult<usize> {
    match args.get(1) {
        Some(Expr::Literal(Value::Int(n))) if *n >= 1 => Ok(*n as usize),
        // cube-lint: allow(wildcard, scrutinee is Option<Expr>; this is the user-error arm)
        _ => Err(SqlError::Plan(format!(
            "{upper} requires a positive integer literal as its second argument"
        ))),
    }
}

/// Parameterized aggregates constructed per call site: `MAXN(x, n)`,
/// `MINN(x, n)` (the paper's algebraic examples), and `PERCENTILE(x, p)`
/// (holistic).
fn parameterized_aggregate(name: &str, args: &[Expr]) -> SqlResult<Option<AggRef>> {
    let upper = name.to_uppercase();
    let func: AggRef = match upper.as_str() {
        "MAXN" => Arc::new(dc_aggregate::algebraic::MaxN(count_parameter(
            &upper, args,
        )?)),
        "MINN" => Arc::new(dc_aggregate::algebraic::MinN(count_parameter(
            &upper, args,
        )?)),
        "PERCENTILE" => match args.get(1) {
            Some(Expr::Literal(Value::Float(p))) if *p > 0.0 && *p <= 1.0 => {
                Arc::new(dc_aggregate::holistic::Percentile(*p))
            }
            // cube-lint: allow(wildcard, scrutinee is Option<Expr>; this is the user-error arm)
            _ => {
                return Err(SqlError::Plan(
                    "PERCENTILE requires a literal fraction in (0, 1] as its \
                     second argument"
                        .into(),
                ))
            }
        },
        _ => return Ok(None),
    };
    if args.len() != 2 {
        return Err(SqlError::Plan(format!("{upper} takes 2 arguments")));
    }
    Ok(Some(func))
}

/// The Red Brick ordered aggregates (§1.2), recognized at the top level of
/// a select item: `RANK(x)`, `N_TILE(x, n)`, `RATIO_TO_TOTAL(x)`,
/// `CUMULATIVE(x)`, `RUNNING_SUM(x, n)`, `RUNNING_AVG(x, n)`. They map a
/// whole output column to a column, evaluated in the result's order — the
/// paper's "ROLLUP and CUBE must be ordered for cumulative operators to
/// apply".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OrderedKind {
    Rank,
    NTile(usize),
    RatioToTotal,
    Cumulative,
    RunningSum(usize),
    RunningAvg(usize),
}

impl OrderedKind {
    fn output_type(self) -> DataType {
        match self {
            OrderedKind::Rank | OrderedKind::NTile(_) => DataType::Int,
            _ => DataType::Float,
        }
    }

    pub(crate) fn apply(self, values: &[Value]) -> SqlResult<Vec<Value>> {
        use dc_aggregate::ordered;
        Ok(match self {
            OrderedKind::Rank => ordered::rank(values),
            OrderedKind::NTile(n) => ordered::n_tile(values, n)?,
            OrderedKind::RatioToTotal => ordered::ratio_to_total(values),
            OrderedKind::Cumulative => ordered::cumulative(values),
            OrderedKind::RunningSum(n) => ordered::running_sum(values, n)?,
            OrderedKind::RunningAvg(n) => ordered::running_average(values, n)?,
        })
    }
}

/// Recognize an ordered-aggregate call; returns its kind and argument
/// expression.
pub(crate) fn ordered_aggregate(expr: &Expr) -> SqlResult<Option<(OrderedKind, Expr)>> {
    let Expr::Func {
        name,
        distinct,
        args,
    } = expr
    else {
        return Ok(None);
    };
    let upper = name.to_uppercase();
    let n = || count_parameter(&upper, args);
    let (kind, expected_args) = match upper.as_str() {
        "RANK" => (OrderedKind::Rank, 1),
        "RATIO_TO_TOTAL" => (OrderedKind::RatioToTotal, 1),
        "CUMULATIVE" => (OrderedKind::Cumulative, 1),
        "N_TILE" => (OrderedKind::NTile(n()?), 2),
        "RUNNING_SUM" => (OrderedKind::RunningSum(n()?), 2),
        "RUNNING_AVG" => (OrderedKind::RunningAvg(n()?), 2),
        _ => return Ok(None),
    };
    if *distinct {
        return Err(SqlError::Plan(format!("DISTINCT is not valid in {upper}")));
    }
    if args.len() != expected_args {
        return Err(SqlError::Plan(format!(
            "{upper} takes {expected_args} argument(s), got {}",
            args.len()
        )));
    }
    Ok(Some((kind, args[0].clone())))
}

/// Make output column names unique the way SQL result sets allow duplicate
/// labels but our schemas do not: repeated names get `_2`, `_3`, ...
pub(crate) fn uniquify(names: Vec<String>) -> Vec<String> {
    let mut seen: HashMap<String, usize> = HashMap::new();
    names
        .into_iter()
        .map(|n| {
            let count = seen.entry(n.clone()).or_insert(0);
            *count += 1;
            if *count == 1 {
                n
            } else {
                format!("{n}_{count}")
            }
        })
        .collect()
}

/// Collect maximal aggregate calls, deduplicated by canonical text.
pub(crate) fn collect_aggregates(
    expr: &Expr,
    is_agg: &dyn Fn(&str) -> bool,
    out: &mut Vec<AggCall>,
) {
    match expr {
        Expr::Func {
            name,
            distinct,
            args,
        } if is_agg(name) || (*distinct && name.eq_ignore_ascii_case("count")) => {
            let canonical = expr.canonical();
            if !out.iter().any(|c| c.canonical == canonical) {
                out.push(AggCall {
                    name: name.clone(),
                    distinct: *distinct,
                    args: args.clone(),
                    canonical,
                });
            }
        }
        _ => {
            for child in expr.children() {
                collect_aggregates(child, is_agg, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// The closed form admission uses and the enumeration everything else
    /// reads are one rule: equal wherever the family exists.
    #[test]
    fn set_count_is_the_size_of_the_family() {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
            ("v", DataType::Int),
        ]);
        let scalars = crate::scalar::builtins();
        let input = EvalContext::base(&schema, &scalars);
        for clause in [
            "a",
            "a, b, c",
            "ROLLUP a, b, c",
            "CUBE a, b, c",
            "a ROLLUP b CUBE c",
            "c CUBE a, b",
            "ROLLUP a CUBE b, c",
            "GROUPING SETS ((a), (b), ())",
            "GROUPING SETS ((a, b), (b, a), (a), (a))",
            "GROUPING SETS ((a AS x), (a, b), (c, a AS x))",
            "GROUPING SETS (())",
        ] {
            let sql = format!("SELECT SUM(v) FROM t GROUP BY {clause}");
            let Ok(Statement::Select(stmt)) = parse(&sql) else {
                panic!("not a select: {sql}");
            };
            let clause = stmt.group_by.unwrap();
            let dims = bind_dims(&clause, &input).unwrap();
            let family = family(&clause, &dims).unwrap();
            assert_eq!(set_count(&clause), family.len() as u64, "{sql}");
        }
    }
}
