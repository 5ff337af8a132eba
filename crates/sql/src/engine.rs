//! The query engine: shared catalog, planner, and executor.
//!
//! Aggregation queries are planned onto [`datacube::CubeQuery`], so a SQL
//! `GROUP BY a ROLLUP b CUBE c` runs through exactly the operator algebra
//! and §5 algorithms of the paper. The SELECT list is then computed over
//! the cube *relation* — which is the paper's point: the cube composes
//! with projection, HAVING, ORDER BY, UNION, and decoration like any
//! other table.
//!
//! Concurrency shape (see DESIGN.md "Concurrent serving"): the [`Engine`]
//! owns the [`SharedCatalog`] and the [`AdmissionController`] and embeds
//! one default [`Session`] so the single-caller API is unchanged.
//! [`Engine::session`] mints further sessions — each with private
//! options and cancel token — that execute against catalog *snapshots*,
//! so no lock is held while a query runs. The stateless executor is
//! [`QueryRuntime`]: one per statement, built from a snapshot plus the
//! session's effective limits.

use crate::admission::{AdmissionController, ServiceConfig};
use crate::ast::*;
use crate::cache::CubeCache;
use crate::catalog::{CatalogSnapshot, SharedCatalog};
use crate::error::{SqlError, SqlResult};
use crate::eval::{eval, infer_type, EvalContext};
use crate::scalar::ScalarFn;
use crate::session::Session;
use datacube::{
    AggSpec, Algorithm, AncestorRequest, CancelToken, CompoundSpec, CubeQuery, Dimension,
    ExecLimits, GroupingSet,
};
use dc_aggregate::AggRef;
use dc_relation::{ColumnDef, DataType, Row, Schema, Table, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A SQL engine over an in-memory catalog, shareable across threads.
///
/// ```
/// use dc_sql::Engine;
/// use dc_relation::{row, DataType, Schema, Table};
///
/// let mut engine = Engine::new();
/// let schema = Schema::from_pairs(&[
///     ("model", DataType::Str),
///     ("units", DataType::Int),
/// ]);
/// let sales = Table::new(schema, vec![
///     row!["Chevy", 50],
///     row!["Ford", 60],
/// ]).unwrap();
/// engine.register_table("Sales", sales).unwrap();
///
/// let out = engine
///     .execute("SELECT model, SUM(units) AS total FROM Sales GROUP BY CUBE model")
///     .unwrap();
/// assert_eq!(out.len(), 3); // Chevy, Ford, and the ALL row
/// ```
pub struct Engine {
    catalog: SharedCatalog,
    admission: Arc<AdmissionController>,
    cache: Arc<CubeCache>,
    /// The engine's own default session, so the single-caller API
    /// (`execute`, `set_option`, `set_cancel_token`) works unchanged.
    session: Session,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the built-in aggregate and scalar functions and no
    /// admission limits — identical to pre-service behaviour.
    pub fn new() -> Self {
        Engine::with_service(ServiceConfig::default())
    }

    /// An engine governed by service-level admission control: a global
    /// cell budget apportioned across in-flight queries, bounded
    /// queueing, load shedding, and a reserved cheap lane.
    pub fn with_service(cfg: ServiceConfig) -> Self {
        let catalog = SharedCatalog::new();
        let admission = AdmissionController::new(cfg);
        let cache = CubeCache::new(Arc::clone(&admission));
        let session = Session::new(catalog.clone(), Arc::clone(&admission), Arc::clone(&cache));
        Engine {
            catalog,
            admission,
            cache,
            session,
        }
    }

    /// Mint a new session sharing this engine's catalog, admission
    /// controller, and lattice cache, with its own options and cancel
    /// token. Sessions are `Send + Sync`; hand one to each thread or
    /// connection.
    pub fn session(&self) -> Session {
        Session::new(
            self.catalog.clone(),
            Arc::clone(&self.admission),
            Arc::clone(&self.cache),
        )
    }

    /// The shared admission controller (counters for observability).
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// The engine-wide lattice cache (enable/disable, budget, counters).
    pub fn cube_cache(&self) -> &Arc<CubeCache> {
        &self.cache
    }

    /// Owned handles to the shared service state, for the server's accept
    /// thread to mint per-connection sessions without borrowing `self`.
    pub(crate) fn service_parts(
        &self,
    ) -> (SharedCatalog, Arc<AdmissionController>, Arc<CubeCache>) {
        (
            self.catalog.clone(),
            Arc::clone(&self.admission),
            Arc::clone(&self.cache),
        )
    }

    /// Register a base table (case-insensitive name).
    pub fn register_table(&mut self, name: impl AsRef<str>, table: Table) -> SqlResult<()> {
        self.catalog.with_write(|c| c.register_table(name, table))
    }

    /// Replace a registered table's contents under the same name — the
    /// maintenance path for `MaterializedCube`-backed tables. Bumps the
    /// catalog version and eagerly invalidates cached subcube views, so a
    /// query admitted after this call can never see a stale cell.
    pub fn update_table(&self, name: impl AsRef<str>, table: Table) -> SqlResult<()> {
        let name = name.as_ref();
        self.catalog.with_write(|c| c.update_table(name, table))?;
        self.cache.invalidate_table(name);
        Ok(())
    }

    /// Register a user-defined aggregate (the §1.2 extension mechanism).
    pub fn register_aggregate(&mut self, f: AggRef) -> SqlResult<()> {
        self.catalog.with_write(|c| c.register_aggregate(f))
    }

    /// Register a scalar function (e.g. the paper's `Nation(lat, lon)`).
    pub fn register_scalar(&mut self, f: ScalarFn) -> SqlResult<()> {
        self.catalog.with_write(|c| c.register_scalar(f))
    }

    /// A registered table, by name.
    pub fn table(&self, name: &str) -> SqlResult<Arc<Table>> {
        self.catalog.snapshot().table(name)
    }

    /// Parse and execute one statement on the engine's default session.
    pub fn execute(&self, sql: &str) -> SqlResult<Table> {
        self.session.execute(sql)
    }

    /// Set one execution option on the engine's default session (see
    /// [`Session::set_option`]). Other sessions are unaffected.
    pub fn set_option(&self, name: &str, value: i64) -> SqlResult<()> {
        self.session.set_option(name, value)
    }

    /// Attach (or clear, with `None`) a cancellation token on the
    /// engine's default session (see [`Session::set_cancel_token`]).
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        self.session.set_cancel_token(token)
    }
}

/// The stateless statement executor: a catalog snapshot plus the
/// session's effective execution parameters. Built per statement by
/// [`Session`]; holds no locks, so concurrent runtimes never contend.
pub(crate) struct QueryRuntime {
    pub(crate) snap: CatalogSnapshot,
    pub(crate) limits: ExecLimits,
    pub(crate) threads: u64,
    /// The statement's wall-clock deadline (`limits.timeout` is what was
    /// left of it when execution started; work that starts later, like the
    /// populate-on-miss view build, re-derives its share from this).
    pub(crate) deadline: Option<std::time::Instant>,
    /// The engine's lattice cache, when the session has `CUBE_CACHE ON`
    /// (`None` both when the option is off and for EXPLAIN, which must
    /// not touch traffic counters).
    pub(crate) cache: Option<Arc<CubeCache>>,
    /// Set by `exec_aggregate` when a statement was answered by
    /// re-aggregating a materialized ancestor: `(hit, ancestor_bits)`.
    /// The session folds this into its last-statement [`ExecStats`].
    pub(crate) cache_touch: std::cell::Cell<(bool, u32)>,
}

/// How one aggregate statement maps onto the lattice cache, when it is
/// eligible at all. `dim_keys`/`agg_keys` are the canonical base-column
/// names the cache indexes views by ([`crate::cache::CubeCache`]); `sets`
/// is the statement's grouping-set family over the query's dimension
/// order, ready for [`datacube::CachedView::answer`].
struct CachePlan {
    table: String,
    version: u64,
    dim_keys: Vec<String>,
    agg_keys: Vec<String>,
    sets: Vec<GroupingSet>,
}

impl QueryRuntime {
    /// Is `name` an aggregate in this snapshot (registry built-ins, UDAs,
    /// or the parameterized MAXN/MINN/PERCENTILE family)?
    fn is_aggregate_name(&self, name: &str) -> bool {
        self.snap.aggs.get(name).is_ok()
            || matches!(name.to_uppercase().as_str(), "MAXN" | "MINN" | "PERCENTILE")
    }

    /// The cube algorithm this session's statements run: `SET THREADS`
    /// selects partition-parallel aggregation.
    fn algorithm(&self) -> Algorithm {
        match self.threads {
            0 => Algorithm::Auto,
            threads => Algorithm::Parallel {
                threads: threads as usize,
            },
        }
    }

    /// `EXPLAIN SELECT ...`: a one-column relation describing the plan —
    /// which tables are scanned, the grouping-set lattice, and how each
    /// aggregate's §5 taxonomy routes it (cascade vs 2^N).
    pub(crate) fn explain_select(&self, stmt: &SelectStmt) -> SqlResult<Table> {
        let mut lines: Vec<String> = Vec::new();
        let mut cursor = Some(stmt);
        let mut block = 0;
        while let Some(sel) = cursor {
            if block > 0 {
                lines.push(format!("UNION branch {block}:"));
            }
            lines.push(format!("  scan: {}", describe_from(&sel.from)));
            if sel.where_clause.is_some() {
                lines.push("  filter: WHERE (three-valued; unknown rows dropped)".into());
            }
            if let Some(g) = &sel.group_by {
                let n_sets = if let Some(sets) = &g.grouping_sets {
                    lines.push(format!(
                        "  aggregate: GROUPING SETS over {} dimension(s)",
                        g.all_exprs().len()
                    ));
                    sets.len()
                } else {
                    let (p, r, c) = (g.plain.len(), g.rollup.len(), g.cube.len());
                    lines.push(format!(
                        "  aggregate: GROUP BY {p} dim(s), ROLLUP {r}, CUBE {c}"
                    ));
                    (r + 1) << c
                };
                lines.push(format!("    grouping sets: {n_sets}"));
                for g in g.all_exprs() {
                    lines.push(format!("    dimension: {}", g.output_name()));
                }
            }
            let is_agg = |n: &str| self.is_aggregate_name(n);
            let mut calls = Vec::new();
            for it in &sel.items {
                collect_aggregates(&it.expr, &is_agg, &mut calls);
            }
            if let Some(h) = &sel.having {
                collect_aggregates(h, &is_agg, &mut calls);
            }
            let mut funcs = Vec::with_capacity(calls.len());
            for call in &calls {
                if let Expr::Func {
                    name,
                    distinct,
                    args,
                } = call
                {
                    let func = if *distinct {
                        self.snap.aggs.get("COUNT DISTINCT")?
                    } else if matches!(args.first(), Some(Expr::Star)) {
                        self.snap.aggs.get("COUNT(*)")?
                    } else if let Some(param) = parameterized_aggregate(name, args)? {
                        param
                    } else {
                        self.snap.aggs.get(name)?
                    };
                    let kind = func.kind();
                    lines.push(format!("    aggregate fn: {} [{kind:?}]", call.canonical()));
                    funcs.push(func);
                }
            }
            if !funcs.is_empty() {
                let funcs: Vec<_> = funcs.iter().map(|f| &**f).collect();
                let plan = datacube::algorithm::describe_plan(self.algorithm(), &funcs);
                lines.push(format!("    algorithm: {plan}"));
            }
            if sel.having.is_some() {
                lines.push("  filter: HAVING over the cube relation".into());
            }
            cursor = sel.union.as_ref().map(|(_, rhs)| rhs.as_ref());
            block += 1;
        }
        if !stmt.order_by.is_empty() {
            lines.push(format!("  sort: ORDER BY {} key(s)", stmt.order_by.len()));
        }
        if let Some(n) = stmt.limit {
            lines.push(format!("  limit: {n}"));
        }
        let schema = Schema::new(vec![ColumnDef::new("plan", DataType::Str)])?;
        let mut out = Table::empty(schema);
        for l in lines {
            out.push_unchecked(Row::new(vec![Value::str(l)]));
        }
        Ok(out)
    }

    // ---------------------------------------------------------- executor --

    pub(crate) fn exec_select(&self, stmt: &SelectStmt) -> SqlResult<Table> {
        let mut result = self.exec_single(stmt)?;
        let mut cursor = &stmt.union;
        while let Some((all, rhs)) = cursor {
            let r = self.exec_single(rhs)?;
            result = if *all {
                result.union_all(&r)?
            } else {
                result.union(&r)?
            };
            cursor = &rhs.union;
        }
        self.apply_order_limit(result, stmt)
    }

    fn exec_single(&self, stmt: &SelectStmt) -> SqlResult<Table> {
        let base = self.resolve_from(&stmt.from)?;

        // Resolve scalar subqueries everywhere up front (uncorrelated).
        let items: Vec<SelectItem> = stmt
            .items
            .iter()
            .map(|it| {
                Ok(SelectItem {
                    expr: self.resolve_subqueries(&it.expr)?,
                    alias: it.alias.clone(),
                })
            })
            .collect::<SqlResult<_>>()?;
        let where_clause = stmt
            .where_clause
            .as_ref()
            .map(|e| self.resolve_subqueries(e))
            .transpose()?;
        let having = stmt
            .having
            .as_ref()
            .map(|e| self.resolve_subqueries(e))
            .transpose()?;

        // WHERE.
        let filtered = match &where_clause {
            Some(pred) => {
                let ctx = EvalContext::base(base.schema(), &self.snap.scalars);
                // Validate once so unknown columns error instead of
                // silently filtering everything.
                if let Some(first) = base.rows().first() {
                    eval(pred, first, &ctx)?;
                } else {
                    infer_type(pred, base.schema(), &self.snap.scalars, &HashMap::new())?;
                }
                let mut kept = Table::empty(base.schema().clone());
                for row in base.rows() {
                    if eval(pred, row, &ctx)? == Value::Bool(true) {
                        kept.push_unchecked(row.clone());
                    }
                }
                Arc::new(kept)
            }
            None => base,
        };

        let is_agg = |n: &str| self.is_aggregate_name(n);
        let has_aggregates = items.iter().any(|it| it.expr.contains_aggregate(&is_agg))
            || having
                .as_ref()
                .is_some_and(|h| h.contains_aggregate(&is_agg));

        if stmt.group_by.is_some() || has_aggregates {
            self.exec_aggregate(stmt, &items, having.as_ref(), filtered)
        } else {
            if having.is_some() {
                return Err(SqlError::Plan(
                    "HAVING requires GROUP BY or aggregates".into(),
                ));
            }
            self.exec_projection(&items, filtered)
        }
    }

    /// Plain projection (no aggregation).
    fn exec_projection(&self, items: &[SelectItem], input: Arc<Table>) -> SqlResult<Table> {
        // SELECT * expands to all input columns.
        if items.len() == 1 && items[0].expr == Expr::Star {
            return Ok(Arc::try_unwrap(input).unwrap_or_else(|shared| (*shared).clone()));
        }
        let ctx = EvalContext::base(input.schema(), &self.snap.scalars);
        // Each item is either a per-row expression or an ordered aggregate
        // over the column of its argument (§1.2's Red Brick functions work
        // directly on ordered selections too).
        let mut kinds: Vec<Option<OrderedKind>> = Vec::with_capacity(items.len());
        let mut exprs: Vec<Expr> = Vec::with_capacity(items.len());
        let mut types = Vec::with_capacity(items.len());
        for it in items {
            if it.expr == Expr::Star {
                return Err(SqlError::Plan("'*' must be the only select item".into()));
            }
            if let Some((kind, arg)) = ordered_aggregate(&it.expr)? {
                types.push(kind.output_type());
                kinds.push(Some(kind));
                exprs.push(arg);
            } else {
                types.push(infer_type(
                    &it.expr,
                    input.schema(),
                    &self.snap.scalars,
                    &HashMap::new(),
                )?);
                kinds.push(None);
                exprs.push(it.expr.clone());
            }
        }
        let names = uniquify(items.iter().map(SelectItem::output_name).collect());
        let cols = names
            .into_iter()
            .zip(types)
            .map(|(n, t)| ColumnDef::new(n, t))
            .collect();
        let schema = Schema::new(cols)?;

        let mut columns: Vec<Vec<Value>> = exprs
            .iter()
            .map(|_| Vec::with_capacity(input.len()))
            .collect();
        for row in input.rows() {
            for (e, col) in exprs.iter().zip(columns.iter_mut()) {
                col.push(eval(e, row, &ctx)?);
            }
        }
        for (kind, col) in kinds.iter().zip(columns.iter_mut()) {
            if let Some(k) = kind {
                *col = k.apply(col)?;
            }
        }
        let mut out = Table::empty(schema);
        for i in 0..input.len() {
            out.push_unchecked(Row::new(columns.iter().map(|c| c[i].clone()).collect()));
        }
        Ok(out)
    }

    /// Decide whether this aggregate statement can be served by (and feed)
    /// the lattice cache. `None` disqualifies it: no cache attached, a
    /// join or WHERE clause (cached views cover whole base tables only),
    /// computed dimensions or aggregate arguments (views are keyed by base
    /// column names), an aggregate outside the rewrite-legal set (see
    /// [`datacube::rewritable`]), or a lattice wider than
    /// [`GroupingSet::MAX_DIMS`].
    fn plan_cache(
        &self,
        stmt: &SelectStmt,
        clause: &GroupByClause,
        group_exprs: &[&GroupExpr],
        agg_calls: &[Expr],
        agg_specs: &[AggSpec],
        arg_columns: &HashMap<String, String>,
    ) -> Option<CachePlan> {
        self.cache.as_ref()?;
        let TableRef::Named(table) = &stmt.from else {
            return None;
        };
        if stmt.where_clause.is_some() || !arg_columns.is_empty() {
            return None;
        }
        let dim_keys: Vec<String> = group_exprs
            .iter()
            .map(|g| match &g.expr {
                Expr::Column {
                    qualifier: None,
                    name,
                } => Some(name.clone()),
                _ => None,
            })
            .collect::<Option<_>>()?;
        if !agg_specs.iter().all(|s| datacube::rewritable(&s.func)) {
            return None;
        }
        // The call's canonical text, so a parameter is part of the
        // identity: MAXN(v, 2) must never be answered from MAXN(v, 3).
        let agg_keys: Vec<String> = agg_calls.iter().map(Expr::canonical).collect();
        let sets: Vec<GroupingSet> = match &clause.grouping_sets {
            Some(sets) => {
                let index_of = |g: &GroupExpr| {
                    group_exprs
                        .iter()
                        .position(|e| e.output_name() == g.output_name())
                };
                let mut out = Vec::with_capacity(sets.len());
                for s in sets {
                    let idxs: Vec<usize> = s.iter().map(index_of).collect::<Option<_>>()?;
                    out.push(GroupingSet::from_dims(&idxs).ok()?);
                }
                out
            }
            None => {
                // Only the block *lengths* drive the compound expansion, so
                // placeholder dimensions reproduce the statement's lattice.
                let ph = |n: usize| {
                    (0..n)
                        .map(|i| Dimension::column(format!("d{i}")))
                        .collect::<Vec<_>>()
                };
                CompoundSpec::new()
                    .group_by(ph(clause.plain.len()))
                    .rollup(ph(clause.rollup.len()))
                    .cube(ph(clause.cube.len()))
                    .grouping_sets()
                    .ok()?
            }
        };
        Some(CachePlan {
            table: table.clone(),
            version: self.snap.table_version(table),
            dim_keys,
            agg_keys,
            sets,
        })
    }

    /// The aggregation pipeline: working table → CubeQuery → select-list
    /// evaluation over the cube relation.
    fn exec_aggregate(
        &self,
        stmt: &SelectStmt,
        items: &[SelectItem],
        having: Option<&Expr>,
        input: Arc<Table>,
    ) -> SqlResult<Table> {
        let empty_clause = GroupByClause::default();
        let clause = stmt.group_by.as_ref().unwrap_or(&empty_clause);

        // ---- dimensions ------------------------------------------------
        let group_exprs: Vec<&GroupExpr> = clause.all_exprs();
        let mut dim_names: Vec<String> = Vec::new();
        let mut dim_types: Vec<DataType> = Vec::new();
        for g in &group_exprs {
            let name = g.output_name();
            if dim_names.contains(&name) {
                return Err(SqlError::Plan(format!("duplicate grouping column: {name}")));
            }
            dim_types.push(infer_type(
                &g.expr,
                input.schema(),
                &self.snap.scalars,
                &HashMap::new(),
            )?);
            dim_names.push(name);
        }

        // ---- aggregates -------------------------------------------------
        let is_agg = |n: &str| self.is_aggregate_name(n);
        let mut agg_calls: Vec<Expr> = Vec::new();
        for it in items {
            collect_aggregates(&it.expr, &is_agg, &mut agg_calls);
        }
        if let Some(h) = having {
            collect_aggregates(h, &is_agg, &mut agg_calls);
        }

        // ---- working table: computed aggregate arguments -----------------
        // Shared with the snapshot until a computed argument forces a
        // widened copy — plain-column statements (and cache hits) never
        // materialize a private copy of the base rows.
        let mut working = Arc::clone(&input);
        let mut arg_columns: HashMap<String, String> = HashMap::new(); // canonical → col
        for (k, call) in agg_calls.iter().enumerate() {
            let Expr::Func { args, .. } = call else {
                // cube-lint: allow(panic, collect_aggregates only collects Func expressions)
                unreachable!()
            };
            let arg = args.first();
            match arg {
                None => {
                    return Err(SqlError::Plan(format!(
                        "aggregate needs an argument: {}",
                        call.canonical()
                    )))
                }
                Some(Expr::Star) | Some(Expr::Column { .. }) => {}
                Some(expr) => {
                    let canon = expr.canonical();
                    if let std::collections::hash_map::Entry::Vacant(e) = arg_columns.entry(canon) {
                        let col_name = format!("__arg{k}");
                        let ty =
                            infer_type(expr, input.schema(), &self.snap.scalars, &HashMap::new())?;
                        let ctx = EvalContext::base(input.schema(), &self.snap.scalars);
                        let mut schema = working.schema().clone();
                        schema.push(ColumnDef::new(&col_name, ty))?;
                        let mut next = Table::empty(schema);
                        for (row, orig) in working.rows().iter().zip(input.rows()) {
                            let v = eval(expr, orig, &ctx)?;
                            next.push_unchecked(Row::new(
                                row.values().iter().cloned().chain([v]).collect(),
                            ));
                        }
                        working = Arc::new(next);
                        e.insert(col_name);
                    }
                }
            }
        }

        let mut agg_specs: Vec<AggSpec> = Vec::new();
        for (k, call) in agg_calls.iter().enumerate() {
            let Expr::Func {
                name,
                distinct,
                args,
            } = call
            else {
                // cube-lint: allow(panic, collect_aggregates only collects Func expressions)
                unreachable!()
            };
            let out_name = format!("__agg{k}");
            let spec = match (args.first(), *distinct) {
                (Some(Expr::Star), false) if name.eq_ignore_ascii_case("count") => {
                    AggSpec::star(self.snap.aggs.get("COUNT(*)")?).with_name(&out_name)
                }
                (Some(Expr::Star), _) => {
                    return Err(SqlError::Plan(format!(
                        "'*' is only valid in COUNT(*): {}",
                        call.canonical()
                    )))
                }
                (Some(arg), dist) => {
                    let func = if dist {
                        if !name.eq_ignore_ascii_case("count") {
                            return Err(SqlError::Plan(format!(
                                "DISTINCT is only supported on COUNT: {}",
                                call.canonical()
                            )));
                        }
                        if args.len() != 1 {
                            return Err(SqlError::Plan(format!(
                                "COUNT(DISTINCT ...) takes one argument: {}",
                                call.canonical()
                            )));
                        }
                        self.snap.aggs.get("COUNT DISTINCT")?
                    } else if let Some(param) = parameterized_aggregate(name, args)? {
                        param
                    } else {
                        if args.len() != 1 {
                            return Err(SqlError::Plan(format!(
                                "aggregates take one argument: {}",
                                call.canonical()
                            )));
                        }
                        self.snap.aggs.get(name)?
                    };
                    let input_col: String = match arg {
                        Expr::Column { name, .. } => {
                            working.schema().index_of(name)?; // validate
                            name.clone()
                        }
                        other => arg_columns[&other.canonical()].clone(),
                    };
                    AggSpec::new(func, input_col).with_name(&out_name)
                }
                // cube-lint: allow(panic, the argument-less case errored in the arg pass above)
                (None, _) => unreachable!("checked above"),
            };
            agg_specs.push(spec);
        }
        if agg_specs.is_empty() {
            return Err(SqlError::Plan(
                "GROUP BY queries need at least one aggregate in the select list".into(),
            ));
        }

        // ---- lattice cache: ancestor rewrite ------------------------------
        // If the statement is a plain scan of a registered table with
        // plain-column dimensions and rewrite-legal aggregates, try to
        // answer it from a materialized subcube instead of the base rows.
        let cache_plan = self.plan_cache(
            stmt,
            clause,
            &group_exprs,
            &agg_calls,
            &agg_specs,
            &arg_columns,
        );
        let mut cached_answer: Option<Table> = None;
        if let (Some(plan), Some(cache)) = (&cache_plan, &self.cache) {
            if let Some(hit) =
                cache.lookup(&plan.table, plan.version, &plan.dim_keys, &plan.agg_keys)?
            {
                let bpc =
                    datacube::exec::estimate_bytes_per_cell(group_exprs.len(), agg_specs.len());
                let ctx = datacube::ExecContext::new(&self.limits, bpc);
                let dim_name_refs: Vec<&str> = dim_names.iter().map(String::as_str).collect();
                let agg_name_refs: Vec<&str> = agg_specs.iter().map(|s| &*s.output).collect();
                let answered = hit.view.answer(
                    &AncestorRequest {
                        dim_map: &hit.dim_map,
                        dim_names: &dim_name_refs,
                        agg_map: &hit.agg_map,
                        agg_names: &agg_name_refs,
                        sets: &plan.sets,
                    },
                    &ctx,
                )?;
                self.cache_touch.set((true, hit.ancestor_bits));
                cached_answer = Some(answered);
            }
        }
        let from_cache = cached_answer.is_some();

        // ---- run the cube operator ---------------------------------------
        let make_dim = |g: &GroupExpr, name: &str, ty: DataType| -> Dimension {
            match &g.expr {
                Expr::Column {
                    name: col,
                    qualifier: None,
                } if col == name => Dimension::column(col),
                expr => {
                    let expr = expr.clone();
                    let schema = working.schema().clone();
                    let scalars = self.snap.scalars.clone();
                    Dimension::computed(name, ty, move |row: &Row| {
                        let ctx = EvalContext::base(&schema, &scalars);
                        eval(&expr, row, &ctx).unwrap_or(Value::Null)
                    })
                }
            }
        };

        // Session governance: the effective limits (session budgets, the
        // remaining deadline share, and the admission grant) plus the
        // thread count apply to every cube run of this statement.
        let query = agg_specs
            .iter()
            .fold(CubeQuery::new(), |q, spec| q.aggregate(spec.clone()))
            .limits(self.limits.clone())
            .algorithm(self.algorithm());

        let mut cube = if let Some(answered) = cached_answer {
            answered
        } else if let Some(sets) = &clause.grouping_sets {
            let dims: Vec<Dimension> = group_exprs
                .iter()
                .zip(dim_names.iter().zip(dim_types.iter()))
                .map(|(g, (n, t))| make_dim(g, n, *t))
                .collect();
            let index_of = |g: &GroupExpr| {
                dim_names
                    .iter()
                    .position(|n| *n == g.output_name())
                    .ok_or_else(|| {
                        SqlError::Plan(format!(
                            "GROUPING SETS references an expression not in the \
                             dimension list: {}",
                            g.output_name()
                        ))
                    })
            };
            let set_indices: Vec<Vec<usize>> = sets
                .iter()
                .map(|s| s.iter().map(index_of).collect())
                .collect::<SqlResult<_>>()?;
            query
                .dimensions(dims)
                .grouping_sets(&working, &set_indices)?
        } else {
            let mut name_iter = dim_names.iter().zip(dim_types.iter());
            let mut block = |exprs: &[GroupExpr]| -> SqlResult<Vec<Dimension>> {
                exprs
                    .iter()
                    .map(|g| {
                        let (n, t) = name_iter.next().ok_or_else(|| {
                            SqlError::Plan(format!(
                                "internal: no registered dimension name for group \
                                 expression {}",
                                g.expr.canonical()
                            ))
                        })?;
                        Ok(make_dim(g, n, *t))
                    })
                    .collect()
            };
            let spec = CompoundSpec::new()
                .group_by(block(&clause.plain)?)
                .rollup(block(&clause.rollup)?)
                .cube(block(&clause.cube)?);
            query.compound(&working, &spec)?
        };

        // Cache miss on an eligible statement: materialize its finest
        // grouping as a new view for future ancestors. Best-effort — the
        // build runs under the statement's remaining deadline, cancel
        // token and cell budget, population is budget-gated, and neither's
        // errors fail the query (the answer above is already correct from
        // the base scan).
        let populating = self
            .cache
            .as_ref()
            .filter(|c| !from_cache && c.is_enabled());
        if let (Some(plan), Some(cache)) = (&cache_plan, populating) {
            let vdims: Vec<Dimension> = plan.dim_keys.iter().map(Dimension::column).collect();
            let vaggs: Vec<AggSpec> = agg_specs
                .iter()
                .map(|s| match &s.input {
                    Some(col) => AggSpec::new(Arc::clone(&s.func), &**col),
                    None => AggSpec::star(Arc::clone(&s.func)),
                })
                .collect();
            let mut limits = self.limits.clone();
            if let Some(deadline) = self.deadline {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                limits = limits.timeout(left);
            }
            let bpc = datacube::exec::estimate_bytes_per_cell(vdims.len(), vaggs.len());
            let ctx = datacube::ExecContext::new(&limits, bpc);
            if let Ok(view) = datacube::CachedView::build_within(&working, &vdims, &vaggs, &ctx) {
                let _ = cache.populate(
                    &plan.table,
                    plan.version,
                    plan.dim_keys.clone(),
                    plan.agg_keys.clone(),
                    view,
                );
            }
        }

        // Global aggregate over an empty table: SQL returns one row of
        // empty-set aggregates (COUNT = 0, SUM = NULL, ...).
        if group_exprs.is_empty() && cube.is_empty() {
            let vals: Vec<Value> = agg_specs
                .iter()
                .map(|s| datacube::exec::guard(s.func.name(), || s.func.init().final_value()))
                .collect::<Result<_, _>>()?;
            cube.push_unchecked(Row::new(vals));
        }

        // ---- result context ----------------------------------------------
        let mut subs: HashMap<String, usize> = HashMap::new();
        let mut sub_types: HashMap<String, DataType> = HashMap::new();
        for (i, (g, ty)) in group_exprs.iter().zip(dim_types.iter()).enumerate() {
            subs.insert(g.expr.canonical(), i);
            sub_types.insert(g.expr.canonical(), *ty);
            if let Some(a) = &g.alias {
                subs.insert(a.clone(), i);
                sub_types.insert(a.clone(), *ty);
            }
        }
        let n_dims = group_exprs.len();
        for (k, call) in agg_calls.iter().enumerate() {
            let idx = n_dims + k;
            subs.insert(call.canonical(), idx);
            sub_types.insert(call.canonical(), cube.schema().column_at(idx).dtype);
        }
        let cube_schema = cube.schema().clone();
        let result_ctx = EvalContext {
            schema: &cube_schema,
            scalars: &self.snap.scalars,
            substitutions: subs,
        };

        // HAVING over the cube relation.
        let cube = match having {
            Some(pred) => {
                let mut kept = Table::empty(cube.schema().clone());
                for row in cube.rows() {
                    if eval(pred, row, &result_ctx)? == Value::Bool(true) {
                        kept.push_unchecked(row.clone());
                    }
                }
                kept
            }
            None => cube,
        };

        // ---- select list over the cube relation ---------------------------
        enum ItemPlan {
            Eval(Expr, DataType),
            /// §3.5 decoration: determinant dim indices + value lookup.
            Decoration {
                dims: Vec<usize>,
                map: HashMap<Row, Value>,
                ty: DataType,
            },
            /// Red Brick ordered aggregate over the result column of `arg`
            /// (§1.2), applied in the relation's canonical order — which
            /// for ROLLUP is exactly the sequential order the paper says
            /// cumulative operators need.
            Ordered {
                arg: Expr,
                kind: OrderedKind,
            },
        }

        let mut plans: Vec<(String, ItemPlan)> = Vec::new();
        for it in items {
            if it.expr == Expr::Star {
                return Err(SqlError::Plan(
                    "SELECT * cannot be combined with GROUP BY".into(),
                ));
            }
            let name = it.output_name();
            if let Some((kind, arg)) = ordered_aggregate(&it.expr)? {
                // Validate the argument against the result context.
                infer_type(&arg, cube.schema(), &self.snap.scalars, &sub_types)?;
                plans.push((name, ItemPlan::Ordered { arg, kind }));
                continue;
            }
            // Resolvable in the result context (dimension, aggregate, or an
            // expression over them)?
            let resolvable = infer_type(&it.expr, cube.schema(), &self.snap.scalars, &sub_types);
            match resolvable {
                Ok(ty) => plans.push((name, ItemPlan::Eval(it.expr.clone(), ty))),
                Err(_) => {
                    // Decoration path: a base column functionally dependent
                    // on the grouping columns (§3.5).
                    let Expr::Column { name: col, .. } = &it.expr else {
                        return Err(SqlError::Plan(format!(
                            "select item is neither a grouping expression, an \
                             aggregate, nor a decoration: {}",
                            it.expr.canonical()
                        )));
                    };
                    let plan = self.plan_decoration(col, &group_exprs, &dim_names, &working)?;
                    let ty = working.schema().column(col)?.dtype;
                    plans.push((
                        name,
                        ItemPlan::Decoration {
                            dims: plan.0,
                            map: plan.1,
                            ty,
                        },
                    ));
                }
            }
        }

        let unique_names = uniquify(plans.iter().map(|(n, _)| n.clone()).collect());
        let schema = Schema::new(
            unique_names
                .iter()
                .zip(plans.iter())
                .map(|(n, (_, p))| {
                    let ty = match p {
                        ItemPlan::Eval(_, t) => *t,
                        ItemPlan::Decoration { ty, .. } => *ty,
                        ItemPlan::Ordered { kind, .. } => kind.output_type(),
                    };
                    // Output grouping columns keep ALL-permission.
                    ColumnDef {
                        name: n.as_str().into(),
                        dtype: ty,
                        all_allowed: true,
                    }
                })
                .collect(),
        )?;

        // Pass 1: per-row values (ordered aggregates collect their input
        // column here).
        let mut columns: Vec<Vec<Value>> = plans
            .iter()
            .map(|_| Vec::with_capacity(cube.len()))
            .collect();
        for row in cube.rows() {
            for ((_, p), col) in plans.iter().zip(columns.iter_mut()) {
                col.push(match p {
                    ItemPlan::Eval(e, _) => eval(e, row, &result_ctx)?,
                    ItemPlan::Decoration { dims, map, .. } => {
                        if dims.iter().any(|&d| row[d].is_all() || row[d].is_null()) {
                            Value::Null
                        } else {
                            let key = Row::new(dims.iter().map(|&d| row[d].clone()).collect());
                            map.get(&key).cloned().unwrap_or(Value::Null)
                        }
                    }
                    ItemPlan::Ordered { arg, .. } => eval(arg, row, &result_ctx)?,
                });
            }
        }
        // Pass 2: ordered aggregates transform their whole column.
        for ((_, p), col) in plans.iter().zip(columns.iter_mut()) {
            if let ItemPlan::Ordered { kind, .. } = p {
                *col = kind.apply(col)?;
            }
        }

        let mut out = Table::empty(schema);
        for i in 0..cube.len() {
            out.push_unchecked(Row::new(columns.iter().map(|c| c[i].clone()).collect()));
        }
        Ok(out)
    }

    /// Find a determinant set of grouping columns for a decoration and
    /// build the lookup map. Prefers a single determining dimension
    /// (Table 7: nation alone determines continent), falling back to the
    /// full dimension list.
    #[allow(clippy::type_complexity)]
    fn plan_decoration(
        &self,
        col: &str,
        group_exprs: &[&GroupExpr],
        dim_names: &[String],
        working: &Table,
    ) -> SqlResult<(Vec<usize>, HashMap<Row, Value>)> {
        let col_idx = working.schema().index_of(col).map_err(|_| {
            SqlError::Plan(format!(
                "select item '{col}' is neither a grouping column, an aggregate, \
                 nor a base column"
            ))
        })?;
        // Evaluate dimension values per base row once.
        let ctx = EvalContext::base(working.schema(), &self.snap.scalars);
        let mut dim_vals: Vec<Vec<Value>> = Vec::with_capacity(group_exprs.len());
        for g in group_exprs {
            let mut col_vals = Vec::with_capacity(working.len());
            for row in working.rows() {
                col_vals.push(eval(&g.expr, row, &ctx)?);
            }
            dim_vals.push(col_vals);
        }
        // Candidate determinant sets: each single dim, then all dims.
        let mut candidates: Vec<Vec<usize>> = (0..group_exprs.len()).map(|i| vec![i]).collect();
        candidates.push((0..group_exprs.len()).collect());
        'cand: for dims in candidates {
            if dims.is_empty() {
                continue;
            }
            let mut map: HashMap<Row, Value> = HashMap::new();
            for (r, row) in working.rows().iter().enumerate() {
                let key = Row::new(dims.iter().map(|&d| dim_vals[d][r].clone()).collect());
                let val = row[col_idx].clone();
                match map.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        if *e.get() != val {
                            continue 'cand; // FD violated; try next candidate
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(val);
                    }
                }
            }
            return Ok((dims, map));
        }
        Err(SqlError::Plan(format!(
            "decoration column '{col}' is not functionally dependent on the \
             grouping columns (§3.5 requires the FD); add it to GROUP BY \
             ({})",
            dim_names.join(", ")
        )))
    }

    // ----------------------------------------------------------- helpers --

    fn resolve_from(&self, from: &TableRef) -> SqlResult<Arc<Table>> {
        match from {
            // A named scan shares the snapshot's table — no row copies.
            // Every consumer below holds the Arc for the statement's
            // lifetime, so a concurrent catalog update never invalidates
            // an in-flight read (it publishes a new Arc instead).
            TableRef::Named(name) => self.snap.table(name),
            TableRef::JoinUsing { left, right, using } => {
                let l = self.resolve_from(left)?;
                let r = self.resolve_from(right)?;
                Ok(Arc::new(join_using(&l, &r, using)?))
            }
        }
    }

    /// Replace uncorrelated scalar subqueries with their computed value.
    fn resolve_subqueries(&self, expr: &Expr) -> SqlResult<Expr> {
        Ok(match expr {
            Expr::ScalarSubquery(stmt) => {
                let result = self.exec_select(stmt)?;
                if result.schema().len() != 1 {
                    return Err(SqlError::Plan(
                        "scalar subquery must return exactly one column".into(),
                    ));
                }
                let v = match result.len() {
                    0 => Value::Null,
                    1 => result.rows()[0][0].clone(),
                    n => return Err(SqlError::Plan(format!("scalar subquery returned {n} rows"))),
                };
                Expr::Literal(v)
            }
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.resolve_subqueries(lhs)?),
                rhs: Box::new(self.resolve_subqueries(rhs)?),
            },
            Expr::Not(e) => Expr::Not(Box::new(self.resolve_subqueries(e)?)),
            Expr::Neg(e) => Expr::Neg(Box::new(self.resolve_subqueries(e)?)),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.resolve_subqueries(expr)?),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(self.resolve_subqueries(expr)?),
                low: Box::new(self.resolve_subqueries(low)?),
                high: Box::new(self.resolve_subqueries(high)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(self.resolve_subqueries(expr)?),
                list: list
                    .iter()
                    .map(|e| self.resolve_subqueries(e))
                    .collect::<SqlResult<_>>()?,
                negated: *negated,
            },
            Expr::Func {
                name,
                distinct,
                args,
            } => Expr::Func {
                name: name.clone(),
                distinct: *distinct,
                args: args
                    .iter()
                    .map(|e| self.resolve_subqueries(e))
                    .collect::<SqlResult<_>>()?,
            },
            other => other.clone(),
        })
    }

    fn apply_order_limit(&self, table: Table, stmt: &SelectStmt) -> SqlResult<Table> {
        let mut rows: Vec<Row> = table.rows().to_vec();
        if !stmt.order_by.is_empty() {
            // Resolve each key to an output column index.
            let mut keys: Vec<(usize, bool)> = Vec::new();
            for k in &stmt.order_by {
                let idx = match &k.expr {
                    Expr::Literal(Value::Int(n)) if *n >= 1 => {
                        let i = (*n - 1) as usize;
                        if i >= table.schema().len() {
                            return Err(SqlError::Plan(format!(
                                "ORDER BY ordinal {n} out of range"
                            )));
                        }
                        i
                    }
                    other => {
                        let name = other.canonical();
                        table.schema().index_of(&name).map_err(|_| {
                            SqlError::Plan(format!("ORDER BY key '{name}' is not an output column"))
                        })?
                    }
                };
                keys.push((idx, k.descending));
            }
            rows.sort_by(|a, b| {
                for &(i, desc) in &keys {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = stmt.limit {
            rows.truncate(n);
        }
        Ok(Table::from_validated_rows(table.schema().clone(), rows))
    }
}

/// Parameterized aggregates constructed per call site: `MAXN(x, n)`,
/// `MINN(x, n)` (the paper's algebraic examples), and `PERCENTILE(x, p)`
/// (holistic). The parameter must be a literal, since it configures the
/// function itself rather than feeding it data.
fn parameterized_aggregate(name: &str, args: &[Expr]) -> SqlResult<Option<AggRef>> {
    let upper = name.to_uppercase();
    let make = |f: AggRef| Ok(Some(f));
    match upper.as_str() {
        "MAXN" | "MINN" => {
            let n = match args.get(1) {
                Some(Expr::Literal(Value::Int(n))) if *n >= 1 => *n as usize,
                // cube-lint: allow(wildcard, scrutinee is Option<Expr>; this is the user-error arm)
                _ => {
                    return Err(SqlError::Plan(format!(
                        "{upper} requires a positive integer literal as its second argument"
                    )))
                }
            };
            if args.len() != 2 {
                return Err(SqlError::Plan(format!("{upper} takes 2 arguments")));
            }
            if upper == "MAXN" {
                make(std::sync::Arc::new(dc_aggregate::algebraic::MaxN(n)))
            } else {
                make(std::sync::Arc::new(dc_aggregate::algebraic::MinN(n)))
            }
        }
        "PERCENTILE" => {
            let p = match args.get(1) {
                Some(Expr::Literal(Value::Float(p))) if *p > 0.0 && *p <= 1.0 => *p,
                // cube-lint: allow(wildcard, scrutinee is Option<Expr>; this is the user-error arm)
                _ => {
                    return Err(SqlError::Plan(
                        "PERCENTILE requires a literal fraction in (0, 1] as its \
                         second argument"
                            .into(),
                    ))
                }
            };
            if args.len() != 2 {
                return Err(SqlError::Plan("PERCENTILE takes 2 arguments".into()));
            }
            make(std::sync::Arc::new(dc_aggregate::holistic::Percentile(p)))
        }
        _ => Ok(None),
    }
}

/// The Red Brick ordered aggregates (§1.2), recognized at the top level of
/// a select item: `RANK(x)`, `N_TILE(x, n)`, `RATIO_TO_TOTAL(x)`,
/// `CUMULATIVE(x)`, `RUNNING_SUM(x, n)`, `RUNNING_AVG(x, n)`. They map a
/// whole output column to a column, evaluated in the result's order — the
/// paper's "ROLLUP and CUBE must be ordered for cumulative operators to
/// apply".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrderedKind {
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

    fn apply(self, values: &[Value]) -> SqlResult<Vec<Value>> {
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
fn ordered_aggregate(expr: &Expr) -> SqlResult<Option<(OrderedKind, Expr)>> {
    let Expr::Func {
        name,
        distinct,
        args,
    } = expr
    else {
        return Ok(None);
    };
    let upper = name.to_uppercase();
    let needs_n = matches!(upper.as_str(), "N_TILE" | "RUNNING_SUM" | "RUNNING_AVG");
    let kind = match upper.as_str() {
        "RANK" => OrderedKind::Rank,
        "RATIO_TO_TOTAL" => OrderedKind::RatioToTotal,
        "CUMULATIVE" => OrderedKind::Cumulative,
        "N_TILE" | "RUNNING_SUM" | "RUNNING_AVG" => {
            let n = match args.get(1) {
                Some(Expr::Literal(Value::Int(n))) if *n >= 1 => *n as usize,
                // cube-lint: allow(wildcard, scrutinee is Option<Expr>; this is the user-error arm)
                _ => {
                    return Err(SqlError::Plan(format!(
                        "{upper} requires a positive integer literal as its second argument"
                    )))
                }
            };
            match upper.as_str() {
                "N_TILE" => OrderedKind::NTile(n),
                "RUNNING_SUM" => OrderedKind::RunningSum(n),
                _ => OrderedKind::RunningAvg(n),
            }
        }
        _ => return Ok(None),
    };
    if *distinct {
        return Err(SqlError::Plan(format!("DISTINCT is not valid in {upper}")));
    }
    let expected_args = if needs_n { 2 } else { 1 };
    if args.len() != expected_args {
        return Err(SqlError::Plan(format!(
            "{upper} takes {expected_args} argument(s), got {}",
            args.len()
        )));
    }
    Ok(Some((kind, args[0].clone())))
}

/// Human-readable FROM description for EXPLAIN.
fn describe_from(from: &TableRef) -> String {
    match from {
        TableRef::Named(n) => n.clone(),
        TableRef::JoinUsing { left, right, using } => format!(
            "{} JOIN {} USING ({})",
            describe_from(left),
            describe_from(right),
            using.join(", ")
        ),
    }
}

/// Inner equi-join on the USING columns; right USING columns are dropped,
/// and remaining name collisions are an error (qualify with a different
/// schema design — good enough for star queries).
fn join_using(left: &Table, right: &Table, using: &[String]) -> SqlResult<Table> {
    let using_refs: Vec<&str> = using.iter().map(String::as_str).collect();
    let l_keys = left.schema().indices_of(&using_refs)?;
    let r_keys = right.schema().indices_of(&using_refs)?;
    let r_keep: Vec<usize> = (0..right.schema().len())
        .filter(|i| !r_keys.contains(i))
        .collect();

    let mut cols = left.schema().columns().to_vec();
    for &i in &r_keep {
        cols.push(right.schema().column_at(i).clone());
    }
    let schema = Schema::new(cols).map_err(|e| {
        SqlError::Plan(format!("JOIN USING name collision outside USING list: {e}"))
    })?;

    // Hash the right side.
    let mut index: HashMap<Row, Vec<&Row>> = HashMap::new();
    for row in right.rows() {
        index.entry(row.project(&r_keys)).or_default().push(row);
    }
    let mut out = Table::empty(schema);
    for lrow in left.rows() {
        let key = lrow.project(&l_keys);
        if key.iter().any(Value::is_null) {
            continue; // NULL keys never join
        }
        if let Some(matches) = index.get(&key) {
            for rrow in matches {
                let vals: Vec<Value> = lrow
                    .values()
                    .iter()
                    .cloned()
                    .chain(r_keep.iter().map(|&i| rrow[i].clone()))
                    .collect();
                out.push_unchecked(Row::new(vals));
            }
        }
    }
    Ok(out)
}

/// Make output column names unique the way SQL result sets allow duplicate
/// labels but our schemas do not: repeated names get `_2`, `_3`, ...
fn uniquify(names: Vec<String>) -> Vec<String> {
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
fn collect_aggregates(expr: &Expr, is_agg: &dyn Fn(&str) -> bool, out: &mut Vec<Expr>) {
    match expr {
        Expr::Func { name, distinct, .. }
            if (is_agg(name) || (*distinct && name.eq_ignore_ascii_case("count")))
                && !out.iter().any(|e| e.canonical() == expr.canonical()) =>
        {
            out.push(expr.clone());
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_aggregates(a, is_agg, out);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            collect_aggregates(lhs, is_agg, out);
            collect_aggregates(rhs, is_agg, out);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_aggregates(e, is_agg, out),
        Expr::IsNull { expr, .. } => collect_aggregates(expr, is_agg, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, is_agg, out);
            collect_aggregates(low, is_agg, out);
            collect_aggregates(high, is_agg, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, is_agg, out);
            for e in list {
                collect_aggregates(e, is_agg, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relation::row;

    #[test]
    fn uniquify_appends_ordinals() {
        let names = uniquify(vec!["a".into(), "a".into(), "b".into(), "a".into()]);
        assert_eq!(names, vec!["a", "a_2", "b", "a_3"]);
    }

    #[test]
    fn join_using_drops_right_keys_and_nulls() {
        let left = Table::new(
            Schema::from_pairs(&[("k", DataType::Int), ("l", DataType::Str)]),
            vec![
                row![1, "x"],
                row![2, "y"],
                Row::new(vec![Value::Null, Value::str("z")]),
            ],
        )
        .unwrap();
        let right = Table::new(
            Schema::from_pairs(&[("k", DataType::Int), ("r", DataType::Str)]),
            vec![row![1, "one"], row![1, "uno"], row![3, "three"]],
        )
        .unwrap();
        let joined = join_using(&left, &right, &["k".to_string()]).unwrap();
        assert_eq!(joined.schema().names(), vec!["k", "l", "r"]);
        // k=1 matches twice, k=2 and k=3 unmatched, NULL key never joins.
        assert_eq!(joined.len(), 2);
    }

    #[test]
    fn join_using_rejects_name_collisions() {
        let left = Table::empty(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("x", DataType::Str),
        ]));
        let right = Table::empty(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("x", DataType::Str),
        ]));
        assert!(join_using(&left, &right, &["k".to_string()]).is_err());
    }

    #[test]
    fn describe_from_renders_join_chains() {
        let from = TableRef::JoinUsing {
            left: Box::new(TableRef::Named("fact".into())),
            right: Box::new(TableRef::Named("dim".into())),
            using: vec!["id".into(), "key".into()],
        };
        assert_eq!(describe_from(&from), "fact JOIN dim USING (id, key)");
    }

    #[test]
    fn ordered_aggregate_recognition() {
        let rank = Expr::Func {
            name: "rank".into(),
            distinct: false,
            args: vec![Expr::col("x")],
        };
        let (kind, arg) = ordered_aggregate(&rank).unwrap().unwrap();
        assert_eq!(kind, OrderedKind::Rank);
        assert_eq!(arg, Expr::col("x"));

        let ntile = Expr::Func {
            name: "N_TILE".into(),
            distinct: false,
            args: vec![Expr::col("x"), Expr::Literal(Value::Int(10))],
        };
        let (kind, _) = ordered_aggregate(&ntile).unwrap().unwrap();
        assert_eq!(kind, OrderedKind::NTile(10));

        // Non-literal n is rejected, plain functions pass through.
        let bad = Expr::Func {
            name: "N_TILE".into(),
            distinct: false,
            args: vec![Expr::col("x"), Expr::col("y")],
        };
        assert!(ordered_aggregate(&bad).is_err());
        let sum = Expr::Func {
            name: "SUM".into(),
            distinct: false,
            args: vec![Expr::col("x")],
        };
        assert!(ordered_aggregate(&sum).unwrap().is_none());
    }

    #[test]
    fn collect_aggregates_dedups_and_recurses() {
        let is_agg = |n: &str| n.eq_ignore_ascii_case("sum");
        // RANK(SUM(x)) + SUM(x): SUM(x) collected once.
        let rank = Expr::Func {
            name: "RANK".into(),
            distinct: false,
            args: vec![Expr::Func {
                name: "SUM".into(),
                distinct: false,
                args: vec![Expr::col("x")],
            }],
        };
        let sum = Expr::Func {
            name: "sum".into(),
            distinct: false,
            args: vec![Expr::col("x")],
        };
        let mut out = Vec::new();
        collect_aggregates(&rank, &is_agg, &mut out);
        collect_aggregates(&sum, &is_agg, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].canonical(), "SUM(x)");
    }

    #[test]
    fn sessions_have_independent_options_and_tokens() {
        let mut engine = Engine::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let t = Table::new(schema, (0..64).map(|i| row![i % 4, 1i64]).collect()).unwrap();
        engine.register_table("t", t).unwrap();

        // Session A gets a cancelled token; session B stays clean. The
        // old engine-global token would have cancelled both.
        let a = engine.session();
        let b = engine.session();
        let token = CancelToken::new();
        token.cancel();
        a.set_cancel_token(Some(token));
        let err = a
            .execute("SELECT k, SUM(v) AS s FROM t GROUP BY CUBE k")
            .unwrap_err();
        assert!(
            matches!(err, SqlError::Cube(datacube::CubeError::Cancelled { .. })),
            "{err:?}"
        );
        assert!(b
            .execute("SELECT k, SUM(v) AS s FROM t GROUP BY CUBE k")
            .is_ok());

        // Session A's tight budget does not leak into B either.
        a.set_cancel_token(None);
        a.set_option("MAX_CELLS", 1).unwrap();
        assert!(a
            .execute("SELECT k, SUM(v) AS s FROM t GROUP BY CUBE k")
            .is_err());
        assert!(b
            .execute("SELECT k, SUM(v) AS s FROM t GROUP BY CUBE k")
            .is_ok());
    }

    fn write_engine() -> Engine {
        let mut engine = Engine::new();
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        let t = Table::new(
            schema,
            vec![
                row!["Chevy", 1994, 50],
                row!["Chevy", 1995, 85],
                row!["Ford", 1994, 60],
            ],
        )
        .unwrap();
        engine.register_table("sales", t).unwrap();
        engine
    }

    fn grand_total(engine: &Engine) -> i64 {
        let t = engine.execute("SELECT SUM(units) AS s FROM sales").unwrap();
        match t.rows()[0][0] {
            Value::Int(n) => n,
            ref other => panic!("expected Int total, got {other:?}"),
        }
    }

    #[test]
    fn sql_insert_and_delete_round_trip() {
        let engine = write_engine();
        let r = engine
            .execute("INSERT INTO sales VALUES ('Ford', 1995, 10), ('Dodge', 1994, 5)")
            .unwrap();
        assert_eq!(r.rows()[0][1], Value::Int(2));
        assert_eq!(grand_total(&engine), 210);
        assert_eq!(engine.table("sales").unwrap().len(), 5);

        let r = engine
            .execute("DELETE FROM sales WHERE model = 'Chevy'")
            .unwrap();
        assert_eq!(r.rows()[0][1], Value::Int(2));
        assert_eq!(grand_total(&engine), 75);

        // A predicate matching nothing deletes nothing and says so.
        let r = engine
            .execute("DELETE FROM sales WHERE year = 1887")
            .unwrap();
        assert_eq!(r.rows()[0][1], Value::Int(0));
    }

    #[test]
    fn sql_update_rewrites_matching_rows_in_place() {
        let engine = write_engine();
        let r = engine
            .execute("UPDATE sales SET units = units + 10 WHERE model = 'Chevy'")
            .unwrap();
        assert_eq!(r.rows()[0][1], Value::Int(2));
        assert_eq!(grand_total(&engine), 215);
        // A rewrite, not a delete-then-append growth: same cardinality.
        assert_eq!(engine.table("sales").unwrap().len(), 3);

        // Right-hand sides see the *old* row, so a pairwise swap works.
        let r = engine
            .execute("UPDATE sales SET year = units, units = year WHERE model = 'Ford'")
            .unwrap();
        assert_eq!(r.rows()[0][1], Value::Int(1));
        let t = engine.table("sales").unwrap();
        let ford = t
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("Ford"))
            .unwrap();
        assert_eq!((&ford[1], &ford[2]), (&Value::Int(60), &Value::Int(1994)));

        // A predicate matching nothing updates nothing and says so.
        let r = engine
            .execute("UPDATE sales SET units = 0 WHERE year = 1887")
            .unwrap();
        assert_eq!(r.rows()[0][1], Value::Int(0));

        // Unknown columns and schema-violating assignments reject the
        // whole batch before publication.
        assert!(engine.execute("UPDATE sales SET nope = 1").is_err());
        assert!(engine
            .execute("UPDATE sales SET units = 'oops' WHERE model = 'Ford'")
            .is_err());
        assert_eq!(engine.table("sales").unwrap().len(), 3);
    }

    #[test]
    fn insert_validates_rows_before_publishing() {
        let engine = write_engine();
        // Wrong type: the whole batch is rejected, including its valid
        // first row.
        assert!(engine
            .execute("INSERT INTO sales VALUES ('Ford', 1995, 10), ('Ford', 'oops', 1)")
            .is_err());
        assert_eq!(engine.table("sales").unwrap().len(), 3);
        // Wrong arity and unknown table are typed errors too.
        assert!(engine
            .execute("INSERT INTO sales VALUES ('Ford', 1995)")
            .is_err());
        assert!(engine.execute("INSERT INTO nope VALUES (1)").is_err());
        // Column references make no sense in a VALUES row.
        assert!(engine
            .execute("INSERT INTO sales VALUES (model, 1995, 1)")
            .is_err());
    }

    #[test]
    fn insert_absorbs_into_cached_views_delete_invalidates() {
        let engine = Engine::with_service(crate::ServiceConfig::default());
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        let t = Table::new(
            schema,
            vec![row!["Chevy", 1994, 50], row!["Ford", 1994, 60]],
        )
        .unwrap();
        engine
            .service_parts()
            .0
            .with_write(|c| c.register_table("sales", t))
            .unwrap();

        let session = engine.session();
        let q = "SELECT model, year, SUM(units) AS s FROM sales GROUP BY CUBE model, year";
        session.execute(q).unwrap(); // miss + populate
        session.execute(q).unwrap();
        assert!(session.last_admission().answered_from_cache);

        // INSERT bumps the version, but the retained view absorbs the
        // delta: the next read hits warm at the *new* version and sees
        // the new rows.
        session
            .execute("INSERT INTO sales VALUES ('Dodge', 1995, 7)")
            .unwrap();
        let after = session.execute(q).unwrap();
        assert!(
            session.last_admission().answered_from_cache,
            "cache should absorb an insert-only delta, not invalidate"
        );
        let total = after
            .rows()
            .iter()
            .find(|r| r[0].is_all() && r[1].is_all())
            .map(|r| r[2].clone());
        assert_eq!(total, Some(Value::Int(117)));

        // DELETE is the holistic direction: the view is invalidated, the
        // next read recomputes (a miss), and the one after hits again.
        session
            .execute("DELETE FROM sales WHERE model = 'Chevy'")
            .unwrap();
        let after = session.execute(q).unwrap();
        assert!(!session.last_admission().answered_from_cache);
        let total = after
            .rows()
            .iter()
            .find(|r| r[0].is_all() && r[1].is_all())
            .map(|r| r[2].clone());
        assert_eq!(total, Some(Value::Int(67)));
        session.execute(q).unwrap();
        assert!(session.last_admission().answered_from_cache);
    }

    /// The per-statement costs of the write path are per statement, not
    /// per row: one 256-row INSERT is one version bump and one absorb into
    /// each live view; 256 one-row INSERTs are 256 of each. A view stays
    /// warm only by absorbing exactly the delta of every bump (an entry
    /// not at `version - 1` is dropped), so "still a hit" counts absorbs.
    #[test]
    fn insert_costs_one_bump_and_one_absorb_per_statement() {
        let engine = Engine::with_service(crate::ServiceConfig::default());
        let schema = Schema::from_pairs(&[("d0", DataType::Int), ("units", DataType::Int)]);
        let catalog = engine.service_parts().0;
        catalog
            .with_write(|c| c.register_table("t", Table::empty(schema)))
            .unwrap();
        let version = || catalog.snapshot().table_version("t");
        let session = engine.session();
        // Two live views: different select lists populate separately.
        let views = [
            "SELECT d0, SUM(units) AS s FROM t GROUP BY CUBE d0",
            "SELECT d0, MAX(units) AS m FROM t GROUP BY CUBE d0",
        ];
        session.execute("INSERT INTO t VALUES (0, 1)").unwrap();
        for q in views {
            session.execute(q).unwrap();
        }
        let populated = engine.cube_cache().counters();
        assert_eq!(populated.entries, 2, "{populated:?}");

        let values = |n: usize| -> String {
            let rows: Vec<String> = (0..n).map(|i| format!("({}, 1)", i % 16)).collect();
            rows.join(", ")
        };
        let before = version();
        session
            .execute(&format!("INSERT INTO t VALUES {}", values(256)))
            .unwrap();
        assert_eq!(version(), before + 1);
        for _ in 0..256 {
            session.execute("INSERT INTO t VALUES (3, 1)").unwrap();
        }
        assert_eq!(version(), before + 1 + 256);

        for q in views {
            let out = session.execute(q).unwrap();
            assert!(session.last_admission().answered_from_cache, "{q}");
            let total = out.rows().iter().find(|r| r[0].is_all()).unwrap();
            let want = if q.contains("SUM") { 1 + 256 + 256 } else { 1 };
            assert_eq!(total[1], Value::Int(want), "{q}");
        }
        let after = engine.cube_cache().counters();
        assert_eq!((after.entries, after.misses), (2, populated.misses));
    }

    #[test]
    fn concurrent_inserts_never_lose_a_batch() {
        use std::sync::Arc;
        let engine = Arc::new(Engine::with_service(crate::ServiceConfig::default()));
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        engine
            .service_parts()
            .0
            .with_write(|c| c.register_table("t", Table::empty(schema)))
            .unwrap();
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let session = e.session();
                    for b in 0..8 {
                        let rows: Vec<String> =
                            (0..4).map(|i| format!("({w}, {})", b * 4 + i)).collect();
                        session
                            .execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                            .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // Every CAS loser rebased and retried: all 4×8×4 rows landed.
        assert_eq!(engine.table("t").unwrap().len(), 4 * 8 * 4);
    }
}
