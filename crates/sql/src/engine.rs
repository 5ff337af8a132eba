#![deny(clippy::too_many_lines)]
//! The query engine: shared catalog and executor.
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
use crate::eval::{eval, EvalContext};
use crate::plan::{self, branches, AggregatePlan, Bound, Output, Source};
use crate::scalar::ScalarFn;
use crate::session::Session;
use datacube::{
    AggSpec, Algorithm, AncestorRequest, CancelToken, CubeQuery, Dimension, ExecLimits,
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
}

/// How one aggregate block maps onto the lattice cache, when it is
/// eligible at all: the canonical base-column and call names the cache
/// indexes views by ([`crate::cache::CubeCache`]).
struct CacheKey<'a> {
    cache: &'a CubeCache,
    table: &'a str,
    version: u64,
    dims: Vec<String>,
    aggs: Vec<String>,
}

/// A §3.5 decoration, checked: the determinant dimensions (cube-relation
/// columns) and the value each of their combinations determines.
struct Decoration {
    dims: Vec<usize>,
    map: HashMap<Row, Value>,
}

impl QueryRuntime {
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

    /// `EXPLAIN SELECT ...`: the bound plan of every UNION branch,
    /// rendered as a one-column relation — which tables are scanned, the
    /// grouping-set family, and how each aggregate's §5 taxonomy routes it
    /// (cascade vs 2^N). A statement execution would reject at planning is
    /// rejected here with the same error.
    pub(crate) fn explain_select(&self, stmt: &SelectStmt) -> SqlResult<Table> {
        let mut lines: Vec<String> = Vec::new();
        for (block, (_, sel)) in branches(stmt).enumerate() {
            let bound = self.bind(sel)?;
            if block > 0 {
                lines.push(format!("UNION branch {block}:"));
            }
            lines.push(format!("  scan: {}", describe_from(&sel.from)));
            if sel.where_clause.is_some() {
                lines.push("  filter: WHERE (three-valued; unknown rows dropped)".into());
            }
            if let Bound::Aggregate(plan) = &bound {
                self.explain_aggregate(sel, plan, &mut lines);
            }
        }
        if !stmt.order_by.is_empty() {
            lines.push(format!("  sort: ORDER BY {} key(s)", stmt.order_by.len()));
        }
        if let Some(n) = stmt.limit {
            lines.push(format!("  limit: {n}"));
        }
        let schema = Schema::new(vec![ColumnDef::new("plan", DataType::Str)])?;
        let rows = lines.into_iter().map(|l| Row::new(vec![Value::str(l)]));
        Ok(Table::from_validated_rows(schema, rows.collect()))
    }

    fn explain_aggregate(&self, sel: &SelectStmt, plan: &AggregatePlan, lines: &mut Vec<String>) {
        if let Some(g) = &sel.group_by {
            lines.push(match &g.grouping_sets {
                Some(_) => format!(
                    "  aggregate: GROUPING SETS over {} dimension(s)",
                    plan.dims.len()
                ),
                None => format!(
                    "  aggregate: GROUP BY {} dim(s), ROLLUP {}, CUBE {}",
                    g.plain.len(),
                    g.rollup.len(),
                    g.cube.len()
                ),
            });
            lines.push(format!("    grouping sets: {}", plan.sets.len()));
            for d in &plan.dims {
                lines.push(format!("    dimension: {}", d.dimension.name));
            }
        }
        for a in &plan.aggs {
            let kind = a.spec.func.kind();
            lines.push(format!("    aggregate fn: {} [{kind:?}]", a.call.canonical));
        }
        let funcs: Vec<_> = plan.aggs.iter().map(|a| &*a.spec.func).collect();
        let algorithm = datacube::algorithm::describe_plan(self.algorithm(), &funcs);
        lines.push(format!("    algorithm: {algorithm}"));
        if plan.having.is_some() {
            lines.push("  filter: HAVING over the cube relation".into());
        }
    }

    // ---------------------------------------------------------- executor --

    /// Run a statement, replacing its scalar subqueries by their values
    /// on the way. Also reports the grouping-set bits of the materialized
    /// ancestor that answered it, when the lattice cache did (the last such
    /// block of a UNION).
    pub(crate) fn exec_select(&self, stmt: &mut SelectStmt) -> SqlResult<(Table, Option<u32>)> {
        // A subquery is a statement of its own, run before the block around
        // it is bound: its value is a literal of that block's plan.
        let mut cursor = Some(&mut *stmt);
        while let Some(sel) = cursor {
            let items = sel.items.iter_mut().map(|it| &mut it.expr);
            for e in items.chain(&mut sel.where_clause).chain(&mut sel.having) {
                self.resolve_subqueries(e)?;
            }
            cursor = sel.union.as_mut().map(|(_, rhs)| &mut **rhs);
        }
        // Every UNION branch is bound before the first one reads a row, so
        // a planning error anywhere in the statement costs no scan.
        let bound = branches(stmt)
            .map(|(_, sel)| self.bind(sel))
            .collect::<SqlResult<Vec<_>>>()?;
        let mut result: Option<Table> = None;
        let mut ancestor = None;
        for ((all, sel), bound) in branches(stmt).zip(&bound) {
            let (table, served) = self.exec_block(sel, bound)?;
            ancestor = served.or(ancestor);
            result = Some(match result {
                None => table,
                Some(so_far) if all => so_far.union_all(&table)?,
                Some(so_far) => so_far.union(&table)?,
            });
        }
        let result = result.ok_or_else(|| SqlError::Plan("internal: empty statement".into()))?;
        Ok((order_and_limit(result, stmt)?, ancestor))
    }

    /// Bind one block against the schema of its FROM relation.
    fn bind(&self, sel: &SelectStmt) -> SqlResult<Bound> {
        let from = self.relation_of(&sel.from, false)?;
        plan::bind(sel, from.schema(), &self.snap)
    }

    /// One bound block: scan, WHERE, then the aggregate pipeline or the
    /// plain select list.
    fn exec_block(&self, sel: &SelectStmt, bound: &Bound) -> SqlResult<(Table, Option<u32>)> {
        let base = self.relation_of(&sel.from, true)?;
        let ctx = EvalContext::base(base.schema(), &self.snap.scalars);
        let input = match &sel.where_clause {
            Some(pred) => Arc::new(keep_rows(&base, pred, &ctx)?),
            None => Arc::clone(&base),
        };
        match bound {
            Bound::Aggregate(plan) => self.exec_aggregate(plan, sel, input),
            Bound::Projection(outputs) => Ok((
                project_outputs(outputs, &input, &ctx, &HashMap::new())?,
                None,
            )),
        }
    }

    /// The aggregation pipeline over a bound block: widen → lookup-or-cube
    /// (→ populate) → project. Each stage reads the plan; none re-derives
    /// anything from the statement text.
    fn exec_aggregate(
        &self,
        plan: &AggregatePlan,
        sel: &SelectStmt,
        input: Arc<Table>,
    ) -> SqlResult<(Table, Option<u32>)> {
        let working = self.widen(plan, input)?;
        let key = self.cache_key(plan, sel);
        let hit = key.as_ref().map(|key| self.lookup(plan, key));
        let (mut cube, ancestor) = match hit.transpose()?.flatten() {
            Some((answered, bits)) => (answered, Some(bits)),
            None => {
                let cube = self.cube(plan, &working)?;
                if let Some(key) = &key {
                    self.populate(plan, key, &working);
                }
                (cube, None)
            }
        };
        // Global aggregate over an empty table: SQL returns one row of
        // empty-set aggregates (COUNT = 0, SUM = NULL, ...).
        if plan.dims.is_empty() && cube.is_empty() {
            let vals: Vec<Value> = plan
                .aggs
                .iter()
                .map(|a| {
                    datacube::exec::guard(a.spec.func.name(), || a.spec.func.init().final_value())
                })
                .collect::<Result<_, _>>()?;
            cube.push_unchecked(Row::new(vals));
        }
        Ok((self.project_cube(plan, cube, &working)?, ancestor))
    }

    /// Append the plan's computed aggregate arguments to the input, one
    /// pass over the rows. Shared with the snapshot when there are none —
    /// plain-column statements (and cache hits) never materialize a private
    /// copy of the base rows.
    fn widen(&self, plan: &AggregatePlan, input: Arc<Table>) -> SqlResult<Arc<Table>> {
        if plan.computed.is_empty() {
            return Ok(input);
        }
        let ctx = EvalContext::base(input.schema(), &self.snap.scalars);
        let mut schema = input.schema().clone();
        for (def, _) in &plan.computed {
            schema.push(def.clone())?;
        }
        let mut widened = Table::empty(schema);
        for row in input.rows() {
            let mut vals = row.values().to_vec();
            for (_, expr) in &plan.computed {
                vals.push(eval(expr, row, &ctx)?);
            }
            widened.push_unchecked(Row::new(vals));
        }
        Ok(Arc::new(widened))
    }

    /// Decide whether this block can be served by (and feed) the lattice
    /// cache. `None` disqualifies it: no cache attached, a join or WHERE
    /// clause (cached views cover whole base tables only), computed
    /// dimensions or aggregate arguments (views are keyed by base column
    /// names), or an aggregate outside the rewrite-legal set (see
    /// [`datacube::rewritable`]).
    fn cache_key<'a>(&'a self, plan: &AggregatePlan, sel: &'a SelectStmt) -> Option<CacheKey<'a>> {
        let cache = self.cache.as_deref()?;
        let TableRef::Named(table) = &sel.from else {
            return None;
        };
        if sel.where_clause.is_some() || !plan.computed.is_empty() {
            return None;
        }
        if !plan.aggs.iter().all(|a| datacube::rewritable(&a.spec.func)) {
            return None;
        }
        Some(CacheKey {
            cache,
            table,
            version: self.snap.table_version(table),
            dims: plan
                .dims
                .iter()
                .map(|d| d.column.clone())
                .collect::<Option<_>>()?,
            aggs: plan.aggs.iter().map(|a| a.call.canonical.clone()).collect(),
        })
    }

    /// Ancestor rewrite: answer the plan's family from a materialized
    /// subcube instead of the base rows, and say which one served.
    fn lookup(&self, plan: &AggregatePlan, key: &CacheKey) -> SqlResult<Option<(Table, u32)>> {
        let Some(hit) = (key.cache).lookup(key.table, key.version, &key.dims, &key.aggs)? else {
            return Ok(None);
        };
        let bpc = datacube::exec::estimate_bytes_per_cell(plan.dims.len(), plan.aggs.len());
        let ctx = datacube::ExecContext::new(&self.limits, bpc);
        let dim_names: Vec<&str> = plan.dims.iter().map(|d| &*d.dimension.name).collect();
        let agg_names: Vec<&str> = plan.aggs.iter().map(|a| &*a.spec.output).collect();
        let answered = hit.view.answer(
            &AncestorRequest {
                dim_map: &hit.dim_map,
                dim_names: &dim_names,
                agg_map: &hit.agg_map,
                agg_names: &agg_names,
                sets: &plan.sets,
            },
            &ctx,
        )?;
        Ok(Some((answered, hit.ancestor_bits)))
    }

    /// Run the cube operator over the plan's family. Session governance —
    /// the effective limits (session budgets, the remaining deadline share,
    /// the admission grant) and the thread count — applies to the run.
    fn cube(&self, plan: &AggregatePlan, working: &Table) -> SqlResult<Table> {
        let sets: Vec<Vec<usize>> = plan.sets.iter().map(|s| s.dims()).collect();
        let query = plan
            .aggs
            .iter()
            .fold(CubeQuery::new(), |q, a| q.aggregate(a.spec.clone()))
            .dimensions(plan.dims.iter().map(|d| d.dimension.clone()).collect())
            .limits(self.limits.clone())
            .algorithm(self.algorithm());
        Ok(query.grouping_sets(working, &sets)?)
    }

    /// Cache miss on an eligible block: materialize its finest grouping as
    /// a new view for future ancestors. Best-effort — the build runs under
    /// the statement's remaining deadline, cancel token and cell budget,
    /// population is budget-gated, and neither's errors fail the query (the
    /// cube's answer is already correct from the base scan).
    fn populate(&self, plan: &AggregatePlan, key: &CacheKey, working: &Table) {
        if !key.cache.is_enabled() {
            return;
        }
        let vdims: Vec<Dimension> = key.dims.iter().map(Dimension::column).collect();
        let vaggs: Vec<AggSpec> = plan
            .aggs
            .iter()
            .map(|a| match &a.spec.input {
                Some(col) => AggSpec::new(Arc::clone(&a.spec.func), &**col),
                None => AggSpec::star(Arc::clone(&a.spec.func)),
            })
            .collect();
        let mut limits = self.limits.clone();
        if let Some(deadline) = self.deadline {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            limits = limits.timeout(left);
        }
        let bpc = datacube::exec::estimate_bytes_per_cell(vdims.len(), vaggs.len());
        let ctx = datacube::ExecContext::new(&limits, bpc);
        if let Ok(view) = datacube::CachedView::build_within(working, &vdims, &vaggs, &ctx) {
            let (dims, aggs) = (key.dims.clone(), key.aggs.clone());
            let _ = (key.cache).populate(key.table, key.version, dims, aggs, view);
        }
    }

    /// HAVING, the §3.5 decoration checks, then the select list — all over
    /// the cube relation.
    fn project_cube(&self, plan: &AggregatePlan, cube: Table, working: &Table) -> SqlResult<Table> {
        let ctx = EvalContext {
            schema: &cube.schema().clone(),
            scalars: &self.snap.scalars,
            substitutions: plan.substitutions.clone(),
        };
        let cube = match &plan.having {
            Some(pred) => keep_rows(&cube, pred, &ctx)?,
            None => cube,
        };
        let mut decorations = HashMap::new();
        for out in &plan.outputs {
            if let Source::Decoration(col) = &out.source {
                decorations.insert(col.as_str(), self.check_decoration(col, plan, working)?);
            }
        }
        project_outputs(&plan.outputs, &cube, &ctx, &decorations)
    }

    /// Find a determinant set of grouping columns for a decoration and
    /// build the lookup map. Prefers a single determining dimension
    /// (Table 7: nation alone determines continent), falling back to the
    /// full dimension list.
    fn check_decoration(
        &self,
        col: &str,
        plan: &AggregatePlan,
        working: &Table,
    ) -> SqlResult<Decoration> {
        let col_idx = working.schema().index_of(col)?;
        // Evaluate dimension values per base row once.
        let ctx = EvalContext::base(working.schema(), &self.snap.scalars);
        let mut dim_vals: Vec<Vec<Value>> = Vec::with_capacity(plan.dims.len());
        for d in &plan.dims {
            let mut col_vals = Vec::with_capacity(working.len());
            for row in working.rows() {
                col_vals.push(eval(&d.expr, row, &ctx)?);
            }
            dim_vals.push(col_vals);
        }
        // The value each combination of `dims` determines, if it does.
        let determined_by = |dims: &[usize]| {
            let mut map: HashMap<Row, Value> = HashMap::new();
            for (r, row) in working.rows().iter().enumerate() {
                let key = Row::new(dims.iter().map(|&d| dim_vals[d][r].clone()).collect());
                if *map.entry(key).or_insert_with(|| row[col_idx].clone()) != row[col_idx] {
                    return None; // FD violated
                }
            }
            Some(map)
        };
        // Candidate determinant sets: each single dim, then all dims.
        let n = plan.dims.len();
        let singles = (0..n).map(|i| vec![i]);
        for dims in singles.chain((n > 1).then(|| (0..n).collect())) {
            if let Some(map) = determined_by(&dims) {
                return Ok(Decoration { dims, map });
            }
        }
        let names: Vec<&str> = plan.dims.iter().map(|d| &*d.dimension.name).collect();
        Err(SqlError::Plan(format!(
            "decoration column '{col}' is not functionally dependent on the \
             grouping columns (§3.5 requires the FD); add it to GROUP BY \
             ({})",
            names.join(", ")
        )))
    }

    // ----------------------------------------------------------- helpers --

    /// The FROM relation — or, with `scan` off, a relation of its shape:
    /// joins run over empty tables, so binding touches no row.
    fn relation_of(&self, from: &TableRef, scan: bool) -> SqlResult<Arc<Table>> {
        match from {
            // A named scan shares the snapshot's table — no row copies.
            // Every consumer below holds the Arc for the statement's
            // lifetime, so a concurrent catalog update never invalidates
            // an in-flight read (it publishes a new Arc instead).
            TableRef::Named(name) => self.snap.table(name),
            TableRef::JoinUsing { left, right, using } => {
                let side = |from: &TableRef| -> SqlResult<Arc<Table>> {
                    let table = self.relation_of(from, scan)?;
                    Ok(match scan {
                        true => table,
                        false => Arc::new(Table::empty(table.schema().clone())),
                    })
                };
                let (l, r) = (side(left)?, side(right)?);
                Ok(Arc::new(join_using(&l, &r, using)?))
            }
        }
    }

    fn resolve_subqueries(&self, expr: &mut Expr) -> SqlResult<()> {
        let Expr::ScalarSubquery(stmt) = expr else {
            let mut children = expr.children_mut().into_iter();
            return children.try_for_each(|c| self.resolve_subqueries(c));
        };
        let (result, _) = self.exec_select(stmt)?;
        if result.schema().len() != 1 {
            return Err(SqlError::Plan(
                "scalar subquery must return exactly one column".into(),
            ));
        }
        *expr = Expr::Literal(match result.len() {
            0 => Value::Null,
            1 => result.rows()[0][0].clone(),
            n => return Err(SqlError::Plan(format!("scalar subquery returned {n} rows"))),
        });
        Ok(())
    }
}

/// The rows of `table` a predicate accepts. SQL semantics: a NULL (or
/// ALL) verdict drops the row.
fn keep_rows(table: &Table, pred: &Expr, ctx: &EvalContext) -> SqlResult<Table> {
    let mut kept = Table::empty(table.schema().clone());
    for row in table.rows() {
        if eval(pred, row, ctx)? == Value::Bool(true) {
            kept.push_unchecked(row.clone());
        }
    }
    Ok(kept)
}

/// The one select-list projector, column-wise: every output's value per
/// input row, then ordered aggregates over their whole column (§1.2's Red
/// Brick functions work on plain selections and on cube relations alike),
/// then rows.
fn project_outputs(
    outputs: &[Output],
    input: &Table,
    ctx: &EvalContext,
    decorations: &HashMap<&str, Decoration>,
) -> SqlResult<Table> {
    let schema = Schema::new(outputs.iter().map(|o| o.def.clone()).collect())?;
    // A select list that is the input's own columns in order (a cube's
    // dimensions then its aggregates, or `SELECT *`) shares the input's
    // rows instead of transposing and rebuilding them.
    let identity = outputs.len() == input.schema().len()
        && (outputs.iter().enumerate())
            .all(|(i, o)| matches!(o.source, Source::Column(c) if c == i));
    if identity {
        return Ok(Table::from_validated_rows(schema, input.rows().to_vec()));
    }
    let mut columns: Vec<Vec<Value>> = outputs
        .iter()
        .map(|_| Vec::with_capacity(input.len()))
        .collect();
    for row in input.rows() {
        for (out, col) in outputs.iter().zip(columns.iter_mut()) {
            col.push(match &out.source {
                Source::Column(i) => row[*i].clone(),
                Source::Expr(e) | Source::Ordered { arg: e, .. } => eval(e, row, ctx)?,
                Source::Decoration(name) => {
                    let Decoration { dims, map } = &decorations[name.as_str()];
                    if dims.iter().any(|&d| row[d].is_all() || row[d].is_null()) {
                        Value::Null
                    } else {
                        let key = Row::new(dims.iter().map(|&d| row[d].clone()).collect());
                        map.get(&key).cloned().unwrap_or(Value::Null)
                    }
                }
            });
        }
    }
    for (out, col) in outputs.iter().zip(columns.iter_mut()) {
        if let Source::Ordered { kind, .. } = &out.source {
            *col = kind.apply(col)?;
        }
    }
    let mut columns: Vec<_> = columns.into_iter().map(Vec::into_iter).collect();
    let rows =
        (0..input.len()).map(|_| Row::new(columns.iter_mut().filter_map(Iterator::next).collect()));
    Ok(Table::from_validated_rows(schema, rows.collect()))
}

/// ORDER BY and LIMIT over the statement's result, taken by value: a
/// statement with neither returns it untouched.
fn order_and_limit(table: Table, stmt: &SelectStmt) -> SqlResult<Table> {
    if stmt.order_by.is_empty() && stmt.limit.is_none() {
        return Ok(table);
    }
    // Resolve each key to an output column index.
    let mut keys: Vec<(usize, bool)> = Vec::new();
    for k in &stmt.order_by {
        let idx = match &k.expr {
            Expr::Literal(Value::Int(n)) if *n >= 1 => {
                let i = (*n - 1) as usize;
                if i >= table.schema().len() {
                    return Err(SqlError::Plan(format!("ORDER BY ordinal {n} out of range")));
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
    let schema = table.schema().clone();
    let mut rows = table.into_rows();
    if !keys.is_empty() {
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
    Ok(Table::from_validated_rows(schema, rows))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{collect_aggregates, ordered_aggregate, uniquify, OrderedKind};
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
        assert_eq!(out[0].canonical, "SUM(x)");
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

    /// An UPDATE whose new image breaks the schema is rejected before the
    /// swap: the table keeps its version and the cache keeps its entries.
    #[test]
    fn rejected_update_image_leaves_version_and_cache_untouched() {
        let engine = write_engine();
        let (catalog, _, cache) = engine.service_parts();
        let q = "SELECT model, SUM(units) AS s FROM sales GROUP BY CUBE model";
        engine.execute(q).unwrap(); // populate one view
        let version = catalog.snapshot().table_version("sales");
        let entries = cache.counters().entries;
        assert_eq!(entries, 1);

        assert!(engine
            .execute("UPDATE sales SET units = 'oops' WHERE model = 'Ford'")
            .is_err());
        assert_eq!(catalog.snapshot().table_version("sales"), version);
        assert_eq!(cache.counters().entries, entries);
        assert_eq!(grand_total(&engine), 195);
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
