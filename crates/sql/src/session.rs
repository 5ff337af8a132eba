//! Per-session state of the concurrent cube service.
//!
//! One [`crate::Engine`] is shared by N sessions; everything that used to
//! be engine-global but is really *per caller* lives here: the `SET ...`
//! execution options, the cancellation token, and the [`LastStatement`]
//! record of the last statement's grant and cache answer. Two sessions
//! on one engine can therefore run with different budgets and cancel
//! independently — the latent cross-session race of the single-owner
//! engine (where one session's `SET TIMEOUT_MS` or cancel token
//! clobbered another's) is gone by construction.
//!
//! A statement's lifecycle:
//!
//! 1. parse;
//! 2. estimate its cost against a catalog snapshot ([`QueryCost`] — the
//!    upper bound `sets × (rows + 1)` per UNION branch);
//! 3. pass admission ([`crate::admission::AdmissionController`]); the
//!    deadline is computed *before* queueing, so time spent waiting for
//!    a slot counts against the statement's own `TIMEOUT_MS`;
//! 4. execute against the snapshot with the granted cell reservation
//!    folded into the statement's `ExecLimits`;
//! 5. release the permit (RAII); the grant and the answering cache view
//!    are recorded in the session's [`LastStatement`].
//!
//! The whole lifecycle runs inside [`datacube::exec::guard`], so a panic
//! anywhere — a UDA, a poisoned lock, an injected fault — unwinds into
//! `CubeError::AggPanicked` for this session only; the shared engine and
//! every other session keep running.

use crate::admission::{AdmissionController, Permit, QueryCost};
use crate::ast::{Expr, SelectStmt, Statement, TableRef};
use crate::cache::CubeCache;
use crate::catalog::{CatalogSnapshot, SharedCatalog};
use crate::engine::QueryRuntime;
use crate::error::{SqlError, SqlResult};
use crate::eval::{eval, EvalContext, Selection};
use crate::parser::parse;
use crate::plan::{branches, set_count};
use datacube::{CancelToken, DeltaBatch, ExecContext, ExecLimits};
use dc_relation::{ColumnDef, DataType, Row, Schema, Table, Value};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Session-level execution governance, applied to every aggregation
/// query. `0` means "no limit" / "default" throughout.
#[derive(Debug, Clone)]
pub(crate) struct SessionOptions {
    pub(crate) max_cells: u64,
    pub(crate) max_memory_bytes: u64,
    pub(crate) timeout_ms: u64,
    pub(crate) threads: u64,
    /// `SET CUBE_CACHE {ON|OFF}` — whether this session's statements may
    /// be answered from (and populate) the engine's lattice cache.
    pub(crate) cube_cache: bool,
    pub(crate) cancel: Option<CancelToken>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            max_cells: 0,
            max_memory_bytes: 0,
            timeout_ms: 0,
            threads: 0,
            cube_cache: true,
            cancel: None,
        }
    }
}

impl SessionOptions {
    /// Build the statement's `ExecLimits`: the session budgets, the
    /// remaining share of the deadline (queue time already spent), and
    /// the admission grant folded into the cell cap.
    fn limits(&self, deadline: Option<Instant>, granted_cells: u64) -> ExecLimits {
        let max_cells = match (self.max_cells, granted_cells) {
            (0, g) => g,
            (m, 0) => m,
            (m, g) => m.min(g),
        };
        let mut limits = ExecLimits::none()
            .max_cells(max_cells)
            .max_memory_bytes(self.max_memory_bytes);
        if let Some(d) = deadline {
            // Already-expired deadlines become a zero timeout, tripping
            // at the first checkpoint with `Resource::TimeMs`.
            limits = limits.timeout(d.saturating_duration_since(Instant::now()));
        }
        if let Some(token) = &self.cancel {
            limits = limits.cancel_token(token.clone());
        }
        limits
    }
}

/// What a session's most recent SELECT, INSERT, DELETE or UPDATE (the
/// statements admission prices) was granted, and where its answer came
/// from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LastStatement {
    /// The cell reservation admission granted (0 = unlimited, or the
    /// statement was not admitted).
    pub granted_cells: u64,
    /// The grouping-set bitmask of the cached ancestor view that answered
    /// the statement (`None` when it was not answered from the cache).
    pub cache_ancestor: Option<u32>,
}

/// One caller's handle onto a shared engine: private options and cancel
/// token, shared catalog and admission controller. Cheap to create (two
/// `Arc` clones), `Send + Sync`, and safe to use from its own thread.
pub struct Session {
    catalog: SharedCatalog,
    admission: Arc<AdmissionController>,
    cache: Arc<CubeCache>,
    opts: Mutex<SessionOptions>,
    last: Mutex<LastStatement>,
}

impl Session {
    pub(crate) fn new(
        catalog: SharedCatalog,
        admission: Arc<AdmissionController>,
        cache: Arc<CubeCache>,
    ) -> Self {
        Session {
            catalog,
            admission,
            cache,
            opts: Mutex::new(SessionOptions::default()),
            last: Mutex::new(LastStatement::default()),
        }
    }

    /// Parse and execute one statement under this session's governance.
    /// Never panics: the whole statement lifecycle is wrapped in the
    /// panic guard, so a UDA bomb or injected fault becomes a typed
    /// `CubeError::AggPanicked` scoped to this call.
    pub fn execute(&self, sql: &str) -> SqlResult<Table> {
        match datacube::exec::guard("session", || self.execute_inner(sql)) {
            Ok(result) => result,
            Err(e) => Err(SqlError::Cube(e)),
        }
    }

    fn execute_inner(&self, sql: &str) -> SqlResult<Table> {
        match parse(sql)? {
            Statement::Select(mut stmt) => self.exec_select_governed(&mut stmt),
            Statement::Explain(stmt) => {
                // EXPLAIN is metadata-only: no scan, no cube, no
                // admission — it must work even on an overloaded engine.
                let opts = self.options();
                let runtime = QueryRuntime {
                    snap: self.catalog.snapshot(),
                    limits: opts.limits(None, 0),
                    threads: opts.threads,
                    deadline: None,
                    // EXPLAIN must not perturb cache traffic counters.
                    cache: None,
                };
                runtime.explain_select(&stmt)
            }
            Statement::Set { name, value } => self.exec_set(&name, value),
            Statement::Insert { table, rows } => self.exec_insert_governed(&table, &rows),
            Statement::Delete {
                table,
                where_clause,
            } => self.exec_delete_governed(&table, where_clause.as_ref()),
            Statement::Update {
                table,
                sets,
                where_clause,
            } => self.exec_update_governed(&table, &sets, where_clause.as_ref()),
        }
    }

    /// Fix the statement's deadline and pass admission. The deadline is
    /// fixed *before* admission: a statement that spends its whole
    /// TIMEOUT_MS in the queue gets (almost) none of it for execution,
    /// exactly as a caller-side timer would observe.
    fn admit(
        &self,
        cost: &QueryCost,
        opts: &SessionOptions,
    ) -> SqlResult<(Option<Instant>, Permit)> {
        let deadline =
            (opts.timeout_ms > 0).then(|| Instant::now() + Duration::from_millis(opts.timeout_ms));
        let permit = self.admission.admit(cost, deadline, opts.cancel.as_ref());
        *self.last() = LastStatement {
            granted_cells: permit.as_ref().map_or(0, Permit::granted_cells),
            cache_ancestor: None,
        };
        Ok((deadline, permit.map_err(SqlError::Cube)?))
    }

    /// The governed SELECT path: estimate → admit → execute → release.
    fn exec_select_governed(&self, stmt: &mut SelectStmt) -> SqlResult<Table> {
        let opts = self.options();
        let snap = self.catalog.snapshot();
        let (deadline, permit) = self.admit(&estimate_cost(stmt, &snap), &opts)?;
        let runtime = QueryRuntime {
            snap,
            limits: opts.limits(None, permit.granted_cells()),
            threads: opts.threads,
            deadline,
            cache: opts.cube_cache.then(|| Arc::clone(&self.cache)),
        };
        // `permit` is still alive here: the reservation covers the whole
        // execution and is released when it drops at scope end.
        let (result, ancestor) = runtime.exec_select(stmt)?;
        self.last().cache_ancestor = ancestor;
        Ok(result)
    }

    /// The governed write path, shared by INSERT, DELETE and UPDATE: one
    /// statement is one delta batch under one admission permit (priced as
    /// a one-set aggregation over `cost_rows`, so a flood of fat batches
    /// queues or sheds behind the same controller as queries).
    ///
    /// Publication is optimistic: `next` builds the statement's image of
    /// the table against a snapshot, and it is compare-and-swapped in by
    /// catalog version; losing a race to a concurrent writer just means
    /// rebuilding on a fresh snapshot. Readers therefore see whole batches
    /// only — a torn batch would require observing a table that was never
    /// published. `next` checks what the statement brings in — INSERT rows,
    /// UPDATE images — against the schema, so a bad literal or a
    /// type-changing assignment rejects the whole batch before
    /// publication; rows kept from the snapshot were checked when they
    /// were published and are not checked again.
    ///
    /// On success [`SharedCatalog::publish`] has the retained cache views
    /// absorb the statement's delta: its inserts merge, its deletes
    /// retract, and a cell that cannot retract (§6: "max is ... holistic
    /// for DELETE") is recomputed from the published table.
    fn exec_write_governed(
        &self,
        table: &str,
        verb: &str,
        cost_rows: u64,
        mut next: impl FnMut(&Table, &CatalogSnapshot, &ExecContext) -> SqlResult<Written>,
    ) -> SqlResult<Table> {
        let opts = self.options();
        let cost = QueryCost {
            rows: cost_rows,
            sets: 1,
            cells: cost_rows,
        };
        let (deadline, permit) = self.admit(&cost, &opts)?;
        let ctx = ExecContext::new(&opts.limits(deadline, permit.granted_cells()), 1);
        loop {
            ctx.checkpoint().map_err(SqlError::Cube)?;
            let snap = self.catalog.snapshot();
            let old = snap.table(table)?;
            let expected = snap.table_version(table);
            let written = next(&old, &snap, &ctx)?;
            if written.delta.is_empty() {
                // Nothing matched: no republish, no version bump, caches
                // stay warm.
                return dml_result(table, verb, 0);
            }
            let image = Table::from_validated_rows(old.schema().clone(), written.rows);
            let delta = Some(&written.delta);
            let published =
                self.catalog
                    .publish(&self.cache, table, Some(expected), image, delta)?;
            if published.is_some() {
                return dml_result(table, verb, written.count);
            }
        }
    }

    /// INSERT: the literal rows, appended. They are evaluated against an
    /// empty scope: column references have nothing to bind to and error in
    /// planning terms.
    fn exec_insert_governed(&self, table: &str, rows: &[Vec<Expr>]) -> SqlResult<Table> {
        let empty_schema = Schema::new(vec![])?;
        let scratch = Row::new(vec![]);
        self.exec_write_governed(table, "inserted", rows.len() as u64, |old, snap, ctx| {
            let ectx = EvalContext::base(&empty_schema, &snap.scalars);
            let mut inserted = Vec::with_capacity(rows.len());
            for (i, exprs) in rows.iter().enumerate() {
                ctx.tick(i).map_err(SqlError::Cube)?;
                let vals = exprs.iter().map(|e| eval(e, &scratch, &ectx));
                inserted.push(Row::new(vals.collect::<SqlResult<Vec<Value>>>()?));
            }
            let inserted = Table::new(old.schema().clone(), inserted)?.into_rows();
            let mut next = old.rows().to_vec();
            next.extend(inserted.iter().cloned());
            Ok(Written {
                rows: next,
                count: inserted.len() as i64,
                delta: DeltaBatch::of(inserted, Vec::new()),
            })
        })
    }

    /// Rows of `table` in the current snapshot — what a DELETE or UPDATE
    /// scans, and so what admission prices it at (0 for an unknown table:
    /// the statement fails in planning anyway).
    fn scan_rows(&self, table: &str) -> u64 {
        let snap = self.catalog.snapshot();
        snap.table(table).map(|t| t.len() as u64).unwrap_or(0)
    }

    /// DELETE: every row the predicate does not select.
    fn exec_delete_governed(&self, table: &str, predicate: Option<&Expr>) -> SqlResult<Table> {
        self.exec_write_governed(table, "deleted", self.scan_rows(table), |old, snap, ctx| {
            let ectx = EvalContext::base(old.schema(), &snap.scalars);
            let mut selection = Selection::new(old, predicate, &ectx);
            let (mut kept, mut removed) = (Vec::with_capacity(old.len()), Vec::new());
            for (i, row) in old.rows().iter().enumerate() {
                ctx.tick(i).map_err(SqlError::Cube)?;
                if selection.contains(i)? {
                    removed.push(row.clone());
                } else {
                    kept.push(row.clone());
                }
            }
            Ok(Written {
                count: removed.len() as i64,
                rows: kept,
                delta: DeltaBatch::of(Vec::new(), removed),
            })
        })
    }

    /// UPDATE: sugar for delete-plus-insert in one batch — an UPDATE can
    /// never be half-admitted, and readers see old images or new images,
    /// never a mix. Assignment expressions see the old row (SQL
    /// semantics), so `SET qty = qty + 1` works.
    fn exec_update_governed(
        &self,
        table: &str,
        sets: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> SqlResult<Table> {
        self.exec_write_governed(table, "updated", self.scan_rows(table), |old, snap, ctx| {
            // Resolve assignment targets once per attempt: a bad column
            // name rejects the statement before any row is touched.
            let targets = sets
                .iter()
                .map(|(col, expr)| Ok((old.schema().index_of(col)?, expr)))
                .collect::<Result<Vec<_>, dc_relation::RelError>>()?;
            let ectx = EvalContext::base(old.schema(), &snap.scalars);
            let mut selection = Selection::new(old, predicate, &ectx);
            let mut next = Vec::with_capacity(old.len());
            let (mut inserted, mut removed) = (Vec::new(), Vec::new());
            for (i, row) in old.rows().iter().enumerate() {
                ctx.tick(i).map_err(SqlError::Cube)?;
                if !selection.contains(i)? {
                    next.push(row.clone());
                    continue;
                }
                // Every right-hand side is evaluated against the *old*
                // row before any assignment lands, so `SET a = b, b = a`
                // swaps rather than clobbers.
                let mut vals = row.values().to_vec();
                for &(idx, expr) in &targets {
                    vals[idx] = eval(expr, row, &ectx)?;
                    old.schema().column_at(idx).check(&vals[idx])?;
                }
                let new = Row::new(vals);
                next.push(new.clone());
                inserted.push(new);
                removed.push(row.clone());
            }
            Ok(Written {
                rows: next,
                count: removed.len() as i64,
                delta: DeltaBatch::of(inserted, removed),
            })
        })
    }

    fn options(&self) -> SessionOptions {
        self.opts.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    fn last(&self) -> std::sync::MutexGuard<'_, LastStatement> {
        self.last.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The grant and the answering cache view of this session's most
    /// recent admission-priced statement.
    pub fn last_statement(&self) -> LastStatement {
        *self.last()
    }

    /// Set one session execution option. Recognized names
    /// (case-insensitive): `MAX_CELLS`, `MAX_MEMORY_BYTES`, `TIMEOUT_MS`,
    /// `THREADS`, `CUBE_CACHE`. `0` resets the option to
    /// unlimited/default — except `CUBE_CACHE`, where `0` disables the
    /// cache and any non-zero value re-enables it (default on; the SQL
    /// form also accepts `SET CUBE_CACHE {ON|OFF}`).
    /// Also the programmatic form of the `SET` statement. Scoped to this
    /// session: other sessions of the same engine are unaffected.
    pub fn set_option(&self, name: &str, value: i64) -> SqlResult<()> {
        if value < 0 {
            return Err(SqlError::Plan(format!(
                "option {name} must be non-negative, got {value}"
            )));
        }
        let value = value as u64;
        let mut opts = self.opts.lock().unwrap_or_else(|p| p.into_inner());
        match name.to_uppercase().as_str() {
            "MAX_CELLS" => opts.max_cells = value,
            "MAX_MEMORY_BYTES" => opts.max_memory_bytes = value,
            "TIMEOUT_MS" => opts.timeout_ms = value,
            "THREADS" => opts.threads = value,
            "CUBE_CACHE" => opts.cube_cache = value != 0,
            other => {
                return Err(SqlError::Plan(format!(
                    "unknown option: {other} (expected MAX_CELLS, MAX_MEMORY_BYTES, \
                     TIMEOUT_MS, THREADS, or CUBE_CACHE)"
                )))
            }
        }
        Ok(())
    }

    /// Attach (or clear, with `None`) a cancellation token observed by
    /// every subsequent aggregation query on *this session* — including
    /// time spent waiting in the admission queue.
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        self.opts.lock().unwrap_or_else(|p| p.into_inner()).cancel = token;
    }

    /// `SET <option> = <value>`: store the option and return a one-row
    /// confirmation relation.
    fn exec_set(&self, name: &str, value: i64) -> SqlResult<Table> {
        self.set_option(name, value)?;
        let schema = Schema::new(vec![
            ColumnDef::new("option", DataType::Str),
            ColumnDef::new("value", DataType::Int),
        ])?;
        let mut out = Table::empty(schema);
        out.push_unchecked(Row::new(vec![
            Value::str(name.to_uppercase()),
            Value::Int(value),
        ]));
        Ok(out)
    }
}

/// One attempt of a governed write against a snapshot: the rows of the
/// table it would publish (already checked against its schema), how many
/// rows the statement touched (the ack), and the rows it inserted and
/// deleted (both, for an UPDATE) as the batch cached views absorb.
struct Written {
    rows: Vec<Row>,
    count: i64,
    delta: DeltaBatch,
}

/// One-row DML confirmation relation: `(table, <verb>) = (name, count)`.
fn dml_result(table: &str, verb: &str, count: i64) -> SqlResult<Table> {
    let schema = Schema::new(vec![
        ColumnDef::new("table", DataType::Str),
        ColumnDef::new(verb, DataType::Int),
    ])?;
    let mut out = Table::empty(schema);
    out.push_unchecked(Row::new(vec![
        Value::str(table.to_uppercase()),
        Value::Int(count),
    ]));
    Ok(out)
}

/// Upper-bound cost estimate for one statement against a snapshot:
/// per UNION branch, `sets × (rows + 1)` cells where `rows` is the
/// worst-case size of the FROM (joins multiply), summed across branches.
/// Unknown tables estimate as 0 rows — the statement will fail in
/// planning anyway, and a cheap admission keeps that error fast.
pub(crate) fn estimate_cost(stmt: &SelectStmt, snap: &CatalogSnapshot) -> QueryCost {
    fn from_rows(from: &TableRef, snap: &CatalogSnapshot) -> u64 {
        match from {
            TableRef::Named(name) => snap.table(name).map(|t| t.len() as u64).unwrap_or(0),
            TableRef::JoinUsing { left, right, .. } => {
                // Inner-join upper bound: the cross product.
                from_rows(left, snap).saturating_mul(from_rows(right, snap).max(1))
            }
        }
    }
    let mut max_rows = 0u64;
    let mut max_sets = 1u64;
    let mut cells = 0u64;
    for (_, sel) in branches(stmt) {
        let rows = from_rows(&sel.from, snap);
        let sets = sel.group_by.as_ref().map_or(1, set_count);
        max_rows = max_rows.max(rows);
        max_sets = max_sets.max(sets);
        cells = cells.saturating_add(sets.saturating_mul(rows.saturating_add(1)));
    }
    QueryCost {
        rows: max_rows,
        sets: max_sets,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relation::row;

    fn snapshot_with(rows: i64) -> CatalogSnapshot {
        let shared = SharedCatalog::new();
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ]);
        let data: Vec<Row> = (0..rows).map(|i| row![i, i % 3, 1i64]).collect();
        shared
            .register_table("t", Table::new(schema, data).unwrap())
            .unwrap();
        shared.snapshot()
    }

    fn cost_of(sql: &str, snap: &CatalogSnapshot) -> QueryCost {
        let Ok(Statement::Select(stmt)) = parse(sql) else {
            panic!("not a select: {sql}");
        };
        estimate_cost(&stmt, snap)
    }

    #[test]
    fn cube_estimates_two_to_the_n_sets() {
        let snap = snapshot_with(10);
        let cost = cost_of("SELECT SUM(c) FROM t GROUP BY CUBE a, b", &snap);
        assert_eq!(cost.sets, 4);
        assert_eq!(cost.rows, 10);
        assert_eq!(cost.cells, 4 * 11);
    }

    #[test]
    fn plain_group_by_is_one_set() {
        let snap = snapshot_with(10);
        let cost = cost_of("SELECT a, SUM(c) FROM t GROUP BY a", &snap);
        assert_eq!(cost.sets, 1);
        assert_eq!(cost.cells, 11);
    }

    #[test]
    fn rollup_and_union_compose() {
        let snap = snapshot_with(10);
        // ROLLUP a, b → 3 sets; UNION adds a 1-set branch.
        let cost = cost_of(
            "SELECT a, b, SUM(c) FROM t GROUP BY ROLLUP a, b \
             UNION ALL SELECT a, b, SUM(c) FROM t GROUP BY a, b",
            &snap,
        );
        assert_eq!(cost.sets, 3);
        assert_eq!(cost.cells, 3 * 11 + 11);
    }

    #[test]
    fn unknown_table_estimates_zero_rows() {
        let snap = snapshot_with(10);
        let cost = cost_of("SELECT SUM(x) FROM nope GROUP BY CUBE x", &snap);
        assert_eq!(cost.rows, 0);
        assert_eq!(cost.cells, 2); // 2 sets × (0 + 1)
    }
}
