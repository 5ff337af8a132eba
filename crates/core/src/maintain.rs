//! The materialized store (§6): the one structure that keeps grouping-set
//! cells between statements.
//!
//! "We have been surprised that some customers use these operators to
//! compute and store the cube. These customers then define triggers on the
//! underlying tables so that when the tables change, the cube is
//! dynamically updated." [`MaterializedCube`] is that pattern: a family of
//! grouping sets containing the core, kept current by
//! [`MaterializedCube::apply`] and read by [`MaterializedCube::answer`].
//! A maintained cube ([`MaterializedCube::cube`]), an HRU partial selection
//! ([`MaterializedCube::with_lattice`] over
//! [`crate::subcube::greedy_select`]'s picks) and a lattice-cache view
//! ([`MaterializedCube::build`], exported as [`CachedView`]) are the same
//! store with different families. DESIGN.md "Materialized store" has the
//! long form of what follows.
//!
//! **Cells** hold live accumulators plus a support count — not final
//! values (an average of averages is wrong) and not `state()` tuples (a
//! user-defined aggregate built without `state()`/`merge()` has none, and
//! a maintained cube must still carry it).
//!
//! **Reading.** A requested set is answered from the smallest materialized
//! node that is *usable* for it (`usable`, the one ancestor test): its own
//! node directly, a finer one by projecting and merging scratchpads.
//!
//! **Writing.** A [`DeltaBatch`] folds in one grouping-set pass. It first
//! *stages* replacement scratchpads — existing state merged in by
//! Iter_super, deletes retracted, inserts iterated — with every fallible
//! call (governance ticks, budget charges, guarded UDA callbacks, fault
//! injection) confined to that phase; only then does the infallible
//! *install* swap the staged cells in and splice the base rows, so any
//! failure leaves the store exactly at its pre-batch state and version.
//! §6's asymmetry — "max is a distributive \[function\] for SELECT and
//! INSERT, but it is holistic for DELETE" — is handled by *coalescing*: a
//! cell whose scratchpad cannot absorb a retraction
//! ([`dc_aggregate::Retract::Recompute`]) is rebuilt at most once per
//! batch, from the post-batch base. That needs the base rows, so only the
//! constructors that keep them (`cube`, `rollup`, `with_lattice`) accept
//! deletes; a `build` view keeps none.
//!
//! **Lock.** Everything a batch changes — the cells, the kept base rows,
//! the counters, the version — is one `State` behind one `RwLock`. A batch
//! takes it for writing from staging through install; every reader takes
//! it for reading, so a reader sees whole batches only and readers share.
//! Only the batch-local grouping of rows by `(set, key)` runs outside it.
//! Dividing the cells among several locks would buy nothing: every cube
//! and rollup family contains the empty grouping set, so every non-empty
//! batch rewrites the `(ALL, …, ALL)` cell and any two writers meet there.

use crate::error::{CubeError, CubeResult};
use crate::exec::{self, ExecContext};
use crate::groupby::{full_key, project_key, ExecStats};
use crate::lattice::{GroupingSet, Lattice};
use crate::spec::{AggSpec, BoundAgg, BoundDimension, Dimension};
use dc_aggregate::{Accumulator, AggRef, Retract};
use dc_relation::{ColumnDef, DataType, FxHashMap, RelError, Row, Schema, Table, Value};
use parking_lot::RwLock;

/// Whether a query using this aggregate may legally be answered from a
/// *coarser-than-exact* materialized node's scratchpads.
///
/// The criterion is the paper's §5 taxonomy plus the Iter_super
/// availability probe: the scratchpad must have a constant size bound
/// (distributive or algebraic — holistic state is the whole multiset,
/// so caching it buys nothing over the base table) and `merge` must
/// genuinely fold sub-aggregate state (a UDA built without
/// `state()`/`merge()` would silently drop data).
pub fn rewritable(func: &AggRef) -> bool {
    func.kind().bounded_state() && func.mergeable()
}

/// *Usability* of materialized node `node` for answering grouping set
/// `query` ("A Cube Algebra with Comparative Operations", arXiv
/// 2203.09390: one cube is usable for another when it is at least as fine
/// and the measures can be re-aggregated): the node groups by a superset
/// of the query's dimensions, and by exactly those dimensions unless every
/// requested aggregate is [`rewritable`]. The one ancestor test — the
/// store's node choice and the SQL cache's lookup both go through it.
fn usable(query: GroupingSet, node: GroupingSet, rewritable: bool) -> bool {
    query == node || (rewritable && query.subset_of(node))
}

/// How a query maps onto the [`MaterializedCube`] it wants answered from.
///
/// All indices are *store* positions: `dim_map[i]` is the store dimension
/// backing query dimension `i`, `agg_map[k]` the store aggregate backing
/// query aggregate `k`. Grouping sets are over the query's dimensions.
pub struct AncestorRequest<'a> {
    pub dim_map: &'a [usize],
    pub dim_names: &'a [&'a str],
    pub agg_map: &'a [usize],
    pub agg_names: &'a [&'a str],
    pub sets: &'a [GroupingSet],
}

/// A lattice-cache view: the store materialized at the core only, with no
/// base rows ([`MaterializedCube::build`]).
pub type CachedView = MaterializedCube;

/// Work counters for maintenance operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainStats {
    pub inserts: u64,
    pub deletes: u64,
    /// Delta batches applied (a legacy single-row insert/delete counts as
    /// a batch of one).
    pub batches: u64,
    /// Cell scratchpad updates applied in place (the cheap path).
    pub cells_updated: u64,
    /// Cells that had to be recomputed from base rows (the delete-holistic
    /// path), coalesced to at most one rebuild per cell per batch.
    pub cells_recomputed: u64,
    /// Base rows rescanned during recomputations.
    pub rows_rescanned: u64,
}

impl MaintainStats {
    fn add(&mut self, other: &MaintainStats) {
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.batches += other.batches;
        self.cells_updated += other.cells_updated;
        self.cells_recomputed += other.cells_recomputed;
        self.rows_rescanned += other.rows_rescanned;
    }
}

/// A buffer of pending inserts and deletes — the unit of maintenance
/// work. Accumulate changes with [`DeltaBatch::insert`] /
/// [`DeltaBatch::delete`], then fold the whole batch into a cube with
/// [`MaterializedCube::apply`].
///
/// Semantics: a batch is an *unordered multiset delta*. An insert and a
/// delete of the same row value inside one batch annihilate; surviving
/// deletes must match rows of the pre-batch base (multiset containment) or
/// the whole batch is rejected before any state changes.
#[derive(Default)]
pub struct DeltaBatch {
    inserts: Vec<Row>,
    deletes: Vec<Row>,
}

impl DeltaBatch {
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// A batch of rows taken as they are; `apply` validates them.
    fn of(inserts: Vec<Row>, deletes: Vec<Row>) -> Self {
        DeltaBatch { inserts, deletes }
    }

    /// Queue a row for insertion. The first insert fixes the batch's
    /// arity; later rows must match it (full schema validation happens at
    /// [`MaterializedCube::apply`]).
    pub fn insert(&mut self, row: Row) -> CubeResult<()> {
        if let Some(first) = self.inserts.first() {
            arity(first.len(), &row)?;
        }
        self.inserts.push(row);
        Ok(())
    }

    /// Queue a row for deletion (matched by value against the base).
    pub fn delete(&mut self, row: Row) {
        self.deletes.push(row);
    }

    /// Number of queued inserts.
    pub fn insert_count(&self) -> usize {
        self.inserts.len()
    }

    /// Number of queued deletes.
    pub fn delete_count(&self) -> usize {
        self.deletes.len()
    }

    /// Total queued operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validate every queued row against the cube's base schema.
    fn validate(&self, schema: &Schema) -> CubeResult<()> {
        for row in &self.inserts {
            arity(schema.len(), row)?;
            for (v, def) in row.iter().zip(schema.columns()) {
                def.check(v)?;
            }
        }
        self.deletes.iter().try_for_each(|r| arity(schema.len(), r))
    }

    /// Cancel matching insert/delete pairs and return the survivors.
    fn annihilate(&self) -> (Vec<&Row>, Vec<&Row>) {
        if self.deletes.is_empty() || self.inserts.is_empty() {
            return (self.inserts.iter().collect(), self.deletes.iter().collect());
        }
        let mut del_count: FxHashMap<&Row, usize> = FxHashMap::default();
        for d in &self.deletes {
            *del_count.entry(d).or_insert(0) += 1;
        }
        let mut ins_rows = Vec::with_capacity(self.inserts.len());
        for row in &self.inserts {
            match del_count.get_mut(row) {
                Some(c) if *c > 0 => *c -= 1,
                _ => ins_rows.push(row),
            }
        }
        let del_rows = del_count
            .into_iter()
            .flat_map(|(row, count)| std::iter::repeat_n(row, count))
            .collect();
        (ins_rows, del_rows)
    }
}

fn arity(expected: usize, row: &Row) -> CubeResult<()> {
    if row.len() == expected {
        return Ok(());
    }
    Err(CubeError::Rel(RelError::ArityMismatch {
        expected,
        got: row.len(),
    }))
}

/// The one cell format: live scratchpads plus the number of base rows
/// behind them.
struct Cell {
    accs: Vec<Box<dyn Accumulator>>,
    /// Base rows contributing to this cell; when it reaches zero the cell
    /// disappears from the cube (sparse representation, §5).
    support: u64,
}

/// Everything a batch changes, behind the store's one lock.
#[derive(Default)]
struct State {
    /// The cells of each materialized grouping set, parallel to `sets`.
    nodes: Vec<FxHashMap<Row, Cell>>,
    /// The base table, when the constructor keeps it (empty otherwise).
    base: Vec<Row>,
    /// Base rows the cells summarize, kept or not.
    rows: u64,
    stats: MaintainStats,
    /// Monotone maintenance version: bumped per maintained row, so derived
    /// structures (the SQL layer's lattice cache keys results by table
    /// version) can detect staleness without diffing.
    version: u64,
}

/// Per-cell slice of a batch: which batch inserts and deletes project onto
/// this `(set, key)`.
#[derive(Default)]
struct GroupDelta {
    ins: Vec<u32>,
    del: Vec<u32>,
}

/// The post-annihilation batch plus the base it lands on — what staging a
/// touched cell reads.
struct Staging<'a> {
    ins_rows: &'a [&'a Row],
    del_rows: &'a [&'a Row],
    base: &'a [Row],
    /// `deleted[i]`: base row `i` leaves with this batch (empty when the
    /// batch deletes nothing).
    deleted: &'a [bool],
}

/// Grouping-set cells kept current under INSERT / DELETE / UPDATE and
/// answering grouping-set families from their smallest usable node.
pub struct MaterializedCube {
    base_schema: Schema,
    dims: Vec<BoundDimension>,
    aggs: Vec<BoundAgg>,
    agg_types: Vec<DataType>,
    /// The materialized family: cascade-ordered, core first.
    sets: Vec<GroupingSet>,
    /// Every aggregate supports Iter_super, so existing cells can be
    /// reconstructed from their `state()` during staging. When false, any
    /// touch of an existing cell falls back to a rebuild from base.
    all_mergeable: bool,
    /// Whether `State::base` holds the base rows (deletes and
    /// non-mergeable aggregates need them; a cache view does not pay for
    /// them).
    keeps_base: bool,
    /// The one lock: written from staging through install, read by every
    /// reader.
    store: RwLock<State>,
}

impl std::fmt::Debug for MaterializedCube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaterializedCube")
            .field("sets", &self.sets)
            .field("cells", &self.cell_count())
            .field("base_rows", &self.base_row_count())
            .finish()
    }
}

impl MaterializedCube {
    /// Materialize the full cube of `table`.
    pub fn cube(table: &Table, dims: Vec<Dimension>, aggs: Vec<AggSpec>) -> CubeResult<Self> {
        let lattice = Lattice::cube(dims.len())?;
        Self::with_lattice(table, dims, aggs, lattice)
    }

    /// Materialize a rollup of `table`.
    pub fn rollup(table: &Table, dims: Vec<Dimension>, aggs: Vec<AggSpec>) -> CubeResult<Self> {
        let lattice = Lattice::rollup(dims.len())?;
        Self::with_lattice(table, dims, aggs, lattice)
    }

    /// Materialize an explicit grouping-set family (a [`Lattice`] always
    /// contains the core), keeping the base rows so the store accepts
    /// deletes. With [`crate::subcube::greedy_select`]'s picks this is the
    /// HRU partial cube.
    pub fn with_lattice(
        table: &Table,
        dims: Vec<Dimension>,
        aggs: Vec<AggSpec>,
        lattice: Lattice,
    ) -> CubeResult<Self> {
        let ctx = ExecContext::unlimited();
        Self::materialize(table, &dims, &aggs, lattice.sets(), true, &ctx)
    }

    /// A lattice-cache view with no execution limits: see
    /// [`MaterializedCube::build_within`].
    pub fn build(table: &Table, dims: &[Dimension], aggs: &[AggSpec]) -> CubeResult<Self> {
        Self::build_within(table, dims, aggs, &ExecContext::unlimited())
    }

    /// A lattice-cache view: the core GROUP BY over `dims` only, and no
    /// copy of the base rows. `ctx` governs the scan — a populate-on-miss
    /// build runs under its statement's deadline, cancel token and cell
    /// budget.
    ///
    /// Fails with [`CubeError::Unsupported`] if any aggregate is not
    /// [`rewritable`] — callers probe legality *before* paying the scan.
    pub fn build_within(
        table: &Table,
        dims: &[Dimension],
        aggs: &[AggSpec],
        ctx: &ExecContext,
    ) -> CubeResult<Self> {
        if let Some(a) = aggs.iter().find(|a| !rewritable(&a.func)) {
            return Err(CubeError::Unsupported(format!(
                "{} cannot be answered from cached ancestor state \
                 (holistic or non-mergeable)",
                a.func.name()
            )));
        }
        let core = Lattice::new(dims.len(), Vec::new())?;
        Self::materialize(table, dims, aggs, core.sets(), false, ctx)
    }

    fn materialize(
        table: &Table,
        dims: &[Dimension],
        aggs: &[AggSpec],
        sets: &[GroupingSet],
        keeps_base: bool,
        ctx: &ExecContext,
    ) -> CubeResult<Self> {
        if aggs.is_empty() {
            return Err(CubeError::BadSpec(
                "at least one aggregate is required".into(),
            ));
        }
        let schema = table.schema();
        let bind = |a: &AggSpec| -> CubeResult<(BoundAgg, DataType)> {
            Ok((a.bind(schema)?, a.output_type(schema)?))
        };
        let (aggs, agg_types): (Vec<BoundAgg>, Vec<DataType>) = aggs
            .iter()
            .map(bind)
            .collect::<CubeResult<Vec<_>>>()?
            .into_iter()
            .unzip();
        let mut cube = MaterializedCube {
            base_schema: schema.clone(),
            dims: dims
                .iter()
                .map(|d| d.bind(schema))
                .collect::<CubeResult<_>>()?,
            all_mergeable: aggs.iter().all(|a| a.func.mergeable()),
            aggs,
            agg_types,
            sets: sets.to_vec(),
            keeps_base,
            store: RwLock::new(State {
                nodes: sets.iter().map(|_| FxHashMap::default()).collect(),
                ..State::default()
            }),
        };
        if !cube.all_mergeable {
            // No Iter_super to project with: fold the rows through the
            // batch path, which Iter()s every set's cells directly.
            cube.apply(&DeltaBatch::of(table.rows().to_vec(), Vec::new()), ctx)?;
            // Initial population is not "maintenance": reset the counters.
            let state = cube.store.get_mut();
            (state.stats, state.version) = (MaintainStats::default(), 0);
            return Ok(cube);
        }

        // The engine's core scan, with a COUNT(*) lane for the support.
        let mut scan = cube.aggs.clone();
        scan.push(BoundAgg {
            func: std::sync::Arc::new(dc_aggregate::distributive::CountStar),
            input: None,
            output: "support".into(),
        });
        let mut stats = ExecStats::default();
        let states =
            crate::algorithm::core_states(table.rows(), &cube.dims, &scan, &mut stats, ctx)?;
        let mut core = FxHashMap::default();
        for (i, (key, mut states)) in states.into_iter().enumerate() {
            ctx.tick(i)?;
            let support = states.pop().and_then(|s| s.first().and_then(Value::as_i64));
            let mut accs = exec::guarded_init(&cube.aggs)?;
            for ((acc, agg), state) in accs.iter_mut().zip(&cube.aggs).zip(&states) {
                exec::guard(agg.func.name(), || acc.merge(state))?;
            }
            let support = support.unwrap_or(0) as u64;
            core.insert(key, Cell { accs, support });
        }
        // Every other materialized set by Iter_super from its smallest
        // already-built ancestor (the core at worst).
        let mut nodes = vec![core];
        let every_agg: Vec<usize> = (0..cube.aggs.len()).collect();
        for (si, &set) in cube.sets.iter().enumerate().skip(1) {
            let parent = (0..si)
                .filter(|&m| set.subset_of(cube.sets[m]))
                .min_by_key(|&m| nodes[m].len())
                .unwrap_or(0);
            let project = |key: &Row| project_key(key, set);
            let node = cube.project_merge(nodes[parent].iter(), project, &every_agg, ctx)?;
            nodes.push(node);
        }
        let state = cube.store.get_mut();
        state.nodes = nodes;
        state.rows = table.len() as u64;
        if keeps_base {
            state.base = table.rows().to_vec();
        }
        Ok(cube)
    }

    /// The one project-merge loop: fold `cells` by Iter_super into the
    /// cells of a coarser (or equal) grouping, keyed by `project(key)`,
    /// carrying the aggregates `agg_map` names. Fresh cells charge `ctx`.
    fn project_merge<'c>(
        &self,
        cells: impl Iterator<Item = (&'c Row, &'c Cell)>,
        project: impl Fn(&Row) -> Row,
        agg_map: &[usize],
        ctx: &ExecContext,
    ) -> CubeResult<FxHashMap<Row, Cell>> {
        use std::collections::hash_map::Entry;
        let mut out: FxHashMap<Row, Cell> = FxHashMap::default();
        for (i, (key, cell)) in cells.enumerate() {
            ctx.tick(i)?;
            let merged = match out.entry(project(key)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    ctx.charge_cells(1)?;
                    let funcs = agg_map.iter().map(|&a| &self.aggs[a].func);
                    let accs = funcs.map(|f| exec::guard(f.name(), || f.init()));
                    let accs = accs.collect::<CubeResult<_>>()?;
                    e.insert(Cell { accs, support: 0 })
                }
            };
            merged.support += cell.support;
            for (acc, &a) in merged.accs.iter_mut().zip(agg_map) {
                let from = &cell.accs[a];
                exec::guard(self.aggs[a].func.name(), || acc.merge(&from.state()))?;
            }
        }
        Ok(out)
    }

    /// Whether some materialized node is [`usable`] for the finest
    /// grouping a request over these maps can ask for — the lookup test a
    /// cache policy applies before calling [`MaterializedCube::answer`].
    pub fn can_answer(&self, dim_map: &[usize], agg_map: &[usize]) -> bool {
        let Ok(query) = GroupingSet::from_dims(dim_map) else {
            return false;
        };
        if !self.in_range(dim_map, agg_map) {
            return false;
        }
        let mergeable = self.all_rewritable(agg_map);
        self.sets.iter().any(|&m| usable(query, m, mergeable))
    }

    fn in_range(&self, dim_map: &[usize], agg_map: &[usize]) -> bool {
        dim_map.iter().all(|&d| d < self.dims.len()) && agg_map.iter().all(|&a| a < self.aggs.len())
    }

    fn all_rewritable(&self, agg_map: &[usize]) -> bool {
        agg_map.iter().all(|&a| rewritable(&self.aggs[a].func))
    }

    /// Answer a grouping-set family by Iter_super (Figure 8): each
    /// requested set is read from the minimum-cell materialized node that
    /// is [`usable`] for it — directly when that node is the set itself,
    /// otherwise by projecting the node's cells onto the set and merging
    /// scratchpads per projected key — and finalized. A set no node is
    /// usable for is [`CubeError::Unsupported`].
    ///
    /// Output is bit-identical to the operator's: sets ordered from the
    /// core down (length descending, then bitmask ascending, deduplicated)
    /// and each set's rows sorted by key. Every output cell charges `ctx`,
    /// the *query's* context, so a governed session cannot exceed its
    /// grant just because the answer came from the store.
    pub fn answer(&self, req: &AncestorRequest<'_>, ctx: &ExecContext) -> CubeResult<Table> {
        exec::failpoint("cache::rewrite")?;
        let paired =
            req.dim_names.len() == req.dim_map.len() && req.agg_names.len() == req.agg_map.len();
        if !paired || !self.in_range(req.dim_map, req.agg_map) {
            return Err(CubeError::BadSpec(format!(
                "ancestor request does not fit the store: every name needs an index, within \
                 its {} dimensions and {} aggregates",
                self.dims.len(),
                self.aggs.len()
            )));
        }
        let mut sets: Vec<GroupingSet> = req.sets.to_vec();
        sets.sort_by(|a, b| b.len().cmp(&a.len()).then(a.bits().cmp(&b.bits())));
        sets.dedup();
        let dims = req.dim_names.iter().zip(req.dim_map);
        let mut cols: Vec<ColumnDef> = dims
            .map(|(name, &d)| ColumnDef::with_all(name, self.dims[d].dtype))
            .collect();
        for (name, &a) in req.agg_names.iter().zip(req.agg_map) {
            cols.push(ColumnDef::new(name, self.agg_types[a]));
        }
        let mut out = Table::empty(Schema::new(cols)?);
        let mergeable = self.all_rewritable(req.agg_map);

        let state = self.store.read();
        let nodes = &state.nodes;
        for set in sets {
            ctx.checkpoint()?;
            let members: Vec<usize> = (0..req.dim_map.len())
                .filter(|&q| set.contains(q))
                .map(|q| req.dim_map[q])
                .collect();
            let query = GroupingSet::from_dims(&members)?;
            let node = (0..self.sets.len())
                .filter(|&si| usable(query, self.sets[si], mergeable))
                .min_by_key(|&si| (nodes[si].len(), self.sets[si] != query))
                .ok_or_else(|| {
                    CubeError::Unsupported(format!(
                        "no materialized grouping set can answer {query}: it is not \
                         materialized itself, and a coarser answer needs a materialized \
                         superset and distributive or algebraic, mergeable aggregates"
                    ))
                })?;
            let exact = self.sets[node] == query;
            let project = |key: &Row| {
                let member = |(q, &d): (usize, &usize)| match set.contains(q) {
                    true => key[d].clone(),
                    false => Value::All,
                };
                Row::new(req.dim_map.iter().enumerate().map(member).collect())
            };
            // (projected key, scratchpads): the stored ones, in store
            // order, when the node is the set itself; merged ones, in
            // request order, otherwise.
            let merged: Vec<Cell>;
            let mut rows: Vec<(Row, &[Box<dyn Accumulator>])> = Vec::new();
            if exact {
                for (i, (key, cell)) in nodes[node].iter().enumerate() {
                    ctx.tick(i)?;
                    ctx.charge_cells(1)?;
                    rows.push((project(key), &cell.accs));
                }
            } else {
                // cube-lint: allow(foreign, Iter_super must read the node's cells while the snapshot pins them; every callback is individually catch_unwind-guarded and the read guards cannot be poisoned)
                let cells = self.project_merge(nodes[node].iter(), project, req.agg_map, ctx)?;
                let (keys, cells): (Vec<Row>, Vec<Cell>) = cells.into_iter().unzip();
                merged = cells;
                rows.extend(keys.into_iter().zip(merged.iter().map(|c| &c.accs[..])));
            }
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            for (i, (key, accs)) in rows.into_iter().enumerate() {
                ctx.tick(i)?;
                let mut vals = key.0;
                for (k, &a) in req.agg_map.iter().enumerate() {
                    let acc = &accs[if exact { a } else { k }];
                    // cube-lint: allow(foreign, Final() must read the cell while the snapshot pins it; the guard turns a UDA panic into AggPanicked after the read guards unwind cleanly)
                    vals.push(exec::guard(self.aggs[a].func.name(), || acc.final_value())?);
                }
                out.push_unchecked(Row::new(vals));
            }
        }
        Ok(out)
    }

    /// Snapshot the store as a relation (same canonical order as
    /// [`crate::CubeQuery::cube`]): [`MaterializedCube::answer`] over every
    /// materialized set, so the snapshot reflects whole batches only.
    /// Errors with `AggPanicked` if a user-defined aggregate panics in
    /// Final().
    pub fn to_table(&self) -> CubeResult<Table> {
        let dim_map: Vec<usize> = (0..self.dims.len()).collect();
        let agg_map: Vec<usize> = (0..self.aggs.len()).collect();
        let dim_names: Vec<&str> = self.dims.iter().map(|d| &*d.name).collect();
        let agg_names: Vec<&str> = self.aggs.iter().map(|a| &*a.output).collect();
        let req = AncestorRequest {
            dim_map: &dim_map,
            dim_names: &dim_names,
            agg_map: &agg_map,
            agg_names: &agg_names,
            sets: &self.sets,
        };
        self.answer(&req, &ExecContext::unlimited())
    }

    /// The store `delta`'s rows would have produced had they been in the
    /// table all along, as a *new* store: the cells are deep-copied and the
    /// insert-only batch applied to the private copy, so a reader holding
    /// the old `Arc` keeps its snapshot. Deletes are not absorbed this way
    /// — callers holding a base-less view invalidate it instead.
    pub fn absorb(&self, delta: &Table) -> CubeResult<Self> {
        exec::failpoint("cache::absorb")?;
        if !self.all_mergeable {
            return Err(CubeError::Unsupported(
                "cells of a non-mergeable aggregate cannot be copied".into(),
            ));
        }
        let ctx = ExecContext::unlimited();
        let every_agg: Vec<usize> = (0..self.aggs.len()).collect();
        let state = self.store.read();
        let mut nodes = Vec::with_capacity(self.sets.len());
        for node in &state.nodes {
            // cube-lint: allow(foreign, the copy must read state() while the snapshot pins the cells; every callback is individually catch_unwind-guarded and the read guard cannot be poisoned)
            nodes.push(self.project_merge(node.iter(), Row::clone, &every_agg, &ctx)?);
        }
        let copy = MaterializedCube {
            base_schema: self.base_schema.clone(),
            dims: self.dims.clone(),
            aggs: self.aggs.clone(),
            agg_types: self.agg_types.clone(),
            sets: self.sets.clone(),
            all_mergeable: self.all_mergeable,
            keeps_base: self.keeps_base,
            store: RwLock::new(State {
                nodes,
                base: state.base.clone(),
                rows: state.rows,
                stats: state.stats,
                version: state.version,
            }),
        };
        drop(state);
        copy.apply(&DeltaBatch::of(delta.rows().to_vec(), Vec::new()), &ctx)?;
        Ok(copy)
    }

    /// Trigger path for `INSERT`: a batch of one.
    pub fn insert(&self, row: Row) -> CubeResult<()> {
        self.apply(
            &DeltaBatch::of(vec![row], Vec::new()),
            &ExecContext::unlimited(),
        )
    }

    /// Trigger path for `DELETE`: a batch of one. Errors if the row is
    /// not present in the base table.
    pub fn delete(&self, row: &Row) -> CubeResult<()> {
        let batch = DeltaBatch::of(Vec::new(), vec![row.clone()]);
        self.apply(&batch, &ExecContext::unlimited())
    }

    /// `UPDATE` "is just delete plus insert" (§6) — in one batch, so a bad
    /// new image leaves the old one in place.
    pub fn update(&self, old: &Row, new: Row) -> CubeResult<()> {
        let batch = DeltaBatch::of(vec![new], vec![old.clone()]);
        self.apply(&batch, &ExecContext::unlimited())
    }

    /// Fold a whole [`DeltaBatch`] into the cube under `ctx`'s governance
    /// (budget, deadline, cancellation — all polled inside the fold loop).
    ///
    /// All-or-nothing: on any error the cube is bit-for-bit at its
    /// pre-batch state and version. The panic guard wraps the whole fold,
    /// so a panicking user-defined aggregate surfaces as a typed
    /// [`CubeError::AggPanicked`], never an unwind into the caller. A
    /// batch that needs base rows (it deletes) on a store that keeps none
    /// is [`CubeError::Unsupported`].
    pub fn apply(&self, batch: &DeltaBatch, ctx: &ExecContext) -> CubeResult<()> {
        exec::guard("maintain", || self.apply_inner(batch, ctx)).and_then(|r| r)
    }

    fn apply_inner(&self, batch: &DeltaBatch, ctx: &ExecContext) -> CubeResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        batch.validate(&self.base_schema)?;

        // Annihilate insert/delete pairs: the batch is a multiset delta.
        let (ins_rows, del_rows) = batch.annihilate();
        let mut stats = MaintainStats {
            inserts: batch.insert_count() as u64,
            deletes: batch.delete_count() as u64,
            batches: 1,
            ..MaintainStats::default()
        };

        // Deletes retract and may rebuild from base; non-mergeable
        // aggregates rebuild on any touch. Both need the base rows.
        if (!del_rows.is_empty() || !self.all_mergeable) && !self.keeps_base {
            return Err(CubeError::Unsupported(
                "this store keeps no base rows, so it cannot apply deletes".into(),
            ));
        }

        // --- Fold stage: one grouping-set pass over the whole batch. It
        // reads only the immutable description, so it runs unlocked. ---
        exec::failpoint("maintain::batch_fold")?;
        let ins_full: Vec<Row> = ins_rows.iter().map(|r| full_key(&self.dims, r)).collect();
        let del_full: Vec<Row> = del_rows.iter().map(|r| full_key(&self.dims, r)).collect();
        let mut groups: FxHashMap<(usize, Row), GroupDelta> = FxHashMap::default();
        for (si, set) in self.sets.iter().enumerate() {
            ctx.checkpoint()?;
            for (i, full) in ins_full.iter().enumerate() {
                ctx.tick(i)?;
                let key = project_key(full, *set);
                groups.entry((si, key)).or_default().ins.push(i as u32);
            }
            for (i, full) in del_full.iter().enumerate() {
                ctx.tick(i)?;
                let key = project_key(full, *set);
                groups.entry((si, key)).or_default().del.push(i as u32);
            }
        }

        exec::failpoint("maintain::lock")?;
        let mut state = self.store.write();

        // Resolve deletes against the base multiset before touching
        // anything: a batch with an unmatched delete is rejected whole.
        // `deleted[i]`: base row `i` leaves with this batch.
        let mut deleted: Vec<bool> = Vec::new();
        if !del_rows.is_empty() {
            let mut positions: FxHashMap<&Row, Vec<usize>> = FxHashMap::default();
            for (i, brow) in state.base.iter().enumerate() {
                ctx.tick(i)?;
                positions.entry(brow).or_default().push(i);
            }
            deleted = vec![false; state.base.len()];
            for row in &del_rows {
                match positions.get_mut(row).and_then(Vec::pop) {
                    Some(p) => deleted[p] = true,
                    None => {
                        return Err(CubeError::BadSpec(format!("row not in base table: {row}")))
                    }
                }
            }
        }

        // --- Staging: every fallible call happens here, pre-mutation. ---
        // A staged `None` removes the cell (its support reached zero).
        let staging = Staging {
            ins_rows: &ins_rows,
            del_rows: &del_rows,
            base: &state.base,
            deleted: &deleted,
        };
        let mut staged: Vec<(usize, Row, Option<Cell>)> = Vec::with_capacity(groups.len());
        for (i, ((si, key), delta)) in groups.into_iter().enumerate() {
            ctx.tick(i)?;
            let (node, set) = (&state.nodes[si], self.sets[si]);
            // cube-lint: allow(foreign, staging must fold against the pre-install cells, so UDA calls run under the write lock; every callback is individually catch_unwind-guarded, so a panic surfaces as AggPanicked without poisoning the guard)
            let cell = self.stage_group(node, set, &key, &delta, &staging, ctx, &mut stats)?;
            staged.push((si, key, cell));
        }

        // --- Install: infallible. Swap staged cells in, splice the base.
        for (si, key, cell) in staged {
            match cell {
                Some(cell) => state.nodes[si].insert(key, cell),
                None => state.nodes[si].remove(&key),
            };
        }
        let mut leaves = deleted.iter();
        state
            .base
            .retain(|_| !leaves.next().copied().unwrap_or(false));
        if self.keeps_base {
            state.base.extend(ins_rows.iter().map(|&r| r.clone()));
        }
        state.rows += ins_rows.len() as u64;
        state.rows -= del_rows.len() as u64;
        state.stats.add(&stats);
        state.version += batch.len() as u64;
        Ok(())
    }

    /// Resolve one touched `(set, key)` cell into its replacement (`None`:
    /// the cell's support reached zero and it goes). Pure with respect to
    /// cube state: reads the existing cell, never mutates it.
    #[allow(clippy::too_many_arguments)]
    fn stage_group(
        &self,
        map: &FxHashMap<Row, Cell>,
        set: GroupingSet,
        key: &Row,
        delta: &GroupDelta,
        staging: &Staging<'_>,
        ctx: &ExecContext,
        stats: &mut MaintainStats,
    ) -> CubeResult<Option<Cell>> {
        let inserts = || delta.ins.iter().map(|&i| staging.ins_rows[i as usize]);
        let Some(cell) = map.get(key) else {
            if !delta.del.is_empty() {
                return Err(CubeError::BadSpec(format!(
                    "corrupt cube: no cell for deleted row in {set}"
                )));
            }
            ctx.charge_cells(1)?;
            let mut accs = exec::guarded_init(&self.aggs)?;
            self.fold_rows(&mut accs, inserts(), ctx)?;
            stats.cells_updated += 1;
            let support = delta.ins.len() as u64;
            return Ok(Some(Cell { accs, support }));
        };
        let d = delta.del.len() as u64;
        if d > cell.support {
            return Err(CubeError::BadSpec(format!(
                "corrupt cube: cell support underflow in {set}"
            )));
        }
        let support = cell.support - d + delta.ins.len() as u64;
        if support == 0 {
            stats.cells_updated += 1;
            return Ok(None);
        }
        let accs = match self.stage_incremental(cell, delta, staging, ctx)? {
            Some(accs) => {
                stats.cells_updated += 1;
                accs
            }
            // The delete-holistic (or non-mergeable) path: rebuild the
            // cell once, from the post-batch base — however many batch
            // rows hit it.
            None => {
                exec::failpoint("maintain::recompute")?;
                let mut accs = exec::guarded_init(&self.aggs)?;
                for (i, brow) in staging.base.iter().enumerate() {
                    ctx.tick(i)?;
                    if staging.deleted.get(i).copied().unwrap_or(false) {
                        continue;
                    }
                    stats.rows_rescanned += 1;
                    if project_key(&full_key(&self.dims, brow), set) == *key {
                        self.fold_rows(&mut accs, std::iter::once(brow), ctx)?;
                    }
                }
                self.fold_rows(&mut accs, inserts(), ctx)?;
                stats.cells_recomputed += 1;
                accs
            }
        };
        Ok(Some(Cell { accs, support }))
    }

    /// Try the cheap path for an existing cell: reconstruct its
    /// scratchpads from `state()` via Iter_super, retract the batch
    /// deletes, fold the batch inserts. `None` if the aggregates cannot
    /// merge or any retraction demands a recompute.
    fn stage_incremental(
        &self,
        cell: &Cell,
        delta: &GroupDelta,
        staging: &Staging<'_>,
        ctx: &ExecContext,
    ) -> CubeResult<Option<Vec<Box<dyn Accumulator>>>> {
        if !self.all_mergeable {
            return Ok(None);
        }
        let mut accs = exec::guarded_init(&self.aggs)?;
        for ((acc, old), agg) in accs.iter_mut().zip(cell.accs.iter()).zip(self.aggs.iter()) {
            exec::guard(agg.func.name(), || acc.merge(&old.state()))?;
        }
        for &i in &delta.del {
            ctx.checkpoint()?;
            for (acc, agg) in accs.iter_mut().zip(self.aggs.iter()) {
                match acc.retract(agg.input_value(staging.del_rows[i as usize])) {
                    Retract::Applied => {}
                    Retract::Recompute | Retract::Unsupported => return Ok(None),
                }
            }
        }
        let inserts = delta.ins.iter().map(|&i| staging.ins_rows[i as usize]);
        self.fold_rows(&mut accs, inserts, ctx)?;
        Ok(Some(accs))
    }

    /// Fold rows into scratchpads, every Iter under the panic guard.
    fn fold_rows<'r>(
        &self,
        accs: &mut [Box<dyn Accumulator>],
        rows: impl Iterator<Item = &'r Row>,
        ctx: &ExecContext,
    ) -> CubeResult<()> {
        for (i, row) in rows.enumerate() {
            ctx.tick(i)?;
            for (acc, agg) in accs.iter_mut().zip(self.aggs.iter()) {
                exec::guard(agg.func.name(), || acc.iter(agg.input_value(row)))?;
            }
        }
        Ok(())
    }

    /// Read one cell's aggregate values at a full coordinate (`ALL` where
    /// aggregated). `None` when the cell is not materialized or an
    /// aggregate's Final() panics (the panic is contained, not propagated).
    pub fn cell(&self, coordinate: &[Value]) -> Option<Vec<Value>> {
        let grouped: Vec<usize> = (0..coordinate.len())
            .filter(|&d| !coordinate[d].is_all())
            .collect();
        let mask = GroupingSet::from_dims(&grouped).ok()?;
        let si = self.sets.iter().position(|s| *s == mask)?;
        let key = Row::new(coordinate.to_vec());
        let state = self.store.read();
        let cell = state.nodes[si].get(&key)?;
        cell.accs
            .iter()
            .zip(self.aggs.iter())
            // cube-lint: allow(foreign, Final() must read the cell while the read lock pins it; the guard converts a UDA panic into None and the read guard cannot be poisoned by it)
            .map(|(a, agg)| exec::guard(agg.func.name(), || a.final_value()).ok())
            .collect()
    }

    /// Current base-table contents (empty for a store that keeps none).
    pub fn base_rows(&self) -> Vec<Row> {
        self.store.read().base.clone()
    }

    /// Base-table rows the cells summarize — the scan a hit saves —
    /// whether or not the store keeps the rows themselves.
    pub fn base_row_count(&self) -> u64 {
        self.store.read().rows
    }

    /// Maintenance work counters since construction.
    pub fn stats(&self) -> MaintainStats {
        self.store.read().stats
    }

    /// Cells per materialized grouping set, in cascade order (core first)
    /// — the measured node sizes HRU selection and node choice rank by.
    pub fn node_sizes(&self) -> Vec<(GroupingSet, u64)> {
        let state = self.store.read();
        let sizes = state.nodes.iter().map(|node| node.len() as u64);
        self.sets.iter().copied().zip(sizes).collect()
    }

    /// Number of materialized cells across all grouping sets — for a
    /// core-only view its cardinality, the quantity smallest-ancestor
    /// lookup and benefit-per-cell eviction rank by.
    pub fn cell_count(&self) -> u64 {
        self.node_sizes().iter().map(|&(_, n)| n).sum()
    }

    /// Maintenance version: 0 at construction, +1 per maintained row (an
    /// update counts twice; a batch of k rows counts k). Republishing a
    /// maintained cube under a new version invalidates any cached ancestor
    /// views keyed to the old one.
    pub fn version(&self) -> u64 {
        self.store.read().version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CubeQuery;
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType};

    fn base() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        Table::new(
            schema,
            vec![
                row!["Chevy", 1994, 50],
                row!["Chevy", 1995, 85],
                row!["Ford", 1994, 60],
            ],
        )
        .unwrap()
    }

    fn dims() -> Vec<Dimension> {
        vec![Dimension::column("model"), Dimension::column("year")]
    }

    fn sum_spec() -> AggSpec {
        AggSpec::new(builtin("SUM").unwrap(), "units").with_name("units")
    }

    fn max_spec() -> AggSpec {
        AggSpec::new(builtin("MAX").unwrap(), "units").with_name("max_units")
    }

    #[test]
    fn matches_batch_cube_after_construction() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        let batch = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_spec())
            .cube(&t)
            .unwrap();
        assert_eq!(mat.to_table().unwrap().rows(), batch.rows());
    }

    #[test]
    fn insert_updates_every_grouping_set() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        mat.insert(row!["Ford", 1995, 160]).unwrap();
        assert_eq!(
            mat.cell(&[Value::All, Value::All]),
            Some(vec![Value::Int(355)])
        );
        assert_eq!(
            mat.cell(&[Value::str("Ford"), Value::All]),
            Some(vec![Value::Int(220)])
        );
        // Exactly the 2^N = 4 cells were touched.
        assert_eq!(mat.stats().cells_updated, 4);
        assert_eq!(mat.stats().cells_recomputed, 0);
        // And the result still equals a from-scratch cube.
        let mut t2 = base();
        t2.push(row!["Ford", 1995, 160]).unwrap();
        let batch = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_spec())
            .cube(&t2)
            .unwrap();
        assert_eq!(mat.to_table().unwrap().rows(), batch.rows());
    }

    #[test]
    fn sum_deletes_without_recompute() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        mat.delete(&row!["Chevy", 1994, 50]).unwrap();
        assert_eq!(
            mat.cell(&[Value::All, Value::All]),
            Some(vec![Value::Int(145)])
        );
        assert_eq!(mat.stats().cells_recomputed, 0);
        assert_eq!(mat.stats().rows_rescanned, 0);
    }

    #[test]
    fn deleting_the_max_forces_recompute() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![max_spec()]).unwrap();
        // 85 is the global max and the (Chevy, *) max: deleting it must
        // recompute those cells; losers' cells update in place.
        mat.delete(&row!["Chevy", 1995, 85]).unwrap();
        let s = mat.stats();
        assert!(s.cells_recomputed > 0, "delete of champion must recompute");
        assert!(s.rows_rescanned > 0);
        assert_eq!(
            mat.cell(&[Value::All, Value::All]),
            Some(vec![Value::Int(60)])
        );
        assert_eq!(
            mat.cell(&[Value::str("Chevy"), Value::All]),
            Some(vec![Value::Int(50)])
        );
    }

    #[test]
    fn deleting_a_loser_is_cheap_even_for_max() {
        // §6: "if the new value 'loses' one competition, then it will lose
        // in all lower dimensions" — the dual holds for deleting losers.
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![max_spec()]).unwrap();
        mat.delete(&row!["Chevy", 1994, 50]).unwrap();
        // (Chevy,1994) cell dies with its only supporter; the surviving
        // Chevy and global cells just drop a loser: no recompute.
        assert_eq!(mat.stats().cells_recomputed, 0);
        assert_eq!(
            mat.cell(&[Value::All, Value::All]),
            Some(vec![Value::Int(85)])
        );
    }

    #[test]
    fn cell_dies_when_support_reaches_zero() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        let before = mat.cell_count();
        mat.delete(&row!["Ford", 1994, 60]).unwrap();
        // Ford's only row: exactly the two Ford-keyed cells disappear;
        // (ALL,1994) still has Chevy support.
        assert_eq!(mat.cell_count(), before - 2);
        assert_eq!(mat.cell(&[Value::str("Ford"), Value::All]), None);
    }

    #[test]
    fn update_is_delete_plus_insert() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        mat.update(&row!["Chevy", 1994, 50], row!["Chevy", 1994, 75])
            .unwrap();
        assert_eq!(
            mat.cell(&[Value::str("Chevy"), Value::Int(1994)]),
            Some(vec![Value::Int(75)])
        );
        assert_eq!(
            mat.cell(&[Value::All, Value::All]),
            Some(vec![Value::Int(220)])
        );
        let s = mat.stats();
        assert_eq!((s.inserts, s.deletes), (1, 1));
    }

    #[test]
    fn update_with_a_bad_image_changes_nothing() {
        let t = Table::new(
            base().schema().clone(),
            vec![row!["Chevy", 1994, 50], row!["Ford", 1994, 60]],
        )
        .unwrap();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        let snapshot = || {
            let cells = mat.to_table().unwrap();
            (cells, mat.base_rows(), mat.version(), mat.stats())
        };
        let before = snapshot();
        // The new image is a column short: the delete must not commit.
        assert!(mat
            .update(&row!["Chevy", 1994, 50], row!["Chevy", 1994])
            .is_err());
        assert_eq!(snapshot(), before);
        assert_eq!(
            mat.cell(&[Value::All, Value::All]),
            Some(vec![Value::Int(110)])
        );
    }

    #[test]
    fn delete_of_absent_row_errors() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        assert!(mat.delete(&row!["Dodge", 2000, 1]).is_err());
        // Nothing changed.
        assert_eq!(
            mat.cell(&[Value::All, Value::All]),
            Some(vec![Value::Int(195)])
        );
    }

    #[test]
    fn insert_validates_against_base_schema() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        assert!(mat.insert(row!["Ford", 1995]).is_err());
        assert!(mat.insert(row![1995, "Ford", 1]).is_err());
    }

    #[test]
    fn rollup_materialization() {
        let t = base();
        let mat = MaterializedCube::rollup(&t, dims(), vec![sum_spec()]).unwrap();
        // Rollup has no (ALL, year) cells.
        assert_eq!(mat.cell(&[Value::All, Value::Int(1994)]), None);
        assert_eq!(
            mat.cell(&[Value::str("Chevy"), Value::All]),
            Some(vec![Value::Int(135)])
        );
    }

    /// Readers see whole batches only: in every snapshot taken while two
    /// writers apply multi-row batches, the grand total equals the sum of
    /// that same snapshot's core cells.
    #[test]
    fn concurrent_reads_during_maintenance() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};
        let mat = Arc::new(MaterializedCube::cube(&base(), dims(), vec![sum_spec()]).unwrap());
        let start = Arc::new(Barrier::new(4));
        let writing = Arc::new(AtomicBool::new(true));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (m, start, writing) = (mat.clone(), start.clone(), writing.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut snapshots = 0;
                    // At least one snapshot after the writers are done,
                    // however the threads were scheduled.
                    while writing.load(Ordering::SeqCst) || snapshots == 0 {
                        let snap = m.to_table().unwrap();
                        let units = |r: &Row| r[2].as_i64().unwrap();
                        let core = snap
                            .rows()
                            .iter()
                            .filter(|r| !r[0].is_all() && !r[1].is_all());
                        let total = snap.rows().iter().find(|r| r[0].is_all() && r[1].is_all());
                        assert_eq!(core.map(units).sum::<i64>(), units(total.unwrap()));
                        snapshots += 1;
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let (m, start) = (mat.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for b in 0..25 {
                        let mut batch = DeltaBatch::new();
                        for i in 0..8i64 {
                            batch.insert(row![format!("W{w}"), 2000 + i, b]).unwrap();
                        }
                        m.apply(&batch, &ExecContext::unlimited()).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        writing.store(false, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(mat.base_rows().len(), 3 + 2 * 25 * 8);
    }

    // ---------------------------------------------------- batch path --

    #[test]
    fn batch_apply_equals_row_at_a_time() {
        let t = base();
        let by_row = MaterializedCube::cube(&t, dims(), vec![sum_spec(), max_spec()]).unwrap();
        let by_batch = MaterializedCube::cube(&t, dims(), vec![sum_spec(), max_spec()]).unwrap();

        by_row.insert(row!["Ford", 1995, 10]).unwrap();
        by_row.insert(row!["Ford", 1995, 20]).unwrap();
        by_row.delete(&row!["Chevy", 1995, 85]).unwrap();

        let mut batch = DeltaBatch::new();
        batch.insert(row!["Ford", 1995, 10]).unwrap();
        batch.insert(row!["Ford", 1995, 20]).unwrap();
        batch.delete(row!["Chevy", 1995, 85]);
        by_batch.apply(&batch, &ExecContext::unlimited()).unwrap();

        assert_eq!(
            by_batch.to_table().unwrap().rows(),
            by_row.to_table().unwrap().rows()
        );
        // The batch coalesced: one fold per touched cell, and the version
        // advanced by the number of maintained rows either way.
        assert_eq!(by_batch.version(), by_row.version());
        assert_eq!(by_batch.stats().batches, 1);
        assert_eq!(by_row.stats().batches, 3);
    }

    #[test]
    fn batch_coalesces_champion_recomputes() {
        // Two deletes hitting the same (ALL, ALL) MAX cell: row-at-a-time
        // recomputes it twice, the batch rebuilds it exactly once.
        let schema = Schema::from_pairs(&[("k", DataType::Str), ("u", DataType::Int)]);
        let t = Table::new(
            schema,
            vec![row!["a", 100], row!["b", 90], row!["a", 1], row!["b", 2]],
        )
        .unwrap();
        let mat = MaterializedCube::cube(
            &t,
            vec![Dimension::column("k")],
            vec![AggSpec::new(builtin("MAX").unwrap(), "u").with_name("m")],
        )
        .unwrap();
        let mut batch = DeltaBatch::new();
        batch.delete(row!["a", 100]);
        batch.delete(row!["b", 90]);
        mat.apply(&batch, &ExecContext::unlimited()).unwrap();
        // Touched cells: (a), (b), (ALL). All three rebuild, each once —
        // row-at-a-time would have rebuilt (ALL) twice.
        assert_eq!(mat.stats().cells_recomputed, 3);
        assert_eq!(mat.cell(&[Value::All]), Some(vec![Value::Int(2)]));
    }

    #[test]
    fn batch_annihilates_insert_delete_pairs() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        let before = mat.to_table().unwrap();
        let mut batch = DeltaBatch::new();
        // Insert and delete the same (new) row: net no-op, even though the
        // row was never in the base.
        batch.insert(row!["Dodge", 2001, 7]).unwrap();
        batch.delete(row!["Dodge", 2001, 7]);
        mat.apply(&batch, &ExecContext::unlimited()).unwrap();
        assert_eq!(mat.to_table().unwrap().rows(), before.rows());
        assert_eq!(mat.base_rows().len(), 3);
    }

    #[test]
    fn failed_batch_leaves_cube_at_pre_batch_state() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        let before = mat.to_table().unwrap();
        let version = mat.version();

        // An unmatched delete rejects the whole batch — including its
        // valid inserts.
        let mut batch = DeltaBatch::new();
        batch.insert(row!["Ford", 1995, 10]).unwrap();
        batch.delete(row!["Dodge", 2000, 1]);
        assert!(mat.apply(&batch, &ExecContext::unlimited()).is_err());
        assert_eq!(mat.to_table().unwrap().rows(), before.rows());
        assert_eq!(mat.version(), version);

        // A pre-cancelled context trips inside the fold loop, same story.
        let token = crate::CancelToken::new();
        token.cancel();
        let ctx = ExecContext::new(&crate::ExecLimits::none().cancel_token(token), 1);
        let mut batch = DeltaBatch::new();
        for i in 0..100 {
            batch.insert(row!["Ford", 1995, i]).unwrap();
        }
        let err = mat.apply(&batch, &ctx).unwrap_err();
        assert!(matches!(err, CubeError::Cancelled { .. }), "got {err}");
        assert_eq!(mat.to_table().unwrap().rows(), before.rows());
        assert_eq!(mat.version(), version);
    }

    #[test]
    fn batch_charges_the_cell_budget() {
        let t = base();
        let mat = MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap();
        let before = mat.to_table().unwrap();
        let ctx = ExecContext::new(&crate::ExecLimits::none().max_cells(2), 64);
        let mut batch = DeltaBatch::new();
        for i in 0..50 {
            batch.insert(row![format!("M{i}"), 2000 + i, 1i64]).unwrap();
        }
        let err = mat.apply(&batch, &ctx).unwrap_err();
        assert!(
            matches!(err, CubeError::ResourceExhausted { .. }),
            "got {err}"
        );
        assert_eq!(mat.to_table().unwrap().rows(), before.rows());
    }

    #[test]
    fn batch_arity_mismatch_is_typed() {
        let mut batch = DeltaBatch::new();
        batch.insert(row!["a", 1]).unwrap();
        assert!(batch.insert(row!["b"]).is_err());
        assert_eq!(batch.insert_count(), 1);
    }

    #[test]
    fn concurrent_batch_writers_agree_with_recompute() {
        use std::sync::Arc;
        let t = base();
        let mat = Arc::new(MaterializedCube::cube(&t, dims(), vec![sum_spec()]).unwrap());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let m = Arc::clone(&mat);
                std::thread::spawn(move || {
                    for b in 0..8 {
                        let mut batch = DeltaBatch::new();
                        for i in 0..16i64 {
                            batch.insert(row![format!("W{w}"), 2000 + b, i]).unwrap();
                        }
                        m.apply(&batch, &ExecContext::unlimited()).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let final_table = Table::new(base().schema().clone(), mat.base_rows()).unwrap();
        let expected = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_spec())
            .cube(&final_table)
            .unwrap();
        assert_eq!(mat.to_table().unwrap().rows(), expected.rows());
        assert_eq!(mat.base_rows().len(), 3 + 4 * 8 * 16);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType};

    #[test]
    fn champion_delete_on_rollup_recomputes_only_its_chain() {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        let t = Table::new(
            schema,
            vec![
                row!["Chevy", 1994, 10],
                row!["Chevy", 1994, 99], // champion of its whole rollup chain
                row!["Chevy", 1995, 50],
                row!["Ford", 1994, 60],
            ],
        )
        .unwrap();
        let dims = vec![Dimension::column("model"), Dimension::column("year")];
        let max = AggSpec::new(builtin("MAX").unwrap(), "units").with_name("m");
        let mat = MaterializedCube::rollup(&t, dims, vec![max]).unwrap();
        mat.delete(&row!["Chevy", 1994, 99]).unwrap();
        // The champion sat in 3 rollup cells: (Chevy,1994), (Chevy,ALL),
        // (ALL,ALL) — all three recomputed, nothing else.
        assert_eq!(mat.stats().cells_recomputed, 3);
        assert_eq!(
            mat.cell(&[Value::str("Chevy"), Value::Int(1994)]),
            Some(vec![Value::Int(10)])
        );
        assert_eq!(
            mat.cell(&[Value::All, Value::All]),
            Some(vec![Value::Int(60)])
        );
    }

    #[test]
    fn mixed_aggregates_recompute_together() {
        // One cell holds SUM and MAX; deleting the max forces the whole
        // cell to rebuild, and the rebuilt SUM is still right.
        let schema = Schema::from_pairs(&[("k", DataType::Str), ("units", DataType::Int)]);
        let t = Table::new(schema, vec![row!["a", 5], row!["a", 100], row!["a", 7]]).unwrap();
        let mat = MaterializedCube::cube(
            &t,
            vec![Dimension::column("k")],
            vec![
                AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s"),
                AggSpec::new(builtin("MAX").unwrap(), "units").with_name("m"),
            ],
        )
        .unwrap();
        mat.delete(&row!["a", 100]).unwrap();
        assert_eq!(
            mat.cell(&[Value::str("a")]),
            Some(vec![Value::Int(12), Value::Int(7)])
        );
    }

    #[test]
    fn reinserting_a_deleted_champion_restores_state() {
        let schema = Schema::from_pairs(&[("k", DataType::Str), ("units", DataType::Int)]);
        let t = Table::new(schema, vec![row!["a", 5], row!["a", 100]]).unwrap();
        let mat = MaterializedCube::cube(
            &t,
            vec![Dimension::column("k")],
            vec![AggSpec::new(builtin("MAX").unwrap(), "units").with_name("m")],
        )
        .unwrap();
        let before = mat.to_table().unwrap();
        mat.delete(&row!["a", 100]).unwrap();
        mat.insert(row!["a", 100]).unwrap();
        assert_eq!(mat.to_table().unwrap().rows(), before.rows());
    }
}

#[cfg(test)]
mod view_tests {
    use super::*;
    use crate::operator::CubeQuery;
    use dc_aggregate::builtin;
    use dc_relation::row;
    use std::sync::Arc;

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        Table::new(
            schema,
            vec![
                row!["Chevy", 1994, 50],
                row!["Chevy", 1994, 40],
                row!["Chevy", 1995, 85],
                row!["Ford", 1994, 60],
                row!["Ford", Value::Null, 10],
            ],
        )
        .unwrap()
    }

    fn dims(names: &[&str]) -> Vec<Dimension> {
        names.iter().map(Dimension::column).collect()
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s"),
            AggSpec::new(builtin("AVG").unwrap(), "units").with_name("a"),
        ]
    }

    /// The full 2-D request over `sets`, identity maps.
    fn full_request(sets: &[GroupingSet]) -> AncestorRequest<'_> {
        AncestorRequest {
            dim_map: &[0, 1],
            dim_names: &["model", "year"],
            agg_map: &[0, 1],
            agg_names: &["s", "a"],
            sets,
        }
    }

    #[test]
    fn rewritable_follows_taxonomy() {
        assert!(rewritable(&builtin("SUM").unwrap()));
        assert!(rewritable(&builtin("AVG").unwrap())); // algebraic: OK here
        assert!(rewritable(&builtin("VARIANCE").unwrap()));
        assert!(!rewritable(&builtin("MEDIAN").unwrap()));
        assert!(!rewritable(&builtin("COUNT DISTINCT").unwrap()));
    }

    #[test]
    fn build_rejects_holistic() {
        let t = sales();
        let holistic = vec![AggSpec::new(builtin("MEDIAN").unwrap(), "units")];
        let err = CachedView::build(&t, &dims(&["model"]), &holistic).unwrap_err();
        assert!(matches!(err, CubeError::Unsupported(_)));
    }

    /// The decisive case for scratchpad (vs final-value) cells: a full
    /// CUBE with an algebraic AVG answered from the two-dimensional core
    /// must equal the operator's answer exactly, including the ALL rows.
    #[test]
    fn cube_from_ancestor_matches_operator() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model", "year"]), &specs()).unwrap();
        let sets = crate::lattice::cube_sets(2).unwrap();
        let got = view
            .answer(&full_request(&sets), &ExecContext::unlimited())
            .unwrap();
        let expected = CubeQuery::new()
            .dimensions(dims(&["model", "year"]))
            .aggregate(specs()[0].clone())
            .aggregate(specs()[1].clone())
            .cube(&t)
            .unwrap();
        assert_eq!(got.rows(), expected.rows());
        // A view is the core alone and keeps no copy of the base rows.
        assert_eq!(view.node_sizes(), [(GroupingSet::full(2), 4)]);
        assert!(view.base_rows().is_empty());
        assert_eq!(view.base_row_count(), 5);
    }

    /// A coarser query (GROUP BY year) answered from the (model, year)
    /// ancestor, with the query's own column order and names. NULL keys
    /// stay NULL — only dropped dimensions become ALL.
    #[test]
    fn subset_query_projects_and_renames() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model", "year"]), &specs()).unwrap();
        let got = view
            .answer(
                &AncestorRequest {
                    dim_map: &[1],
                    dim_names: &["year"],
                    agg_map: &[0],
                    agg_names: &["total"],
                    sets: &[GroupingSet::full(1)],
                },
                &ExecContext::unlimited(),
            )
            .unwrap();
        let expected = CubeQuery::new()
            .dimensions(dims(&["year"]))
            .aggregate(specs()[0].clone().with_name("total"))
            .group_by(&t)
            .unwrap();
        assert_eq!(got.rows(), expected.rows());
        assert_eq!(got.schema().column("total").unwrap().dtype, DataType::Int);
    }

    #[test]
    fn answer_charges_the_callers_budget() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model", "year"]), &specs()).unwrap();
        let ctx = ExecContext::new(&crate::exec::ExecLimits::none().max_cells(2), 1);
        for set in [GroupingSet::full(2), GroupingSet::from_bits(0b01)] {
            let err = view.answer(&full_request(&[set]), &ctx).unwrap_err();
            assert!(matches!(err, CubeError::ResourceExhausted { .. }), "{set}");
        }
    }

    /// The usability rule: a holistic aggregate answers from the node that
    /// *is* the requested set and from no other; a rewritable one beside
    /// it answers from any materialized superset.
    #[test]
    fn holistic_aggregates_answer_only_from_their_exact_node() {
        let t = sales();
        let aggs = vec![
            AggSpec::new(builtin("MEDIAN").unwrap(), "units").with_name("med"),
            specs()[0].clone(),
        ];
        let lattice = Lattice::new(2, vec![GroupingSet::from_bits(0b01)]).unwrap();
        let store =
            MaterializedCube::with_lattice(&t, dims(&["model", "year"]), aggs.clone(), lattice)
                .unwrap();
        let ctx = ExecContext::unlimited();
        let ask = |agg_map: &[usize], set: GroupingSet| {
            let names: Vec<&str> = agg_map.iter().map(|&a| &*aggs[a].output).collect();
            let req = AncestorRequest {
                dim_map: &[0, 1],
                dim_names: &["model", "year"],
                agg_map,
                agg_names: &names,
                sets: &[set],
            };
            store.answer(&req, &ctx)
        };
        // {model} is materialized: MEDIAN reads its own cells.
        let by_model = ask(&[0, 1], GroupingSet::from_bits(0b01)).unwrap();
        assert_eq!(by_model.rows()[0], row!["Chevy", Value::All, 50, 175]);
        // {year} and {} are not: typed refusal for MEDIAN, an answer for SUM.
        for set in [GroupingSet::from_bits(0b10), GroupingSet::EMPTY] {
            let err = ask(&[0, 1], set).unwrap_err();
            assert!(matches!(err, CubeError::Unsupported(_)), "{set}: {err}");
            assert!(ask(&[1], set).is_ok(), "{set}");
        }
        assert!(store.can_answer(&[0], &[0]));
        assert!(!store.can_answer(&[1], &[0]));
        assert!(store.can_answer(&[1], &[1]));
    }

    /// Absorbing a delta must be indistinguishable from rebuilding over
    /// the concatenated table — same cells, same answers, same count —
    /// and must leave a reader of the old store on its snapshot.
    #[test]
    fn absorb_equals_rebuild_over_union_and_spares_the_old_snapshot() {
        let t = sales();
        let view = Arc::new(CachedView::build(&t, &dims(&["model", "year"]), &specs()).unwrap());
        let reader = Arc::clone(&view);
        let before = view.to_table().unwrap();
        let delta = Table::new(
            t.schema().clone(),
            vec![
                row!["Ford", 1995, 20],        // brand-new cell
                row!["Chevy", 1994, 5],        // merges into an existing cell
                row!["Ford", Value::Null, 30], // NULL key merges too
            ],
        )
        .unwrap();
        let absorbed = view.absorb(&delta).unwrap();

        let mut union_rows = t.rows().to_vec();
        union_rows.extend(delta.rows().iter().cloned());
        let union = Table::new(t.schema().clone(), union_rows).unwrap();
        let rebuilt = CachedView::build(&union, &dims(&["model", "year"]), &specs()).unwrap();

        let sets = crate::lattice::cube_sets(2).unwrap();
        let ctx = ExecContext::unlimited();
        assert_eq!(
            absorbed.answer(&full_request(&sets), &ctx).unwrap().rows(),
            rebuilt.answer(&full_request(&sets), &ctx).unwrap().rows()
        );
        assert_eq!(absorbed.cell_count(), rebuilt.cell_count());
        assert_eq!(absorbed.base_row_count(), rebuilt.base_row_count());

        // The Arc taken before the absorb still answers pre-insert totals.
        assert_eq!(reader.to_table().unwrap().rows(), before.rows());
        let total = reader.answer(&full_request(&[GroupingSet::EMPTY]), &ctx);
        assert_eq!(total.unwrap().rows()[0][2], Value::Int(245));
    }

    /// A view keeps no base rows, so a batch that needs them (it deletes)
    /// is refused whole — its inserts included — and nothing moves.
    #[test]
    fn delete_on_a_base_less_store_is_unsupported_and_changes_nothing() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model", "year"]), &specs()).unwrap();
        let before = view.to_table().unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert(row!["Dodge", 2001, 7]).unwrap();
        batch.delete(row!["Ford", 1994, 60]);
        let err = view.apply(&batch, &ExecContext::unlimited()).unwrap_err();
        assert!(matches!(err, CubeError::Unsupported(_)), "got {err}");
        assert_eq!(view.to_table().unwrap(), before);
        assert_eq!((view.version(), view.base_row_count()), (0, 5));
    }

    #[test]
    fn bad_maps_are_rejected() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model"]), &specs()).unwrap();
        let ctx = ExecContext::unlimited();
        let bad_dim = AncestorRequest {
            dim_map: &[7],
            dim_names: &["model"],
            agg_map: &[0],
            agg_names: &["s"],
            sets: &[GroupingSet::full(1)],
        };
        assert!(matches!(
            view.answer(&bad_dim, &ctx),
            Err(CubeError::BadSpec(_))
        ));
        let bad_agg = AncestorRequest {
            dim_map: &[0],
            dim_names: &["model"],
            agg_map: &[9],
            agg_names: &["s"],
            sets: &[GroupingSet::full(1)],
        };
        assert!(matches!(
            view.answer(&bad_agg, &ctx),
            Err(CubeError::BadSpec(_))
        ));
        assert!(!view.can_answer(&[7], &[0]) && !view.can_answer(&[0], &[9]));
    }
}
