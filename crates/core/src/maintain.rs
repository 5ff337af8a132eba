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
//! **Cells** are the engine's own: one arena per materialized set under
//! the store's key encoder — its dictionary and field layout — each cell
//! the select list's lanes plus a COUNT(*) lane for its support. A build
//! keeps the arenas the engine's scan and cascade made. The format only
//! widens, and the data decides it: a `u64` key re-lays (past 64 bits as a
//! `WideKey`) when unseen values outgrow a field, and POD kernel lanes
//! become boxed accumulators when a batch's measures do not compile to
//! the store's kernels.
//!
//! **Reading.** A requested set is answered from the smallest materialized
//! node that is *usable* for it (`usable`, the one ancestor test): its own
//! node directly, a finer one through the engine's `merged_child`
//! (mask-AND plus Iter_super); the engine's collation-rank materializer
//! emits the request's dimensions and aggregates in its order.
//!
//! **Writing.** A [`DeltaBatch`] folds into a fresh copy of the cells (a
//! POD copy for kernel lanes) that replaces them only once the whole batch
//! has folded, so any failure — governance tick, budget charge, guarded
//! UDA callback, fault injection — leaves the store exactly at its
//! pre-batch state and version. Inserts are encoded with the store's
//! dictionary, folded by the engine's scan and merged by its coalesce
//! (adopt a new cell, Iter_super into an old one); deletes retract per
//! lane. §6's asymmetry — "max is a distributive \[function\] for SELECT
//! and INSERT, but it is holistic for DELETE" — is handled by
//! *coalescing*: a cell that cannot take a retraction is rebuilt at most
//! once per batch, from the post-batch base. That needs the base rows, so
//! only the constructors that keep them (`cube`, `rollup`, `with_lattice`)
//! accept deletes; a `build` view keeps none. Without Iter_super (a UDA
//! built without `state()`/`merge()`) no cell can be folded into, and a
//! batch re-groups the whole store from the base.
//!
//! **Lock.** Everything a batch changes — the cells, the kept base rows,
//! the counters, the version — is one `State` behind one `RwLock`. A batch
//! takes it for writing from resolving its deletes through install; every
//! reader takes it for reading, so a reader sees whole batches only and
//! readers share. Only validation and annihilation run outside it.
//! Dividing the cells among several locks would buy nothing: every cube
//! and rollup family contains the empty grouping set, so every non-empty
//! batch rewrites the `(ALL, …, ALL)` cell and any two writers meet there.

use crate::algorithm::engine::{self, Arena, Lanes, Pipeline, Stored};
use crate::algorithm::{resolve, Algorithm, ParentChoice, Shape};
use crate::encode::{Encoded, KeyEncoder, PackedKey};
use crate::error::{CubeError, CubeResult};
use crate::exec::{self, ExecContext};
use crate::groupby::ExecStats;
use crate::lattice::{GroupingSet, Lattice};
use crate::spec::{AggSpec, BoundAgg, BoundDimension, Dimension};
use dc_aggregate::{distributive::CountStar, AggRef};
use dc_relation::{ColumnDef, DataType, FxHashMap, RelError, Row, Schema, Table, Value};
use parking_lot::RwLock;
use std::sync::Arc;

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
    /// Cell scratchpad updates applied in place (the cheap path): one per
    /// cell a batch's inserts fold into, one per cell its deletes retract
    /// from or empty.
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
    fn annihilate(&self) -> (Vec<Row>, Vec<Row>) {
        if self.deletes.is_empty() || self.inserts.is_empty() {
            return (self.inserts.clone(), self.deletes.clone());
        }
        let mut del_count: FxHashMap<&Row, usize> = FxHashMap::default();
        for d in &self.deletes {
            *del_count.entry(d).or_insert(0) += 1;
        }
        let mut ins_rows = Vec::with_capacity(self.inserts.len());
        for row in &self.inserts {
            match del_count.get_mut(row) {
                Some(c) if *c > 0 => *c -= 1,
                _ => ins_rows.push(row.clone()),
            }
        }
        let del_rows = del_count
            .into_iter()
            .flat_map(|(row, count)| std::iter::repeat_n(row.clone(), count))
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

/// A store's cells at whatever key width and lane kind the data has taken
/// them to: what the store asks of them, width-blind.
pub(crate) trait Store: Send + Sync {
    /// Cells per materialized set.
    fn sizes(&self) -> Vec<u64>;

    /// The key and cell types, and the dictionary's cardinalities.
    #[cfg(test)]
    fn format(&self) -> (String, Vec<usize>);

    /// Each `(node, onto)` of `picks` — set `node`'s cells, merged onto
    /// set `onto` when there is one — as rows of dimensions `dims` and
    /// lanes `lanes`, sorted by the dimensions in that order.
    #[allow(clippy::too_many_arguments)]
    fn read_sets(
        &self,
        aggs: &[BoundAgg],
        picks: &[(usize, Option<GroupingSet>)],
        dims: &[usize],
        lanes: &[usize],
        schema: Schema,
        stats: &mut ExecStats,
        ctx: &ExecContext,
    ) -> CubeResult<Table>;

    /// New cells: these with `batch` folded in. These stay as they are.
    fn fold_batch(
        &self,
        cube: &MaterializedCube,
        batch: &Batch<'_>,
        ctx: &ExecContext,
        stats: &mut MaintainStats,
    ) -> CubeResult<Arc<dyn Store>>;
}

/// The cells in the engine's format: one arena per materialized set,
/// parallel to the lattice, under the store's key encoder.
pub(crate) struct Nodes<K, C: Stored> {
    pub(crate) spec: C::Spec,
    pub(crate) encoder: KeyEncoder<K>,
    pub(crate) arenas: Vec<Arena<K, C>>,
}

/// A batch after annihilation, and the base it lands on.
pub(crate) struct Batch<'a> {
    ins: &'a [Row],
    del: &'a [Row],
    base: &'a [Row],
    /// `deleted[i]`: base row `i` leaves with this batch (empty when the
    /// batch deletes nothing).
    deleted: &'a [bool],
}

impl Batch<'_> {
    /// The rows after the batch: the base rows that stay, then the inserts.
    fn live(&self) -> impl Iterator<Item = &Row> + '_ {
        let deleted = |i: usize| self.deleted.get(i).copied().unwrap_or(false);
        let staying = self
            .base
            .iter()
            .enumerate()
            .filter(move |&(i, _)| !deleted(i));
        staying.map(|(_, r)| r).chain(self.ins)
    }
}

fn corrupt(what: &str) -> CubeError {
    CubeError::BadSpec(format!("corrupt cube: {what}"))
}

/// The base rows behind a cell: its support lane's count.
fn support<L: Lanes>(lanes: &L, cell: &[L::Cell]) -> CubeResult<u64> {
    let mut count = Vec::with_capacity(1);
    lanes.finals(cell, &[lanes.width() - 1], &mut count)?;
    Ok(count.first().and_then(Value::as_i64).unwrap_or(0) as u64)
}

impl<K: PackedKey, C: Stored> Nodes<K, C> {
    /// The same keys over cells `cells` makes of each arena's.
    fn converted<D: Stored>(
        &self,
        spec: D::Spec,
        cells: impl Fn(&[C]) -> CubeResult<Vec<D>>,
    ) -> CubeResult<Nodes<K, D>> {
        let arenas = self
            .arenas
            .iter()
            .map(|a| Ok(a.with_cells(cells(&a.cells)?)));
        Ok(Nodes {
            spec,
            encoder: self.encoder.clone(),
            arenas: arenas.collect::<CubeResult<_>>()?,
        })
    }

    /// Grow the dictionary by the batch's inserts — re-keyed when a `u64`
    /// field outgrew its width — then fold the batch in.
    fn grown(
        mut self,
        cube: &MaterializedCube,
        b: &Batch<'_>,
        ctx: &ExecContext,
        stats: &mut MaintainStats,
    ) -> CubeResult<Arc<dyn Store>> {
        match self.encoder.grow(b.ins, &cube.dims) {
            None => self.folded(cube, b, ctx, stats),
            Some(Encoded::Narrow(e)) => self.rekeyed(e.encoder).folded(cube, b, ctx, stats),
            Some(Encoded::Wide(e)) => self.rekeyed(e.encoder).folded(cube, b, ctx, stats),
        }
    }

    fn rekeyed<J: PackedKey>(self, encoder: KeyEncoder<J>) -> Nodes<J, C> {
        let Nodes {
            spec,
            encoder: old,
            arenas,
        } = self;
        let dense = encoder.dense_bits();
        let arenas = arenas
            .into_iter()
            .map(|a| a.rebuilt(dense, |k| encoder.repack(k, &old), |_| true));
        Nodes {
            spec,
            arenas: arenas.collect(),
            encoder,
        }
    }

    /// Fold the batch into these (fresh) cells: inserts merged, deletes
    /// retracted, cells that cannot take a retraction rebuilt from the
    /// post-batch base, emptied cells dropped.
    fn folded(
        mut self,
        cube: &MaterializedCube,
        b: &Batch<'_>,
        ctx: &ExecContext,
        stats: &mut MaintainStats,
    ) -> CubeResult<Arc<dyn Store>> {
        let (sets, dims) = (cube.lattice.sets(), &cube.dims);
        let (spec, aggs) = (&self.spec.clone(), &cube.aggs);
        let (unlaned, unkeyed) = (
            || corrupt("rows the lanes reject"),
            || corrupt("unseen values"),
        );
        let lanes = C::lanes(spec, aggs, &[]).ok_or_else(unlaned)?;
        let w = lanes.width();

        // Inserts: the engine's scan folds them into one arena per set,
        // and each merges by the coalesce's adopt-or-Iter_super.
        let ins = C::lanes(spec, aggs, b.ins).ok_or_else(unlaned)?;
        let ins_keys = self.encoder.keys(b.ins, dims).ok_or_else(unkeyed)?;
        let scan = Pipeline {
            encoder: &self.encoder,
            keys: &ins_keys,
            lanes: &ins,
            rle: false,
            ctx,
        };
        let parts = scan.group(&cube.lattice, cube.shape, &mut ExecStats::default())?;
        for (arena, (_, part)) in self.arenas.iter_mut().zip(parts) {
            stats.cells_updated += part.n_cells() as u64;
            arena.coalesce(part, &lanes, ctx)?;
        }

        // Deletes: a cell's retract together; the last of its support
        // empties it.
        let del = C::lanes(spec, aggs, b.del).ok_or_else(unlaned)?;
        let del_keys = self.encoder.keys(b.del, dims).ok_or_else(unkeyed)?;
        let (mut rebuild, mut emptied) = (Vec::new(), Vec::new());
        for (si, arena) in self.arenas.iter_mut().enumerate() {
            let mask = self.encoder.set_mask(sets[si]);
            let hit = |(row, key): (usize, &K)| Some((arena.find(key.and(mask))?, row));
            let hits = del_keys
                .iter()
                .enumerate()
                .map(hit)
                .collect::<Option<Vec<_>>>();
            let mut hits = hits.ok_or_else(|| corrupt("no cell for a deleted row"))?;
            hits.sort_unstable();
            for group in hits.chunk_by(|a, b| a.0 == b.0) {
                ctx.checkpoint()?;
                let slot = group[0].0;
                let cell = &mut arena.cells[slot * w..(slot + 1) * w];
                let left = support(&lanes, cell)?.checked_sub(group.len() as u64);
                let mut kept = left.ok_or_else(|| corrupt("cell support underflow"))? > 0;
                if !kept {
                    emptied.push((si, slot));
                    stats.cells_updated += 1;
                    continue;
                }
                for &(_, row) in group {
                    kept = kept && del.retract(cell, row)?;
                }
                if kept {
                    stats.cells_updated += 1;
                } else {
                    rebuild.push((si, slot));
                }
            }
        }

        // The delete-holistic path: each cell rebuilt once, from the rows
        // that stay in the base and the inserts.
        if !rebuild.is_empty() {
            exec::failpoint("maintain::recompute")?;
            let live: Vec<&Row> = b.live().collect();
            let live_keys = self
                .encoder
                .keys(live.iter().copied(), dims)
                .ok_or_else(unkeyed)?;
            let (mut rows, mut ends) = (Vec::new(), Vec::with_capacity(rebuild.len()));
            for &(si, slot) in &rebuild {
                let (key, mask) = (self.arenas[si].keys[slot], self.encoder.set_mask(sets[si]));
                for (i, (k, row)) in live_keys.iter().zip(&live).enumerate() {
                    ctx.tick(i)?;
                    if k.and(mask) == key {
                        rows.push((*row).clone());
                    }
                }
                ends.push(rows.len());
                stats.rows_rescanned += (live.len() - b.ins.len()) as u64;
            }
            let rebuilt = C::lanes(spec, aggs, &rows).ok_or_else(unlaned)?;
            let (mut start, mut fresh) = (0, Vec::with_capacity(w));
            for (&(si, slot), &end) in rebuild.iter().zip(&ends) {
                rebuilt.open(&mut fresh)?;
                rebuilt.fold_run(&mut fresh, start, end)?;
                self.arenas[si]
                    .cells
                    .splice(slot * w..(slot + 1) * w, fresh.drain(..));
                start = end;
            }
            stats.cells_recomputed += rebuild.len() as u64;
        }
        if !emptied.is_empty() {
            emptied.sort_unstable();
            let dense = self.encoder.dense_bits();
            let arenas = self.arenas.into_iter().enumerate();
            let kept = |(si, a): (usize, Arena<K, C>)| {
                a.rebuilt(
                    dense,
                    |k| k,
                    |slot| emptied.binary_search(&(si, slot)).is_err(),
                )
            };
            self.arenas = arenas.map(kept).collect();
        }
        Ok(Arc::new(self))
    }
}

impl<K: PackedKey, C: Stored> Store for Nodes<K, C> {
    fn sizes(&self) -> Vec<u64> {
        self.arenas.iter().map(|a| a.n_cells() as u64).collect()
    }

    #[cfg(test)]
    fn format(&self) -> (String, Vec<usize>) {
        let types = [std::any::type_name::<K>(), std::any::type_name::<C>()];
        (types.join(" "), self.encoder.cardinalities())
    }

    fn read_sets(
        &self,
        aggs: &[BoundAgg],
        picks: &[(usize, Option<GroupingSet>)],
        dims: &[usize],
        lanes: &[usize],
        schema: Schema,
        stats: &mut ExecStats,
        ctx: &ExecContext,
    ) -> CubeResult<Table> {
        let stored = C::lanes(&self.spec, aggs, &[]).ok_or_else(|| corrupt("lanes"))?;
        let pipeline = Pipeline {
            encoder: &self.encoder,
            keys: &[],
            lanes: &stored,
            rle: false,
            ctx,
        };
        let merge = |&(node, onto): &(usize, Option<GroupingSet>)| {
            ctx.checkpoint()?;
            let onto = onto.map(|set| self.encoder.set_mask(set));
            let parent = &self.arenas[node];
            onto.map(|mask| pipeline.merged_child(parent, mask))
                .transpose()
        };
        let merged = picks.iter().map(merge).collect::<CubeResult<Vec<_>>>()?;
        let read = picks.iter().zip(&merged);
        let arenas: Vec<&Arena<K, C>> = read
            .map(|(&(node, _), child)| child.as_ref().unwrap_or(&self.arenas[node]))
            .collect();
        pipeline.materialize(&arenas, dims, lanes, schema, stats)
    }

    fn fold_batch(
        &self,
        cube: &MaterializedCube,
        b: &Batch<'_>,
        ctx: &ExecContext,
        stats: &mut MaintainStats,
    ) -> CubeResult<Arc<dyn Store>> {
        let lanes = C::lanes(&self.spec, &cube.aggs, &[]).ok_or_else(|| corrupt("lanes"))?;
        if C::lanes(&self.spec, &cube.aggs, b.ins).is_some() {
            let copy = self.converted(self.spec.clone(), |cells| C::copy(&lanes, cells, ctx))?;
            return copy.grown(cube, b, ctx, stats);
        }
        // The inserts' measures do not compile to the store's kernels: the
        // lanes widen to boxed accumulators.
        let boxed = self.converted((), |cells| C::boxed(&lanes, &cube.aggs, cells, ctx))?;
        boxed.grown(cube, b, ctx, stats)
    }
}

/// Everything a batch changes, behind the store's one lock.
struct State {
    /// The cells, shared with an `absorb`ed copy until either folds a
    /// batch into new ones.
    cells: Arc<dyn Store>,
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

/// Grouping-set cells kept current under INSERT / DELETE / UPDATE and
/// answering grouping-set families from their smallest usable node.
pub struct MaterializedCube {
    base_schema: Schema,
    dims: Vec<BoundDimension>,
    /// The select list's aggregates, then the COUNT(*) support lane.
    aggs: Vec<BoundAgg>,
    /// The select list's output types.
    agg_types: Vec<DataType>,
    /// The materialized family: cascade-ordered, core first.
    lattice: Lattice,
    /// How the engine groups rows into the family: the 2^N scan for a
    /// holistic aggregate or one without Iter_super, the cascade otherwise.
    shape: Shape,
    /// Every aggregate supports Iter_super, so a batch folds into the
    /// cells. When false, a batch re-groups the store from the base.
    all_mergeable: bool,
    /// Whether `State::base` holds the base rows (deletes and
    /// non-mergeable aggregates need them; a cache view does not pay for
    /// them).
    keeps_base: bool,
    /// The one lock: written from delete resolution through install, read
    /// by every reader.
    store: RwLock<State>,
}

impl std::fmt::Debug for MaterializedCube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaterializedCube")
            .field("sets", &self.lattice.sets())
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
        Self::grouped(table, &dims, &aggs, lattice, true, &ctx)
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
        Self::grouped(table, dims, aggs, core, false, ctx)
    }

    /// Group `table` into every set of `lattice` with the engine and keep
    /// its arenas as the cells.
    fn grouped(
        table: &Table,
        dims: &[Dimension],
        aggs: &[AggSpec],
        lattice: Lattice,
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
        let (mut aggs, agg_types): (Vec<BoundAgg>, Vec<DataType>) = aggs
            .iter()
            .map(bind)
            .collect::<CubeResult<Vec<_>>>()?
            .into_iter()
            .unzip();
        let funcs = aggs.iter().map(|a| &*a.func);
        let shape = resolve(Algorithm::Auto, funcs, ParentChoice::SmallestCardinality);
        let all_mergeable = aggs.iter().all(|a| a.func.mergeable());
        aggs.push(BoundAgg {
            func: Arc::new(CountStar),
            input: None,
            output: "support".into(),
        });
        let dims = dims
            .iter()
            .map(|d| d.bind(schema))
            .collect::<CubeResult<Vec<_>>>()?;
        let mut stats = ExecStats::default();
        let cells = engine::group(
            table.rows(),
            &dims,
            &aggs,
            (&lattice, shape),
            &mut stats,
            ctx,
        )?;
        // A store that finishes past the deadline is not kept.
        ctx.checkpoint()?;
        let state = State {
            cells,
            base: if keeps_base {
                table.rows().to_vec()
            } else {
                Vec::new()
            },
            rows: table.len() as u64,
            stats: MaintainStats::default(),
            version: 0,
        };
        Ok(MaterializedCube {
            base_schema: schema.clone(),
            dims,
            aggs,
            agg_types,
            lattice,
            shape,
            all_mergeable,
            keeps_base,
            store: RwLock::new(state),
        })
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
        self.lattice
            .sets()
            .iter()
            .any(|&m| usable(query, m, mergeable))
    }

    fn in_range(&self, dim_map: &[usize], agg_map: &[usize]) -> bool {
        dim_map.iter().all(|&d| d < self.dims.len())
            && agg_map.iter().all(|&a| a < self.agg_types.len())
    }

    fn all_rewritable(&self, agg_map: &[usize]) -> bool {
        agg_map.iter().all(|&a| rewritable(&self.aggs[a].func))
    }

    /// Answer a grouping-set family by Iter_super (Figure 8): each
    /// requested set is read from the minimum-cell materialized node that
    /// is [`usable`] for it — directly when that node is the set itself,
    /// otherwise by projecting the node's cells onto the set and merging
    /// scratchpads per projected key — and finalized. A set no node is
    /// usable for is [`CubeError::Unsupported`]; a set naming a dimension
    /// the request does not map is [`CubeError::BadSpec`].
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
        let within = |s: &GroupingSet| s.subset_of(GroupingSet::full(req.dim_map.len()));
        if !paired || !self.in_range(req.dim_map, req.agg_map) || !req.sets.iter().all(within) {
            return Err(CubeError::BadSpec(format!(
                "ancestor request does not fit the store: every name needs an index, within \
                 its {} dimensions and {} aggregates, and every set only the request's \
                 dimensions",
                self.dims.len(),
                self.agg_types.len()
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
        let schema = Schema::new(cols)?;
        let mergeable = self.all_rewritable(req.agg_map);

        let state = self.store.read();
        let (sizes, nodes) = (state.cells.sizes(), self.lattice.sets());
        let pick = |set: &GroupingSet| {
            let members = (0..req.dim_map.len()).filter(|&q| set.contains(q));
            let query =
                GroupingSet::from_dims(&members.map(|q| req.dim_map[q]).collect::<Vec<_>>())?;
            let node = (0..nodes.len())
                .filter(|&si| usable(query, nodes[si], mergeable))
                .min_by_key(|&si| (sizes[si], nodes[si] != query))
                .ok_or_else(|| {
                    CubeError::Unsupported(format!(
                        "no materialized grouping set can answer {query}: it is not \
                         materialized itself, and a coarser answer needs a materialized \
                         superset and distributive or algebraic, mergeable aggregates"
                    ))
                })?;
            // The node's own cells are read as they are, and charged here.
            if nodes[node] == query {
                ctx.charge_cells(sizes[node])?;
            }
            Ok((node, (nodes[node] != query).then_some(query)))
        };
        let picks = sets.iter().map(pick).collect::<CubeResult<Vec<_>>>()?;
        let (cells, aggs, dims, lanes) = (&state.cells, &self.aggs, req.dim_map, req.agg_map);
        let mut stats = ExecStats::default();
        // cube-lint: allow(foreign, Iter_super and Final() must read the cells while the snapshot pins them; every callback is individually catch_unwind-guarded and the read guard cannot be poisoned)
        cells.read_sets(aggs, &picks, dims, lanes, schema, &mut stats, ctx)
    }

    /// Snapshot the store as a relation (same canonical order as
    /// [`crate::CubeQuery::cube`]): [`MaterializedCube::answer`] over every
    /// materialized set, so the snapshot reflects whole batches only.
    /// Errors with `AggPanicked` if a user-defined aggregate panics in
    /// Final().
    pub fn to_table(&self) -> CubeResult<Table> {
        self.answer_sets(self.lattice.sets())
    }

    /// [`MaterializedCube::answer`] over `sets` of every dimension and
    /// aggregate, under their own names.
    fn answer_sets(&self, sets: &[GroupingSet]) -> CubeResult<Table> {
        let n = self.agg_types.len();
        let dim_map: Vec<usize> = (0..self.dims.len()).collect();
        let agg_map: Vec<usize> = (0..n).collect();
        let dim_names: Vec<&str> = self.dims.iter().map(|d| &*d.name).collect();
        let agg_names: Vec<&str> = self.aggs[..n].iter().map(|a| &*a.output).collect();
        let req = AncestorRequest {
            dim_map: &dim_map,
            dim_names: &dim_names,
            agg_map: &agg_map,
            agg_names: &agg_names,
            sets,
        };
        self.answer(&req, &ExecContext::unlimited())
    }

    /// The store `delta`'s rows would have produced had they been in the
    /// table all along, as a *new* store: it shares the cells until the
    /// insert-only batch folds into a copy of them, so a reader holding
    /// the old `Arc` keeps its snapshot. Deletes are not absorbed this way
    /// — callers holding a base-less view invalidate it instead.
    pub fn absorb(&self, delta: &Table) -> CubeResult<Self> {
        exec::failpoint("cache::absorb")?;
        let state = self.store.read();
        let copy = MaterializedCube {
            base_schema: self.base_schema.clone(),
            dims: self.dims.clone(),
            aggs: self.aggs.clone(),
            agg_types: self.agg_types.clone(),
            lattice: self.lattice.clone(),
            shape: self.shape,
            all_mergeable: self.all_mergeable,
            keeps_base: self.keeps_base,
            store: RwLock::new(State {
                cells: Arc::clone(&state.cells),
                base: state.base.clone(),
                rows: state.rows,
                stats: state.stats,
                version: state.version,
            }),
        };
        drop(state);
        let ctx = ExecContext::unlimited();
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
        let (ins, del) = batch.annihilate();
        let mut stats = MaintainStats {
            inserts: batch.insert_count() as u64,
            deletes: batch.delete_count() as u64,
            batches: 1,
            ..MaintainStats::default()
        };

        // Deletes retract and may rebuild from base; non-mergeable
        // aggregates rebuild on any touch. Both need the base rows.
        if (!del.is_empty() || !self.all_mergeable) && !self.keeps_base {
            return Err(CubeError::Unsupported(
                "this store keeps no base rows, so it cannot apply deletes".into(),
            ));
        }

        exec::failpoint("maintain::batch_fold")?;
        exec::failpoint("maintain::lock")?;
        let mut state = self.store.write();

        // Resolve deletes against the base multiset before touching
        // anything: a batch with an unmatched delete is rejected whole.
        // `deleted[i]`: base row `i` leaves with this batch.
        let mut deleted: Vec<bool> = Vec::new();
        if !del.is_empty() {
            let mut positions: FxHashMap<&Row, Vec<usize>> = FxHashMap::default();
            for (i, brow) in state.base.iter().enumerate() {
                ctx.tick(i)?;
                positions.entry(brow).or_default().push(i);
            }
            deleted = vec![false; state.base.len()];
            for row in &del {
                match positions.get_mut(row).and_then(Vec::pop) {
                    Some(p) => deleted[p] = true,
                    None => {
                        return Err(CubeError::BadSpec(format!("row not in base table: {row}")))
                    }
                }
            }
        }

        // Fold into new cells; the old ones stay until the install.
        let b = Batch {
            ins: &ins,
            del: &del,
            base: &state.base,
            deleted: &deleted,
        };
        let cells = if self.all_mergeable {
            // cube-lint: allow(foreign, the batch must fold against the pre-install cells, so UDA calls run under the write lock; every callback is individually catch_unwind-guarded, so a panic surfaces as AggPanicked without poisoning the guard)
            state.cells.fold_batch(self, &b, ctx, &mut stats)?
        } else {
            // No Iter_super to fold a touched cell with: re-group the
            // store from the post-batch base.
            let post: Vec<Row> = b.live().cloned().collect();
            stats.rows_rescanned += post.len() as u64;
            let (plan, mut exec_stats) = ((&self.lattice, self.shape), ExecStats::default());
            // cube-lint: allow(foreign, the re-grouped cells must replace the old ones under the write lock; every UDA callback is individually catch_unwind-guarded)
            let cells = engine::group(&post, &self.dims, &self.aggs, plan, &mut exec_stats, ctx)?;
            stats.cells_recomputed += cells.sizes().iter().sum::<u64>();
            cells
        };

        // --- Install: infallible. Swap the cells in, splice the base.
        state.cells = cells;
        let mut leaves = deleted.iter();
        state
            .base
            .retain(|_| !leaves.next().copied().unwrap_or(false));
        state.rows += ins.len() as u64;
        state.rows -= del.len() as u64;
        if self.keeps_base {
            state.base.extend(ins);
        }
        state.stats.add(&stats);
        state.version += batch.len() as u64;
        Ok(())
    }

    /// Read one cell's aggregate values at a full coordinate (`ALL` where
    /// aggregated). `None` when the cell is not materialized or an
    /// aggregate's Final() panics (the panic is contained, not propagated).
    pub fn cell(&self, coordinate: &[Value]) -> Option<Vec<Value>> {
        let grouped: Vec<usize> = (0..coordinate.len())
            .filter(|&d| !coordinate[d].is_all())
            .collect();
        let set = GroupingSet::from_dims(&grouped).ok()?;
        let n = self.dims.len();
        if coordinate.len() != n || !self.lattice.sets().contains(&set) {
            return None;
        }
        let cells = self.answer_sets(&[set]).ok()?;
        let row = cells
            .rows()
            .iter()
            .find(|r| r.values()[..n] == *coordinate)?;
        Some(row.values()[n..].to_vec())
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
        let sizes = self.store.read().cells.sizes();
        self.lattice.sets().iter().copied().zip(sizes).collect()
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

    // ----------------------------------------------------- widening --

    /// The key and cell types the store has reached, and its dictionary's
    /// cardinalities.
    fn format(mat: &MaterializedCube) -> (String, Vec<usize>) {
        mat.store.read().cells.format()
    }

    /// `got` must be the cube of `table`, as a store built over it and
    /// as the operator computes it.
    fn assert_rebuilds(got: &Table, table: &Table, dims: &[Dimension], aggs: &[AggSpec]) {
        let rebuilt = MaterializedCube::cube(table, dims.to_vec(), aggs.to_vec()).unwrap();
        assert_eq!(got.rows(), rebuilt.to_table().unwrap().rows());
        let query = CubeQuery::new().dimensions(dims.to_vec());
        let query = aggs.iter().fold(query, |q, a| q.aggregate(a.clone()));
        assert_eq!(got.rows(), query.cube(table).unwrap().rows());
    }

    fn assert_maintained(mat: &MaterializedCube, dims: &[Dimension], aggs: &[AggSpec]) {
        let table = Table::new(mat.base_schema.clone(), mat.base_rows()).unwrap();
        assert_rebuilds(&mat.to_table().unwrap(), &table, dims, aggs);
    }

    /// A store over one row has one-bit fields. Unseen values first
    /// outgrow one field, which re-lays the `u64` key, then push the
    /// fields past 64 bits, which moves the store to the wide key.
    #[test]
    fn unseen_values_widen_a_field_then_the_key() {
        let names: Vec<String> = (0..6).map(|d| format!("d{d}")).collect();
        let mut cols: Vec<(&str, DataType)> = names.iter().map(|n| (&**n, DataType::Int)).collect();
        cols.push(("units", DataType::Int));
        let row = |v: i64, units: i64| {
            let coordinate = (0..6).map(|_| Value::Int(v));
            Row::new(coordinate.chain([Value::Int(units)]).collect())
        };
        let t = Table::new(Schema::from_pairs(&cols), vec![row(0, 1)]).unwrap();
        let dims: Vec<Dimension> = names.iter().map(Dimension::column).collect();
        let aggs = [sum_spec(), max_spec()];
        let mat = MaterializedCube::cube(&t, dims.clone(), aggs.to_vec()).unwrap();
        assert!(format(&mat).0.starts_with("u64 "));

        let apply = |rows: Vec<Row>, deletes: Vec<Row>| {
            let batch = DeltaBatch::of(rows, deletes);
            mat.apply(&batch, &ExecContext::unlimited()).unwrap();
        };
        // Three unseen d0 values: d0 needs three bits, the key one u64.
        let unseen_d0 = |v| {
            let mut r = row(0, v);
            r[0] = Value::Int(v);
            r
        };
        apply((1..4).map(unseen_d0).collect(), vec![]);
        let (key, cards) = format(&mat);
        assert!(key.starts_with("u64 "), "{key}");
        assert_eq!(cards, [4, 1, 1, 1, 1, 1]);
        assert_maintained(&mat, &dims, &aggs);

        // 1 100 unseen values in every dimension: 6 × 11 bits pass 64.
        apply((10..1110).map(|v| row(v, v % 7)).collect(), vec![]);
        assert!(format(&mat).0.contains("WideKey"));
        assert_maintained(&mat, &dims, &aggs);
        // Deletes, a MAX champion among them, on the wide key.
        apply(vec![], vec![row(0, 1), row(1096, 4), row(1105, 6)]);
        assert!(mat.stats().cells_recomputed > 0);
        assert_maintained(&mat, &dims, &aggs);
    }

    /// `DataType::accepts` lets an `Int` into a `Float` column; the batch's
    /// measures then compile to no kernel, so the store's kernel lanes
    /// widen to boxed accumulators.
    #[test]
    fn an_int_in_a_float_column_widens_kernel_lanes_to_boxes() {
        let schema = Schema::from_pairs(&[("k", DataType::Str), ("price", DataType::Float)]);
        let t = Table::new(schema, vec![row!["a", 1.5], row!["b", 2.25]]).unwrap();
        let dims = [Dimension::column("k")];
        let spec = |f: &str| AggSpec::new(builtin(f).unwrap(), "price").with_name(f.to_lowercase());
        let aggs = ["SUM", "MIN", "AVG"].map(spec);
        let mat = MaterializedCube::cube(&t, dims.to_vec(), aggs.to_vec()).unwrap();
        assert!(format(&mat).0.ends_with("KernelCell"));
        mat.insert(row!["a", 3]).unwrap();
        assert!(format(&mat).0.contains("Accumulator"));
        assert_maintained(&mat, &dims, &aggs);
        mat.delete(&row!["a", 1.5]).unwrap();
        assert_maintained(&mat, &dims, &aggs);
    }

    /// `absorb` grows a private copy of the dictionary: the old `Arc`'s
    /// answers and dictionary stay as they were.
    #[test]
    fn absorb_with_unseen_values_spares_the_old_dictionary() {
        let t = base();
        let view = std::sync::Arc::new(CachedView::build(&t, &dims(), &[sum_spec()]).unwrap());
        let (before, (_, cards)) = (view.to_table().unwrap(), format(&view));
        let delta = vec![row!["Dodge", 2001, 7], row!["Ford", 1999, 1]];
        let absorbed = view
            .absorb(&Table::new(t.schema().clone(), delta.clone()).unwrap())
            .unwrap();
        assert_eq!(format(&absorbed).1, [3, 4]);
        assert_eq!((view.to_table().unwrap(), format(&view).1), (before, cards));

        let table = Table::new(t.schema().clone(), [t.rows(), &delta].concat()).unwrap();
        let sets = crate::lattice::cube_sets(2).unwrap();
        let req = AncestorRequest {
            dim_map: &[0, 1],
            dim_names: &["model", "year"],
            agg_map: &[0],
            agg_names: &["units"],
            sets: &sets,
        };
        let got = absorbed.answer(&req, &ExecContext::unlimited()).unwrap();
        assert_rebuilds(&got, &table, &dims(), &[sum_spec()]);
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
        // A set bit past the request's dimensions names nothing: refused,
        // not answered as a second copy of the set below it.
        let stray = AncestorRequest {
            dim_map: &[0],
            dim_names: &["model"],
            agg_map: &[0],
            agg_names: &["s"],
            sets: &[GroupingSet::full(1), GroupingSet::from_bits(0b100001)],
        };
        assert!(matches!(
            view.answer(&stray, &ctx),
            Err(CubeError::BadSpec(_))
        ));
    }
}
