//! The execution engine: one arena pipeline over packed keys (see
//! [`crate::encode`] for the key layout), carrying every hash-based query.
//!
//! §5 has one skeleton — scan into cells, fold super-aggregates with
//! `Iter_super`, `Final` — and this module is that skeleton, written once:
//!
//! 1. **Scan.** Workers pull [`MORSEL_ROWS`]-row morsels from a shared
//!    atomic cursor (Leis et al.'s morsel-driven scheduling: a worker stuck
//!    on a skewed range simply pulls fewer morsels) and fold each row into
//!    one [`Arena`] per target grouping set, the set's cell located by
//!    `key & mask`. The serial scan is the one-worker case of the same
//!    loop. Every morsel boundary polls [`ExecContext::checkpoint`].
//! 2. **Coalesce.** Worker arenas merge by *adopting* a first-seen cell's
//!    lanes outright and folding collisions with `Iter_super`.
//! 3. **Cascade.** Each remaining grouping set is folded from a parent
//!    set's arena, in lattice order (core first, arity descending), on the
//!    calling thread: a parent is a strict superset, so it is always built
//!    first.
//! 4. **Materialize.** Each set's cells are sorted by collation-remapped
//!    keys (a plain integer sort in decoded-`Row` order), then decoded,
//!    finalized and pushed in that order: one `Row` per cell, built once.
//!
//! Only step 1 spreads over workers (`SET THREADS`, §5's partition-parallel
//! plan); from the coalesce on, a statement stays on its own thread.
//!
//! A materialized store ([`crate::maintain`]) keeps steps 1–3's arenas as
//! its cells ([`Stored`]), answers through `merged_child` and step 4, and
//! folds a batch with step 1 and step 2's adopt-or-Iter_super
//! ([`Arena::coalesce`]).
//!
//! The hash-based algorithms are [`Shape`]s over step 1. The pipeline is
//! generic over two things, both decided from the query's data and never
//! by a caller: the key width ([`PackedKey`]: one `u64` when the
//! coordinate's fields fit 64 bits, a [`crate::encode::WideKey`]
//! otherwise) and the accumulator kind ([`Lanes`]): POD kernel cells when
//! every aggregate kernelizes ([`KernelLanes`]: one cell per measure column,
//! which every aggregate of that column reads), boxed [`Accumulator`]s
//! under [`exec::guard`] otherwise ([`BoxedLanes`]: one per aggregate).
//!
//! [`ExecStats`] accounting matches the `Row`-keyed [`super::reference`]
//! algorithms exactly:
//! `rows_scanned` per row per pass, `iter_calls` per (row, cell, aggregate),
//! `merge_calls` per (parent cell, aggregate) in the cascade and per
//! collision in the coalesce, `final_calls` per (output cell, aggregate).

use super::{ParentChoice, Shape};
use crate::encode::{encode, Encoded, EncodedInput, KeyEncoder, PackedKey};
use crate::error::CubeResult;
use crate::exec::{self, ExecContext};
use crate::groupby::ExecStats;
use crate::lattice::{GroupingSet, Lattice};
use crate::maintain::{Nodes, Store};
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::faults::Site;
use dc_aggregate::{Accumulator, Kernel, KernelCell, Parts, Retract, Validity};
use dc_relation::{Bitmap, FxHashMap, Row, Schema, Table, TypedColumn, Value};
use std::borrow::Cow;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// Rows per morsel: two checkpoint intervals, so morsel-grained polling
/// is at worst 2x coarser than the row paths' `tick`, while the slot
/// buffer (4 bytes/row) stays comfortably in L1. A multiple of 64, so a
/// morsel's validity bits start on a word boundary and kernels can take
/// whole-word [`Validity::Words`] slices.
pub(crate) const MORSEL_ROWS: usize = 2 * exec::CHECKPOINT_INTERVAL;

/// Widest packed key a dense slot table may cover: `2^16` entries is a
/// 256 KiB `u32` table — safely cache-resident next to the cells it
/// indexes, and far cheaper than a hash probe per row.
const DENSE_SLOT_BITS: u32 = 16;

/// The accumulator kind of one query: how a group's cells are
/// initialized, folded, merged and finalized. A group is `stride()`
/// adjacent `Cell`s of an [`Arena`], which its `width()` aggregates read.
/// Work is counted per aggregate, whatever the layout.
pub(crate) trait Lanes: Sync {
    type Cell: Stored;

    /// Aggregates per group: the unit [`ExecStats`] counts in.
    fn width(&self) -> usize;

    /// Cells per group: the arena's layout.
    fn stride(&self) -> usize;

    /// The paper's Init(): append one fresh cell to `cells`.
    fn open(&self, cells: &mut Vec<Self::Cell>) -> CubeResult<()>;

    /// Iter() over one morsel: row `base + j` folds into the group at slot
    /// `slots[j]` of `cells`.
    fn fold_morsel(&self, cells: &mut [Self::Cell], slots: &[u32], base: usize) -> CubeResult<()>;

    /// The paper's Iter_super(): fold group `src` into group `dst`.
    fn fold_super(&self, dst: &mut [Self::Cell], src: &[Self::Cell]) -> CubeResult<()>;

    /// Final(): append the values of the group's aggregates `lanes`, in
    /// that order, to `out`.
    fn finals(&self, group: &[Self::Cell], lanes: &[usize], out: &mut Vec<Value>)
        -> CubeResult<()>;

    /// §6 DELETE: take input row `row` back out of `group`. `false` when
    /// some aggregate cannot without the group's base rows.
    fn retract(&self, group: &mut [Self::Cell], row: usize) -> CubeResult<bool>;

    /// What a store keeps of these lanes to get lanes over other rows
    /// that make cells of the same kind.
    fn spec(&self) -> <Self::Cell as Stored>::Spec;
}

/// A lane cell a materialized store keeps: how to get lanes over a batch
/// of rows whose cells merge into the store's, and how to copy cells.
pub(crate) trait Stored: Sized + Send + Sync + 'static {
    type Spec: Clone + Send + Sync;
    type Lanes<'a>: Lanes<Cell = Self>;

    /// Lanes over `rows` that make cells of the store's kind — `None` when
    /// the rows' measures do not compile to the store's kernels. Over no
    /// rows, the store's own lanes: merge and Final() only.
    fn lanes<'a>(
        spec: &'a Self::Spec,
        aggs: &'a [BoundAgg],
        rows: &'a [Row],
    ) -> Option<Self::Lanes<'a>>;

    /// A copy of `cells`: Init() and Iter_super per group.
    fn copy(lanes: &Self::Lanes<'_>, cells: &[Self], ctx: &ExecContext) -> CubeResult<Vec<Self>> {
        let mut out = Vec::with_capacity(cells.len());
        for (i, group) in cells.chunks(lanes.stride()).enumerate() {
            ctx.tick(i)?;
            lanes.open(&mut out)?;
            let at = out.len() - group.len();
            lanes.fold_super(&mut out[at..], group)?;
        }
        Ok(out)
    }
}

/// The generic lane store: one boxed [`Accumulator`] per aggregate, every
/// callback under [`exec::guard`] (a UDA may panic in any of them).
pub(crate) struct BoxedLanes<'a> {
    pub(crate) rows: &'a [Row],
    pub(crate) aggs: &'a [BoundAgg],
}

impl Stored for Box<dyn Accumulator> {
    type Spec = ();
    type Lanes<'a> = BoxedLanes<'a>;

    fn lanes<'a>(_: &'a (), aggs: &'a [BoundAgg], rows: &'a [Row]) -> Option<BoxedLanes<'a>> {
        Some(BoxedLanes { rows, aggs })
    }
}

impl Lanes for BoxedLanes<'_> {
    type Cell = Box<dyn Accumulator>;

    fn width(&self) -> usize {
        self.aggs.len()
    }

    fn stride(&self) -> usize {
        self.aggs.len()
    }

    #[inline]
    fn open(&self, cells: &mut Vec<Self::Cell>) -> CubeResult<()> {
        for a in self.aggs {
            cells.push(exec::guard(a.func.name(), || a.func.init())?);
        }
        Ok(())
    }

    #[inline]
    fn fold_morsel(&self, cells: &mut [Self::Cell], slots: &[u32], base: usize) -> CubeResult<()> {
        let w = self.aggs.len();
        // cube-lint: allow(checkpoint, bounded by one morsel; the scan checkpoints per morsel)
        for (row, &slot) in self.rows[base..].iter().zip(slots) {
            let accs = &mut cells[slot as usize * w..(slot as usize + 1) * w];
            for (acc, agg) in accs.iter_mut().zip(self.aggs) {
                exec::guard(agg.func.name(), || acc.iter(agg.input_value(row)))?;
            }
        }
        Ok(())
    }

    #[inline]
    fn fold_super(&self, dst: &mut [Self::Cell], src: &[Self::Cell]) -> CubeResult<()> {
        for ((acc, pacc), agg) in dst.iter_mut().zip(src).zip(self.aggs) {
            exec::guard(agg.func.name(), || acc.merge(&pacc.state()))?;
        }
        Ok(())
    }

    fn finals(&self, accs: &[Self::Cell], lanes: &[usize], out: &mut Vec<Value>) -> CubeResult<()> {
        for &l in lanes {
            let acc = &accs[l];
            out.push(exec::guard(self.aggs[l].func.name(), || acc.final_value())?);
        }
        Ok(())
    }

    fn retract(&self, accs: &mut [Self::Cell], row: usize) -> CubeResult<bool> {
        for (acc, agg) in accs.iter_mut().zip(self.aggs) {
            let v = agg.input_value(&self.rows[row]);
            if exec::guard(agg.func.name(), || acc.retract(v))? != Retract::Applied {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn spec(&self) {}
}

/// A kernel cell's input.
#[derive(Clone)]
enum LaneInput {
    /// No column to read: the cell counts rows.
    Star,
    /// An `i64` measure column with its validity bitmap.
    Ints(Arc<(Vec<i64>, Bitmap)>),
    /// An `f64` measure column with its validity bitmap.
    Floats(Arc<(Vec<f64>, Bitmap)>),
}

impl From<TypedColumn> for LaneInput {
    fn from(column: TypedColumn) -> LaneInput {
        match column {
            TypedColumn::Ints(c) => LaneInput::Ints(c),
            TypedColumn::Floats(c) => LaneInput::Floats(c),
        }
    }
}

impl LaneInput {
    /// Present values, and rows.
    fn counts(&self) -> (usize, usize) {
        match self {
            LaneInput::Star => (0, 0),
            LaneInput::Ints(c) => (c.1.count_valid(), c.0.len()),
            LaneInput::Floats(c) => (c.1.count_valid(), c.0.len()),
        }
    }
}

/// One cell of a kernel group: the scratchpad of one measure column, or a
/// count of rows.
#[derive(Clone)]
struct CellSpec {
    /// The measure column it folds; `None` counts rows.
    column: Option<usize>,
    /// The column holds `f64`s.
    float: bool,
    /// The column has no NULLs, so the cell's counter counts rows and
    /// COUNT(*) reads it. Fixed at plan time, so every morsel takes the
    /// branch-free [`Validity::All`] path instead of re-deriving it.
    all_valid: bool,
    /// The fields the select list reads.
    parts: Parts,
}

/// A kernel group's layout: its cells, and the cell and kernel of each
/// aggregate. What a store keeps of its lanes.
#[derive(Clone)]
pub(crate) struct Layout {
    /// Per cell of a group, in order.
    specs: Vec<CellSpec>,
    /// Per aggregate, in select-list order: its cell and kernel.
    aggs: Vec<(usize, Kernel)>,
}

/// The kernel lane store: every aggregate is one of the built-in
/// distributive/algebraic kernels over a primitive column, and the
/// aggregates of one column share one 48-byte POD [`KernelCell`] per
/// group, which a row updates once. The kernels are engine-owned and run
/// no user code, so nothing here needs the panic guard.
pub(crate) struct KernelLanes<'a> {
    layout: Cow<'a, Layout>,
    /// Per cell of the layout, the column it reads.
    inputs: Vec<LaneInput>,
}

/// Each aggregate's kernel and the measure column it reads (`None`: it
/// counts rows). `None` when some aggregate has no kernel — holistic,
/// user-defined, PRODUCT, ... — and the whole query takes boxed lanes.
fn kernel_inputs(aggs: &[BoundAgg]) -> Option<Vec<(Kernel, Option<usize>)>> {
    if aggs.is_empty() {
        return None;
    }
    let input = |a: &BoundAgg| {
        let kernel = a.func.kernel()?;
        match (a.input, kernel) {
            (Some(_), Kernel::CountStar) => Some((kernel, None)),
            (Some(idx), _) => Some((kernel, Some(idx))),
            // The unit input is a constant non-NULL value: only the
            // counting kernels read nothing and stay correct.
            (None, Kernel::Count | Kernel::CountStar) => Some((kernel, None)),
            (None, _) => None,
        }
    };
    aggs.iter().map(input).collect()
}

impl KernelLanes<'static> {
    /// Try to compile every aggregate to a kernel over the measure columns
    /// `typed` gives: one cell per distinct column, in first-use order,
    /// keeping the parts its aggregates read. Aggregates that count rows
    /// read the first column without NULLs, or else a cell of their own,
    /// last. `None` — an aggregate without a kernel, or a measure column
    /// that is not purely `Int`/`NULL` or `Float`/`NULL` — gives the whole
    /// query boxed lanes.
    pub(crate) fn plan(
        aggs: &[BoundAgg],
        typed: impl Fn(usize) -> Option<TypedColumn>,
    ) -> Option<KernelLanes<'static>> {
        let kernels = kernel_inputs(aggs)?;
        let (mut specs, mut inputs) = (Vec::<CellSpec>::new(), Vec::new());
        let mut at: Vec<Option<usize>> = Vec::with_capacity(kernels.len());
        for &(kernel, column) in &kernels {
            let Some(idx) = column else {
                at.push(None);
                continue;
            };
            let c = match specs.iter().position(|c| c.column == column) {
                Some(c) => c,
                None => {
                    let input = LaneInput::from(typed(idx)?);
                    let (valid, rows) = input.counts();
                    specs.push(CellSpec {
                        column,
                        float: matches!(input, LaneInput::Floats(_)),
                        all_valid: valid == rows,
                        parts: Parts::default(),
                    });
                    inputs.push(input);
                    specs.len() - 1
                }
            };
            specs[c].parts = specs[c].parts.with(Parts::of(kernel, specs[c].float));
            at.push(Some(c));
        }
        let rows = specs
            .iter()
            .position(|c| c.all_valid)
            .unwrap_or(specs.len());
        if rows == specs.len() && at.contains(&None) {
            specs.push(CellSpec {
                column: None,
                float: false,
                all_valid: true,
                parts: Parts::default(),
            });
            inputs.push(LaneInput::Star);
        }
        let aggs = (kernels.iter().zip(at))
            .map(|(&(kernel, _), c)| (c.unwrap_or(rows), kernel))
            .collect();
        Some(KernelLanes {
            layout: Cow::Owned(Layout { specs, aggs }),
            inputs,
        })
    }
}

impl KernelLanes<'_> {
    fn cell(&self, c: usize) -> &CellSpec {
        &self.layout.specs[c]
    }
}

impl Stored for KernelCell {
    /// The group layout: a store pins no column of its input.
    type Spec = Layout;
    type Lanes<'a> = KernelLanes<'a>;

    /// The store's layout over `rows`' columns — `None` where a column
    /// does not fit its cell: another value type where it has a value to
    /// fold, or a NULL in a column whose cell counts rows. (So a store's
    /// rows hold one value type per measure, and lanes over any of them
    /// conform.)
    fn lanes<'a>(
        layout: &'a Layout,
        _: &'a [BoundAgg],
        rows: &'a [Row],
    ) -> Option<KernelLanes<'a>> {
        let input = |spec: &CellSpec| {
            let Some(idx) = spec.column else {
                return Some(LaneInput::Star);
            };
            let input = LaneInput::from(TypedColumn::from_rows(rows, idx)?);
            let (valid, rows) = input.counts();
            let float = matches!(input, LaneInput::Floats(_));
            let fits = (valid == 0 || float == spec.float) && (valid == rows || !spec.all_valid);
            fits.then_some(input)
        };
        Some(KernelLanes {
            inputs: layout.specs.iter().map(input).collect::<Option<_>>()?,
            layout: Cow::Borrowed(layout),
        })
    }

    /// A POD copy.
    fn copy(_: &KernelLanes<'_>, cells: &[Self], _: &ExecContext) -> CubeResult<Vec<Self>> {
        Ok(cells.to_vec())
    }
}

/// The validity words for morsel rows `[base, base + n)`: morsels start
/// on 64-row boundaries, so this is a whole-word slice of the column's
/// bitmap (tail bits past the column end are zero by construction).
fn morsel_validity(bitmap: &Bitmap, all_valid: bool, base: usize, n: usize) -> Validity<'_> {
    if all_valid {
        Validity::All
    } else {
        Validity::Words(&bitmap.words()[base / 64..(base + n).div_ceil(64)])
    }
}

impl Lanes for KernelLanes<'_> {
    type Cell = KernelCell;

    fn width(&self) -> usize {
        self.layout.aggs.len()
    }

    fn stride(&self) -> usize {
        self.layout.specs.len()
    }

    #[inline]
    fn open(&self, cells: &mut Vec<KernelCell>) -> CubeResult<()> {
        cells.resize(cells.len() + self.stride(), KernelCell::default());
        Ok(())
    }

    /// One pass per measure column: each row updates its group's cell for
    /// that column once, whatever the select list asks of it.
    #[inline]
    fn fold_morsel(&self, cells: &mut [KernelCell], slots: &[u32], base: usize) -> CubeResult<()> {
        debug_assert_eq!(base % 64, 0);
        let (n, stride) = (slots.len(), self.stride());
        for (c, (spec, input)) in self.layout.specs.iter().zip(&self.inputs).enumerate() {
            let validity = |bitmap| morsel_validity(bitmap, spec.all_valid, base, n);
            match input {
                LaneInput::Star => KernelCell::fold_rows(cells, stride, c, slots),
                LaneInput::Ints(col) => KernelCell::fold_ints(
                    cells,
                    stride,
                    c,
                    slots,
                    &col.0[base..base + n],
                    validity(&col.1),
                    spec.parts,
                ),
                LaneInput::Floats(col) => KernelCell::fold_floats(
                    cells,
                    stride,
                    c,
                    slots,
                    &col.0[base..base + n],
                    validity(&col.1),
                    spec.parts,
                ),
            }
        }
        Ok(())
    }

    #[inline]
    fn fold_super(&self, dst: &mut [KernelCell], src: &[KernelCell]) -> CubeResult<()> {
        for (dst, src) in dst.iter_mut().zip(src) {
            // cube-lint: allow(guard, engine-owned POD kernel, runs no user code)
            dst.merge(src);
        }
        Ok(())
    }

    #[inline]
    fn finals(
        &self,
        group: &[KernelCell],
        lanes: &[usize],
        out: &mut Vec<Value>,
    ) -> CubeResult<()> {
        for &l in lanes {
            let (c, kernel) = self.layout.aggs[l];
            // cube-lint: allow(guard, engine-owned POD kernel, runs no user code)
            out.push(kernel.final_value(&group[c], self.cell(c).float));
        }
        Ok(())
    }

    fn retract(&self, group: &mut [KernelCell], row: usize) -> CubeResult<bool> {
        for (c, (input, pod)) in self.inputs.iter().zip(group).enumerate() {
            let parts = self.cell(c).parts;
            let kept = match input {
                LaneInput::Star => {
                    pod.n -= 1;
                    true
                }
                LaneInput::Ints(col) if col.1.get(row) => pod.retract_int(col.0[row], parts),
                LaneInput::Floats(col) if col.1.get(row) => pod.retract_float(col.0[row], parts),
                // A NULL input folded nothing in.
                LaneInput::Ints(_) | LaneInput::Floats(_) => true,
            };
            if !kept {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn spec(&self) -> Layout {
        self.layout.clone().into_owned()
    }
}

/// How an [`Arena`] resolves a packed key to a cell slot.
#[derive(Clone)]
enum SlotIndex<K> {
    /// General case: one Fx hash map over full keys.
    Map(FxHashMap<K, u32>),
    /// Small integer key spaces: `table[key]` holds `slot + 1` (0 = empty)
    /// over every key up to the set's mask — the §5 dense-array idea
    /// applied to slot resolution.
    Dense(Vec<u32>),
}

/// Flat cell storage for one grouping set: the index resolves a packed
/// key to a group slot, `keys[slot]` remembers the key for decoding, and
/// group `i`'s cells occupy `cells[i*stride..(i+1)*stride]` — no per-group
/// allocation, sequential merges in the cascade. Slots are assigned in
/// first-touch order, so iteration over `keys` is deterministic.
pub(crate) struct Arena<K, C> {
    index: SlotIndex<K>,
    pub(crate) keys: Vec<K>,
    pub(crate) cells: Vec<C>,
    stride: usize,
}

impl<K: PackedKey, C> Arena<K, C> {
    /// Pick dense slot resolution when the keys are integers
    /// (`dense_bits`, see [`crate::encode::KeyEncoder::dense_bits`]) over a
    /// key space at most [`DENSE_SLOT_BITS`] wide *and* small relative to
    /// the expected input (`hint` rows/cells) — a giant mostly-empty table
    /// loses to the hash map on allocation and cache footprint alone.
    /// Every key is projected through the set's `mask` first, so none is
    /// above it and the table ends there: a set of low fields gets a small
    /// table whatever the key space. Otherwise a hash map pre-sized for
    /// `capacity` cells (0: grow on demand — a scan cannot know its cell
    /// count).
    fn new(stride: usize, dense_bits: Option<u32>, mask: K, hint: usize, capacity: usize) -> Self {
        let index = match dense_bits {
            Some(bits) if bits <= DENSE_SLOT_BITS && (1usize << bits) <= (64 * hint).max(1024) => {
                SlotIndex::Dense(vec![0u32; mask.dense_index() + 1])
            }
            _ => SlotIndex::Map(FxHashMap::with_capacity_and_hasher(
                capacity,
                Default::default(),
            )),
        };
        Arena {
            index,
            keys: Vec::with_capacity(capacity),
            cells: Vec::with_capacity(capacity * stride),
            stride,
        }
    }

    pub(crate) fn n_cells(&self) -> usize {
        self.keys.len()
    }

    pub(crate) fn cell_at(&self, slot: usize) -> &[C] {
        &self.cells[slot * self.stride..(slot + 1) * self.stride]
    }

    /// The slot of `key`'s cell, if it has one.
    pub(crate) fn find(&self, key: K) -> Option<usize> {
        match &self.index {
            SlotIndex::Map(map) => map.get(&key).map(|&s| s as usize),
            SlotIndex::Dense(table) => table[key.dense_index()].checked_sub(1).map(|s| s as usize),
        }
    }

    /// These keys and slots over a copy of the cells (`cells`, in slot
    /// order).
    pub(crate) fn with_cells(&self, cells: Vec<C>) -> Self {
        Arena {
            index: self.index.clone(),
            keys: self.keys.clone(),
            cells,
            stride: self.stride,
        }
    }

    /// The groups `keep` accepts, under the same keys (projected through
    /// `mask`).
    pub(crate) fn rebuilt(
        self,
        dense_bits: Option<u32>,
        mask: K,
        keep: impl Fn(usize) -> bool,
    ) -> Self {
        let (n, w) = (self.n_cells(), self.stride);
        let mut out = Arena::new(w, dense_bits, mask, n, n);
        let mut cells = self.cells.into_iter();
        for (slot, &key) in self.keys.iter().enumerate() {
            let lanes = cells.by_ref().take(w);
            if keep(slot) {
                out.probe(key);
                out.cells.extend(lanes);
            } else {
                lanes.for_each(drop);
            }
        }
        out
    }

    /// Fold `part`'s cells in — the coalesce: a key seen for the first
    /// time adopts its lanes outright (they already are the cell's state,
    /// and were charged where they were made), a collision folds in by
    /// Iter_super. Returns the collisions.
    pub(crate) fn coalesce<L: Lanes<Cell = C>>(
        &mut self,
        part: Arena<K, C>,
        lanes: &L,
        ctx: &ExecContext,
    ) -> CubeResult<u64> {
        let w = self.stride;
        let mut merged = 0;
        let mut lanes_buf: Vec<C> = Vec::with_capacity(w);
        let mut cells = part.cells.into_iter();
        for (i, &key) in part.keys.iter().enumerate() {
            ctx.tick(i)?;
            lanes_buf.extend(cells.by_ref().take(w));
            let (slot, fresh) = self.probe(key);
            if fresh {
                self.cells.append(&mut lanes_buf);
            } else {
                let slot = slot as usize;
                lanes.fold_super(&mut self.cells[slot * w..(slot + 1) * w], &lanes_buf)?;
                lanes_buf.clear();
                merged += 1;
            }
        }
        Ok(merged)
    }

    /// Look `key` up, claiming the next slot for it on first touch.
    /// Returns `(slot, fresh)`; a fresh slot's lanes are the caller's to
    /// append.
    #[inline]
    fn probe(&mut self, key: K) -> (u32, bool) {
        let next = self.keys.len() as u32;
        let slot = match &mut self.index {
            SlotIndex::Map(map) => *map.entry(key).or_insert(next),
            SlotIndex::Dense(table) => {
                let t = &mut table[key.dense_index()];
                if *t == 0 {
                    *t = next + 1;
                }
                *t - 1
            }
        };
        let fresh = slot == next;
        if fresh {
            self.keys.push(key);
        }
        (slot, fresh)
    }

    /// The cell slot for `key`; a fresh cell charges the budget and runs
    /// the Init() burst.
    #[inline]
    fn slot<L: Lanes<Cell = C>>(
        &mut self,
        key: K,
        lanes: &L,
        ctx: &ExecContext,
    ) -> CubeResult<u32> {
        let (slot, fresh) = self.probe(key);
        if fresh {
            ctx.charge_cells(1)?;
            lanes.open(&mut self.cells)?;
        }
        Ok(slot)
    }

    /// Resolve one morsel of keys, each projected through `mask`, to
    /// slots appended to `slot_buf`. For dense arenas the index `match`
    /// (and its bounds state) is hoisted out of the per-row loop; other
    /// arenas fall back to [`Self::slot`].
    #[inline]
    fn slots_for<L: Lanes<Cell = C>>(
        &mut self,
        morsel_keys: &[K],
        mask: K,
        slot_buf: &mut Vec<u32>,
        lanes: &L,
        ctx: &ExecContext,
    ) -> CubeResult<()> {
        if let SlotIndex::Dense(table) = &mut self.index {
            // cube-lint: allow(checkpoint, bounded by one morsel; the scan checkpoints per morsel)
            for &key in morsel_keys {
                let key = key.and(mask);
                let t = &mut table[key.dense_index()];
                if *t == 0 {
                    ctx.charge_cells(1)?;
                    self.keys.push(key);
                    *t = self.keys.len() as u32;
                    lanes.open(&mut self.cells)?;
                }
                slot_buf.push(*t - 1);
            }
            return Ok(());
        }
        // cube-lint: allow(checkpoint, bounded by one morsel; the scan checkpoints per morsel)
        for &key in morsel_keys {
            let slot = self.slot(key.and(mask), lanes, ctx)?;
            slot_buf.push(slot);
        }
        Ok(())
    }
}

/// One arena per grouping set, in lattice order.
type SetArenas<K, C> = Vec<(GroupingSet, Arena<K, C>)>;

/// What every stage of one query shares: the key encoder and the packed
/// keys of the rows being scanned (none for a store's answer), the lane
/// store, and the governance context.
pub(crate) struct Pipeline<'a, K: PackedKey, L: Lanes> {
    pub(crate) encoder: &'a KeyEncoder<K>,
    pub(crate) keys: &'a [K],
    pub(crate) lanes: &'a L,
    pub(crate) ctx: &'a ExecContext,
}

impl<K: PackedKey, L: Lanes> Pipeline<'_, K, L> {
    /// Scan morsel `[base, end)` into one arena per mask: resolve every
    /// row's slot (charging fresh cells), then fold the morsel's rows.
    fn scan_morsel(
        &self,
        arenas: &mut [Arena<K, L::Cell>],
        masks: &[K],
        slot_buf: &mut Vec<u32>,
        base: usize,
        end: usize,
        stats: &mut ExecStats,
    ) -> CubeResult<()> {
        exec::failpoint(Site::VectorizedMorsel)?;
        self.ctx.checkpoint()?;
        let keys = &self.keys[base..end];
        for (arena, &mask) in arenas.iter_mut().zip(masks) {
            slot_buf.clear();
            if let Err(e) = arena.slots_for(keys, mask, slot_buf, self.lanes, self.ctx) {
                // On a mid-morsel budget trip, the slots resolved so far
                // are the rows actually scanned — surface that partial
                // progress in the error stats.
                stats.rows_scanned += slot_buf.len() as u64;
                return Err(e);
            }
            self.lanes.fold_morsel(&mut arena.cells, slot_buf, base)?;
            stats.iter_calls += (keys.len() * self.lanes.width()) as u64;
        }
        stats.rows_scanned += keys.len() as u64;
        stats.morsels_processed += 1;
        Ok(())
    }

    /// One pass over the base rows: `workers` workers pull morsels from a
    /// shared cursor and fold every row into one arena per mask; the
    /// worker arenas then coalesce. Returns the arenas in mask order.
    fn scan(
        &self,
        masks: &[K],
        workers: usize,
        stats: &mut ExecStats,
    ) -> CubeResult<Vec<Arena<K, L::Cell>>> {
        let n_rows = self.keys.len();
        let dense_bits = self.encoder.dense_bits();
        let (width, stride) = (self.lanes.width(), self.lanes.stride());
        let cursor = AtomicUsize::new(0);
        let mut parts = exec::run_workers(workers, "parallel::worker", stats, |local| {
            exec::failpoint(Site::ParallelWorker)?;
            let mut arenas: Vec<Arena<K, L::Cell>> = masks
                .iter()
                .map(|&mask| Arena::new(stride, dense_bits, mask, n_rows.div_ceil(workers), 0))
                .collect();
            let mut slot_buf = Vec::with_capacity(MORSEL_ROWS.min(n_rows));
            loop {
                let base = exec::claim(&cursor, MORSEL_ROWS);
                if base >= n_rows {
                    break;
                }
                let end = (base + MORSEL_ROWS).min(n_rows);
                self.scan_morsel(&mut arenas, masks, &mut slot_buf, base, end, local)?;
            }
            Ok(arenas)
        })?;
        if parts.len() == 1 {
            return Ok(parts.remove(0));
        }
        // Coalesce: the worker arenas fold into one per mask.
        let mut merged: Vec<Arena<K, L::Cell>> = masks
            .iter()
            .map(|&mask| Arena::new(stride, dense_bits, mask, n_rows, 0))
            .collect();
        for part in parts {
            for (core, arena) in merged.iter_mut().zip(part) {
                stats.merge_calls += core.coalesce(arena, self.lanes, self.ctx)? * width as u64;
            }
        }
        Ok(merged)
    }

    /// [`Self::scan`] into a single mask's arena.
    #[expect(
        clippy::expect_used,
        reason = "scan returns one arena per mask and one mask was passed"
    )]
    fn scan_one(
        &self,
        mask: K,
        workers: usize,
        stats: &mut ExecStats,
    ) -> CubeResult<Arena<K, L::Cell>> {
        let mut arenas = self.scan(&[mask], workers, stats)?;
        Ok(arenas.pop().expect("one arena per mask"))
    }

    /// Build one child set by folding a parent arena through the set's
    /// mask — one `Iter_super` per (parent cell, aggregate). Children
    /// shrink, but rarely below half the parent, so a map-indexed child is
    /// pre-sized to that; a dense one spans only the set's fields.
    pub(crate) fn merged_child(
        &self,
        parent: &Arena<K, L::Cell>,
        mask: K,
    ) -> CubeResult<Arena<K, L::Cell>> {
        let w = self.lanes.stride();
        let hint = parent.n_cells() / 2 + 1;
        let mut child = Arena::new(w, self.encoder.dense_bits(), mask, hint, hint);
        for (pslot, &pkey) in parent.keys.iter().enumerate() {
            self.ctx.tick(pslot)?;
            let cslot = child.slot(pkey.and(mask), self.lanes, self.ctx)? as usize;
            self.lanes.fold_super(
                &mut child.cells[cslot * w..(cslot + 1) * w],
                parent.cell_at(pslot),
            )?;
        }
        Ok(child)
    }

    /// The cascade over arenas, on the calling thread: each set of the
    /// lattice, in its order (core first, arity descending), folds from
    /// the parent `choice` picks among the sets before it. A parent is a
    /// strict superset, hence of greater arity, hence always built
    /// earlier; the same-arity sets before a set never qualify, so the
    /// order within one arity does not change a pick.
    fn cascade(
        &self,
        core: Arena<K, L::Cell>,
        lattice: &Lattice,
        choice: ParentChoice,
        stats: &mut ExecStats,
    ) -> CubeResult<SetArenas<K, L::Cell>> {
        let sets = lattice.sets();
        // The C_i come straight off the symbol tables — no per-key scan
        // over the core.
        let cardinalities = self.encoder.cardinalities();
        let mut arenas: Vec<Arena<K, L::Cell>> = Vec::with_capacity(sets.len());
        arenas.push(core);
        for (i, &set) in sets.iter().enumerate().skip(1) {
            exec::failpoint(Site::CascadeLevel)?;
            self.ctx.checkpoint()?;
            let done = &sets[..i];
            let parent = choice.parent(lattice, set, &cardinalities, done);
            // Every pick is among `done`; the core, at 0, is its fallback.
            let parent = &arenas[done.iter().position(|&s| s == parent).unwrap_or(0)];
            let child = self.merged_child(parent, self.encoder.set_mask(set))?;
            stats.merge_calls += (parent.n_cells() * self.lanes.width()) as u64;
            arenas.push(child);
        }
        Ok(sets.iter().copied().zip(arenas).collect())
    }

    /// Run the plan shape: which masks each pass over the base rows folds
    /// into, and whether the cascade derives the rest.
    pub(crate) fn group(
        &self,
        lattice: &Lattice,
        shape: Shape,
        stats: &mut ExecStats,
    ) -> CubeResult<SetArenas<K, L::Cell>> {
        let encoder = &self.encoder;
        let mut shape = shape;
        if let (Shape::FromCore { threads: None, .. }, Some(budget)) =
            (shape, self.ctx.cell_budget())
        {
            if projected_lattice_cells(&encoder.cardinalities(), lattice) > budget {
                // Degradation rung 2: the cascade would hold the whole
                // lattice's cells live at once. Stream one grouping set at
                // a time instead — only cells that actually exist are
                // charged, so a sparse cube whose §3 estimate is
                // pessimistic still completes; a genuinely dense one trips
                // the budget mid-scan.
                stats.degraded_to_streaming = true;
                shape = Shape::PerSet;
            }
        }
        match shape {
            Shape::EverySet => {
                exec::failpoint(Site::NaiveScan)?;
                let masks: Vec<K> = lattice
                    .sets()
                    .iter()
                    .map(|&s| encoder.set_mask(s))
                    .collect();
                let arenas = self.scan(&masks, 1, stats)?;
                Ok(lattice.sets().iter().copied().zip(arenas).collect())
            }
            Shape::PerSet => {
                exec::failpoint(Site::UnionsScan)?;
                lattice
                    .sets()
                    .iter()
                    .map(|&set| Ok((set, self.scan_one(encoder.set_mask(set), 1, stats)?)))
                    .collect()
            }
            Shape::FromCore { threads, choice } => {
                exec::failpoint(Site::CoreScan)?;
                let workers = match threads {
                    None => 1,
                    Some(t) => {
                        let t = t.clamp(1, self.keys.len().max(1));
                        stats.threads_used = stats.threads_used.max(t as u64);
                        t
                    }
                };
                let core = self.scan_one(encoder.set_mask(lattice.core()), workers, stats)?;
                self.cascade(core, lattice, choice, stats)
            }
        }
    }

    /// The materializer: `arenas` in the order given, each one's rows
    /// sorted by the key's `dims` in that order with `ALL` collating last,
    /// emitting those dimensions and then the cell's `lanes`, one `Final()`
    /// per (cell, lane).
    pub(crate) fn materialize(
        &self,
        arenas: &[&Arena<K, L::Cell>],
        dims: &[usize],
        lanes: &[usize],
        schema: Schema,
        stats: &mut ExecStats,
    ) -> CubeResult<Table> {
        exec::failpoint(Site::Materialize)?;
        let encoder = &self.encoder;
        // Sort each set by collation-remapped keys — a plain integer sort in
        // decoded-`Row` order — then decode and finalize its cells in that
        // order, each row built once, straight into its place.
        // Decode-then-compare-`Row`s costs ~10× more on large results.
        let collator = encoder.collator(dims);
        let total = arenas.iter().map(|a| a.n_cells()).sum();
        let mut rows: Vec<Row> = Vec::with_capacity(total);
        let mut order: Vec<(K, u32)> = Vec::new();
        // One scratch row; each output row is one allocation, copied out
        // of it.
        let mut vals = Vec::with_capacity(dims.len() + lanes.len());
        for arena in arenas {
            self.ctx.checkpoint()?;
            order.clear();
            order.extend(
                arena
                    .keys
                    .iter()
                    .enumerate()
                    .map(|(slot, &key)| (collator.sort_key(key), slot as u32)),
            );
            order.sort_unstable_by_key(|c| c.0);
            for (i, &(_, slot)) in order.iter().enumerate() {
                self.ctx.tick(i)?;
                let slot = slot as usize;
                vals.clear();
                encoder.append_key(arena.keys[slot], dims, &mut vals);
                self.lanes.finals(arena.cell_at(slot), lanes, &mut vals)?;
                rows.push(Row::from(&vals[..]));
            }
            stats.final_calls += (arena.n_cells() * lanes.len()) as u64;
        }
        Ok(Table::from_validated_rows(schema, rows))
    }
}

/// §3's size estimate summed over the lattice: each grouping set projects
/// to `Π C_d` over its member dimensions (an `ALL` coordinate contributes
/// a factor of 1). Saturating: an overflowing estimate is "too big".
fn projected_lattice_cells(cardinalities: &[usize], lattice: &Lattice) -> u64 {
    let mut total = 0u64;
    for set in lattice.sets() {
        let mut cells = 1u64;
        for (d, &c) in cardinalities.iter().enumerate() {
            if set.contains(d) {
                cells = cells.saturating_mul(c.max(1) as u64);
            }
        }
        total = total.saturating_add(cells);
    }
    total
}

/// Encode the table and group it into every set of `lattice` with the
/// plan shape, on the pipeline its data selects: the key width from the
/// field widths [`encode`] computes, the lane kind from the select list
/// (kernel lanes when every aggregate compiles to one). Dimension codes
/// and measure columns come from the table's image; a cold image builds
/// all of them in one pass over the rows. The arenas come back as a
/// store's cells.
pub(crate) fn group(
    table: &Table,
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    plan: (&Lattice, Shape),
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Arc<dyn Store>> {
    let codes: Vec<usize> = dims.iter().filter_map(|d| d.column_index()).collect();
    let measures = kernel_inputs(aggs).into_iter().flatten();
    let measures: Vec<usize> = measures.filter_map(|(_, column)| column).collect();
    table.warm(&codes, &measures);
    match encode(table, dims) {
        Encoded::Narrow(enc) => group_keyed(enc, table, aggs, plan, stats, ctx),
        Encoded::Wide(enc) => group_keyed(enc, table, aggs, plan, stats, ctx),
    }
}

fn group_keyed<K: PackedKey>(
    enc: EncodedInput<K>,
    table: &Table,
    aggs: &[BoundAgg],
    plan: (&Lattice, Shape),
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Arc<dyn Store>> {
    match KernelLanes::plan(aggs, |idx| table.typed(idx)) {
        Some(lanes) => {
            // Recorded before the scan so partial stats on a budget trip
            // already say which lanes were running.
            stats.vectorized_kernels_used = stats.vectorized_kernels_used.max(lanes.width() as u64);
            keep_arenas(enc, &lanes, plan, stats, ctx)
        }
        None => {
            let rows = table.rows();
            keep_arenas(enc, &BoxedLanes { rows, aggs }, plan, stats, ctx)
        }
    }
}

fn keep_arenas<K: PackedKey, L: Lanes>(
    enc: EncodedInput<K>,
    lanes: &L,
    (lattice, shape): (&Lattice, Shape),
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Arc<dyn Store>> {
    let (encoder, keys) = (&enc.encoder, &enc.keys);
    let sets = Pipeline {
        encoder,
        keys,
        lanes,
        ctx,
    }
    .group(lattice, shape, stats)?;
    let arenas = sets.into_iter().map(|(_, arena)| arena).collect();
    let spec = lanes.spec();
    Ok(Arc::new(Nodes {
        spec,
        encoder: enc.encoder,
        arenas,
    }))
}

/// Execute `lattice` over the table with the given plan shape and
/// materialize the sets in `keep` (all of them when `None`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    table: &Table,
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    shape: Shape,
    keep: Option<&[GroupingSet]>,
    schema: Schema,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Table> {
    let cells = group(table, dims, aggs, (lattice, shape), stats, ctx)?;
    let kept: Vec<GroupingSet> = (lattice.sets().iter().copied())
        .filter(|s| keep.is_none_or(|keep| keep.contains(s)))
        .collect();
    let (dims, lanes): (Vec<usize>, Vec<usize>) =
        ((0..dims.len()).collect(), (0..aggs.len()).collect());
    cells.read_sets(aggs, lattice, &kept, &dims, &lanes, schema, stats, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::fixtures::FROM_CORE;
    use crate::algorithm::reference;
    use crate::encode::{encode_as, WideKey};
    use crate::groupby::{materialize, result_schema};
    use crate::spec::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType};
    use proptest::strategy::Strategy;

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
            ("price", DataType::Float),
        ]);
        let mut t = Table::empty(schema);
        for (m, y, u, p) in [
            ("Chevy", 1994, 50, 1.5),
            ("Chevy", 1995, 85, 2.25),
            ("Ford", 1994, 50, 0.5),
            ("Ford", 1995, 75, 4.0),
            ("Ford", 1995, 10, 0.25),
        ] {
            t.push(row![m, y, u, p]).unwrap();
        }
        t.push(Row::new(vec![
            Value::str("Ford"),
            Value::Int(1994),
            Value::Null,
            Value::Null,
        ]))
        .unwrap();
        t
    }

    fn bind(t: &Table, aggs: &[(&str, &str)]) -> (Vec<BoundDimension>, Vec<BoundAgg>, Schema) {
        bind_over(t, &["model", "year"], aggs)
    }

    /// [`bind`] with `dims` as the dimension columns.
    fn bind_over(
        t: &Table,
        dims: &[&str],
        aggs: &[(&str, &str)],
    ) -> (Vec<BoundDimension>, Vec<BoundAgg>, Schema) {
        let dims: Vec<BoundDimension> = dims
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let specs: Vec<AggSpec> = aggs
            .iter()
            .map(|(f, col)| AggSpec::new(builtin(f).unwrap(), col).with_name(format!("{f}_{col}")))
            .collect();
        let bound: Vec<BoundAgg> = specs.iter().map(|a| a.bind(t.schema()).unwrap()).collect();
        let types: Vec<DataType> = specs
            .iter()
            .map(|a| a.output_type(t.schema()).unwrap())
            .collect();
        let schema = result_schema(&dims, &bound, &types).unwrap();
        (dims, bound, schema)
    }

    const KERNEL_AGGS: [(&str, &str); 5] = [
        ("SUM", "units"),
        ("AVG", "price"),
        ("COUNT", "units"),
        ("MIN", "price"),
        ("MAX", "units"),
    ];
    // VARIANCE has no kernel: one such aggregate gives every lane a box.
    const BOXED_AGGS: [(&str, &str); 2] = [("SUM", "units"), ("VARIANCE", "price")];

    /// One statement's answer and counters.
    type Run = fn(&Table, &[(&str, &str)], Shape) -> (Table, ExecStats);

    fn run_engine(t: &Table, aggs: &[(&str, &str)], shape: Shape) -> (Table, ExecStats) {
        let (dims, aggs, schema) = bind(t, aggs);
        let lattice = Lattice::cube(2).unwrap();
        let mut stats = ExecStats::default();
        let ctx = ExecContext::unlimited();
        let out = execute(
            t, &dims, &aggs, &lattice, shape, None, schema, &mut stats, &ctx,
        )
        .unwrap();
        (out, stats)
    }

    /// [`run_engine`] with the key width forced to `K` instead of chosen
    /// from the field widths.
    fn run_keyed<K: PackedKey>(
        t: &Table,
        aggs: &[(&str, &str)],
        shape: Shape,
    ) -> (Table, ExecStats) {
        let lattice = Lattice::cube(2).unwrap();
        run_over::<K>(t, &["model", "year"], &lattice, aggs, shape)
    }

    /// [`run_keyed`] over the dimension columns `dims` and their `lattice`.
    fn run_over<K: PackedKey>(
        t: &Table,
        dims: &[&str],
        lattice: &Lattice,
        aggs: &[(&str, &str)],
        shape: Shape,
    ) -> (Table, ExecStats) {
        let (dims, aggs, schema) = bind_over(t, dims, aggs);
        let enc = encode_as::<K>(t, &dims);
        let mut stats = ExecStats::default();
        let ctx = ExecContext::unlimited();
        let plan = (lattice, shape);
        let cells = group_keyed(enc, t, &aggs, plan, &mut stats, &ctx).unwrap();
        let dims: Vec<usize> = (0..dims.len()).collect();
        let lanes: Vec<usize> = (0..aggs.len()).collect();
        let sets = lattice.sets();
        let out = cells.read_sets(
            &aggs, lattice, sets, &dims, &lanes, schema, &mut stats, &ctx,
        );
        (out.unwrap(), stats)
    }

    #[test]
    fn lane_kind_follows_the_select_list() {
        let t = sales();
        let (_, aggs, _) = bind(&t, &KERNEL_AGGS);
        let typed = |idx| t.typed(idx);
        assert_eq!(KernelLanes::plan(&aggs, typed).unwrap().width(), 5);
        // A holistic aggregate, an algebraic one without a kernel, or a
        // string measure anywhere gives the whole query boxed lanes.
        for reject in [("MEDIAN", "units"), ("VARIANCE", "price"), ("MIN", "model")] {
            let (_, aggs, _) = bind(&t, &[("SUM", "units"), reject]);
            assert!(KernelLanes::plan(&aggs, typed).is_none(), "{reject:?}");
        }
    }

    /// `sales()` with the float edge cases in `price` — `-0.0` (alone in
    /// one group), NaN, ±Inf — and more NULL `units`.
    fn specials() -> Table {
        let mut t = sales();
        for (m, y, u, p) in [
            ("Chevy", 1994, Value::Null, -0.0),
            ("Chevy", 1995, Value::Int(-7), f64::NAN),
            ("Ford", 1994, Value::Int(3), f64::INFINITY),
            ("Dodge", 1995, Value::Null, f64::NEG_INFINITY),
            ("Dodge", 1995, Value::Int(2), -0.0),
            ("Dodge", 1994, Value::Int(1), -0.0),
        ] {
            let row = vec![Value::str(m), Value::Int(y), u, Value::Float(p)];
            t.push(Row::new(row)).unwrap();
        }
        t
    }

    /// Every aggregate of one column, which share its cell.
    fn one_column(col: &str) -> [(&str, &str); 6] {
        ["SUM", "AVG", "MIN", "MAX", "COUNT", "COUNT(*)"].map(|f| (f, col))
    }

    /// Each select list against the `Row`-keyed reference: cells by their
    /// bits, and the four work counters. Some share one column's cell —
    /// a nullable `Int`, a `Float` with `-0.0`, NaN and ±Inf, two columns
    /// mixed — and some run boxed.
    #[test]
    fn both_lane_kinds_match_the_row_path_cells_and_counters() {
        let t = specials();
        let lattice = Lattice::cube(2).unwrap();
        let ctx = ExecContext::unlimited();
        let (ints, floats) = (one_column("units"), one_column("price"));
        let mixed = [
            ("SUM", "units"),
            ("MIN", "price"),
            ("AVG", "units"),
            ("MAX", "price"),
            ("COUNT", "price"),
            ("COUNT(*)", "units"),
            ("SUM", "price"),
            ("MAX", "units"),
        ];
        for (aggs, kernels) in [
            (&KERNEL_AGGS[..], 5),
            (&BOXED_AGGS[..], 0),
            (&ints[..], 6),
            (&floats[..], 6),
            (&mixed[..], 8),
        ] {
            let (got, stats) = run_engine(&t, aggs, FROM_CORE);
            assert_eq!(stats.vectorized_kernels_used, kernels);
            assert_eq!(stats.morsels_processed, 1);

            let (dims, bound, schema) = bind(&t, aggs);
            let mut want_stats = ExecStats::default();
            let rows = t.rows();
            let maps = reference::set_maps(
                FROM_CORE,
                rows,
                &dims,
                &bound,
                &lattice,
                &mut want_stats,
                &ctx,
            )
            .unwrap();
            let want = materialize(schema, maps, &bound, &mut want_stats, &ctx).unwrap();
            assert_eq!(bits(&got), bits(&want), "{aggs:?}");
            assert_eq!(
                (
                    stats.rows_scanned,
                    stats.iter_calls,
                    stats.merge_calls,
                    stats.final_calls
                ),
                (
                    want_stats.rows_scanned,
                    want_stats.iter_calls,
                    want_stats.merge_calls,
                    want_stats.final_calls
                ),
                "{aggs:?}"
            );
        }
    }

    /// The layout guard: SUM, COUNT(*), AVG, MIN and MAX over one column
    /// without NULLs keep one cell per group in every arena, not one per
    /// aggregate. Over a nullable column COUNT(*) adds a cell counting
    /// rows.
    #[test]
    fn the_aggregates_of_one_column_share_one_cell_per_group() {
        let t = sales();
        let lattice = Lattice::cube(1).unwrap();
        let ctx = ExecContext::unlimited();
        for (col, stride) in [("year", 1), ("units", 2)] {
            let aggs = ["SUM", "COUNT(*)", "AVG", "MIN", "MAX"].map(|f| (f, col));
            let (dims, aggs, _) = bind_over(&t, &["model"], &aggs);
            let lanes = KernelLanes::plan(&aggs, |idx| t.typed(idx)).unwrap();
            assert_eq!((lanes.width(), lanes.stride()), (5, stride), "{col}");
            let enc = encode_as::<u64>(&t, &dims);
            let pipeline = Pipeline {
                encoder: &enc.encoder,
                keys: &enc.keys,
                lanes: &lanes,
                ctx: &ctx,
            };
            let sets = pipeline
                .group(&lattice, FROM_CORE, &mut ExecStats::default())
                .unwrap();
            for (set, arena) in &sets {
                assert!(arena.n_cells() > 0, "{set:?}");
                assert_eq!(arena.cells.len(), stride * arena.n_cells(), "{col} {set:?}");
            }
        }
    }

    /// A child's dense slot table ends at its mask: `(d0, d1)` folded from
    /// a 14-bit core has at most 2^8 slots, not 2^14.
    #[test]
    fn a_dense_child_table_spans_only_its_fields() {
        let schema = Schema::from_pairs(&[
            ("d0", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
            ("d3", DataType::Int),
            ("x", DataType::Int),
        ]);
        // 12 × 8 × 4 × 6 values: fields of 4 + 4 + 3 + 3 bits.
        let rows = (0..2304i64)
            .map(|i| row![i % 12, (i / 12) % 8, (i / 96) % 4, (i / 384) % 6, i])
            .collect();
        let t = Table::new(schema, rows).unwrap();
        let (dims, aggs, _) = bind_over(&t, &["d0", "d1", "d2", "d3"], &[("SUM", "x")]);
        let enc = encode_as::<u64>(&t, &dims);
        assert_eq!(enc.encoder.dense_bits(), Some(14));
        let (lanes, ctx) = (
            KernelLanes::plan(&aggs, |idx| t.typed(idx)).unwrap(),
            ExecContext::unlimited(),
        );
        let pipeline = Pipeline {
            encoder: &enc.encoder,
            keys: &enc.keys,
            lanes: &lanes,
            ctx: &ctx,
        };
        let full = enc.encoder.set_mask(GroupingSet::full(4));
        let core = pipeline
            .scan_one(full, 1, &mut ExecStats::default())
            .unwrap();
        assert_eq!(core.n_cells(), 2304);
        let d0d1 = enc
            .encoder
            .set_mask(GroupingSet::from_dims(&[0, 1]).unwrap());
        let child = pipeline.merged_child(&core, d0d1).unwrap();
        assert_eq!(child.n_cells(), 96);
        match &child.index {
            SlotIndex::Dense(table) => assert!(table.len() <= 1 << 8, "{}", table.len()),
            SlotIndex::Map(_) => panic!("the gate keeps a dense index"),
        }
    }

    #[test]
    fn every_shape_agrees_and_counts_its_own_work() {
        let t = sales();
        let lattice = Lattice::cube(2).unwrap();
        let ctx = ExecContext::unlimited();
        for aggs in [&KERNEL_AGGS[..], &BOXED_AGGS[..]] {
            let (want, from_core_stats) = run_engine(&t, aggs, FROM_CORE);
            let w = aggs.len() as u64;
            assert_eq!(from_core_stats.iter_calls, 6 * w);

            let (every, s) = run_engine(&t, aggs, Shape::EverySet);
            assert_eq!(every.rows(), want.rows());
            // One scan, T × 2^N × |aggs| Iter() calls, no merges — and
            // exactly the Row-keyed 2^N algorithm's counters.
            assert_eq!(
                (s.rows_scanned, s.iter_calls, s.merge_calls),
                (6, 6 * 4 * w, 0)
            );
            let (dims, bound, _) = bind(&t, aggs);
            let mut row_stats = ExecStats::default();
            let every = Shape::EverySet;
            reference::set_maps(
                every,
                t.rows(),
                &dims,
                &bound,
                &lattice,
                &mut row_stats,
                &ctx,
            )
            .unwrap();
            assert_eq!(s.iter_calls, row_stats.iter_calls);

            let (per_set, s) = run_engine(&t, aggs, Shape::PerSet);
            assert_eq!(per_set.rows(), want.rows());
            assert_eq!((s.rows_scanned, s.merge_calls), (6 * 4, 0));

            for threads in [1, 4] {
                let shape = Shape::FromCore {
                    threads: Some(threads),
                    choice: ParentChoice::SmallestCardinality,
                };
                let (par, s) = run_engine(&t, aggs, shape);
                assert_eq!(par.rows(), want.rows(), "{threads} threads");
                assert_eq!(s.threads_used, threads as u64);
                // Six rows are one morsel: one worker scans it and the
                // coalesce adopts every cell — no merges beyond the
                // cascade's own.
                assert_eq!(s.merge_calls, from_core_stats.merge_calls);
            }
        }
    }

    /// A table's cells with every float as its bit pattern, so a last-ulp
    /// difference shows.
    fn bits(t: &Table) -> Vec<Vec<Result<u64, Value>>> {
        let cell = |v: &Value| match v {
            Value::Float(f) => Ok(f.to_bits()),
            v => Err(v.clone()),
        };
        t.rows()
            .iter()
            .map(|r| r.iter().map(cell).collect())
            .collect()
    }

    /// §5: a cell is Init(), one Iter() per row of its group, Final(). So
    /// its value is a function of the group's rows, not of the table's
    /// layout: 8 groups × 10 rows of `x = 0.1`, stored sorted by `k` and
    /// round-robin, give bit-identical GROUP BY and CUBE answers (ten
    /// sequential adds of 0.1 are 0.9999999999999999, not 1.0) and the
    /// same work counters, over both lane kinds, both key widths and
    /// every shape.
    #[test]
    fn a_cell_does_not_depend_on_row_order() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("x", DataType::Float)]);
        let layout = |k: fn(i64) -> i64| {
            let rows = (0..80).map(|i| row![k(i), 0.1]).collect();
            Table::new(schema.clone(), rows).unwrap()
        };
        let (sorted, interleaved) = (layout(|i| i / 10), layout(|i| i % 8));
        let kernel = [("SUM", "x"), ("AVG", "x"), ("COUNT", "x"), ("MIN", "x")];
        let boxed = [("SUM", "x"), ("AVG", "x"), ("VARIANCE", "x")];
        let parallel = Shape::FromCore {
            threads: Some(2),
            choice: ParentChoice::SmallestCardinality,
        };
        let group_by = Lattice::new(1, vec![]).unwrap();
        let cube = Lattice::cube(1).unwrap();
        let counters = |s: &ExecStats| (s.rows_scanned, s.iter_calls, s.morsels_processed);
        // Group 0's SUM, the first cell of every answer: row-order adds.
        let ten_adds = (0..10).fold(0.0f64, |sum, _| sum + 0.1);
        for (aggs, kernels) in [(&kernel[..], 4), (&boxed[..], 0)] {
            for lattice in [&group_by, &cube] {
                for shape in [FROM_CORE, Shape::EverySet, Shape::PerSet, parallel] {
                    for run in [run_over::<u64>, run_over::<WideKey>] {
                        let tag = format!("{shape:?}, {kernels} kernel lanes, {lattice:?}");
                        let (a, sa) = run(&sorted, &["k"], lattice, aggs, shape);
                        let (b, sb) = run(&interleaved, &["k"], lattice, aggs, shape);
                        assert_eq!(sa.vectorized_kernels_used, kernels, "{tag}");
                        assert_eq!(bits(&a), bits(&b), "{tag}");
                        assert_eq!(counters(&sa), counters(&sb), "{tag}");
                        assert_eq!(bits(&a)[0][1], Ok(ten_adds.to_bits()), "{tag}");
                    }
                }
            }
        }
    }

    /// One table that packs both ways, through both key instantiations ×
    /// both lane kinds × every shape: the key width changes neither a cell
    /// nor a work counter, over scattered rows and over runs of equal keys.
    #[test]
    fn both_key_widths_give_identical_tables_and_counters() {
        let plain = sales();
        let mut sorted = Table::empty(plain.schema().clone());
        for r in plain.rows() {
            for _ in 0..4 {
                sorted.push_unchecked(r.clone());
            }
        }
        let parallel = Shape::FromCore {
            threads: Some(3),
            choice: ParentChoice::SmallestCardinality,
        };
        for t in [&plain, &sorted] {
            for (aggs, kernels) in [(&KERNEL_AGGS[..], 5), (&BOXED_AGGS[..], 0)] {
                for shape in [FROM_CORE, Shape::EverySet, Shape::PerSet, parallel] {
                    let (narrow, n) = run_keyed::<u64>(t, aggs, shape);
                    let (wide, w) = run_keyed::<WideKey>(t, aggs, shape);
                    let tag = format!("{shape:?}, {kernels} kernel lanes, {} rows", t.len());
                    assert_eq!(narrow.rows(), wide.rows(), "{tag}");
                    let counters = |s: &ExecStats| {
                        (
                            s.rows_scanned,
                            s.iter_calls,
                            s.merge_calls,
                            s.final_calls,
                            s.morsels_processed,
                        )
                    };
                    assert_eq!(counters(&n), counters(&w), "{tag}");
                    assert_eq!(n.vectorized_kernels_used, kernels, "{tag}");
                    assert_eq!(w.vectorized_kernels_used, kernels, "{tag}");
                    assert!(n.morsels_processed > 0, "{tag}");
                }
            }
        }
    }

    /// Rows over `sales()`'s schema: a `Str` model, a year that mixes
    /// `Int(5)` with `Float(5.0)` (one symbol) and `i64::MAX`, NULLs in
    /// every column. Each row repeats 1–5 times, so some tables hold runs
    /// of equal keys.
    fn arb_sales() -> impl Strategy<Value = Table> {
        let row = (0usize..4, 0usize..5, 0i64..30, 0usize..5);
        (proptest::collection::vec(row, 0..80), 1usize..6).prop_map(|(raw, repeat)| {
            let mut t = Table::empty(sales().schema().clone());
            for (m, y, u, p) in raw {
                let model = ["Chevy", "Ford", "Dodge"]
                    .get(m)
                    .map_or(Value::Null, Value::str);
                let year = [
                    Value::Null,
                    Value::Int(5),
                    Value::Float(5.0),
                    Value::Int(1994),
                    Value::Int(i64::MAX),
                ][y]
                    .clone();
                let units = if u % 6 == 0 {
                    Value::Null
                } else {
                    Value::Int(u)
                };
                let price = if p == 0 {
                    Value::Null
                } else {
                    Value::Float(p as f64 / 4.0)
                };
                for _ in 0..repeat {
                    t.push_unchecked(Row::new(vec![
                        model.clone(),
                        year.clone(),
                        units.clone(),
                        price.clone(),
                    ]));
                }
            }
            t
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The image changes neither a cell nor a counter: over both key
        /// widths, both lane kinds and every shape, a statement over a warm
        /// image (the table already scanned) gives exactly what one over a
        /// fresh copy of the rows does.
        #[test]
        fn a_warm_image_and_a_fresh_table_give_identical_tables_and_counters(t in arb_sales()) {
            let fresh = || Table::from_validated_rows(t.schema().clone(), t.rows().to_vec());
            let parallel = Shape::FromCore {
                threads: Some(2),
                choice: ParentChoice::SmallestCardinality,
            };
            for aggs in [&KERNEL_AGGS[..], &BOXED_AGGS[..]] {
                for shape in [FROM_CORE, Shape::EverySet, Shape::PerSet, parallel] {
                    let runs: [Run; 3] = [run_engine, run_keyed::<u64>, run_keyed::<WideKey>];
                    for run in runs {
                        run(&t, aggs, shape);
                        let warm = run(&t, aggs, shape);
                        let cold = run(&fresh(), aggs, shape);
                        proptest::prop_assert_eq!(&warm, &cold, "{:?}", shape);
                    }
                }
            }
        }
    }

    /// 5 120 core cells over `(a, b, c)` of cardinality 16, 20 and 16,
    /// each on two adjacent rows, the cells in scrambled first-touch order:
    /// the core spans more than one 4 096-cell stretch. No
    /// cell's rows straddle a morsel or a four-way partition, so a
    /// parallel scan's coalesce merges nothing on either side.
    fn large_cube() -> Table {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
            ("units", DataType::Int),
            ("price", DataType::Float),
        ]);
        let rows = (0..10_240i64)
            .map(|i| {
                let p = (i / 2 * 7919) % 5120;
                let units = if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 97 - 40)
                };
                let price = Value::Float((i % 37) as f64 * 0.25);
                let key = [p % 16, p / 16 % 20, p / 320].map(Value::Int);
                Row::new(key.into_iter().chain([units, price]).collect())
            })
            .collect();
        Table::new(schema, rows).unwrap()
    }

    /// A large cube against the `Row`-keyed reference: row for row in
    /// order, bit for bit, and equal work counters, serial and over four
    /// scan workers, both key widths, both lane kinds (MEDIAN has no
    /// kernel).
    #[test]
    fn a_large_cube_matches_the_reference_row_for_row_with_equal_stats() {
        let t = large_cube();
        let lattice = Lattice::cube(3).unwrap();
        let ctx = ExecContext::unlimited();
        let abc = ["a", "b", "c"];
        let parallel = Shape::FromCore {
            threads: Some(4),
            choice: ParentChoice::SmallestCardinality,
        };
        let kernel = [
            ("SUM", "units"),
            ("AVG", "price"),
            ("MIN", "price"),
            ("COUNT", "units"),
        ];
        let boxed = [("SUM", "units"), ("MEDIAN", "units"), ("MAX", "price")];
        for (aggs, kernels) in [(&kernel[..], 4), (&boxed[..], 0)] {
            let (dims, bound, schema) = bind_over(&t, &abc, aggs);
            for shape in [FROM_CORE, parallel] {
                let mut want_stats = ExecStats::default();
                let rows = t.rows();
                let maps = reference::set_maps(
                    shape,
                    rows,
                    &dims,
                    &bound,
                    &lattice,
                    &mut want_stats,
                    &ctx,
                )
                .unwrap();
                let want =
                    materialize(schema.clone(), maps, &bound, &mut want_stats, &ctx).unwrap();
                // 16·20·16 + 16·20 + 16·16 + 20·16 + 16 + 20 + 16 + 1.
                assert_eq!(want.len(), 6069);
                for run in [run_over::<u64>, run_over::<WideKey>] {
                    let tag = format!("{shape:?}, {kernels} kernel lanes");
                    let (got, stats) = run(&t, &abc, &lattice, aggs, shape);
                    assert_eq!(bits(&got), bits(&want), "{tag}");
                    assert_eq!(stats.vectorized_kernels_used, kernels, "{tag}");
                    assert_eq!(stats.morsels_processed, 5, "{tag}");
                    // The reference neither runs kernels nor counts morsels.
                    let engine_only = ExecStats {
                        vectorized_kernels_used: 0,
                        morsels_processed: 0,
                        ..stats
                    };
                    assert_eq!(engine_only, want_stats, "{tag}");
                }
            }
        }
    }

    #[test]
    fn dense_and_map_indexes_assign_the_same_slots() {
        let lanes = BoxedLanes {
            rows: &[],
            aggs: &[],
        };
        let ctx = ExecContext::unlimited();
        // 8 key bits with a 1024-row hint fits the dense table; a 40-bit
        // key space never does.
        let mask = 0xFFu64;
        let mut dense = Arena::new(0, Some(8), mask, 1024, 0);
        let mut map = Arena::new(0, Some(40), mask, 1024, 0);
        assert!(matches!(dense.index, SlotIndex::Dense(_)));
        assert!(matches!(map.index, SlotIndex::Map(_)));
        let keys = [7u64, 3, 7, 200, 3, 0];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        dense.slots_for(&keys, mask, &mut a, &lanes, &ctx).unwrap();
        map.slots_for(&keys, mask, &mut b, &lanes, &ctx).unwrap();
        assert_eq!(a, [0, 1, 0, 2, 1, 3]);
        assert_eq!(a, b);
        assert_eq!(dense.keys, map.keys);
    }
}
