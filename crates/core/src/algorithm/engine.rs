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
//!    set's arena, one lattice level at a time; sets of one level never
//!    depend on each other, so a level's sets are farmed across workers.
//! 4. **Materialize.** Cells are ranked by collation-remapped keys (a plain
//!    integer sort in decoded-`Row` order), decoded once, and finalized.
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
//! every aggregate kernelizes ([`KernelLanes`]), boxed [`Accumulator`]s
//! under [`exec::guard`] otherwise ([`BoxedLanes`]).
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
use dc_aggregate::{Accumulator, FusedOp, Kernel, KernelCell, Retract, Validity};
use dc_relation::{Bitmap, FxHashMap, Row, Schema, Table, TypedColumn, Value};
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

/// Below this many cells the cascade and the materializer run on one
/// worker — thread spawn costs more than the work it would spread.
const PARALLEL_MIN_CELLS: usize = 1 << 10;

/// Cells per materialize task: big enough that a chunk's decode work
/// dwarfs the cursor fetch, small enough that the final chunks of a
/// skewed set still spread across workers.
const EMIT_CHUNK_CELLS: usize = 4096;

/// The accumulator kind of one query: how a cell's aggregate lanes are
/// initialized, folded, merged and finalized. A cell is `width()` adjacent
/// `Cell`s of an [`Arena`], one per aggregate in select-list order.
pub(crate) trait Lanes: Sync {
    type Cell: Stored;

    /// Aggregates per cell.
    fn width(&self) -> usize;

    /// The paper's Init(): append one fresh cell to `cells`.
    fn open(&self, cells: &mut Vec<Self::Cell>) -> CubeResult<()>;

    /// Iter() over one morsel: row `base + j` folds into the cell at slot
    /// `slots[j]` of `cells`.
    fn fold_morsel(&self, cells: &mut [Self::Cell], slots: &[u32], base: usize) -> CubeResult<()>;

    /// The paper's Iter_super(): fold cell `src` into cell `dst`.
    fn fold_super(&self, dst: &mut [Self::Cell], src: &[Self::Cell]) -> CubeResult<()>;

    /// Final(): append the values of the cell's `lanes`, in that order, to
    /// `out`.
    fn finals(&self, cell: &[Self::Cell], lanes: &[usize], out: &mut Vec<Value>) -> CubeResult<()>;

    /// §6 DELETE: take input row `row` back out of `cell`. `false` when
    /// some lane cannot without the cell's base rows.
    fn retract(&self, cell: &mut [Self::Cell], row: usize) -> CubeResult<bool>;

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

    /// A copy of `cells`: Init() and Iter_super per cell.
    fn copy(lanes: &Self::Lanes<'_>, cells: &[Self], ctx: &ExecContext) -> CubeResult<Vec<Self>> {
        let mut out = Vec::with_capacity(cells.len());
        for (i, cell) in cells.chunks(lanes.width()).enumerate() {
            ctx.tick(i)?;
            lanes.open(&mut out)?;
            let at = out.len() - cell.len();
            lanes.fold_super(&mut out[at..], cell)?;
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

/// One aggregate's typed input. Lanes over the same measure column share
/// one extracted vector (`SUM(units)` and `AVG(units)` in one select list
/// extract `units` once, not twice).
#[derive(Clone)]
enum LaneInput {
    /// No column to read — COUNT(*) and COUNT over the unit input count
    /// rows, not values.
    Star,
    /// An `i64` measure column with its validity bitmap.
    Ints(Arc<(Vec<i64>, Bitmap)>),
    /// An `f64` measure column with its validity bitmap.
    Floats(Arc<(Vec<f64>, Bitmap)>),
}

/// One aggregate compiled to a kernel over a typed column.
struct Lane {
    kernel: Kernel,
    input: LaneInput,
    /// Which accumulator of the cell holds the value ([`Kernel::merge`]):
    /// the input's type, or a store's where the two cannot differ.
    float: bool,
    /// Whether the measure column has no NULLs — computed once at plan
    /// time so every morsel takes the branch-free [`Validity::All`] path
    /// instead of re-deriving it.
    all_valid: bool,
}

/// A qualified fused row-major scan: every lane is fully valid and reads
/// either nothing (counting lanes) or one shared `i64` column, so one
/// pass per morsel updates all of a row's adjacent lane cells while their
/// cache lines are hot instead of re-touching them per lane-major pass.
struct FusedScan {
    col: Arc<(Vec<i64>, Bitmap)>,
    ops: Vec<FusedOp>,
}

/// The kernel lane store: every aggregate is one of the built-in
/// distributive/algebraic kernels over a primitive column, its state a
/// 24-byte POD [`KernelCell`]. The kernels are engine-owned and run no
/// user code, so nothing here needs the panic guard.
pub(crate) struct KernelLanes {
    lanes: Vec<Lane>,
    fused: Option<FusedScan>,
}

impl From<TypedColumn> for LaneInput {
    fn from(column: TypedColumn) -> LaneInput {
        match column {
            TypedColumn::Ints(c) => LaneInput::Ints(c),
            TypedColumn::Floats(c) => LaneInput::Floats(c),
        }
    }
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

impl KernelLanes {
    /// Try to compile every aggregate to a kernel lane over the measure
    /// columns `typed` gives. `None` — an aggregate without a kernel, or a
    /// measure column that is not purely `Int`/`NULL` or `Float`/`NULL` —
    /// gives the whole query boxed lanes.
    pub(crate) fn plan(
        aggs: &[BoundAgg],
        typed: impl Fn(usize) -> Option<TypedColumn>,
    ) -> Option<KernelLanes> {
        // One extraction per distinct measure column, shared across lanes.
        let mut columns: FxHashMap<usize, Option<LaneInput>> = FxHashMap::default();
        let mut lanes = Vec::with_capacity(aggs.len());
        for (kernel, input) in kernel_inputs(aggs)? {
            let input = match input {
                None => LaneInput::Star,
                Some(idx) => columns
                    .entry(idx)
                    .or_insert_with(|| typed(idx).map(LaneInput::from))
                    .clone()?,
            };
            let all_valid = match &input {
                LaneInput::Star => true,
                LaneInput::Ints(c) => c.1.all_valid(),
                LaneInput::Floats(c) => c.1.all_valid(),
            };
            lanes.push(Lane {
                kernel,
                float: matches!(input, LaneInput::Floats(_)),
                input,
                all_valid,
            });
        }
        Some(KernelLanes {
            fused: fused_ints(&lanes),
            lanes,
        })
    }

    /// These lanes with a store's value flags, so their cells merge into
    /// its cells — `None` where the two differ over an input that has a
    /// value to fold. (So a store's rows hold one value type per measure,
    /// and lanes over any of them conform.)
    fn conform(mut self, floats: &[bool]) -> Option<KernelLanes> {
        for (lane, &float) in self.lanes.iter_mut().zip(floats) {
            let moot = match &lane.input {
                LaneInput::Star => true,
                LaneInput::Ints(c) => c.1.count_valid() == 0,
                LaneInput::Floats(c) => c.1.count_valid() == 0,
            };
            if lane.float != float && !moot {
                return None;
            }
            lane.float = float;
        }
        Some(self)
    }
}

impl Stored for KernelCell {
    /// Each lane's value flag: a store pins no column of its input.
    type Spec = Vec<bool>;
    type Lanes<'a> = KernelLanes;

    fn lanes(spec: &Vec<bool>, aggs: &[BoundAgg], rows: &[Row]) -> Option<KernelLanes> {
        let typed = |idx| TypedColumn::from_rows(rows, idx);
        KernelLanes::plan(aggs, typed)?.conform(spec)
    }

    /// A POD copy.
    fn copy(_: &KernelLanes, cells: &[Self], _: &ExecContext) -> CubeResult<Vec<Self>> {
        Ok(cells.to_vec())
    }
}

/// The fused scan for these lanes, if they qualify (see [`FusedScan`]).
fn fused_ints(lanes: &[Lane]) -> Option<FusedScan> {
    let mut col: Option<&Arc<(Vec<i64>, Bitmap)>> = None;
    let mut ops = Vec::with_capacity(lanes.len());
    for lane in lanes {
        if !lane.all_valid {
            return None;
        }
        match &lane.input {
            LaneInput::Star => ops.push(FusedOp::Star),
            LaneInput::Ints(c) => {
                match col {
                    None => col = Some(c),
                    Some(prev) if Arc::ptr_eq(prev, c) => {}
                    Some(_) => return None,
                }
                ops.push(match lane.kernel {
                    // All-valid COUNT(x) counts every row, same as *.
                    Kernel::Count | Kernel::CountStar => FusedOp::Star,
                    Kernel::Sum => FusedOp::Sum,
                    Kernel::Min => FusedOp::Min,
                    Kernel::Max => FusedOp::Max,
                    Kernel::Avg => FusedOp::Avg,
                });
            }
            LaneInput::Floats(_) => return None,
        }
    }
    Some(FusedScan {
        col: Arc::clone(col?),
        ops,
    })
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

impl Lanes for KernelLanes {
    type Cell = KernelCell;

    fn width(&self) -> usize {
        self.lanes.len()
    }

    #[inline]
    fn open(&self, cells: &mut Vec<KernelCell>) -> CubeResult<()> {
        cells.resize(cells.len() + self.lanes.len(), KernelCell::default());
        Ok(())
    }

    #[inline]
    fn fold_morsel(&self, cells: &mut [KernelCell], slots: &[u32], base: usize) -> CubeResult<()> {
        debug_assert_eq!(base % 64, 0);
        let n = slots.len();
        let stride = self.lanes.len();
        if let Some(f) = &self.fused {
            dc_aggregate::update_i64_fused(cells, &f.ops, slots, &f.col.0[base..base + n]);
            return Ok(());
        }
        for (l, lane) in self.lanes.iter().enumerate() {
            match &lane.input {
                LaneInput::Star => Kernel::update_star(cells, stride, l, slots),
                LaneInput::Ints(col) => lane.kernel.update_i64(
                    cells,
                    stride,
                    l,
                    slots,
                    &col.0[base..base + n],
                    morsel_validity(&col.1, lane.all_valid, base, n),
                ),
                LaneInput::Floats(col) => lane.kernel.update_f64(
                    cells,
                    stride,
                    l,
                    slots,
                    &col.0[base..base + n],
                    morsel_validity(&col.1, lane.all_valid, base, n),
                ),
            }
        }
        Ok(())
    }

    #[inline]
    fn fold_super(&self, dst: &mut [KernelCell], src: &[KernelCell]) -> CubeResult<()> {
        for ((lane, dst), src) in self.lanes.iter().zip(dst).zip(src) {
            // cube-lint: allow(guard, engine-owned POD kernel, runs no user code)
            lane.kernel.merge(dst, src, lane.float);
        }
        Ok(())
    }

    #[inline]
    fn finals(&self, pods: &[KernelCell], lanes: &[usize], out: &mut Vec<Value>) -> CubeResult<()> {
        for &l in lanes {
            let lane = &self.lanes[l];
            // cube-lint: allow(guard, engine-owned POD kernel, runs no user code)
            out.push(lane.kernel.final_value(&pods[l], lane.float));
        }
        Ok(())
    }

    fn retract(&self, pods: &mut [KernelCell], row: usize) -> CubeResult<bool> {
        for (lane, pod) in self.lanes.iter().zip(pods) {
            let kept = match &lane.input {
                LaneInput::Star => lane.kernel.retract_i64(pod, 0),
                LaneInput::Ints(c) if c.1.get(row) => lane.kernel.retract_i64(pod, c.0[row]),
                LaneInput::Floats(c) if c.1.get(row) => lane.kernel.retract_f64(pod, c.0[row]),
                // A NULL input folded nothing in.
                LaneInput::Ints(_) | LaneInput::Floats(_) => true,
            };
            if !kept {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn spec(&self) -> Vec<bool> {
        self.lanes.iter().map(|l| l.float).collect()
    }
}

/// How an [`Arena`] resolves a packed key to a cell slot.
#[derive(Clone)]
enum SlotIndex<K> {
    /// General case: one Fx hash map over full keys.
    Map(FxHashMap<K, u32>),
    /// Small integer key spaces: `table[key]` holds `slot + 1` (0 = empty)
    /// over all `2^key_bits` possible keys — the §5 dense-array idea
    /// applied to slot resolution.
    Dense(Vec<u32>),
}

/// Flat cell storage for one grouping set: the index resolves a packed
/// key to a cell slot, `keys[slot]` remembers the key for decoding, and
/// cell `i`'s lanes occupy `cells[i*width..(i+1)*width]` — no per-cell
/// allocation, sequential merges in the cascade. Slots are assigned in
/// first-touch order, so iteration over `keys` is deterministic.
pub(crate) struct Arena<K, C> {
    index: SlotIndex<K>,
    pub(crate) keys: Vec<K>,
    pub(crate) cells: Vec<C>,
    width: usize,
}

impl<K: PackedKey, C> Arena<K, C> {
    /// Pick dense slot resolution when the keys are integers
    /// (`dense_bits`, see [`crate::encode::KeyEncoder::dense_bits`]) over a
    /// key space at most [`DENSE_SLOT_BITS`] wide *and* small relative to
    /// the expected input (`hint` rows/cells) — a giant mostly-empty table
    /// loses to the hash map on allocation and cache footprint alone.
    /// Otherwise a hash map pre-sized for `capacity` cells (0: grow on
    /// demand — a scan cannot know its cell count).
    fn new(width: usize, dense_bits: Option<u32>, hint: usize, capacity: usize) -> Self {
        let index = match dense_bits {
            Some(bits) if bits <= DENSE_SLOT_BITS && (1usize << bits) <= (64 * hint).max(1024) => {
                SlotIndex::Dense(vec![0u32; 1usize << bits])
            }
            _ => SlotIndex::Map(FxHashMap::with_capacity_and_hasher(
                capacity,
                Default::default(),
            )),
        };
        Arena {
            index,
            keys: Vec::with_capacity(capacity),
            cells: Vec::with_capacity(capacity * width),
            width,
        }
    }

    pub(crate) fn n_cells(&self) -> usize {
        self.keys.len()
    }

    pub(crate) fn cell_at(&self, slot: usize) -> &[C] {
        &self.cells[slot * self.width..(slot + 1) * self.width]
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
            width: self.width,
        }
    }

    /// The cells `keep` accepts, under the same keys.
    pub(crate) fn rebuilt(self, dense_bits: Option<u32>, keep: impl Fn(usize) -> bool) -> Self {
        let (n, w) = (self.n_cells(), self.width);
        let mut out = Arena::new(w, dense_bits, n, n);
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
        let w = self.width;
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
        let width = self.lanes.width();
        let cursor = AtomicUsize::new(0);
        let mut parts = exec::run_workers(workers, "parallel::worker", stats, |local| {
            exec::failpoint(Site::ParallelWorker)?;
            let mut arenas: Vec<Arena<K, L::Cell>> = masks
                .iter()
                .map(|_| Arena::new(width, dense_bits, n_rows.div_ceil(workers), 0))
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
            .map(|_| Arena::new(width, dense_bits, n_rows, 0))
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
    /// pre-sized to that.
    pub(crate) fn merged_child(
        &self,
        parent: &Arena<K, L::Cell>,
        mask: K,
    ) -> CubeResult<Arena<K, L::Cell>> {
        let w = self.lanes.width();
        let hint = parent.n_cells() / 2 + 1;
        let mut child = Arena::new(w, self.encoder.dense_bits(), hint, hint);
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

    /// The cascade over arenas, parallel by lattice level.
    ///
    /// Correctness of the parallel schedule: a set's cascade parent is
    /// always a strict superset, hence of strictly greater arity, hence
    /// materialized in an *earlier* level — so all sets of one level only
    /// read arenas from previous levels and can run concurrently. Parent
    /// *selection* is also unchanged from the serial `Row`-keyed cascade:
    /// that one consults the materialized-so-far list, but same-level
    /// entries can never qualify (a strict superset of equal arity cannot
    /// exist), so selecting per level sees the same candidates. Within a
    /// level, workers pull `(set, parent)` tasks from a shared cursor — a
    /// set with a huge parent arena occupies one worker while the rest
    /// drain the level.
    fn cascade(
        &self,
        core: Arena<K, L::Cell>,
        lattice: &Lattice,
        choice: ParentChoice,
        stats: &mut ExecStats,
    ) -> CubeResult<SetArenas<K, L::Cell>> {
        let encoder = &self.encoder;
        let core_set = lattice.core();
        // The C_i come straight off the symbol tables — no per-key scan
        // over the core.
        let cardinalities = encoder.cardinalities();
        let workers = if core.n_cells() >= PARALLEL_MIN_CELLS {
            exec::worker_count()
        } else {
            1
        };

        let mut done: FxHashMap<GroupingSet, Arena<K, L::Cell>> = FxHashMap::default();
        let mut order: Vec<GroupingSet> = Vec::with_capacity(lattice.sets().len());
        done.insert(core_set, core);
        order.push(core_set);

        // Walk the lattice in runs of equal arity (it is ordered
        // core-first, decreasing arity).
        let sets: Vec<GroupingSet> = lattice
            .sets()
            .iter()
            .copied()
            .filter(|&s| s != core_set)
            .collect();
        for level in sets.chunk_by(|a, b| a.len() == b.len()) {
            let tasks: Vec<(GroupingSet, GroupingSet)> = level
                .iter()
                .map(|&set| (set, choice.parent(lattice, set, &cardinalities, &order)))
                .collect();
            let cursor = AtomicUsize::new(0);
            let built =
                exec::run_workers(workers.min(tasks.len()), "cascade::level", stats, |local| {
                    exec::failpoint(Site::CascadeLevel)?;
                    let mut built = Vec::new();
                    while let Some(&(set, parent)) = tasks.get(exec::claim(&cursor, 1)) {
                        self.ctx.checkpoint()?;
                        let parent = &done[&parent];
                        built.push((set, self.merged_child(parent, encoder.set_mask(set))?));
                        local.merge_calls += (parent.n_cells() * self.lanes.width()) as u64;
                    }
                    Ok(built)
                })?;
            for (set, arena) in built.into_iter().flatten() {
                done.insert(set, arena);
                order.push(set);
            }
        }

        #[expect(
            clippy::expect_used,
            reason = "the cascade above materializes each lattice set exactly once"
        )]
        let sets = lattice
            .sets()
            .iter()
            .map(|s| (*s, done.remove(s).expect("every set materialized")))
            .collect();
        Ok(sets)
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
        let width = dims.len() + lanes.len();
        // Sort each set by collation-remapped keys — a plain integer sort in
        // decoded-`Row` order — and invert to a slot -> output-rank map.
        // Rows are then *emitted in slot order* — keys and cells stream
        // sequentially instead of one gather cache miss per cell — and
        // each decoded row scatters to its ranked position.
        // Decode-then-compare-`Row`s costs ~10× more on large results.
        let collator = encoder.collator(dims);
        let mut ranks: Vec<Vec<u32>> = Vec::with_capacity(arenas.len());
        let mut bases: Vec<usize> = Vec::with_capacity(arenas.len());
        let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
        let mut total = 0usize;
        let mut order: Vec<(K, u32)> = Vec::new();
        for (si, arena) in arenas.iter().enumerate() {
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
            let mut rank: Vec<u32> = vec![0; order.len()];
            for (i, &(_, slot)) in order.iter().enumerate() {
                rank[slot as usize] = i as u32;
            }
            ranks.push(rank);
            bases.push(total);
            total += arena.n_cells();
            tasks.extend(
                (0..arena.n_cells())
                    .step_by(EMIT_CHUNK_CELLS)
                    .map(|lo| (si, lo, (lo + EMIT_CHUNK_CELLS).min(arena.n_cells()))),
            );
        }

        // Workers pull fixed slot chunks from a cursor (decode cost is
        // uniform per cell, and chunks keep the sequential-read layout),
        // then one pass scatters the built rows — cheap `Row` moves — into
        // final positions.
        let workers = if total >= PARALLEL_MIN_CELLS {
            exec::worker_count().min(tasks.len())
        } else {
            1
        };
        let cursor = AtomicUsize::new(0);
        let emitted = exec::run_workers(workers, "materialize", stats, |local| {
            let mut out: Vec<(usize, Row)> = Vec::new();
            // One scratch row per worker; each output row is one
            // allocation, copied out of it.
            let mut vals = Vec::with_capacity(width);
            while let Some(&(si, lo, hi)) = tasks.get(exec::claim(&cursor, 1)) {
                let arena = arenas[si];
                let cells = arena.keys[lo..hi].iter().zip(&ranks[si][lo..hi]);
                for (slot, (&key, &rank)) in (lo..hi).zip(cells) {
                    self.ctx.tick(slot)?;
                    vals.clear();
                    encoder.append_key(key, dims, &mut vals);
                    self.lanes.finals(arena.cell_at(slot), lanes, &mut vals)?;
                    out.push((bases[si] + rank as usize, Row::from(&vals[..])));
                }
                local.final_calls += ((hi - lo) * lanes.len()) as u64;
            }
            Ok(out)
        })?;
        let mut rows: Vec<Row> = vec![Row::new(Vec::new()); total];
        // cube-lint: allow(checkpoint, plain Row moves; the workers polled per cell while decoding)
        for (idx, row) in emitted.into_iter().flatten() {
            rows[idx] = row;
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

    #[test]
    fn both_lane_kinds_match_the_row_path_cells_and_counters() {
        let t = sales();
        let lattice = Lattice::cube(2).unwrap();
        let ctx = ExecContext::unlimited();
        for (aggs, kernels) in [(&KERNEL_AGGS[..], 5), (&BOXED_AGGS[..], 0)] {
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
            assert_eq!(got.rows(), want.rows(), "{kernels} kernel lanes");
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
                "{kernels} kernel lanes"
            );
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

    #[test]
    fn dense_and_map_indexes_assign_the_same_slots() {
        let lanes = BoxedLanes {
            rows: &[],
            aggs: &[],
        };
        let ctx = ExecContext::unlimited();
        // 8 key bits with a 1024-row hint fits the dense table; a 40-bit
        // key space never does.
        let mut dense = Arena::new(0, Some(8), 1024, 0);
        let mut map = Arena::new(0, Some(40), 1024, 0);
        assert!(matches!(dense.index, SlotIndex::Dense(_)));
        assert!(matches!(map.index, SlotIndex::Map(_)));
        let keys = [7u64, 3, 7, 200, 3, 0];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        dense
            .slots_for(&keys, u64::MAX, &mut a, &lanes, &ctx)
            .unwrap();
        map.slots_for(&keys, u64::MAX, &mut b, &lanes, &ctx)
            .unwrap();
        assert_eq!(a, [0, 1, 0, 2, 1, 3]);
        assert_eq!(a, b);
        assert_eq!(dense.keys, map.keys);
    }
}
