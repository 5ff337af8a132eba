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
use crate::error::{CubeError, CubeResult};
use crate::exec::{self, ExecContext};
use crate::groupby::ExecStats;
use crate::lattice::{GroupingSet, Lattice};
use crate::maintain::{Nodes, Store};
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::{Accumulator, FusedOp, Kernel, KernelCell, Retract, Validity};
use dc_relation::{Bitmap, Column, FxHashMap, RleIndex, Row, Schema, Table, Value};
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

/// The run-folding scan requires the sampled mean key-run length to reach
/// this many rows — below it, per-run dispatch overhead eats the savings.
const RLE_MIN_RUN: usize = 4;

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

    /// Iter() over rows `start..end`, all of which belong to `cell`.
    fn fold_run(&self, cell: &mut [Self::Cell], start: usize, end: usize) -> CubeResult<()>;

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

    /// A copy of `cells` as boxed accumulators, for a store whose lanes
    /// widen. Only kernel cells do: [`Stored::lanes`] never refuses rows
    /// for boxed ones.
    fn boxed(
        _: &Self::Lanes<'_>,
        _: &[BoundAgg],
        _: &[Self],
        _: &ExecContext,
    ) -> CubeResult<Vec<Box<dyn Accumulator>>> {
        Err(CubeError::Unsupported("boxed lanes do not widen".into()))
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
    fn fold_run(&self, accs: &mut [Self::Cell], start: usize, end: usize) -> CubeResult<()> {
        // cube-lint: allow(checkpoint, a run never crosses its morsel; the scan checkpoints per morsel)
        for row in &self.rows[start..end] {
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
    /// Run-length index over the measure column, attached only when the
    /// run-folding scan engages and the column actually compresses.
    /// Enables the `n × value` constant-run fold.
    rle: Option<Arc<RleIndex>>,
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

impl KernelLanes {
    /// Try to compile every aggregate to a kernel lane. `None` — an
    /// aggregate without a kernel (holistic, user-defined, PRODUCT, ...)
    /// or a measure column that is not purely `Int`/`NULL` or
    /// `Float`/`NULL` — gives the whole query boxed lanes. `rle` says the
    /// run-folding scan will run, so compressible measure columns get
    /// their run indexes built here, once.
    pub(crate) fn plan(rows: &[Row], aggs: &[BoundAgg], rle: bool) -> Option<KernelLanes> {
        if aggs.is_empty() {
            return None;
        }
        // One extraction per distinct measure column, shared across lanes.
        let mut columns: FxHashMap<usize, Option<LaneInput>> = FxHashMap::default();
        let mut lanes = Vec::with_capacity(aggs.len());
        for a in aggs {
            let kernel = a.func.kernel()?;
            let input = match a.input {
                // The unit input is a constant non-NULL value: only the
                // counting kernels read nothing and stay correct.
                None => match kernel {
                    Kernel::Count | Kernel::CountStar => LaneInput::Star,
                    _ => return None,
                },
                Some(_) if kernel == Kernel::CountStar => LaneInput::Star,
                Some(idx) => columns
                    .entry(idx)
                    .or_insert_with(|| {
                        let ints =
                            Column::try_ints(rows, idx).map(|c| LaneInput::Ints(Arc::new(c)));
                        ints.or_else(|| {
                            Column::try_floats(rows, idx).map(|c| LaneInput::Floats(Arc::new(c)))
                        })
                    })
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
                rle: None,
            });
        }
        let mut plan = KernelLanes {
            fused: fused_ints(&lanes),
            lanes,
        };
        if rle {
            plan.attach_rle();
        }
        Some(plan)
    }

    /// Build per-measure [`RleIndex`]es, deduplicated across lanes sharing
    /// one extracted column and kept only where the column compresses.
    fn attach_rle(&mut self) {
        let mut cache: Vec<(usize, Option<Arc<RleIndex>>)> = Vec::new();
        for lane in &mut self.lanes {
            let (ptr, built) = match &lane.input {
                LaneInput::Star => continue,
                LaneInput::Ints(col) => (
                    Arc::as_ptr(col) as usize,
                    RleIndex::from_i64(&col.0, &col.1),
                ),
                LaneInput::Floats(col) => (
                    Arc::as_ptr(col) as usize,
                    RleIndex::from_f64(&col.0, &col.1),
                ),
            };
            lane.rle = match cache.iter().find(|(p, _)| *p == ptr) {
                Some((_, idx)) => idx.clone(),
                None => {
                    let idx = built.is_beneficial().then(|| Arc::new(built));
                    cache.push((ptr, idx.clone()));
                    idx
                }
            };
        }
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
        KernelLanes::plan(rows, aggs, false)?.conform(spec)
    }

    /// A POD copy.
    fn copy(_: &KernelLanes, cells: &[Self], _: &ExecContext) -> CubeResult<Vec<Self>> {
        Ok(cells.to_vec())
    }

    /// Each lane through its accumulator's state tuple.
    fn boxed(
        lanes: &KernelLanes,
        aggs: &[BoundAgg],
        cells: &[Self],
        ctx: &ExecContext,
    ) -> CubeResult<Vec<Box<dyn Accumulator>>> {
        let mut out = Vec::with_capacity(cells.len());
        for (i, pods) in cells.chunks(lanes.width()).enumerate() {
            ctx.tick(i)?;
            for ((pod, lane), agg) in pods.iter().zip(&lanes.lanes).zip(aggs) {
                let mut acc = exec::guard(agg.func.name(), || agg.func.init())?;
                let state = lane.kernel.state(pod, lane.float);
                exec::guard(agg.func.name(), || acc.merge(&state))?;
                out.push(acc);
            }
        }
        Ok(out)
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

    /// One kernel call per lane: `n × value` when the measure is constant
    /// over the run, a register-reduction fold when it is merely fully
    /// valid, a masked fold otherwise. Row order within the run matches
    /// the per-row scan.
    #[inline]
    fn fold_run(&self, pods: &mut [KernelCell], s: usize, e: usize) -> CubeResult<()> {
        let len = (e - s) as i64;
        for (lane, pod) in self.lanes.iter().zip(pods) {
            let constant = || lane.rle.as_ref().is_some_and(|r| r.constant_over(s, e));
            match &lane.input {
                LaneInput::Star => Kernel::fold_star(pod, len),
                LaneInput::Ints(col) if !lane.all_valid => {
                    lane.kernel
                        .fold_i64_masked(pod, &col.0, col.1.words(), s, e)
                }
                LaneInput::Ints(col) if constant() => {
                    lane.kernel.fold_repeat_i64(pod, col.0[s], len)
                }
                LaneInput::Ints(col) => lane.kernel.fold_i64(pod, &col.0[s..e]),
                LaneInput::Floats(col) if !lane.all_valid => {
                    lane.kernel
                        .fold_f64_masked(pod, &col.0, col.1.words(), s, e)
                }
                LaneInput::Floats(col) if constant() => {
                    lane.kernel.fold_repeat_f64(pod, col.0[s], len)
                }
                LaneInput::Floats(col) => lane.kernel.fold_f64(pod, &col.0[s..e]),
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

    /// These keys and slots over other cells (`cells` in slot order).
    pub(crate) fn with_cells<D>(&self, cells: Vec<D>) -> Arena<K, D> {
        Arena {
            index: self.index.clone(),
            keys: self.keys.clone(),
            cells,
            width: self.width,
        }
    }

    /// The cells `keep` accepts, under `rekey`ed keys (`rekey` injective).
    pub(crate) fn rebuilt<J: PackedKey>(
        self,
        dense_bits: Option<u32>,
        rekey: impl Fn(K) -> J,
        keep: impl Fn(usize) -> bool,
    ) -> Arena<J, C> {
        let (n, w) = (self.n_cells(), self.width);
        let mut out = Arena::new(w, dense_bits, n, n);
        let mut cells = self.cells.into_iter();
        for (slot, &key) in self.keys.iter().enumerate() {
            let lanes = cells.by_ref().take(w);
            if keep(slot) {
                out.probe(rekey(key));
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

/// Should the run-folding scan run? Decided from the data alone: the
/// leading keys must sample to runs of at least [`RLE_MIN_RUN`] rows
/// (sorted or low-cardinality key streams).
fn rle_engages<K: PackedKey>(keys: &[K]) -> bool {
    let sample = &keys[..keys.len().min(4096)];
    if sample.is_empty() {
        return false;
    }
    let runs = 1 + sample.windows(2).filter(|w| w[0] != w[1]).count();
    sample.len() / runs >= RLE_MIN_RUN
}

/// What every stage of one query shares: the key encoder and the packed
/// keys of the rows being scanned (none for a store's answer), the lane
/// store, whether the run-folding scan engaged, and the governance context.
pub(crate) struct Pipeline<'a, K: PackedKey, L: Lanes> {
    pub(crate) encoder: &'a KeyEncoder<K>,
    pub(crate) keys: &'a [K],
    pub(crate) lanes: &'a L,
    pub(crate) rle: bool,
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
        exec::failpoint("vectorized::morsel")?;
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

    /// Scan morsel `[base, end)` run-at-a-time: detect maximal key runs
    /// and fold each run's rows into its cell with one slot resolution
    /// (and, for kernel lanes, one kernel call). Row order within and
    /// across runs matches the plain scan.
    fn scan_morsel_rle(
        &self,
        arenas: &mut [Arena<K, L::Cell>],
        masks: &[K],
        base: usize,
        end: usize,
        stats: &mut ExecStats,
    ) -> CubeResult<()> {
        exec::failpoint("vectorized::rle_run")?;
        self.ctx.checkpoint()?;
        let keys = &self.keys;
        let w = self.lanes.width();
        let mut s = base;
        while s < end {
            let key = keys[s];
            let mut e = s + 1;
            while e < end && keys[e] == key {
                e += 1;
            }
            for (arena, &mask) in arenas.iter_mut().zip(masks) {
                let slot = arena.slot(key.and(mask), self.lanes, self.ctx)? as usize;
                self.lanes
                    .fold_run(&mut arena.cells[slot * w..(slot + 1) * w], s, e)?;
                stats.iter_calls += ((e - s) * w) as u64;
            }
            stats.rows_scanned += (e - s) as u64;
            stats.rle_runs += 1;
            s = e;
        }
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
            exec::failpoint("parallel::worker")?;
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
                if self.rle {
                    self.scan_morsel_rle(&mut arenas, masks, base, end, local)?;
                } else {
                    self.scan_morsel(&mut arenas, masks, &mut slot_buf, base, end, local)?;
                }
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
    fn scan_one(
        &self,
        mask: K,
        workers: usize,
        stats: &mut ExecStats,
    ) -> CubeResult<Arena<K, L::Cell>> {
        let mut arenas = self.scan(&[mask], workers, stats)?;
        // cube-lint: allow(panic, scan returns one arena per mask and one mask was passed)
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
                    exec::failpoint("cascade::level")?;
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

        Ok(lattice
            .sets()
            .iter()
            // cube-lint: allow(panic, the cascade above materializes each lattice set exactly once)
            .map(|s| (*s, done.remove(s).expect("every set materialized")))
            .collect())
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
                exec::failpoint("naive::scan")?;
                let masks: Vec<K> = lattice
                    .sets()
                    .iter()
                    .map(|&s| encoder.set_mask(s))
                    .collect();
                let arenas = self.scan(&masks, 1, stats)?;
                Ok(lattice.sets().iter().copied().zip(arenas).collect())
            }
            Shape::PerSet => {
                exec::failpoint("unions::scan")?;
                lattice
                    .sets()
                    .iter()
                    .map(|&set| Ok((set, self.scan_one(encoder.set_mask(set), 1, stats)?)))
                    .collect()
            }
            Shape::FromCore { threads, choice } => {
                exec::failpoint("core::scan")?;
                let workers = match threads {
                    None => 1,
                    Some(t) => {
                        let t = t.clamp(1, self.keys.len().max(1));
                        stats.threads_used = stats.threads_used.max(t as u32);
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
        exec::failpoint("materialize")?;
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

/// Encode the input and group it into every set of `lattice` with the
/// plan shape, on the pipeline its data selects: the key width from the
/// field widths [`encode`] computes, the lane kind from the select list
/// (kernel lanes when every aggregate compiles to one). The arenas come
/// back as a store's cells.
pub(crate) fn group(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    plan: (&Lattice, Shape),
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Arc<dyn Store>> {
    match encode(rows, dims) {
        Encoded::Narrow(enc) => group_keyed(enc, rows, aggs, plan, stats, ctx),
        Encoded::Wide(enc) => group_keyed(enc, rows, aggs, plan, stats, ctx),
    }
}

fn group_keyed<K: PackedKey>(
    enc: EncodedInput<K>,
    rows: &[Row],
    aggs: &[BoundAgg],
    plan: (&Lattice, Shape),
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Arc<dyn Store>> {
    let rle = rle_engages(&enc.keys);
    match KernelLanes::plan(rows, aggs, rle) {
        Some(lanes) => {
            // Recorded before the scan so partial stats on a budget trip
            // already say which lanes were running.
            stats.vectorized_kernels_used = stats.vectorized_kernels_used.max(lanes.width() as u64);
            keep_arenas(enc, &lanes, rle, plan, stats, ctx)
        }
        None => keep_arenas(enc, &BoxedLanes { rows, aggs }, rle, plan, stats, ctx),
    }
}

fn keep_arenas<K: PackedKey, L: Lanes>(
    enc: EncodedInput<K>,
    lanes: &L,
    rle: bool,
    (lattice, shape): (&Lattice, Shape),
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Arc<dyn Store>> {
    let (encoder, keys) = (&enc.encoder, &enc.keys);
    let sets = Pipeline {
        encoder,
        keys,
        lanes,
        rle,
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

/// Execute `lattice` over the base rows with the given plan shape and
/// materialize the sets in `keep` (all of them when `None`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    shape: Shape,
    keep: Option<&[GroupingSet]>,
    schema: Schema,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Table> {
    let cells = group(rows, dims, aggs, (lattice, shape), stats, ctx)?;
    let kept = lattice.sets().iter().enumerate();
    let kept = kept.filter(|(_, s)| keep.is_none_or(|keep| keep.contains(s)));
    let picks: Vec<(usize, Option<GroupingSet>)> = kept.map(|(i, _)| (i, None)).collect();
    let (dims, lanes): (Vec<usize>, Vec<usize>) =
        ((0..dims.len()).collect(), (0..aggs.len()).collect());
    cells.read_sets(aggs, &picks, &dims, &lanes, schema, stats, ctx)
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
        let dims: Vec<BoundDimension> = ["model", "year"]
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

    fn run_engine(t: &Table, aggs: &[(&str, &str)], shape: Shape) -> (Table, ExecStats) {
        let (dims, aggs, schema) = bind(t, aggs);
        let lattice = Lattice::cube(2).unwrap();
        let mut stats = ExecStats::default();
        let ctx = ExecContext::unlimited();
        let out = execute(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            shape,
            None,
            schema,
            &mut stats,
            &ctx,
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
        let (dims, aggs, schema) = bind(t, aggs);
        let lattice = Lattice::cube(2).unwrap();
        let enc = encode_as::<K>(t.rows(), &dims);
        let mut stats = ExecStats::default();
        let ctx = ExecContext::unlimited();
        let plan = (&lattice, shape);
        let cells = group_keyed(enc, t.rows(), &aggs, plan, &mut stats, &ctx).unwrap();
        let picks: Vec<_> = (0..lattice.sets().len()).map(|i| (i, None)).collect();
        let (dims, lanes) = ([0, 1], (0..aggs.len()).collect::<Vec<_>>());
        let out = cells.read_sets(&aggs, &picks, &dims, &lanes, schema, &mut stats, &ctx);
        (out.unwrap(), stats)
    }

    #[test]
    fn lane_kind_follows_the_select_list() {
        let t = sales();
        let (_, aggs, _) = bind(&t, &KERNEL_AGGS);
        assert_eq!(
            KernelLanes::plan(t.rows(), &aggs, false).unwrap().width(),
            5
        );
        // A holistic aggregate, an algebraic one without a kernel, or a
        // string measure anywhere gives the whole query boxed lanes.
        for reject in [("MEDIAN", "units"), ("VARIANCE", "price"), ("MIN", "model")] {
            let (_, aggs, _) = bind(&t, &[("SUM", "units"), reject]);
            assert!(
                KernelLanes::plan(t.rows(), &aggs, false).is_none(),
                "{reject:?}"
            );
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
                assert_eq!(s.threads_used, threads as u32);
                // Six rows are one morsel: one worker scans it and the
                // coalesce adopts every cell — no merges beyond the
                // cascade's own.
                assert_eq!(s.merge_calls, from_core_stats.merge_calls);
            }
        }
    }

    #[test]
    fn key_runs_engage_the_run_folding_scan_for_both_lane_kinds() {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
            ("price", DataType::Float),
        ]);
        let mut sorted = Table::empty(schema);
        for (m, y) in [("Chevy", 1994), ("Chevy", 1995), ("Ford", 1994)] {
            for i in 0..6 {
                sorted.push(row![m, y, 10 + i, 0.5 * i as f64]).unwrap();
            }
        }
        let mut interleaved = Table::empty(sorted.schema().clone());
        for i in 0..6 {
            for r in sorted.rows().iter().skip(i).step_by(6) {
                interleaved.push_unchecked(r.clone());
            }
        }
        for aggs in [&KERNEL_AGGS[..], &BOXED_AGGS[..]] {
            let (folded, s) = run_engine(&sorted, aggs, FROM_CORE);
            assert_eq!(s.rle_runs, 3, "three runs of six rows");
            let (plain, p) = run_engine(&interleaved, aggs, FROM_CORE);
            assert_eq!(p.rle_runs, 0, "run length 1 keeps the per-row scan");
            assert_eq!(folded.rows(), plain.rows());
            assert_eq!(
                (s.rows_scanned, s.iter_calls),
                (p.rows_scanned, p.iter_calls)
            );
        }
    }

    /// One table that packs both ways, through both key instantiations ×
    /// both lane kinds × every shape: the key width changes neither a cell
    /// nor a work counter. The sorted copy engages the run-folding scan.
    #[test]
    fn both_key_widths_give_identical_tables_and_counters() {
        let plain = sales();
        let mut sorted = Table::empty(plain.schema().clone());
        for r in plain.rows() {
            for _ in 0..RLE_MIN_RUN {
                sorted.push_unchecked(r.clone());
            }
        }
        let parallel = Shape::FromCore {
            threads: Some(3),
            choice: ParentChoice::SmallestCardinality,
        };
        // Six rows, two of them adjacent on (Ford, 1995): five key runs.
        for (t, runs) in [(&plain, 0), (&sorted, 5)] {
            for (aggs, kernels) in [(&KERNEL_AGGS[..], 5), (&BOXED_AGGS[..], 0)] {
                for shape in [FROM_CORE, Shape::EverySet, Shape::PerSet, parallel] {
                    let (narrow, n) = run_keyed::<u64>(t, aggs, shape);
                    let (wide, w) = run_keyed::<WideKey>(t, aggs, shape);
                    let tag = format!("{shape:?}, {kernels} kernel lanes, {runs} runs");
                    assert_eq!(narrow.rows(), wide.rows(), "{tag}");
                    let counters = |s: &ExecStats| {
                        (
                            s.rows_scanned,
                            s.iter_calls,
                            s.merge_calls,
                            s.final_calls,
                            s.morsels_processed,
                            s.rle_runs,
                        )
                    };
                    assert_eq!(counters(&n), counters(&w), "{tag}");
                    assert_eq!(n.vectorized_kernels_used, kernels, "{tag}");
                    assert_eq!(w.vectorized_kernels_used, kernels, "{tag}");
                    assert!(n.morsels_processed > 0, "{tag}");
                    if matches!(shape, Shape::FromCore { .. }) {
                        assert_eq!(n.rle_runs, runs, "{tag}");
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
