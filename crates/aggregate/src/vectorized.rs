//! Vectorized aggregation kernels for the distributive/algebraic built-ins.
//!
//! The paper's Init / Iter / Final protocol (§4) is the *generic* contract:
//! any user-defined aggregate can plug in, at the price of one virtual call
//! and one `Value` match per (row, aggregate). The built-ins that dominate
//! real cube workloads — COUNT, SUM, MIN, MAX, AVG — are all distributive
//! or algebraic with tiny POD state, so they can instead run as
//! *monomorphized kernels* over the primitive column slices of a
//! [`ColumnarBatch`](dc relation columnar batch): one tight loop per
//! (kernel, column-type) pair, null-aware via the validity [`Bitmap`].
//!
//! A kernel's accumulator is a fixed 24-byte [`KernelCell`]; the engine
//! stores one flat `Vec<KernelCell>` per grouping set (stride = number of
//! kernel lanes). A cell finalizes directly ([`Kernel::final_value`]) to
//! byte-for-byte what the aggregate's ordinary accumulator would return,
//! retracts a deleted input the way that accumulator would
//! ([`Kernel::retract_i64`]), and renders as its state tuple
//! ([`Kernel::state`]) when a materialized store widens to boxed
//! accumulators — the kernels are an execution detail, not a semantic fork.
//!
//! An aggregate opts in by returning `Some(Kernel)` from
//! [`AggregateFunction::kernel`](crate::AggregateFunction::kernel); holistic
//! and user-defined aggregates keep the default `None` and the engine falls
//! back to Init/Iter/Final for the whole query.

use dc_relation::Value;

/// Morsel-relative validity for one kernel update: either every row is
/// valid (the common case — one branch for the whole morsel instead of
/// one per row) or a packed word slice aligned to the morsel's base.
///
/// Invariant for [`Validity::Words`]: bit `j` of the slice is row `j` of
/// the morsel, and bits at positions `>= slots.len()` are zero. Morsels
/// are 64-aligned (the engine's morsel size is a multiple of 64) and a
/// column's bitmap zero-fills its tail, so slicing
/// `bitmap.words()[base / 64 ..]` always satisfies this.
#[derive(Debug, Clone, Copy)]
pub enum Validity<'a> {
    /// Every row of the morsel is valid: kernels run the branch-free
    /// dense loop.
    All,
    /// Packed validity words, morsel-relative, tail bits zero.
    Words(&'a [u64]),
}

/// Visit every valid row index in `0..n` given morsel-relative validity
/// words. Full words take a fixed-width dense block (autovectorizable);
/// partial words iterate set bits only, so invalid rows cost nothing.
#[inline]
fn for_each_valid(words: &[u64], n: usize, mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let base = wi * 64;
        if base >= n {
            break;
        }
        if word == u64::MAX && base + 64 <= n {
            for j in base..base + 64 {
                f(j);
            }
        } else {
            let mut w = word;
            while w != 0 {
                f(base + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }
}

/// Visit valid absolute row indices in `start..end` against a
/// whole-column word array, masking the partial head and tail words.
#[inline]
fn for_each_valid_range(words: &[u64], start: usize, end: usize, mut f: impl FnMut(usize)) {
    if start >= end {
        return;
    }
    let (w0, w1) = (start / 64, (end - 1) / 64);
    for (wi, &word) in words.iter().enumerate().take(w1 + 1).skip(w0) {
        let mut w = word;
        if wi == w0 {
            w &= !0u64 << (start % 64);
        }
        if wi == w1 {
            let top = end - wi * 64;
            if top < 64 {
                w &= (1u64 << top) - 1;
            }
        }
        let base = wi * 64;
        while w != 0 {
            f(base + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Popcount of the valid bits in `start..end` — word-at-a-time, so a
/// COUNT over a run costs a handful of `popcnt`s instead of a row loop.
#[inline]
fn count_valid_range(words: &[u64], start: usize, end: usize) -> i64 {
    if start >= end {
        return 0;
    }
    let (w0, w1) = (start / 64, (end - 1) / 64);
    let mut n = 0i64;
    for (wi, &word) in words.iter().enumerate().take(w1 + 1).skip(w0) {
        let mut w = word;
        if wi == w0 {
            w &= !0u64 << (start % 64);
        }
        if wi == w1 {
            let top = end - wi * 64;
            if top < 64 {
                w &= (1u64 << top) - 1;
            }
        }
        n += w.count_ones() as i64;
    }
    n
}

/// The vectorized kernels. Each corresponds to one built-in aggregate whose
/// [`state`](Kernel::state) tuple matches that aggregate's row-path
/// accumulator, so a store can `merge` a kernel cell into one exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// COUNT(x): rows with a present value.
    Count,
    /// COUNT(*): every row.
    CountStar,
    /// SUM(x) over `i64` or `f64`.
    Sum,
    /// MIN(x), strict comparison, first-seen wins ties.
    Min,
    /// MAX(x), strict comparison, first-seen wins ties.
    Max,
    /// AVG(x): running `f64` sum plus count.
    Avg,
}

/// POD accumulator cell shared by all kernels: an integer lane, a float
/// lane, and a count. Which lanes are meaningful depends on the kernel and
/// the input column type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCell {
    /// Integer accumulator (SUM/MIN/MAX over `i64`).
    pub acc_i: i64,
    /// Float accumulator (SUM/MIN/MAX over `f64`, AVG always).
    pub acc_f: f64,
    /// Rows folded in (COUNT result; presence marker for MIN/MAX).
    pub n: i64,
}

/// One lane's operation in the fused row-major morsel update
/// ([`update_i64_fused`]). Fusion applies
/// when every lane of a plan reads the same fully-valid `i64` column (the
/// counting lanes read nothing): one pass over the morsel updates all of a
/// row's adjacent lane cells while their cache lines are hot, instead of
/// re-touching them once per lane-major kernel pass. `COUNT(x)` over an
/// all-valid column degenerates to [`FusedOp::Star`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedOp {
    /// `n += 1` — COUNT(*) and all-valid COUNT(x).
    Star,
    /// SUM over `i64`: `acc_i += v`.
    Sum,
    /// MIN over `i64`, strict, first-seen wins ties.
    Min,
    /// MAX over `i64`, strict, first-seen wins ties.
    Max,
    /// AVG over `i64`: `acc_f += v as f64`.
    Avg,
}

#[inline(always)]
fn apply_fused(c: &mut KernelCell, op: FusedOp, v: i64) {
    match op {
        FusedOp::Star => c.n += 1,
        FusedOp::Sum => {
            c.acc_i += v;
            c.n += 1;
        }
        FusedOp::Min => {
            if c.n == 0 || v < c.acc_i {
                c.acc_i = v;
            }
            c.n += 1;
        }
        FusedOp::Max => {
            if c.n == 0 || v > c.acc_i {
                c.acc_i = v;
            }
            c.n += 1;
        }
        FusedOp::Avg => {
            c.acc_f += v as f64;
            c.n += 1;
        }
    }
}

/// Row-major fused update of one morsel: row `j` folds `vals[j]` into all
/// `ops.len()` lanes of cell `slots[j]` before moving on. Per (row, lane)
/// the arithmetic and ordering are identical to the lane-major all-valid
/// [`Kernel::update_i64`] arms, so results — floats included — are
/// bit-identical.
pub fn update_i64_fused(cells: &mut [KernelCell], ops: &[FusedOp], slots: &[u32], vals: &[i64]) {
    let stride = ops.len();
    for (&s, &v) in slots.iter().zip(vals) {
        let base = s as usize * stride;
        for (c, op) in cells[base..base + stride].iter_mut().zip(ops) {
            apply_fused(c, *op, v);
        }
    }
}

impl Kernel {
    /// COUNT(*) update: no input column, every row counts. `slots[j]` is the
    /// group slot of morsel row `j`; a cell's lanes live at
    /// `cells[slot * stride + lane]`.
    #[inline]
    pub fn update_star(cells: &mut [KernelCell], stride: usize, lane: usize, slots: &[u32]) {
        for &s in slots {
            cells[s as usize * stride + lane].n += 1;
        }
    }

    /// Fold one morsel of an `i64` column. `vals` is the morsel slab;
    /// `validity` selects rows (see [`Validity`]). The all-valid arms are
    /// branch-free fixed-trip loops; the masked arms walk validity words
    /// and touch only set bits.
    #[inline]
    pub fn update_i64(
        self,
        cells: &mut [KernelCell],
        stride: usize,
        lane: usize,
        slots: &[u32],
        vals: &[i64],
        validity: Validity<'_>,
    ) {
        match self {
            Kernel::Count => match validity {
                Validity::All => {
                    for &s in slots {
                        cells[s as usize * stride + lane].n += 1;
                    }
                }
                Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                    cells[slots[j] as usize * stride + lane].n += 1;
                }),
            },
            Kernel::CountStar => Kernel::update_star(cells, stride, lane, slots),
            Kernel::Sum => match validity {
                Validity::All => {
                    for (&s, &v) in slots.iter().zip(vals) {
                        let c = &mut cells[s as usize * stride + lane];
                        c.acc_i += v;
                        c.n += 1;
                    }
                }
                Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                    let c = &mut cells[slots[j] as usize * stride + lane];
                    c.acc_i += vals[j];
                    c.n += 1;
                }),
            },
            Kernel::Min => match validity {
                Validity::All => {
                    for (&s, &v) in slots.iter().zip(vals) {
                        let c = &mut cells[s as usize * stride + lane];
                        if c.n == 0 || v < c.acc_i {
                            c.acc_i = v;
                        }
                        c.n += 1;
                    }
                }
                Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                    let c = &mut cells[slots[j] as usize * stride + lane];
                    if c.n == 0 || vals[j] < c.acc_i {
                        c.acc_i = vals[j];
                    }
                    c.n += 1;
                }),
            },
            Kernel::Max => match validity {
                Validity::All => {
                    for (&s, &v) in slots.iter().zip(vals) {
                        let c = &mut cells[s as usize * stride + lane];
                        if c.n == 0 || v > c.acc_i {
                            c.acc_i = v;
                        }
                        c.n += 1;
                    }
                }
                Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                    let c = &mut cells[slots[j] as usize * stride + lane];
                    if c.n == 0 || vals[j] > c.acc_i {
                        c.acc_i = vals[j];
                    }
                    c.n += 1;
                }),
            },
            Kernel::Avg => match validity {
                Validity::All => {
                    for (&s, &v) in slots.iter().zip(vals) {
                        let c = &mut cells[s as usize * stride + lane];
                        c.acc_f += v as f64;
                        c.n += 1;
                    }
                }
                Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                    let c = &mut cells[slots[j] as usize * stride + lane];
                    c.acc_f += vals[j] as f64;
                    c.n += 1;
                }),
            },
        }
    }

    /// Fold one morsel of an `f64` column; extrema use `total_cmp` to match
    /// the row path's `Value` ordering exactly.
    #[inline]
    pub fn update_f64(
        self,
        cells: &mut [KernelCell],
        stride: usize,
        lane: usize,
        slots: &[u32],
        vals: &[f64],
        validity: Validity<'_>,
    ) {
        use std::cmp::Ordering;
        match self {
            Kernel::Count => match validity {
                Validity::All => {
                    for &s in slots {
                        cells[s as usize * stride + lane].n += 1;
                    }
                }
                Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                    cells[slots[j] as usize * stride + lane].n += 1;
                }),
            },
            Kernel::CountStar => Kernel::update_star(cells, stride, lane, slots),
            Kernel::Sum | Kernel::Avg => match validity {
                Validity::All => {
                    for (&s, &v) in slots.iter().zip(vals) {
                        let c = &mut cells[s as usize * stride + lane];
                        c.acc_f += v;
                        c.n += 1;
                    }
                }
                Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                    let c = &mut cells[slots[j] as usize * stride + lane];
                    c.acc_f += vals[j];
                    c.n += 1;
                }),
            },
            Kernel::Min => match validity {
                Validity::All => {
                    for (&s, &v) in slots.iter().zip(vals) {
                        let c = &mut cells[s as usize * stride + lane];
                        if c.n == 0 || v.total_cmp(&c.acc_f) == Ordering::Less {
                            c.acc_f = v;
                        }
                        c.n += 1;
                    }
                }
                Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                    let c = &mut cells[slots[j] as usize * stride + lane];
                    if c.n == 0 || vals[j].total_cmp(&c.acc_f) == Ordering::Less {
                        c.acc_f = vals[j];
                    }
                    c.n += 1;
                }),
            },
            Kernel::Max => match validity {
                Validity::All => {
                    for (&s, &v) in slots.iter().zip(vals) {
                        let c = &mut cells[s as usize * stride + lane];
                        if c.n == 0 || v.total_cmp(&c.acc_f) == Ordering::Greater {
                            c.acc_f = v;
                        }
                        c.n += 1;
                    }
                }
                Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                    let c = &mut cells[slots[j] as usize * stride + lane];
                    if c.n == 0 || vals[j].total_cmp(&c.acc_f) == Ordering::Greater {
                        c.acc_f = vals[j];
                    }
                    c.n += 1;
                }),
            },
        }
    }

    /// COUNT(*) over a whole run: `n` rows fold in one add.
    #[inline]
    pub fn fold_star(cell: &mut KernelCell, n: i64) {
        cell.n += n;
    }

    /// Fold a fully-valid run of an `i64` column into one cell. The run's
    /// rows all belong to one group, so SUM/AVG reduce into a register
    /// before one cell write and extrema take the slice min/max — this is
    /// the RLE fast path.
    #[inline]
    pub fn fold_i64(self, cell: &mut KernelCell, vals: &[i64]) {
        let len = vals.len() as i64;
        match self {
            Kernel::Count | Kernel::CountStar => cell.n += len,
            Kernel::Sum => {
                let mut acc = 0i64;
                for &v in vals {
                    acc += v;
                }
                cell.acc_i += acc;
                cell.n += len;
            }
            Kernel::Min => {
                if let Some(&m) = vals.iter().min() {
                    if cell.n == 0 || m < cell.acc_i {
                        cell.acc_i = m;
                    }
                    cell.n += len;
                }
            }
            Kernel::Max => {
                if let Some(&m) = vals.iter().max() {
                    if cell.n == 0 || m > cell.acc_i {
                        cell.acc_i = m;
                    }
                    cell.n += len;
                }
            }
            Kernel::Avg => {
                for &v in vals {
                    cell.acc_f += v as f64;
                }
                cell.n += len;
            }
        }
    }

    /// Fold a fully-valid run of an `f64` column. SUM/AVG accumulate in
    /// row order (bit-identical to the per-row loop); extrema reduce via
    /// `total_cmp`.
    #[inline]
    pub fn fold_f64(self, cell: &mut KernelCell, vals: &[f64]) {
        use std::cmp::Ordering;
        let len = vals.len() as i64;
        match self {
            Kernel::Count | Kernel::CountStar => cell.n += len,
            Kernel::Sum | Kernel::Avg => {
                for &v in vals {
                    cell.acc_f += v;
                }
                cell.n += len;
            }
            Kernel::Min => {
                if let Some(&first) = vals.first() {
                    let m = vals[1..].iter().fold(first, |a, &b| {
                        if b.total_cmp(&a) == Ordering::Less {
                            b
                        } else {
                            a
                        }
                    });
                    if cell.n == 0 || m.total_cmp(&cell.acc_f) == Ordering::Less {
                        cell.acc_f = m;
                    }
                    cell.n += len;
                }
            }
            Kernel::Max => {
                if let Some(&first) = vals.first() {
                    let m = vals[1..].iter().fold(first, |a, &b| {
                        if b.total_cmp(&a) == Ordering::Greater {
                            b
                        } else {
                            a
                        }
                    });
                    if cell.n == 0 || m.total_cmp(&cell.acc_f) == Ordering::Greater {
                        cell.acc_f = m;
                    }
                    cell.n += len;
                }
            }
        }
    }

    /// Fold rows `start..end` of an `i64` column with nulls: validity is
    /// probed word-at-a-time against the whole-column `words`. COUNT
    /// reduces to a masked popcount.
    #[inline]
    pub fn fold_i64_masked(
        self,
        cell: &mut KernelCell,
        vals: &[i64],
        words: &[u64],
        start: usize,
        end: usize,
    ) {
        match self {
            Kernel::CountStar => cell.n += (end - start) as i64,
            Kernel::Count => cell.n += count_valid_range(words, start, end),
            Kernel::Sum => {
                let (mut acc, mut n) = (0i64, 0i64);
                for_each_valid_range(words, start, end, |i| {
                    acc += vals[i];
                    n += 1;
                });
                cell.acc_i += acc;
                cell.n += n;
            }
            Kernel::Min => for_each_valid_range(words, start, end, |i| {
                if cell.n == 0 || vals[i] < cell.acc_i {
                    cell.acc_i = vals[i];
                }
                cell.n += 1;
            }),
            Kernel::Max => for_each_valid_range(words, start, end, |i| {
                if cell.n == 0 || vals[i] > cell.acc_i {
                    cell.acc_i = vals[i];
                }
                cell.n += 1;
            }),
            Kernel::Avg => for_each_valid_range(words, start, end, |i| {
                cell.acc_f += vals[i] as f64;
                cell.n += 1;
            }),
        }
    }

    /// `f64` twin of [`Kernel::fold_i64_masked`].
    #[inline]
    pub fn fold_f64_masked(
        self,
        cell: &mut KernelCell,
        vals: &[f64],
        words: &[u64],
        start: usize,
        end: usize,
    ) {
        use std::cmp::Ordering;
        match self {
            Kernel::CountStar => cell.n += (end - start) as i64,
            Kernel::Count => cell.n += count_valid_range(words, start, end),
            Kernel::Sum | Kernel::Avg => for_each_valid_range(words, start, end, |i| {
                cell.acc_f += vals[i];
                cell.n += 1;
            }),
            Kernel::Min => for_each_valid_range(words, start, end, |i| {
                if cell.n == 0 || vals[i].total_cmp(&cell.acc_f) == Ordering::Less {
                    cell.acc_f = vals[i];
                }
                cell.n += 1;
            }),
            Kernel::Max => for_each_valid_range(words, start, end, |i| {
                if cell.n == 0 || vals[i].total_cmp(&cell.acc_f) == Ordering::Greater {
                    cell.acc_f = vals[i];
                }
                cell.n += 1;
            }),
        }
    }

    /// Fold `n` copies of one valid `i64` value — the `n × value`
    /// shortcut for a constant run (§5 dense-array insight).
    #[inline]
    pub fn fold_repeat_i64(self, cell: &mut KernelCell, v: i64, n: i64) {
        match self {
            Kernel::Count | Kernel::CountStar => cell.n += n,
            Kernel::Sum => {
                cell.acc_i += v * n;
                cell.n += n;
            }
            Kernel::Min => {
                if cell.n == 0 || v < cell.acc_i {
                    cell.acc_i = v;
                }
                cell.n += n;
            }
            Kernel::Max => {
                if cell.n == 0 || v > cell.acc_i {
                    cell.acc_i = v;
                }
                cell.n += n;
            }
            Kernel::Avg => {
                cell.acc_f += v as f64 * n as f64;
                cell.n += n;
            }
        }
    }

    /// Fold `n` copies of one valid `f64` value. The multiply replaces
    /// `n` sequential adds; for the dyadic measure values the engine's
    /// differential oracle generates this is exact, and the RLE path only
    /// engages where the caller accepts reassociated float sums.
    #[inline]
    pub fn fold_repeat_f64(self, cell: &mut KernelCell, v: f64, n: i64) {
        use std::cmp::Ordering;
        match self {
            Kernel::Count | Kernel::CountStar => cell.n += n,
            Kernel::Sum | Kernel::Avg => {
                cell.acc_f += v * n as f64;
                cell.n += n;
            }
            Kernel::Min => {
                if cell.n == 0 || v.total_cmp(&cell.acc_f) == Ordering::Less {
                    cell.acc_f = v;
                }
                cell.n += n;
            }
            Kernel::Max => {
                if cell.n == 0 || v.total_cmp(&cell.acc_f) == Ordering::Greater {
                    cell.acc_f = v;
                }
                cell.n += n;
            }
        }
    }

    /// The paper's Iter_super: fold `src` into `dst`. `float_input` says
    /// which accumulator lane the extremum kernels live in.
    #[inline]
    pub fn merge(self, dst: &mut KernelCell, src: &KernelCell, float_input: bool) {
        use std::cmp::Ordering;
        match self {
            Kernel::Count | Kernel::CountStar => dst.n += src.n,
            Kernel::Sum => {
                dst.acc_i += src.acc_i;
                dst.acc_f += src.acc_f;
                dst.n += src.n;
            }
            Kernel::Avg => {
                dst.acc_f += src.acc_f;
                dst.n += src.n;
            }
            Kernel::Min | Kernel::Max => {
                if src.n == 0 {
                    return;
                }
                if dst.n == 0 {
                    *dst = *src;
                    return;
                }
                let want = if self == Kernel::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let replace = if float_input {
                    src.acc_f.total_cmp(&dst.acc_f) == want
                } else {
                    src.acc_i.cmp(&dst.acc_i) == want
                };
                if replace {
                    let n = dst.n + src.n;
                    *dst = *src;
                    dst.n = n;
                } else {
                    dst.n += src.n;
                }
            }
        }
    }

    /// §6 DELETE of one valid `i64` input (any value for the counting
    /// kernels): the inverse of folding it in. `false` when the cell
    /// cannot answer without its base rows — the value is the extremum
    /// itself ("max is ... holistic for DELETE"), or the cell is empty.
    pub fn retract_i64(self, cell: &mut KernelCell, v: i64) -> bool {
        match self {
            Kernel::Min | Kernel::Max if cell.n == 0 => return false,
            Kernel::Min if v <= cell.acc_i => return false,
            Kernel::Max if v >= cell.acc_i => return false,
            Kernel::Sum => cell.acc_i -= v,
            Kernel::Avg => cell.acc_f -= v as f64,
            Kernel::Count | Kernel::CountStar | Kernel::Min | Kernel::Max => {}
        }
        cell.n -= 1;
        true
    }

    /// The `f64` twin of [`Kernel::retract_i64`]; subtraction cannot walk
    /// back a non-finite value or sum either.
    pub fn retract_f64(self, cell: &mut KernelCell, v: f64) -> bool {
        use std::cmp::Ordering::{Greater, Less};
        match self {
            Kernel::Min | Kernel::Max if cell.n == 0 => return false,
            Kernel::Min if v.total_cmp(&cell.acc_f) != Greater => return false,
            Kernel::Max if v.total_cmp(&cell.acc_f) != Less => return false,
            Kernel::Sum | Kernel::Avg if !v.is_finite() || !cell.acc_f.is_finite() => return false,
            Kernel::Sum | Kernel::Avg => cell.acc_f -= v,
            Kernel::Count | Kernel::CountStar | Kernel::Min | Kernel::Max => {}
        }
        cell.n -= 1;
        true
    }

    /// Render a cell as the state tuple of the corresponding row-path
    /// accumulator: `init(); acc.merge(&state)` reproduces it exactly.
    pub fn state(self, cell: &KernelCell, float_input: bool) -> Vec<Value> {
        match self {
            Kernel::Count | Kernel::CountStar => vec![Value::Int(cell.n)],
            Kernel::Sum => vec![
                Value::Int(if float_input { 0 } else { cell.acc_i }),
                Value::Float(if float_input { cell.acc_f } else { 0.0 }),
                Value::Bool(float_input && cell.n > 0),
                Value::Int(cell.n),
            ],
            Kernel::Min | Kernel::Max => {
                if cell.n == 0 {
                    vec![Value::Null]
                } else if float_input {
                    vec![Value::Float(cell.acc_f)]
                } else {
                    vec![Value::Int(cell.acc_i)]
                }
            }
            Kernel::Avg => vec![Value::Float(cell.acc_f), Value::Int(cell.n)],
        }
    }

    /// Final() straight from the cell — byte-for-byte what the row-path
    /// accumulator's `final_value` would return after the same inputs, so
    /// materialization never builds one. (SUM over a pure
    /// `Float` column matches `SumAcc`: its `int_sum` stays 0, so the
    /// float total alone is the answer.)
    pub fn final_value(self, cell: &KernelCell, float_input: bool) -> Value {
        match self {
            Kernel::Count | Kernel::CountStar => Value::Int(cell.n),
            Kernel::Sum | Kernel::Min | Kernel::Max => {
                if cell.n == 0 {
                    Value::Null // SQL: the empty set folds to NULL
                } else if float_input {
                    Value::Float(cell.acc_f)
                } else {
                    Value::Int(cell.acc_i)
                }
            }
            Kernel::Avg => {
                if cell.n == 0 {
                    Value::Null
                } else {
                    Value::Float(cell.acc_f / cell.n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use dc_relation::Bitmap;

    fn bitmap(bits: &[bool]) -> Bitmap {
        let mut b = Bitmap::new();
        for &x in bits {
            b.push(x);
        }
        b
    }

    /// Drive a kernel over one group and compare Final() against the row
    /// path fed the same values.
    fn check_i64(name: &str, kernel: Kernel, vals: &[i64], valid: &[bool]) {
        let mut cells = vec![KernelCell::default()];
        let slots = vec![0u32; vals.len()];
        let b = bitmap(valid);
        kernel.update_i64(&mut cells, 1, 0, &slots, vals, Validity::Words(b.words()));
        let f = builtin(name).unwrap();
        let mut want = f.init();
        for (v, ok) in vals.iter().zip(valid) {
            want.iter(&if *ok { Value::Int(*v) } else { Value::Null });
        }
        let mut got = f.init();
        got.merge(&kernel.state(&cells[0], false));
        assert_eq!(
            got.final_value(),
            want.final_value(),
            "{name} state over {vals:?}"
        );
        assert_eq!(
            kernel.final_value(&cells[0], false),
            want.final_value(),
            "{name} direct final over {vals:?}"
        );
    }

    /// Same, over an `f64` column.
    fn check_f64(name: &str, kernel: Kernel, vals: &[f64], valid: &[bool]) {
        let mut cells = vec![KernelCell::default()];
        let slots = vec![0u32; vals.len()];
        let b = bitmap(valid);
        kernel.update_f64(&mut cells, 1, 0, &slots, vals, Validity::Words(b.words()));
        let f = builtin(name).unwrap();
        let mut want = f.init();
        for (v, ok) in vals.iter().zip(valid) {
            want.iter(&if *ok { Value::Float(*v) } else { Value::Null });
        }
        assert_eq!(
            kernel.final_value(&cells[0], true),
            want.final_value(),
            "{name} direct final over {vals:?}"
        );
    }

    #[test]
    fn kernels_match_row_accumulators_over_f64() {
        let vals = [1.25, -3.5, 100.0, 0.75, -3.5];
        let valid = [true, false, true, true, true];
        for (name, k) in [
            ("COUNT", Kernel::Count),
            ("SUM", Kernel::Sum),
            ("MIN", Kernel::Min),
            ("MAX", Kernel::Max),
            ("AVG", Kernel::Avg),
        ] {
            check_f64(name, k, &vals, &valid);
            check_f64(name, k, &[], &[]);
            check_f64(name, k, &[0.0, 0.0], &[false, false]);
        }
    }

    #[test]
    fn kernels_match_row_accumulators_over_i64() {
        let vals = [5, -3, 12, 7, -3];
        let valid = [true, true, false, true, true];
        for (name, k) in [
            ("COUNT", Kernel::Count),
            ("SUM", Kernel::Sum),
            ("MIN", Kernel::Min),
            ("MAX", Kernel::Max),
            ("AVG", Kernel::Avg),
        ] {
            check_i64(name, k, &vals, &valid);
            check_i64(name, k, &[], &[]);
            check_i64(name, k, &[0, 0], &[false, false]);
        }
    }

    #[test]
    fn count_star_counts_nulls_too() {
        let mut cells = vec![KernelCell::default()];
        Kernel::update_star(&mut cells, 1, 0, &[0, 0, 0]);
        assert_eq!(
            Kernel::CountStar.state(&cells[0], false),
            vec![Value::Int(3)]
        );
    }

    #[test]
    fn float_extrema_use_total_cmp() {
        let mut cells = vec![KernelCell::default()];
        let vals = [0.0, -0.0];
        let slots = [0u32, 0];
        Kernel::Min.update_f64(&mut cells, 1, 0, &slots, &vals, Validity::All);
        // total_cmp puts -0.0 below 0.0, matching Value's ordering.
        assert_eq!(cells[0].acc_f.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn merge_is_iter_super() {
        let mut a = KernelCell {
            acc_i: 10,
            acc_f: 0.0,
            n: 2,
        };
        let b = KernelCell {
            acc_i: 4,
            acc_f: 0.0,
            n: 1,
        };
        Kernel::Sum.merge(&mut a, &b, false);
        assert_eq!((a.acc_i, a.n), (14, 3));

        let mut lo = KernelCell {
            acc_i: 3,
            acc_f: 0.0,
            n: 1,
        };
        let hi = KernelCell {
            acc_i: 9,
            acc_f: 0.0,
            n: 1,
        };
        Kernel::Min.merge(&mut lo, &hi, false);
        assert_eq!(lo.acc_i, 3);
        let empty = KernelCell::default();
        Kernel::Min.merge(&mut lo, &empty, false);
        assert_eq!((lo.acc_i, lo.n), (3, 2));
    }

    const ALL_KERNELS: [Kernel; 6] = [
        Kernel::Count,
        Kernel::CountStar,
        Kernel::Sum,
        Kernel::Min,
        Kernel::Max,
        Kernel::Avg,
    ];

    /// `Validity::All` and an all-set word mask produce identical cells,
    /// across a word boundary (so both the dense-block and set-bit arms
    /// of the word walk run).
    #[test]
    fn dense_and_masked_paths_agree() {
        let n = 150usize;
        let vals_i: Vec<i64> = (0..n as i64).map(|i| i * 7 % 23 - 11).collect();
        let vals_f: Vec<f64> = vals_i.iter().map(|&i| i as f64 * 0.25).collect();
        let slots: Vec<u32> = (0..n as u32).map(|i| i % 5).collect();
        let all_set = bitmap(&vec![true; n]);
        for k in ALL_KERNELS {
            let mut dense = vec![KernelCell::default(); 5];
            let mut masked = vec![KernelCell::default(); 5];
            k.update_i64(&mut dense, 1, 0, &slots, &vals_i, Validity::All);
            k.update_i64(
                &mut masked,
                1,
                0,
                &slots,
                &vals_i,
                Validity::Words(all_set.words()),
            );
            assert_eq!(dense, masked, "{k:?} i64");

            let mut dense = vec![KernelCell::default(); 5];
            let mut masked = vec![KernelCell::default(); 5];
            k.update_f64(&mut dense, 1, 0, &slots, &vals_f, Validity::All);
            k.update_f64(
                &mut masked,
                1,
                0,
                &slots,
                &vals_f,
                Validity::Words(all_set.words()),
            );
            assert_eq!(dense, masked, "{k:?} f64");
        }
    }

    /// Whole-run folds equal the per-row update over the same rows.
    #[test]
    fn run_folds_match_per_row() {
        let n = 130usize;
        let vals_i: Vec<i64> = (0..n as i64).map(|i| (i * 31) % 17 - 8).collect();
        let vals_f: Vec<f64> = vals_i.iter().map(|&i| i as f64 * 0.5).collect();
        let slots = vec![0u32; n];
        for k in ALL_KERNELS {
            let mut want = vec![KernelCell::default()];
            k.update_i64(&mut want, 1, 0, &slots, &vals_i, Validity::All);
            let mut got = KernelCell::default();
            if k == Kernel::CountStar {
                Kernel::fold_star(&mut got, n as i64);
            } else {
                k.fold_i64(&mut got, &vals_i);
            }
            assert_eq!(got, want[0], "{k:?} i64 fold");

            let mut want = vec![KernelCell::default()];
            k.update_f64(&mut want, 1, 0, &slots, &vals_f, Validity::All);
            let mut got = KernelCell::default();
            if k == Kernel::CountStar {
                Kernel::fold_star(&mut got, n as i64);
            } else {
                k.fold_f64(&mut got, &vals_f);
            }
            assert_eq!(got, want[0], "{k:?} f64 fold");
        }
    }

    /// Masked folds over an arbitrary sub-range (unaligned start and end)
    /// equal the per-row update restricted to that range.
    #[test]
    fn masked_folds_match_per_row_over_subranges() {
        let n = 200usize;
        let vals_i: Vec<i64> = (0..n as i64).map(|i| i % 11 - 5).collect();
        let vals_f: Vec<f64> = vals_i.iter().map(|&i| i as f64 - 0.25).collect();
        let valid: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        let b = bitmap(&valid);
        for (start, end) in [(0usize, 64usize), (7, 70), (65, 66), (100, 200), (3, 197)] {
            let rows = end - start;
            let slots = vec![0u32; rows];
            // Reference: per-row update over a morsel-relative remask.
            let sub = bitmap(&valid[start..end]);
            for k in ALL_KERNELS {
                let mut want = vec![KernelCell::default()];
                k.update_i64(
                    &mut want,
                    1,
                    0,
                    &slots,
                    &vals_i[start..end],
                    Validity::Words(sub.words()),
                );
                let mut got = KernelCell::default();
                k.fold_i64_masked(&mut got, &vals_i, b.words(), start, end);
                assert_eq!(got, want[0], "{k:?} i64 [{start}, {end})");

                let mut want = vec![KernelCell::default()];
                k.update_f64(
                    &mut want,
                    1,
                    0,
                    &slots,
                    &vals_f[start..end],
                    Validity::Words(sub.words()),
                );
                let mut got = KernelCell::default();
                k.fold_f64_masked(&mut got, &vals_f, b.words(), start, end);
                assert_eq!(got, want[0], "{k:?} f64 [{start}, {end})");
            }
        }
    }

    /// `n × value` constant folds equal folding the expanded run.
    #[test]
    fn repeat_folds_match_expanded_runs() {
        for k in ALL_KERNELS {
            let mut want = KernelCell::default();
            k.fold_i64(&mut want, &[7i64; 33]);
            let mut got = KernelCell::default();
            k.fold_repeat_i64(&mut got, 7, 33);
            assert_eq!(got, want, "{k:?} i64 repeat");

            let mut want = KernelCell::default();
            k.fold_f64(&mut want, &[2.25f64; 16]);
            let mut got = KernelCell::default();
            k.fold_repeat_f64(&mut got, 2.25, 16);
            assert_eq!(got, want, "{k:?} f64 repeat");
        }
    }

    #[test]
    fn sum_state_rehydrates_float_path() {
        let mut cells = vec![KernelCell::default()];
        let vals = [1.25, 2.5];
        Kernel::Sum.update_f64(&mut cells, 1, 0, &[0, 0], &vals, Validity::All);
        let f = builtin("SUM").unwrap();
        let mut got = f.init();
        got.merge(&Kernel::Sum.state(&cells[0], true));
        assert_eq!(got.final_value(), Value::Float(3.75));
    }
}
