//! Vectorized aggregation kernels for the distributive/algebraic built-ins.
//!
//! The paper's Init / Iter / Final protocol (§4) is the *generic* contract:
//! any user-defined aggregate can plug in, at the price of one virtual call
//! and one `Value` match per (row, aggregate). The built-ins that dominate
//! real cube workloads — COUNT, SUM, MIN, MAX, AVG — are all distributive
//! or algebraic with tiny POD state, so they can instead run as
//! *monomorphized kernels* over primitive column slices — a table's
//! [`dc_relation::TypedColumn`]s: one tight loop per (measure column,
//! column type), null-aware via the validity [`dc_relation::Bitmap`].
//!
//! §2 calls AVG algebraic because its scratchpad is the (sum, count) pair
//! that SUM and COUNT already are, and MIN and MAX add one field each. So
//! the scratchpad is per *measure column*, not per aggregate: one 48-byte
//! [`KernelCell`] holds a counter, an exact `i128` integer sum, an `f64`
//! sum and both extrema, and the column's aggregates all read it. A
//! select list's [`Parts`] say which fields a column's fold keeps, and a
//! row updates all of them in one visit. The engine stores one flat
//! `Vec<KernelCell>` per grouping set, one cell per measure column per
//! group (plus one counting rows when no column counts every row).
//!
//! A cell finalizes directly ([`Kernel::final_value`]) to byte-for-byte
//! what the aggregate's ordinary accumulator would return, and retracts a
//! deleted input the way those accumulators would
//! ([`KernelCell::retract_int`]) — the kernels are an execution detail,
//! not a semantic fork. Cells never turn into accumulators: a materialized
//! store whose batch does not compile to its cells re-groups its table.
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

/// The vectorized kernels. Each corresponds to one built-in aggregate, and
/// its [`final_value`](Kernel::final_value) over a cell is what that
/// aggregate's row-path accumulator returns after the same inputs.
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
    /// AVG(x): the column's sum, divided by the count once at Final.
    Avg,
}

/// Which fields of a column's [`KernelCell`] its fold keeps: the union of
/// what the select list's aggregates over that column read. The counter
/// is always kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Parts {
    /// The exact integer sum: SUM and AVG over `i64`.
    pub int_sum: bool,
    /// The `f64` sum in fold order: SUM and AVG over `f64`.
    pub float_sum: bool,
    pub min: bool,
    pub max: bool,
}

impl Parts {
    /// What `kernel` reads of a cell over an `f64` (`float`) or `i64`
    /// column.
    pub fn of(kernel: Kernel, float: bool) -> Parts {
        let none = Parts::default();
        match kernel {
            Kernel::Count | Kernel::CountStar => none,
            Kernel::Sum | Kernel::Avg => Parts {
                int_sum: !float,
                float_sum: float,
                ..none
            },
            Kernel::Min => Parts { min: true, ..none },
            Kernel::Max => Parts { max: true, ..none },
        }
    }

    /// The fields either reads.
    pub fn with(self, other: Parts) -> Parts {
        Parts {
            int_sum: self.int_sum || other.int_sum,
            float_sum: self.float_sum || other.float_sum,
            min: self.min || other.min,
            max: self.max || other.max,
        }
    }
}

/// `f64`'s total order (`f64::total_cmp`, which is `Value`'s) as an `i64`
/// order: the transform `total_cmp` applies to both operands. It is its
/// own inverse.
#[inline(always)]
fn total_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// One group's scratchpad for one measure column: every SUM, COUNT, AVG,
/// MIN and MAX of that column reads its fields, so a row folds into one
/// cell however many of them the select list names. Extrema over an `f64`
/// column are held as their total-order key, so one `i64` comparison
/// serves both column types.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCell {
    /// Values folded in: the column's present values, or every row for a
    /// cell that counts rows (a column without NULLs counts both).
    pub n: i64,
    /// Exact sum of an `i64` column: it cannot wrap, and a retraction is
    /// its exact inverse.
    pub sum: i128,
    /// Sum in fold order of an `f64` column.
    pub fsum: f64,
    /// Smallest value so far; meaningful while `n > 0`.
    pub min: i64,
    /// Largest value so far; meaningful while `n > 0`.
    pub max: i64,
}

// A group keeps one cell per measure column, and every SUM, COUNT, AVG,
// MIN and MAX of the column reads it: its size is the scratchpad's.
const _: () = assert!(std::mem::size_of::<KernelCell>() <= 48);

impl KernelCell {
    /// Fold one value into the extrema `parts` keeps: strict comparison,
    /// first-seen wins ties.
    #[inline(always)]
    fn fold_key(&mut self, key: i64, parts: Parts) {
        if parts.min && (self.n == 0 || key < self.min) {
            self.min = key;
        }
        if parts.max && (self.n == 0 || key > self.max) {
            self.max = key;
        }
    }

    #[inline(always)]
    fn fold_int(&mut self, v: i64, parts: Parts) {
        if parts.int_sum {
            self.sum += v as i128;
        }
        self.fold_key(v, parts);
        self.n += 1;
    }

    #[inline(always)]
    fn fold_float(&mut self, v: f64, parts: Parts) {
        if parts.float_sum {
            self.fsum += v;
        }
        self.fold_key(total_key(v.to_bits() as i64), parts);
        self.n += 1;
    }

    /// Count one morsel's rows: no column, every row counts. `slots[j]` is
    /// the group slot of morsel row `j`; a group's cells live at
    /// `cells[slot * stride..]`, this one at offset `at`.
    #[inline]
    pub fn fold_rows(cells: &mut [KernelCell], stride: usize, at: usize, slots: &[u32]) {
        for &s in slots {
            cells[s as usize * stride + at].n += 1;
        }
    }

    /// Fold one morsel of an `i64` column into the cell at offset `at` of
    /// each row's group, keeping `parts`. `vals` is the morsel slab;
    /// `validity` selects rows (see [`Validity`]). The all-valid arm is a
    /// fixed-trip loop; the masked arm walks validity words and touches
    /// only set bits. `parts` is the same for every row, so its branches
    /// predict perfectly.
    #[inline]
    pub fn fold_ints(
        cells: &mut [KernelCell],
        stride: usize,
        at: usize,
        slots: &[u32],
        vals: &[i64],
        validity: Validity<'_>,
        parts: Parts,
    ) {
        match validity {
            Validity::All => {
                for (&s, &v) in slots.iter().zip(vals) {
                    cells[s as usize * stride + at].fold_int(v, parts);
                }
            }
            Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                cells[slots[j] as usize * stride + at].fold_int(vals[j], parts);
            }),
        }
    }

    /// The `f64` twin of [`KernelCell::fold_ints`]; extrema follow
    /// `total_cmp` to match the row path's `Value` ordering exactly.
    #[inline]
    pub fn fold_floats(
        cells: &mut [KernelCell],
        stride: usize,
        at: usize,
        slots: &[u32],
        vals: &[f64],
        validity: Validity<'_>,
        parts: Parts,
    ) {
        match validity {
            Validity::All => {
                for (&s, &v) in slots.iter().zip(vals) {
                    cells[s as usize * stride + at].fold_float(v, parts);
                }
            }
            Validity::Words(words) => for_each_valid(words, slots.len(), |j| {
                cells[slots[j] as usize * stride + at].fold_float(vals[j], parts);
            }),
        }
    }

    /// The paper's Iter_super: fold `src` into this cell. Sums add even
    /// from an empty `src`, as the row path's accumulators' `merge` does;
    /// an extremum moves only to a strictly better one.
    #[inline]
    pub fn merge(&mut self, src: &KernelCell) {
        if src.n > 0 {
            if self.n == 0 || src.min < self.min {
                self.min = src.min;
            }
            if self.n == 0 || src.max > self.max {
                self.max = src.max;
            }
        }
        self.n += src.n;
        self.sum += src.sum;
        self.fsum += src.fsum;
    }

    /// Whether deleting a value of extremum key `key` leaves the extrema
    /// `parts` keeps standing. A value at an extremum is its champion, or
    /// ties with it: §6's "max is ... holistic for DELETE".
    fn keeps_extrema(&self, key: i64, parts: Parts) -> bool {
        let min = !parts.min || key > self.min;
        let max = !parts.max || key < self.max;
        self.n > 0 && min && max
    }

    /// §6 DELETE of one present `i64` value: the inverse of folding it in.
    /// `false` when the cell cannot answer without its base rows — the
    /// value is a kept extremum, or the cell is empty.
    pub fn retract_int(&mut self, v: i64, parts: Parts) -> bool {
        if (parts.min || parts.max) && !self.keeps_extrema(v, parts) {
            return false;
        }
        if parts.int_sum {
            self.sum -= v as i128;
        }
        self.n -= 1;
        true
    }

    /// The `f64` twin of [`KernelCell::retract_int`]. A float sum is
    /// delete-holistic: floating-point subtraction is no inverse of
    /// addition (`1e20 + 1.0 - 1e20` is `0.0`), so the cell is recomputed.
    pub fn retract_float(&mut self, v: f64, parts: Parts) -> bool {
        let key = total_key(v.to_bits() as i64);
        if parts.float_sum || ((parts.min || parts.max) && !self.keeps_extrema(key, parts)) {
            return false;
        }
        self.n -= 1;
        true
    }
}

impl Kernel {
    /// Final() straight from the column's cell — byte-for-byte what the
    /// row-path accumulator's `final_value` would return after the same
    /// inputs, so materialization never builds one. `float` is the
    /// column's type. (SUM over a pure `Float` column matches `SumAcc`:
    /// its integer sum stays 0, so the float total alone is the answer.)
    /// An integer SUM outside `i64` is NULL, the evaluator's rule for
    /// arithmetic without an answer.
    pub fn final_value(self, cell: &KernelCell, float: bool) -> Value {
        if cell.n == 0 && !matches!(self, Kernel::Count | Kernel::CountStar) {
            return Value::Null; // SQL: the empty set folds to NULL
        }
        let extremum = |key: i64| match float {
            true => Value::Float(f64::from_bits(total_key(key) as u64)),
            false => Value::Int(key),
        };
        match self {
            Kernel::Count | Kernel::CountStar => Value::Int(cell.n),
            Kernel::Sum if float => Value::Float(cell.fsum),
            Kernel::Sum => i64::try_from(cell.sum).map_or(Value::Null, Value::Int),
            Kernel::Min => extremum(cell.min),
            Kernel::Max => extremum(cell.max),
            Kernel::Avg if float => Value::Float(cell.fsum / cell.n as f64),
            // The exact sum rounds once, so the mean does not depend on
            // the order rows were folded or retracted in.
            Kernel::Avg => Value::Float(cell.sum as f64 / cell.n as f64),
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

    const ALL_KERNELS: [Kernel; 6] = [
        Kernel::Count,
        Kernel::CountStar,
        Kernel::Sum,
        Kernel::Min,
        Kernel::Max,
        Kernel::Avg,
    ];

    /// Every part a select list can ask of one column.
    fn every_part(float: bool) -> Parts {
        ALL_KERNELS
            .iter()
            .fold(Parts::default(), |p, &k| p.with(Parts::of(k, float)))
    }

    /// One group's cell over an `i64` column, every row valid.
    fn ints(vals: &[i64], parts: Parts) -> KernelCell {
        let mut cell = [KernelCell::default()];
        let slots = vec![0u32; vals.len()];
        KernelCell::fold_ints(&mut cell, 1, 0, &slots, vals, Validity::All, parts);
        cell[0]
    }

    /// One group's cell over an `f64` column, every row valid.
    fn floats(vals: &[f64], parts: Parts) -> KernelCell {
        let mut cell = [KernelCell::default()];
        let slots = vec![0u32; vals.len()];
        KernelCell::fold_floats(&mut cell, 1, 0, &slots, vals, Validity::All, parts);
        cell[0]
    }

    /// Every kernel's Final() over one group's cell against the row path
    /// fed the same values.
    fn check(cell: &KernelCell, vals: &[Value], float: bool) {
        for (name, k) in [
            ("COUNT", Kernel::Count),
            ("SUM", Kernel::Sum),
            ("MIN", Kernel::Min),
            ("MAX", Kernel::Max),
            ("AVG", Kernel::Avg),
        ] {
            let mut want = builtin(name).unwrap().init();
            for v in vals {
                want.iter(v);
            }
            let got = k.final_value(cell, float);
            assert_eq!(got, want.final_value(), "{name} over {vals:?}");
        }
    }

    fn check_i64(vals: &[i64], valid: &[bool]) {
        let mut cell = [KernelCell::default()];
        let (slots, b) = (vec![0u32; vals.len()], bitmap(valid));
        let words = Validity::Words(b.words());
        KernelCell::fold_ints(&mut cell, 1, 0, &slots, vals, words, every_part(false));
        let value = |(&v, &ok): (&i64, &bool)| if ok { Value::Int(v) } else { Value::Null };
        let values: Vec<Value> = vals.iter().zip(valid).map(value).collect();
        check(&cell[0], &values, false);
    }

    fn check_f64(vals: &[f64], valid: &[bool]) {
        let mut cell = [KernelCell::default()];
        let (slots, b) = (vec![0u32; vals.len()], bitmap(valid));
        let words = Validity::Words(b.words());
        KernelCell::fold_floats(&mut cell, 1, 0, &slots, vals, words, every_part(true));
        let value = |(&v, &ok): (&f64, &bool)| if ok { Value::Float(v) } else { Value::Null };
        let values: Vec<Value> = vals.iter().zip(valid).map(value).collect();
        check(&cell[0], &values, true);
    }

    #[test]
    fn kernels_match_row_accumulators_over_f64() {
        let valid = [true, false, true, true, true];
        check_f64(&[1.25, -3.5, 100.0, 0.75, -3.5], &valid);
        check_f64(&[], &[]);
        check_f64(&[0.0, 0.0], &[false, false]);
    }

    #[test]
    fn kernels_match_row_accumulators_over_i64() {
        check_i64(&[5, -3, 12, 7, -3], &[true, true, false, true, true]);
        check_i64(&[], &[]);
        check_i64(&[0, 0], &[false, false]);
    }

    /// The sum is exact: past `i64` it is NULL, and back inside it is the
    /// true value, whatever the order of the adds or a retraction.
    #[test]
    fn an_integer_sum_never_wraps() {
        let parts = Parts::of(Kernel::Sum, false);
        let sum = |vals: &[i64]| Kernel::Sum.final_value(&ints(vals, parts), false);
        assert_eq!(sum(&[i64::MAX, 1]), Value::Null);
        assert_eq!(sum(&[i64::MIN, -1]), Value::Null);
        for order in [[i64::MAX, 1, -1], [1, i64::MAX, -1], [-1, 1, i64::MAX]] {
            assert_eq!(sum(&order), Value::Int(i64::MAX), "{order:?}");
        }
        let mut cell = ints(&[i64::MAX, 1], parts);
        assert!(cell.retract_int(1, parts));
        assert_eq!(Kernel::Sum.final_value(&cell, false), Value::Int(i64::MAX));
    }

    /// An integer mean divides the exact sum once: past 2^53 neither the
    /// fold order nor a retraction moves it, and the boxed `AvgAcc` agrees.
    #[test]
    fn an_integer_mean_is_exact() {
        const BIG: i64 = 1 << 53;
        let parts = Parts::of(Kernel::Avg, false);
        let mut cell = ints(&[BIG, 1, 1], parts);
        assert!(cell.retract_int(1, parts) && cell.retract_int(1, parts));
        assert_eq!(
            Kernel::Avg.final_value(&cell, false),
            Value::Float(BIG as f64)
        );
        let mut acc = builtin("AVG").unwrap().init();
        for v in [BIG, 1, 1] {
            acc.iter(&Value::Int(v));
        }
        for _ in 0..2 {
            acc.retract(&Value::Int(1));
        }
        assert_eq!(acc.final_value(), Value::Float(BIG as f64));
    }

    #[test]
    fn count_star_counts_nulls_too() {
        let mut cells = vec![KernelCell::default()];
        KernelCell::fold_rows(&mut cells, 1, 0, &[0, 0, 0]);
        let mut want = builtin("COUNT(*)").unwrap().init();
        for _ in 0..3 {
            want.iter(&Value::Null);
        }
        assert_eq!(
            Kernel::CountStar.final_value(&cells[0], false),
            want.final_value()
        );
        assert_eq!(want.final_value(), Value::Int(3));
    }

    /// `total_cmp` puts -Inf below -0.0 below 0.0 below NaN, matching
    /// `Value`'s ordering.
    #[test]
    fn float_extrema_use_total_cmp() {
        let parts = Parts::of(Kernel::Min, true).with(Parts::of(Kernel::Max, true));
        let bits =
            |cell: &KernelCell, k: Kernel| k.final_value(cell, true).as_f64().map(f64::to_bits);
        let cell = floats(&[0.0, -0.0, f64::NAN, -f64::INFINITY], parts);
        assert_eq!(bits(&cell, Kernel::Min), Some((-f64::INFINITY).to_bits()));
        assert_eq!(bits(&cell, Kernel::Max), Some(f64::NAN.to_bits()));
        let zeros = floats(&[0.0, -0.0], parts);
        assert_eq!(bits(&zeros, Kernel::Min), Some((-0.0f64).to_bits()));
        assert_eq!(bits(&zeros, Kernel::Max), Some(0.0f64.to_bits()));
    }

    #[test]
    fn merge_is_iter_super() {
        let parts = every_part(false);
        let mut a = ints(&[10, 3], parts);
        a.merge(&ints(&[4, 9], parts));
        assert_eq!(a, ints(&[10, 3, 4, 9], parts));
        let before = a;
        a.merge(&KernelCell::default());
        assert_eq!(a, before);
        let mut empty = KernelCell::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    /// A retraction that would dethrone a kept extremum, or tie it, asks
    /// for a recompute; a float sum always does.
    #[test]
    fn retraction_follows_section_6() {
        let (sum, max) = (Parts::of(Kernel::Sum, false), Parts::of(Kernel::Max, false));
        let parts = sum.with(max);
        let mut cell = ints(&[5, 9, 9], parts);
        assert!(!cell.retract_int(9, parts));
        assert!(cell.retract_int(5, parts));
        assert_eq!((cell.n, cell.sum), (2, 18));
        // Without MAX kept, the champion retracts like any value.
        assert!(cell.retract_int(9, sum));
        let float_sum = Parts::of(Kernel::Sum, true);
        let mut cell = floats(&[1.0, 2.0], float_sum);
        assert!(!cell.retract_float(1.0, float_sum));
        assert!(cell.retract_float(1.0, Parts::of(Kernel::Count, true)));
    }

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
            for float in [false, true] {
                let parts = Parts::of(k, float);
                let fold = |validity| {
                    let mut cells = vec![KernelCell::default(); 5];
                    match float {
                        true => KernelCell::fold_floats(
                            &mut cells, 1, 0, &slots, &vals_f, validity, parts,
                        ),
                        false => KernelCell::fold_ints(
                            &mut cells, 1, 0, &slots, &vals_i, validity, parts,
                        ),
                    }
                    cells
                };
                let words = Validity::Words(all_set.words());
                assert_eq!(fold(Validity::All), fold(words), "{k:?}, float {float}");
            }
        }
    }
}
