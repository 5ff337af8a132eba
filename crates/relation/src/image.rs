//! A table's columnar image: the per-column forms every scan reads,
//! built once per table instead of once per statement.
//!
//! §5 takes Graefe's tip to "keep a hashed symbol table that maps each
//! string to an integer so that the aggregate values are small". A symbol
//! table is a property of the data, so it lives with the data. Per column,
//! on first use:
//!
//! * [`CodeColumn`]: one dictionary code per row, assigned in first-seen
//!   row order by the column's own [`SymbolTable`], `NULL` interned as a
//!   symbol like any other value, and stored in the narrowest of 1, 2 or 4
//!   bytes the dictionary fits ([`Table::codes`]);
//! * [`TypedColumn`]: the column as `i64` or `f64` values plus a validity
//!   bitmap, when every row holds one numeric type or `NULL`
//!   ([`Table::typed`]).
//!
//! Each piece is built at most once and handed out as an `Arc`, so every
//! later statement over the same table shares it. [`Table::warm`] builds
//! whatever a statement needs in one pass over the rows. Clones of a
//! table share its image; every `&mut self` mutator of [`Table`] drops it.
//!
//! [`Table`]: crate::Table
//! [`Table::codes`]: crate::Table::codes
//! [`Table::typed`]: crate::Table::typed
//! [`Table::warm`]: crate::Table::warm

use crate::columnar::{Bitmap, BitmapBuilder};
use crate::dictionary::SymbolTable;
use crate::row::Row;
use crate::value::Value;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Dictionary codes, one per row, in the narrowest width every code so
/// far fits: a column of at most 256 distinct values costs one byte a
/// row.
#[derive(Debug, PartialEq, Eq)]
pub enum Codes {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Codes {
    /// No codes yet, with room for `rows`.
    pub fn with_capacity(rows: usize) -> Codes {
        Codes::U8(Vec::with_capacity(rows))
    }

    /// Append `code`, first widening every code so far if it does not
    /// fit. Dense codes widen at most twice: at the 257th and the
    /// 65 537th distinct value.
    #[inline]
    pub fn push(&mut self, code: u32) {
        match self {
            Codes::U8(v) => match u8::try_from(code) {
                Ok(c) => v.push(c),
                Err(_) => self.widened().push(code),
            },
            Codes::U16(v) => match u16::try_from(code) {
                Ok(c) => v.push(c),
                Err(_) => self.widened().push(code),
            },
            Codes::U32(v) => v.push(code),
        }
    }

    /// These codes one width up (`U32` stays).
    fn widened(&mut self) -> &mut Codes {
        fn up<A: Copy, B: From<A>>(v: &[A], capacity: usize) -> Vec<B> {
            let mut out = Vec::with_capacity(capacity);
            out.extend(v.iter().map(|&c| B::from(c)));
            out
        }
        *self = match self {
            Codes::U8(v) => Codes::U16(up(v, v.capacity())),
            Codes::U16(v) => Codes::U32(up(v, v.capacity())),
            Codes::U32(v) => Codes::U32(std::mem::take(v)),
        };
        self
    }

    pub fn len(&self) -> usize {
        match self {
            Codes::U8(v) => v.len(),
            Codes::U16(v) => v.len(),
            Codes::U32(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`'s code.
    pub fn get(&self, i: usize) -> u32 {
        match self {
            Codes::U8(v) => v[i].into(),
            Codes::U16(v) => v[i].into(),
            Codes::U32(v) => v[i],
        }
    }

    /// Every code, in row order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl FromIterator<u32> for Codes {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Codes {
        let iter = iter.into_iter();
        let mut codes = Codes::with_capacity(iter.size_hint().0);
        iter.for_each(|c| codes.push(c));
        codes
    }
}

/// One column dictionary-encoded: row `i`'s code in `symbols` is
/// `codes.get(i)`. Codes are dense and assigned in first-seen row order,
/// and `NULL` is a symbol, so a column's codes are exactly what interning
/// its rows one by one into a fresh [`SymbolTable`] returns.
#[derive(Debug)]
pub struct CodeColumn {
    pub codes: Codes,
    pub symbols: Arc<SymbolTable>,
}

impl CodeColumn {
    /// Dictionary-encode column `idx` of `rows`.
    pub fn from_rows(rows: &[Row], idx: usize) -> CodeColumn {
        let mut symbols = SymbolTable::new();
        let codes = rows.iter().map(|r| symbols.intern(&r[idx])).collect();
        CodeColumn {
            codes,
            symbols: Arc::new(symbols),
        }
    }

    /// Dictionary-encode column `idx` of `rows` if it has at most `limit`
    /// distinct values: the encoding stops at the first value past them.
    pub(crate) fn from_rows_at_most(rows: &[Row], idx: usize, limit: usize) -> Option<CodeColumn> {
        let mut symbols = SymbolTable::new();
        let mut codes = Codes::with_capacity(rows.len());
        for row in rows {
            codes.push(symbols.intern(&row[idx]));
            if symbols.cardinality() > limit {
                return None;
            }
        }
        Some(CodeColumn {
            codes,
            symbols: Arc::new(symbols),
        })
    }
}

/// A column as primitives: `i64` when every row is `Int` or `NULL`,
/// otherwise `f64` when every row is `Float` or `NULL` (a column of only
/// `NULL`s is `Ints`). A `NULL` row has an invalid bit over a zero filler.
/// These are exactly [`crate::Column::try_ints`] and
/// [`crate::Column::try_floats`]'s answers, tried in that order.
#[derive(Debug, Clone)]
pub enum TypedColumn {
    Ints(Arc<(Vec<i64>, Bitmap)>),
    Floats(Arc<(Vec<f64>, Bitmap)>),
}

impl TypedColumn {
    /// Column `idx` of `rows` as primitives, if it has a numeric type.
    pub fn from_rows(rows: &[Row], idx: usize) -> Option<TypedColumn> {
        TypedBuild::Nulls(0).over(rows, idx).finish()
    }
}

/// Column `idx` of `rows` as `i64`s, if every row is `Int` or `NULL`
/// ([`crate::Column::try_ints`]).
pub(crate) fn ints(rows: &[Row], idx: usize) -> Option<(Vec<i64>, Bitmap)> {
    match TypedBuild::Ints(Filled::nulls(0, rows.len())).over(rows, idx) {
        TypedBuild::Ints(col) => Some(col.parts()),
        TypedBuild::Nulls(_) | TypedBuild::Floats(_) | TypedBuild::Neither => None,
    }
}

/// Column `idx` of `rows` as `f64`s, if every row is `Float` or `NULL`
/// ([`crate::Column::try_floats`]).
pub(crate) fn floats(rows: &[Row], idx: usize) -> Option<(Vec<f64>, Bitmap)> {
    match TypedBuild::Floats(Filled::nulls(0, rows.len())).over(rows, idx) {
        TypedBuild::Floats(col) => Some(col.parts()),
        TypedBuild::Nulls(_) | TypedBuild::Ints(_) | TypedBuild::Neither => None,
    }
}

/// Values and validity bits under construction.
struct Filled<T> {
    vals: Vec<T>,
    valid: BitmapBuilder,
}

impl<T: Copy + Default> Filled<T> {
    /// `n` leading `NULL`s, with room for `capacity` rows.
    fn nulls(n: usize, capacity: usize) -> Self {
        let mut filled = Filled {
            vals: Vec::with_capacity(capacity),
            valid: BitmapBuilder::with_capacity(capacity),
        };
        for _ in 0..n {
            filled.push(T::default(), false);
        }
        filled
    }

    #[inline]
    fn push(&mut self, v: T, valid: bool) {
        self.vals.push(v);
        self.valid.append(valid);
    }

    fn parts(self) -> (Vec<T>, Bitmap) {
        (self.vals, self.valid.finish())
    }

    fn finish(self) -> Arc<(Vec<T>, Bitmap)> {
        Arc::new(self.parts())
    }
}

/// A [`TypedColumn`] one row at a time: the type is the first non-`NULL`
/// value's, and a value of any other type ends the attempt.
enum TypedBuild {
    /// Only `NULL`s so far, this many.
    Nulls(usize),
    Ints(Filled<i64>),
    Floats(Filled<f64>),
    /// A value no typed column holds: the column has no typed form.
    Neither,
}

impl TypedBuild {
    /// This build fed column `idx` of `rows`, up to the first value that
    /// ends it.
    fn over(mut self, rows: &[Row], idx: usize) -> TypedBuild {
        for row in rows {
            self.push(&row[idx], rows.len());
            if matches!(self, TypedBuild::Neither) {
                break;
            }
        }
        self
    }

    #[inline]
    fn push(&mut self, v: &Value, capacity: usize) {
        match self {
            TypedBuild::Nulls(n) => {
                let n = *n;
                *self = match v {
                    Value::Null => TypedBuild::Nulls(n + 1),
                    Value::Int(_) => TypedBuild::Ints(Filled::nulls(n, capacity)),
                    Value::Float(_) => TypedBuild::Floats(Filled::nulls(n, capacity)),
                    Value::All | Value::Bool(_) | Value::Str(_) | Value::Date(_) => {
                        TypedBuild::Neither
                    }
                };
                if !v.is_null() {
                    self.push(v, capacity);
                }
            }
            TypedBuild::Ints(col) => match v {
                Value::Int(i) => col.push(*i, true),
                Value::Null => col.push(0, false),
                Value::All | Value::Bool(_) | Value::Float(_) | Value::Str(_) | Value::Date(_) => {
                    *self = TypedBuild::Neither
                }
            },
            TypedBuild::Floats(col) => match v {
                Value::Float(f) => col.push(*f, true),
                Value::Null => col.push(0.0, false),
                Value::All | Value::Bool(_) | Value::Int(_) | Value::Str(_) | Value::Date(_) => {
                    *self = TypedBuild::Neither
                }
            },
            TypedBuild::Neither => {}
        }
    }

    fn finish(self) -> Option<TypedColumn> {
        match self {
            TypedBuild::Nulls(n) => Some(TypedColumn::Ints(Filled::nulls(n, n).finish())),
            TypedBuild::Ints(col) => Some(TypedColumn::Ints(col.finish())),
            TypedBuild::Floats(col) => Some(TypedColumn::Floats(col.finish())),
            TypedBuild::Neither => None,
        }
    }
}

/// One column's image: each form built at most once.
#[derive(Default)]
struct Slot {
    codes: OnceLock<Arc<CodeColumn>>,
    typed: OnceLock<Option<TypedColumn>>,
}

/// The image of one table: a slot per schema column.
pub(crate) struct Image {
    slots: Vec<Slot>,
    /// Held by a multi-column build, so two statements that both find a
    /// column missing build it once.
    building: Mutex<()>,
}

impl Image {
    pub(crate) fn new(columns: usize) -> Image {
        Image {
            slots: (0..columns).map(|_| Slot::default()).collect(),
            building: Mutex::new(()),
        }
    }

    /// Column `idx`'s codes, encoded from `rows` if missing.
    pub(crate) fn codes(&self, rows: &[Row], idx: usize) -> Arc<CodeColumn> {
        let slot = &self.slots[idx];
        Arc::clone(
            slot.codes
                .get_or_init(|| Arc::new(CodeColumn::from_rows(rows, idx))),
        )
    }

    /// Column `idx`'s codes if it has at most `limit` distinct values,
    /// encoded from `rows` if missing; an encoding that finds more stops
    /// there and leaves the slot empty.
    pub(crate) fn codes_at_most(
        &self,
        rows: &[Row],
        idx: usize,
        limit: usize,
    ) -> Option<Arc<CodeColumn>> {
        let slot = &self.slots[idx];
        if let Some(built) = slot.codes.get() {
            return (built.symbols.cardinality() <= limit).then(|| Arc::clone(built));
        }
        let column = CodeColumn::from_rows_at_most(rows, idx, limit)?;
        Some(Arc::clone(slot.codes.get_or_init(|| Arc::new(column))))
    }

    /// Column `idx`'s typed form, extracted from `rows` if missing.
    pub(crate) fn typed(&self, rows: &[Row], idx: usize) -> Option<TypedColumn> {
        let slot = &self.slots[idx];
        slot.typed
            .get_or_init(|| TypedColumn::from_rows(rows, idx))
            .clone()
    }

    /// The columns of `codes` and of `typed` whose forms are missing,
    /// each once.
    fn missing(&self, codes: &[usize], typed: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let (mut no_codes, mut no_typed) = (Vec::new(), Vec::new());
        for &c in codes {
            if self.slots[c].codes.get().is_none() && !no_codes.contains(&c) {
                no_codes.push(c);
            }
        }
        for &c in typed {
            if self.slots[c].typed.get().is_none() && !no_typed.contains(&c) {
                no_typed.push(c);
            }
        }
        (no_codes, no_typed)
    }

    /// Build every missing form of `codes` and `typed` in one pass over
    /// `rows`.
    pub(crate) fn warm(&self, rows: &[Row], codes: &[usize], typed: &[usize]) {
        let (codes, typed) = self.missing(codes, typed);
        if codes.is_empty() && typed.is_empty() {
            return;
        }
        let _building = self.building.lock().unwrap_or_else(PoisonError::into_inner);
        // Another statement may have built them while this one waited.
        let (codes, typed) = self.missing(&codes, &typed);
        let mut dicts: Vec<(SymbolTable, Codes)> = codes
            .iter()
            .map(|_| (SymbolTable::new(), Codes::with_capacity(rows.len())))
            .collect();
        let mut builds: Vec<TypedBuild> = typed.iter().map(|_| TypedBuild::Nulls(0)).collect();
        for row in rows {
            for (&c, (symbols, out)) in codes.iter().zip(&mut dicts) {
                out.push(symbols.intern(&row[c]));
            }
            for (&c, build) in typed.iter().zip(&mut builds) {
                build.push(&row[c], rows.len());
            }
        }
        // A `set` fails only where a single-column read filled the cell
        // meanwhile, with the same forms.
        for (&c, (symbols, codes)) in codes.iter().zip(dicts) {
            let symbols = Arc::new(symbols);
            let _ = self.slots[c]
                .codes
                .set(Arc::new(CodeColumn { codes, symbols }));
        }
        for (&c, build) in typed.iter().zip(builds) {
            let _ = self.slots[c].typed.set(build.finish());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::Column;
    use crate::schema::{DataType, Schema};
    use crate::table::Table;
    use proptest::prelude::*;

    /// Column 0 mixes `Int(5)` and `Float(5.0)` (one symbol), other
    /// numbers and `NULL`; column 1 is `Str` or `NULL`; column 2 is `Int`
    /// or `NULL`; column 3 is `Float` or `NULL`.
    fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
        let row = (0usize..6, 0usize..4, 0i64..40, 0usize..4).prop_map(|(a, b, n, f)| {
            let a = [
                Value::Null,
                Value::Int(5),
                Value::Float(5.0),
                Value::Int(-3),
                Value::Float(2.5),
                Value::Int(1 << 40),
            ][a]
                .clone();
            let b = match b {
                0 => Value::Null,
                b => Value::str(format!("s{b}")),
            };
            let n = if n % 7 == 0 {
                Value::Null
            } else {
                Value::Int(n)
            };
            let f = if f == 0 {
                Value::Null
            } else {
                Value::Float(f as f64 / 4.0)
            };
            Row::new(vec![a, b, n, f])
        });
        proptest::collection::vec(row, 0..150)
    }

    fn table(rows: Vec<Row>) -> Table {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Float),
            ("b", DataType::Str),
            ("n", DataType::Int),
            ("f", DataType::Float),
        ]);
        Table::from_validated_rows(schema, rows)
    }

    fn same_typed(a: Option<TypedColumn>, b: Option<TypedColumn>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(TypedColumn::Ints(a)), Some(TypedColumn::Ints(b))) => a == b,
            (Some(TypedColumn::Floats(a)), Some(TypedColumn::Floats(b))) => {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                bits(&a.0) == bits(&b.0) && a.1 == b.1
            }
            (Some(TypedColumn::Ints(_) | TypedColumn::Floats(_)), _) | (None, Some(_)) => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One warm pass over several columns builds exactly the forms a
        /// column-by-column build does: the per-statement intern's codes
        /// and `Column::try_ints` / `try_floats`' vectors.
        #[test]
        fn one_pass_equals_column_by_column(rows in arb_rows()) {
            let t = table(rows);
            t.warm(&[0, 1, 3, 1], &[0, 1, 2, 3]);
            for c in 0..4 {
                let (warm, alone) = (t.codes(c), CodeColumn::from_rows(t.rows(), c));
                prop_assert_eq!(&warm.codes, &alone.codes);
                prop_assert_eq!(warm.symbols.values(), alone.symbols.values());
                let mut symbols = SymbolTable::new();
                let interned: Vec<u32> = t.rows().iter().map(|r| symbols.intern(&r[c])).collect();
                prop_assert_eq!(warm.codes.iter().collect::<Vec<u32>>(), interned);

                let extracted = Column::try_ints(t.rows(), c)
                    .map(|i| TypedColumn::Ints(Arc::new(i)))
                    .or_else(|| Column::try_floats(t.rows(), c).map(|f| TypedColumn::Floats(Arc::new(f))));
                prop_assert!(same_typed(t.typed(c), extracted.clone()), "column {}", c);
                prop_assert!(same_typed(TypedColumn::from_rows(t.rows(), c), extracted));
            }
        }
    }

    #[test]
    fn int_five_and_float_five_share_a_code_and_null_is_a_symbol() {
        let t = table(vec![
            Row::new(vec![
                Value::Float(5.0),
                Value::Null,
                Value::Null,
                Value::Null,
            ]),
            Row::new(vec![Value::Null, Value::Null, Value::Int(1), Value::Null]),
            Row::new(vec![
                Value::Int(5),
                Value::str("x"),
                Value::Null,
                Value::Null,
            ]),
        ]);
        let a = t.codes(0);
        assert_eq!(a.codes, Codes::U8(vec![0, 1, 0]));
        assert_eq!(a.symbols.cardinality(), 2);
        assert_eq!(t.codes(1).codes, Codes::U8(vec![0, 0, 1]));
        // A column of NULLs only is an all-invalid `Ints` column.
        let Some(TypedColumn::Ints(nulls)) = t.typed(3) else {
            panic!("NULL-only column is Ints");
        };
        assert_eq!((nulls.0.clone(), nulls.1.count_valid()), (vec![0; 3], 0));
        assert!(t.typed(0).is_none(), "Int and Float mixed");
        assert!(t.typed(1).is_none(), "strings");
    }

    #[test]
    fn a_capped_encoding_keeps_nothing_past_its_limit() {
        let rows: Vec<Row> = [1, 2, 1, 3, 2]
            .map(|v| Row::new(vec![Value::Int(v)]))
            .to_vec();
        let t = Table::from_validated_rows(Schema::from_pairs(&[("v", DataType::Int)]), rows);
        assert!(t.codes_at_most(0, 2).is_none(), "three values");
        let fits = t.codes_at_most(0, 3).expect("three values fit three");
        assert_eq!(fits.codes, Codes::U8(vec![0, 1, 0, 2, 1]));
        assert!(Arc::ptr_eq(&fits, &t.codes(0)), "kept in the image");
        assert!(
            t.codes_at_most(0, 2).is_none(),
            "a built column is judged too"
        );
        assert_eq!(
            CodeColumn::from_rows_at_most(t.rows(), 0, 3).map(|c| c.codes),
            Some(CodeColumn::from_rows(t.rows(), 0).codes)
        );
    }

    #[test]
    fn codes_take_the_narrowest_width_and_widen_in_place() {
        let mut codes = Codes::with_capacity(4);
        codes.push(255);
        assert!(matches!(codes, Codes::U8(_)));
        codes.push(256);
        assert_eq!(codes, Codes::U16(vec![255, 256]));
        codes.push(70_000);
        assert_eq!(codes, Codes::U32(vec![255, 256, 70_000]));
        assert_eq!(codes.iter().collect::<Vec<_>>(), [255, 256, 70_000]);
        let rows: Vec<Row> = (0..300)
            .map(|i| Row::new(vec![Value::Int(i % 257)]))
            .collect();
        let column = CodeColumn::from_rows(&rows, 0);
        assert!(matches!(column.codes, Codes::U16(_)));
        assert_eq!(column.codes.get(299), 42);
    }

    #[test]
    fn clones_share_the_image_and_mutators_drop_it() {
        let mut t = table(vec![
            Row::new(vec![Value::Int(2), Value::Null, Value::Int(7), Value::Null]),
            Row::new(vec![Value::Int(1), Value::Null, Value::Int(8), Value::Null]),
        ]);
        let before = t.codes(0);
        assert!(Arc::ptr_eq(&before, &t.codes(0)), "built once");
        let copy = t.clone();
        assert!(Arc::ptr_eq(&before, &copy.codes(0)), "shared by a clone");
        assert_eq!(copy, t, "equality ignores the image");

        t.push(Row::new(vec![
            Value::Int(3),
            Value::Null,
            Value::Null,
            Value::Null,
        ]))
        .unwrap();
        assert_eq!(t.codes(0).codes, Codes::U8(vec![0, 1, 2]), "push drops it");
        let Some(TypedColumn::Ints(n)) = t.typed(2) else {
            panic!("n is Int");
        };
        assert_eq!(n.0, vec![7, 8, 0]);

        t.sort_by_indices(&[0]);
        assert_eq!(t.codes(0).codes, Codes::U8(vec![0, 1, 2]), "sort drops it");
        let Some(TypedColumn::Ints(n)) = t.typed(2) else {
            panic!("n is Int");
        };
        assert_eq!(n.0, vec![8, 7, 0], "re-extracted in sorted order");

        t.push_unchecked(Row::new(vec![
            Value::Int(1),
            Value::Null,
            Value::Null,
            Value::Null,
        ]));
        assert_eq!(
            t.codes(0).codes,
            Codes::U8(vec![0, 1, 2, 0]),
            "push_unchecked drops it"
        );
        // The clone kept the old image.
        assert!(Arc::ptr_eq(&before, &copy.codes(0)));
    }
}
