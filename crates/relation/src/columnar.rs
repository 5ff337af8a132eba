//! Typed column vectors with validity bitmaps.
//!
//! The paper's §5 discussion of dense cross-tab arrays assumes the data can
//! be touched as typed arrays rather than polymorphic records; modern OLAP
//! engines make the same move by storing each column as a primitive vector
//! plus a validity bitmap. [`Column`] is that representation for one
//! column of rows: an `i64` / `f64` vector, or dictionary codes into a
//! [`SymbolTable`] (Graefe's hashed symbol table, §5) for everything else.
//! A table's own columnar image, which the engine scans, is
//! [`crate::image`].
//!
//! Layout per column (row `i`):
//!
//! ```text
//!   data:     [ v0 | v1 | v2 | ... ]      Vec<i64> | Vec<f64> | Vec<u32>
//!   validity: [ 1  | 0  | 1  | ... ]      1 bit per row, packed in u64 words
//! ```
//!
//! An invalid bit means the row's value is SQL `NULL`; the data slot holds a
//! zero filler that kernels must not read. The aggregation kernels in
//! `dc-aggregate` consume these slices directly, which is what turns the
//! per-row `Value` match into a tight loop over primitives.

use crate::dictionary::SymbolTable;
use crate::row::Row;
use crate::schema::DataType;
use crate::value::Value;

/// A packed validity bitmap: one bit per row, `true` = value present.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new() -> Self {
        Bitmap::default()
    }

    pub fn with_capacity(rows: usize) -> Self {
        Bitmap {
            words: Vec::with_capacity(rows.div_ceil(64)),
            len: 0,
        }
    }

    /// Append one bit.
    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit at row `i` (panics past the end, like slice indexing).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of valid (set) bits.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every row is valid — kernels use this to skip the
    /// per-row bitmap probe entirely.
    pub fn all_valid(&self) -> bool {
        self.count_valid() == self.len
    }

    /// Construct directly from packed words. Bits at positions `>= len`
    /// in the last word must be zero — kernels rely on that to process
    /// whole words without a tail mask.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        debug_assert!(words.len() == len.div_ceil(64));
        debug_assert!(len.is_multiple_of(64) || words.last().is_none_or(|w| w >> (len % 64) == 0));
        Bitmap { words, len }
    }

    /// The packed `u64` words. One bit per row, LSB-first within each
    /// word; bits past `len` in the final word are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Word-at-a-time [`Bitmap`] construction: bits accumulate in a register
/// and spill to the word vector every 64 appends, so building a bitmap
/// costs one shift/or per row instead of an indexed read-modify-write.
#[derive(Debug, Default)]
pub struct BitmapBuilder {
    words: Vec<u64>,
    cur: u64,
    len: usize,
}

impl BitmapBuilder {
    pub fn with_capacity(rows: usize) -> Self {
        BitmapBuilder {
            words: Vec::with_capacity(rows.div_ceil(64)),
            cur: 0,
            len: 0,
        }
    }

    /// Append one bit (branch-free except for the per-64 word spill).
    #[inline]
    pub fn append(&mut self, valid: bool) {
        self.cur |= (valid as u64) << (self.len & 63);
        self.len += 1;
        if self.len & 63 == 0 {
            self.words.push(self.cur);
            self.cur = 0;
        }
    }

    pub fn finish(mut self) -> Bitmap {
        if self.len & 63 != 0 {
            self.words.push(self.cur);
        }
        Bitmap {
            words: self.words,
            len: self.len,
        }
    }
}

/// The typed vector behind one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `i64` values (from [`Value::Int`]).
    Int(Vec<i64>),
    /// `f64` values (from [`Value::Float`]).
    Float(Vec<f64>),
    /// Dictionary codes into `dict` (any value type; strings in practice).
    Dict { codes: Vec<u32>, dict: SymbolTable },
}

/// One column: typed data plus its validity bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    pub data: ColumnData,
    pub validity: Bitmap,
}

impl Column {
    /// Extract column `idx` as an `i64` vector and its validity. Returns
    /// `None` if any row holds something other than `Int` or `NULL` — the
    /// caller then falls back to a dictionary column or the row path.
    pub fn try_ints(rows: &[Row], idx: usize) -> Option<(Vec<i64>, Bitmap)> {
        crate::image::ints(rows, idx)
    }

    /// Extract column `idx` as an `f64` vector (`Float` or `NULL` rows
    /// only), mirroring [`Column::try_ints`].
    pub fn try_floats(rows: &[Row], idx: usize) -> Option<(Vec<f64>, Bitmap)> {
        crate::image::floats(rows, idx)
    }

    /// Dictionary-encode column `idx`: every non-`NULL` value is interned
    /// into a [`SymbolTable`] (first-seen dense codes), `NULL` rows get an
    /// invalid bit with a zero code filler. Never fails — this is the
    /// universal fallback representation.
    pub fn dict(rows: &[Row], idx: usize) -> Column {
        let mut dict = SymbolTable::new();
        let mut codes = Vec::with_capacity(rows.len());
        let mut validity = BitmapBuilder::with_capacity(rows.len());
        for row in rows {
            let v = &row[idx];
            if v.is_null() {
                codes.push(0);
                validity.append(false);
            } else {
                codes.push(dict.intern(v));
                validity.append(true);
            }
        }
        Column {
            data: ColumnData::Dict { codes, dict },
            validity: validity.finish(),
        }
    }

    /// Build the best representation for a column of declared `dtype`:
    /// primitive vectors for `Int` / `Float`, dictionary codes otherwise
    /// (including `Int`/`Float` columns that turn out to hold `ALL` tokens,
    /// which only appear in cube interiors).
    pub fn from_rows(rows: &[Row], idx: usize, dtype: DataType) -> Column {
        let typed = match dtype {
            DataType::Int => Column::try_ints(rows, idx).map(|(v, b)| (ColumnData::Int(v), b)),
            DataType::Float => {
                Column::try_floats(rows, idx).map(|(v, b)| (ColumnData::Float(v), b))
            }
            _ => None,
        };
        match typed {
            Some((data, validity)) => Column { data, validity },
            None => Column::dict(rows, idx),
        }
    }

    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// The column's validity bits as packed `u64` words — the shared
    /// representation consumed by kernel selection masks.
    #[inline]
    pub fn validity_words(&self) -> &[u64] {
        self.validity.words()
    }

    /// Rehydrate row `i` back into a [`Value`] (tests and fallbacks only —
    /// hot paths read the typed vectors directly).
    pub fn value(&self, i: usize) -> Value {
        if !self.validity.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            #[expect(
                clippy::expect_used,
                reason = "codes were interned by this column's own dictionary"
            )]
            ColumnData::Dict { codes, dict } => dict
                .decode(codes[i])
                .expect("dictionary code out of range")
                .clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;
    use crate::table::Table;

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("price", DataType::Float),
        ]);
        let mut t = Table::new(
            schema,
            vec![row!["Chevy", 1994, 10.5], row!["Ford", 1995, 20.25]],
        )
        .unwrap();
        t.push(Row::new(vec![Value::Null, Value::Null, Value::Null]))
            .unwrap();
        t.push(row!["Chevy", 1995, 30.0]).unwrap();
        t
    }

    /// Every column of `t` in the representation its declared type picks.
    fn columns(t: &Table) -> Vec<Column> {
        let cols = t.schema().columns().iter().enumerate();
        cols.map(|(i, c)| Column::from_rows(t.rows(), i, c.dtype))
            .collect()
    }

    #[test]
    fn bitmap_packs_bits() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
        assert!(!b.all_valid());
    }

    #[test]
    fn from_table_picks_typed_columns() {
        let cols = columns(&sales());
        assert!(cols.iter().all(|c| c.len() == 4));
        assert!(matches!(cols[0].data, ColumnData::Dict { .. }));
        assert!(matches!(cols[1].data, ColumnData::Int(_)));
        assert!(matches!(cols[2].data, ColumnData::Float(_)));
    }

    #[test]
    fn nulls_become_invalid_bits() {
        let cols = columns(&sales());
        for col in &cols {
            assert_eq!(col.len(), 4);
            assert!(col.validity.get(0));
            assert!(!col.validity.get(2), "NULL row must be invalid");
            assert!(col.validity.get(3));
        }
        let ColumnData::Int(years) = &cols[1].data else {
            panic!("year should be Int")
        };
        assert_eq!(years[2], 0, "NULL slot holds the zero filler");
    }

    #[test]
    fn values_round_trip() {
        let t = sales();
        let cols = columns(&t);
        for (i, row) in t.rows().iter().enumerate() {
            for (j, col) in cols.iter().enumerate() {
                assert_eq!(col.value(i), row[j], "row {i} col {j}");
            }
        }
    }

    #[test]
    fn dict_reuses_codes_for_repeats() {
        let t = sales();
        let col = Column::dict(t.rows(), 0);
        let ColumnData::Dict { codes, dict } = &col.data else {
            panic!()
        };
        assert_eq!(dict.cardinality(), 2);
        assert_eq!(codes[0], codes[3], "both Chevy rows share one code");
    }

    #[test]
    fn bitmap_builder_matches_push() {
        for n in [0usize, 1, 63, 64, 65, 130, 256] {
            let mut pushed = Bitmap::new();
            let mut built = BitmapBuilder::with_capacity(n);
            for i in 0..n {
                let bit = i % 5 != 2;
                pushed.push(bit);
                built.append(bit);
            }
            let built = built.finish();
            assert_eq!(built, pushed, "n = {n}");
            assert_eq!(built.words().len(), n.div_ceil(64));
        }
    }

    #[test]
    fn bitmap_from_words_round_trips() {
        let mut b = BitmapBuilder::with_capacity(70);
        for i in 0..70 {
            b.append(i % 2 == 0);
        }
        let b = b.finish();
        let again = Bitmap::from_words(b.words().to_vec(), b.len());
        assert_eq!(again, b);
    }

    #[test]
    fn validity_words_expose_packed_bits() {
        let cols = columns(&sales());
        let words = cols[1].validity_words();
        assert_eq!(words.len(), 1);
        assert_eq!(words[0], 0b1011, "row 2 is the NULL row");
    }

    #[test]
    fn mixed_int_column_falls_back_to_dict() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let t = Table::new(schema, vec![row![1], row![2]]).unwrap();
        assert!(Column::try_floats(t.rows(), 0).is_none());
        // ALL tokens (cube interiors) are not Int rows; from_rows falls back.
        let rows = vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::All])];
        assert!(Column::try_ints(&rows, 0).is_none());
        let col = Column::from_rows(&rows, 0, DataType::Int);
        assert!(matches!(col.data, ColumnData::Dict { .. }));
        assert_eq!(col.value(1), Value::All);
    }
}
