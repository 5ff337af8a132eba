//! Columnar batches: typed column vectors with validity bitmaps.
//!
//! The paper's §5 discussion of dense cross-tab arrays assumes the data can
//! be touched as typed arrays rather than polymorphic records; modern OLAP
//! engines make the same move by storing each column as a primitive vector
//! plus a validity bitmap. [`ColumnarBatch`] is that representation for a
//! [`Table`]: `i64` / `f64` measure vectors and dictionary-code `u32`
//! vectors for everything else, reusing [`SymbolTable`] (Graefe's hashed
//! symbol table, §5) for the dictionary.
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
use crate::table::Table;
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
        let mut vals = Vec::with_capacity(rows.len());
        let mut validity = BitmapBuilder::with_capacity(rows.len());
        for row in rows {
            match &row[idx] {
                Value::Int(i) => {
                    vals.push(*i);
                    validity.append(true);
                }
                Value::Null => {
                    vals.push(0);
                    validity.append(false);
                }
                Value::All | Value::Bool(_) | Value::Float(_) | Value::Str(_) | Value::Date(_) => {
                    return None
                }
            }
        }
        Some((vals, validity.finish()))
    }

    /// Extract column `idx` as an `f64` vector (`Float` or `NULL` rows
    /// only), mirroring [`Column::try_ints`].
    pub fn try_floats(rows: &[Row], idx: usize) -> Option<(Vec<f64>, Bitmap)> {
        let mut vals = Vec::with_capacity(rows.len());
        let mut validity = BitmapBuilder::with_capacity(rows.len());
        for row in rows {
            match &row[idx] {
                Value::Float(f) => {
                    vals.push(*f);
                    validity.append(true);
                }
                Value::Null => {
                    vals.push(0.0);
                    validity.append(false);
                }
                Value::All | Value::Bool(_) | Value::Int(_) | Value::Str(_) | Value::Date(_) => {
                    return None
                }
            }
        }
        Some((vals, validity.finish()))
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

    /// Build a run-length index over this column, or `None` when the
    /// column does not compress (see [`RleIndex::is_beneficial`]).
    /// Sorted and low-cardinality columns are where runs actually form;
    /// random high-cardinality data degenerates to one run per row and
    /// is rejected.
    pub fn rle_index(&self) -> Option<RleIndex> {
        let idx = match &self.data {
            ColumnData::Int(v) => RleIndex::from_i64(v, &self.validity),
            ColumnData::Float(v) => RleIndex::from_f64(v, &self.validity),
            ColumnData::Dict { codes, .. } => RleIndex::from_codes(codes, &self.validity),
        };
        idx.is_beneficial().then_some(idx)
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
            ColumnData::Dict { codes, dict } => dict
                .decode(codes[i])
                // cube-lint: allow(panic, codes were interned by this column's own dictionary)
                .expect("dictionary code out of range")
                .clone(),
        }
    }
}

/// A run-length index over a column: `run_ends[i]` is the exclusive end
/// row of run `i`, so run `i` covers rows `run_ends[i-1] .. run_ends[i]`
/// (run 0 starts at row 0). Within one run every row has the same
/// validity bit and — when valid — the same value, which is what lets
/// kernels aggregate a whole run as `n × value` instead of row by row
/// (the §5 dense-array insight applied to storage).
///
/// Row offsets are `u32`: columnar batches are capped well below
/// `u32::MAX` rows by the builders, which assert it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleIndex {
    run_ends: Vec<u32>,
    len: usize,
}

impl RleIndex {
    fn from_eq(len: usize, validity: &Bitmap, same: impl Fn(usize, usize) -> bool) -> RleIndex {
        assert!(len < u32::MAX as usize, "RLE index caps rows at u32");
        assert_eq!(validity.len(), len);
        let mut run_ends = Vec::new();
        if validity.all_valid() {
            // No NULLs: a run breaks only on value change, so skip the two
            // per-row validity probes — they dominate the build otherwise.
            for i in 1..len {
                if !same(i - 1, i) {
                    run_ends.push(i as u32);
                }
            }
        } else {
            for i in 1..len {
                let (va, vb) = (validity.get(i - 1), validity.get(i));
                let boundary = va != vb || (va && !same(i - 1, i));
                if boundary {
                    run_ends.push(i as u32);
                }
            }
        }
        if len > 0 {
            run_ends.push(len as u32);
        }
        RleIndex { run_ends, len }
    }

    pub fn from_i64(vals: &[i64], validity: &Bitmap) -> RleIndex {
        RleIndex::from_eq(vals.len(), validity, |a, b| vals[a] == vals[b])
    }

    /// Floats compare by bit pattern: NaN extends a NaN run (any payload
    /// difference breaks it), and `-0.0` / `0.0` conservatively split.
    pub fn from_f64(vals: &[f64], validity: &Bitmap) -> RleIndex {
        RleIndex::from_eq(vals.len(), validity, |a, b| {
            vals[a].to_bits() == vals[b].to_bits()
        })
    }

    pub fn from_codes(codes: &[u32], validity: &Bitmap) -> RleIndex {
        RleIndex::from_eq(codes.len(), validity, |a, b| codes[a] == codes[b])
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn n_runs(&self) -> usize {
        self.run_ends.len()
    }

    /// Mean rows per run — the compression ratio kernels care about.
    pub fn avg_run_len(&self) -> f64 {
        if self.run_ends.is_empty() {
            return 0.0;
        }
        self.len as f64 / self.run_ends.len() as f64
    }

    /// True when rows `start..end` (half-open, non-empty) all fall inside
    /// one run — i.e. one validity bit and one value cover the range.
    pub fn constant_over(&self, start: usize, end: usize) -> bool {
        debug_assert!(start < end && end <= self.len);
        let run = self.run_ends.partition_point(|&e| e as usize <= start);
        self.run_ends[run] as usize >= end
    }

    /// Exclusive end rows of the runs, strictly increasing, last == len.
    pub fn run_ends(&self) -> &[u32] {
        &self.run_ends
    }

    /// Worth keeping: enough rows to matter and an average run long
    /// enough (≥ 4 rows) that per-run dispatch beats the per-row loop.
    pub fn is_beneficial(&self) -> bool {
        self.len >= 64 && self.avg_run_len() >= 4.0
    }
}

/// A table converted to columnar form: one [`Column`] per schema column.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    pub columns: Vec<Column>,
    pub n_rows: usize,
}

impl ColumnarBatch {
    /// Convert a [`Table`] column by column, using the schema's declared
    /// types to pick primitive vs dictionary representations.
    pub fn from_table(table: &Table) -> ColumnarBatch {
        let rows = table.rows();
        let columns = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(idx, col)| Column::from_rows(rows, idx, col.dtype))
            .collect();
        ColumnarBatch {
            columns,
            n_rows: rows.len(),
        }
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;

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
        let batch = ColumnarBatch::from_table(&sales());
        assert_eq!(batch.n_rows, 4);
        assert!(matches!(batch.column(0).data, ColumnData::Dict { .. }));
        assert!(matches!(batch.column(1).data, ColumnData::Int(_)));
        assert!(matches!(batch.column(2).data, ColumnData::Float(_)));
    }

    #[test]
    fn nulls_become_invalid_bits() {
        let batch = ColumnarBatch::from_table(&sales());
        for col in &batch.columns {
            assert_eq!(col.len(), 4);
            assert!(col.validity.get(0));
            assert!(!col.validity.get(2), "NULL row must be invalid");
            assert!(col.validity.get(3));
        }
        let ColumnData::Int(years) = &batch.column(1).data else {
            panic!("year should be Int")
        };
        assert_eq!(years[2], 0, "NULL slot holds the zero filler");
    }

    #[test]
    fn values_round_trip() {
        let t = sales();
        let batch = ColumnarBatch::from_table(&t);
        for (i, row) in t.rows().iter().enumerate() {
            for (j, col) in batch.columns.iter().enumerate() {
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
    fn rle_index_finds_runs_and_boundaries() {
        let vals: Vec<i64> = [5i64; 40]
            .into_iter()
            .chain([7i64; 24])
            .chain([7i64; 10])
            .collect();
        let mut validity = BitmapBuilder::with_capacity(vals.len());
        for i in 0..vals.len() {
            validity.append(i < 64); // the last 10 rows are NULL
        }
        let idx = RleIndex::from_i64(&vals, &validity.finish());
        // runs: 40×5 valid, 24×7 valid, 10×NULL
        assert_eq!(idx.n_runs(), 3);
        assert_eq!(idx.run_ends(), &[40, 64, 74]);
        assert!(idx.constant_over(0, 40));
        assert!(idx.constant_over(10, 39));
        assert!(!idx.constant_over(39, 41));
        assert!(idx.constant_over(64, 74));
        assert!((idx.avg_run_len() - 74.0 / 3.0).abs() < 1e-9);
        assert!(idx.is_beneficial());
    }

    #[test]
    fn rle_rejects_incompressible_and_tiny_columns() {
        let vals: Vec<i64> = (0..128).collect();
        let mut validity = BitmapBuilder::with_capacity(vals.len());
        (0..vals.len()).for_each(|_| validity.append(true));
        let idx = RleIndex::from_i64(&vals, &validity.finish());
        assert_eq!(idx.n_runs(), 128);
        assert!(!idx.is_beneficial(), "one run per row never pays off");

        let short = vec![1i64; 10];
        let mut validity = BitmapBuilder::with_capacity(10);
        (0..10).for_each(|_| validity.append(true));
        assert!(!RleIndex::from_i64(&short, &validity.finish()).is_beneficial());
    }

    #[test]
    fn rle_float_runs_compare_by_bits() {
        let vals = [f64::NAN, f64::NAN, 0.0, -0.0, 1.5, 1.5];
        let mut validity = BitmapBuilder::with_capacity(vals.len());
        (0..vals.len()).for_each(|_| validity.append(true));
        let idx = RleIndex::from_f64(&vals, &validity.finish());
        assert_eq!(idx.run_ends(), &[2, 3, 4, 6], "NaN runs; ±0.0 split");
    }

    #[test]
    fn column_rle_index_gated_by_benefit() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let sorted: Vec<Row> = (0..256)
            .map(|i| Row::new(vec![Value::Int(i / 64)]))
            .collect();
        let t = Table::new(schema.clone(), sorted).unwrap();
        let col = Column::from_rows(t.rows(), 0, DataType::Int);
        let idx = col.rle_index().expect("sorted column should compress");
        assert_eq!(idx.n_runs(), 4);

        let random: Vec<Row> = (0..256)
            .map(|i| Row::new(vec![Value::Int(i * 37 % 251)]))
            .collect();
        let t = Table::new(schema, random).unwrap();
        let col = Column::from_rows(t.rows(), 0, DataType::Int);
        assert!(col.rle_index().is_none(), "shuffled column must not");
    }

    #[test]
    fn validity_words_expose_packed_bits() {
        let batch = ColumnarBatch::from_table(&sales());
        let words = batch.column(1).validity_words();
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
