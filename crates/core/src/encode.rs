//! Packed group keys — the execution engine's front end.
//!
//! §5 of the paper quotes Graefe's tip: "If the aggregation values are
//! large strings, it may be wise to keep a hashed symbol table that maps
//! each string to an integer so that the aggregate values are small."
//! This module takes that one step further: every dimension value is
//! interned through a [`SymbolTable`] and the whole N-dimensional
//! coordinate becomes one small `Copy` key, one field per dimension. A
//! plain column's codes and symbol table are the table's columnar image
//! ([`dc_relation::image`]), built once per table; only a computed
//! dimension is interned here, per statement. The fields:
//!
//! * field value `0` is reserved for the paper's `ALL` pseudo-value, and
//!   interned code `c` is stored as `c + 1`;
//! * dimension `d` with cardinality `C_d` needs `width_d` bits, enough to
//!   hold the `C_d + 1` distinct field values.
//!
//! Reserving `0` for `ALL` is what makes the engine fast: projecting a
//! full coordinate onto a grouping set — replacing every dropped
//! dimension by `ALL` — is a single `key.and(set_mask(set))`, because
//! masking a field to zero *is* setting it to `ALL`. Group-by then runs
//! over these keys with the Fx hash instead of cloning `Row`s through
//! SipHash.
//!
//! Packing is total, in one of two widths ([`PackedKey`]) chosen from the
//! data: when `Σ width_d <= 64` the fields are bit ranges of a single
//! `u64` (low bits = dimension 0); otherwise each field takes its own
//! `u32` lane of a [`WideKey`]. Every coordinate a [`Lattice`] accepts
//! (at most [`GroupingSet::MAX_DIMS`] dimensions, any cardinalities) gets
//! one or the other, and the engine is generic over which.
//!
//! A materialized store keeps its encoder across batches:
//! [`KeyEncoder::grow`] interns a batch's unseen values in place while
//! every field keeps its width. A `u64` field that outgrows its width
//! would move every key, so the store re-groups instead, and [`encode`]
//! lays the key out anew — past 64 bits, as a [`WideKey`].
//!
//! [`Lattice`]: crate::lattice::Lattice

use crate::lattice::GroupingSet;
use crate::spec::BoundDimension;
use dc_relation::{CodeColumn, Codes, Row, SymbolTable, Table, Value};
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

/// Where one dimension's field sits inside a `u64` key. A [`WideKey`]
/// gives every dimension its own lane and reads neither number.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field {
    shift: u32,
    width: u32,
}

impl Field {
    /// All-ones over the field's width (1..=32 bits: interned codes are
    /// `u32`).
    fn ones(self) -> u32 {
        u32::MAX >> (u32::BITS - self.width)
    }
}

/// A packed cube coordinate: `fields.len()` field values (`0` = `ALL`,
/// `code + 1` otherwise) in one `Copy` value whose `Eq`/`Hash` identify a
/// cell and whose `Ord`, over collation ranks, is the output order.
pub(crate) trait PackedKey: Copy + Eq + Ord + Hash + Send + Sync + 'static {
    /// Whether a key is one integer below `1 << Σ widths`, so a small key
    /// space can index a dense slot table directly.
    const DENSE: bool;

    /// Build a key holding `value(d)` in dimension `d`'s field.
    fn pack(fields: &[Field], value: impl FnMut(usize) -> u32) -> Self;

    /// Set dimension `d`'s field, zero so far, to `value`.
    fn set_field(&mut self, d: usize, field: Field, value: u32);

    /// Dimension `d`'s field value.
    fn field(self, d: usize, field: Field) -> u32;

    /// Field-wise AND. With a [`KeyEncoder::set_mask`] operand this is the
    /// projection onto a grouping set: members keep their field, dropped
    /// dimensions zero out — which *is* the `ALL` code. The paper's
    /// "replace dropped dimensions with ALL" becomes one instruction.
    fn and(self, mask: Self) -> Self;

    /// The key as a dense slot-table index (only when [`Self::DENSE`]).
    fn dense_index(self) -> usize;
}

impl PackedKey for u64 {
    const DENSE: bool = true;

    #[inline]
    fn pack(fields: &[Field], mut value: impl FnMut(usize) -> u32) -> u64 {
        let mut key = 0u64;
        for (d, f) in fields.iter().enumerate() {
            key |= (value(d) as u64) << f.shift;
        }
        key
    }

    #[inline]
    fn set_field(&mut self, _d: usize, f: Field, value: u32) {
        *self |= (value as u64) << f.shift;
    }

    #[inline]
    fn field(self, _d: usize, f: Field) -> u32 {
        ((self >> f.shift) & ((1u64 << f.width) - 1)) as u32
    }

    #[inline]
    fn and(self, mask: u64) -> u64 {
        self & mask
    }

    #[inline]
    fn dense_index(self) -> usize {
        self as usize
    }
}

/// The key for coordinates whose fields do not fit 64 bits: one `u32`
/// lane per dimension, unused lanes zero. Lane-wise AND is the set
/// projection, the derived `Hash`/`Eq` give the slot map and run
/// detection, and the derived `Ord` — lexicographic from dimension 0 —
/// over per-dimension ranks is the collation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct WideKey([u32; GroupingSet::MAX_DIMS]);

impl PackedKey for WideKey {
    const DENSE: bool = false;

    #[inline]
    fn pack(fields: &[Field], mut value: impl FnMut(usize) -> u32) -> WideKey {
        let mut lanes = [0u32; GroupingSet::MAX_DIMS];
        for (d, lane) in lanes.iter_mut().enumerate().take(fields.len()) {
            *lane = value(d);
        }
        WideKey(lanes)
    }

    #[inline]
    fn set_field(&mut self, d: usize, _f: Field, value: u32) {
        self.0[d] = value;
    }

    #[inline]
    fn field(self, d: usize, _f: Field) -> u32 {
        self.0[d]
    }

    #[inline]
    fn and(self, mask: WideKey) -> WideKey {
        let mut lanes = self.0;
        for (lane, m) in lanes.iter_mut().zip(mask.0) {
            *lane &= m;
        }
        WideKey(lanes)
    }

    /// Out of every table's range: no arena indexes wide keys densely.
    fn dense_index(self) -> usize {
        usize::MAX
    }
}

/// Per-dimension symbol tables — the dictionary — plus the field layout of
/// the packed key and the collation rank of every field value.
#[derive(Clone)]
pub(crate) struct KeyEncoder<K> {
    /// Shared with the table images the keys were packed from.
    symbols: Vec<Arc<SymbolTable>>,
    fields: Vec<Field>,
    /// `ranks[d][field]`: where dimension `d`'s field value collates —
    /// interned values in `Value` order, `ALL` (field 0) last. Rebuilt
    /// whenever the dictionary grows, so no read sorts a `Value`.
    ranks: Vec<Vec<u32>>,
    key: PhantomData<K>,
}

/// A fully encoded input: the encoder and one packed full-coordinate key
/// per base row (parallel to the row slice it was built from).
pub(crate) struct EncodedInput<K> {
    pub encoder: KeyEncoder<K>,
    pub keys: Vec<K>,
}

/// [`encode`]'s answer: the input packed at the width its fields need.
pub(crate) enum Encoded {
    Narrow(EncodedInput<u64>),
    Wide(EncodedInput<WideKey>),
}

/// Every dimension's codes over `table`'s rows: a plain column's are the
/// table image's (shared, built at most once per table); a computed
/// dimension's are interned here, row by row.
fn dim_codes(table: &Table, dims: &[BoundDimension]) -> Vec<Arc<CodeColumn>> {
    let computed = |dim: &BoundDimension| {
        let mut symbols = SymbolTable::new();
        let rows = table.rows().iter();
        let codes = rows.map(|row| symbols.intern(&dim.eval(row))).collect();
        Arc::new(CodeColumn {
            codes,
            symbols: Arc::new(symbols),
        })
    };
    dims.iter()
        .map(|dim| match dim.column_index() {
            Some(i) => table.codes(i),
            None => computed(dim),
        })
        .collect()
}

/// `dims`' dictionaries and each one's codes.
fn split(columns: &[Arc<CodeColumn>]) -> (Vec<Arc<SymbolTable>>, Vec<&Codes>) {
    let symbols = columns.iter().map(|c| Arc::clone(&c.symbols)).collect();
    (symbols, columns.iter().map(|c| &c.codes).collect())
}

/// Set dimension `d`'s field of every key to its row's code + 1.
fn set_fields<K: PackedKey, C: Copy + Into<u32>>(keys: &mut [K], d: usize, f: Field, codes: &[C]) {
    for (key, &code) in keys.iter_mut().zip(codes) {
        key.set_field(d, f, code.into() + 1);
    }
}

/// The field layout the cardinalities call for: width_d = bits for field
/// values 0..=C_d (code c stored as c + 1, 0 reserved for ALL); at least
/// one bit even for an empty input so every dimension owns a field.
fn layout(symbols: &[Arc<SymbolTable>]) -> Vec<Field> {
    let mut shift = 0u32;
    symbols
        .iter()
        .map(|t| {
            let width = (u32::BITS - (t.cardinality() as u32).leading_zeros()).max(1);
            let field = Field { shift, width };
            shift += width;
            field
        })
        .collect()
}

/// Every field value's collation rank: one `Value` sort per symbol table.
fn ranks(symbols: &[Arc<SymbolTable>]) -> Vec<Vec<u32>> {
    let rank = |symbols: &Arc<SymbolTable>| {
        let values = symbols.values();
        let mut order: Vec<u32> = (0..values.len() as u32).collect();
        order.sort_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
        // ranks[field]: field 0 is ALL (rank C, last); field c + 1 is
        // code c (its position in Value order).
        let mut ranks = vec![0u32; values.len() + 1];
        ranks[0] = values.len() as u32;
        for (pos, &code) in order.iter().enumerate() {
            ranks[code as usize + 1] = pos as u32;
        }
        ranks
    };
    symbols.iter().map(rank).collect()
}

/// Pack every row's cube coordinate from the dimensions' codes, at the
/// width the fields need: one `u64` key when they sum to at most 64 bits,
/// a [`WideKey`] otherwise.
pub(crate) fn encode(table: &Table, dims: &[BoundDimension]) -> Encoded {
    let columns = dim_codes(table, dims);
    let (symbols, codes) = split(&columns);
    if layout(&symbols).iter().map(|f| f.width).sum::<u32>() <= u64::BITS {
        Encoded::Narrow(KeyEncoder::new(symbols).pack(&codes, table.len()))
    } else {
        Encoded::Wide(KeyEncoder::new(symbols).pack(&codes, table.len()))
    }
}

/// Pack at a caller-chosen width regardless of the field widths, so a test
/// can run one small table through both key instantiations.
#[cfg(test)]
pub(crate) fn encode_as<K: PackedKey>(table: &Table, dims: &[BoundDimension]) -> EncodedInput<K> {
    let columns = dim_codes(table, dims);
    let (symbols, codes) = split(&columns);
    KeyEncoder::new(symbols).pack(&codes, table.len())
}

impl<K: PackedKey> KeyEncoder<K> {
    fn new(symbols: Vec<Arc<SymbolTable>>) -> Self {
        KeyEncoder {
            fields: layout(&symbols),
            ranks: ranks(&symbols),
            symbols,
            key: PhantomData,
        }
    }

    /// Pack one key per row from each dimension's codes, a column at a
    /// time: no `Value` touched again. A zero-dimension coordinate packs
    /// to the empty key — one per row, so the grand-total cell still sees
    /// every row.
    fn pack(self, columns: &[&Codes], n_rows: usize) -> EncodedInput<K> {
        let mut keys = vec![K::pack(&self.fields, |_| 0); n_rows];
        for (d, (codes, &f)) in columns.iter().zip(&self.fields).enumerate() {
            match codes {
                Codes::U8(c) => set_fields(&mut keys, d, f, c),
                Codes::U16(c) => set_fields(&mut keys, d, f, c),
                Codes::U32(c) => set_fields(&mut keys, d, f, c),
            }
        }
        EncodedInput {
            encoder: self,
            keys,
        }
    }

    /// Intern `rows`' coordinates, growing the dictionary and its ranks.
    /// A symbol table shared with a table image is copied on its first
    /// unseen value. Whether the keys still fit: keys packed before stay
    /// valid unless a `u64` field outgrew its width — a `u64` key is its
    /// fields' bit ranges — and then this encoder is not to be used.
    pub fn grow(&mut self, rows: &[Row], dims: &[BoundDimension]) -> bool {
        let before: usize = self.cardinalities().iter().sum();
        let intern = |symbols: &mut Arc<SymbolTable>, v: &Value| {
            if symbols.code_of(v).is_none() {
                Arc::make_mut(symbols).intern(v);
            }
        };
        for row in rows {
            for (dim, symbols) in dims.iter().zip(&mut self.symbols) {
                // Borrow plain column values; only computed dimensions
                // pay for an owned evaluation.
                match dim.column_index() {
                    Some(i) => intern(symbols, &row[i]),
                    None => intern(symbols, &dim.eval(row)),
                }
            }
        }
        if self.cardinalities().iter().sum::<usize>() == before {
            return true;
        }
        let fields = layout(&self.symbols);
        if K::DENSE && fields.iter().map(|f| f.width).sum::<u32>() > self.total_bits() {
            return false;
        }
        self.fields = fields;
        self.ranks = ranks(&self.symbols);
        true
    }

    /// The keys of rows whose values are all interned.
    pub fn keys<'r>(
        &self,
        rows: impl IntoIterator<Item = &'r Row>,
        dims: &[BoundDimension],
    ) -> Option<Vec<K>> {
        let mut codes = [0u32; GroupingSet::MAX_DIMS];
        let mut key = |row| {
            for ((dim, table), code) in dims.iter().zip(&self.symbols).zip(&mut codes) {
                *code = table.code_of(&dim.eval(row))? + 1;
            }
            Some(K::pack(&self.fields, |d| codes[d]))
        };
        rows.into_iter().map(&mut key).collect()
    }

    /// The mask that projects a full key onto `set` (see
    /// [`PackedKey::and`]): all-ones in member fields, zero elsewhere.
    pub fn set_mask(&self, set: GroupingSet) -> K {
        K::pack(&self.fields, |d| {
            if set.contains(d) {
                self.fields[d].ones()
            } else {
                0
            }
        })
    }

    /// Decode a packed key back to `Row` form: field 0 → `ALL`, field
    /// `c + 1` → the interned value `c`.
    #[cfg(test)]
    pub fn decode_key(&self, key: K) -> Row {
        let mut vals = Vec::new();
        self.append_key(key, &(0..self.fields.len()).collect::<Vec<_>>(), &mut vals);
        Row::new(vals)
    }

    /// Decode dimensions `dims` of `key`, in that order, into a
    /// caller-owned buffer, so materialization can size one allocation
    /// for dimensions *and* aggregate values.
    pub fn append_key(&self, key: K, dims: &[usize], out: &mut Vec<Value>) {
        for &d in dims {
            out.push(match key.field(d, self.fields[d]) {
                0 => Value::All,
                #[expect(
                    clippy::expect_used,
                    reason = "keys were packed from this very symbol table"
                )]
                c => self.symbols[d]
                    .decode(c - 1)
                    .expect("packed field within interned range")
                    .clone(),
            });
        }
    }

    /// The collation map for packed keys by dimensions `order`:
    /// `collator.sort_key(k)` is a key whose natural order equals the
    /// order of `k`'s decoded `order` values (the first most significant,
    /// interned values in `Value` order, `ALL` last). Sorting cells by
    /// these remapped keys replaces the decode-then-compare-`Row`s sort —
    /// the dominant cost of materializing large results — with a plain
    /// integer sort; each key is then decoded exactly once, in output
    /// order.
    pub fn collator(&self, order: &[usize]) -> KeyCollator<'_, K> {
        // A repeated dimension adds no order: it packs once.
        let mut dims: Vec<usize> = Vec::with_capacity(order.len());
        for &d in order {
            if !dims.contains(&d) {
                dims.push(d);
            }
        }
        let total: u32 = dims.iter().map(|&d| self.fields[d].width).sum();
        let mut used = 0u32;
        let out = dims
            .iter()
            .map(|&d| {
                let width = self.fields[d].width;
                used += width;
                Field {
                    shift: total - used,
                    width,
                }
            })
            .collect();
        KeyCollator {
            encoder: self,
            dims,
            out,
        }
    }

    /// Distinct-value count per dimension, read off the symbol tables
    /// built during encoding: the `C_i` of the paper's cardinality formula,
    /// which drive smallest-parent selection. Every base row contributes
    /// its full coordinate to the core, so the distinct values per
    /// dimension among core keys equal those among base rows.
    pub fn cardinalities(&self) -> Vec<usize> {
        self.symbols.iter().map(|t| t.cardinality()).collect()
    }

    /// Total field width in bits (`Σ widths`).
    pub fn total_bits(&self) -> u32 {
        self.fields.iter().map(|f| f.width).sum()
    }

    /// The key-space width when keys may index a dense slot table: every
    /// [`PackedKey::DENSE`] key is `< 1 << total_bits()`.
    pub fn dense_bits(&self) -> Option<u32> {
        K::DENSE.then(|| self.total_bits())
    }
}

/// Packed-key → collation-key remapper built by [`KeyEncoder::collator`].
/// `sort_key` is a strictly monotone map from packed keys (within one
/// grouping set whose members are all among its dimensions) to the
/// decoded collation order: distinct keys in the set differ in some
/// member field, and member fields map to distinct ranks in disjoint
/// fields.
pub(crate) struct KeyCollator<'a, K> {
    encoder: &'a KeyEncoder<K>,
    dims: Vec<usize>,
    out: Vec<Field>,
}

impl<K: PackedKey> KeyCollator<'_, K> {
    #[inline]
    pub fn sort_key(&self, key: K) -> K {
        let e = self.encoder;
        K::pack(&self.out, |q| {
            let d = self.dims[q];
            e.ranks[d][key.field(d, e.fields[d]) as usize]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::GroupingSet;
    use crate::spec::Dimension;
    use dc_relation::{row, DataType, Schema};

    fn bind_dims(t: &Table, names: &[&str]) -> Vec<BoundDimension> {
        names
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect()
    }

    /// The input packed at the width `encode` picks, which must be `u64`.
    fn narrow(t: &Table, dims: &[BoundDimension]) -> EncodedInput<u64> {
        match encode(t, dims) {
            Encoded::Narrow(enc) => enc,
            Encoded::Wide(_) => panic!("expected a u64 key"),
        }
    }

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
                row!["Chevy", 1995, 85],
                row!["Ford", 1994, 60],
            ],
        )
        .unwrap()
    }

    #[test]
    fn packs_and_decodes_round_trip() {
        let t = sales();
        let dims = bind_dims(&t, &["model", "year"]);
        let enc = narrow(&t, &dims);
        assert_eq!(enc.keys.len(), 3);
        for (row, &key) in t.rows().iter().zip(&enc.keys) {
            let decoded = enc.encoder.decode_key(key);
            assert_eq!(decoded[0], row[0]);
            assert_eq!(decoded[1], row[1]);
        }
        // 2 models, 2 years → 2 bits each (3 field values incl. ALL).
        assert_eq!(enc.encoder.cardinalities(), vec![2, 2]);
    }

    #[test]
    fn masking_projects_to_all() {
        let t = sales();
        let dims = bind_dims(&t, &["model", "year"]);
        let enc = narrow(&t, &dims);
        let year_only = GroupingSet::from_dims(&[1]).unwrap();
        let mask = enc.encoder.set_mask(year_only);
        let projected = enc.encoder.decode_key(enc.keys[0].and(mask));
        assert_eq!(projected[0], Value::All);
        assert_eq!(projected[1], Value::Int(1994));
        // The empty set's mask wipes the whole key → the grand-total cell.
        assert_eq!(enc.encoder.set_mask(GroupingSet::EMPTY), 0);
        let grand = enc.encoder.decode_key(0);
        assert!(grand.iter().all(|v| *v == Value::All));
    }

    #[test]
    fn distinct_keys_never_collide() {
        // Null is an ordinary groupable symbol, distinct from ALL.
        let schema = Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Int)]);
        let t = Table::new(
            schema,
            vec![
                row!["x", 1],
                row![Value::Null, 1],
                row!["x", 2],
                row![Value::Null, 2],
            ],
        )
        .unwrap();
        let dims = bind_dims(&t, &["a", "b"]);
        let enc = narrow(&t, &dims);
        let mut keys = enc.keys.clone();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
        assert_eq!(enc.encoder.decode_key(enc.keys[1])[0], Value::Null);
    }

    /// `n` Int dimensions `d0..`, each holding `i` in row `i` of `card`.
    fn diagonal(n: usize, card: i64) -> (Table, Vec<BoundDimension>) {
        let names: Vec<String> = (0..n).map(|d| format!("d{d}")).collect();
        let cols: Vec<(&str, DataType)> =
            names.iter().map(|s| (s.as_str(), DataType::Int)).collect();
        let mut t = Table::empty(Schema::from_pairs(&cols));
        for i in 0..card {
            t.push_unchecked(Row::new(vec![Value::Int(i); n]));
        }
        let dims = names
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        (t, dims)
    }

    #[test]
    fn falls_back_when_widths_overflow() {
        // 11 dimensions × cardinality 100 → 7 bits each = 77 > 64: the
        // coordinate falls back from one `u64` to the wide key, which
        // projects, decodes and collates exactly like the narrow one.
        let (t, dims) = diagonal(11, 100);
        let Encoded::Wide(enc) = encode(&t, &dims) else {
            panic!("77 key bits cannot pack into a u64");
        };
        assert_eq!(enc.encoder.total_bits(), 77);
        assert_eq!(enc.encoder.dense_bits(), None);
        for (row, &key) in t.rows().iter().zip(&enc.keys) {
            assert_eq!(&enc.encoder.decode_key(key), row);
        }
        let set = GroupingSet::from_dims(&[0, 10]).unwrap();
        let projected = enc
            .encoder
            .decode_key(enc.keys[7].and(enc.encoder.set_mask(set)));
        for d in 0..11 {
            let want = if set.contains(d) {
                Value::Int(7)
            } else {
                Value::All
            };
            assert_eq!(projected[d], want, "dimension {d}");
        }
        // Collation: interned values in `Value` order, `ALL` last.
        let collator = enc.encoder.collator(&(0..11).collect::<Vec<_>>());
        let grand = enc.keys[0].and(enc.encoder.set_mask(GroupingSet::EMPTY));
        assert!(collator.sort_key(enc.keys[3]) < collator.sort_key(enc.keys[4]));
        assert!(collator.sort_key(enc.keys[99]) < collator.sort_key(grand));
    }

    #[test]
    fn the_width_follows_the_fields_not_the_dimension_count() {
        // Every arity a lattice accepts packs: 20 two-valued dimensions
        // need 2 bits each and fit one u64; 20 dimensions of 15 values
        // (4 bits each, 80 in all) take the wide key.
        let (t, dims) = diagonal(GroupingSet::MAX_DIMS, 2);
        assert_eq!(narrow(&t, &dims).encoder.total_bits(), 40);
        let (t, dims) = diagonal(GroupingSet::MAX_DIMS, 15);
        assert!(matches!(encode(&t, &dims), Encoded::Wide(_)));
    }

    #[test]
    fn both_widths_order_and_project_alike() {
        let t = sales();
        let dims = bind_dims(&t, &["model", "year"]);
        let narrow = encode_as::<u64>(&t, &dims);
        let wide = encode_as::<WideKey>(&t, &dims);
        let (nc, wc) = (
            narrow.encoder.collator(&[0, 1]),
            wide.encoder.collator(&[0, 1]),
        );
        for set in crate::lattice::cube_sets(2).unwrap() {
            let project = |i: usize| {
                (
                    narrow.keys[i].and(narrow.encoder.set_mask(set)),
                    wide.keys[i].and(wide.encoder.set_mask(set)),
                )
            };
            for i in 0..3 {
                let (n, w) = project(i);
                assert_eq!(narrow.encoder.decode_key(n), wide.encoder.decode_key(w));
                for j in 0..3 {
                    let (n2, w2) = project(j);
                    assert_eq!(
                        nc.sort_key(n).cmp(&nc.sort_key(n2)),
                        wc.sort_key(w).cmp(&wc.sort_key(w2)),
                        "{set} rows {i},{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_dimensions_still_keys_every_row() {
        // A plain aggregate (GROUP BY over no columns) must keep one key
        // per row so the grand-total cell sees the whole input.
        let t = sales();
        let enc = narrow(&t, &[]);
        assert_eq!(enc.keys, vec![0, 0, 0]);
        assert_eq!(enc.encoder.decode_key(0), Row::new(vec![]));
    }

    #[test]
    fn empty_input_encodes_to_no_keys() {
        let t = sales();
        let empty = Table::empty(t.schema().clone());
        let dims = bind_dims(&t, &["model", "year"]);
        let enc = narrow(&empty, &dims);
        assert!(enc.keys.is_empty());
        assert_eq!(enc.encoder.cardinalities(), vec![0, 0]);
    }
}
