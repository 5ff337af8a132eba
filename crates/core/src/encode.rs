//! Packed `u64` group keys — the encoded-key execution engine's front end.
//!
//! §5 of the paper quotes Graefe's tip: "If the aggregation values are
//! large strings, it may be wise to keep a hashed symbol table that maps
//! each string to an integer so that the aggregate values are small."
//! This module takes that one step further: every dimension value is
//! interned through a [`SymbolTable`] and the whole N-dimensional
//! coordinate is packed into a *single* `u64`, one bit field per
//! dimension.
//!
//! Packing layout (low bits = dimension 0):
//!
//! * dimension `d` with cardinality `C_d` gets `width_d` bits, enough to
//!   hold `C_d + 1` distinct field values;
//! * field value `0` is reserved for the paper's `ALL` pseudo-value, and
//!   interned code `c` is stored as `c + 1`.
//!
//! Reserving `0` for `ALL` is what makes the engine fast: projecting a
//! full coordinate onto a grouping set — replacing every dropped
//! dimension by `ALL` — is a single `key & set_mask(set)` AND, because
//! masking a field to zero *is* setting it to `ALL`. Group-by then runs
//! over `u64` keys with the Fx hash instead of cloning `Row`s through
//! SipHash.
//!
//! The encoding is total or absent: [`encode`] returns `None` when the
//! widths do not fit in 64 bits or there are more than
//! [`MAX_PACKED_DIMS`] dimensions, and callers fall back to the `Row`-key
//! path. Results are identical either way.

use crate::spec::BoundDimension;
use dc_relation::{Row, SymbolTable, Value};

/// Upper bound on packable dimensions. Beyond this, even 2-valued
/// dimensions leave too little headroom per field for real cardinalities,
/// and the fallback path handles the (paper-scale: N ≤ 20) remainder.
pub(crate) const MAX_PACKED_DIMS: usize = 16;

/// Per-dimension symbol tables plus the bit layout of the packed key.
#[derive(Clone)]
pub(crate) struct KeyEncoder {
    symbols: Vec<SymbolTable>,
    shifts: Vec<u32>,
    widths: Vec<u32>,
}

/// A fully encoded input: the encoder and one packed full-coordinate key
/// per base row (parallel to the row slice it was built from).
pub(crate) struct EncodedInput {
    pub encoder: KeyEncoder,
    pub keys: Vec<u64>,
}

/// Dictionary-encode and pack every row's cube coordinate. One pass
/// interns each dimension value; the widths are then known and a second
/// pass over the (already interned) codes packs the keys. Returns `None`
/// when the coordinate does not fit — caller falls back to `Row` keys.
pub(crate) fn encode(rows: &[Row], dims: &[BoundDimension]) -> Option<EncodedInput> {
    if dims.len() > MAX_PACKED_DIMS {
        return None;
    }
    let n = dims.len();
    let mut symbols: Vec<SymbolTable> = (0..n).map(|_| SymbolTable::new()).collect();
    let mut codes: Vec<u32> = Vec::with_capacity(rows.len() * n);
    for row in rows {
        for (dim, table) in dims.iter().zip(symbols.iter_mut()) {
            // Borrow plain column values; only computed dimensions pay
            // for an owned evaluation.
            let code = match dim.column_index() {
                Some(i) => table.intern(&row[i]),
                None => table.intern(&dim.eval(row)),
            };
            codes.push(code);
        }
    }

    // width_d = bits for field values 0..=C_d (code c stored as c + 1,
    // 0 reserved for ALL); at least one bit even for an empty input so
    // every dimension owns a field.
    let widths: Vec<u32> = symbols
        .iter()
        .map(|t| (u32::BITS - (t.cardinality() as u32).leading_zeros()).max(1))
        .collect();
    if widths.iter().sum::<u32>() > u64::BITS {
        return None;
    }
    let mut shifts = Vec::with_capacity(n);
    let mut shift = 0u32;
    for &w in &widths {
        shifts.push(shift);
        shift += w;
    }

    let encoder = KeyEncoder {
        symbols,
        shifts,
        widths,
    };
    // A zero-dimension coordinate packs to the empty key 0 — one per row,
    // so the grand-total cell still sees every row.
    let keys = if n == 0 {
        vec![0u64; rows.len()]
    } else {
        codes
            .chunks_exact(n)
            .map(|coord| {
                let mut key = 0u64;
                for (d, &c) in coord.iter().enumerate() {
                    key |= (c as u64 + 1) << encoder.shifts[d];
                }
                key
            })
            .collect()
    };
    Some(EncodedInput { encoder, keys })
}

impl KeyEncoder {
    pub fn n_dims(&self) -> usize {
        self.widths.len()
    }

    /// The AND mask that projects a full key onto `set`: members keep
    /// their field, dropped dimensions zero out — which *is* the `ALL`
    /// code. The paper's "replace dropped dimensions with ALL" becomes
    /// one instruction.
    pub fn set_mask(&self, set: crate::lattice::GroupingSet) -> u64 {
        let mut mask = 0u64;
        for d in 0..self.n_dims() {
            if set.contains(d) {
                let field = if self.widths[d] == u64::BITS {
                    u64::MAX
                } else {
                    (1u64 << self.widths[d]) - 1
                };
                mask |= field << self.shifts[d];
            }
        }
        mask
    }

    /// Decode a packed key back to the `Row` form the `Row`-key engine
    /// produces: field 0 → `ALL`, field `c + 1` → the interned value `c`.
    pub fn decode_key(&self, key: u64) -> Row {
        let mut vals = Vec::with_capacity(self.n_dims());
        self.append_key(key, &mut vals);
        Row::new(vals)
    }

    /// [`decode_key`](Self::decode_key) into a caller-owned buffer, so
    /// materialization can size one allocation for dimensions *and*
    /// aggregate values.
    pub fn append_key(&self, key: u64, out: &mut Vec<Value>) {
        for d in 0..self.n_dims() {
            let field = if self.widths[d] == u64::BITS {
                key >> self.shifts[d]
            } else {
                (key >> self.shifts[d]) & ((1u64 << self.widths[d]) - 1)
            };
            out.push(match field {
                0 => Value::All,
                c => self.symbols[d]
                    .decode((c - 1) as u32)
                    // cube-lint: allow(panic, keys were packed from this very symbol table)
                    .expect("packed field within interned range")
                    .clone(),
            });
        }
    }

    /// Build the collation map for packed keys: `collator.sort_key(k)` is
    /// a `u64` whose natural order equals the decoded-`Row` order the
    /// materializer must emit (dimension 0 most significant, interned
    /// values in `Value` order, `ALL` collating last). Sorting cells by
    /// these remapped keys replaces the decode-then-compare-`Row`s sort —
    /// the dominant cost of materializing large results — with a plain
    /// `u64` sort; each key is then decoded exactly once, in output
    /// order. Cost: one `Value` sort per symbol table, paid once.
    pub fn collator(&self) -> KeyCollator {
        let mut tables = Vec::with_capacity(self.n_dims());
        for symbols in &self.symbols {
            let c = symbols.cardinality();
            let mut order: Vec<u32> = (0..c as u32).collect();
            order.sort_by(|&a, &b| {
                // cube-lint: allow(panic, codes 0..cardinality are all interned)
                let va = symbols.decode(a).expect("interned code");
                // cube-lint: allow(panic, codes 0..cardinality are all interned)
                let vb = symbols.decode(b).expect("interned code");
                va.cmp(vb)
            });
            // ranks[field]: field 0 is ALL (rank C, last); field c + 1 is
            // code c (its position in Value order).
            let mut ranks = vec![0u64; c + 1];
            ranks[0] = c as u64;
            for (pos, &code) in order.iter().enumerate() {
                ranks[code as usize + 1] = pos as u64;
            }
            tables.push(ranks);
        }
        // Dimension 0 takes the most significant field: Row comparison is
        // lexicographic from dimension 0.
        let total: u32 = self.widths.iter().sum();
        let mut out_shifts = Vec::with_capacity(self.n_dims());
        let mut used = 0u32;
        for &w in &self.widths {
            used += w;
            out_shifts.push(total - used);
        }
        KeyCollator {
            shifts: self.shifts.clone(),
            widths: self.widths.clone(),
            out_shifts,
            tables,
        }
    }

    /// Distinct-value count per dimension, read off the symbol tables
    /// built during encoding. Exactly the `C_i` the `Row`-key path scans
    /// the core's keys for: every base row contributes its full
    /// coordinate to the core, so the distinct values per dimension among
    /// core keys equal those among base rows.
    pub fn cardinalities(&self) -> Vec<usize> {
        self.symbols.iter().map(|t| t.cardinality()).collect()
    }

    /// Total packed key width in bits (`Σ widths`, `<= 64` whenever
    /// encoding succeeded). Every packed key is `< 1 << total_bits()`,
    /// which is what lets the engine size dense slot tables.
    pub fn total_bits(&self) -> u32 {
        self.widths.iter().sum()
    }
}

/// Packed-key → collation-key remapper built by [`KeyEncoder::collator`].
/// `sort_key` is a strictly monotone map from packed keys (within one
/// grouping set) to the decoded-`Row` collation order: distinct keys in a
/// set differ in some member field, and member fields map to distinct
/// ranks in disjoint bit ranges.
pub(crate) struct KeyCollator {
    shifts: Vec<u32>,
    widths: Vec<u32>,
    out_shifts: Vec<u32>,
    tables: Vec<Vec<u64>>,
}

impl KeyCollator {
    #[inline]
    pub fn sort_key(&self, key: u64) -> u64 {
        let mut out = 0u64;
        for d in 0..self.tables.len() {
            let field = if self.widths[d] == u64::BITS {
                key >> self.shifts[d]
            } else {
                (key >> self.shifts[d]) & ((1u64 << self.widths[d]) - 1)
            };
            out |= self.tables[d][field as usize] << self.out_shifts[d];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::GroupingSet;
    use crate::spec::Dimension;
    use dc_relation::{row, DataType, Schema, Table};

    fn bind_dims(t: &Table, names: &[&str]) -> Vec<BoundDimension> {
        names
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect()
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
        let enc = encode(t.rows(), &dims).unwrap();
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
        let enc = encode(t.rows(), &dims).unwrap();
        let year_only = GroupingSet::from_dims(&[1]).unwrap();
        let mask = enc.encoder.set_mask(year_only);
        let projected = enc.encoder.decode_key(enc.keys[0] & mask);
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
        let enc = encode(t.rows(), &dims).unwrap();
        let mut keys = enc.keys.clone();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
        assert_eq!(enc.encoder.decode_key(enc.keys[1])[0], Value::Null);
    }

    #[test]
    fn falls_back_when_widths_overflow() {
        // 11 dimensions × cardinality 100 → 7 bits each = 77 > 64.
        let n = 11;
        let names: Vec<String> = (0..n).map(|d| format!("d{d}")).collect();
        let mut cols: Vec<(&str, DataType)> =
            names.iter().map(|s| (s.as_str(), DataType::Int)).collect();
        cols.push(("units", DataType::Int));
        let schema = Schema::from_pairs(&cols);
        let mut t = Table::empty(schema);
        for i in 0..100i64 {
            let mut vals: Vec<Value> = (0..n).map(|_| Value::Int(i)).collect();
            vals.push(Value::Int(1));
            t.push_unchecked(Row::new(vals));
        }
        let dims: Vec<BoundDimension> = names
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        assert!(encode(t.rows(), &dims).is_none());
    }

    #[test]
    fn falls_back_beyond_max_packed_dims() {
        let n = MAX_PACKED_DIMS + 1;
        let names: Vec<String> = (0..n).map(|d| format!("d{d}")).collect();
        let cols: Vec<(&str, DataType)> =
            names.iter().map(|s| (s.as_str(), DataType::Int)).collect();
        let schema = Schema::from_pairs(&cols);
        let t = Table::new(schema, vec![Row::new(vec![Value::Int(0); n])]).unwrap();
        let dims: Vec<BoundDimension> = names
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        assert!(encode(t.rows(), &dims).is_none());
    }

    #[test]
    fn zero_dimensions_still_keys_every_row() {
        // A plain aggregate (GROUP BY over no columns) must keep one key
        // per row so the grand-total cell sees the whole input.
        let t = sales();
        let enc = encode(t.rows(), &[]).unwrap();
        assert_eq!(enc.keys, vec![0, 0, 0]);
        assert_eq!(enc.encoder.decode_key(0), Row::new(vec![]));
    }

    #[test]
    fn empty_input_encodes_to_no_keys() {
        let t = sales();
        let empty = Table::empty(t.schema().clone());
        let dims = bind_dims(&t, &["model", "year"]);
        let enc = encode(empty.rows(), &dims).unwrap();
        assert!(enc.keys.is_empty());
        assert_eq!(enc.encoder.cardinalities(), vec![0, 0]);
    }
}
