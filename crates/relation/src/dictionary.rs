//! Dictionary (hashed symbol table) encoding of dimension values.
//!
//! §5 of the paper, quoting Graefe's aggregation tips: "If the aggregation
//! values are large strings, it may be wise to keep a hashed symbol table
//! that maps each string to an integer so that the aggregate values are
//! small. ... the values become dense and the aggregates can be stored as an
//! N-dimensional array." [`SymbolTable`] is that structure; the dense-array
//! cube algorithm in `datacube::algorithm::array` builds on it.

use crate::fx::FxHashMap;
use crate::value::Value;

/// Size of the direct-index integer fast lane: a window of
/// `INT_WINDOW` consecutive integers centred on the first one seen.
/// Integer dimensions are the common case (years, ids, bucketed
/// measures) and their codes cluster in a narrow range, so most interns
/// resolve with one array load instead of a hash probe. Values outside
/// the window — and every non-integer value — take the hash-map lane.
const INT_WINDOW: i64 = 8192;

/// Maps each distinct [`Value`] of one dimension to a dense code
/// `0..cardinality`, in first-seen order.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    codes: FxHashMap<Value, u32>,
    values: Vec<Value>,
    /// Integer fast lane: `int_codes[v - int_lo]` holds `code + 1`
    /// (0 = unseen) for `v` in `[int_lo, int_lo + INT_WINDOW)`. Empty
    /// until the first in-lane integer is interned.
    int_lo: i64,
    int_codes: Vec<u32>,
}

/// The fast-lane key of `v`, if it has one: an `Int`, or a `Float` whose
/// bits are exactly an integer's `as f64` form (those compare equal under
/// [`Value`]'s `total_cmp`-based `Eq`, so they must share a code; e.g.
/// `-0.0` is *not* equal to `0` and stays on the hash lane).
#[inline]
fn int_lane_key(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Float(f) => {
            let i = *f as i64;
            (f.to_bits() == (i as f64).to_bits()).then_some(i)
        }
        // cube-lint: allow(wildcard, non-numeric variants have no integer lane key by definition)
        _ => None,
    }
}

impl SymbolTable {
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Code for `v`, assigning the next dense code on first sight.
    pub fn intern(&mut self, v: &Value) -> u32 {
        if let Some(i) = int_lane_key(v) {
            if self.int_codes.is_empty() {
                self.int_lo = i.saturating_sub(INT_WINDOW / 2);
                self.int_codes = vec![0u32; INT_WINDOW as usize];
            }
            let off = i.wrapping_sub(self.int_lo);
            if (0..INT_WINDOW).contains(&off) {
                let entry = &mut self.int_codes[off as usize];
                if *entry != 0 {
                    return *entry - 1;
                }
                let c =
                    // cube-lint: allow(panic, documented capacity limit of 2^32 distinct dimension values)
                    u32::try_from(self.values.len()).expect("dimension cardinality exceeds u32");
                *entry = c + 1;
                self.values.push(v.clone());
                return c;
            }
        }
        if let Some(&c) = self.codes.get(v) {
            return c;
        }
        // cube-lint: allow(panic, documented capacity limit of 2^32 distinct dimension values)
        let c = u32::try_from(self.values.len()).expect("dimension cardinality exceeds u32");
        self.codes.insert(v.clone(), c);
        self.values.push(v.clone());
        c
    }

    /// Code for `v` if already interned.
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        if let Some(i) = int_lane_key(v) {
            let off = i.wrapping_sub(self.int_lo);
            if !self.int_codes.is_empty() && (0..INT_WINDOW).contains(&off) {
                let entry = self.int_codes[off as usize];
                return (entry != 0).then(|| entry - 1);
            }
        }
        self.codes.get(v).copied()
    }

    /// The value behind a code.
    pub fn decode(&self, code: u32) -> Option<&Value> {
        self.values.get(code as usize)
    }

    /// Number of distinct values seen — the dimension's cardinality `C_i`.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All interned values in code order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// Dictionary-encode several columns of rows at once: returns one
/// [`SymbolTable`] per column and the coded rows. The coded form is what the
/// dense-array cube indexes with.
pub fn encode_columns(rows: &[crate::Row], indices: &[usize]) -> (Vec<SymbolTable>, Vec<Vec<u32>>) {
    let mut tables: Vec<SymbolTable> = indices.iter().map(|_| SymbolTable::new()).collect();
    let coded = rows
        .iter()
        .map(|row| {
            indices
                .iter()
                .zip(tables.iter_mut())
                .map(|(&i, t)| t.intern(&row[i]))
                .collect()
        })
        .collect();
    (tables, coded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn intern_is_dense_and_stable() {
        let mut t = SymbolTable::new();
        let a = t.intern(&Value::str("Chevy"));
        let b = t.intern(&Value::str("Ford"));
        let a2 = t.intern(&Value::str("Chevy"));
        assert_eq!((a, b, a2), (0, 1, 0));
        assert_eq!(t.cardinality(), 2);
        assert_eq!(t.decode(1), Some(&Value::str("Ford")));
        assert_eq!(t.code_of(&Value::str("Dodge")), None);
    }

    #[test]
    fn interns_any_value_type() {
        let mut t = SymbolTable::new();
        t.intern(&Value::Int(1994));
        t.intern(&Value::Int(1995));
        t.intern(&Value::Null); // NULL is a groupable key
        assert_eq!(t.cardinality(), 3);
    }

    #[test]
    fn int_fast_lane_coalesces_with_equal_floats() {
        // Int(5) == Float(5.0) under Value's Eq, so the integer fast
        // lane must hand them the same code — whether the Int or the
        // Float arrives first, and likewise via code_of.
        let mut t = SymbolTable::new();
        let a = t.intern(&Value::Int(5));
        let b = t.intern(&Value::Float(5.0));
        assert_eq!(a, b);
        assert_eq!(t.cardinality(), 1);
        assert_eq!(t.code_of(&Value::Float(5.0)), Some(a));

        let mut t = SymbolTable::new();
        let a = t.intern(&Value::Float(7.0));
        let b = t.intern(&Value::Int(7));
        assert_eq!(a, b);
        assert_eq!(t.code_of(&Value::Int(7)), Some(a));

        // Values far outside the window spill to the hash lane but must
        // still coalesce across the Int/Float boundary.
        let far = 40 * INT_WINDOW;
        let c = t.intern(&Value::Int(far));
        assert_eq!(t.intern(&Value::Float(far as f64)), c);
        assert_ne!(a, c);

        // -0.0 == 0.0 is *false* under total_cmp: distinct codes, and
        // the hash-lane entry for -0.0 must not shadow the lane's 0.
        let mut t = SymbolTable::new();
        let zero = t.intern(&Value::Int(0));
        let neg = t.intern(&Value::Float(-0.0));
        assert_ne!(zero, neg);
        assert_eq!(t.cardinality(), 2);
        assert_eq!(t.code_of(&Value::Float(0.0)), Some(zero));
        assert_eq!(t.code_of(&Value::Float(-0.0)), Some(neg));

        // A non-integral float never takes the lane and never collides.
        let mut t = SymbolTable::new();
        let half = t.intern(&Value::Float(0.5));
        assert_ne!(t.intern(&Value::Int(0)), half);
        assert_eq!(t.cardinality(), 2);
    }

    #[test]
    fn encode_columns_per_dimension() {
        let rows = vec![
            row!["Chevy", 1994, "black"],
            row!["Chevy", 1995, "white"],
            row!["Ford", 1994, "black"],
        ];
        let (tables, coded) = encode_columns(&rows, &[0, 2]);
        assert_eq!(tables[0].cardinality(), 2); // Chevy, Ford
        assert_eq!(tables[1].cardinality(), 2); // black, white
        assert_eq!(coded, vec![vec![0, 0], vec![0, 1], vec![1, 0]]);
    }
}
