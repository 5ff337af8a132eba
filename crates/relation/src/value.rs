//! The value domain, including the paper's `ALL` pseudo-value.
//!
//! §3.3 of the paper: "Each ALL value really represents a set — the set over
//! which the aggregate was computed." We follow the paper's pragmatic design:
//! `ALL` is a token (a non-value, like `NULL`) stored in grouping columns of
//! super-aggregate rows, the string `"ALL"` is for display, and the
//! [`Value::grouping`] predicate (the paper's `GROUPING()` function) tells
//! aggregate rows apart from data rows. The set a given `ALL` denotes can be
//! recovered from the relation it appears in; `datacube::addressing::all_set`
//! implements the paper's `ALL()` function that way.

use crate::date::Date;
use crate::schema::DataType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single relational value.
///
/// `Value` implements `Eq`, `Ord`, and `Hash` with *grouping semantics*:
/// `Null == Null` and `All == All`, so values can be used directly as
/// group-by keys (SQL's `GROUP BY` also treats NULLs as one group). The
/// three-valued SQL comparison used by `WHERE` lives in [`Value::sql_cmp`].
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL: absent / unknown.
    Null,
    /// The paper's ALL token: "the set over which the aggregate was
    /// computed". Appears only in grouping columns of super-aggregate rows.
    All,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// A string behind a thin, shared handle: one pointer, so a `Value` is
    /// 16 bytes, and cloning it is a reference-count increment.
    Str(Arc<Box<str>>),
    Date(Date),
}

const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// A string value. Each call allocates its own handle; code that
    /// produces the same string many times (a CSV column, a dictionary)
    /// clones one `Value` instead.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::new(Box::from(s.as_ref())))
    }

    /// The paper's `GROUPING()` predicate: true iff this is an `ALL` value
    /// (or, under the §3.4 minimalist encoding, would have been one).
    pub fn grouping(&self) -> bool {
        matches!(self, Value::All)
    }

    /// True iff this is the `ALL` token.
    pub fn is_all(&self) -> bool {
        matches!(self, Value::All)
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The dynamic type of this value, if it has one. `Null` and `All` are
    /// typeless tokens and return `None`.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null | Value::All => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Numeric view: `Int` and `Float` (and `Bool` as 0/1) coerce to `f64`.
    /// Used by the aggregate functions, which per the paper skip `NULL` and
    /// `ALL` ("ALL, like NULL, does not participate in any aggregate except
    /// COUNT()", §3.3).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Null | Value::All | Value::Str(_) | Value::Date(_) => None,
        }
    }

    /// Integer view without loss: `Int` only.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Null
            | Value::All
            | Value::Bool(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Date(_) => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Null
            | Value::All
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Float(_)
            | Value::Date(_) => None,
        }
    }

    /// Date view.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            Value::Null
            | Value::All
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_) => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Null
            | Value::All
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Date(_) => None,
        }
    }

    /// Three-valued SQL comparison (`WHERE` semantics): comparing with
    /// `NULL` yields `None` (unknown). Comparing with `ALL` also yields
    /// `None`: the paper's set interpretation would make `ALL = x` a set
    /// membership question, which we deliberately do not answer in the
    /// scalar comparator — use `GROUPING()` to select aggregate rows.
    ///
    /// Numeric types compare across `Int`/`Float`; any other cross-type
    /// comparison is `None` (SQL would raise a type error at plan time; the
    /// SQL layer checks types before evaluation).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) | (All, _) | (_, All) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.total_cmp(b)),
            (Int(a), Float(b)) => Some((*a as f64).total_cmp(b)),
            (Float(a), Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            // Remaining cross-type pairs are unknown; new variants are
            // still caught at compile time by `type_rank`, which matches
            // exhaustively. cube-lint: allow(wildcard, cross-type pair fallback; type_rank stays exhaustive)
            _ => None,
        }
    }

    /// Three-valued SQL equality. `None` means unknown (NULL involved).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Rank used to give `Value` a total order across variants. `ALL` sorts
    /// *after* every real value so that super-aggregate rows land at the end
    /// of each group in sorted output — matching the paper's report layouts
    /// (Table 5.a lists detail rows before their `ALL` sub-total).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // Int and Float interleave numerically
            Value::Str(_) => 3,
            Value::Date(_) => 4,
            Value::All => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order with grouping semantics: `Null` first, `All` last,
    /// numerics interleaved, same-type values in their natural order.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) | (All, All) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            // Cross-type pairs order by rank; `type_rank` is exhaustive,
            // so a new variant cannot silently fall through here.
            // cube-lint: allow(wildcard, cross-type pair fallback; type_rank stays exhaustive)
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// Pre-mix for numeric hashes. Small integers as `f64` bits differ only
/// in the exponent and top mantissa bits (the low ~40 bits are all
/// zero), and the multiplicative hashers used for group maps (Fx) never
/// move high input bits downward — without this mix, every small-int key
/// shares its bucket-index bits and hash tables degrade to one linear
/// probe chain (interning a cardinality-1000 integer dimension was ~10×
/// slower than a cardinality-10 one). The xor-shift/multiply/xor-shift
/// finalizer (Murmur3's) makes every output bit depend on every input
/// bit; it is a bijection applied identically to the Int and Float arms,
/// so the cross-type Eq/Hash contract is kept.
#[inline]
fn mix_numeric(bits: u64) -> u64 {
    let mut b = bits ^ (bits >> 33);
    b = b.wrapping_mul(0xff51_afd7_ed55_8ccd);
    b ^ (b >> 33)
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::All => state.write_u8(5),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(2);
                // Hash Int and Float identically when numerically equal so
                // that the Eq/Hash contract holds across the coercion.
                mix_numeric((*i as f64).to_bits()).hash(state);
            }
            Value::Float(f) => {
                state.write_u8(2);
                mix_numeric(f.to_bits()).hash(state);
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Date(d) => {
                state.write_u8(4);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::All => write!(f, "ALL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::new(v.into_boxed_str()))
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn grouping_predicate_matches_paper() {
        assert!(Value::All.grouping());
        assert!(!Value::Null.grouping());
        assert!(!Value::Int(1).grouping());
    }

    #[test]
    fn grouping_equality_for_tokens() {
        // Group-by key semantics: NULL groups with NULL, ALL with ALL.
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::All, Value::All);
        assert_ne!(Value::Null, Value::All);
    }

    #[test]
    fn sql_comparison_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::All.sql_eq(&Value::Int(3)), None);
        assert_eq!(Value::Int(3).sql_eq(&Value::Int(3)), Some(true));
        assert_eq!(Value::Int(3).sql_eq(&Value::Float(3.0)), Some(true));
        assert_eq!(
            Value::str("a").sql_cmp(&Value::str("b")),
            Some(Ordering::Less)
        );
        // Cross-type comparisons are unknown (caught at plan time upstream).
        assert_eq!(Value::Int(1).sql_eq(&Value::str("1")), None);
    }

    #[test]
    fn all_sorts_last_null_first() {
        let mut vs = [
            Value::All,
            Value::str("white"),
            Value::Null,
            Value::Int(2),
            Value::str("black"),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(*vs.last().unwrap(), Value::All);
    }

    #[test]
    fn numeric_cross_type_eq_hash_contract() {
        let a = Value::Int(42);
        let b = Value::Float(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan); // total_cmp: NaN groups with itself
        assert_eq!(hash_of(&nan), hash_of(&nan));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::All.to_string(), "ALL");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(290).to_string(), "290");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::str("Chevy").to_string(), "Chevy");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
    }

    #[test]
    fn dtype_of_tokens_is_none() {
        assert_eq!(Value::Null.dtype(), None);
        assert_eq!(Value::All.dtype(), None);
        assert_eq!(Value::Int(1).dtype(), Some(DataType::Int));
    }

    #[test]
    fn as_f64_coercions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::All.as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }
}
