//! Rows: fixed-arity tuples of values.

use crate::value::Value;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// One tuple: an immutable, shared slice of values. Cloning a row is a
/// reference-count increment, so copying a table's row list (a write
/// publishing a new snapshot, a filter, a sort) copies 16-byte handles,
/// not values. Construction stays ergonomic (`row![...]`,
/// `From<Vec<Value>>`, `collect()`), and rows get grouping-key
/// `Eq`/`Ord`/`Hash` for free via `Value`'s semantics.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Row(Arc<[Value]>);

const _: () = assert!(std::mem::size_of::<Row>() == 16);

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row(values.into())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// Project this row onto the given column indices, cloning values.
    pub fn project(&self, indices: &[usize]) -> Row {
        indices.iter().map(|&i| self.0[i].clone()).collect()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

/// Copy-on-write: a row shared with another clone is copied whole before
/// the first write through it, so `row[i] = v` costs O(arity) once.
impl IndexMut<usize> for Row {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        &mut Arc::make_mut(&mut self.0)[idx]
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row::new(v)
    }
}

/// A row cloned out of a scratch buffer: one allocation, exactly sized.
impl From<&[Value]> for Row {
    fn from(values: &[Value]) -> Self {
        Row(values.into())
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Row(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Row {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Display for Row {
    /// Tuple-style rendering: `(a, b, c)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Build a [`Row`] from a comma-separated list of expressions convertible
/// into [`Value`].
///
/// ```
/// use dc_relation::{row, Value};
/// let r = row!["Chevy", 1994, "black", 50];
/// assert_eq!(r[1], Value::Int(1994));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use crate::{Row, Value};

    #[test]
    fn row_macro_converts_literals() {
        let r = row!["Chevy", 1994, 2.5, true];
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], Value::str("Chevy"));
        assert_eq!(r[1], Value::Int(1994));
        assert_eq!(r[2], Value::Float(2.5));
        assert_eq!(r[3], Value::Bool(true));
    }

    #[test]
    fn projection_reorders_and_clones() {
        let r = row!["a", 1, "b"];
        let p = r.project(&[2, 0]);
        assert_eq!(p, row!["b", "a"]);
        assert_eq!(r.len(), 3); // original untouched
    }

    #[test]
    fn rows_group_with_token_semantics() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Row::new(vec![Value::All, Value::Null]));
        set.insert(Row::new(vec![Value::All, Value::Null]));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn display_is_tuple_like() {
        let r = Row::new(vec![Value::All, Value::Int(941)]);
        assert_eq!(r.to_string(), "(ALL, 941)");
    }
}
