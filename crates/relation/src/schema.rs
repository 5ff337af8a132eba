//! Schemas: ordered, named, typed columns.

use crate::error::{RelError, RelResult};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Declared column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Date,
}

impl DataType {
    /// True if a value of type `other` may be stored in a column of this
    /// type. Ints widen to Float; nothing else coerces implicitly.
    pub fn accepts(self, other: DataType) -> bool {
        self == other || (self == DataType::Float && other == DataType::Int)
    }

    /// True for the numeric types.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// One column of a schema.
///
/// `all_allowed` mirrors the paper's proposed `ALL [NOT] ALLOWED` column
/// attribute (§3.3): cube results set it on their grouping columns; base
/// tables leave it off, and inserting an `ALL` into such a column is an
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: Arc<str>,
    pub dtype: DataType,
    pub all_allowed: bool,
}

impl ColumnDef {
    /// A normal data column: `ALL NOT ALLOWED`.
    pub fn new(name: impl AsRef<str>, dtype: DataType) -> Self {
        ColumnDef {
            name: Arc::from(name.as_ref()),
            dtype,
            all_allowed: false,
        }
    }

    /// A grouping column of an aggregate result: `ALL ALLOWED`.
    pub fn with_all(name: impl AsRef<str>, dtype: DataType) -> Self {
        ColumnDef {
            name: Arc::from(name.as_ref()),
            dtype,
            all_allowed: true,
        }
    }

    /// Check a single value against this column's declaration.
    pub fn check(&self, v: &Value) -> RelResult<()> {
        match v {
            Value::Null => Ok(()),
            Value::All if self.all_allowed => Ok(()),
            Value::All => Err(RelError::Invalid(format!(
                "column '{}' is ALL NOT ALLOWED",
                self.name
            ))),
            other => {
                #[expect(
                    clippy::expect_used,
                    reason = "Null and All were consumed by the arms above"
                )]
                let got = other.dtype().expect("non-token value has a type");
                if self.dtype.accepts(got) {
                    Ok(())
                } else {
                    Err(RelError::TypeMismatch {
                        expected: format!("{} for column '{}'", self.dtype, self.name),
                        got: got.to_string(),
                    })
                }
            }
        }
    }
}

/// An ordered set of uniquely named columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<ColumnDef>) -> RelResult<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(RelError::DuplicateColumn(c.name.to_string()));
            }
        }
        Ok(Schema { columns })
    }

    /// Convenience constructor from `(name, type)` pairs.
    #[expect(
        clippy::expect_used,
        reason = "documented contract for inline schema literals"
    )]
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| ColumnDef::new(n, *t)).collect())
            .expect("schema literals must not repeat column names")
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the named column (case-sensitive).
    pub fn index_of(&self, name: &str) -> RelResult<usize> {
        self.columns
            .iter()
            .position(|c| &*c.name == name)
            .ok_or_else(|| RelError::UnknownColumn(name.to_string()))
    }

    /// The named column's definition.
    pub fn column(&self, name: &str) -> RelResult<&ColumnDef> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Column definition by position.
    pub fn column_at(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }

    /// Resolve several names to indices at once.
    pub fn indices_of(&self, names: &[&str]) -> RelResult<Vec<usize>> {
        names.iter().map(|n| self.index_of(n)).collect()
    }

    /// A new schema containing the given columns, in the given order.
    pub fn project(&self, names: &[&str]) -> RelResult<Schema> {
        let cols = names
            .iter()
            .map(|n| self.column(n).cloned())
            .collect::<RelResult<Vec<_>>>()?;
        Schema::new(cols)
    }

    /// Two schemas are union-compatible when arities and column types match
    /// pairwise (names may differ; the left names win, as in SQL).
    pub fn union_compatible(&self, other: &Schema) -> RelResult<()> {
        if self.len() != other.len() {
            return Err(RelError::SchemaMismatch(format!(
                "arity {} vs {}",
                self.len(),
                other.len()
            )));
        }
        for (a, b) in self.columns.iter().zip(other.columns.iter()) {
            if a.dtype != b.dtype {
                return Err(RelError::SchemaMismatch(format!(
                    "column '{}': {} vs {}",
                    a.name, a.dtype, b.dtype
                )));
            }
        }
        Ok(())
    }

    /// Append a column, rejecting duplicates.
    pub fn push(&mut self, col: ColumnDef) -> RelResult<()> {
        if self.columns.iter().any(|c| c.name == col.name) {
            return Err(RelError::DuplicateColumn(col.name.to_string()));
        }
        self.columns.push(col);
        Ok(())
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| &*c.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("color", DataType::Str),
            ("units", DataType::Int),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("year").unwrap(), 1);
        assert!(matches!(
            s.index_of("nope"),
            Err(RelError::UnknownColumn(_))
        ));
        assert_eq!(s.indices_of(&["color", "model"]).unwrap(), vec![2, 0]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("a", DataType::Str),
        ])
        .unwrap_err();
        assert!(matches!(err, RelError::DuplicateColumn(_)));
    }

    #[test]
    fn all_allowed_enforced() {
        let plain = ColumnDef::new("model", DataType::Str);
        let cube = ColumnDef::with_all("model", DataType::Str);
        assert!(plain.check(&Value::All).is_err());
        assert!(cube.check(&Value::All).is_ok());
        assert!(plain.check(&Value::Null).is_ok());
        assert!(plain.check(&Value::str("Chevy")).is_ok());
        assert!(plain.check(&Value::Int(1)).is_err());
    }

    #[test]
    fn int_widens_to_float() {
        let c = ColumnDef::new("x", DataType::Float);
        assert!(c.check(&Value::Int(1)).is_ok());
        let c2 = ColumnDef::new("x", DataType::Int);
        assert!(c2.check(&Value::Float(1.0)).is_err());
    }

    #[test]
    fn projection_preserves_order_given() {
        let s = sample();
        let p = s.project(&["units", "model"]).unwrap();
        assert_eq!(p.names(), vec!["units", "model"]);
    }

    #[test]
    fn union_compatibility() {
        let s = sample();
        assert!(s.union_compatible(&sample()).is_ok());
        let fewer = Schema::from_pairs(&[("a", DataType::Str)]);
        assert!(s.union_compatible(&fewer).is_err());
        let renamed = Schema::from_pairs(&[
            ("m", DataType::Str),
            ("y", DataType::Int),
            ("c", DataType::Str),
            ("u", DataType::Int),
        ]);
        assert!(s.union_compatible(&renamed).is_ok());
        let retyped = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Str),
            ("color", DataType::Str),
            ("units", DataType::Int),
        ]);
        assert!(s.union_compatible(&retyped).is_err());
    }
}
