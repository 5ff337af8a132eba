//! In-memory tables (bag relations) and the basic relational operators the
//! cube algorithms are built from: project, filter, sort, union, distinct.

use crate::error::{RelError, RelResult};
use crate::row::Row;
use crate::schema::{ColumnDef, DataType, Schema};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;

/// A bag (multiset) of rows under a schema.
///
/// `Table` is the unit of data flow throughout the reproduction: base data,
/// GROUP BY cores, and cube results are all `Table`s — the paper's central
/// point being precisely that *cubes are relations*.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// An empty table under `schema`.
    pub fn empty(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Build a table, validating every row against the schema. The rows
    /// are kept in the `Vec` they came in, not copied.
    pub fn new(schema: Schema, rows: Vec<Row>) -> RelResult<Self> {
        for row in &rows {
            check_row(&schema, row)?;
        }
        Ok(Table { schema, rows })
    }

    /// Build a table without per-row validation.
    ///
    /// Used on hot paths (cube interiors) where rows are constructed by the
    /// engine itself and already well-typed. Debug builds still assert the
    /// arity so corruption is caught in tests.
    pub fn from_validated_rows(schema: Schema, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        Table { schema, rows }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The rows, by value: for a consumer that reorders or truncates them
    /// and would otherwise copy every one.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append one row, validating arity and column types.
    pub fn push(&mut self, row: Row) -> RelResult<()> {
        check_row(&self.schema, &row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Append a row constructed by the engine; skips validation in release
    /// builds.
    pub fn push_unchecked(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.schema.len());
        self.rows.push(row);
    }

    /// Column values by name, in row order.
    pub fn column_values(&self, name: &str) -> RelResult<Vec<Value>> {
        let idx = self.schema.index_of(name)?;
        Ok(self.rows.iter().map(|r| r[idx].clone()).collect())
    }

    /// Project onto named columns (clones values).
    pub fn project(&self, names: &[&str]) -> RelResult<Table> {
        let indices = self.schema.indices_of(names)?;
        let schema = self.schema.project(names)?;
        let rows = self.rows.iter().map(|r| r.project(&indices)).collect();
        Ok(Table::from_validated_rows(schema, rows))
    }

    /// Keep rows satisfying `pred` (SQL `WHERE`: unknown is excluded, so the
    /// predicate returns plain `bool`; three-valued logic is resolved by the
    /// caller, e.g. the SQL layer maps unknown to `false`).
    pub fn filter(&self, pred: impl Fn(&Row) -> bool) -> Table {
        Table {
            schema: self.schema.clone(),
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// Sort by the named columns, ascending, using the grouping total order
    /// (`NULL` first, `ALL` last). Stable, so prior orderings survive ties.
    pub fn sort_by_columns(&self, names: &[&str]) -> RelResult<Table> {
        let indices = self.schema.indices_of(names)?;
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| Self::cmp_on(a, b, &indices));
        Ok(Table {
            schema: self.schema.clone(),
            rows,
        })
    }

    /// Sort in place by precomputed column indices (hot path for the
    /// sort-based ROLLUP algorithm).
    pub fn sort_by_indices(&mut self, indices: &[usize]) {
        self.rows.sort_by(|a, b| Self::cmp_on(a, b, indices));
    }

    fn cmp_on(a: &Row, b: &Row, indices: &[usize]) -> Ordering {
        for &i in indices {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// The rows in canonical relation order: sorted by the first
    /// `key_cols` columns under the grouping total order (`NULL` first,
    /// `ALL` last, NaN and ±0.0 each ordered by identity), with the full
    /// row as tie-break. In a cube result the leading dimension tuple —
    /// ALL pattern included — is unique, so the order is total on the key
    /// alone; the tie-break only matters for arbitrary bags. This is the
    /// canonical form differential tests compare under.
    pub fn canonical_rows(&self, key_cols: usize) -> Vec<Row> {
        let mut rows = self.rows.clone();
        canonical_sort(&mut rows, key_cols);
        rows
    }

    /// Bag union (SQL `UNION ALL`); schemas must be union-compatible, and
    /// the left schema's names win.
    pub fn union_all(&self, other: &Table) -> RelResult<Table> {
        self.schema.union_compatible(&other.schema)?;
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        Ok(Table {
            schema: self.schema.clone(),
            rows,
        })
    }

    /// Set union (SQL `UNION`): union-all then duplicate elimination.
    pub fn union(&self, other: &Table) -> RelResult<Table> {
        Ok(self.union_all(other)?.distinct())
    }

    /// Remove duplicate rows (grouping equality: NULLs and ALLs unify).
    /// Keeps the first occurrence of each row, preserving order.
    pub fn distinct(&self) -> Table {
        let mut seen = HashSet::with_capacity(self.rows.len());
        let rows = self
            .rows
            .iter()
            .filter(|r| seen.insert((*r).clone()))
            .cloned()
            .collect();
        Table {
            schema: self.schema.clone(),
            rows,
        }
    }

    /// Rows in `self` that do not appear in `other` (bag difference by
    /// distinct membership). Used to show Table 5.b — the rows a CUBE adds
    /// beyond a ROLLUP.
    pub fn difference(&self, other: &Table) -> RelResult<Table> {
        self.schema.union_compatible(&other.schema)?;
        let there: HashSet<&Row> = other.rows.iter().collect();
        Ok(Table {
            schema: self.schema.clone(),
            rows: self
                .rows
                .iter()
                .filter(|r| !there.contains(*r))
                .cloned()
                .collect(),
        })
    }

    /// Distinct values of the named column, sorted, excluding `NULL` and
    /// `ALL`. This is the paper's `ALL()` function — "the set over which the
    /// aggregate was computed" (§3.3) — evaluated against a relation.
    pub fn domain(&self, name: &str) -> RelResult<Vec<Value>> {
        let idx = self.schema.index_of(name)?;
        let mut set: Vec<Value> = self
            .rows
            .iter()
            .map(|r| r[idx].clone())
            .filter(|v| !v.is_all() && !v.is_null())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        set.sort();
        Ok(set)
    }

    /// Convert the first-class `ALL` encoding into the §3.4 minimalist
    /// encoding: every `ALL` in the named grouping columns becomes `NULL`,
    /// and one `grouping(<col>)` Bool column per grouping column is appended
    /// carrying the paper's `GROUPING()` bit.
    pub fn to_null_grouping_encoding(&self, grouping_cols: &[&str]) -> RelResult<Table> {
        let indices = self.schema.indices_of(grouping_cols)?;
        let mut schema = self.schema.clone();
        for name in grouping_cols {
            schema.push(ColumnDef::new(format!("grouping({name})"), DataType::Bool))?;
        }
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut vals = r.values().to_vec();
                let mut bits = Vec::with_capacity(indices.len());
                for &i in &indices {
                    let is_all = vals[i].is_all();
                    bits.push(Value::Bool(is_all));
                    if is_all {
                        vals[i] = Value::Null;
                    }
                }
                vals.extend(bits);
                Row::new(vals)
            })
            .collect();
        Ok(Table::from_validated_rows(schema, rows))
    }

    /// Invert [`Table::to_null_grouping_encoding`]: consume the trailing
    /// `grouping(...)` columns and restore `ALL` tokens.
    pub fn from_null_grouping_encoding(&self, grouping_cols: &[&str]) -> RelResult<Table> {
        let data_indices = self.schema.indices_of(grouping_cols)?;
        let bit_names: Vec<String> = grouping_cols
            .iter()
            .map(|n| format!("grouping({n})"))
            .collect();
        let bit_refs: Vec<&str> = bit_names.iter().map(String::as_str).collect();
        let bit_indices = self.schema.indices_of(&bit_refs)?;
        let keep: Vec<usize> = (0..self.schema.len())
            .filter(|i| !bit_indices.contains(i))
            .collect();
        let schema = Schema::new(
            keep.iter()
                .map(|&i| {
                    let c = self.schema.column_at(i).clone();
                    if data_indices.contains(&i) {
                        ColumnDef::with_all(&*c.name, c.dtype)
                    } else {
                        c
                    }
                })
                .collect(),
        )?;
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut vals = r.values().to_vec();
                for (&di, &bi) in data_indices.iter().zip(bit_indices.iter()) {
                    if vals[bi] == Value::Bool(true) {
                        vals[di] = Value::All;
                    }
                }
                Row::new(keep.iter().map(|&i| vals[i].clone()).collect())
            })
            .collect();
        Ok(Table::from_validated_rows(schema, rows))
    }
}

/// Validate a row's arity and column types against `schema`.
fn check_row(schema: &Schema, row: &Row) -> RelResult<()> {
    if row.len() != schema.len() {
        return Err(RelError::ArityMismatch {
            expected: schema.len(),
            got: row.len(),
        });
    }
    for (col, v) in schema.columns().iter().zip(row.iter()) {
        col.check(v)?;
    }
    Ok(())
}

/// Sort a bag of rows into canonical relation order: lexicographic on the
/// first `key_cols` columns (the grouping total order), full row as
/// tie-break. Shared by [`Table::canonical_rows`] and by oracles that hold
/// bare row vectors rather than tables.
pub fn canonical_sort(rows: &mut [Row], key_cols: usize) {
    rows.sort_by(|a, b| {
        for i in 0..key_cols {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        a.cmp(b)
    });
}

impl fmt::Display for Table {
    /// Renders via [`crate::display::render_table`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::display::render_table(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("color", DataType::Str),
            ("units", DataType::Int),
        ]);
        Table::new(
            schema,
            vec![
                row!["Chevy", 1994, "black", 50],
                row!["Chevy", 1994, "white", 40],
                row!["Chevy", 1995, "black", 85],
                row!["Chevy", 1995, "white", 115],
            ],
        )
        .unwrap()
    }

    #[test]
    fn push_validates_arity_and_types() {
        let mut t = sales();
        assert!(matches!(
            t.push(row!["Ford", 1994]),
            Err(RelError::ArityMismatch {
                expected: 4,
                got: 2
            })
        ));
        assert!(t.push(row!["Ford", "1994", "black", 1]).is_err());
        assert!(t.push(row!["Ford", 1994, "black", 50]).is_ok());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn all_rejected_in_base_columns() {
        let mut t = sales();
        let err = t.push(Row::new(vec![
            Value::All,
            Value::Int(1994),
            Value::str("black"),
            Value::Int(1),
        ]));
        assert!(err.is_err());
    }

    #[test]
    fn projection() {
        let p = sales().project(&["units", "model"]).unwrap();
        assert_eq!(p.schema().names(), vec!["units", "model"]);
        assert_eq!(p.rows()[0], row![50, "Chevy"]);
    }

    #[test]
    fn filter_drops_rows() {
        let t = sales();
        let idx = t.schema().index_of("year").unwrap();
        let f = t.filter(|r| r[idx] == Value::Int(1995));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn sort_is_stable_and_all_last() {
        let mut t = sales();
        t.push(Row::new(vec![
            Value::str("Chevy"),
            Value::Int(1994),
            Value::Null,
            Value::Int(7),
        ]))
        .unwrap();
        let sorted = t.sort_by_columns(&["year", "color"]).unwrap();
        // NULL color sorts first within 1994.
        assert_eq!(sorted.rows()[0][2], Value::Null);
    }

    #[test]
    fn union_all_and_distinct() {
        let t = sales();
        let u = t.union_all(&t).unwrap();
        assert_eq!(u.len(), 8);
        assert_eq!(u.distinct().len(), 4);
        assert_eq!(t.union(&t).unwrap().len(), 4);
    }

    #[test]
    fn union_rejects_incompatible() {
        let t = sales();
        let other = Table::empty(Schema::from_pairs(&[("x", DataType::Int)]));
        assert!(t.union_all(&other).is_err());
    }

    #[test]
    fn difference() {
        let t = sales();
        let subset = t.filter(|r| r[1] == Value::Int(1994));
        let diff = t.difference(&subset).unwrap();
        assert_eq!(diff.len(), 2);
        assert!(diff.rows().iter().all(|r| r[1] == Value::Int(1995)));
    }

    #[test]
    fn domain_excludes_tokens() {
        let schema = Schema::new(vec![
            ColumnDef::with_all("model", DataType::Str),
            ColumnDef::new("units", DataType::Int),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                row!["Chevy", 1],
                Row::new(vec![Value::All, Value::Int(3)]),
                row!["Ford", 2],
                Row::new(vec![Value::Null, Value::Int(9)]),
                row!["Chevy", 4],
            ],
        )
        .unwrap();
        assert_eq!(
            t.domain("model").unwrap(),
            vec![Value::str("Chevy"), Value::str("Ford")]
        );
    }

    #[test]
    fn null_grouping_encoding_round_trip() {
        // Build a tiny "cube-like" table with ALL tokens.
        let schema = Schema::new(vec![
            ColumnDef::with_all("model", DataType::Str),
            ColumnDef::with_all("year", DataType::Int),
            ColumnDef::new("units", DataType::Int),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                row!["Chevy", 1994, 90],
                Row::new(vec![Value::str("Chevy"), Value::All, Value::Int(290)]),
                Row::new(vec![Value::All, Value::All, Value::Int(510)]),
            ],
        )
        .unwrap();
        let enc = t.to_null_grouping_encoding(&["model", "year"]).unwrap();
        assert_eq!(enc.schema().len(), 5);
        // Figure-4-style check: the global row is (NULL, NULL, v, TRUE, TRUE).
        let global = &enc.rows()[2];
        assert_eq!(global[0], Value::Null);
        assert_eq!(global[1], Value::Null);
        assert_eq!(global[3], Value::Bool(true));
        assert_eq!(global[4], Value::Bool(true));
        // And NULL-vs-ALL is now distinguishable only via the grouping bits,
        // exactly the §3.4 design. Round-trip restores the original.
        let back = enc.from_null_grouping_encoding(&["model", "year"]).unwrap();
        assert_eq!(back.rows(), t.rows());
    }

    #[test]
    fn canonical_rows_sorts_by_key_prefix_with_grouping_order() {
        let schema = Schema::new(vec![
            ColumnDef::with_all("model", DataType::Str),
            ColumnDef::new("units", DataType::Int),
        ])
        .unwrap();
        let t = Table::new(
            schema,
            vec![
                Row::new(vec![Value::All, Value::Int(3)]),
                row!["Ford", 2],
                Row::new(vec![Value::Null, Value::Int(0)]),
                row!["Chevy", 1],
            ],
        )
        .unwrap();
        let canon = t.canonical_rows(1);
        // Grouping total order: NULL first, then data values, ALL last.
        assert_eq!(canon[0][0], Value::Null);
        assert_eq!(canon[1][0], Value::str("Chevy"));
        assert_eq!(canon[2][0], Value::str("Ford"));
        assert_eq!(canon[3][0], Value::All);
        // Duplicate keys fall back to the full row, so the order is total.
        let mut dup = vec![row!["x", 2], row!["x", 1]];
        canonical_sort(&mut dup, 1);
        assert_eq!(dup[0][1], Value::Int(1));
    }
}
