//! Decorations (§3.5).
//!
//! "If a decoration column (or column value) is functionally dependent on
//! the aggregation columns, then it may be included in the SELECT answer
//! list. ... If the aggregate tuple functionally defines the decoration
//! value, then the value appears in the resulting tuple. Otherwise the
//! decoration field is NULL." Table 7's example: `continent` is determined
//! by `nation`, so it appears on rows where `nation` is concrete and is
//! NULL on rows where `nation` is `ALL`.

use crate::error::CubeResult;
use dc_relation::{ColumnDef, DataType, Row, Table, Value};

/// Append a decoration column to a cube relation.
///
/// `determinants` are the grouping columns the decoration functionally
/// depends on; `f` maps their values to the decoration value (`None` →
/// `NULL`, e.g. an unknown nation). On any row where a determinant is
/// `ALL` (the tuple no longer functionally defines the decoration), the
/// decoration is `NULL`, per §3.5.
pub fn decorate(
    cube: &Table,
    determinants: &[&str],
    name: &str,
    dtype: DataType,
    f: impl Fn(&[Value]) -> Option<Value>,
) -> CubeResult<Table> {
    let det_names: Vec<&str> = determinants.to_vec();
    let det_idx = cube.schema().indices_of(&det_names)?;
    let mut schema = cube.schema().clone();
    schema.push(ColumnDef::new(name, dtype))?;

    let mut out = Table::empty(schema);
    for row in cube.rows() {
        let det_vals: Vec<Value> = det_idx.iter().map(|&i| row[i].clone()).collect();
        let decoration = if det_vals.iter().any(|v| v.is_all() || v.is_null()) {
            Value::Null
        } else {
            f(&det_vals).unwrap_or(Value::Null)
        };
        out.push_unchecked(Row::new(
            row.values()
                .iter()
                .cloned()
                .chain(std::iter::once(decoration))
                .collect(),
        ));
    }
    Ok(out)
}

/// Check a functional dependency `determinants → dependent` over a base
/// table: every distinct determinant tuple maps to at most one dependent
/// value. §3.5's rule requires this before a decoration is legal. The
/// warehouse generators' tests check their hierarchies with it; the SQL
/// layer checks decorated SELECT lists with its own pass over the
/// evaluated dimension values (`check_decoration` in `dc-sql`).
pub fn functionally_determines(
    table: &Table,
    determinants: &[&str],
    dependent: &str,
) -> CubeResult<bool> {
    let det_idx = table.schema().indices_of(determinants)?;
    let dep_idx = table.schema().index_of(dependent)?;
    let mut seen: std::collections::HashMap<Row, &Value> = std::collections::HashMap::new();
    for row in table.rows() {
        let key = row.project(&det_idx);
        match seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if **e.get() != row[dep_idx] {
                    return Ok(false);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(&row[dep_idx]);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AggSpec, Dimension};
    use crate::CubeQuery;
    use dc_aggregate::builtin;
    use dc_relation::{row, Schema};

    fn weather_cube() -> Table {
        let schema = Schema::from_pairs(&[
            ("day", DataType::Str),
            ("nation", DataType::Str),
            ("temp", DataType::Int),
        ]);
        let mut t = Table::empty(schema);
        for (d, n, temp) in [
            ("25/1/1995", "USA", 28),
            ("25/1/1995", "Mexico", 41),
            ("26/1/1995", "USA", 37),
            ("26/1/1995", "Japan", 48),
        ] {
            t.push(row![d, n, temp]).unwrap();
        }
        CubeQuery::new()
            .dimensions(vec![Dimension::column("day"), Dimension::column("nation")])
            .aggregate(AggSpec::new(builtin("MAX").unwrap(), "temp").with_name("max(Temp)"))
            .cube(&t)
            .unwrap()
    }

    fn continent_of(vals: &[Value]) -> Option<Value> {
        match vals[0].as_str()? {
            "USA" | "Mexico" => Some(Value::str("North America")),
            "Japan" => Some(Value::str("Asia")),
            _ => None,
        }
    }

    #[test]
    fn table_7_decoration_semantics() {
        let cube = weather_cube();
        let decorated =
            decorate(&cube, &["nation"], "continent", DataType::Str, continent_of).unwrap();
        let nation_i = 1;
        let cont_i = 3;
        for row in decorated.rows() {
            if row[nation_i].is_all() {
                // "the continent is not specified unless nation is":
                // (25/1/1995, ALL, 41, NULL) and (ALL, ALL, 48, NULL).
                assert_eq!(row[cont_i], Value::Null, "{row}");
            } else {
                assert_ne!(row[cont_i], Value::Null, "{row}");
            }
        }
        // Spot-check Table 7's first two rows.
        let usa_rows: Vec<_> = decorated
            .rows()
            .iter()
            .filter(|r| r[nation_i] == Value::str("USA"))
            .collect();
        assert!(usa_rows
            .iter()
            .all(|r| r[cont_i] == Value::str("North America")));
    }

    #[test]
    fn unknown_determinant_value_decorates_null() {
        let cube = weather_cube();
        let decorated = decorate(&cube, &["nation"], "continent", DataType::Str, |vals| {
            if vals[0] == Value::str("USA") {
                Some(Value::str("North America"))
            } else {
                None // pretend the dimension table lacks the others
            }
        })
        .unwrap();
        let mexico = decorated
            .rows()
            .iter()
            .find(|r| r[1] == Value::str("Mexico"))
            .unwrap();
        assert_eq!(mexico[3], Value::Null);
    }

    #[test]
    fn fd_checker() {
        let schema = Schema::from_pairs(&[("nation", DataType::Str), ("continent", DataType::Str)]);
        let good = Table::new(
            schema.clone(),
            vec![
                row!["USA", "North America"],
                row!["USA", "North America"],
                row!["Japan", "Asia"],
            ],
        )
        .unwrap();
        assert!(functionally_determines(&good, &["nation"], "continent").unwrap());
        let bad = Table::new(
            schema,
            vec![row!["USA", "North America"], row!["USA", "Asia"]],
        )
        .unwrap();
        assert!(!functionally_determines(&bad, &["nation"], "continent").unwrap());
    }
}
