//! Scalar function registry.
//!
//! §2's histogram problem needs functions over grouping columns —
//! `Day(Time)`, `Nation(Latitude, Longitude)` — and the paper assumes
//! users can supply them ("If a Nation() function maps latitude and
//! longitude into the name of the country..."). The built-ins here cover
//! the calendar family; domain functions like `NATION` are registered by
//! the application (see `dc-warehouse`).

use crate::error::{SqlError, SqlResult};
use dc_relation::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The boxed implementation of a scalar function.
type ScalarImpl = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// A scalar function: a pure mapping over values with a declared return
/// type. NULL/ALL inputs yield NULL unless the function says otherwise —
/// matching how grouping levels treat tokens.
#[derive(Clone)]
pub struct ScalarFn {
    pub name: Arc<str>,
    pub ret: DataType,
    pub arity: usize,
    f: ScalarImpl,
}

impl ScalarFn {
    pub fn new(
        name: impl AsRef<str>,
        arity: usize,
        ret: DataType,
        f: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> Self {
        ScalarFn {
            name: Arc::from(name.as_ref().to_uppercase().as_str()),
            ret,
            arity,
            f: Arc::new(f),
        }
    }

    /// Apply with token propagation: any NULL/ALL argument short-circuits
    /// to NULL.
    pub fn call(&self, args: &[Value]) -> Value {
        if args.iter().any(|v| v.is_null() || v.is_all()) {
            return Value::Null;
        }
        (self.f)(args)
    }
}

/// Case-insensitive scalar function registry.
#[derive(Clone, Default)]
pub struct ScalarRegistry {
    map: HashMap<String, ScalarFn>,
}

impl ScalarRegistry {
    pub fn new() -> Self {
        ScalarRegistry::default()
    }

    pub fn register(&mut self, f: ScalarFn) -> SqlResult<()> {
        let key = f.name.to_uppercase();
        if self.map.contains_key(&key) {
            return Err(SqlError::Plan(format!(
                "scalar function already registered: {key}"
            )));
        }
        self.map.insert(key, f);
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<&ScalarFn> {
        self.map.get(&name.to_uppercase())
    }

    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(&name.to_uppercase())
    }
}

/// The built-in calendar and utility scalars.
pub fn builtins() -> ScalarRegistry {
    let mut r = ScalarRegistry::new();
    let date_fns: Vec<ScalarFn> = vec![
        // DAY(ts): the timestamp truncated to midnight — "group times into
        // days" (§2).
        ScalarFn::new("DAY", 1, DataType::Date, |args| match args[0].as_date() {
            Some(d) => Value::Date(dc_relation::Date::ymd(d.year(), d.month(), d.day())),
            None => Value::Null,
        }),
        ScalarFn::new("MONTH", 1, DataType::Int, |args| match args[0].as_date() {
            Some(d) => Value::Int(i64::from(d.month())),
            None => Value::Null,
        }),
        ScalarFn::new("YEAR", 1, DataType::Int, |args| match args[0].as_date() {
            Some(d) => Value::Int(i64::from(d.year())),
            None => Value::Null,
        }),
        ScalarFn::new("QUARTER", 1, DataType::Int, |args| {
            match args[0].as_date() {
                Some(d) => Value::Int(i64::from(d.quarter())),
                None => Value::Null,
            }
        }),
        ScalarFn::new("WEEK", 1, DataType::Int, |args| match args[0].as_date() {
            Some(d) => Value::Int(i64::from(d.week())),
            None => Value::Null,
        }),
        ScalarFn::new("WEEKDAY", 1, DataType::Int, |args| {
            match args[0].as_date() {
                Some(d) => Value::Int(i64::from(d.weekday())),
                None => Value::Null,
            }
        }),
        ScalarFn::new("ABS", 1, DataType::Float, |args| match &args[0] {
            Value::Int(i) => i.checked_abs().map_or(Value::Null, Value::Int),
            Value::Float(f) => Value::Float(f.abs()),
            Value::Null | Value::All | Value::Bool(_) | Value::Str(_) | Value::Date(_) => {
                Value::Null
            }
        }),
        ScalarFn::new("UPPER", 1, DataType::Str, |args| match args[0].as_str() {
            Some(s) => Value::str(s.to_uppercase()),
            None => Value::Null,
        }),
        ScalarFn::new("LOWER", 1, DataType::Str, |args| match args[0].as_str() {
            Some(s) => Value::str(s.to_lowercase()),
            None => Value::Null,
        }),
        // STR(x): render any value as a string — the explicit form of the
        // implicit cast SQL applies in the paper's §2 union query, where
        // integer Year columns union with 'ALL' string literals.
        ScalarFn::new("STR", 1, DataType::Str, |args| {
            Value::str(args[0].to_string())
        }),
        // FLOOR_DIV(x, n): integer bucketing for numeric histograms.
        ScalarFn::new("FLOOR_DIV", 2, DataType::Int, |args| {
            match (args[0].as_f64(), args[1].as_f64()) {
                (Some(x), Some(n)) if n != 0.0 => Value::Int((x / n).floor() as i64),
                _ => Value::Null,
            }
        }),
    ];
    for f in date_fns {
        #[expect(
            clippy::expect_used,
            reason = "static list of distinct built-in names; covered by tests"
        )]
        r.register(f).expect("built-in scalar names are unique");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relation::Date;

    #[test]
    fn calendar_builtins() {
        let r = builtins();
        let ts = Value::Date(Date::new_at(1995, 6, 1, 15, 0).unwrap());
        assert_eq!(
            r.get("day").unwrap().call(std::slice::from_ref(&ts)),
            Value::Date(Date::ymd(1995, 6, 1))
        );
        assert_eq!(
            r.get("MONTH").unwrap().call(std::slice::from_ref(&ts)),
            Value::Int(6)
        );
        assert_eq!(
            r.get("Year").unwrap().call(std::slice::from_ref(&ts)),
            Value::Int(1995)
        );
        assert_eq!(r.get("QUARTER").unwrap().call(&[ts]), Value::Int(2));
    }

    #[test]
    fn tokens_propagate_as_null() {
        let r = builtins();
        assert_eq!(r.get("YEAR").unwrap().call(&[Value::Null]), Value::Null);
        assert_eq!(r.get("YEAR").unwrap().call(&[Value::All]), Value::Null);
        assert_eq!(
            r.get("FLOOR_DIV")
                .unwrap()
                .call(&[Value::Int(7), Value::Null]),
            Value::Null
        );
    }

    #[test]
    fn floor_div_buckets() {
        let r = builtins();
        let f = r.get("FLOOR_DIV").unwrap();
        assert_eq!(f.call(&[Value::Int(250), Value::Int(100)]), Value::Int(2));
        assert_eq!(f.call(&[Value::Int(-1), Value::Int(100)]), Value::Int(-1));
        assert_eq!(f.call(&[Value::Int(5), Value::Int(0)]), Value::Null);
    }

    #[test]
    fn custom_registration_no_shadowing() {
        let mut r = builtins();
        let nation = ScalarFn::new("NATION", 2, DataType::Str, |_| Value::str("USA"));
        r.register(nation.clone()).unwrap();
        assert!(r.contains("nation"));
        assert!(r.register(nation).is_err());
    }
}
