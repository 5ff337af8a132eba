//! Name → aggregate-function registry.
//!
//! Mirrors the paper's observation that "some systems allow users to add
//! new aggregation functions" (§1.2): the SQL layer resolves aggregate
//! names here, and user-defined aggregates built with
//! [`crate::UdaBuilder`] register alongside the standard five.

use crate::algebraic::{Avg, GeoMean, StdDev, Variance};
use crate::distributive::{BoolAgg, Count, CountStar, Max, Min, Product, Sum};
use crate::error::{AggError, AggResult};
use crate::holistic::{CountDistinct, Median, Mode};
use crate::AggRef;
use std::collections::HashMap;
use std::sync::Arc;

/// A case-insensitive registry of aggregate functions.
#[derive(Clone, Default)]
pub struct Registry {
    map: HashMap<String, AggRef>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a function under its canonical name; duplicate names are an
    /// error so a UDA cannot silently shadow a built-in.
    pub fn register(&mut self, f: AggRef) -> AggResult<()> {
        self.register_as(f.name().to_string(), f)
    }

    /// [`Registry::register`] under `name`, which the caller read from
    /// `f.name()` beforehand: a registry behind a lock is then written
    /// without running any of the function's code under it.
    pub fn register_as(&mut self, name: String, f: AggRef) -> AggResult<()> {
        let key = name.to_uppercase();
        if self.map.contains_key(&key) {
            return Err(AggError::DuplicateFunction(key));
        }
        self.map.insert(key, f);
        Ok(())
    }

    /// Look up a function, case-insensitively.
    pub fn get(&self, name: &str) -> AggResult<AggRef> {
        self.map
            .get(&name.to_uppercase())
            .cloned()
            .ok_or_else(|| AggError::UnknownFunction(name.to_string()))
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.map.values().map(|f| f.name()).collect();
        v.sort_unstable();
        v
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The built-in functions: SQL's standard five (§1.1) plus the statistical
/// and holistic extensions the paper discusses.
pub fn builtins() -> Registry {
    let mut r = Registry::new();
    let fns: Vec<AggRef> = vec![
        Arc::new(Count),
        Arc::new(CountStar),
        Arc::new(Sum),
        Arc::new(Min),
        Arc::new(Max),
        Arc::new(Avg),
        Arc::new(Variance),
        Arc::new(StdDev),
        Arc::new(Median),
        Arc::new(Mode),
        Arc::new(CountDistinct),
        Arc::new(Product),
        Arc::new(BoolAgg::<true>),  // EVERY
        Arc::new(BoolAgg::<false>), // SOME
        Arc::new(GeoMean),
    ];
    for f in fns {
        #[expect(
            clippy::expect_used,
            reason = "static list of distinct built-in names; covered by registry tests"
        )]
        r.register(f).expect("built-in names are unique");
    }
    r
}

/// Convenience: resolve one of the built-ins directly.
pub fn builtin(name: &str) -> AggResult<AggRef> {
    builtins().get(name)
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("functions", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::AggKind;
    use crate::UdaBuilder;
    use dc_relation::Value;

    #[test]
    fn builtins_present_and_case_insensitive() {
        let r = builtins();
        assert_eq!(r.len(), 15);
        assert_eq!(r.get("sum").unwrap().name(), "SUM");
        assert_eq!(r.get("Avg").unwrap().name(), "AVG");
        assert!(r.get("NOPE").is_err());
    }

    #[test]
    fn kinds_match_the_paper_taxonomy() {
        let r = builtins();
        for name in ["COUNT", "SUM", "MIN", "MAX", "PRODUCT", "EVERY", "SOME"] {
            assert_eq!(r.get(name).unwrap().kind(), AggKind::Distributive, "{name}");
        }
        for name in ["AVG", "VARIANCE", "STDDEV", "GEOMEAN"] {
            assert_eq!(r.get(name).unwrap().kind(), AggKind::Algebraic, "{name}");
        }
        for name in ["MEDIAN", "MODE", "COUNT DISTINCT"] {
            assert_eq!(r.get(name).unwrap().kind(), AggKind::Holistic, "{name}");
        }
    }

    #[test]
    fn uda_registers_but_cannot_shadow() {
        let mut r = builtins();
        let f = UdaBuilder::new("MY_FIRST", AggKind::Holistic, || None::<Value>)
            .iter(|s, v| {
                if s.is_none() {
                    *s = Some(v.clone());
                }
            })
            .finalize(|s| s.clone().unwrap_or(Value::Null))
            .build()
            .unwrap();
        r.register(f.clone()).unwrap();
        assert!(r.get("my_first").is_ok());
        assert!(matches!(r.register(f), Err(AggError::DuplicateFunction(_))));
    }
}
