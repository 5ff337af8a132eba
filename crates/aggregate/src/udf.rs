//! User-defined aggregate functions.
//!
//! §1.2 of the paper describes the Illustra/DB2 extension mechanism —
//! register a program with Init(&handle) / Iter(&handle, value) /
//! value = Final(&handle) callbacks — and §5 adds the Iter_super(&handle,
//! &handle) call that makes a user aggregate cube-cascadable. This module
//! is that mechanism in Rust: [`UdaBuilder`] assembles the callbacks around
//! a user state type `S` (the "handle") and yields an
//! [`AggregateFunction`] indistinguishable from the built-ins.

use crate::accumulator::{Accumulator, AggKind, AggregateFunction, Retract};
use crate::error::{AggError, AggResult};
use crate::faults::Site;
use crate::AggRef;
use dc_relation::Value;
use std::sync::Arc;

type InitFn<S> = Arc<dyn Fn() -> S + Send + Sync>;
type IterFn<S> = Arc<dyn Fn(&mut S, &Value) + Send + Sync>;
type StateFn<S> = Arc<dyn Fn(&S) -> Vec<Value> + Send + Sync>;
type MergeFn<S> = Arc<dyn Fn(&mut S, &[Value]) + Send + Sync>;
type FinalFn<S> = Arc<dyn Fn(&S) -> Value + Send + Sync>;
type RetractFn<S> = Arc<dyn Fn(&mut S, &Value) -> Retract + Send + Sync>;

/// Builder for a user-defined aggregate over handle type `S`.
///
/// Required pieces: `init` (given at construction), [`UdaBuilder::iter`],
/// and [`UdaBuilder::finalize`]. Supplying [`UdaBuilder::state`] *and*
/// [`UdaBuilder::merge`] makes the function cube-cascadable (the paper's
/// Iter_super); without them the function is treated as holistic.
/// [`UdaBuilder::retract`] opts into §6 incremental maintenance.
///
/// ```
/// use dc_aggregate::{UdaBuilder, AggKind};
/// use dc_relation::Value;
///
/// // The paper's running example: Average via a (sum, count) handle.
/// let avg = UdaBuilder::new("MY_AVG", AggKind::Algebraic, || (0.0, 0i64))
///     .iter(|s, v| {
///         if let Some(x) = v.as_f64() {
///             s.0 += x;
///             s.1 += 1;
///         }
///     })
///     .state(|s| vec![Value::Float(s.0), Value::Int(s.1)])
///     .merge(|s, st| {
///         s.0 += st[0].as_f64().unwrap_or(0.0);
///         s.1 += st[1].as_i64().unwrap_or(0);
///     })
///     .finalize(|s| {
///         if s.1 == 0 { Value::Null } else { Value::Float(s.0 / s.1 as f64) }
///     })
///     .build()
///     .unwrap();
///
/// let mut acc = avg.init();
/// for v in [2.0, 4.0] { acc.iter(&Value::Float(v)); }
/// assert_eq!(acc.final_value(), Value::Float(3.0));
/// ```
pub struct UdaBuilder<S> {
    name: String,
    kind: AggKind,
    init: InitFn<S>,
    iter: Option<IterFn<S>>,
    state: Option<StateFn<S>>,
    merge: Option<MergeFn<S>>,
    final_: Option<FinalFn<S>>,
    retract: Option<RetractFn<S>>,
    cost: u32,
}

impl<S: Send + Sync + 'static> UdaBuilder<S> {
    /// Start a definition. `init` is the paper's Init(): allocate and
    /// initialize the handle.
    pub fn new(
        name: impl Into<String>,
        kind: AggKind,
        init: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        UdaBuilder {
            name: name.into(),
            kind,
            init: Arc::new(init),
            iter: None,
            state: None,
            merge: None,
            final_: None,
            retract: None,
            cost: 1,
        }
    }

    /// Iter(): fold the next value into the handle.
    pub fn iter(mut self, f: impl Fn(&mut S, &Value) + Send + Sync + 'static) -> Self {
        self.iter = Some(Arc::new(f));
        self
    }

    /// Expose the handle as an M-tuple (enables Iter_super together with
    /// [`UdaBuilder::merge`]).
    pub fn state(mut self, f: impl Fn(&S) -> Vec<Value> + Send + Sync + 'static) -> Self {
        self.state = Some(Arc::new(f));
        self
    }

    /// Iter_super(): fold another handle's M-tuple into this handle.
    pub fn merge(mut self, f: impl Fn(&mut S, &[Value]) + Send + Sync + 'static) -> Self {
        self.merge = Some(Arc::new(f));
        self
    }

    /// Final(): produce the aggregate value from the handle.
    pub fn finalize(mut self, f: impl Fn(&S) -> Value + Send + Sync + 'static) -> Self {
        self.final_ = Some(Arc::new(f));
        self
    }

    /// Opt into deletion maintenance (§6).
    pub fn retract(
        mut self,
        f: impl Fn(&mut S, &Value) -> Retract + Send + Sync + 'static,
    ) -> Self {
        self.retract = Some(Arc::new(f));
        self
    }

    /// Declared evaluation cost (the paper: "so that the query optimizer
    /// knows to minimize calls to expensive functions").
    pub fn cost(mut self, cost: u32) -> Self {
        self.cost = cost;
        self
    }

    /// Validate and produce the function object.
    pub fn build(self) -> AggResult<AggRef> {
        let iter = self
            .iter
            .ok_or_else(|| AggError::Invalid(format!("UDA {}: missing iter()", self.name)))?;
        let final_ = self
            .final_
            .ok_or_else(|| AggError::Invalid(format!("UDA {}: missing finalize()", self.name)))?;
        if self.kind.bounded_state() && (self.state.is_none() || self.merge.is_none()) {
            return Err(AggError::Invalid(format!(
                "UDA {}: declared {:?} but lacks state()/merge() — \
                 a bounded-state function must supply its M-tuple",
                self.name, self.kind
            )));
        }
        Ok(Arc::new(Uda {
            name: self.name.to_uppercase(),
            kind: self.kind,
            retractable: self.retract.is_some(),
            cost: self.cost,
            init: self.init,
            iter,
            state: self.state,
            merge: self.merge,
            final_,
            retract: self.retract,
        }))
    }
}

struct Uda<S> {
    name: String,
    kind: AggKind,
    retractable: bool,
    cost: u32,
    init: InitFn<S>,
    iter: IterFn<S>,
    state: Option<StateFn<S>>,
    merge: Option<MergeFn<S>>,
    final_: FinalFn<S>,
    retract: Option<RetractFn<S>>,
}

struct UdaAcc<S> {
    handle: S,
    iter: IterFn<S>,
    state: Option<StateFn<S>>,
    merge: Option<MergeFn<S>>,
    final_: FinalFn<S>,
    retract: Option<RetractFn<S>>,
}

impl<S: Send + Sync + 'static> Accumulator for UdaAcc<S> {
    fn iter(&mut self, v: &Value) {
        crate::faults::hit(Site::UdaIter);
        (self.iter)(&mut self.handle, v);
    }

    fn state(&self) -> Vec<Value> {
        match &self.state {
            Some(f) => f(&self.handle),
            None => Vec::new(),
        }
    }

    fn merge(&mut self, state: &[Value]) {
        crate::faults::hit(Site::UdaMerge);
        if let Some(f) = &self.merge {
            f(&mut self.handle, state);
        }
    }

    fn final_value(&self) -> Value {
        crate::faults::hit(Site::UdaFinal);
        (self.final_)(&self.handle)
    }

    fn retract(&mut self, v: &Value) -> Retract {
        match &self.retract {
            Some(f) => f(&mut self.handle, v),
            None => Retract::Unsupported,
        }
    }
}

impl<S: Send + Sync + 'static> AggregateFunction for Uda<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> AggKind {
        self.kind
    }

    fn init(&self) -> Box<dyn Accumulator> {
        crate::faults::hit(Site::UdaInit);
        Box::new(UdaAcc {
            handle: (self.init)(),
            iter: Arc::clone(&self.iter),
            state: self.state.clone(),
            merge: self.merge.clone(),
            final_: Arc::clone(&self.final_),
            retract: self.retract.clone(),
        })
    }

    fn retractable(&self) -> bool {
        self.retractable
    }

    fn cost(&self) -> u32 {
        self.cost
    }

    fn mergeable(&self) -> bool {
        // Without both pieces of the Iter_super protocol the accumulator's
        // merge is a no-op — merge-based algorithms must not rely on it.
        self.state.is_some() && self.merge.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Geometric mean: an algebraic UDA carrying (sum of logs, count).
    fn geo_mean() -> AggRef {
        UdaBuilder::new("GEO_MEAN", AggKind::Algebraic, || (0.0f64, 0i64))
            .iter(|s, v| {
                if let Some(x) = v.as_f64() {
                    if x > 0.0 {
                        s.0 += x.ln();
                        s.1 += 1;
                    }
                }
            })
            .state(|s| vec![Value::Float(s.0), Value::Int(s.1)])
            .merge(|s, st| {
                s.0 += st[0].as_f64().unwrap_or(0.0);
                s.1 += st[1].as_i64().unwrap_or(0);
            })
            .finalize(|s| {
                if s.1 == 0 {
                    Value::Null
                } else {
                    Value::Float((s.0 / s.1 as f64).exp())
                }
            })
            .retract(|s, v| {
                if let Some(x) = v.as_f64() {
                    if x > 0.0 {
                        s.0 -= x.ln();
                        s.1 -= 1;
                    }
                }
                Retract::Applied
            })
            .build()
            .unwrap()
    }

    #[test]
    fn uda_full_lifecycle() {
        let f = geo_mean();
        assert_eq!(f.name(), "GEO_MEAN");
        assert_eq!(f.kind(), AggKind::Algebraic);
        assert!(f.retractable());
        let mut acc = f.init();
        for v in [2.0, 8.0] {
            acc.iter(&Value::Float(v));
        }
        let got = acc.final_value().as_f64().unwrap();
        assert!((got - 4.0).abs() < 1e-12);
    }

    #[test]
    fn uda_iter_super_merges_partitions() {
        let f = geo_mean();
        let mut a = f.init();
        a.iter(&Value::Float(2.0));
        let mut b = f.init();
        b.iter(&Value::Float(8.0));
        a.merge(&b.state());
        assert!((a.final_value().as_f64().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn uda_retract() {
        let f = geo_mean();
        let mut acc = f.init();
        for v in [2.0, 8.0, 100.0] {
            acc.iter(&Value::Float(v));
        }
        assert_eq!(acc.retract(&Value::Float(100.0)), Retract::Applied);
        assert!((acc.final_value().as_f64().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn algebraic_uda_requires_merge() {
        let res = UdaBuilder::new("BROKEN", AggKind::Algebraic, || 0i64)
            .iter(|_, _| {})
            .finalize(|_| Value::Null)
            .build();
        assert!(matches!(res, Err(AggError::Invalid(_))));
    }

    #[test]
    fn holistic_uda_without_merge_is_allowed() {
        let f = UdaBuilder::new("FIRST", AggKind::Holistic, || None::<Value>)
            .iter(|s, v| {
                if s.is_none() && !v.is_null() {
                    *s = Some(v.clone());
                }
            })
            .finalize(|s| s.clone().unwrap_or(Value::Null))
            .build()
            .unwrap();
        let mut acc = f.init();
        acc.iter(&Value::Int(7));
        acc.iter(&Value::Int(9));
        assert_eq!(acc.final_value(), Value::Int(7));
        assert_eq!(acc.retract(&Value::Int(7)), Retract::Unsupported);
        // ... but it must advertise that Iter_super is unavailable, so the
        // engine keeps it off merge-based plans.
        assert!(!f.mergeable());
    }

    #[test]
    fn uda_with_state_and_merge_is_mergeable() {
        assert!(geo_mean().mergeable());
    }

    #[test]
    fn missing_iter_or_finalize_rejected() {
        assert!(UdaBuilder::new("X", AggKind::Holistic, || ())
            .finalize(|_| Value::Null)
            .build()
            .is_err());
        assert!(UdaBuilder::new("X", AggKind::Holistic, || ())
            .iter(|_, _| {})
            .build()
            .is_err());
    }
}
