//! The holistic aggregates: MEDIAN, MODE, PERCENTILE, COUNT DISTINCT.
//!
//! §5: "Aggregate function F() is holistic if there is no constant bound on
//! the size of the storage needed to describe a sub-aggregate. Median(),
//! MostFrequent() (also called the Mode()), and Rank() are common
//! examples." These accumulators keep the whole multiset — their `state()`
//! grows with the input, which is precisely what makes them holistic and
//! why the cube cascade gives them no shortcut (claim C10). The paper
//! observes (§6) that practitioners usually *approximate* such functions;
//! we compute them exactly and let the benchmarks show the cost.

use crate::accumulator::{Accumulator, AggKind, AggregateFunction, Retract};
use dc_relation::{DataType, Value};
use std::collections::HashMap;

fn participates(v: &Value) -> bool {
    !v.is_null() && !v.is_all()
}

/// Multiset-backed base used by every holistic accumulator.
#[derive(Default)]
struct Bag {
    values: Vec<Value>,
}

impl Bag {
    fn push(&mut self, v: &Value) {
        if participates(v) {
            self.values.push(v.clone());
        }
    }

    fn remove_one(&mut self, v: &Value) -> bool {
        if let Some(pos) = self.values.iter().position(|x| x == v) {
            self.values.swap_remove(pos);
            true
        } else {
            false
        }
    }

    fn sorted(&self) -> Vec<Value> {
        let mut vs = self.values.clone();
        vs.sort();
        vs
    }
}

// --------------------------------------------------------------- MEDIAN --

/// `MEDIAN(column)`: middle value; for an even numeric count, the mean of
/// the two middles, otherwise the lower middle.
pub struct Median;

#[derive(Default)]
pub struct MedianAcc {
    bag: Bag,
}

impl Accumulator for MedianAcc {
    fn iter(&mut self, v: &Value) {
        self.bag.push(v);
    }

    fn state(&self) -> Vec<Value> {
        // Unbounded: the whole multiset. This is the holistic signature.
        self.bag.values.clone()
    }

    fn merge(&mut self, state: &[Value]) {
        self.bag.values.extend_from_slice(state);
    }

    fn final_value(&self) -> Value {
        let sorted = self.bag.sorted();
        let n = sorted.len();
        if n == 0 {
            return Value::Null;
        }
        if n % 2 == 1 {
            return sorted[n / 2].clone();
        }
        let (lo, hi) = (&sorted[n / 2 - 1], &sorted[n / 2]);
        match (lo.as_f64(), hi.as_f64()) {
            (Some(a), Some(b)) => Value::Float((a + b) / 2.0),
            _ => lo.clone(),
        }
    }

    /// Exact holistic state makes retraction possible (we keep everything),
    /// so maintenance *works* — it is just as expensive as recomputation,
    /// which is the paper's cost point, not an impossibility claim.
    fn retract(&mut self, v: &Value) -> Retract {
        if !participates(v) || self.bag.remove_one(v) {
            Retract::Applied
        } else {
            Retract::Recompute
        }
    }
}

impl AggregateFunction for Median {
    fn name(&self) -> &str {
        "MEDIAN"
    }
    fn kind(&self) -> AggKind {
        AggKind::Holistic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(MedianAcc::default())
    }
    fn cost(&self) -> u32 {
        8
    }
}

// ----------------------------------------------------------------- MODE --

/// `MODE(column)` — the paper's MostFrequent(). Ties break to the smallest
/// value so the result is deterministic.
pub struct Mode;

#[derive(Default)]
pub struct ModeAcc {
    bag: Bag,
}

impl Accumulator for ModeAcc {
    fn iter(&mut self, v: &Value) {
        self.bag.push(v);
    }

    fn state(&self) -> Vec<Value> {
        self.bag.values.clone()
    }

    fn merge(&mut self, state: &[Value]) {
        self.bag.values.extend_from_slice(state);
    }

    fn final_value(&self) -> Value {
        let mut counts: HashMap<&Value, usize> = HashMap::new();
        for v in &self.bag.values {
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.cmp(va)))
            .map_or(Value::Null, |(v, _)| v.clone())
    }

    fn retract(&mut self, v: &Value) -> Retract {
        if !participates(v) || self.bag.remove_one(v) {
            Retract::Applied
        } else {
            Retract::Recompute
        }
    }
}

impl AggregateFunction for Mode {
    fn name(&self) -> &str {
        "MODE"
    }
    fn kind(&self) -> AggKind {
        AggKind::Holistic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(ModeAcc::default())
    }
    fn cost(&self) -> u32 {
        8
    }
}

// ----------------------------------------------------------- PERCENTILE --

/// `PERCENTILE(column)` at a fixed fraction `p` in (0, 1], nearest-rank
/// method. `PERCENTILE(0.5)` is the lower-median; RANK-style questions
/// ("the middle 10% of temperatures", §1.2) are asked through this and
/// [`crate::ordered::n_tile`].
pub struct Percentile(pub f64);

pub struct PercentileAcc {
    p: f64,
    bag: Bag,
}

impl Accumulator for PercentileAcc {
    fn iter(&mut self, v: &Value) {
        self.bag.push(v);
    }

    fn state(&self) -> Vec<Value> {
        self.bag.values.clone()
    }

    fn merge(&mut self, state: &[Value]) {
        self.bag.values.extend_from_slice(state);
    }

    fn final_value(&self) -> Value {
        let sorted = self.bag.sorted();
        if sorted.is_empty() {
            return Value::Null;
        }
        let rank = ((self.p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1].clone()
    }

    fn retract(&mut self, v: &Value) -> Retract {
        if !participates(v) || self.bag.remove_one(v) {
            Retract::Applied
        } else {
            Retract::Recompute
        }
    }
}

impl AggregateFunction for Percentile {
    fn name(&self) -> &str {
        "PERCENTILE"
    }
    fn kind(&self) -> AggKind {
        AggKind::Holistic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(PercentileAcc {
            p: self.0.clamp(f64::MIN_POSITIVE, 1.0),
            bag: Bag::default(),
        })
    }
    fn cost(&self) -> u32 {
        8
    }
}

// ------------------------------------------------------- COUNT DISTINCT --

/// `COUNT(DISTINCT column)` (§1.1's "aggregation over distinct values").
/// Holistic: the set of seen values has no constant bound.
pub struct CountDistinct;

#[derive(Default)]
pub struct CountDistinctAcc {
    seen: HashMap<Value, usize>,
}

impl Accumulator for CountDistinctAcc {
    fn iter(&mut self, v: &Value) {
        if participates(v) {
            *self.seen.entry(v.clone()).or_insert(0) += 1;
        }
    }

    fn state(&self) -> Vec<Value> {
        // Distinct values with multiplicities flattened as (v, count) pairs
        // so merge preserves retractability.
        let mut out = Vec::with_capacity(self.seen.len() * 2);
        for (v, c) in &self.seen {
            out.push(v.clone());
            out.push(Value::Int(*c as i64));
        }
        out
    }

    fn merge(&mut self, state: &[Value]) {
        for pair in state.chunks_exact(2) {
            let c = pair[1].as_i64().unwrap_or(0) as usize;
            *self.seen.entry(pair[0].clone()).or_insert(0) += c;
        }
    }

    fn final_value(&self) -> Value {
        Value::Int(self.seen.len() as i64)
    }

    fn retract(&mut self, v: &Value) -> Retract {
        if !participates(v) {
            return Retract::Applied;
        }
        match self.seen.get_mut(v) {
            Some(c) if *c > 1 => {
                *c -= 1;
                Retract::Applied
            }
            Some(_) => {
                self.seen.remove(v);
                Retract::Applied
            }
            None => Retract::Recompute,
        }
    }
}

impl AggregateFunction for CountDistinct {
    fn name(&self) -> &str {
        "COUNT DISTINCT"
    }
    fn kind(&self) -> AggKind {
        AggKind::Holistic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(CountDistinctAcc::default())
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Int)
    }
    fn cost(&self) -> u32 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(f: &dyn AggregateFunction, vals: &[i64]) -> Box<dyn Accumulator> {
        let mut acc = f.init();
        for v in vals {
            acc.iter(&Value::Int(*v));
        }
        acc
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(feed(&Median, &[3, 1, 2]).final_value(), Value::Int(2));
        assert_eq!(
            feed(&Median, &[4, 1, 2, 3]).final_value(),
            Value::Float(2.5)
        );
        assert_eq!(Median.init().final_value(), Value::Null);
    }

    #[test]
    fn median_non_numeric_takes_lower_middle() {
        let mut acc = Median.init();
        for s in ["b", "a", "d", "c"] {
            acc.iter(&Value::str(s));
        }
        assert_eq!(acc.final_value(), Value::str("b"));
    }

    #[test]
    fn mode_picks_most_frequent_deterministically() {
        assert_eq!(feed(&Mode, &[1, 2, 2, 3]).final_value(), Value::Int(2));
        // Tie: smallest wins.
        assert_eq!(feed(&Mode, &[3, 1, 3, 1]).final_value(), Value::Int(1));
        assert_eq!(Mode.init().final_value(), Value::Null);
    }

    #[test]
    fn percentile_nearest_rank() {
        let acc = feed(&Percentile(0.5), &(1..=10).collect::<Vec<_>>());
        assert_eq!(acc.final_value(), Value::Int(5));
        let acc = feed(&Percentile(0.9), &(1..=10).collect::<Vec<_>>());
        assert_eq!(acc.final_value(), Value::Int(9));
        let acc = feed(&Percentile(1.0), &(1..=10).collect::<Vec<_>>());
        assert_eq!(acc.final_value(), Value::Int(10));
    }

    #[test]
    fn count_distinct() {
        let acc = feed(&CountDistinct, &[1, 2, 2, 3, 3, 3]);
        assert_eq!(acc.final_value(), Value::Int(3));
    }

    #[test]
    fn count_distinct_merge_and_retract() {
        let mut a = feed(&CountDistinct, &[1, 2]);
        let b = feed(&CountDistinct, &[2, 3]);
        a.merge(&b.state());
        assert_eq!(a.final_value(), Value::Int(3));
        // 2 has multiplicity 2: one retraction keeps it distinct.
        assert_eq!(a.retract(&Value::Int(2)), Retract::Applied);
        assert_eq!(a.final_value(), Value::Int(3));
        assert_eq!(a.retract(&Value::Int(2)), Retract::Applied);
        assert_eq!(a.final_value(), Value::Int(2));
        assert_eq!(a.retract(&Value::Int(99)), Retract::Recompute);
    }

    #[test]
    fn holistic_state_is_unbounded() {
        // The defining property: state size tracks input size.
        let small = feed(&Median, &[1, 2, 3]).state().len();
        let large = feed(&Median, &(0..100).collect::<Vec<_>>()).state().len();
        assert_eq!(small, 3);
        assert_eq!(large, 100);
    }

    #[test]
    fn holistic_merge_matches_single_pass() {
        let mut a = feed(&Median, &[1, 5, 3]);
        let b = feed(&Median, &[2, 4]);
        a.merge(&b.state());
        assert_eq!(a.final_value(), Value::Int(3));
    }

    #[test]
    fn median_retract() {
        let mut acc = feed(&Median, &[1, 2, 3, 4, 5]);
        assert_eq!(acc.retract(&Value::Int(5)), Retract::Applied);
        assert_eq!(acc.final_value(), Value::Float(2.5));
        assert_eq!(acc.retract(&Value::Int(42)), Retract::Recompute);
    }
}
