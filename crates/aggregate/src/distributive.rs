//! The distributive aggregates: COUNT, COUNT(*), SUM, MIN, MAX.
//!
//! §5: "COUNT(), MIN(), MAX(), SUM() are all distributive. In fact, F = G
//! for all but COUNT(). G = SUM() for the COUNT() function." Each
//! accumulator's `state()` is therefore its own (partial) result, and
//! `merge` is the function itself — except COUNT, whose merge is addition.

use crate::accumulator::{Accumulator, AggKind, AggregateFunction, Retract};
use crate::vectorized::Kernel;
use dc_relation::{DataType, Value};

fn participates(v: &Value) -> bool {
    // §3.3: ALL, like NULL, does not participate in any aggregate except
    // COUNT(*).
    !v.is_null() && !v.is_all()
}

// ---------------------------------------------------------------- COUNT --

/// `COUNT(column)`: counts non-NULL, non-ALL values.
pub struct Count;

#[derive(Default)]
pub struct CountAcc {
    n: i64,
}

impl Accumulator for CountAcc {
    fn iter(&mut self, v: &Value) {
        if participates(v) {
            self.n += 1;
        }
    }

    fn state(&self) -> Vec<Value> {
        vec![Value::Int(self.n)]
    }

    fn merge(&mut self, state: &[Value]) {
        // G = SUM for COUNT.
        self.n += state[0].as_i64().unwrap_or(0);
    }

    fn final_value(&self) -> Value {
        Value::Int(self.n)
    }

    fn retract(&mut self, v: &Value) -> Retract {
        if participates(v) {
            self.n -= 1;
        }
        Retract::Applied
    }
}

impl AggregateFunction for Count {
    fn name(&self) -> &str {
        "COUNT"
    }
    fn kind(&self) -> AggKind {
        AggKind::Distributive
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(CountAcc::default())
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Int)
    }
    fn retractable(&self) -> bool {
        true
    }
    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::Count)
    }
}

// -------------------------------------------------------------- COUNT(*) --

/// `COUNT(*)`: counts every row, including NULL and ALL inputs — the one
/// aggregate those tokens participate in (§3.3).
pub struct CountStar;

#[derive(Default)]
pub struct CountStarAcc {
    n: i64,
}

impl Accumulator for CountStarAcc {
    fn iter(&mut self, _v: &Value) {
        self.n += 1;
    }

    fn state(&self) -> Vec<Value> {
        vec![Value::Int(self.n)]
    }

    fn merge(&mut self, state: &[Value]) {
        self.n += state[0].as_i64().unwrap_or(0);
    }

    fn final_value(&self) -> Value {
        Value::Int(self.n)
    }

    fn retract(&mut self, _v: &Value) -> Retract {
        self.n -= 1;
        Retract::Applied
    }
}

impl AggregateFunction for CountStar {
    fn name(&self) -> &str {
        "COUNT(*)"
    }
    fn kind(&self) -> AggKind {
        AggKind::Distributive
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(CountStarAcc::default())
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Int)
    }
    fn retractable(&self) -> bool {
        true
    }
    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::CountStar)
    }
}

// ------------------------------------------------------------------ SUM --

/// `SUM(column)`: exact over integers, IEEE over floats; an all-integer
/// column sums to an `Int`, anything else to a `Float`. The integer sum is
/// an `i128`, so it cannot wrap and a retraction is its exact inverse; an
/// all-integer total outside `i64` is NULL, the evaluator's rule for
/// arithmetic without an answer.
pub struct Sum;

#[derive(Default)]
pub struct SumAcc {
    int_sum: i128,
    float_sum: f64,
    saw_float: bool,
    n: i64,
}

impl SumAcc {
    fn add(&mut self, v: &Value, sign: i64) {
        match v {
            Value::Int(i) => self.int_sum += sign as i128 * *i as i128,
            Value::Float(f) => {
                self.saw_float = true;
                self.float_sum += (sign as f64) * f;
            }
            // §3.3: everything non-numeric (NULL and ALL included) is
            // skipped by SUM, without counting toward n.
            Value::Null | Value::All | Value::Bool(_) | Value::Str(_) | Value::Date(_) => return,
        }
        self.n += sign;
    }
}

impl Accumulator for SumAcc {
    fn iter(&mut self, v: &Value) {
        if participates(v) {
            self.add(v, 1);
        }
    }

    /// The integer sum travels as its high and low 64-bit halves.
    fn state(&self) -> Vec<Value> {
        vec![
            Value::Int((self.int_sum >> 64) as i64),
            Value::Int(self.int_sum as i64),
            Value::Float(self.float_sum),
            Value::Bool(self.saw_float),
            Value::Int(self.n),
        ]
    }

    fn merge(&mut self, state: &[Value]) {
        let half = |i: usize| state[i].as_i64().unwrap_or(0);
        self.int_sum += ((half(0) as i128) << 64) | (half(1) as u64 as i128);
        self.float_sum += state[2].as_f64().unwrap_or(0.0);
        self.saw_float |= state[3].as_bool().unwrap_or(false);
        self.n += state[4].as_i64().unwrap_or(0);
    }

    fn final_value(&self) -> Value {
        if self.n == 0 {
            Value::Null // SQL: SUM of an empty set is NULL
        } else if self.saw_float {
            Value::Float(self.int_sum as f64 + self.float_sum)
        } else {
            i64::try_from(self.int_sum).map_or(Value::Null, Value::Int)
        }
    }

    fn retract(&mut self, v: &Value) -> Retract {
        // Floating-point subtraction is no inverse of addition (1e20 + 1.0
        // - 1e20 is 0.0, and NaN - NaN is NaN): a Float participant makes
        // SUM delete-holistic, like MAX, and its cell is recomputed.
        if matches!(v, Value::Float(_)) {
            return Retract::Recompute;
        }
        if participates(v) {
            self.add(v, -1);
        }
        Retract::Applied
    }
}

impl AggregateFunction for Sum {
    fn name(&self) -> &str {
        "SUM"
    }
    fn kind(&self) -> AggKind {
        AggKind::Distributive
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(SumAcc::default())
    }
    fn retractable(&self) -> bool {
        true
    }
    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::Sum)
    }
}

// -------------------------------------------------------------- MIN/MAX --

/// Shared extremum accumulator; `IS_MAX` picks the direction.
pub struct ExtremumAcc<const IS_MAX: bool> {
    best: Option<Value>,
}

impl<const IS_MAX: bool> Default for ExtremumAcc<IS_MAX> {
    fn default() -> Self {
        ExtremumAcc { best: None }
    }
}

impl<const IS_MAX: bool> ExtremumAcc<IS_MAX> {
    fn better(candidate: &Value, incumbent: &Value) -> bool {
        if IS_MAX {
            candidate > incumbent
        } else {
            candidate < incumbent
        }
    }
}

impl<const IS_MAX: bool> Accumulator for ExtremumAcc<IS_MAX> {
    fn iter(&mut self, v: &Value) {
        if !participates(v) {
            return;
        }
        match &self.best {
            None => self.best = Some(v.clone()),
            Some(b) if Self::better(v, b) => self.best = Some(v.clone()),
            _ => {}
        }
    }

    fn state(&self) -> Vec<Value> {
        vec![self.best.clone().unwrap_or(Value::Null)]
    }

    fn merge(&mut self, state: &[Value]) {
        // F = G for MIN/MAX: merging a sub-result is just another iter.
        self.iter(&state[0]);
    }

    fn final_value(&self) -> Value {
        self.best.clone().unwrap_or(Value::Null)
    }

    /// §6: "max is distributive for SELECT and INSERT, but it is holistic
    /// for DELETE." Deleting a value that loses to the incumbent is free;
    /// deleting the incumbent itself forces a recompute because the
    /// scratchpad cannot know the runner-up.
    fn retract(&mut self, v: &Value) -> Retract {
        if !participates(v) {
            return Retract::Applied;
        }
        match &self.best {
            None => Retract::Recompute, // deleting from an empty extremum: inconsistent
            Some(b) if Self::better(v, b) => Retract::Recompute, // inconsistent state
            Some(b) if v == b => Retract::Recompute,
            _ => Retract::Applied,
        }
    }
}

/// `MIN(column)`.
pub struct Min;

impl AggregateFunction for Min {
    fn name(&self) -> &str {
        "MIN"
    }
    fn kind(&self) -> AggKind {
        AggKind::Distributive
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(ExtremumAcc::<false>::default())
    }
    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::Min)
    }
}

/// `MAX(column)`.
pub struct Max;

impl AggregateFunction for Max {
    fn name(&self) -> &str {
        "MAX"
    }
    fn kind(&self) -> AggKind {
        AggKind::Distributive
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(ExtremumAcc::<true>::default())
    }
    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::Max)
    }
}

// -------------------------------------------------------------- PRODUCT --

/// `PRODUCT(column)`: the multiplicative fold. Distributive (`F = G`),
/// and — unlike SUM — retraction needs care around zero: once a zero has
/// been folded in, dividing it back out is impossible, so the scratchpad
/// counts zeros separately, keeping PRODUCT honestly algebraic for
/// DELETE.
pub struct Product;

pub struct ProductAcc {
    nonzero_product: f64,
    zeros: i64,
    n: i64,
}

impl Default for ProductAcc {
    fn default() -> Self {
        ProductAcc {
            nonzero_product: 1.0,
            zeros: 0,
            n: 0,
        }
    }
}

impl Accumulator for ProductAcc {
    fn iter(&mut self, v: &Value) {
        if !participates(v) {
            return;
        }
        if let Some(x) = v.as_f64() {
            if x == 0.0 {
                self.zeros += 1;
            } else {
                self.nonzero_product *= x;
            }
            self.n += 1;
        }
    }

    fn state(&self) -> Vec<Value> {
        vec![
            Value::Float(self.nonzero_product),
            Value::Int(self.zeros),
            Value::Int(self.n),
        ]
    }

    fn merge(&mut self, state: &[Value]) {
        self.nonzero_product *= state[0].as_f64().unwrap_or(1.0);
        self.zeros += state[1].as_i64().unwrap_or(0);
        self.n += state[2].as_i64().unwrap_or(0);
    }

    fn final_value(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else if self.zeros > 0 {
            Value::Float(0.0)
        } else {
            Value::Float(self.nonzero_product)
        }
    }

    fn retract(&mut self, v: &Value) -> Retract {
        if !participates(v) {
            return Retract::Applied;
        }
        if let Some(x) = v.as_f64() {
            if x == 0.0 {
                self.zeros -= 1;
            } else {
                // NaN/±Inf factors (and a product already saturated to a
                // non-finite value) do not divide back out.
                if !x.is_finite() || !self.nonzero_product.is_finite() {
                    return Retract::Recompute;
                }
                self.nonzero_product /= x;
            }
            self.n -= 1;
        }
        Retract::Applied
    }
}

impl AggregateFunction for Product {
    fn name(&self) -> &str {
        "PRODUCT"
    }
    fn kind(&self) -> AggKind {
        AggKind::Distributive
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(ProductAcc::default())
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Float)
    }
    fn retractable(&self) -> bool {
        true
    }
}

// --------------------------------------------------------- EVERY / SOME --

/// Boolean conjunction/disjunction aggregates (SQL:1999 `EVERY` /
/// `SOME`). Distributive; retraction tracks true/false counts so deletes
/// stay cheap.
pub struct BoolAgg<const IS_EVERY: bool>;

/// `EVERY(column)`: true iff every non-NULL value is true.
pub type Every = BoolAgg<true>;
/// `SOME(column)`: true iff any non-NULL value is true.
pub type Some_ = BoolAgg<false>;

#[derive(Default)]
pub struct BoolAcc<const IS_EVERY: bool> {
    trues: i64,
    falses: i64,
}

impl<const IS_EVERY: bool> Accumulator for BoolAcc<IS_EVERY> {
    fn iter(&mut self, v: &Value) {
        match v {
            Value::Bool(true) => self.trues += 1,
            Value::Bool(false) => self.falses += 1,
            Value::Null
            | Value::All
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Date(_) => {}
        }
    }

    fn state(&self) -> Vec<Value> {
        vec![Value::Int(self.trues), Value::Int(self.falses)]
    }

    fn merge(&mut self, state: &[Value]) {
        self.trues += state[0].as_i64().unwrap_or(0);
        self.falses += state[1].as_i64().unwrap_or(0);
    }

    fn final_value(&self) -> Value {
        if self.trues + self.falses == 0 {
            Value::Null
        } else if IS_EVERY {
            Value::Bool(self.falses == 0)
        } else {
            Value::Bool(self.trues > 0)
        }
    }

    fn retract(&mut self, v: &Value) -> Retract {
        match v {
            Value::Bool(true) => self.trues -= 1,
            Value::Bool(false) => self.falses -= 1,
            Value::Null
            | Value::All
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Date(_) => {}
        }
        Retract::Applied
    }
}

impl<const IS_EVERY: bool> AggregateFunction for BoolAgg<IS_EVERY> {
    fn name(&self) -> &str {
        if IS_EVERY {
            "EVERY"
        } else {
            "SOME"
        }
    }
    fn kind(&self) -> AggKind {
        AggKind::Distributive
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(BoolAcc::<IS_EVERY>::default())
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Bool)
    }
    fn retractable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: &dyn AggregateFunction, vals: &[Value]) -> Value {
        let mut acc = f.init();
        for v in vals {
            acc.iter(v);
        }
        acc.final_value()
    }

    #[test]
    fn count_skips_tokens_count_star_does_not() {
        let vals = vec![
            Value::Int(1),
            Value::Null,
            Value::All,
            Value::Int(2),
            Value::str("x"),
        ];
        assert_eq!(run(&Count, &vals), Value::Int(3));
        assert_eq!(run(&CountStar, &vals), Value::Int(5));
    }

    #[test]
    fn sum_keeps_integer_exactness() {
        assert_eq!(run(&Sum, &[Value::Int(2), Value::Int(3)]), Value::Int(5));
        assert_eq!(
            run(&Sum, &[Value::Int(2), Value::Float(0.5)]),
            Value::Float(2.5)
        );
        assert_eq!(run(&Sum, &[Value::Null]), Value::Null);
        assert_eq!(run(&Sum, &[]), Value::Null);
    }

    /// Past `i64` an integer SUM is NULL, never a wrapped value, and back
    /// inside it is exact in any order, merged or retracted.
    #[test]
    fn an_integer_sum_never_wraps() {
        let (max, one, minus) = (Value::Int(i64::MAX), Value::Int(1), Value::Int(-1));
        assert_eq!(run(&Sum, &[max.clone(), one.clone()]), Value::Null);
        assert_eq!(
            run(&Sum, &[Value::Int(i64::MIN), minus.clone()]),
            Value::Null
        );
        for order in [
            [max.clone(), one.clone(), minus.clone()],
            [one.clone(), max.clone(), minus.clone()],
            [minus.clone(), one.clone(), max.clone()],
        ] {
            assert_eq!(run(&Sum, &order), max, "{order:?}");
        }
        let (mut a, mut b) = (Sum.init(), Sum.init());
        for v in [&max, &max] {
            a.iter(v);
        }
        for v in [&minus, &max, &Value::Int(i64::MIN)] {
            b.iter(v);
        }
        a.merge(&b.state());
        assert_eq!(a.final_value(), Value::Null);
        assert_eq!(a.retract(&max), Retract::Applied);
        assert_eq!(a.retract(&max), Retract::Applied);
        assert_eq!(a.final_value(), Value::Int(-2));
        assert_eq!(a.retract(&Value::Int(i64::MIN)), Retract::Applied);
        assert_eq!(a.final_value(), Value::Int(i64::MAX - 1));
    }

    #[test]
    fn min_max_work_on_any_ordered_type() {
        let words = vec![Value::str("white"), Value::str("black")];
        assert_eq!(run(&Min, &words), Value::str("black"));
        assert_eq!(run(&Max, &words), Value::str("white"));
        let nums = vec![Value::Int(3), Value::Float(3.5), Value::Int(-1)];
        assert_eq!(run(&Min, &nums), Value::Int(-1));
        assert_eq!(run(&Max, &nums), Value::Float(3.5));
        assert_eq!(run(&Max, &[Value::Null]), Value::Null);
    }

    #[test]
    fn distributive_law_f_of_partitions() {
        // F({X}) = G({F(partition)}): fold two partitions via merge and
        // compare against one pass over the union.
        let part_a = vec![Value::Int(50), Value::Int(40)];
        let part_b = vec![Value::Int(85), Value::Int(115)];
        for f in [&Sum as &dyn AggregateFunction, &Count, &Min, &Max] {
            let mut left = f.init();
            for v in &part_a {
                left.iter(v);
            }
            let mut right = f.init();
            for v in &part_b {
                right.iter(v);
            }
            left.merge(&right.state());
            let mut whole = f.init();
            for v in part_a.iter().chain(part_b.iter()) {
                whole.iter(v);
            }
            assert_eq!(
                left.final_value(),
                whole.final_value(),
                "law failed for {}",
                f.name()
            );
        }
    }

    #[test]
    fn sum_and_count_retract_cleanly() {
        let mut acc = Sum.init();
        for v in [Value::Int(10), Value::Int(20), Value::Int(30)] {
            acc.iter(&v);
        }
        assert_eq!(acc.retract(&Value::Int(20)), Retract::Applied);
        assert_eq!(acc.final_value(), Value::Int(40));
        // Retracting everything returns SUM to NULL, like the empty set.
        assert_eq!(acc.retract(&Value::Int(10)), Retract::Applied);
        assert_eq!(acc.retract(&Value::Int(30)), Retract::Applied);
        assert_eq!(acc.final_value(), Value::Null);
    }

    #[test]
    fn max_is_delete_holistic() {
        let mut acc = Max.init();
        for v in [Value::Int(10), Value::Int(99), Value::Int(5)] {
            acc.iter(&v);
        }
        // Deleting a loser is free...
        assert_eq!(acc.retract(&Value::Int(5)), Retract::Applied);
        assert_eq!(acc.final_value(), Value::Int(99));
        // ...deleting the champion demands a recompute (§6).
        assert_eq!(acc.retract(&Value::Int(99)), Retract::Recompute);
    }

    #[test]
    fn retractable_flags_match_section_6() {
        assert!(Sum.retractable());
        assert!(Count.retractable());
        assert!(CountStar.retractable());
        assert!(!Max.retractable());
        assert!(!Min.retractable());
    }

    #[test]
    fn product_folds_and_handles_zero() {
        assert_eq!(
            run(&Product, &[Value::Int(2), Value::Int(3), Value::Int(4)]),
            Value::Float(24.0)
        );
        assert_eq!(
            run(&Product, &[Value::Int(2), Value::Int(0)]),
            Value::Float(0.0)
        );
        assert_eq!(run(&Product, &[]), Value::Null);
    }

    #[test]
    fn product_retracts_through_zero() {
        let mut acc = Product.init();
        for v in [Value::Int(2), Value::Int(0), Value::Int(5)] {
            acc.iter(&v);
        }
        assert_eq!(acc.final_value(), Value::Float(0.0));
        // Deleting the zero must resurrect the nonzero product.
        assert_eq!(acc.retract(&Value::Int(0)), Retract::Applied);
        assert_eq!(acc.final_value(), Value::Float(10.0));
    }

    #[test]
    fn product_merge_matches_single_pass() {
        let mut a = Product.init();
        a.iter(&Value::Int(2));
        let mut b = Product.init();
        b.iter(&Value::Int(0));
        b.iter(&Value::Int(7));
        a.merge(&b.state());
        assert_eq!(a.final_value(), Value::Float(0.0));
    }

    #[test]
    fn every_and_some() {
        let tf = vec![Value::Bool(true), Value::Bool(false), Value::Null];
        assert_eq!(run(&BoolAgg::<true>, &tf), Value::Bool(false));
        assert_eq!(run(&BoolAgg::<false>, &tf), Value::Bool(true));
        let tt = vec![Value::Bool(true), Value::Bool(true)];
        assert_eq!(run(&BoolAgg::<true>, &tt), Value::Bool(true));
        assert_eq!(run(&BoolAgg::<false>, &[]), Value::Null);
    }

    #[test]
    fn every_retracts() {
        let mut acc = BoolAgg::<true>.init();
        acc.iter(&Value::Bool(true));
        acc.iter(&Value::Bool(false));
        assert_eq!(acc.final_value(), Value::Bool(false));
        assert_eq!(acc.retract(&Value::Bool(false)), Retract::Applied);
        assert_eq!(acc.final_value(), Value::Bool(true));
    }
}
