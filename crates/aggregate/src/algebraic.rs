//! The algebraic aggregates: AVG, VARIANCE, STDDEV, MaxN/MinN.
//!
//! §5: "Aggregate function F() is algebraic if there is an M-tuple valued
//! function G() and a function H() such that F = H({G(partition)}). ...
//! For Average, the function G() records the sum and count of the subset.
//! The key to algebraic functions is that a fixed size result (an M-tuple)
//! can summarize the sub-aggregation." Each accumulator's `state()` below
//! is exactly that M-tuple.

use crate::accumulator::{Accumulator, AggKind, AggregateFunction, Retract};
use crate::vectorized::Kernel;
use dc_relation::{DataType, Value};

fn numeric(v: &Value) -> Option<f64> {
    if v.is_null() || v.is_all() {
        None
    } else {
        v.as_f64()
    }
}

// ------------------------------------------------------------------ AVG --

/// `AVG(column)`: scratchpad is the paper's canonical `(sum, count)` pair.
/// As in `SUM`, integer participants sum exactly in an `i128` beside the
/// `f64` sum of float ones, so an integer mean rounds once, at Final,
/// whatever the order of its adds and retractions.
pub struct Avg;

#[derive(Default)]
pub struct AvgAcc {
    int_sum: i128,
    float_sum: f64,
    n: i64,
}

impl AvgAcc {
    fn add(&mut self, v: &Value, sign: i64) {
        match v {
            Value::Int(i) => self.int_sum += sign as i128 * *i as i128,
            Value::Bool(b) => self.int_sum += sign as i128 * i128::from(*b),
            Value::Float(f) => self.float_sum += (sign as f64) * f,
            Value::Null | Value::All | Value::Str(_) | Value::Date(_) => return,
        }
        self.n += sign;
    }
}

impl Accumulator for AvgAcc {
    fn iter(&mut self, v: &Value) {
        self.add(v, 1);
    }

    /// The integer sum travels as its high and low 64-bit halves.
    fn state(&self) -> Vec<Value> {
        vec![
            Value::Int((self.int_sum >> 64) as i64),
            Value::Int(self.int_sum as i64),
            Value::Float(self.float_sum),
            Value::Int(self.n),
        ]
    }

    fn merge(&mut self, state: &[Value]) {
        // H(): add components, divide at Final.
        let half = |i: usize| state[i].as_i64().unwrap_or(0);
        self.int_sum += ((half(0) as i128) << 64) | (half(1) as u64 as i128);
        self.float_sum += state[2].as_f64().unwrap_or(0.0);
        self.n += state[3].as_i64().unwrap_or(0);
    }

    fn final_value(&self) -> Value {
        if self.n == 0 {
            return Value::Null;
        }
        // No integer participant leaves the float sum's bits alone (its
        // sign included: `0.0 + -0.0` is `0.0`).
        let sum = match self.int_sum {
            0 => self.float_sum,
            i => i as f64 + self.float_sum,
        };
        Value::Float(sum / self.n as f64)
    }

    fn retract(&mut self, v: &Value) -> Retract {
        // As for SUM: a Float participant cannot be subtracted back out.
        if matches!(v, Value::Float(_)) {
            return Retract::Recompute;
        }
        self.add(v, -1);
        Retract::Applied
    }
}

impl AggregateFunction for Avg {
    fn name(&self) -> &str {
        "AVG"
    }
    fn kind(&self) -> AggKind {
        AggKind::Algebraic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(AvgAcc::default())
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Float)
    }
    fn retractable(&self) -> bool {
        true
    }
    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::Avg)
    }
}

// --------------------------------------------------- VARIANCE / STDDEV --

/// Population variance; scratchpad is `(count, sum, sum of squares)`.
///
/// The sum-of-squares form (rather than Welford) is chosen *because* it
/// merges exactly — the M-tuples of two partitions add componentwise,
/// which is what the cube cascade needs.
pub struct Variance;

#[derive(Default)]
pub struct VarianceAcc {
    n: i64,
    sum: f64,
    sumsq: f64,
}

impl VarianceAcc {
    fn variance(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let n = self.n as f64;
        let mean = self.sum / n;
        // Guard tiny negative results from float cancellation.
        Some((self.sumsq / n - mean * mean).max(0.0))
    }
}

impl Accumulator for VarianceAcc {
    fn iter(&mut self, v: &Value) {
        if let Some(x) = numeric(v) {
            self.n += 1;
            self.sum += x;
            self.sumsq += x * x;
        }
    }

    fn state(&self) -> Vec<Value> {
        vec![
            Value::Int(self.n),
            Value::Float(self.sum),
            Value::Float(self.sumsq),
        ]
    }

    fn merge(&mut self, state: &[Value]) {
        self.n += state[0].as_i64().unwrap_or(0);
        self.sum += state[1].as_f64().unwrap_or(0.0);
        self.sumsq += state[2].as_f64().unwrap_or(0.0);
    }

    fn final_value(&self) -> Value {
        self.variance().map_or(Value::Null, Value::Float)
    }

    fn retract(&mut self, v: &Value) -> Retract {
        // As for SUM: a Float participant cannot be subtracted back out.
        if matches!(v, Value::Float(_)) {
            return Retract::Recompute;
        }
        if let Some(x) = numeric(v) {
            // `x * x` overflows to Inf before x does; either way the
            // subtraction can't undo a non-finite contribution.
            if !(x * x).is_finite() || !self.sum.is_finite() || !self.sumsq.is_finite() {
                return Retract::Recompute;
            }
            self.n -= 1;
            self.sum -= x;
            self.sumsq -= x * x;
        }
        Retract::Applied
    }
}

impl AggregateFunction for Variance {
    fn name(&self) -> &str {
        "VARIANCE"
    }
    fn kind(&self) -> AggKind {
        AggKind::Algebraic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(VarianceAcc::default())
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Float)
    }
    fn retractable(&self) -> bool {
        true
    }
    fn cost(&self) -> u32 {
        2
    }
}

/// Population standard deviation; same scratchpad as [`Variance`].
pub struct StdDev;

pub struct StdDevAcc(VarianceAcc);

impl Accumulator for StdDevAcc {
    fn iter(&mut self, v: &Value) {
        self.0.iter(v);
    }
    fn state(&self) -> Vec<Value> {
        self.0.state()
    }
    fn merge(&mut self, state: &[Value]) {
        self.0.merge(state);
    }
    fn final_value(&self) -> Value {
        self.0
            .variance()
            .map_or(Value::Null, |v| Value::Float(v.sqrt()))
    }
    fn retract(&mut self, v: &Value) -> Retract {
        self.0.retract(v)
    }
}

impl AggregateFunction for StdDev {
    fn name(&self) -> &str {
        "STDDEV"
    }
    fn kind(&self) -> AggKind {
        AggKind::Algebraic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(StdDevAcc(VarianceAcc::default()))
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Float)
    }
    fn retractable(&self) -> bool {
        true
    }
    fn cost(&self) -> u32 {
        2
    }
}

// ------------------------------------------------------------- GEOMEAN --

/// Geometric mean over positive values; scratchpad is `(Σ ln x, count)`.
/// Non-positive and non-numeric inputs are skipped (the logarithm is
/// undefined for them), mirroring how SQL aggregates skip NULLs.
pub struct GeoMean;

#[derive(Default)]
pub struct GeoMeanAcc {
    log_sum: f64,
    n: i64,
}

impl Accumulator for GeoMeanAcc {
    fn iter(&mut self, v: &Value) {
        if let Some(x) = numeric(v) {
            if x > 0.0 {
                self.log_sum += x.ln();
                self.n += 1;
            }
        }
    }

    fn state(&self) -> Vec<Value> {
        vec![Value::Float(self.log_sum), Value::Int(self.n)]
    }

    fn merge(&mut self, state: &[Value]) {
        self.log_sum += state[0].as_f64().unwrap_or(0.0);
        self.n += state[1].as_i64().unwrap_or(0);
    }

    fn final_value(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            Value::Float((self.log_sum / self.n as f64).exp())
        }
    }

    fn retract(&mut self, v: &Value) -> Retract {
        if let Some(x) = numeric(v) {
            if x > 0.0 {
                let l = x.ln();
                // ln(+Inf) is Inf: not subtractable.
                if !l.is_finite() || !self.log_sum.is_finite() {
                    return Retract::Recompute;
                }
                self.log_sum -= l;
                self.n -= 1;
            }
        }
        Retract::Applied
    }
}

impl AggregateFunction for GeoMean {
    fn name(&self) -> &str {
        "GEOMEAN"
    }
    fn kind(&self) -> AggKind {
        AggKind::Algebraic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(GeoMeanAcc::default())
    }
    fn output_type(&self, _input: DataType) -> Option<DataType> {
        Some(DataType::Float)
    }
    fn retractable(&self) -> bool {
        true
    }
    fn cost(&self) -> u32 {
        2
    }
}

// ------------------------------------------------------------ MaxN/MinN --

/// Top-N accumulator shared by [`MaxN`] and [`MinN`]. The scratchpad is the
/// current best-N list — size bounded by N, hence algebraic (§5 lists
/// "MaxN(), MinN()" among the algebraic functions).
pub struct TopNAcc {
    is_max: bool,
    n: usize,
    // Sorted best-first.
    best: Vec<Value>,
}

impl TopNAcc {
    fn new(is_max: bool, n: usize) -> Self {
        TopNAcc {
            is_max,
            n,
            best: Vec::new(),
        }
    }

    fn insert(&mut self, v: &Value) {
        if v.is_null() || v.is_all() {
            return;
        }
        let pos = self
            .best
            .binary_search_by(|b| {
                if self.is_max {
                    v.cmp(b) // descending
                } else {
                    b.cmp(v) // ascending
                }
            })
            .unwrap_or_else(|p| p);
        self.best.insert(pos, v.clone());
        self.best.truncate(self.n);
    }
}

impl Accumulator for TopNAcc {
    fn iter(&mut self, v: &Value) {
        self.insert(v);
    }

    fn state(&self) -> Vec<Value> {
        self.best.clone()
    }

    fn merge(&mut self, state: &[Value]) {
        for v in state {
            self.insert(v);
        }
    }

    /// The N-th best value (SQL scalar convention), NULL when fewer than N
    /// inputs were seen. The full list is available through `state()`.
    fn final_value(&self) -> Value {
        self.best.get(self.n - 1).cloned().unwrap_or(Value::Null)
    }

    /// Like MAX, top-N is delete-holistic: deleting a list member loses
    /// information about the runner-up beyond the list.
    fn retract(&mut self, v: &Value) -> Retract {
        if v.is_null() || v.is_all() {
            return Retract::Applied;
        }
        if self.best.contains(v) {
            Retract::Recompute
        } else {
            Retract::Applied
        }
    }
}

/// `MAXN(column)` with fixed N: the N-th largest value.
pub struct MaxN(pub usize);

impl AggregateFunction for MaxN {
    fn name(&self) -> &str {
        "MAXN"
    }
    fn kind(&self) -> AggKind {
        AggKind::Algebraic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(TopNAcc::new(true, self.0.max(1)))
    }
}

/// `MINN(column)` with fixed N: the N-th smallest value.
pub struct MinN(pub usize);

impl AggregateFunction for MinN {
    fn name(&self) -> &str {
        "MINN"
    }
    fn kind(&self) -> AggKind {
        AggKind::Algebraic
    }
    fn init(&self) -> Box<dyn Accumulator> {
        Box::new(TopNAcc::new(false, self.0.max(1)))
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
    fn avg_is_sum_over_count() {
        let acc = feed(&Avg, &[50, 40, 85, 115]);
        assert_eq!(acc.final_value(), Value::Float(72.5));
        assert_eq!(Avg.init().final_value(), Value::Null);
    }

    #[test]
    fn avg_merge_matches_paper_example() {
        // "The H() function adds these two components and then divides."
        let mut a = feed(&Avg, &[50, 40]);
        let b = feed(&Avg, &[85, 115]);
        a.merge(&b.state());
        assert_eq!(a.final_value(), Value::Float(72.5));
    }

    #[test]
    fn variance_and_stddev() {
        let acc = feed(&Variance, &[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(acc.final_value(), Value::Float(4.0));
        let acc = feed(&StdDev, &[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(acc.final_value(), Value::Float(2.0));
    }

    #[test]
    fn variance_merge_equals_single_pass() {
        let mut a = feed(&Variance, &[2, 4, 4, 4]);
        let b = feed(&Variance, &[5, 5, 7, 9]);
        a.merge(&b.state());
        assert_eq!(a.final_value(), Value::Float(4.0));
    }

    #[test]
    fn maxn_minn_report_nth_value() {
        let acc = feed(&MaxN(3), &[10, 50, 20, 40, 30]);
        assert_eq!(acc.final_value(), Value::Int(30)); // 3rd largest
        assert_eq!(
            acc.state(),
            vec![Value::Int(50), Value::Int(40), Value::Int(30)]
        );
        let acc = feed(&MinN(2), &[10, 50, 20, 40]);
        assert_eq!(acc.final_value(), Value::Int(20));
        // Fewer than N inputs: NULL.
        let acc = feed(&MaxN(3), &[1]);
        assert_eq!(acc.final_value(), Value::Null);
    }

    #[test]
    fn topn_state_is_bounded() {
        // The algebraic criterion: |state| <= N regardless of input size.
        let acc = feed(&MaxN(3), &(0..1000).collect::<Vec<_>>());
        assert_eq!(acc.state().len(), 3);
    }

    #[test]
    fn topn_merge_matches_single_pass() {
        let mut a = feed(&MaxN(3), &[1, 9, 3]);
        let b = feed(&MaxN(3), &[7, 2, 8]);
        a.merge(&b.state());
        let whole = feed(&MaxN(3), &[1, 9, 3, 7, 2, 8]);
        assert_eq!(a.state(), whole.state());
    }

    #[test]
    fn topn_is_delete_holistic() {
        let mut acc = feed(&MaxN(2), &[10, 50, 20]);
        assert_eq!(acc.retract(&Value::Int(10)), Retract::Applied);
        assert_eq!(acc.retract(&Value::Int(50)), Retract::Recompute);
    }

    #[test]
    fn avg_retracts() {
        let mut acc = feed(&Avg, &[10, 20, 30]);
        assert_eq!(acc.retract(&Value::Int(30)), Retract::Applied);
        assert_eq!(acc.final_value(), Value::Float(15.0));
    }

    #[test]
    fn geomean_merges_and_retracts() {
        let acc = feed(&GeoMean, &[2, 8]);
        assert!((acc.final_value().as_f64().unwrap() - 4.0).abs() < 1e-12);
        let mut a = feed(&GeoMean, &[2]);
        let b = feed(&GeoMean, &[8]);
        a.merge(&b.state());
        assert!((a.final_value().as_f64().unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(a.retract(&Value::Int(8)), Retract::Applied);
        assert!((a.final_value().as_f64().unwrap() - 2.0).abs() < 1e-12);
        // Non-positive values are skipped, never poisoning the log-sum.
        let acc = feed(&GeoMean, &[-5, 0, 4]);
        assert_eq!(acc.final_value(), Value::Float(4.0));
    }

    #[test]
    fn tokens_do_not_participate() {
        let mut acc = Avg.init();
        acc.iter(&Value::Int(10));
        acc.iter(&Value::Null);
        acc.iter(&Value::All);
        assert_eq!(acc.final_value(), Value::Float(10.0));
    }
}
