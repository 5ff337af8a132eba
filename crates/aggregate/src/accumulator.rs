//! The aggregate lifecycle traits: Init / Iter / Final / Iter_super.

use dc_relation::{DataType, Value};

/// The paper's §5 classification of aggregate functions.
///
/// The classification determines how a cube may be computed:
///
/// * [`AggKind::Distributive`] — `F({X}) = G({F(partition)})` for some `G`
///   (`F = G` for all of SUM/MIN/MAX; `G = SUM` for COUNT). Super-aggregates
///   fold *results* of sub-aggregates.
/// * [`AggKind::Algebraic`] — a fixed-size M-tuple `G(partition)` summarizes
///   each partition and `H` combines M-tuples (AVG carries `(sum, count)`).
///   Super-aggregates fold *scratchpads*.
/// * [`AggKind::Holistic`] — no constant-bound state summarizes a partition
///   (MEDIAN, MODE, COUNT DISTINCT). Only the 2^N algorithm applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    Distributive,
    Algebraic,
    Holistic,
}

impl AggKind {
    /// True when the function's scratchpad has a constant size bound — the
    /// paper's criterion separating algebraic from holistic.
    pub fn bounded_state(self) -> bool {
        !matches!(self, AggKind::Holistic)
    }
}

/// Result of attempting to retract (delete) a value from an accumulator —
/// the §6 maintenance taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retract {
    /// The deletion was folded into the scratchpad (SUM, COUNT, AVG:
    /// "algebraic for delete").
    Applied,
    /// The scratchpad cannot answer without revisiting base data — e.g.
    /// deleting the current MAX ("max is distributive for SELECT and
    /// INSERT, but holistic for DELETE", §6). The caller must recompute
    /// this cell from base rows.
    Recompute,
    /// This accumulator does not support retraction at all.
    Unsupported,
}

/// A live scratchpad: the handle that *Init* allocates in Figure 7.
///
/// `state()` returns the paper's M-tuple: the fixed-size summary that makes
/// a function algebraic. For distributive functions the tuple is the result
/// itself (M = 1); for holistic functions it has no constant bound (the
/// whole multiset) — which is exactly the paper's definition of holistic.
pub trait Accumulator: Send + Sync {
    /// *Iter*: fold in the next value. Implementations skip `NULL` and
    /// `ALL` ("ALL, like NULL, does not participate in any aggregate except
    /// COUNT()", §3.3); `COUNT(*)` is the one accumulator that counts them.
    fn iter(&mut self, v: &Value);

    /// The scratchpad contents as a value tuple (the algebraic M-tuple).
    fn state(&self) -> Vec<Value>;

    /// *Iter_super*: fold another accumulator's `state()` into this one.
    ///
    /// Folding states rather than `&dyn Accumulator` keeps the trait
    /// object-safe and doubles as the partition-coalescing step of the
    /// paper's parallel-aggregation note.
    fn merge(&mut self, state: &[Value]);

    /// *Final*: produce the aggregate value. Non-consuming so materialized
    /// cube cells can be read repeatedly while staying maintainable.
    fn final_value(&self) -> Value;

    /// Delete `v` from the aggregate, if the scratchpad permits.
    ///
    /// Default is [`Retract::Unsupported`]; see [`Retract`] for the
    /// taxonomy.
    fn retract(&mut self, _v: &Value) -> Retract {
        Retract::Unsupported
    }
}

/// An aggregate function definition: the factory side of Figure 7.
pub trait AggregateFunction: Send + Sync {
    /// Canonical (upper-case) name, e.g. `"SUM"`.
    fn name(&self) -> &str;

    /// §5 taxonomy position.
    fn kind(&self) -> AggKind;

    /// *Init*: allocate and initialize a scratchpad.
    fn init(&self) -> Box<dyn Accumulator>;

    /// Result type given the input column type. `None` means "same as
    /// input" (MIN/MAX track their column's type).
    fn output_type(&self, input: DataType) -> Option<DataType> {
        let _ = input;
        None
    }

    /// True if every accumulator of this function supports retraction
    /// without ever requesting a recompute — §6's "algebraic for insert,
    /// update, and delete" class (COUNT, SUM, AVG...). MIN/MAX return
    /// `false`: they are delete-holistic.
    fn retractable(&self) -> bool {
        false
    }

    /// Relative evaluation cost the optimizer may use to order work; the
    /// paper notes "more sophisticated systems allow the aggregate function
    /// to declare a computation cost". Unit: arbitrary, 1 = trivial fold.
    fn cost(&self) -> u32 {
        1
    }

    /// The vectorized kernel that computes this aggregate over primitive
    /// column slices, if one exists (see [`crate::vectorized`]). `None` —
    /// the default, and the only possibility for holistic and user-defined
    /// aggregates — keeps the query on the Init/Iter/Final row path.
    fn kernel(&self) -> Option<crate::vectorized::Kernel> {
        None
    }

    /// True when [`Accumulator::merge`] genuinely folds sub-aggregate
    /// state — i.e. the paper's Iter_super is available. Every built-in
    /// merges (holistic ones carry the whole multiset as their state); a
    /// user-defined holistic aggregate built without `state()`/`merge()`
    /// does not, and its no-op `merge` would silently drop data in any
    /// merge-based plan. Algorithm selection must route such functions to
    /// a direct scan (see the cube engine's non-mergeable fallback).
    fn mergeable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AggKind::Distributive.bounded_state());
        assert!(AggKind::Algebraic.bounded_state());
        assert!(!AggKind::Holistic.bounded_state());
    }
}
