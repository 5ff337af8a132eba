//! Aggregate-function framework for the data cube.
//!
//! This crate reproduces two pieces of the paper:
//!
//! 1. **The user-defined aggregate protocol** (§1.2, Figure 7): aggregates
//!    are objects with an *Init* (allocate a scratchpad), *Iter* (fold in the
//!    next value), and *Final* (produce the result) lifecycle, plus the
//!    paper's proposed **`Iter_super`** call (§5, Figure 8) that folds one
//!    scratchpad into another so super-aggregates can be computed from
//!    sub-aggregates without re-reading base data. Here *Init* is
//!    [`AggregateFunction::init`], *Iter* is [`Accumulator::iter`], *Final*
//!    is [`Accumulator::final_value`], and *Iter_super* is
//!    [`Accumulator::merge`] over [`Accumulator::state`] — the "M-tuple"
//!    the paper's algebraic functions carry.
//!
//! 2. **The distributive / algebraic / holistic taxonomy** (§5), which the
//!    cube algorithms in the `datacube` crate consult to decide whether
//!    super-aggregates may be cascaded from the core GROUP BY
//!    (distributive, algebraic) or must fall back to the 2^N algorithm
//!    (holistic). §6's orthogonal *maintenance* taxonomy — SUM is algebraic
//!    for DELETE but MAX is delete-holistic — is captured by
//!    [`Accumulator::retract`] and [`Retract`].
//!
//! Built-in functions cover the SQL five (COUNT, SUM, MIN, MAX, AVG), the
//! statistical extensions the paper lists (variance, stddev, MaxN/MinN),
//! the holistic examples (MEDIAN, MODE, COUNT DISTINCT, percentile), and
//! Red Brick's ordered aggregates (§1.2: RANK, N_TILE, RATIO_TO_TOTAL,
//! CUMULATIVE, RUNNING_SUM, RUNNING_AVERAGE) in [`ordered`].

pub mod accumulator;
pub mod algebraic;
pub mod compare;
pub mod distributive;
pub mod error;
#[cfg(feature = "faults")]
pub mod faults;
pub mod holistic;
pub mod ordered;
pub mod registry;
pub mod udf;
pub mod vectorized;

pub use accumulator::{Accumulator, AggKind, AggregateFunction, Retract};
pub use error::{AggError, AggResult};
pub use registry::{builtin, builtins, Registry};
pub use udf::UdaBuilder;
pub use vectorized::{update_i64_fused, FusedOp, Kernel, KernelCell, Validity};

use std::sync::Arc;

/// Shared handle to an aggregate function definition.
pub type AggRef = Arc<dyn AggregateFunction>;
