//! Error type for the cube operators.

use crate::groupby::ExecStats;
use dc_aggregate::AggError;
use dc_relation::RelError;
use std::fmt;

/// Which budget a [`CubeError::ResourceExhausted`] trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The materialized-cell budget (`ExecLimits::max_cells`, or the
    /// global cell budget a service admits queries against).
    Cells,
    /// The estimated-memory budget (`ExecLimits::max_memory_bytes`).
    MemoryBytes,
    /// The wall-clock deadline (`ExecLimits::timeout`), in milliseconds.
    TimeMs,
    /// The bounded admission queue of a service in front of the engine:
    /// the query was load-shed because the queue (or the connection cap)
    /// was full, or a failpoint tripped the admission path. The engine
    /// itself never raises it.
    AdmissionQueue {
        /// The shedder's backoff hint, in milliseconds (0 = none).
        retry_hint_ms: u32,
    },
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Cells => write!(f, "cells"),
            Resource::MemoryBytes => write!(f, "memory bytes"),
            Resource::TimeMs => write!(f, "milliseconds"),
            Resource::AdmissionQueue { .. } => write!(f, "admission queue slots"),
        }
    }
}

/// Errors raised while planning or executing cube queries.
#[derive(Debug, Clone, PartialEq)]
pub enum CubeError {
    /// Underlying relational error (unknown column, arity, ...).
    Rel(RelError),
    /// Underlying aggregate-framework error.
    Agg(AggError),
    /// A grouping-set specification referenced a dimension out of range or
    /// was otherwise malformed.
    BadSpec(String),
    /// The requested algorithm cannot run this query (e.g. sort-based
    /// execution was asked for a non-rollup lattice).
    Unsupported(String),
    /// A budget was exceeded: one of `ExecLimits` during execution, or an
    /// admission budget of a service in front of the engine, which sheds
    /// before anything runs. `stats` carries the work counters
    /// accumulated up to the trip point (all zero for a shed), so callers
    /// can observe how far the query got.
    ResourceExhausted {
        /// The budget that tripped.
        resource: Resource,
        /// The configured limit.
        limit: u64,
        /// The observed value that exceeded it.
        observed: u64,
        /// Partial work counters at the trip point.
        stats: ExecStats,
    },
    /// The query's cancellation token was triggered. `stats` carries the
    /// partial work counters at the cancellation checkpoint.
    Cancelled {
        /// Partial work counters at the cancellation point.
        stats: ExecStats,
    },
    /// A user-defined aggregate (or a worker running one) panicked; the
    /// unwind was caught and converted instead of aborting the process or
    /// poisoning a thread scope.
    AggPanicked {
        /// Name of the aggregate (or execution site) that panicked.
        agg: String,
        /// The panic payload, rendered as text.
        message: String,
    },
}

impl CubeError {
    /// Attach partial execution stats to budget/cancellation errors; other
    /// variants pass through unchanged. The operator layer calls this once
    /// the global counters are known — deep call sites raise the error
    /// with empty stats.
    #[must_use]
    pub fn with_partial_stats(self, partial: ExecStats) -> Self {
        match self {
            CubeError::ResourceExhausted {
                resource,
                limit,
                observed,
                ..
            } => CubeError::ResourceExhausted {
                resource,
                limit,
                observed,
                stats: partial,
            },
            CubeError::Cancelled { .. } => CubeError::Cancelled { stats: partial },
            other => other,
        }
    }
}

impl fmt::Display for CubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeError::Rel(e) => write!(f, "relational error: {e}"),
            CubeError::Agg(e) => write!(f, "aggregate error: {e}"),
            CubeError::BadSpec(msg) => write!(f, "bad cube specification: {msg}"),
            CubeError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            CubeError::ResourceExhausted {
                resource,
                limit,
                observed,
                ..
            } => write!(
                f,
                "resource budget exhausted: {observed} {resource} observed, limit {limit}"
            ),
            CubeError::Cancelled { .. } => write!(f, "query cancelled"),
            CubeError::AggPanicked { agg, message } => {
                write!(f, "aggregate '{agg}' panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CubeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CubeError::Rel(e) => Some(e),
            CubeError::Agg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelError> for CubeError {
    fn from(e: RelError) -> Self {
        CubeError::Rel(e)
    }
}

impl From<AggError> for CubeError {
    fn from(e: AggError) -> Self {
        CubeError::Agg(e)
    }
}

/// Convenience alias.
pub type CubeResult<T> = Result<T, CubeError>;
