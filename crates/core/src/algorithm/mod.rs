//! Cube computation algorithms (§5 of the paper).
//!
//! Every algorithm consumes the same inputs — base rows, bound dimensions
//! and aggregates, and a grouping-set [`Lattice`] — and produces the same
//! cells, so results are interchangeable and property tests assert their
//! equality. What differs is the *work*, reported through
//! [`crate::ExecStats`]:
//!
//! | Algorithm | §5 reference | Cost shape |
//! |---|---|---|
//! | [`Algorithm::TwoToTheN`] | "the 2^N-algorithm" | `T × 2^N` Iter() calls, 1 scan |
//! | [`Algorithm::UnionGroupBys`] | §2's 64-way UNION | `2^N` scans, `T × 2^N` Iters |
//! | [`Algorithm::FromCore`] | "compute the super-aggregates from the core" | `T` Iters + cell merges |
//! | [`Algorithm::Sort`] | "sort the table ... then compute" (ROLLUP) | 1 sort + `T × N` Iters |
//! | [`Algorithm::Array`] | dense N-dimensional array over symbol tables | `T` Iters + array sweeps |
//! | [`Algorithm::Parallel`] | "use parallelism to aggregate each partition and then coalesce" | `T/P` Iters per thread + merges |
//! | [`Algorithm::PipeSort`] | the \[ADGNRS\] shared-sort idea | `C(N, N/2)` sorts, `T` Iters each |

pub(crate) mod array;
pub(crate) mod engine;
pub(crate) mod from_core;
pub(crate) mod naive;
pub(crate) mod parallel;
pub(crate) mod pipesort;
pub(crate) mod sort;
pub(crate) mod unions;

pub use array::MAX_CELLS;
pub use from_core::ParentChoice;
pub use pipesort::symmetric_chains;

use crate::error::{CubeError, CubeResult, Resource};
use crate::exec::ExecContext;
use crate::groupby::{materialize, ExecStats, SetMaps};
use crate::lattice::{rollup_sets, GroupingSet, Lattice};
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::AggKind;
use dc_relation::{Row, Schema, Table, Value};

/// Selects how a cube / rollup / grouping-sets query is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Pick automatically: holistic aggregates force the 2^N algorithm
    /// (§5: "We know of no more efficient way of computing
    /// super-aggregates of holistic functions"); otherwise cascade from
    /// the core.
    #[default]
    Auto,
    /// Update every matching cell of every grouping set for every input
    /// row.
    TwoToTheN,
    /// Run one independent GROUP BY per grouping set and union the
    /// results — the plan §2 predicts for the hand-written 64-way UNION.
    UnionGroupBys,
    /// Compute the core GROUP BY once, then cascade super-aggregates by
    /// merging scratchpads, dropping the smallest-cardinality dimension
    /// first.
    FromCore,
    /// Sort-based single-pass ROLLUP (rollup lattices only).
    Sort,
    /// Dense N-dimensional array over dictionary-encoded dimensions
    /// (full-cube lattices only; falls back with an error when the array
    /// would exceed [`array::MAX_CELLS`]).
    Array,
    /// PipeSort-style shared sorts (the paper's \[ADGNRS\] reference):
    /// cover the lattice with C(N, N/2) symmetric chains, one sorted
    /// scan each (full-cube lattices only).
    PipeSort,
    /// Partition the input across threads, aggregate each partition's
    /// core, coalesce by merging, then cascade.
    Parallel { threads: usize },
}

/// What a hash-based algorithm asks of the one grouping scan: which
/// grouping sets each pass over the base rows folds into, and whether a
/// cascade derives the rest.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Shape {
    /// 2^N: one pass folds every row into every grouping set; no cascade.
    EverySet,
    /// Union of GROUP BYs, and the streaming degradation rung: one pass
    /// per grouping set.
    PerSet,
    /// One pass computes the core, the cascade derives every other set.
    /// `threads` is the `Parallel` algorithm's worker request (`None`:
    /// one worker, and the projected-size degradation check applies).
    FromCore {
        threads: Option<usize>,
        choice: ParentChoice,
    },
}

/// Execute the lattice with the chosen algorithm and materialize the sets
/// in `keep` (all of them when `None`).
///
/// The hash-based algorithms (2^N, unions, from-core, parallel) are
/// [`Shape`]s over one grouping scan. With `encoded_keys` they run on the
/// arena [`engine`] over packed `u64` keys, falling back to the `Row`-keyed
/// reference path when the coordinate does not pack (see
/// [`crate::encode`]); without it they run the reference path directly.
/// The sort- and array-based algorithms have their own key machinery and
/// ignore the switch. Results are identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    algorithm: Algorithm,
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    choice: ParentChoice,
    encoded_keys: bool,
    keep: Option<&[GroupingSet]>,
    schema: Schema,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Table> {
    let finish = |mut maps: SetMaps, schema: Schema, stats: &mut ExecStats| {
        if let Some(keep) = keep {
            maps.retain(|(s, _)| keep.contains(s));
        }
        materialize(schema, maps, aggs, stats, ctx)
    };
    // A UDA built without state()/merge() has a no-op Iter_super: any plan
    // that folds sub-aggregate scratchpads (from-core cascade, sort frame
    // closes, array slab sweeps, PipeSort chain hand-offs, parallel
    // coalescing) would silently drop its data. Such functions are still
    // legal — they just pin execution to the scan-per-cell 2^N shape, after
    // each algorithm's own shape checks so error behavior is unchanged.
    let mergeable = aggs.iter().all(|a| a.func.mergeable());
    let from_core = Shape::FromCore {
        threads: None,
        choice,
    };
    let shape = match algorithm {
        Algorithm::TwoToTheN => Shape::EverySet,
        Algorithm::UnionGroupBys => Shape::PerSet,
        Algorithm::Parallel { threads: 0 } => {
            return Err(CubeError::BadSpec("Parallel requires threads >= 1".into()))
        }
        Algorithm::Sort if lattice.sets() != rollup_sets(lattice.n_dims())?.as_slice() => {
            return Err(CubeError::Unsupported(
                "the sort algorithm applies only to ROLLUP lattices".into(),
            ))
        }
        Algorithm::Array if !lattice.is_full_cube() => {
            return Err(CubeError::Unsupported(
                "the dense array algorithm computes full cubes only".into(),
            ))
        }
        Algorithm::PipeSort if !lattice.is_full_cube() => {
            return Err(CubeError::Unsupported(
                "PipeSort computes full cubes only".into(),
            ))
        }
        _ if !mergeable => Shape::EverySet,
        // §5: "We know of no more efficient way of computing
        // super-aggregates of holistic functions".
        Algorithm::Auto if aggs.iter().any(|a| a.func.kind() == AggKind::Holistic) => {
            Shape::EverySet
        }
        Algorithm::Auto | Algorithm::FromCore => from_core,
        Algorithm::Parallel { threads } => Shape::FromCore {
            threads: Some(threads),
            choice,
        },
        Algorithm::Sort => {
            let maps = sort::run(rows, dims, aggs, lattice, stats, ctx)?;
            return finish(maps, schema, stats);
        }
        Algorithm::PipeSort => {
            let maps = pipesort::run(rows, dims, aggs, lattice, stats, ctx)?;
            return finish(maps, schema, stats);
        }
        Algorithm::Array => match array::run(rows, dims, aggs, lattice, stats, ctx) {
            // Degradation rung 1: the dense array's *projected* size is
            // checked before anything is materialized, so a cell/memory
            // trip here is free to retry on the sparse hash-based path
            // (which only pays for cells that actually exist).
            Err(CubeError::ResourceExhausted {
                resource: Resource::Cells | Resource::MemoryBytes,
                ..
            }) => {
                stats.degraded_dense_to_sparse = true;
                from_core
            }
            other => return finish(other?, schema, stats),
        },
    };
    if encoded_keys {
        if let Some(enc) = crate::encode::encode(rows, dims) {
            stats.encoded_keys = true;
            return engine::execute(&enc, rows, aggs, lattice, shape, keep, schema, stats, ctx);
        }
    }
    let maps = match shape {
        Shape::EverySet => naive::run_row_path(rows, dims, aggs, lattice, stats, ctx),
        Shape::PerSet => unions::run_row_path(rows, dims, aggs, lattice, stats, ctx),
        Shape::FromCore {
            threads: None,
            choice,
        } => from_core::run_with_choice_row_path(rows, dims, aggs, lattice, choice, stats, ctx),
        Shape::FromCore {
            threads: Some(threads),
            ..
        } => parallel::run_row_path(rows, dims, aggs, lattice, threads, stats, ctx),
    }?;
    finish(maps, schema, stats)
}

/// The core GROUP BY over all of `dims` as `(key, per-aggregate state)`
/// cells sorted by key — what a cached view stores. Runs the engine's core
/// scan, or the `Row`-keyed one when the coordinate does not pack.
pub(crate) fn core_states(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Vec<(Row, Vec<Vec<Value>>)>> {
    if let Some(enc) = crate::encode::encode(rows, dims) {
        return engine::core_states(&enc, rows, aggs, stats, ctx);
    }
    let core = crate::groupby::compute_core(rows, dims, aggs, stats, ctx)?;
    let mut cells = Vec::with_capacity(core.len());
    for (i, (key, accs)) in core.into_iter().enumerate() {
        ctx.tick(i)?;
        let states = accs
            .iter()
            .zip(aggs)
            .map(|(acc, a)| crate::exec::guard(a.func.name(), || acc.state()))
            .collect::<CubeResult<Vec<_>>>()?;
        cells.push((key, states));
    }
    cells.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(cells)
}
