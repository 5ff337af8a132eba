//! The reproduction side of §5: the algorithms the paper describes that no
//! served query selects, behind one entry.
//!
//! [`Repro::Reference`] is the `Row`-keyed originals of the four hash-based
//! algorithms (`algorithm/reference.rs`) — the model the arena engine is tested
//! against, same cells and same [`ExecStats`] work counters. Sort, Array
//! and PipeSort are distinct algorithms with their own key machinery, kept
//! for the paper's cost claims (one sort per ROLLUP, `Π(Cᵢ + 1)` array
//! cells, `C(N, ⌊N/2⌋)` shared sorts). All four keep their checkpoints,
//! panic guards and fault sites, and [`run`] binds through the query like
//! its own operators do, so the query's limits apply here too.

use super::{array, check_applies, pipesort, reference, resolve, sort, ParentChoice, Shape};
use crate::error::{CubeError, CubeResult};
use crate::groupby::{materialize, ExecStats};
use crate::lattice::{rollup_sets, GroupingSet, Lattice};
use crate::operator::CubeQuery;
use dc_relation::Table;

pub use super::array::MAX_CELLS;
pub use super::pipesort::symmetric_chains;

/// Which reproduction algorithm [`run`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repro {
    /// The `Row`-keyed original of whichever [`Algorithm`](super::Algorithm)
    /// the query selects, resolved for its select list as the engine
    /// resolves it.
    Reference,
    /// Sort-based single-pass ROLLUP (rollup lattices only).
    Sort,
    /// Dense N-dimensional array over dictionary-encoded dimensions
    /// (full-cube lattices only; refuses with `ResourceExhausted` when the
    /// array would exceed [`MAX_CELLS`] or the query's cell budget).
    Array,
    /// PipeSort-style shared sorts (the paper's \[ADGNRS\] reference):
    /// cover the lattice with C(N, N/2) symmetric chains, one sorted scan
    /// each (full-cube lattices only).
    PipeSort,
}

/// Run `query` over `lattice` on the `which` algorithm and materialize the
/// sets in `keep` (all of them when `None`): what the query's own
/// operators compute, through none of the engine's code.
pub fn run(
    which: Repro,
    query: &CubeQuery,
    table: &Table,
    lattice: &Lattice,
    keep: Option<&[GroupingSet]>,
) -> CubeResult<(Table, ExecStats)> {
    query.run_bound(table, |dims, aggs, schema, stats, ctx| {
        let rows = table.rows();
        // Lattice shape first, so error behavior does not depend on the
        // select list.
        let unsupported = |what: &str| Err(CubeError::Unsupported(what.into()));
        match which {
            Repro::Reference => check_applies(query.selected_algorithm())?,
            Repro::Sort if lattice.sets() != rollup_sets(lattice.n_dims())?.as_slice() => {
                return unsupported("the sort algorithm applies only to ROLLUP lattices");
            }
            Repro::Array if !lattice.is_full_cube() => {
                return unsupported("the dense array algorithm computes full cubes only");
            }
            Repro::PipeSort if !lattice.is_full_cube() => {
                return unsupported("PipeSort computes full cubes only");
            }
            _ => {}
        }
        let funcs = aggs.iter().map(|a| &*a.func);
        let mut maps = match which {
            Repro::Reference => {
                let choice = ParentChoice::SmallestCardinality;
                let shape = resolve(query.selected_algorithm(), funcs, choice);
                reference::set_maps(shape, rows, dims, aggs, lattice, stats, ctx)
            }
            // Frame closes, slab sweeps and chain hand-offs all fold
            // scratchpads: a function whose Iter_super is a no-op is
            // pinned to the scan-per-cell 2^N here as on the engine.
            _ if !funcs.clone().all(|f| f.mergeable()) => {
                reference::set_maps(Shape::EverySet, rows, dims, aggs, lattice, stats, ctx)
            }
            Repro::Sort => sort::run(rows, dims, aggs, lattice, stats, ctx),
            Repro::Array => array::run(rows, dims, aggs, lattice, stats, ctx),
            Repro::PipeSort => pipesort::run(rows, dims, aggs, lattice, stats, ctx),
        }?;
        if let Some(keep) = keep {
            maps.retain(|(s, _)| keep.contains(s));
        }
        materialize(schema, maps, aggs, stats, ctx)
    })
}
