//! The `Row`-keyed reference: §5's hash-based algorithms as the paper
//! words them, over `Row` keys and boxed accumulators.
//!
//! These are the original bodies of the 2^N algorithm, the union of GROUP
//! BYs, the from-core cascade and partition-parallel aggregation, from
//! before the arena [`engine`](super::engine) carried all four as shapes
//! of one scan. No query reaches them: they stay as the model the engine
//! is tested against — same cells, same [`ExecStats`] work counters — and
//! keep their checkpoints, panic guards and fault sites, so a test can
//! also compare how the two unwind. [`repro::run`](super::repro::run) is
//! the one way in from outside the crate.

use super::{ParentChoice, Shape};
use crate::error::CubeResult;
use crate::exec::{self, ExecContext};
use crate::groupby::{
    compute_core, core_cardinalities, full_key, project_key, update_cell, ExecStats, GroupMap,
    SetMaps,
};
use crate::lattice::{GroupingSet, Lattice};
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::faults::Site;
use dc_relation::Row;
use std::collections::HashMap;

/// The cells of every grouping set of `lattice`, computed the way `shape`
/// names.
pub(crate) fn set_maps(
    shape: Shape,
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    match shape {
        Shape::EverySet => two_to_the_n(rows, dims, aggs, lattice, stats, ctx),
        Shape::PerSet => union_group_bys(rows, dims, aggs, lattice, stats, ctx),
        Shape::FromCore {
            threads: None,
            choice,
        } => {
            let core = compute_core(rows, dims, aggs, stats, ctx)?;
            cascade(core, aggs, lattice, choice, stats, ctx)
        }
        Shape::FromCore {
            threads: Some(threads),
            choice,
        } => parallel(rows, dims, aggs, lattice, threads, choice, stats, ctx),
    }
}

/// The 2^N algorithm (§5).
///
/// "The simplest algorithm to compute the cube is to allocate a handle for
/// each cube cell. When a new tuple (x1, x2, ..., xN, v) arrives, the
/// Iter(handle, v) function is called 2^N times — once for each handle of
/// each cell of the cube matching this value." This is the only algorithm
/// that works for holistic aggregates, and the cost baseline every other
/// algorithm is measured against: `T × |sets| × |aggs|` Iter() calls in a
/// single scan.
fn two_to_the_n(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    exec::failpoint(Site::NaiveScan)?;
    let mut maps: SetMaps = lattice
        .sets()
        .iter()
        .map(|&s| (s, GroupMap::default()))
        .collect();
    for (i, row) in rows.iter().enumerate() {
        ctx.tick(i)?;
        stats.rows_scanned += 1;
        let full = full_key(dims, row);
        for (set, map) in maps.iter_mut() {
            let key = project_key(&full, *set);
            update_cell(map, key, row, aggs, stats, ctx)?;
        }
    }
    Ok(maps)
}

/// The union-of-GROUP-BYs plan (§2).
///
/// "A six dimension cross-tab requires a 64-way union of 64 different
/// GROUP BY operators ... On most SQL systems this will result in 64 scans
/// of the data, 64 sorts or hashes, and a long wait." One independent
/// GROUP BY scan per grouping set — what the CUBE operator saves over the
/// hand-written query.
fn union_group_bys(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    exec::failpoint(Site::UnionsScan)?;
    let mut maps = SetMaps::with_capacity(lattice.sets().len());
    for &set in lattice.sets() {
        // One full scan per grouping set — the cost §2 complains about.
        let mut map = GroupMap::default();
        for (i, row) in rows.iter().enumerate() {
            ctx.tick(i)?;
            stats.rows_scanned += 1;
            let key = project_key(&full_key(dims, row), set);
            update_cell(&mut map, key, row, aggs, stats, ctx)?;
        }
        maps.push((set, map));
    }
    Ok(maps)
}

/// Computing super-aggregates from the core GROUP BY (§5, Figure 8).
///
/// "It is often faster to compute the super-aggregates from the core
/// GROUP BY, reducing the number of calls by approximately a factor of T."
/// Given the core cells, every other grouping set is produced by folding a
/// *parent* set's scratchpads (the paper's `Iter_super` call) — never
/// touching base rows again. Parent selection follows the paper's rule:
/// drop the dimension with the smallest cardinality ("pick the * with the
/// smallest Cᵢ").
///
/// This works for distributive and algebraic aggregates because their
/// scratchpads are closed under merging; holistic aggregates technically
/// merge here too (their scratchpad is the whole multiset) but gain
/// nothing — `Algorithm::Auto` routes them to the 2^N algorithm instead,
/// and claim C10 (EXPERIMENTS.md) says why.
fn cascade(
    core: GroupMap,
    aggs: &[BoundAgg],
    lattice: &Lattice,
    choice: ParentChoice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    exec::failpoint(Site::CascadeLevel)?;
    let core_set = lattice.core();
    let cardinalities = core_cardinalities(&core, lattice.n_dims());

    // Materialized sets, in cascade order (lattice is ordered core-first,
    // decreasing arity, so every set's one-step parents precede it).
    let mut done: HashMap<GroupingSet, GroupMap> = HashMap::new();
    let mut order: Vec<GroupingSet> = Vec::with_capacity(lattice.sets().len());
    done.insert(core_set, core);
    order.push(core_set);

    for &set in lattice.sets() {
        if set == core_set {
            continue;
        }
        let parent = choice.parent(lattice, set, &cardinalities, &order);
        ctx.checkpoint()?;
        let parent_map = &done[&parent];
        let mut map =
            GroupMap::with_capacity_and_hasher(parent_map.len() / 2 + 1, Default::default());
        for (pkey, paccs) in parent_map {
            let key = project_key(pkey, set);
            let accs = match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    ctx.charge_cells(1)?;
                    e.insert(exec::guarded_init(aggs)?)
                }
            };
            for ((acc, pacc), agg) in accs.iter_mut().zip(paccs.iter()).zip(aggs.iter()) {
                exec::guard(agg.func.name(), || acc.merge(&pacc.state()))?;
                stats.merge_calls += 1;
            }
        }
        done.insert(set, map);
        order.push(set);
    }

    // Emit in lattice order.
    #[expect(
        clippy::expect_used,
        reason = "the cascade above materializes each lattice set exactly once"
    )]
    let sets = lattice
        .sets()
        .iter()
        .map(|s| (*s, done.remove(s).expect("every set materialized")))
        .collect();
    Ok(sets)
}

/// Partition-parallel aggregation (§5).
///
/// "If the source data spans many disks or nodes, use parallelism to
/// aggregate each partition and then coalesce these aggregates." And the
/// taxonomy discussion adds: "the distributive, algebraic, and holistic
/// taxonomy is very useful in computing aggregates for parallel database
/// systems ... The combination step is very similar to the logic and
/// mechanism used in Figure 8." Each worker thread computes the core
/// cells of its row partition; partitions are coalesced by scratchpad
/// merging (the same `Iter_super` as the cascade), and the cascade then
/// produces the super-aggregates.
#[allow(clippy::too_many_arguments)]
fn parallel(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    threads: usize,
    choice: ParentChoice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    let threads = threads.max(1).min(rows.len().max(1));
    stats.threads_used = stats.threads_used.max(threads as u64);
    let chunk = rows.len().div_ceil(threads);

    // Aggregate each partition's core in parallel. Every handle is joined
    // before any error propagates: an early `?` would drop the remaining
    // handles and let a second panicking worker unwind through the scope.
    let partials: Vec<CubeResult<(GroupMap, ExecStats)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(chunk.max(1))
            .map(|part| {
                scope.spawn(move |_| -> CubeResult<(GroupMap, ExecStats)> {
                    exec::failpoint(Site::ParallelWorker)?;
                    let mut local = ExecStats::default();
                    let core = compute_core(part, dims, aggs, &mut local, ctx)?;
                    Ok((core, local))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|p| Err(exec::panic_error("parallel::worker", p.as_ref())))
            })
            .collect()
    })
    .unwrap_or_else(|p| vec![Err(exec::panic_error("parallel::worker", p.as_ref()))]);

    // Coalesce: merge every partition's cells into one core.
    let mut core = GroupMap::default();
    for partial in partials {
        let (partial, local) = partial?;
        stats.add(&local);
        for (key, accs) in partial {
            match core.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for ((t, s), agg) in e.get_mut().iter_mut().zip(accs.iter()).zip(aggs.iter()) {
                        exec::guard(agg.func.name(), || t.merge(&s.state()))?;
                        stats.merge_calls += 1;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    // First partition to produce this cell: adopt its
                    // scratchpads outright — they are already exactly the
                    // cell's state, so an Init + merge round-trip per
                    // aggregate is pure waste. Later partitions that
                    // revisit the cell hit the Occupied arm and merge.
                    e.insert(accs);
                }
            }
        }
    }

    cascade(core, aggs, lattice, choice, stats, ctx)
}
