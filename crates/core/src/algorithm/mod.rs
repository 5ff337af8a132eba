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
//! | [`Algorithm::Parallel`] | "use parallelism to aggregate each partition and then coalesce" | `T/P` Iters per thread + merges |
//! | [`repro::Repro::Sort`] | "sort the table ... then compute" (ROLLUP) | 1 sort + `T` Iters |
//! | [`repro::Repro::Array`] | dense N-dimensional array over symbol tables | `T` Iters + array sweeps |
//! | [`repro::Repro::PipeSort`] | the \[ADGNRS\] shared-sort idea | `C(N, N/2)` sorts, `T` Iters each |
//!
//! [`Algorithm`] is the product: each variant is a `Shape` of the arena
//! `engine`'s one grouping scan, which carries every query whatever its
//! key width. [`repro`] is the reproduction: Sort, Array and PipeSort with
//! their own key machinery, and the `Row`-keyed originals of the
//! hash-based four kept as the model the engine is tested against — one
//! `#[doc(hidden)]` entry, nothing on the serving path calls it.

pub(crate) mod array;
pub(crate) mod engine;
pub(crate) mod pipesort;
pub(crate) mod reference;
#[doc(hidden)]
pub mod repro;
pub(crate) mod sort;

use crate::error::{CubeError, CubeResult};
use crate::exec::ExecContext;
use crate::groupby::ExecStats;
use crate::lattice::{GroupingSet, Lattice};
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::{AggKind, AggregateFunction};
use dc_relation::{Schema, Table};

/// Selects how a cube / rollup / grouping-sets query is executed: the
/// shapes of the one arena engine.
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
    /// Partition the input across threads, aggregate each partition's
    /// core, coalesce by merging, then cascade.
    Parallel { threads: usize },
}

/// How the cascade picks each set's parent — ablated by claim C6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParentChoice {
    /// The paper's rule: aggregate away the smallest-cardinality dimension.
    SmallestCardinality,
    /// Adversarial ablation: aggregate away the largest-cardinality
    /// dimension.
    LargestCardinality,
    /// Always cascade directly from the core (no intermediate reuse).
    AlwaysCore,
}

impl ParentChoice {
    /// The already-`materialized` set `set` is folded from.
    pub(crate) fn parent(
        self,
        lattice: &Lattice,
        set: GroupingSet,
        cardinalities: &[usize],
        materialized: &[GroupingSet],
    ) -> GroupingSet {
        match self {
            ParentChoice::AlwaysCore => lattice.core(),
            ParentChoice::SmallestCardinality => {
                lattice.choose_parent(set, cardinalities, materialized)
            }
            ParentChoice::LargestCardinality => set
                .parents(lattice.n_dims())
                .into_iter()
                .filter(|p| materialized.contains(p))
                .max_by_key(|p| {
                    let added = p.bits() & !set.bits();
                    let d = added.trailing_zeros() as usize;
                    cardinalities.get(d).copied().unwrap_or(0)
                })
                .unwrap_or_else(|| lattice.core()),
        }
    }
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

/// Resolve `algorithm` for a select list of `funcs`.
///
/// A UDA built without state()/merge() has a no-op Iter_super: any plan
/// that folds sub-aggregate scratchpads (from-core cascade, parallel
/// coalescing) would silently drop its data. Such functions are still
/// legal — they just pin execution to the scan-per-cell 2^N shape.
pub(crate) fn resolve<'a>(
    algorithm: Algorithm,
    funcs: impl Iterator<Item = &'a dyn AggregateFunction> + Clone,
    choice: ParentChoice,
) -> Shape {
    let from_core = |threads| Shape::FromCore { threads, choice };
    match algorithm {
        Algorithm::TwoToTheN => Shape::EverySet,
        Algorithm::UnionGroupBys => Shape::PerSet,
        _ if !funcs.clone().all(|f| f.mergeable()) => Shape::EverySet,
        // §5: "We know of no more efficient way of computing
        // super-aggregates of holistic functions".
        Algorithm::Auto if funcs.clone().any(|f| f.kind() == AggKind::Holistic) => Shape::EverySet,
        Algorithm::Auto | Algorithm::FromCore => from_core(None),
        Algorithm::Parallel { threads } => from_core(Some(threads)),
    }
}

/// The plan `algorithm` runs for a select list of `funcs`, as one line of
/// text: exactly the resolution [`CubeQuery`](crate::CubeQuery) execution
/// performs, for EXPLAIN to print instead of restating the rule.
pub fn describe_plan(algorithm: Algorithm, funcs: &[&dyn AggregateFunction]) -> String {
    let choice = ParentChoice::SmallestCardinality;
    match resolve(algorithm, funcs.iter().copied(), choice) {
        Shape::EverySet => "2^N (one scan, every row into every grouping set)".into(),
        Shape::PerSet => "union of GROUP BYs (one scan per grouping set)".into(),
        Shape::FromCore { threads: None, .. } => {
            "from-core cascade (Iter_super, smallest-Ci parent)".into()
        }
        Shape::FromCore {
            threads: Some(t), ..
        } => format!("parallel from-core cascade ({t} scan workers, coalesce, Iter_super)"),
    }
}

/// Execute the lattice with the chosen algorithm and materialize the sets
/// in `keep` (all of them when `None`): resolve the [`Shape`], then the
/// [`engine`]'s one grouping scan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    algorithm: Algorithm,
    table: &Table,
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    choice: ParentChoice,
    keep: Option<&[GroupingSet]>,
    schema: Schema,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Table> {
    check_applies(algorithm)?;
    let shape = resolve(algorithm, aggs.iter().map(|a| &*a.func), choice);
    engine::execute(table, dims, aggs, lattice, shape, keep, schema, stats, ctx)
}

/// The one applicability check an [`Algorithm`] has, made before the
/// select list is looked at so error behavior does not depend on it.
pub(crate) fn check_applies(algorithm: Algorithm) -> CubeResult<()> {
    match algorithm {
        Algorithm::Parallel { threads: 0 } => {
            Err(CubeError::BadSpec("Parallel requires threads >= 1".into()))
        }
        _ => Ok(()),
    }
}

// The unit tests of the four `reference` algorithms, one module per
// algorithm under the path each has had since it was a file of its own:
// test names are how the suite's floor follows a test from PR to PR.

#[cfg(test)]
mod fixtures {
    use crate::spec::{AggSpec, BoundAgg, BoundDimension, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{DataType, Schema, Table};

    pub(super) use super::{reference::set_maps, ParentChoice, Shape};
    pub(super) use crate::exec::ExecContext;
    pub(super) use crate::groupby::{ExecStats, SetMaps};
    pub(super) use crate::lattice::{GroupingSet, Lattice};
    pub(super) use dc_relation::{row, Row, Value};

    pub(super) const FROM_CORE: Shape = Shape::FromCore {
        threads: None,
        choice: ParentChoice::SmallestCardinality,
    };

    /// An empty `(dims..., units)` table with its bound dimensions and
    /// `aggs` bound over `units`.
    pub(super) fn setup(
        dims: &[(&str, DataType)],
        aggs: &[&str],
    ) -> (Table, Vec<BoundDimension>, Vec<BoundAgg>) {
        let mut cols = dims.to_vec();
        cols.push(("units", DataType::Int));
        let t = Table::empty(Schema::from_pairs(&cols));
        let dims = dims
            .iter()
            .map(|(d, _)| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let aggs = aggs
            .iter()
            .map(|f| {
                AggSpec::new(builtin(f).unwrap(), "units")
                    .bind(t.schema())
                    .unwrap()
            })
            .collect();
        (t, dims, aggs)
    }

    /// The paper's 2 models × 2 years × 2 colors sales rows (510 units).
    pub(super) fn sales_3d(aggs: &[&str]) -> (Table, Vec<BoundDimension>, Vec<BoundAgg>) {
        let dims = [
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("color", DataType::Str),
        ];
        let (mut t, dims, aggs) = setup(&dims, aggs);
        for (m, y, c, u) in [
            ("Chevy", 1994, "black", 50),
            ("Chevy", 1994, "white", 40),
            ("Chevy", 1995, "black", 85),
            ("Chevy", 1995, "white", 115),
            ("Ford", 1994, "black", 50),
            ("Ford", 1994, "white", 10),
            ("Ford", 1995, "black", 85),
            ("Ford", 1995, "white", 75),
        ] {
            t.push(row![m, y, c, u]).unwrap();
        }
        (t, dims, aggs)
    }
}

#[cfg(test)]
mod naive {
    mod tests {
        use super::super::fixtures::*;
        use dc_relation::DataType;

        #[test]
        fn touches_every_set_per_row() {
            let dims = [("model", DataType::Str), ("year", DataType::Int)];
            let (mut t, dims, aggs) = setup(&dims, &["SUM"]);
            for (m, y, u) in [("Chevy", 1994, 50), ("Chevy", 1995, 85), ("Ford", 1994, 60)] {
                t.push(row![m, y, u]).unwrap();
            }
            let lattice = Lattice::cube(2).unwrap();
            let mut stats = ExecStats::default();
            let ctx = ExecContext::unlimited();
            let every = Shape::EverySet;
            let maps = set_maps(every, t.rows(), &dims, &aggs, &lattice, &mut stats, &ctx).unwrap();
            // T × 2^N × |aggs| = 3 × 4 × 1 Iter calls — the paper's cost formula.
            assert_eq!(stats.iter_calls, 12);
            assert_eq!(stats.rows_scanned, 3);
            // Grand total cell.
            let (_, empty_map) = maps.iter().find(|(s, _)| *s == GroupingSet::EMPTY).unwrap();
            let key = Row::new(vec![Value::All, Value::All]);
            assert_eq!(empty_map[&key][0].final_value(), Value::Int(195));
        }
    }
}

#[cfg(test)]
mod unions {
    mod tests {
        use super::super::fixtures::*;
        use dc_relation::DataType;

        #[test]
        fn one_scan_per_grouping_set() {
            let (mut t, dims, aggs) = setup(&[("model", DataType::Str)], &["SUM"]);
            t.push(row!["Chevy", 50]).unwrap();
            t.push(row!["Ford", 60]).unwrap();
            let lattice = Lattice::cube(1).unwrap();
            let mut stats = ExecStats::default();
            let ctx = ExecContext::unlimited();
            let per_set = Shape::PerSet;
            set_maps(per_set, t.rows(), &dims, &aggs, &lattice, &mut stats, &ctx).unwrap();
            // 2 sets × 2 rows: each set re-scans the base table.
            assert_eq!(stats.rows_scanned, 4);
        }
    }
}

#[cfg(test)]
mod from_core {
    mod tests {
        use super::super::fixtures::*;

        fn run(shape: Shape, aggs: &[&str], lattice: &Lattice) -> (SetMaps, ExecStats) {
            let (t, dims, aggs) = sales_3d(aggs);
            let mut stats = ExecStats::default();
            let ctx = ExecContext::unlimited();
            let maps = set_maps(shape, t.rows(), &dims, &aggs, lattice, &mut stats, &ctx).unwrap();
            (maps, stats)
        }

        // Consumes the maps so keys move instead of cloning per final value.
        fn finals(maps: SetMaps) -> Vec<(GroupingSet, Vec<(Row, Value)>)> {
            maps.into_iter()
                .map(|(s, m)| {
                    let mut cells: Vec<(Row, Value)> = m
                        .into_iter()
                        .map(|(k, a)| (k, a[0].final_value()))
                        .collect();
                    cells.sort();
                    (s, cells)
                })
                .collect()
        }

        #[test]
        fn matches_the_2n_algorithm() {
            let lattice = Lattice::cube(3).unwrap();
            let (a, s1) = run(FROM_CORE, &["SUM"], &lattice);
            let (b, s2) = run(Shape::EverySet, &["SUM"], &lattice);
            assert_eq!(finals(a), finals(b));
            // And it does it in ONE scan with T iters, vs T × 2^N.
            assert_eq!(s1.rows_scanned, 8);
            assert_eq!(s1.iter_calls, 8);
            assert_eq!(s2.iter_calls, 8 * 8);
        }

        #[test]
        fn parent_choices_agree_on_results() {
            let lattice = Lattice::cube(3).unwrap();
            let expected = finals(run(FROM_CORE, &["SUM"], &lattice).0);
            for choice in [ParentChoice::LargestCardinality, ParentChoice::AlwaysCore] {
                let shape = Shape::FromCore {
                    threads: None,
                    choice,
                };
                let got = finals(run(shape, &["SUM"], &lattice).0);
                assert_eq!(got, expected, "{choice:?} must produce identical cells");
            }
        }

        #[test]
        fn algebraic_cascade_gives_exact_average() {
            // Figure 8's scenario: AVG super-aggregates need the (sum, count)
            // scratchpads, not the averaged results.
            let (maps, _) = run(FROM_CORE, &["AVG"], &Lattice::cube(3).unwrap());
            let (_, grand) = maps.iter().find(|(s, _)| s.is_empty()).unwrap();
            let key = Row::new(vec![Value::All, Value::All, Value::All]);
            // Mean of the 8 unit values = 510 / 8.
            assert_eq!(grand[&key][0].final_value(), Value::Float(510.0 / 8.0));
        }

        #[test]
        fn works_on_rollup_lattices() {
            let (maps, _) = run(FROM_CORE, &["SUM"], &Lattice::rollup(3).unwrap());
            assert_eq!(maps.len(), 4);
            // Each rollup level's sub-totals sum to the grand total.
            for (_, map) in &maps {
                let total: i64 = map
                    .values()
                    .map(|a| a[0].final_value().as_i64().unwrap())
                    .sum();
                assert_eq!(total, 510);
            }
        }
    }
}

#[cfg(test)]
mod parallel {
    mod tests {
        use super::super::fixtures::*;
        use dc_relation::DataType;

        fn run(n_rows: usize, shape: Shape) -> SetMaps {
            let dims = [("model", DataType::Str), ("year", DataType::Int)];
            let (mut t, dims, aggs) = setup(&dims, &["SUM", "AVG"]);
            let models = ["Chevy", "Ford", "Dodge"];
            for i in 0..n_rows {
                t.push(row![
                    models[i % 3],
                    1990 + (i % 5) as i64,
                    (i * 7 % 100) as i64
                ])
                .unwrap();
            }
            let lattice = Lattice::cube(2).unwrap();
            let (mut stats, ctx) = (ExecStats::default(), ExecContext::unlimited());
            set_maps(shape, t.rows(), &dims, &aggs, &lattice, &mut stats, &ctx).unwrap()
        }

        fn threads(threads: usize) -> Shape {
            Shape::FromCore {
                threads: Some(threads),
                choice: ParentChoice::SmallestCardinality,
            }
        }

        #[test]
        fn matches_naive_across_thread_counts() {
            let expected = run(101, Shape::EverySet);
            for n in [1, 2, 4, 7] {
                let got = run(101, threads(n));
                for (set, map) in &expected {
                    let (_, gmap) = got.iter().find(|(s, _)| s == set).unwrap();
                    assert_eq!(gmap.len(), map.len(), "{n} threads, set {set}");
                    for (k, accs) in map {
                        for (i, acc) in accs.iter().enumerate() {
                            assert_eq!(
                                gmap[k][i].final_value(),
                                acc.final_value(),
                                "{n} threads, {k}, agg {i}"
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn more_threads_than_rows_is_fine() {
            let maps = run(3, threads(16));
            let (_, grand) = maps.iter().find(|(s, _)| s.is_empty()).unwrap();
            let key = Row::new(vec![Value::All, Value::All]);
            assert_eq!(grand[&key][0].final_value(), Value::Int(7 + 14));
        }

        #[test]
        fn empty_input() {
            assert!(run(0, threads(4)).iter().all(|(_, m)| m.is_empty()));
        }
    }
}
