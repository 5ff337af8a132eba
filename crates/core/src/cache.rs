//! Ancestor views for the lattice cache: materialized scratchpads that
//! answer whole grouping-set families without touching base rows.
//!
//! The paper's §5 observation — every node of the cube lattice is
//! computable from any ancestor when the aggregates are distributive or
//! algebraic — is applied *within* one query by the from-core cascade.
//! This module applies it *across* queries: a [`CachedView`] is the core
//! GROUP BY of some dimension set, stored not as final values but as the
//! paper's M-tuples ([`Accumulator::state`]), so any query whose
//! dimensions are a subset of the view's can be answered by Iter_super
//! ([`Accumulator::merge`]) over the view's cells.
//!
//! Storing scratchpads instead of results is what separates this from
//! [`crate::subcube::PartialCube`]: that structure keeps finalized
//! tables and therefore must reject algebraic functions (AVG of AVGs is
//! wrong), while a view here re-derives AVG from its (sum, count) state
//! exactly. The legality line moves from "distributive only" to
//! "anything with bounded, mergeable state" — see [`rewritable`].
//!
//! [`Accumulator::state`]: dc_aggregate::Accumulator::state
//! [`Accumulator::merge`]: dc_aggregate::Accumulator::merge

use crate::error::{CubeError, CubeResult};
use crate::exec::{self, ExecContext};
use crate::groupby::ExecStats;
use crate::lattice::GroupingSet;
use crate::spec::{AggSpec, Dimension};
use dc_aggregate::{Accumulator, AggRef};
use dc_relation::{ColumnDef, DataType, FxHashMap, Row, Schema, Table, Value};
use std::sync::Arc;

/// Whether a query using this aggregate may legally be answered from a
/// materialized ancestor's scratchpads.
///
/// The criterion is the paper's §5 taxonomy plus the Iter_super
/// availability probe: the scratchpad must have a constant size bound
/// (distributive or algebraic — holistic state is the whole multiset,
/// so caching it buys nothing over the base table) and `merge` must
/// genuinely fold sub-aggregate state (a UDA built without
/// `state()`/`merge()` would silently drop data). Everything else falls
/// through to a base scan.
pub fn rewritable(func: &AggRef) -> bool {
    func.kind().bounded_state() && func.mergeable()
}

/// One materialized lattice node: the core GROUP BY over `dims`, each
/// cell carrying per-aggregate scratchpad state rather than final
/// values.
pub struct CachedView {
    dim_names: Vec<Arc<str>>,
    dim_types: Vec<DataType>,
    agg_names: Vec<Arc<str>>,
    agg_types: Vec<DataType>,
    funcs: Vec<AggRef>,
    /// The unbound specs the view was built from, kept so a delta batch
    /// can be folded in ([`CachedView::absorb`]) by re-running the same
    /// core build over just the delta rows.
    dims: Vec<Dimension>,
    specs: Vec<AggSpec>,
    /// Core cells: full key over the view's dimensions (never containing
    /// `ALL` — `ALL` is introduced only when projecting onto a coarser
    /// set) plus one `state()` tuple per aggregate, sorted by key.
    cells: Vec<(Row, Vec<Vec<Value>>)>,
    base_rows: u64,
}

/// How a query maps onto a [`CachedView`] it wants answered from.
///
/// All indices are *view* positions: `dim_map[i]` is the view dimension
/// backing query dimension `i`, `agg_map[k]` the view aggregate backing
/// query aggregate `k`. Grouping sets are over the query's dimensions.
pub struct AncestorRequest<'a> {
    pub dim_map: &'a [usize],
    pub dim_names: &'a [&'a str],
    pub agg_map: &'a [usize],
    pub agg_names: &'a [&'a str],
    pub sets: &'a [GroupingSet],
}

impl std::fmt::Debug for CachedView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedView")
            .field("dims", &self.dim_names)
            .field("aggs", &self.agg_names)
            .field("cells", &self.cells.len())
            .field("base_rows", &self.base_rows)
            .finish()
    }
}

impl CachedView {
    /// Materialize the view with no execution limits: see
    /// [`CachedView::build_within`].
    pub fn build(table: &Table, dims: &[Dimension], aggs: &[AggSpec]) -> CubeResult<CachedView> {
        CachedView::build_within(table, dims, aggs, &ExecContext::unlimited())
    }

    /// Materialize the view: the engine's core scan of `table` grouped by
    /// all of `dims`, keeping each cell's scratchpads as state tuples.
    /// `ctx` governs the scan — a populate-on-miss build runs under its
    /// statement's deadline, cancel token and cell budget.
    ///
    /// Fails with [`CubeError::Unsupported`] if any aggregate is not
    /// [`rewritable`] — callers probe legality *before* paying the scan.
    pub fn build_within(
        table: &Table,
        dims: &[Dimension],
        aggs: &[AggSpec],
        ctx: &ExecContext,
    ) -> CubeResult<CachedView> {
        if dims.len() > GroupingSet::MAX_DIMS {
            return Err(CubeError::BadSpec(format!(
                "{} dimensions exceeds the {}-dimension limit",
                dims.len(),
                GroupingSet::MAX_DIMS
            )));
        }
        for a in aggs {
            if !rewritable(&a.func) {
                return Err(CubeError::Unsupported(format!(
                    "{} cannot be answered from cached ancestor state \
                     (holistic or non-mergeable)",
                    a.func.name()
                )));
            }
        }
        let schema = table.schema();
        let bdims = dims
            .iter()
            .map(|d| d.bind(schema))
            .collect::<CubeResult<Vec<_>>>()?;
        let baggs = aggs
            .iter()
            .map(|a| a.bind(schema))
            .collect::<CubeResult<Vec<_>>>()?;
        let agg_types = aggs
            .iter()
            .map(|a| a.output_type(schema))
            .collect::<CubeResult<Vec<_>>>()?;
        let cells = crate::algorithm::core_states(
            table.rows(),
            &bdims,
            &baggs,
            &mut ExecStats::default(),
            ctx,
        )?;
        Ok(CachedView {
            dim_names: bdims.iter().map(|d| d.name.clone()).collect(),
            dim_types: bdims.iter().map(|d| d.dtype).collect(),
            agg_names: baggs.iter().map(|a| a.output.clone()).collect(),
            agg_types,
            funcs: baggs.iter().map(|a| Arc::clone(&a.func)).collect(),
            dims: dims.to_vec(),
            specs: aggs.to_vec(),
            cells,
            base_rows: table.len() as u64,
        })
    }

    /// Fold a batch of freshly inserted base rows into the view by
    /// Iter_super, producing the view that `build` would have produced
    /// over the enlarged table — without rescanning it.
    ///
    /// This is §6's insert path applied to the cache: every [`rewritable`]
    /// aggregate is mergeable by definition, so the delta's scratchpads
    /// combine with the stored ones cell-for-cell (a sorted two-way
    /// merge). Deletes are *not* absorbed — retraction is the holistic
    /// direction — so callers fall back to version-bump invalidation for
    /// those.
    pub fn absorb(&self, delta: &Table) -> CubeResult<CachedView> {
        exec::failpoint("cache::absorb")?;
        let fresh = CachedView::build(delta, &self.dims, &self.specs)?;
        let mut cells: Vec<(Row, Vec<Vec<Value>>)> =
            Vec::with_capacity(self.cells.len() + fresh.cells.len());
        let (mut i, mut j) = (0, 0);
        while i < self.cells.len() && j < fresh.cells.len() {
            match self.cells[i].0.cmp(&fresh.cells[j].0) {
                std::cmp::Ordering::Less => {
                    cells.push(self.cells[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    cells.push(fresh.cells[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let merged = self
                        .funcs
                        .iter()
                        .enumerate()
                        .map(|(k, f)| {
                            let mut acc = exec::guard(f.name(), || f.init())?;
                            exec::guard(f.name(), || acc.merge(&self.cells[i].1[k]))?;
                            exec::guard(f.name(), || acc.merge(&fresh.cells[j].1[k]))?;
                            exec::guard(f.name(), || acc.state())
                        })
                        .collect::<CubeResult<Vec<_>>>()?;
                    cells.push((self.cells[i].0.clone(), merged));
                    i += 1;
                    j += 1;
                }
            }
        }
        cells.extend_from_slice(&self.cells[i..]);
        cells.extend_from_slice(&fresh.cells[j..]);
        Ok(CachedView {
            dim_names: self.dim_names.clone(),
            dim_types: self.dim_types.clone(),
            agg_names: self.agg_names.clone(),
            agg_types: self.agg_types.clone(),
            funcs: self.funcs.clone(),
            dims: self.dims.clone(),
            specs: self.specs.clone(),
            cells,
            base_rows: self.base_rows + fresh.base_rows,
        })
    }

    /// Number of core cells — the view's cardinality, the quantity both
    /// smallest-ancestor lookup and benefit-per-cell eviction rank by.
    pub fn cell_count(&self) -> u64 {
        self.cells.len() as u64
    }

    /// Base-table rows the view summarizes (the scan it saves per hit).
    pub fn base_rows(&self) -> u64 {
        self.base_rows
    }

    /// View dimension output names, in the view's column order.
    pub fn dim_names(&self) -> impl Iterator<Item = &str> {
        self.dim_names.iter().map(|n| &**n)
    }

    /// View aggregate output names, in the view's column order.
    pub fn agg_names(&self) -> impl Iterator<Item = &str> {
        self.agg_names.iter().map(|n| &**n)
    }

    /// The view's own grouping set in its dimension order — what
    /// `ExecStats::cache_ancestor_bits` reports on a hit.
    pub fn ancestor_bits(&self) -> u32 {
        GroupingSet::full(self.dim_names.len()).bits()
    }

    /// Answer a grouping-set family from this view's cells by Iter_super
    /// (Figure 8): for every requested set, project each core cell onto
    /// the set, merge scratchpad states per projected key, and finalize.
    ///
    /// Output is bit-identical to the operator's: sets ordered from the
    /// core down (length descending, then bitmask ascending, deduplicated)
    /// and each set's rows sorted by key. `ctx` is the *query's* context —
    /// cell creation charges the caller's budget, so a governed session
    /// cannot exceed its grant just because the answer came from cache.
    pub fn answer(&self, req: &AncestorRequest<'_>, ctx: &ExecContext) -> CubeResult<Table> {
        exec::failpoint("cache::rewrite")?;
        let n_dims = req.dim_map.len();
        if req.dim_names.len() != n_dims || req.agg_names.len() != req.agg_map.len() {
            return Err(CubeError::BadSpec(
                "ancestor request name/index arity mismatch".into(),
            ));
        }
        if let Some(&d) = req.dim_map.iter().find(|&&d| d >= self.dim_names.len()) {
            return Err(CubeError::BadSpec(format!(
                "ancestor request maps query dimension to view index {d}, \
                 but the view has {} dimensions",
                self.dim_names.len()
            )));
        }
        if let Some(&a) = req.agg_map.iter().find(|&&a| a >= self.funcs.len()) {
            return Err(CubeError::BadSpec(format!(
                "ancestor request maps query aggregate to view index {a}, \
                 but the view has {} aggregates",
                self.funcs.len()
            )));
        }
        let mut sets: Vec<GroupingSet> = req.sets.to_vec();
        sets.sort_by(|a, b| b.len().cmp(&a.len()).then(a.bits().cmp(&b.bits())));
        sets.dedup();

        let mut cols: Vec<ColumnDef> = req
            .dim_names
            .iter()
            .zip(req.dim_map.iter())
            .map(|(name, &d)| ColumnDef::with_all(name, self.dim_types[d]))
            .collect();
        for (name, &a) in req.agg_names.iter().zip(req.agg_map.iter()) {
            cols.push(ColumnDef::new(name, self.agg_types[a]));
        }
        let mut out = Table::empty(Schema::new(cols)?);

        for set in sets {
            ctx.checkpoint()?;
            let mut map: FxHashMap<Row, Vec<Box<dyn Accumulator>>> = FxHashMap::default();
            for (i, (key, states)) in self.cells.iter().enumerate() {
                ctx.tick(i)?;
                let projected = Row::new(
                    req.dim_map
                        .iter()
                        .enumerate()
                        .map(|(q, &d)| {
                            if set.contains(q) {
                                key[d].clone()
                            } else {
                                Value::All
                            }
                        })
                        .collect(),
                );
                use std::collections::hash_map::Entry;
                let accs = match map.entry(projected) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        ctx.charge_cells(1)?;
                        let fresh = req
                            .agg_map
                            .iter()
                            .map(|&a| exec::guard(self.funcs[a].name(), || self.funcs[a].init()))
                            .collect::<CubeResult<Vec<_>>>()?;
                        e.insert(fresh)
                    }
                };
                for (acc, &a) in accs.iter_mut().zip(req.agg_map.iter()) {
                    exec::guard(self.funcs[a].name(), || acc.merge(&states[a]))?;
                }
            }
            let mut cells: Vec<(Row, Vec<Box<dyn Accumulator>>)> = map.into_iter().collect();
            cells.sort_by(|a, b| a.0.cmp(&b.0));
            for (i, (key, accs)) in cells.into_iter().enumerate() {
                ctx.tick(i)?;
                let mut vals = key.0;
                for (acc, &a) in accs.iter().zip(req.agg_map.iter()) {
                    vals.push(exec::guard(self.funcs[a].name(), || acc.final_value())?);
                }
                out.push_unchecked(Row::new(vals));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::CubeQuery;
    use dc_aggregate::builtin;
    use dc_relation::row;

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        Table::new(
            schema,
            vec![
                row!["Chevy", 1994, 50],
                row!["Chevy", 1994, 40],
                row!["Chevy", 1995, 85],
                row!["Ford", 1994, 60],
                row!["Ford", Value::Null, 10],
            ],
        )
        .unwrap()
    }

    fn dims(names: &[&str]) -> Vec<Dimension> {
        names.iter().map(Dimension::column).collect()
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s"),
            AggSpec::new(builtin("AVG").unwrap(), "units").with_name("a"),
        ]
    }

    #[test]
    fn rewritable_follows_taxonomy() {
        assert!(rewritable(&builtin("SUM").unwrap()));
        assert!(rewritable(&builtin("AVG").unwrap())); // algebraic: OK here
        assert!(rewritable(&builtin("VARIANCE").unwrap()));
        assert!(!rewritable(&builtin("MEDIAN").unwrap()));
        assert!(!rewritable(&builtin("COUNT DISTINCT").unwrap()));
    }

    #[test]
    fn build_rejects_holistic() {
        let t = sales();
        let holistic = vec![AggSpec::new(builtin("MEDIAN").unwrap(), "units")];
        let err = CachedView::build(&t, &dims(&["model"]), &holistic).unwrap_err();
        assert!(matches!(err, CubeError::Unsupported(_)));
    }

    /// The decisive case for scratchpad (vs final-value) caching: a full
    /// CUBE with an algebraic AVG answered from the two-dimensional core
    /// must equal the operator's answer exactly, including the ALL rows.
    #[test]
    fn cube_from_ancestor_matches_operator() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model", "year"]), &specs()).unwrap();
        let sets = crate::lattice::cube_sets(2).unwrap();
        let got = view
            .answer(
                &AncestorRequest {
                    dim_map: &[0, 1],
                    dim_names: &["model", "year"],
                    agg_map: &[0, 1],
                    agg_names: &["s", "a"],
                    sets: &sets,
                },
                &ExecContext::unlimited(),
            )
            .unwrap();
        let expected = CubeQuery::new()
            .dimensions(dims(&["model", "year"]))
            .aggregate(specs()[0].clone())
            .aggregate(specs()[1].clone())
            .cube(&t)
            .unwrap();
        assert_eq!(got.rows(), expected.rows());
        assert_eq!(view.ancestor_bits(), 0b11);
    }

    /// A coarser query (GROUP BY year) answered from the (model, year)
    /// ancestor, with the query's own column order and names. NULL keys
    /// stay NULL — only dropped dimensions become ALL.
    #[test]
    fn subset_query_projects_and_renames() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model", "year"]), &specs()).unwrap();
        let got = view
            .answer(
                &AncestorRequest {
                    dim_map: &[1],
                    dim_names: &["year"],
                    agg_map: &[0],
                    agg_names: &["total"],
                    sets: &[GroupingSet::full(1)],
                },
                &ExecContext::unlimited(),
            )
            .unwrap();
        let expected = CubeQuery::new()
            .dimensions(dims(&["year"]))
            .aggregate(specs()[0].clone().with_name("total"))
            .group_by(&t)
            .unwrap();
        assert_eq!(got.rows(), expected.rows());
        assert_eq!(got.schema().column("total").unwrap().dtype, DataType::Int);
    }

    #[test]
    fn answer_charges_the_callers_budget() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model", "year"]), &specs()).unwrap();
        let ctx = ExecContext::new(&crate::exec::ExecLimits::none().max_cells(2), 1);
        let err = view
            .answer(
                &AncestorRequest {
                    dim_map: &[0, 1],
                    dim_names: &["model", "year"],
                    agg_map: &[0],
                    agg_names: &["s"],
                    sets: &[GroupingSet::full(2)],
                },
                &ctx,
            )
            .unwrap_err();
        assert!(matches!(err, CubeError::ResourceExhausted { .. }));
    }

    /// Absorbing a delta must be indistinguishable from rebuilding over
    /// the concatenated table — same cells, same answers, same count.
    #[test]
    fn absorb_equals_rebuild_over_union() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model", "year"]), &specs()).unwrap();
        let delta = Table::new(
            t.schema().clone(),
            vec![
                row!["Ford", 1995, 20],        // brand-new cell
                row!["Chevy", 1994, 5],        // merges into an existing cell
                row!["Ford", Value::Null, 30], // NULL key merges too
            ],
        )
        .unwrap();
        let absorbed = view.absorb(&delta).unwrap();

        let mut union_rows = t.rows().to_vec();
        union_rows.extend(delta.rows().iter().cloned());
        let union = Table::new(t.schema().clone(), union_rows).unwrap();
        let rebuilt = CachedView::build(&union, &dims(&["model", "year"]), &specs()).unwrap();

        let sets = crate::lattice::cube_sets(2).unwrap();
        let req = AncestorRequest {
            dim_map: &[0, 1],
            dim_names: &["model", "year"],
            agg_map: &[0, 1],
            agg_names: &["s", "a"],
            sets: &sets,
        };
        let ctx = ExecContext::unlimited();
        assert_eq!(
            absorbed.answer(&req, &ctx).unwrap().rows(),
            rebuilt.answer(&req, &ctx).unwrap().rows()
        );
        assert_eq!(absorbed.cell_count(), rebuilt.cell_count());
        assert_eq!(absorbed.base_rows(), rebuilt.base_rows());
    }

    #[test]
    fn bad_maps_are_rejected() {
        let t = sales();
        let view = CachedView::build(&t, &dims(&["model"]), &specs()).unwrap();
        let ctx = ExecContext::unlimited();
        let bad_dim = AncestorRequest {
            dim_map: &[7],
            dim_names: &["model"],
            agg_map: &[0],
            agg_names: &["s"],
            sets: &[GroupingSet::full(1)],
        };
        assert!(matches!(
            view.answer(&bad_dim, &ctx),
            Err(CubeError::BadSpec(_))
        ));
        let bad_agg = AncestorRequest {
            dim_map: &[0],
            dim_names: &["model"],
            agg_map: &[9],
            agg_names: &["s"],
            sets: &[GroupingSet::full(1)],
        };
        assert!(matches!(
            view.answer(&bad_agg, &ctx),
            Err(CubeError::BadSpec(_))
        ));
    }
}
