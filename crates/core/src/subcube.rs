//! Partial cube materialization (§6's pointer to Harinarayan, Rajaraman
//! and Ullman, "Implementing Data Cubes Efficiently", SIGMOD 1996).
//!
//! "Harinarayn, Rajaraman, and Ullman have interesting ideas on
//! pre-computing a sub-cube of the cube." The full cube has 2^N grouping
//! sets; materializing all of them may be too expensive, but any set can
//! be *answered* from any materialized superset (for distributive and
//! algebraic functions — the same property the from-core cascade uses).
//! HRU's greedy algorithm picks the k views whose materialization most
//! reduces the total cost of answering every set, and is provably within
//! (1 − 1/e) of optimal.
//!
//! [`greedy_select`] implements the algorithm over estimated view sizes.
//! Materializing a selection and answering arbitrary grouping sets from
//! the cheapest materialized ancestor is the store's job:
//! `MaterializedCube::with_lattice(.., Lattice::new(n, selection)?)` then
//! [`MaterializedCube::answer`].

use crate::error::CubeResult;
use crate::lattice::{cube_sets, GroupingSet};
use crate::maintain::MaterializedCube;
use std::collections::HashMap;

/// Estimated row count of each grouping set, the quantity HRU's benefit
/// function works with.
#[derive(Debug, Clone)]
pub struct SizeModel {
    sizes: HashMap<GroupingSet, u64>,
}

impl SizeModel {
    /// The standard independence estimate: |set| ≈ min(Π C_i, T) — the
    /// product of member cardinalities capped by the base row count.
    pub fn independent(cardinalities: &[usize], base_rows: u64) -> CubeResult<Self> {
        let n = cardinalities.len();
        let mut sizes = HashMap::new();
        for set in cube_sets(n)? {
            // Saturating: a dozen high-cardinality dimensions overflow u64
            // long before the row-count cap applies.
            let product = (set.dims().iter()).fold(1u64, |p, &d| {
                p.saturating_mul(cardinalities[d].max(1) as u64)
            });
            sizes.insert(set, product.min(base_rows).max(1));
        }
        Ok(SizeModel { sizes })
    }

    /// Exact sizes read off a materialized store's nodes (a full
    /// `MaterializedCube::cube` is a census). A set the store does not
    /// materialize gets the size of its smallest materialized superset —
    /// what answering it reads, and an upper bound on its own size.
    pub fn measured(store: &MaterializedCube) -> CubeResult<Self> {
        let nodes = store.node_sizes();
        let n_dims = nodes.first().map_or(0, |(core, _)| core.len());
        let size = |set: GroupingSet| {
            let supersets = nodes.iter().filter(|(m, _)| set.subset_of(*m));
            supersets.map(|&(_, cells)| cells).min().unwrap_or(1).max(1)
        };
        let sizes = cube_sets(n_dims)?
            .into_iter()
            .map(|s| (s, size(s)))
            .collect();
        Ok(SizeModel { sizes })
    }

    pub fn size(&self, set: GroupingSet) -> u64 {
        self.sizes.get(&set).copied().unwrap_or(1)
    }
}

/// What answering `set` reads given `materialized` views: the smallest
/// materialized superset (HRU's linear cost model).
fn cheapest(set: GroupingSet, materialized: &[GroupingSet], model: &SizeModel) -> u64 {
    let supersets = materialized.iter().filter(|m| set.subset_of(**m));
    supersets.map(|&m| model.size(m)).min().unwrap_or(u64::MAX)
}

/// Cost of answering every grouping set given `materialized` views. The
/// core must be in `materialized`.
pub fn total_cost(sets: &[GroupingSet], materialized: &[GroupingSet], model: &SizeModel) -> u64 {
    let cost = |&s: &GroupingSet| cheapest(s, materialized, model);
    sets.iter().map(cost).sum()
}

/// One greedy pick: the view (with its benefit) that most reduces total
/// cost, per HRU's benefit function.
fn best_candidate(
    sets: &[GroupingSet],
    materialized: &[GroupingSet],
    model: &SizeModel,
) -> Option<(GroupingSet, u64)> {
    let mut best: Option<(GroupingSet, u64)> = None;
    for &v in sets {
        if materialized.contains(&v) {
            continue;
        }
        // Benefit of v: for every set w ⊆ v, the saving over its current
        // cheapest ancestor.
        let v_size = model.size(v);
        let saving = |&w: &GroupingSet| cheapest(w, materialized, model).saturating_sub(v_size);
        let benefit: u64 = sets.iter().filter(|w| w.subset_of(v)).map(saving).sum();
        match best {
            Some((_, b)) if b >= benefit => {}
            _ => best = Some((v, benefit)),
        }
    }
    best
}

/// HRU's greedy algorithm: starting from the core (always materialized),
/// pick `k` further views maximizing marginal benefit. Returns the
/// selection (core first, then picks in order) and the final total cost.
pub fn greedy_select(
    n_dims: usize,
    k: usize,
    model: &SizeModel,
) -> CubeResult<(Vec<GroupingSet>, u64)> {
    let sets = cube_sets(n_dims)?;
    let core = GroupingSet::full(n_dims);
    let mut materialized = vec![core];
    for _ in 0..k.min(sets.len().saturating_sub(1)) {
        let Some((pick, benefit)) = best_candidate(&sets, &materialized, model) else {
            break;
        };
        if benefit == 0 {
            break; // nothing left to gain
        }
        materialized.push(pick);
    }
    let cost = total_cost(&sets, &materialized, model);
    Ok((materialized, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggSpec, AncestorRequest, CubeQuery, Dimension, ExecContext, Lattice};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Schema, Table, Value};

    fn sum_units() -> AggSpec {
        AggSpec::new(builtin("SUM").unwrap(), "units").with_name("units")
    }

    fn base() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("color", DataType::Str),
            ("units", DataType::Int),
        ]);
        let mut t = Table::empty(schema);
        for (m, y, c, u) in [
            ("Chevy", 1994, "black", 50),
            ("Chevy", 1994, "white", 40),
            ("Chevy", 1995, "black", 85),
            ("Ford", 1994, "black", 50),
            ("Ford", 1995, "white", 75),
        ] {
            t.push(row![m, y, c, u]).unwrap();
        }
        t
    }

    fn dims() -> Vec<Dimension> {
        vec![
            Dimension::column("model"),
            Dimension::column("year"),
            Dimension::column("color"),
        ]
    }

    #[test]
    fn independence_model_caps_at_base_rows() {
        let m = SizeModel::independent(&[100, 100, 100], 5_000).unwrap();
        assert_eq!(m.size(GroupingSet::full(3)), 5_000); // 10^6 capped
        assert_eq!(m.size(GroupingSet::from_dims(&[0]).unwrap()), 100);
        assert_eq!(m.size(GroupingSet::EMPTY), 1);
        // 200^10 overflows u64; the estimate saturates, then caps.
        let m = SizeModel::independent(&[200; 10], 5_000).unwrap();
        assert_eq!(m.size(GroupingSet::full(10)), 5_000);
    }

    #[test]
    fn greedy_prefers_high_benefit_views() {
        // 3 dims with very different cardinalities: materializing the
        // small {2}-ancestors saves the most.
        let model = SizeModel::independent(&[1_000, 1_000, 2], 1_000_000).unwrap();
        let (selection, _) = greedy_select(3, 1, &model).unwrap();
        assert_eq!(selection.len(), 2);
        let pick = selection[1];
        // The pick must be a 2-dim view (answers four sets), and the
        // cheapest such view includes the tiny dimension: {0,2} or {1,2}.
        assert_eq!(pick.len(), 2);
        assert!(
            pick.contains(2),
            "greedy should pick a view shrunk by the C=2 dim"
        );
    }

    #[test]
    fn greedy_cost_is_monotone_in_k() {
        let model = SizeModel::independent(&[50, 20, 10, 5], 100_000).unwrap();
        let mut last = u64::MAX;
        for k in 0..=15 {
            let (_, cost) = greedy_select(4, k, &model).unwrap();
            assert!(cost <= last, "cost must not increase with k (k={k})");
            last = cost;
        }
        // Materializing everything: every set answered at its own size.
        let sets = cube_sets(4).unwrap();
        let all_cost = total_cost(&sets, &sets, &model);
        let (_, max_k_cost) = greedy_select(4, 15, &model).unwrap();
        assert_eq!(max_k_cost, all_cost);
    }

    #[test]
    fn greedy_is_competitive_with_exhaustive_optimum() {
        // HRU prove greedy is within (1 − 1/e) ≈ 0.63 of the optimal
        // *benefit*. For a 3D lattice we can brute-force the optimum and
        // check the guarantee holds on assorted size models.
        let sets = cube_sets(3).unwrap();
        let core = GroupingSet::full(3);
        for cards in [[2usize, 3, 4], [100, 2, 50], [7, 7, 7], [1000, 1, 10]] {
            let model = SizeModel::independent(&cards, 1_000_000).unwrap();
            let base_cost = total_cost(&sets, &[core], &model);
            for k in 1..=3usize {
                let (_, greedy_cost) = greedy_select(3, k, &model).unwrap();
                // Exhaustive optimum over all k-subsets of non-core views.
                let candidates: Vec<GroupingSet> =
                    sets.iter().copied().filter(|s| *s != core).collect();
                let mut best = u64::MAX;
                let mut pick = vec![0usize; k];
                // Simple k-combination enumeration.
                fn combos(
                    cands: &[GroupingSet],
                    k: usize,
                    start: usize,
                    current: &mut Vec<GroupingSet>,
                    all: &mut Vec<Vec<GroupingSet>>,
                ) {
                    if current.len() == k {
                        all.push(current.clone());
                        return;
                    }
                    for i in start..cands.len() {
                        current.push(cands[i]);
                        combos(cands, k, i + 1, current, all);
                        current.pop();
                    }
                }
                let mut all = Vec::new();
                combos(&candidates, k, 0, &mut Vec::new(), &mut all);
                for combo in all {
                    let mut mat = vec![core];
                    mat.extend(combo);
                    best = best.min(total_cost(&sets, &mat, &model));
                }
                let _ = &mut pick;
                let greedy_benefit = base_cost - greedy_cost;
                let optimal_benefit = base_cost - best;
                assert!(
                    greedy_benefit as f64 >= 0.63 * optimal_benefit as f64,
                    "cards {cards:?}, k={k}: greedy benefit {greedy_benefit} \
                     < 63% of optimal {optimal_benefit}"
                );
            }
        }
    }

    /// Materialize `selection` and answer one grouping set from it.
    fn partial(aggs: Vec<AggSpec>, selection: &[GroupingSet]) -> MaterializedCube {
        let lattice = Lattice::new(3, selection.to_vec()).unwrap();
        MaterializedCube::with_lattice(&base(), dims(), aggs, lattice).unwrap()
    }

    fn answer(store: &MaterializedCube, aggs: &[&str], set: GroupingSet) -> CubeResult<Table> {
        let agg_map: Vec<usize> = (0..aggs.len()).collect();
        let req = AncestorRequest {
            dim_map: &[0, 1, 2],
            dim_names: &["model", "year", "color"],
            agg_map: &agg_map,
            agg_names: aggs,
            sets: &[set],
        };
        store.answer(&req, &ExecContext::unlimited())
    }

    #[test]
    fn partial_selection_answers_match_full_cube() {
        let full = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_units())
            .cube(&base())
            .unwrap();
        // Materialize only the core and {model}.
        let selection = [GroupingSet::full(3), GroupingSet::from_dims(&[0]).unwrap()];
        let store = partial(vec![sum_units()], &selection);
        for set in cube_sets(3).unwrap() {
            let got = answer(&store, &["units"], set).unwrap();
            let want = full.filter(|r| (0..3).all(|d| (r[d] != Value::All) == set.contains(d)));
            assert_eq!(got.rows(), want.rows(), "grouping set {set}");
        }
    }

    #[test]
    fn measured_sizes_come_from_the_store() {
        let model_only = GroupingSet::from_dims(&[0]).unwrap();
        let store = partial(vec![sum_units()], &[GroupingSet::full(3), model_only]);
        let model = SizeModel::measured(&store).unwrap();
        assert_eq!(model.size(GroupingSet::full(3)), 5);
        assert_eq!(model.size(model_only), 2);
        // Unmaterialized: the smallest materialized superset it reads.
        assert_eq!(model.size(GroupingSet::EMPTY), 2);
        assert_eq!(model.size(GroupingSet::from_dims(&[1]).unwrap()), 5);
    }

    #[test]
    fn count_reaggregates_as_sum() {
        // §5: "G = SUM() for the COUNT() function."
        let count = AggSpec::new(builtin("COUNT").unwrap(), "units").with_name("n");
        let store = partial(vec![count], &[GroupingSet::full(3)]);
        let grand = answer(&store, &["n"], GroupingSet::EMPTY).unwrap();
        assert_eq!(grand.rows()[0][3], Value::Int(5));
    }

    #[test]
    fn algebraic_on_demand_answers() {
        // Cells are scratchpads, not final values, so AVG and VARIANCE
        // re-derive exactly from a coarser node: no AVG of AVGs.
        let aggs = vec![
            AggSpec::new(builtin("AVG").unwrap(), "units").with_name("avg"),
            AggSpec::new(builtin("VARIANCE").unwrap(), "units").with_name("var"),
        ];
        let want = CubeQuery::new()
            .dimensions(dims())
            .aggregate(aggs[0].clone())
            .aggregate(aggs[1].clone())
            .grouping_sets(&base(), &[vec![1], vec![]])
            .unwrap();
        let store = partial(aggs, &[GroupingSet::full(3)]);
        let year = GroupingSet::from_dims(&[1]).unwrap();
        let mut got = answer(&store, &["avg", "var"], year)
            .unwrap()
            .rows()
            .to_vec();
        let grand = answer(&store, &["avg", "var"], GroupingSet::EMPTY).unwrap();
        got.extend(grand.rows().iter().cloned());
        assert_eq!(got, want.rows());
    }

    #[test]
    fn a_selection_always_materializes_the_core() {
        let store = partial(vec![sum_units()], &[GroupingSet::EMPTY]);
        let nodes: Vec<GroupingSet> = store.node_sizes().iter().map(|n| n.0).collect();
        assert_eq!(nodes, [GroupingSet::full(3), GroupingSet::EMPTY]);
    }
}
