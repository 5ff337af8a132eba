//! PipeSort-style cube computation (the paper's \[ADGNRS\] reference:
//! Agrawal et al., "On the Computation of Multidimensional Aggregates").
//!
//! A sorted scan over dimension order (d₁, d₂, ..., dₙ) computes every
//! *prefix* grouping set of that order in one pass — a whole chain of the
//! lattice per sort. The full cube is 2^N sets, but by **Dilworth's
//! theorem** the boolean lattice decomposes into just C(N, ⌊N/2⌋) chains
//! of nested sets (the de Bruijn–Tengbergen–Kruyswijk *symmetric chain
//! decomposition*), and every chain of nested sets embeds into the prefix
//! chain of some dimension permutation. So the cube costs
//! C(N, ⌊N/2⌋) sorted scans instead of 2^N group-bys: 6 pipelines instead
//! of 16 sets at N = 4, 20 instead of 64 at N = 6.
//!
//! This is the "share sorts across grouping sets" idea of PipeSort in its
//! cleanest form (the original also weighs sort vs. scan costs per edge;
//! we take the combinatorial core).

use crate::error::{CubeError, CubeResult};
use crate::exec::{self, ExecContext};
use crate::groupby::{full_key, ExecStats, GroupMap, SetMaps};
use crate::lattice::{GroupingSet, Lattice};
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::Accumulator;
use dc_relation::{Row, Value};
use std::cmp::Ordering;

/// One open pipeline frame: the current permuted prefix plus scratchpads.
type PipeFrame = Option<(Vec<Value>, Vec<Box<dyn Accumulator>>)>;

/// The de Bruijn–Tengbergen–Kruyswijk symmetric chain decomposition of
/// the n-dimensional boolean lattice: every subset appears in exactly one
/// chain, each chain is nested with consecutive sizes, and the number of
/// chains is C(n, ⌊n/2⌋) — the lattice's maximum antichain, so no cover
/// can be smaller.
pub fn symmetric_chains(n: usize) -> Vec<Vec<GroupingSet>> {
    if n == 0 {
        return vec![vec![GroupingSet::EMPTY]];
    }
    let smaller = symmetric_chains(n - 1);
    let new_dim = n - 1;
    let mut chains = Vec::new();
    for chain in smaller {
        let k = chain.len();
        // Extended chain: c1 ⊂ ... ⊂ ck ⊂ ck ∪ {new}.
        let mut extended = chain.clone();
        extended.push(chain[k - 1].with(new_dim));
        chains.push(extended);
        // Lifted chain: c1 ∪ {new} ⊂ ... ⊂ c(k-1) ∪ {new}.
        if k > 1 {
            chains.push(chain[..k - 1].iter().map(|c| c.with(new_dim)).collect());
        }
    }
    chains
}

/// A dimension permutation whose prefixes visit every set of `chain`
/// (chains are nested with consecutive sizes, so the order is: the
/// smallest set's dims, then each step's added dim, then the leftovers).
fn chain_order(chain: &[GroupingSet], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = chain[0].dims();
    for w in chain.windows(2) {
        let added = w[1].bits() & !w[0].bits();
        debug_assert_eq!(added.count_ones(), 1, "chains grow one dim at a time");
        order.push(added.trailing_zeros() as usize);
    }
    for d in 0..n {
        if !order.contains(&d) {
            order.push(d);
        }
    }
    order
}

pub(crate) fn run(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    let n = lattice.n_dims();
    if !lattice.is_full_cube() {
        return Err(CubeError::Unsupported(
            "PipeSort computes full cubes only".into(),
        ));
    }

    // Evaluate the full coordinate of every row once.
    let keyed: Vec<(Row, &Row)> = rows
        .iter()
        .map(|r| {
            stats.rows_scanned += 1;
            (full_key(dims, r), r)
        })
        .collect();

    let mut maps: SetMaps = lattice
        .sets()
        .iter()
        .map(|&s| (s, GroupMap::default()))
        .collect();

    for chain in symmetric_chains(n) {
        exec::failpoint("pipesort::pipeline")?;
        ctx.checkpoint()?;
        let order = chain_order(&chain, n);
        pipeline(&keyed, aggs, n, &order, &chain, &mut maps, stats, ctx)?;
    }
    Ok(maps)
}

/// One pipeline: sort by `order`, scan once, emit the chain's sets.
#[allow(clippy::too_many_arguments)]
fn pipeline(
    keyed: &[(Row, &Row)],
    aggs: &[BoundAgg],
    n: usize,
    order: &[usize],
    chain: &[GroupingSet],
    maps: &mut SetMaps,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<()> {
    // Sort row indices by the permuted key (each pipeline pays one sort —
    // the PipeSort cost unit).
    let mut idx: Vec<usize> = (0..keyed.len()).collect();
    let cmp_perm = |a: &Row, b: &Row| -> Ordering {
        for &d in order {
            match a[d].cmp(&b[d]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    };
    idx.sort_by(|&a, &b| cmp_perm(&keyed[a].0, &keyed[b].0));
    stats.sorts += 1;

    // Which prefix lengths (in permutation order) must be emitted, and
    // into which grouping set.
    let emit_levels: Vec<(usize, GroupingSet)> = chain.iter().map(|&s| (s.len(), s)).collect();
    let min_level = emit_levels.iter().map(|(l, _)| *l).min().unwrap_or(0);
    let max_level = emit_levels.iter().map(|(l, _)| *l).max().unwrap_or(0);

    // Frames for prefix lengths min..=max; each row feeds only the
    // deepest, parents are fed by scratchpad merges on close.
    let mut frames: Vec<PipeFrame> = (0..=max_level).map(|_| None).collect();

    let emit =
        |prefix: &[Value], accs: Vec<Box<dyn Accumulator>>, level: usize, maps: &mut SetMaps| {
            if let Some((_, set)) = emit_levels.iter().find(|(l, _)| *l == level) {
                // Reassemble the key in ORIGINAL dimension order.
                let mut key_vals = vec![Value::All; n];
                for (pos, &d) in order.iter().enumerate().take(level) {
                    key_vals[d] = prefix[pos].clone();
                }
                let (_, map) = maps
                    .iter_mut()
                    .find(|(s, _)| s == set)
                    // cube-lint: allow(panic, pipelines are built from this lattice's own chains)
                    .expect("chain set is in the lattice");
                map.insert(Row::new(key_vals), accs);
            }
        };

    let close = |frames: &mut Vec<PipeFrame>,
                 maps: &mut SetMaps,
                 level: usize,
                 stats: &mut ExecStats|
     -> CubeResult<()> {
        if let Some((prefix, accs)) = frames[level].take() {
            if level > min_level {
                if frames[level - 1].is_none() {
                    ctx.charge_cells(1)?;
                    let parent_prefix = prefix[..level - 1].to_vec();
                    frames[level - 1] = Some((parent_prefix, exec::guarded_init(aggs)?));
                }
                // cube-lint: allow(panic, opened by the is_none branch just above)
                let (_, paccs) = frames[level - 1].as_mut().expect("parent frame open");
                for ((p, c), agg) in paccs.iter_mut().zip(accs.iter()).zip(aggs.iter()) {
                    exec::guard(agg.func.name(), || p.merge(&c.state()))?;
                    stats.merge_calls += 1;
                }
            }
            emit(&prefix, accs, level, maps);
        }
        Ok(())
    };

    for (t, &i) in idx.iter().enumerate() {
        ctx.tick(t)?;
        let (key, row) = &keyed[i];
        let perm_key: Vec<Value> = order[..max_level].iter().map(|&d| key[d].clone()).collect();
        let open = frames[max_level].as_ref().map(|(p, _)| p.clone());
        let diverge = match &open {
            None => 0,
            Some(p) => p
                .iter()
                .zip(perm_key.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(max_level),
        };
        if open.is_some() {
            // Close every frame whose prefix changed (length > diverge),
            // down to the shallowest frame this pipeline keeps.
            for level in ((diverge + 1).max(min_level)..=max_level).rev() {
                close(&mut frames, maps, level, stats)?;
            }
        }
        for (level, frame) in frames.iter_mut().enumerate().skip(min_level.max(1)) {
            if frame.is_none() {
                ctx.charge_cells(1)?;
                *frame = Some((perm_key[..level].to_vec(), exec::guarded_init(aggs)?));
            }
        }
        if min_level == 0 && frames[0].is_none() {
            ctx.charge_cells(1)?;
            frames[0] = Some((Vec::new(), exec::guarded_init(aggs)?));
        }
        // cube-lint: allow(panic, the open loop above re-opens every closed frame)
        let (_, accs) = frames[max_level].as_mut().expect("deepest frame open");
        for (acc, agg) in accs.iter_mut().zip(aggs.iter()) {
            exec::guard(agg.func.name(), || acc.iter(agg.input_value(row)))?;
            stats.iter_calls += 1;
        }
    }
    if !keyed.is_empty() {
        for level in (min_level..=max_level).rev() {
            close(&mut frames, maps, level, stats)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{reference, Shape};
    use crate::spec::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Schema, Table};

    fn binomial(n: usize, k: usize) -> usize {
        (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }

    #[test]
    fn scd_covers_every_set_exactly_once() {
        for n in 0..=8 {
            let chains = symmetric_chains(n);
            // Chain count = C(n, n/2), Dilworth's bound.
            assert_eq!(chains.len(), binomial(n, n / 2), "chain count at n={n}");
            let mut seen = std::collections::HashSet::new();
            for chain in &chains {
                // Nested, consecutive sizes.
                for w in chain.windows(2) {
                    assert!(w[0].subset_of(w[1]));
                    assert_eq!(w[0].len() + 1, w[1].len());
                }
                // Symmetric: sizes (k, n-k) around the middle.
                let lo = chain.first().unwrap().len();
                let hi = chain.last().unwrap().len();
                assert_eq!(lo + hi, n, "symmetric chain at n={n}");
                for s in chain {
                    assert!(seen.insert(*s), "set {s} in two chains");
                }
            }
            assert_eq!(seen.len(), 1 << n, "all sets covered at n={n}");
        }
    }

    #[test]
    fn chain_order_makes_prefixes() {
        let chains = symmetric_chains(4);
        for chain in &chains {
            let order = chain_order(chain, 4);
            // order is a permutation.
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            // Every chain set is a prefix of the order.
            for s in chain {
                let prefix = GroupingSet::from_dims(&order[..s.len()]).unwrap();
                assert_eq!(prefix, *s);
            }
        }
    }

    fn setup() -> (Table, Vec<BoundDimension>, Vec<BoundAgg>) {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
            ("d", DataType::Int),
            ("units", DataType::Int),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..200i64 {
            t.push(row![i % 3, (i * 7) % 4, (i * 13) % 2, (i * 5) % 5, i % 50])
                .unwrap();
        }
        let dims = ["a", "b", "c", "d"]
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let aggs = vec![AggSpec::new(builtin("SUM").unwrap(), "units")
            .bind(t.schema())
            .unwrap()];
        (t, dims, aggs)
    }

    #[test]
    fn pipesort_matches_naive_on_4d() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::cube(4).unwrap();
        let ctx = ExecContext::unlimited();
        let mut s1 = ExecStats::default();
        let pipe = run(t.rows(), &dims, &aggs, &lattice, &mut s1, &ctx).unwrap();
        let reference = reference::set_maps(
            Shape::EverySet,
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ctx,
        )
        .unwrap();
        for (set, map) in &reference {
            let (_, pmap) = pipe.iter().find(|(s, _)| s == set).unwrap();
            assert_eq!(pmap.len(), map.len(), "cells of {set}");
            for (k, accs) in map {
                assert_eq!(pmap[k][0].final_value(), accs[0].final_value(), "{set} {k}");
            }
        }
        // C(4,2) = 6 sorts for 16 grouping sets.
        assert_eq!(s1.sorts, 6);
    }

    #[test]
    fn pipesort_rejects_partial_lattices() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::rollup(4).unwrap();
        assert!(matches!(
            run(
                t.rows(),
                &dims,
                &aggs,
                &lattice,
                &mut ExecStats::default(),
                &ExecContext::unlimited()
            ),
            Err(CubeError::Unsupported(_))
        ));
    }

    #[test]
    fn pipesort_empty_input() {
        let (t, dims, aggs) = setup();
        let empty = Table::empty(t.schema().clone());
        let lattice = Lattice::cube(4).unwrap();
        let maps = run(
            empty.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        )
        .unwrap();
        assert!(maps.iter().all(|(_, m)| m.is_empty()));
    }
}
