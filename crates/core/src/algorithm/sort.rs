//! Sort-based ROLLUP (§5).
//!
//! "The basic technique for computing a ROLLUP is to sort the table on the
//! aggregating attributes and then compute the aggregate functions. ...
//! Sorting is especially convenient for ROLLUP since the user often wants
//! the answer set in a sorted order — so the sort must be done anyway."
//!
//! One sort, one scan: a frame of accumulators is kept per rollup level;
//! each row feeds only the deepest (core) frame, and when a prefix closes
//! its frame's scratchpads are folded one level up (`Iter_super`) before
//! being emitted — so the scan does `T` Iter() calls plus `O(cells × N)`
//! merges, the paper's "order-N algorithm for roll-up".

use crate::error::{CubeError, CubeResult};
use crate::exec::{self, ExecContext};
use crate::groupby::{full_key, ExecStats, GroupMap, SetMaps};
use crate::lattice::{rollup_sets, GroupingSet, Lattice};
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::faults::Site;
use dc_aggregate::Accumulator;
use dc_relation::{Row, Value};

/// One open aggregation frame: the current prefix plus its scratchpads.
type Frame = Option<(Row, Vec<Box<dyn Accumulator>>)>;

pub(crate) fn run(
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<SetMaps> {
    exec::failpoint(Site::SortScan)?;
    let n = lattice.n_dims();
    if lattice.sets() != rollup_sets(n)?.as_slice() {
        return Err(CubeError::Unsupported(
            "the sort algorithm applies only to ROLLUP lattices".into(),
        ));
    }

    // Evaluate keys once, then sort — the pass the user "wants anyway".
    let mut keyed: Vec<(Row, &Row)> = rows.iter().map(|r| (full_key(dims, r), r)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    stats.sorts += 1;

    let mut maps: SetMaps = (0..=n)
        .rev()
        .map(|k| (GroupingSet::first_k(k), GroupMap::default()))
        .collect();

    // frames[k] aggregates the current run of rows agreeing on the first k
    // dims; frames[n] is the core group.
    let mut frames: Vec<Frame> = (0..=n).map(|_| None).collect();

    let close_frame = |frames: &mut Vec<Frame>,
                       maps: &mut SetMaps,
                       level: usize,
                       stats: &mut ExecStats|
     -> CubeResult<()> {
        if let Some((prefix, accs)) = frames[level].take() {
            // Fold this frame's scratchpads into the parent level first —
            // the cascade that makes this a single-scan algorithm.
            if level > 0 {
                if frames[level - 1].is_none() {
                    ctx.charge_cells(1)?;
                    let parent_prefix = Row::new(prefix.values()[..level - 1].to_vec());
                    frames[level - 1] = Some((parent_prefix, exec::guarded_init(aggs)?));
                }
                #[expect(
                    clippy::expect_used,
                    reason = "opened by the is_none branch just above"
                )]
                let (_, parent_accs) = frames[level - 1].as_mut().expect("parent frame open");
                for ((p, c), agg) in parent_accs.iter_mut().zip(accs.iter()).zip(aggs.iter()) {
                    exec::guard(agg.func.name(), || p.merge(&c.state()))?;
                    stats.merge_calls += 1;
                }
            }
            // Emit: the first `level` dims keep their values, the rest ALL.
            let key: Row = prefix
                .iter()
                .cloned()
                .chain(std::iter::repeat_n(Value::All, n - level))
                .collect();
            let map_idx = n - level; // maps are ordered core (level n) first
            maps[map_idx].1.insert(key, accs);
        }
        Ok(())
    };

    for (i, (key, row)) in keyed.iter().enumerate() {
        ctx.tick(i)?;
        // Find the shallowest level whose prefix changed.
        let open_prefix = frames[n].as_ref().map(|(p, _)| p.clone());
        let diverge = match &open_prefix {
            None => 0,
            Some(p) => key
                .iter()
                .zip(p.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(n),
        };
        if open_prefix.is_some() {
            // Close frames deeper than the divergence point, deepest first.
            for level in ((diverge + 1)..=n).rev() {
                close_frame(&mut frames, &mut maps, level, stats)?;
            }
        }
        // (Re)open deeper frames for the new prefix.
        for (level, frame) in frames.iter_mut().enumerate().skip(1) {
            if frame.is_none() {
                ctx.charge_cells(1)?;
                *frame = Some((
                    Row::new(key.values()[..level].to_vec()),
                    exec::guarded_init(aggs)?,
                ));
            }
        }
        if frames[0].is_none() {
            ctx.charge_cells(1)?;
            frames[0] = Some((Row::new(Vec::new()), exec::guarded_init(aggs)?));
        }
        // Feed only the core frame; parents are fed by merges at close.
        #[expect(
            clippy::expect_used,
            reason = "the open loop above re-opens every closed frame"
        )]
        let (_, accs) = frames[n].as_mut().expect("core frame open");
        for (acc, agg) in accs.iter_mut().zip(aggs.iter()) {
            exec::guard(agg.func.name(), || acc.iter(agg.input_value(row)))?;
            stats.iter_calls += 1;
        }
        stats.rows_scanned += 1;
    }

    // Close everything at end of input (grand total last). An empty input
    // still emits no rows — matching GROUP BY semantics on empty tables.
    if !keyed.is_empty() {
        for level in (0..=n).rev() {
            close_frame(&mut frames, &mut maps, level, stats)?;
        }
    }

    Ok(maps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{reference, Shape};
    use crate::spec::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Schema, Table};

    fn setup() -> (Table, Vec<BoundDimension>, Vec<BoundAgg>) {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("color", DataType::Str),
            ("units", DataType::Int),
        ]);
        let mut t = Table::empty(schema);
        // Deliberately unsorted input.
        for (m, y, c, u) in [
            ("Ford", 1995, "white", 75),
            ("Chevy", 1994, "black", 50),
            ("Ford", 1994, "black", 50),
            ("Chevy", 1995, "white", 115),
            ("Chevy", 1994, "white", 40),
            ("Ford", 1994, "white", 10),
            ("Chevy", 1995, "black", 85),
            ("Ford", 1995, "black", 85),
        ] {
            t.push(row![m, y, c, u]).unwrap();
        }
        let dims = ["model", "year", "color"]
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let aggs = vec![AggSpec::new(builtin("SUM").unwrap(), "units")
            .bind(t.schema())
            .unwrap()];
        (t, dims, aggs)
    }

    fn cell(maps: &SetMaps, set_len: usize, key: Row) -> Value {
        let (_, map) = maps.iter().find(|(s, _)| s.len() == set_len).unwrap();
        map[&key][0].final_value()
    }

    #[test]
    fn matches_naive_on_rollup() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::rollup(3).unwrap();
        let mut s1 = ExecStats::default();
        let sorted = run(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut s1,
            &ExecContext::unlimited(),
        )
        .unwrap();
        let mut s2 = ExecStats::default();
        let naive = reference::set_maps(
            Shape::EverySet,
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut s2,
            &ExecContext::unlimited(),
        )
        .unwrap();
        for (set, map) in &naive {
            let (_, smap) = sorted.iter().find(|(s, _)| s == set).unwrap();
            assert_eq!(smap.len(), map.len(), "cell count for {set}");
            for (k, accs) in map {
                assert_eq!(
                    smap[k][0].final_value(),
                    accs[0].final_value(),
                    "cell {k} of {set}"
                );
            }
        }
        // One sort, T iter calls (not T × (N+1)).
        assert_eq!(s1.sorts, 1);
        assert_eq!(s1.iter_calls, 8);
    }

    #[test]
    fn emits_expected_subtotals() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::rollup(3).unwrap();
        let maps = run(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        )
        .unwrap();
        // Table 5.a values.
        assert_eq!(
            cell(
                &maps,
                2,
                Row::new(vec![Value::str("Chevy"), Value::Int(1994), Value::All])
            ),
            Value::Int(90)
        );
        assert_eq!(
            cell(
                &maps,
                1,
                Row::new(vec![Value::str("Chevy"), Value::All, Value::All])
            ),
            Value::Int(290)
        );
        assert_eq!(
            cell(&maps, 0, Row::new(vec![Value::All, Value::All, Value::All])),
            Value::Int(510)
        );
    }

    #[test]
    fn rejects_cube_lattices() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::cube(3).unwrap();
        let err = run(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        );
        assert!(matches!(err, Err(CubeError::Unsupported(_))));
    }

    #[test]
    fn empty_input_produces_no_rows() {
        let (t, dims, aggs) = setup();
        let empty = Table::empty(t.schema().clone());
        let lattice = Lattice::rollup(3).unwrap();
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
