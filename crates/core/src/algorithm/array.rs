//! Dense N-dimensional array cube (§5).
//!
//! "If possible, use arrays ... to organize the aggregation columns in
//! memory" and, via the hashed symbol table, "the values become dense and
//! the aggregates can be stored as an N-dimensional array." Each dimension
//! i gets `C_i + 1` slots — the extra slot is `ALL` — so the array holds
//! exactly the paper's `Π(C_i + 1)` cube cells. The core is aggregated
//! into the array in one scan; super-aggregates are then produced by
//! sweeping one dimension at a time into its ALL slab ("the N-1
//! dimensional slabs can be computed by projecting (aggregating) one
//! dimension of the core").
//!
//! Full-cube lattices only; sparse cores waste array cells, which is the
//! trade-off EXPERIMENTS.md C7 describes against the hash-based algorithms.

use crate::error::{CubeError, CubeResult, Resource};
use crate::exec::{self, ExecContext};
use crate::groupby::{ExecStats, GroupMap, SetMaps};
use crate::lattice::{GroupingSet, Lattice};
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::faults::Site;
use dc_aggregate::Accumulator;
use dc_relation::{Row, SymbolTable, Value};

/// Upper bound on array cells (accumulator slots = cells × aggregates).
/// Beyond this the dense representation stops paying for itself; callers
/// get an error and should use a hash-based algorithm instead.
pub const MAX_CELLS: usize = 1 << 22;

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
            "the dense array algorithm computes full cubes only".into(),
        ));
    }

    // Pass 1: evaluate keys and build per-dimension symbol tables.
    let mut symbols: Vec<SymbolTable> = (0..n).map(|_| SymbolTable::new()).collect();
    let mut coded: Vec<Vec<u32>> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        ctx.tick(i)?;
        stats.rows_scanned += 1;
        let code: Vec<u32> = dims
            .iter()
            .zip(symbols.iter_mut())
            .map(|(d, t)| t.intern(&d.eval(row)))
            .collect();
        coded.push(code);
    }

    // Array geometry: dimension i has C_i real slots plus slot C_i = ALL.
    let sizes: Vec<usize> = symbols.iter().map(|t| t.cardinality() + 1).collect();
    // Projected size is checked up front — the array never materializes
    // over-budget, and the refusal charges nothing to the shared cell
    // counter.
    let effective = (MAX_CELLS as u64).min(ctx.cell_budget().unwrap_or(u64::MAX));
    let mut cells: usize = 1;
    for &s in &sizes {
        cells = cells.saturating_mul(s);
        if cells as u64 > effective {
            return Err(CubeError::ResourceExhausted {
                resource: Resource::Cells,
                limit: effective,
                observed: cells as u64,
                stats: ExecStats::default(),
            });
        }
    }
    let mut strides = vec![1usize; n];
    for d in (0..n.saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * sizes[d + 1];
    }

    let mut array: Vec<Option<Vec<Box<dyn Accumulator>>>> =
        std::iter::repeat_with(|| None).take(cells.max(1)).collect();

    // Pass 2: aggregate base rows into core cells.
    for (i, (code, row)) in coded.iter().zip(rows.iter()).enumerate() {
        ctx.tick(i)?;
        let idx: usize = code
            .iter()
            .zip(strides.iter())
            .map(|(&c, &s)| c as usize * s)
            .sum();
        if array[idx].is_none() {
            array[idx] = Some(exec::guarded_init(aggs)?);
        }
        #[expect(
            clippy::expect_used,
            reason = "slot was filled by guarded_init on the line above"
        )]
        let accs = array[idx].as_mut().expect("cell just initialized");
        for (acc, agg) in accs.iter_mut().zip(aggs.iter()) {
            exec::guard(agg.func.name(), || acc.iter(agg.input_value(row)))?;
            stats.iter_calls += 1;
        }
    }

    // Sweep each dimension into its ALL slab. After dimension d's sweep,
    // every cell with digit d = ALL holds the aggregate over that
    // dimension; sweeping dimensions in sequence populates all 2^N
    // combinations.
    exec::failpoint(Site::ArraySweep)?;
    for d in 0..n {
        let all_digit = sizes[d] - 1;
        for idx in 0..cells {
            ctx.tick(idx)?;
            let digit = (idx / strides[d]) % sizes[d];
            if digit == all_digit || array[idx].is_none() {
                continue;
            }
            let target = idx + (all_digit - digit) * strides[d];
            // Take the source states first to satisfy the borrow checker.
            let mut states: Vec<Vec<Value>> = Vec::with_capacity(aggs.len());
            #[expect(
                clippy::unwrap_used,
                reason = "outer loop only visits occupied source cells"
            )]
            for (a, agg) in array[idx].as_ref().unwrap().iter().zip(aggs.iter()) {
                states.push(exec::guard(agg.func.name(), || a.state())?);
            }
            if array[target].is_none() {
                array[target] = Some(exec::guarded_init(aggs)?);
            }
            #[expect(
                clippy::expect_used,
                reason = "slot was filled by guarded_init on the line above"
            )]
            let taccs = array[target].as_mut().expect("slab just initialized");
            for ((t, s), agg) in taccs.iter_mut().zip(states.iter()).zip(aggs.iter()) {
                exec::guard(agg.func.name(), || t.merge(s))?;
                stats.merge_calls += 1;
            }
        }
    }

    // Decode the array into per-set hash maps.
    let mut maps: SetMaps = lattice
        .sets()
        .iter()
        .map(|&s| (s, GroupMap::default()))
        .collect();
    for (idx, slot) in array.into_iter().enumerate() {
        let Some(accs) = slot else { continue };
        let mut key_vals = Vec::with_capacity(n);
        let mut mask = GroupingSet::EMPTY;
        for d in 0..n {
            let digit = (idx / strides[d]) % sizes[d];
            if digit == sizes[d] - 1 {
                key_vals.push(Value::All);
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "digits below all_digit came from this symbol table"
                )]
                key_vals.push(
                    symbols[d]
                        .decode(digit as u32)
                        .expect("digit interned")
                        .clone(),
                );
                mask = mask.with(d);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "maps was built with one entry per cube mask"
        )]
        let (_, map) = maps
            .iter_mut()
            .find(|(s, _)| *s == mask)
            .expect("full cube contains every mask");
        map.insert(Row::new(key_vals), accs);
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
            ("units", DataType::Int),
        ]);
        let mut t = Table::empty(schema);
        for (m, y, u) in [
            ("Chevy", 1994, 50),
            ("Chevy", 1995, 85),
            ("Ford", 1994, 60),
            ("Ford", 1995, 160),
            ("Chevy", 1994, 40),
        ] {
            t.push(row![m, y, u]).unwrap();
        }
        let dims = ["model", "year"]
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let aggs = vec![AggSpec::new(builtin("SUM").unwrap(), "units")
            .bind(t.schema())
            .unwrap()];
        (t, dims, aggs)
    }

    #[test]
    fn matches_naive() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::cube(2).unwrap();
        let ctx = ExecContext::unlimited();
        let a = run(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ctx,
        )
        .unwrap();
        let b = reference::set_maps(
            Shape::EverySet,
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ctx,
        )
        .unwrap();
        for (set, map) in &b {
            let (_, amap) = a.iter().find(|(s, _)| s == set).unwrap();
            assert_eq!(amap.len(), map.len(), "cells of {set}");
            for (k, accs) in map {
                assert_eq!(amap[k][0].final_value(), accs[0].final_value(), "{k}");
            }
        }
    }

    #[test]
    fn grand_total_in_the_all_corner() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::cube(2).unwrap();
        let maps = run(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        )
        .unwrap();
        let (_, grand) = maps.iter().find(|(s, _)| s.is_empty()).unwrap();
        let key = Row::new(vec![Value::All, Value::All]);
        assert_eq!(grand[&key][0].final_value(), Value::Int(395));
    }

    #[test]
    fn rejects_rollup_lattices() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::rollup(2).unwrap();
        assert!(matches!(
            run(
                t.rows(),
                &dims,
                &aggs,
                &lattice,
                &mut ExecStats::default(),
                &ExecContext::unlimited(),
            ),
            Err(CubeError::Unsupported(_))
        ));
    }

    #[test]
    fn sparse_cells_stay_unmaterialized() {
        // Only the non-null elements of the core and super-aggregates are
        // represented (§5's sparse-cube note): a (model, year) pair never
        // seen produces no cell.
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        let t = Table::new(schema, vec![row!["Chevy", 1994, 1], row!["Ford", 1995, 2]]).unwrap();
        let dims: Vec<BoundDimension> = ["model", "year"]
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let aggs = vec![AggSpec::new(builtin("SUM").unwrap(), "units")
            .bind(t.schema())
            .unwrap()];
        let lattice = Lattice::cube(2).unwrap();
        let maps = run(
            t.rows(),
            &dims,
            &aggs,
            &lattice,
            &mut ExecStats::default(),
            &ExecContext::unlimited(),
        )
        .unwrap();
        let (_, core) = maps.iter().find(|(s, _)| s.len() == 2).unwrap();
        assert_eq!(core.len(), 2); // not 4
    }
}
