//! The equivalence runner: every applicable engine path for a case.
//!
//! Hash-based algorithms (Auto, 2^N, union-of-GROUP-BYs, from-core,
//! parallel at 1/4/16 threads) run on the arena engine; key width, lane
//! kind and the run-folding scan are the engine's own decisions, taken
//! from the case's dimension cardinalities, select list and key stream, so
//! the generator's flavours — not a switch — are what reach each of them.
//! The reproduction algorithms (`datacube::algorithm::repro`) run once
//! each, gated on the lattice shapes they support — Sort on ROLLUP
//! lattices, Array and PipeSort on full cubes.
//!
//! Ungoverned runs must match the model exactly (up to float tolerance).
//! Governed runs may instead fail with the matching typed error
//! (`ResourceExhausted` under budgets, `Cancelled` under a tripped token);
//! anything else — a wrong error, or a *wrong answer* returned despite the
//! budget — is a divergence.

use crate::diff::diff_tables;
use crate::gen::{Case, Gov, QueryKind, WIDE_EVERY};
use crate::model::model_result;
use datacube::algorithm::repro::{self, Repro};
use datacube::{
    cube_sets, greedy_select, rewritable, rollup_sets, AggSpec, Algorithm, AncestorRequest,
    CachedView, CompoundSpec, CubeError, CubeQuery, CubeResult, DeltaBatch, Dimension, ExecContext,
    GroupingSet, Lattice, MaterializedCube, SizeModel,
};
use dc_relation::{DataType, Date, Row, Schema, Table, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One execution path for a case: the engine under an [`Algorithm`], or
/// a reproduction algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Combo {
    Engine(Algorithm),
    Repro(Repro),
}

/// All execution paths applicable to a query kind.
pub fn combos(query: &QueryKind) -> Vec<Combo> {
    let mut combos: Vec<Combo> = [
        Algorithm::Auto,
        Algorithm::TwoToTheN,
        Algorithm::UnionGroupBys,
        Algorithm::FromCore,
        Algorithm::Parallel { threads: 1 },
        Algorithm::Parallel { threads: 4 },
        Algorithm::Parallel { threads: 16 },
    ]
    .map(Combo::Engine)
    .to_vec();
    combos.extend_from_slice(match query {
        QueryKind::Rollup => &[Combo::Repro(Repro::Sort)],
        QueryKind::Cube => &[Combo::Repro(Repro::Array), Combo::Repro(Repro::PipeSort)],
        _ => &[],
    });
    combos
}

/// Execute the case's query through one execution path.
pub fn run_engine(case: &Case, combo: Combo) -> CubeResult<Table> {
    let mut q = CubeQuery::new().limits(case.gov.limits());
    for (i, desc) in case.aggs.iter().enumerate() {
        q = q.aggregate(desc.spec(i));
    }
    let dims = case_dims(case);
    let q = match combo {
        Combo::Engine(algorithm) => q.algorithm(algorithm),
        Combo::Repro(which) => {
            let sets = family(case, &dims)?;
            let lattice = Lattice::new(case.n_dims, sets.clone())?;
            let q = q.dimensions(dims);
            return Ok(repro::run(which, &q, &case.table, &lattice, Some(&sets))?.0);
        }
    };
    match &case.query {
        QueryKind::GroupBy => q.dimensions(dims).group_by(&case.table),
        QueryKind::Rollup => q.dimensions(dims).rollup(&case.table),
        QueryKind::Cube => q.dimensions(dims).cube(&case.table),
        QueryKind::GroupingSets(sets) => q.dimensions(dims).grouping_sets(&case.table, sets),
        QueryKind::Compound { g, r } => {
            let spec = CompoundSpec::new()
                .group_by(dims[..*g].to_vec())
                .rollup(dims[*g..g + r].to_vec())
                .cube(dims[g + r..].to_vec());
            q.compound(&case.table, &spec)
        }
    }
}

/// Run every configuration and diff against the model. `Err` carries a
/// human-readable divergence report naming the configuration.
pub fn check_case(case: &Case) -> Result<(), String> {
    let (names, expected) = model_result(case);
    for combo in combos(&case.query) {
        match run_engine(case, combo) {
            Ok(table) => diff_tables(&names, &expected, &table, case.n_dims)
                .map_err(|m| format!("{combo:?}: {m}"))?,
            Err(err) => {
                let acceptable = matches!(
                    (&case.gov, &err),
                    (
                        Gov::MaxCells(_) | Gov::MaxMemoryBytes(_),
                        CubeError::ResourceExhausted { .. }
                    ) | (Gov::PreCancelled, CubeError::Cancelled { .. })
                );
                if !acceptable {
                    return Err(format!("{combo:?}: unexpected error: {err}"));
                }
            }
        }
    }
    check_cache_path(case, &names, &expected)?;
    check_maintenance(case)?;
    Ok(())
}

fn case_dims(case: &Case) -> Vec<Dimension> {
    (0..case.n_dims)
        .map(|d| Dimension::column(format!("d{d}")))
        .collect()
}

fn case_specs(case: &Case) -> Vec<AggSpec> {
    let specs = case.aggs.iter().enumerate();
    specs.map(|(i, desc)| desc.spec(i)).collect()
}

/// The case's grouping-set family over its `n_dims` dimensions.
fn family(case: &Case, dims: &[Dimension]) -> CubeResult<Vec<GroupingSet>> {
    match &case.query {
        QueryKind::GroupBy => Ok(vec![GroupingSet::full(case.n_dims)]),
        QueryKind::Rollup => rollup_sets(case.n_dims),
        QueryKind::Cube => cube_sets(case.n_dims),
        QueryKind::GroupingSets(sets) => sets.iter().map(|s| GroupingSet::from_dims(s)).collect(),
        QueryKind::Compound { g, r } => CompoundSpec::new()
            .group_by(dims[..*g].to_vec())
            .rollup(dims[*g..g + r].to_vec())
            .cube(dims[g + r..].to_vec())
            .grouping_sets(),
    }
}

/// The materialized-store read axis, on two stores.
///
/// *One node* — the SQL engine's ancestor rewrite with the ancestor pinned
/// to the core cuboid: when every aggregate of the case is rewrite-legal
/// (distributive/algebraic and mergeable), answering the case's family
/// from a `CachedView` over the full dimension set must reproduce the
/// model exactly; when any aggregate is holistic or non-mergeable, the
/// view build must refuse with the typed fallthrough error instead.
///
/// *Several nodes* — an HRU `greedy_select` selection materialized with
/// `with_lattice`: the same family must reproduce the model from whichever
/// nodes the store picks (AVG and VARIANCE included), and a case with a
/// holistic or non-mergeable aggregate must answer exactly when every
/// requested set is itself materialized and refuse with `Unsupported`
/// otherwise — never answer it from a coarser node.
fn check_cache_path(case: &Case, names: &[String], expected: &[Row]) -> Result<(), String> {
    let axis = |e: CubeError| format!("cache axis: {e}");
    let (dims, specs) = (case_dims(case), case_specs(case));
    let sets = family(case, &dims).map_err(axis)?;
    let dim_map: Vec<usize> = (0..case.n_dims).collect();
    let dim_names: Vec<String> = (0..case.n_dims).map(|d| format!("d{d}")).collect();
    let dim_name_refs: Vec<&str> = dim_names.iter().map(String::as_str).collect();
    let agg_map: Vec<usize> = (0..specs.len()).collect();
    let agg_names: Vec<&str> = specs.iter().map(|s| &*s.output).collect();
    let request = AncestorRequest {
        dim_map: &dim_map,
        dim_names: &dim_name_refs,
        agg_map: &agg_map,
        agg_names: &agg_names,
        sets: &sets,
    };
    let matches_model = |table: &Table| {
        diff_tables(names, expected, table, case.n_dims).map_err(|m| format!("cache axis: {m}"))
    };
    let ctx = ExecContext::unlimited();

    let legal = specs.iter().all(|s| rewritable(&s.func));
    match CachedView::build(&case.table, &dims, &specs) {
        Ok(view) if legal => {
            let answered = view.answer(&request, &ctx);
            matches_model(&answered.map_err(|e| format!("cache axis: answer failed: {e}"))?)?
        }
        Ok(_) => {
            return Err("cache axis: non-rewritable aggregate was accepted for caching".into())
        }
        Err(CubeError::Unsupported(_)) if !legal => {}
        Err(e) => return Err(format!("cache axis: view build failed: {e}")),
    }

    let distinct = |d: usize| {
        let values: std::collections::HashSet<&Value> =
            case.table.rows().iter().map(|r| &r[d]).collect();
        values.len()
    };
    let cards: Vec<usize> = (0..case.n_dims).map(distinct).collect();
    let model = SizeModel::independent(&cards, case.table.len() as u64).map_err(axis)?;
    let (selection, _) = greedy_select(case.n_dims, 2, &model).map_err(axis)?;
    let lattice = Lattice::new(case.n_dims, selection.clone()).map_err(axis)?;
    let store =
        MaterializedCube::with_lattice(&case.table, dims, specs.clone(), lattice).map_err(axis)?;
    let answerable = legal || sets.iter().all(|s| selection.contains(s));
    match store.answer(&request, &ctx) {
        Ok(table) if answerable => matches_model(&table),
        Ok(_) => Err(format!(
            "cache axis: selection {selection:?} answered a non-rewritable aggregate \
             from a node that is not the requested set"
        )),
        Err(CubeError::Unsupported(_)) if !answerable => Ok(()),
        Err(e) => Err(format!("cache axis: selection {selection:?}: {e}")),
    }
}

/// A schema-conformant random value for maintenance deltas. Ranges mirror
/// the generator's measure constraints (dyadic floats, `|int| ≤ 2` so
/// PRODUCT/SUM stay exact), so maintained results are bit-comparable to a
/// from-scratch recompute.
fn sample_value(dtype: DataType, rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.15) {
        return Value::Null;
    }
    match dtype {
        DataType::Str => Value::str(format!("s{}", rng.gen_range(0..4))),
        DataType::Int => Value::Int(rng.gen_range(-2i64..=2)),
        DataType::Float => Value::Float(rng.gen_range(-16i64..=16) as f64 * 0.25),
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
        DataType::Date => Value::Date(
            Date::new(2020, 1, 1 + rng.gen_range(0u8..5)).expect("maintenance dates are valid"),
        ),
    }
}

fn sample_row(schema: &Schema, rng: &mut StdRng) -> Row {
    Row::new(
        schema
            .columns()
            .iter()
            .map(|c| sample_value(c.dtype, rng))
            .collect(),
    )
}

/// One seed in this many replays the maintenance axis from the case's
/// first row — the rest of the table is its first batch — and gives its
/// sampled inserts dimension values no case generates, so the store's
/// dictionary grows: fields outgrow their widths, and a wide-flavour case
/// (every [`WIDE_EVERY`]-th seed, all of them in this subset) moves from a
/// `u64` key to the wide key. Chosen by the seed, not drawn from the
/// stream, so every other seed replays the batches it always has.
const FRESH_EVERY: u64 = 4;
const _: () = assert!(WIDE_EVERY.is_multiple_of(FRESH_EVERY));

/// The `k`-th value of `dtype` that no generated case holds (a `Bool`
/// has none to offer).
fn fresh_value(dtype: DataType, k: u32) -> Value {
    match dtype {
        DataType::Str => Value::str(format!("fresh{k}")),
        DataType::Int => Value::Int(1_000_000 + i64::from(k)),
        DataType::Float => Value::Float(1000.5 + f64::from(k)),
        DataType::Bool => Value::Bool(k.is_multiple_of(2)),
        DataType::Date => Value::Date(
            Date::new(2030, 1 + (k % 12) as u8, 1 + (k / 12 % 28) as u8)
                .expect("fresh dates are valid"),
        ),
    }
}

/// The maintenance axis's replay of a case: the rows the store is built
/// over, its batches of `(inserts, deletes)` in order, and the table they
/// leave.
struct Replay {
    initial: Vec<Row>,
    batches: Vec<(Vec<Row>, Vec<Row>)>,
    last: Vec<Row>,
}

fn maintenance_replay(case: &Case) -> Replay {
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x4D41_494E_5441_494E);
    let fresh = case.seed % FRESH_EVERY == FRESH_EVERY - 1;
    let rows = case.table.rows();
    let split = if fresh { rows.len().min(1) } else { rows.len() };
    let mut batches = vec![(rows[split..].to_vec(), Vec::new())];
    let mut shadow: Vec<Row> = rows.to_vec();
    let schema = case.table.schema();
    let mut k = 0u32;
    for _ in 0..rng.gen_range(2usize..=4) {
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        for _ in 0..rng.gen_range(1usize..=8) {
            match rng.gen_range(0u32..4) {
                0 | 1 => {
                    let row = if !shadow.is_empty() && rng.gen_bool(0.4) {
                        shadow[rng.gen_range(0..shadow.len())].clone()
                    } else {
                        let mut row = sample_row(schema, &mut rng);
                        if fresh {
                            for d in 0..case.n_dims {
                                row[d] = fresh_value(schema.column_at(d).dtype, k);
                                k += 1;
                            }
                        }
                        row
                    };
                    shadow.push(row.clone());
                    ins.push(row);
                }
                2 if !shadow.is_empty() => {
                    del.push(shadow.swap_remove(rng.gen_range(0..shadow.len())));
                }
                3 if !shadow.is_empty() => {
                    // §6's "update is delete plus insert", in one batch.
                    let old = shadow.swap_remove(rng.gen_range(0..shadow.len()));
                    let mut vals = old.values().to_vec();
                    let c = rng.gen_range(0..vals.len());
                    vals[c] = sample_value(schema.column_at(c).dtype, &mut rng);
                    let new = Row::new(vals);
                    shadow.push(new.clone());
                    del.push(old);
                    ins.push(new);
                }
                _ => {}
            }
        }
        batches.push((ins, del));
    }
    batches.retain(|(ins, del)| !ins.is_empty() || !del.is_empty());
    Replay {
        initial: rows[..split].to_vec(),
        batches,
        last: shadow,
    }
}

/// The maintenance axis (§6): a seeded interleaving of insert / delete /
/// update batches applied to a `MaterializedCube` over the case's lattice
/// must leave the cube cell-for-cell equal to a from-scratch recompute of
/// the final table — checked against the model *and* against every engine
/// configuration, so the batched delta path cannot drift from any compute
/// path. A shadow multiset tracks ground truth; deletes and updates pick
/// live rows (including NULL- and NaN-keyed ones), inserts mix fresh rows
/// with duplicates of existing keys to stress support counting. On the
/// [`FRESH_EVERY`] subset the store starts from one row and its
/// dictionary grows.
fn check_maintenance(case: &Case) -> Result<(), String> {
    let (dims, specs) = (case_dims(case), case_specs(case));
    let raw_sets = family(case, &dims).map_err(|e| format!("maintenance axis: {e}"))?;
    // The lattice normalizes the family (dedup + core): mirror it in the
    // recompute query so both sides answer the same grouping sets.
    let lattice =
        Lattice::new(case.n_dims, raw_sets).map_err(|e| format!("maintenance axis: {e}"))?;
    let set_dims: Vec<Vec<usize>> = lattice.sets().iter().map(|s| s.dims()).collect();
    let replay = maintenance_replay(case);
    let schema = case.table.schema();
    let initial = Table::new(schema.clone(), replay.initial)
        .map_err(|e| format!("maintenance axis: initial table: {e}"))?;
    let cube = MaterializedCube::with_lattice(&initial, dims, specs, lattice)
        .map_err(|e| format!("maintenance axis: build: {e}"))?;
    for (ins, del) in replay.batches {
        let mut batch = DeltaBatch::new();
        for row in ins {
            batch
                .insert(row)
                .map_err(|e| format!("maintenance axis: insert: {e}"))?;
        }
        del.into_iter().for_each(|row| batch.delete(row));
        cube.apply(&batch, &ExecContext::unlimited())
            .map_err(|e| format!("maintenance axis: apply: {e}"))?;
    }
    let shadow = replay.last;
    if cube.base_rows().len() != shadow.len() {
        return Err(format!(
            "maintenance axis: cube tracks {} base rows, shadow has {}",
            cube.base_rows().len(),
            shadow.len()
        ));
    }

    let final_table = Table::new(schema.clone(), shadow)
        .map_err(|e| format!("maintenance axis: final table: {e}"))?;
    let final_case = Case {
        seed: case.seed,
        table: final_table,
        n_dims: case.n_dims,
        query: QueryKind::GroupingSets(set_dims),
        aggs: case.aggs.clone(),
        gov: Gov::None,
    };
    let (names, expected) = model_result(&final_case);
    let maintained = cube
        .to_table()
        .map_err(|e| format!("maintenance axis: to_table: {e}"))?;
    diff_tables(&names, &expected, &maintained, case.n_dims)
        .map_err(|m| format!("maintenance axis: maintained cube: {m}"))?;
    for combo in combos(&final_case.query) {
        let table = run_engine(&final_case, combo)
            .map_err(|e| format!("maintenance axis: recompute {combo:?}: {e}"))?;
        diff_tables(&names, &expected, &table, case.n_dims)
            .map_err(|m| format!("maintenance axis: recompute {combo:?}: {m}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_only_offered_for_rollup_and_dense_only_for_cube() {
        let rollup = combos(&QueryKind::Rollup);
        assert!(rollup.contains(&Combo::Repro(Repro::Sort)));
        assert!(!rollup.contains(&Combo::Repro(Repro::Array)));
        let cube = combos(&QueryKind::Cube);
        assert!(cube.contains(&Combo::Repro(Repro::Array)));
        assert!(cube.contains(&Combo::Repro(Repro::PipeSort)));
        assert!(!cube.contains(&Combo::Repro(Repro::Sort)));
        // 7 engine algorithms, plus Sort on ROLLUP or the dense pair on CUBE.
        assert_eq!(combos(&QueryKind::GroupBy).len(), 7);
        assert_eq!(rollup.len(), 8);
        assert_eq!(cube.len(), 9);
        assert!(cube.contains(&Combo::Engine(Algorithm::Parallel { threads: 16 })));
    }

    /// The 200-seed smoke still diffs every reproduction algorithm against
    /// the model: each of Sort, Array and PipeSort is a combo of several
    /// ungoverned cases — where a typed refusal is not an acceptable
    /// outcome — and answers them as the model does.
    #[test]
    fn the_smoke_reaches_every_repro_algorithm() {
        let smoke: Vec<Case> = (0..200u64)
            .map(|i| crate::gen_case(0xDA7A_C0BE + i))
            .filter(|c| matches!(c.gov, Gov::None))
            .collect();
        for which in [Repro::Sort, Repro::Array, Repro::PipeSort] {
            let combo = Combo::Repro(which);
            let reached = (smoke.iter()).filter(|c| combos(&c.query).contains(&combo));
            let agrees = |c: &&Case| {
                let (names, expected) = model_result(c);
                run_engine(c, combo)
                    .is_ok_and(|t| diff_tables(&names, &expected, &t, c.n_dims).is_ok())
            };
            let answered = reached.filter(agrees).count();
            assert!(answered >= 5, "{which:?} answered {answered} smoke cases");
        }
    }

    /// Field widths as `datacube`'s encoder lays them out: bits for the
    /// `C_d + 1` field values of each dimension over `rows`.
    fn key_widths(rows: &[Row], n_dims: usize) -> Vec<u32> {
        let width = |d: usize| {
            let values: std::collections::HashSet<&Value> = rows.iter().map(|r| &r[d]).collect();
            (u32::BITS - (values.len() as u32).leading_zeros()).max(1)
        };
        (0..n_dims).map(width).collect()
    }

    /// The 200-seed smoke's maintenance axis grows store dictionaries: on
    /// the fresh-value seeds, fields outgrow the widths the store was
    /// built with, and wide-flavour cases move from a `u64` key (fields
    /// within 64 bits) into the wide key.
    #[test]
    fn the_smoke_reaches_dictionary_growth() {
        let (mut outgrown, mut widened) = (0, 0);
        for case in (0..200u64).map(|i| crate::gen_case(0xDA7A_C0BE + i)) {
            let replay = maintenance_replay(&case);
            let inserted = replay.batches.iter().flat_map(|(ins, _)| ins);
            let seen: Vec<Row> = replay.initial.iter().chain(inserted).cloned().collect();
            let before = key_widths(&replay.initial, case.n_dims);
            let after = key_widths(&seen, case.n_dims);
            outgrown += usize::from(before != after);
            let bits = |w: &[u32]| w.iter().sum::<u32>();
            widened += usize::from(bits(&before) <= 64 && bits(&after) > 64);
        }
        assert!(
            outgrown >= 100,
            "fields outgrew their widths in {outgrown} cases"
        );
        assert!(widened >= 10, "{widened} cases moved into the wide key");
    }

    /// The 200-seed smoke (`tests/fuzz.rs`) reaches the engine's wide key:
    /// at least ten of its cases have dimension cardinalities whose field
    /// widths (bits for `C_d + 1` values, as `datacube`'s encoder lays
    /// them out) sum past 64, NULL dimension values among them.
    #[test]
    fn the_smoke_reaches_the_wide_key() {
        let key_bits =
            |case: &Case| -> u32 { key_widths(case.table.rows(), case.n_dims).iter().sum() };
        let smoke = (0..200u64).map(|i| crate::gen_case(0xDA7A_C0BE + i));
        let wide: Vec<Case> = smoke.filter(|c| key_bits(c) > 64).collect();
        assert!(wide.len() >= 10, "only {} wide cases", wide.len());
        let has_null_dim =
            |c: &Case| (c.table.rows().iter()).any(|r| (0..c.n_dims).any(|d| r[d].is_null()));
        assert!(wide.iter().all(has_null_dim));
        assert!(wide.iter().all(|c| combos(&c.query).len() <= 8));
    }
}
