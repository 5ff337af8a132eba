//! The equivalence runner: every applicable engine path for a case.
//!
//! Hash-based algorithms (Auto, 2^N, union-of-GROUP-BYs, from-core,
//! parallel at 1/4/16 threads) run on the arena engine; key width and lane
//! kind are the engine's own decisions, taken from the case's dimension
//! cardinalities and select list, so the generator's flavours — not a
//! switch — are what reach each of them.
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
use crate::gen::{AggDesc, Case, Gov, QueryKind, WIDE_EVERY};
use crate::model::model_result;
use datacube::algorithm::repro::{self, Repro};
use datacube::{
    cube_sets, greedy_select, rewritable, rollup_sets, AggSpec, Algorithm, AncestorRequest,
    CachedView, CompoundSpec, CubeError, CubeQuery, CubeResult, DeltaBatch, Dimension, ExecContext,
    GroupingSet, Lattice, MaterializedCube, SizeModel,
};
use dc_relation::{DataType, Date, Row, Schema, Table, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

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
    let q = match combo {
        Combo::Engine(algorithm) => q.algorithm(algorithm),
        Combo::Repro(which) => {
            let dims = case_dims(case);
            let sets = family(case, &dims)?;
            let lattice = Lattice::new(case.n_dims, sets.clone())?;
            let q = q.dimensions(dims);
            return Ok(repro::run(which, &q, &case.table, &lattice, Some(&sets))?.0);
        }
    };
    run_query(case, q, &case.table)
}

/// The case's query under `q`'s aggregates and options, over `table`.
fn run_query(case: &Case, q: CubeQuery, table: &Table) -> CubeResult<Table> {
    let dims = case_dims(case);
    match &case.query {
        QueryKind::GroupBy => q.dimensions(dims).group_by(table),
        QueryKind::Rollup => q.dimensions(dims).rollup(table),
        QueryKind::Cube => q.dimensions(dims).cube(table),
        QueryKind::GroupingSets(sets) => q.dimensions(dims).grouping_sets(table, sets),
        QueryKind::Compound { g, r } => {
            let spec = CompoundSpec::new()
                .group_by(dims[..*g].to_vec())
                .rollup(dims[*g..g + r].to_vec())
                .cube(dims[g + r..].to_vec());
            q.compound(table, &spec)
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
    check_layout(case)?;
    Ok(())
}

/// A case's dimension columns, by position: generated cases have at most
/// ten.
const DIM_NAMES: [&str; 10] = ["d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"];

/// Identity maps and names for a store request over every dimension and
/// aggregate of a case, each under its own name.
struct Whole<'a> {
    dim_map: Vec<usize>,
    agg_names: Vec<&'a str>,
    agg_map: Vec<usize>,
}

impl<'a> Whole<'a> {
    fn new(n_dims: usize, specs: &'a [AggSpec]) -> Self {
        Whole {
            dim_map: (0..n_dims).collect(),
            agg_names: specs.iter().map(|s| &*s.output).collect(),
            agg_map: (0..specs.len()).collect(),
        }
    }

    /// The request for `sets`.
    fn request<'s>(&'s self, sets: &'s [GroupingSet]) -> AncestorRequest<'s> {
        AncestorRequest {
            dim_map: &self.dim_map,
            dim_names: &DIM_NAMES[..self.dim_map.len()],
            agg_map: &self.agg_map,
            agg_names: &self.agg_names,
            sets,
        }
    }
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
    let whole = Whole::new(case.n_dims, &specs);
    let request = whole.request(&sets);
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

/// The layout axis: a cell must not depend on how the table's rows are
/// laid out. A case that aggregates a `Float` measure is grouped by all
/// of its dimensions twice — over its rows as generated, and over a
/// stable sort of them by the dimension columns — with every such
/// measure's values replaced by seeded tenths (1.1, 2.2, 3.3 or 4.4: few
/// values, so equal ones often meet). The generator's floats are dyadic,
/// so their sums are exact in any order and the model's 1e-9 band hides
/// the rest; tenths round, so a fold whose order follows the layout (runs
/// of equal values folded as `v × n`, say) answers differently. A
/// stable sort keeps each cell's rows in their order, so the two replies
/// must be equal with floats compared bit for bit: through `FromCore`,
/// `TwoToTheN`, `Parallel { threads: 1 }` and, when every aggregate is
/// rewritable, a `CachedView` build and answer. A view over the case's
/// dimensions derives each set of the case's family from the parent the
/// `FromCore` cascade derives it from, so for a rewritable case the
/// view's answer of the whole family must also equal the family through
/// `FromCore`, bit for bit, over the generated rows. Ungoverned whatever
/// the case's governance. `Ok(false)` when the case has no `Float`
/// measure to replace.
fn check_layout(case: &Case) -> Result<bool, String> {
    let schema = case.table.schema();
    let mut measures: Vec<usize> = (case.aggs.iter().filter_map(AggDesc::input))
        .filter_map(|name| schema.index_of(name).ok())
        .filter(|&c| c >= case.n_dims && schema.column_at(c).dtype == DataType::Float)
        .collect();
    measures.sort_unstable();
    measures.dedup();
    if measures.is_empty() {
        return Ok(false);
    }
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x4C41_594F_5554);
    let mut rows = case.table.rows().to_vec();
    for row in &mut rows {
        for &c in &measures {
            if !row[c].is_null() {
                row[c] = Value::Float((rng.gen_range(1i64..=4) * 11) as f64 / 10.0);
            }
        }
    }
    let as_table = |rows: Vec<Row>| {
        Table::new(schema.clone(), rows).map_err(|e| format!("layout axis: table: {e}"))
    };
    let generated = as_table(rows.clone())?;
    rows.sort_by(|a, b| a.values()[..case.n_dims].cmp(&b.values()[..case.n_dims]));
    let sorted = as_table(rows)?;

    let (dims, specs) = (case_dims(case), case_specs(case));
    let same = |path: String, a: CubeResult<Table>, b: CubeResult<Table>| {
        let failed = |e: CubeError| format!("layout axis: {path}: {e}");
        let (a, b) = (a.map_err(failed)?, b.map_err(failed)?);
        if same_bits(&a, &b) {
            return Ok(());
        }
        Err(format!(
            "layout axis: {path}: a stable sort by the dimensions changed the reply\n\
             generated: {:?}\nsorted: {:?}",
            a.rows(),
            b.rows()
        ))
    };
    let query = CubeQuery::new().dimensions(dims.clone());
    let query = specs.iter().fold(query, |q, s| q.aggregate(s.clone()));
    for algorithm in [
        Algorithm::FromCore,
        Algorithm::TwoToTheN,
        Algorithm::Parallel { threads: 1 },
    ] {
        let q = query.clone().algorithm(algorithm);
        same(
            format!("{algorithm:?}"),
            q.group_by(&generated),
            q.group_by(&sorted),
        )?;
    }
    if specs.iter().all(|s| rewritable(&s.func)) {
        let whole = Whole::new(case.n_dims, &specs);
        let answer = |t: &Table, sets: &[GroupingSet]| {
            let view = CachedView::build(t, &dims, &specs)?;
            view.answer(&whole.request(sets), &ExecContext::unlimited())
        };
        let core = [GroupingSet::full(case.n_dims)];
        same(
            "CachedView".into(),
            answer(&generated, &core),
            answer(&sorted, &core),
        )?;
        let sets = family(case, &dims).map_err(|e| format!("layout axis: family: {e}"))?;
        let cold = run_query(case, query.algorithm(Algorithm::FromCore), &generated)
            .map_err(|e| format!("layout axis: FromCore: {e}"))?;
        let warm = answer(&generated, &sets)
            .map_err(|e| format!("layout axis: CachedView family: {e}"))?;
        if !same_bits(&cold, &warm) {
            return Err(format!(
                "layout axis: the view's answer of the family differs from FromCore's\n\
                 FromCore: {:?}\nCachedView: {:?}",
                cold.rows(),
                warm.rows()
            ));
        }
    }
    Ok(true)
}

/// `a` and `b` row for row, floats compared by their bits.
fn same_bits(a: &Table, b: &Table) -> bool {
    let value = |(x, y): (&Value, &Value)| match (x, y) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Float(_), _) | (_, Value::Float(_)) => false,
        _ => x == y,
    };
    let row =
        |(r, s): (&Row, &Row)| r.len() == s.len() && r.values().iter().zip(s.values()).all(value);
    a.len() == b.len() && a.rows().iter().zip(b.rows()).all(row)
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
/// dictionary grows. The same batches also feed a cache view
/// ([`check_view_maintenance`]).
fn check_maintenance(case: &Case) -> Result<(), String> {
    let (dims, specs) = (case_dims(case), case_specs(case));
    let raw_sets = family(case, &dims).map_err(|e| format!("maintenance axis: {e}"))?;
    // The lattice normalizes the family (dedup + core): mirror it in the
    // recompute query so both sides answer the same grouping sets.
    let lattice =
        Lattice::new(case.n_dims, raw_sets).map_err(|e| format!("maintenance axis: {e}"))?;
    let set_dims: Vec<Vec<usize>> = lattice.sets().iter().map(|s| s.dims()).collect();
    let replay = maintenance_replay(case);
    check_view_maintenance(case, &replay)?;
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
    if cube.base().len() != shadow.len() {
        return Err(format!(
            "maintenance axis: cube tracks {} base rows, shadow has {}",
            cube.base().len(),
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

/// The maintenance axis's view half, the SQL cache's path: a `CachedView`
/// over the replay's first rows absorbs the same batches through
/// [`CachedView::absorb_batch`], handed the shadow table as the table each
/// batch leaves, as the catalog hands over the version it publishes.
/// After each batch the view must answer the case's family as the model
/// does over the shadow table; any error, a refusal included, fails the
/// axis. Returns how many batches that delete were absorbed, and after how
/// many the view recomputed a cell (a deleted MIN/MAX champion, a
/// non-finite float).
fn check_view_maintenance(case: &Case, replay: &Replay) -> Result<(usize, usize), String> {
    let (dims, specs) = (case_dims(case), case_specs(case));
    if !specs.iter().all(|s| rewritable(&s.func)) {
        return Ok((0, 0)); // the cache axis checks that such a view is refused
    }
    let axis = |e: CubeError| format!("view maintenance axis: {e}");
    let sets = family(case, &dims).map_err(axis)?;
    let whole = Whole::new(case.n_dims, &specs);
    let request = whole.request(&sets);
    let ctx = ExecContext::unlimited();
    let table = |rows: &[Row]| {
        let table = Table::new(case.table.schema().clone(), rows.to_vec());
        table.map_err(|e| format!("view maintenance axis: table: {e}"))
    };
    let mut shadow = replay.initial.clone();
    let mut view = CachedView::build(&table(&shadow)?, &dims, &specs).map_err(axis)?;
    let (mut retracted, mut recomputed) = (0, 0);
    for (i, (ins, del)) in replay.batches.iter().enumerate() {
        // A batch may delete a row it inserts: inserts land first.
        shadow.extend(ins.iter().cloned());
        for row in del {
            let at = shadow.iter().position(|r| r == row);
            let at = at.ok_or_else(|| format!("view maintenance axis: {row} not live"))?;
            shadow.swap_remove(at);
        }
        let post = table(&shadow)?;
        let batch = DeltaBatch::of(ins.clone(), del.clone());
        let absorbed = view.absorb_batch(&batch, Arc::new(post.clone()));
        let absorbed = absorbed.map_err(|e| format!("view maintenance axis: batch {i}: {e}"))?;
        let shadow_case = Case {
            seed: case.seed,
            table: post,
            n_dims: case.n_dims,
            query: case.query.clone(),
            aggs: case.aggs.clone(),
            gov: Gov::None,
        };
        let (names, expected) = model_result(&shadow_case);
        let got = absorbed.answer(&request, &ctx).map_err(axis)?;
        diff_tables(&names, &expected, &got, case.n_dims)
            .map_err(|m| format!("view maintenance axis: batch {i}: {m}"))?;
        retracted += usize::from(!del.is_empty());
        recomputed +=
            usize::from(absorbed.stats().cells_recomputed > view.stats().cells_recomputed);
        view = absorbed;
    }
    Ok((retracted, recomputed))
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

    /// The 200-seed smoke's view maintenance sub-axis is not vacuous:
    /// views absorb many batches that delete and refuse none (a refusal
    /// fails the axis, and so this test), and after many of them a cell
    /// was recomputed from the post-batch table — a deleted MIN/MAX
    /// champion, a non-finite float.
    #[test]
    fn the_smoke_retracts_into_views_and_recomputes_champions() {
        let (mut retracted, mut recomputed) = (0, 0);
        for case in (0..200u64).map(|i| crate::gen_case(0xDA7A_C0BE + i)) {
            let (r, c) = check_view_maintenance(&case, &maintenance_replay(&case)).unwrap();
            (retracted, recomputed) = (retracted + r, recomputed + c);
        }
        assert!(retracted >= 100, "{retracted} delete batches absorbed");
        assert!(recomputed >= 20, "{recomputed} batches recomputed a cell");
    }

    /// The layout axis's own case, beside the seeds': 300 rows over three
    /// dimensions of four values each (64 cells of about five rows), SUM
    /// and AVG over one `Float` measure, whose values `check_layout`
    /// replaces with tenths. All valid, the kernels fold the measure on
    /// their all-valid path; with `nulls`, every fifth value is NULL and
    /// they fold it on the validity path.
    fn layout_case(nulls: bool) -> Case {
        let seed = 0x1A70_u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::from_pairs(&[
            ("d0", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
            ("m_float", DataType::Float),
        ]);
        let rows = (0..300)
            .map(|i| {
                let mut values: Vec<Value> =
                    (0..3).map(|_| Value::Int(rng.gen_range(0..4))).collect();
                values.push(if nulls && i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Float(1.0)
                });
                Row::new(values)
            })
            .collect();
        let over = |name: &str| AggDesc::Builtin {
            name: name.into(),
            input: Some("m_float".into()),
        };
        Case {
            seed,
            table: Table::new(schema, rows).unwrap(),
            n_dims: 3,
            query: QueryKind::Cube,
            aggs: vec![over("SUM"), over("AVG")],
            gov: Gov::None,
        }
    }

    /// The fixed case passes the layout axis all valid and with NULLs.
    #[test]
    fn the_layout_axis_holds_on_its_fixed_case() {
        for nulls in [false, true] {
            assert_eq!(
                check_layout(&layout_case(nulls)),
                Ok(true),
                "nulls: {nulls}"
            );
        }
    }

    /// How many of the 200 smoke seeds aggregate a `Float` measure and so
    /// reach the layout axis, where every one of them must pass.
    #[test]
    fn the_smoke_reaches_the_layout_axis() {
        let smoke = (0..200u64).map(|i| crate::gen_case(0xDA7A_C0BE + i));
        let reached = smoke.map(|c| check_layout(&c).unwrap()).filter(|&r| r);
        assert_eq!(reached.count(), 78);
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
