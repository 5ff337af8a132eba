//! Property-based tests over the cube invariants, with proptest.
//!
//! Strategy: generate small random relations (bounded cardinalities so
//! cubes stay dense enough to be interesting) and check the paper's
//! algebraic claims hold for *every* input, not just the examples.

use datacube::algorithm::repro::{self, Repro};
use datacube::{
    AggSpec, Algorithm, CompoundSpec, CubeQuery, DeltaBatch, Dimension, ExecContext, ExecStats,
    Lattice, MaterializedCube,
};
use dc_aggregate::{builtin, AggKind, UdaBuilder};
use dc_relation::{DataType, Date, Row, Schema, Table, Value};
use proptest::prelude::*;

/// `query`'s cube over its `n_dims` dimensions, computed by the `Row`-keyed
/// reference algorithms instead of the engine.
fn reference_cube(query: &CubeQuery, t: &Table, n_dims: usize) -> (Table, ExecStats) {
    repro_cube(Repro::Reference, query, t, n_dims)
}

/// The same cube on any `repro` algorithm that computes full cubes.
fn repro_cube(which: Repro, query: &CubeQuery, t: &Table, n_dims: usize) -> (Table, ExecStats) {
    repro::run(which, query, t, &Lattice::cube(n_dims).unwrap(), None).unwrap()
}

fn schema3() -> Schema {
    Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("units", DataType::Int),
    ])
}

/// Rows over a 3-dimensional space with small per-dimension domains.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    proptest::collection::vec((0i64..4, 0i64..3, 0i64..3, 1i64..100), 0..max_rows).prop_map(
        |rows| {
            let mut t = Table::empty(schema3());
            for (a, b, c, u) in rows {
                t.push_unchecked(Row::new(vec![
                    Value::Int(a),
                    Value::Int(b),
                    Value::Int(c),
                    Value::Int(u),
                ]));
            }
            t
        },
    )
}

fn dims() -> Vec<Dimension> {
    vec![
        Dimension::column("a"),
        Dimension::column("b"),
        Dimension::column("c"),
    ]
}

fn sum_units() -> AggSpec {
    AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s")
}

fn count_units() -> AggSpec {
    AggSpec::new(builtin("COUNT").unwrap(), "units").with_name("n")
}

/// Five dimension columns of mixed types (the encoded engine interns each
/// through its own symbol table) plus the aggregated measure.
fn mixed_schema() -> Schema {
    Schema::from_pairs(&[
        ("d0", DataType::Str),
        ("d1", DataType::Int),
        ("d2", DataType::Date),
        ("d3", DataType::Str),
        ("d4", DataType::Int),
        ("units", DataType::Int),
    ])
}

fn mixed_dims(n_dims: usize) -> Vec<Dimension> {
    ["d0", "d1", "d2", "d3", "d4"][..n_dims]
        .iter()
        .map(Dimension::column)
        .collect()
}

/// Random tables over 1..=`max_dims` mixed-type dimensions. Domain index 0
/// maps to NULL in every dimension, so NULL appears as an ordinary
/// groupable value (distinct from ALL) throughout.
fn arb_mixed_table(max_dims: usize, max_rows: usize) -> impl Strategy<Value = (usize, Table)> {
    let rows = proptest::collection::vec(
        (
            0usize..5,
            0usize..4,
            0usize..4,
            0usize..3,
            0usize..3,
            1i64..100,
        ),
        0..max_rows,
    );
    (1..=max_dims, rows).prop_map(|(n_dims, raw)| {
        let mut t = Table::empty(mixed_schema());
        for (a, b, c, d, e, units) in raw {
            let dim = |idx: usize, v: Value| if idx == 0 { Value::Null } else { v };
            t.push_unchecked(Row::new(vec![
                dim(a, Value::str(format!("s{a}"))),
                dim(b, Value::Int(b as i64 * 10)),
                dim(c, Value::Date(Date::ymd(1990 + c as i32, 1, 1))),
                dim(d, Value::str(format!("t{d}"))),
                dim(e, Value::Int(e as i64 - 1)),
                Value::Int(units),
            ]));
        }
        (n_dims, t)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All §5 algorithms compute the same cube on every input.
    #[test]
    fn algorithms_are_equivalent(t in arb_table(120)) {
        let reference = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_units())
            .algorithm(Algorithm::TwoToTheN)
            .cube(&t)
            .unwrap();
        let query = CubeQuery::new().dimensions(dims()).aggregate(sum_units());
        for alg in [
            Algorithm::FromCore,
            Algorithm::UnionGroupBys,
            Algorithm::Parallel { threads: 3 },
        ] {
            let got = query.clone().algorithm(alg).cube(&t).unwrap();
            prop_assert_eq!(got.rows(), reference.rows(), "algorithm {:?}", alg);
        }
        for which in [Repro::Array, Repro::PipeSort] {
            let (got, _) = repro_cube(which, &query, &t, 3);
            prop_assert_eq!(got.rows(), reference.rows(), "algorithm {:?}", which);
        }
    }

    /// Sort-based rollup equals the hash rollup on every input.
    #[test]
    fn sort_rollup_equivalent(t in arb_table(120)) {
        let query = CubeQuery::new().dimensions(dims()).aggregate(sum_units());
        let lattice = Lattice::rollup(3).unwrap();
        let (a, _) = repro::run(Repro::Sort, &query, &t, &lattice, None).unwrap();
        let b = query.rollup(&t).unwrap();
        prop_assert_eq!(a.rows(), b.rows());
    }

    /// §3's cardinality claims: the cube has Π(C_i + 1) rows when the core
    /// is dense, and at most that many otherwise; the rollup's sets are a
    /// subset of the cube's rows.
    #[test]
    fn cardinality_bounds(t in arb_table(150)) {
        let cube = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_units())
            .cube(&t)
            .unwrap();
        if t.is_empty() {
            prop_assert!(cube.is_empty());
            return Ok(());
        }
        let cards: Vec<usize> = ["a", "b", "c"]
            .iter()
            .map(|d| t.domain(d).unwrap().len())
            .collect();
        let dense: usize = cards.iter().map(|c| c + 1).product();
        prop_assert!(cube.len() <= dense, "cube {} > dense bound {}", cube.len(), dense);
        // Lower bound: at least the core plus the grand total.
        let core = datacube::rows_in_set(&cube, 3, datacube::GroupingSet::full(3));
        prop_assert!(cube.len() > core);

        // ROLLUP ⊆ CUBE as row sets.
        let rollup = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_units())
            .rollup(&t)
            .unwrap();
        let cube_rows: std::collections::HashSet<&Row> = cube.rows().iter().collect();
        for r in rollup.rows() {
            prop_assert!(cube_rows.contains(r), "rollup row {} not in cube", r);
        }
    }

    /// Every super-aggregate SUM equals the sum of the core rows it
    /// covers, and COUNT counts them — checked via direct recomputation.
    #[test]
    fn super_aggregates_cover_their_sets(t in arb_table(100)) {
        let cube = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_units())
            .aggregate(count_units())
            .cube(&t)
            .unwrap();
        for row in cube.rows() {
            let matches: Vec<&Row> = t
                .rows()
                .iter()
                .filter(|base| {
                    (0..3).all(|d| row[d].is_all() || row[d] == base[d])
                })
                .collect();
            let want_sum: i64 = matches.iter().map(|r| r[3].as_i64().unwrap()).sum();
            let want_n = matches.len() as i64;
            prop_assert_eq!(row[3].as_i64().unwrap(), want_sum, "SUM at {}", row);
            prop_assert_eq!(row[4].as_i64().unwrap(), want_n, "COUNT at {}", row);
        }
    }

    /// The grand total row is unique and aggregates everything (when the
    /// input is non-empty).
    #[test]
    fn grand_total_unique(t in arb_table(100)) {
        prop_assume!(!t.is_empty());
        let cube = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_units())
            .cube(&t)
            .unwrap();
        let grand: Vec<&Row> = cube
            .rows()
            .iter()
            .filter(|r| (0..3).all(|d| r[d].is_all()))
            .collect();
        prop_assert_eq!(grand.len(), 1);
        let total: i64 = t.rows().iter().map(|r| r[3].as_i64().unwrap()).sum();
        prop_assert_eq!(grand[0][3].as_i64().unwrap(), total);
    }

    /// Aggregating the cube's core re-derives the super-aggregates: the
    /// "cubes are relations" composition property for distributive
    /// functions.
    #[test]
    fn recubing_the_core_is_idempotent(t in arb_table(100)) {
        let cube = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_units())
            .cube(&t)
            .unwrap();
        // Extract the core rows as a new base table and cube them.
        let core = cube.filter(|r| (0..3).all(|d| !r[d].is_all()));
        let core_table = Table::new(schema3(), core.rows().to_vec().into_iter()
            .map(|r| Row::new(r.values().to_vec())).collect()).unwrap();
        let recubed = CubeQuery::new()
            .dimensions(dims())
            .aggregate(AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s"))
            .cube(&core_table)
            .unwrap();
        prop_assert_eq!(recubed.rows(), cube.rows());
    }

    /// The arena engine (packed u64 coordinates, Fx hash, flat cell
    /// arenas) is an invisible drop-in for the Row-key path: identical
    /// result tables AND identical work counters, for every algorithm
    /// that routes through it and for both of its lane kinds — an
    /// all-kernel select list, and lists where one non-kernel aggregate
    /// (an algebraic built-in without a kernel, a user-defined aggregate)
    /// gives the whole query boxed accumulators — on random relations
    /// with mixed Str/Int/Date dimensions including NULLs.
    #[test]
    fn encoded_engine_matches_row_path(
        (n_dims, t) in arb_mixed_table(5, 80),
    ) {
        let sum = || AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s");
        let usum = UdaBuilder::new("USUM", AggKind::Algebraic, || 0i64)
            .iter(|s, v| *s += v.as_i64().unwrap_or(0))
            .state(|s| vec![Value::Int(*s)])
            .merge(|s, st| *s += st[0].as_i64().unwrap_or(0))
            .finalize(|s| Value::Int(*s))
            .build()
            .unwrap();
        // (select list, kernel lanes the engine should report)
        let select_lists = [
            (vec![sum(), count_units()], 2),
            (vec![sum(), AggSpec::new(builtin("VARIANCE").unwrap(), "units").with_name("v")], 0),
            (vec![sum(), AggSpec::new(usum, "units").with_name("u")], 0),
        ];
        for (aggs, kernel_lanes) in &select_lists {
            for alg in [
                Algorithm::TwoToTheN,
                Algorithm::FromCore,
                Algorithm::UnionGroupBys,
                Algorithm::Parallel { threads: 2 },
            ] {
                let query = aggs
                    .iter()
                    .fold(CubeQuery::new(), |q, a| q.aggregate(a.clone()))
                    .dimensions(mixed_dims(n_dims))
                    .algorithm(alg);
                let (enc_table, enc_stats) = query.cube_with_stats(&t).unwrap();
                let (row_table, row_stats) = reference_cube(&query, &t, n_dims);
                let tag = format!("{alg:?}, {n_dims} dims, {kernel_lanes} kernel lanes");
                prop_assert_eq!(enc_table.rows(), row_table.rows(), "tables diverge: {}", tag);
                prop_assert_eq!(enc_stats.vectorized_kernels_used, *kernel_lanes, "{}", tag);
                prop_assert_eq!(row_stats.vectorized_kernels_used, 0, "{}", tag);
                prop_assert_eq!(enc_stats.rows_scanned, row_stats.rows_scanned, "{}", tag);
                prop_assert_eq!(enc_stats.iter_calls, row_stats.iter_calls, "{}", tag);
                prop_assert_eq!(enc_stats.final_calls, row_stats.final_calls, "{}", tag);
                // Coalesce merges depend on how rows were split across
                // workers (morsels vs contiguous chunks); every serial
                // plan's merge count is the cascade's alone.
                if !matches!(alg, Algorithm::Parallel { .. }) {
                    prop_assert_eq!(enc_stats.merge_calls, row_stats.merge_calls, "{}", tag);
                }
            }
        }
    }

    /// GROUPING() bits and the NULL encoding agree on every row.
    #[test]
    fn grouping_encoding_consistent(t in arb_table(80)) {
        let cube = CubeQuery::new()
            .dimensions(dims())
            .aggregate(sum_units())
            .cube(&t)
            .unwrap();
        let enc = cube.to_null_grouping_encoding(&["a", "b", "c"]).unwrap();
        for (orig, enc_row) in cube.rows().iter().zip(enc.rows()) {
            for d in 0..3 {
                let bit = enc_row[4 + d] == Value::Bool(true);
                prop_assert_eq!(orig[d].is_all(), bit);
            }
        }
        let back = enc.from_null_grouping_encoding(&["a", "b", "c"]).unwrap();
        prop_assert_eq!(back.rows(), cube.rows());
    }
}

/// Random tables where both dimensions and both measures admit NULL. The
/// float measure is restricted to multiples of 0.25 — exactly
/// representable, so a parallel merge order cannot perturb sums and the
/// kernel/row comparison stays bit-for-bit.
fn arb_nullable_table(max_rows: usize) -> impl Strategy<Value = Table> {
    let schema = Schema::from_pairs(&[
        ("d0", DataType::Str),
        ("d1", DataType::Int),
        ("units", DataType::Int),
        ("price", DataType::Float),
    ]);
    // Index 0 maps to NULL in every column.
    proptest::collection::vec((0usize..4, 0usize..4, 0i64..101, 0i64..401), 0..max_rows).prop_map(
        move |raw| {
            let mut t = Table::empty(schema.clone());
            for (a, b, units, price) in raw {
                t.push_unchecked(Row::new(vec![
                    if a == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("s{a}"))
                    },
                    if b == 0 {
                        Value::Null
                    } else {
                        Value::Int(b as i64)
                    },
                    if units == 0 {
                        Value::Null
                    } else {
                        Value::Int(units - 51)
                    },
                    if price == 0 {
                        Value::Null
                    } else {
                        Value::Float((price - 201) as f64 * 0.25)
                    },
                ]));
            }
            t
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's kernel lanes compute exactly what the row-path
    /// Init/Iter/Final protocol computes — every built-in
    /// distributive/algebraic aggregate, NULLs in dimensions and
    /// measures, serial and parallel — with identical work counters.
    #[test]
    fn kernel_lanes_match_row_path(t in arb_nullable_table(120)) {
        let kernel_aggs = [
            AggSpec::new(builtin("COUNT").unwrap(), "units").with_name("n"),
            AggSpec::star(builtin("COUNT(*)").unwrap()).with_name("rows"),
            AggSpec::new(builtin("SUM").unwrap(), "units").with_name("su"),
            AggSpec::new(builtin("SUM").unwrap(), "price").with_name("sp"),
            AggSpec::new(builtin("MIN").unwrap(), "price").with_name("lo"),
            AggSpec::new(builtin("MAX").unwrap(), "units").with_name("hi"),
            AggSpec::new(builtin("AVG").unwrap(), "price").with_name("avg"),
        ];
        for alg in [Algorithm::FromCore, Algorithm::Parallel { threads: 2 }] {
            let query = kernel_aggs
                .iter()
                .fold(CubeQuery::new(), |q, a| q.aggregate(a.clone()))
                .dimensions(vec![Dimension::column("d0"), Dimension::column("d1")])
                .algorithm(alg);
            let (vec_table, vec_stats) = query.cube_with_stats(&t).unwrap();
            let (row_table, row_stats) = reference_cube(&query, &t, 2);
            prop_assert_eq!(
                vec_table.rows(), row_table.rows(),
                "tables diverge under {:?}", alg
            );
            prop_assert_eq!(vec_stats.vectorized_kernels_used, 7);
            prop_assert_eq!(row_stats.vectorized_kernels_used, 0);
            prop_assert_eq!(
                vec_stats.iter_calls, row_stats.iter_calls,
                "iter_calls diverge under {:?}", alg
            );
            prop_assert_eq!(
                vec_stats.rows_scanned, row_stats.rows_scanned,
                "rows_scanned diverge under {:?}", alg
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §3.1 compound algebra is a containment chain: every GROUP BY
    /// row appears in the ROLLUP over the same dimensions, and every
    /// ROLLUP row appears in the CUBE — CUBE(a,b) ⊇ ROLLUP(a,b) ⊇
    /// GROUP BY a,b — with each step strictly adding super-aggregate rows
    /// on non-empty input (the rollup's prefix totals, then the cube's
    /// remaining slabs).
    #[test]
    fn compound_algebra_containment(t in arb_table(100)) {
        let ab = || vec![Dimension::column("a"), Dimension::column("b")];
        let run = |spec: &CompoundSpec| {
            CubeQuery::new()
                .dimensions(ab())
                .aggregate(sum_units())
                .aggregate(count_units())
                .compound(&t, spec)
                .unwrap()
        };
        let group_by = run(&CompoundSpec::new().group_by(ab()));
        let rollup = run(&CompoundSpec::new().rollup(ab()));
        let cube = run(&CompoundSpec::new().cube(ab()));

        let contains = |sup: &Table, sub: &Table| {
            sub.rows().iter().all(|r| sup.rows().contains(r))
        };
        prop_assert!(contains(&rollup, &group_by), "ROLLUP must contain GROUP BY");
        prop_assert!(contains(&cube, &rollup), "CUBE must contain ROLLUP");

        if !t.rows().is_empty() {
            // ROLLUP adds the a-prefix totals and the grand total; CUBE
            // additionally adds the b-slabs.
            prop_assert!(rollup.rows().len() > group_by.rows().len());
            prop_assert!(cube.rows().len() > rollup.rows().len());
        } else {
            prop_assert_eq!(cube.rows().len(), 0);
            prop_assert_eq!(rollup.rows().len(), 0);
            prop_assert_eq!(group_by.rows().len(), 0);
        }
    }
}

// ------------------------------------------------- batched maintenance --

/// One row in the `arb_nullable_table` encoding: domain index 0 maps to
/// NULL in every column, so the (0, 0, 0, 0) op is an all-NULL row.
fn nullable_row(a: usize, b: usize, units: i64, price: i64) -> Row {
    Row::new(vec![
        if a == 0 {
            Value::Null
        } else {
            Value::str(format!("s{a}"))
        },
        if b == 0 {
            Value::Null
        } else {
            Value::Int(b as i64)
        },
        if units == 0 {
            Value::Null
        } else {
            Value::Int(units - 51)
        },
        if price == 0 {
            Value::Null
        } else {
            Value::Float((price - 201) as f64 * 0.25)
        },
    ])
}

/// One maintenance op in abstract form; deletes pick a live row by
/// `idx % live.len()`, so every generated sequence is applicable.
#[derive(Clone, Debug)]
enum DeltaOp {
    Insert(usize, usize, i64, i64),
    Delete(usize),
}

fn arb_delta_ops(max_ops: usize) -> impl Strategy<Value = Vec<DeltaOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..4, 0usize..4, 0i64..101, 0i64..401)
                .prop_map(|(a, b, u, p)| DeltaOp::Insert(a, b, u, p)),
            (0usize..1000).prop_map(DeltaOp::Delete),
        ],
        0..max_ops,
    )
}

fn maintain_dims() -> Vec<Dimension> {
    vec![Dimension::column("d0"), Dimension::column("d1")]
}

/// Retractable aggregates with champions (MIN/MAX) in the select list, so
/// random deletes exercise the §6 "holistic for DELETE" recompute path.
fn maintain_aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(builtin("SUM").unwrap(), "price").with_name("sp"),
        AggSpec::new(builtin("COUNT").unwrap(), "units").with_name("n"),
        AggSpec::new(builtin("MIN").unwrap(), "price").with_name("lo"),
        AggSpec::new(builtin("MAX").unwrap(), "units").with_name("hi"),
        AggSpec::new(builtin("AVG").unwrap(), "price").with_name("avg"),
    ]
}

fn sorted_rows(t: &Table) -> Vec<Row> {
    let mut rows = t.rows().to_vec();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched write path is equivalent to both alternatives on every
    /// input: folding an arbitrary insert/delete interleaving as ONE
    /// `DeltaBatch` gives the same cube as applying the ops row-at-a-time,
    /// and both equal a from-scratch recompute of the final table — with
    /// NULL keys, all-NULL rows, and champion deletes in the mix. The
    /// version counter advances by logical ops either way.
    #[test]
    fn batched_maintenance_matches_row_at_a_time_and_recompute(
        t in arb_nullable_table(40),
        ops in arb_delta_ops(30),
    ) {
        let batched = MaterializedCube::cube(&t, maintain_dims(), maintain_aggs()).unwrap();
        let stepped = MaterializedCube::cube(&t, maintain_dims(), maintain_aggs()).unwrap();
        let mut shadow: Vec<Row> = t.rows().to_vec();
        let mut batch = DeltaBatch::new();
        for op in &ops {
            match op {
                DeltaOp::Insert(a, b, u, p) => {
                    let row = nullable_row(*a, *b, *u, *p);
                    shadow.push(row.clone());
                    batch.insert(row.clone()).unwrap();
                    stepped.insert(row).unwrap();
                }
                DeltaOp::Delete(i) => {
                    if shadow.is_empty() {
                        continue;
                    }
                    let row = shadow.swap_remove(i % shadow.len());
                    batch.delete(row.clone());
                    stepped.delete(&row).unwrap();
                }
            }
        }
        if !batch.is_empty() {
            batched.apply(&batch, &ExecContext::unlimited()).unwrap();
        }

        let final_table = Table::new(t.schema().clone(), shadow).unwrap();
        let recomputed = maintain_aggs()
            .into_iter()
            .fold(CubeQuery::new(), |q, a| q.aggregate(a))
            .dimensions(maintain_dims())
            .cube(&final_table)
            .unwrap();
        let got_batched = sorted_rows(&batched.to_table().unwrap());
        let got_stepped = sorted_rows(&stepped.to_table().unwrap());
        prop_assert_eq!(&got_batched, &got_stepped, "batched vs row-at-a-time");
        prop_assert_eq!(&got_batched, &sorted_rows(&recomputed), "batched vs recompute");
        prop_assert_eq!(batched.version(), stepped.version());
    }

    /// Splitting one logical batch into k sub-batches and applying them in
    /// an arbitrary order gives the same cube as the one-shot batch, for
    /// distributive/algebraic aggregates — inserts land in whatever chunk
    /// the split put them in, and deletes of distinct base rows ride along
    /// in random chunks.
    #[test]
    fn sub_batch_split_is_order_insensitive(
        t in arb_nullable_table(30),
        raw in proptest::collection::vec((0usize..4, 0usize..4, 0i64..101, 0i64..401), 1..32),
        dels in proptest::collection::vec(0usize..1000, 0..6),
        cuts in proptest::collection::vec(0usize..1000, 0..3),
        order_seed in proptest::collection::vec(0u64..1000, 4),
    ) {
        let rows: Vec<Row> = raw
            .into_iter()
            .map(|(a, b, u, p)| nullable_row(a, b, u, p))
            .collect();
        // Distinct base-row victims (distinct indices delete distinct
        // copies, so the delete multiset is valid in any order).
        let mut victims: Vec<usize> = dels
            .into_iter()
            .filter(|_| !t.is_empty())
            .map(|i| i % t.len())
            .collect();
        victims.sort_unstable();
        victims.dedup();

        let oneshot = MaterializedCube::cube(&t, maintain_dims(), maintain_aggs()).unwrap();
        let mut batch = DeltaBatch::new();
        for r in &rows {
            batch.insert(r.clone()).unwrap();
        }
        for &v in &victims {
            batch.delete(t.rows()[v].clone());
        }
        oneshot.apply(&batch, &ExecContext::unlimited()).unwrap();

        // Split the inserts at the generated cut points, attach each
        // victim to a chunk, then apply the chunks in a shuffled order.
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (rows.len() + 1)).collect();
        bounds.push(0);
        bounds.push(rows.len());
        bounds.sort_unstable();
        bounds.dedup();
        let chunks: Vec<&[Row]> = bounds.windows(2).map(|w| &rows[w[0]..w[1]]).collect();
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        order.sort_by_key(|i| (order_seed[i % order_seed.len()], *i));

        let split = MaterializedCube::cube(&t, maintain_dims(), maintain_aggs()).unwrap();
        for (rank, &c) in order.iter().enumerate() {
            let mut sub = DeltaBatch::new();
            for r in chunks[c] {
                sub.insert(r.clone()).unwrap();
            }
            for (vi, &v) in victims.iter().enumerate() {
                if vi % order.len() == rank {
                    sub.delete(t.rows()[v].clone());
                }
            }
            if !sub.is_empty() {
                split.apply(&sub, &ExecContext::unlimited()).unwrap();
            }
        }
        prop_assert_eq!(
            sorted_rows(&split.to_table().unwrap()),
            sorted_rows(&oneshot.to_table().unwrap())
        );
    }
}

/// The §6 worst case, deterministically: one batch that deletes the
/// reigning MIN/MAX champion *and* an all-NULL row while inserting a new
/// champion must agree with the row-at-a-time path and a recompute.
#[test]
fn champion_delete_and_all_null_row_in_one_batch() {
    let champion = nullable_row(1, 1, 100, 400); // max units, max price
    let all_null = nullable_row(0, 0, 0, 0);
    let t = Table::new(
        Schema::from_pairs(&[
            ("d0", DataType::Str),
            ("d1", DataType::Int),
            ("units", DataType::Int),
            ("price", DataType::Float),
        ]),
        vec![
            champion.clone(),
            all_null.clone(),
            nullable_row(1, 1, 10, 20),
            nullable_row(2, 2, 30, 1),
        ],
    )
    .unwrap();
    let batched = MaterializedCube::cube(&t, maintain_dims(), maintain_aggs()).unwrap();
    let stepped = MaterializedCube::cube(&t, maintain_dims(), maintain_aggs()).unwrap();

    let new_champ = nullable_row(1, 2, 99, 399);
    let mut batch = DeltaBatch::new();
    batch.delete(champion.clone());
    batch.delete(all_null.clone());
    batch.insert(new_champ.clone()).unwrap();
    batched.apply(&batch, &ExecContext::unlimited()).unwrap();
    stepped.delete(&champion).unwrap();
    stepped.delete(&all_null).unwrap();
    stepped.insert(new_champ.clone()).unwrap();

    let final_table = Table::new(
        t.schema().clone(),
        vec![
            nullable_row(1, 1, 10, 20),
            nullable_row(2, 2, 30, 1),
            new_champ,
        ],
    )
    .unwrap();
    let recomputed = maintain_aggs()
        .into_iter()
        .fold(CubeQuery::new(), |q, a| q.aggregate(a))
        .dimensions(maintain_dims())
        .cube(&final_table)
        .unwrap();
    let got = sorted_rows(&batched.to_table().unwrap());
    assert_eq!(got, sorted_rows(&stepped.to_table().unwrap()));
    assert_eq!(got, sorted_rows(&recomputed));
    // The champion delete forced real recomputes on both paths.
    assert!(batched.stats().cells_recomputed > 0);
}
