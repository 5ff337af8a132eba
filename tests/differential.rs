//! Cross-path differential pins: cases the oracle fuzzer surfaced or that
//! the paper singles out, fixed here as fast deterministic tests so they
//! can never regress silently.
//!
//! The full fuzzer lives in `crates/oracle` (see README / DESIGN.md);
//! these tests replay its minimal witnesses and the §3.4 NULL-vs-ALL
//! discriminator through *every* execution path — each algorithm at
//! several thread counts, on the engine and on the `Row`-keyed reference,
//! plus `repro`'s Sort, Array and PipeSort where their lattice shapes
//! apply; the cases pick select lists that land on both of the engine's
//! lane kinds.

use std::sync::Arc;

use datacube::algorithm::repro::{self, Repro};
use datacube::{
    AggSpec, Algorithm, CompoundSpec, CubeQuery, CubeResult, Dimension, GroupingSet, Lattice,
};
use dc_aggregate::{builtin, AggKind, AggregateFunction, UdaBuilder};
use dc_relation::{DataType, Date, Row, Schema, Table, Value};

/// One execution path: the engine under an [`Algorithm`] (`None`), or a
/// `repro` algorithm run on the same query.
type Combo = (Algorithm, Option<Repro>);

/// Every (algorithm, engine-or-reference) combination that accepts an
/// arbitrary lattice. Sort/Array/PipeSort are shape-restricted and are
/// exercised separately where their shapes apply.
fn hash_combos() -> Vec<Combo> {
    let algorithms = [
        Algorithm::Auto,
        Algorithm::TwoToTheN,
        Algorithm::UnionGroupBys,
        Algorithm::FromCore,
        Algorithm::Parallel { threads: 1 },
        Algorithm::Parallel { threads: 4 },
        Algorithm::Parallel { threads: 16 },
    ];
    let mut combos = Vec::new();
    for algorithm in algorithms {
        for path in [Some(Repro::Reference), None] {
            combos.push((algorithm, path));
        }
    }
    combos
}

/// The grouping-set family a case computes over its `n` dimensions.
enum Family<'a> {
    Cube(usize),
    Rollup(usize),
    Compound(&'a CompoundSpec),
}

/// Run `q` with `algorithm` on the engine (through the query's own
/// operators) or on a `repro` algorithm (same lattice, same kept sets).
fn run((algorithm, path): Combo, q: CubeQuery, t: &Table, family: Family) -> CubeResult<Table> {
    let q = q.algorithm(algorithm);
    let Some(which) = path else {
        return match family {
            Family::Cube(_) => q.cube(t),
            Family::Rollup(_) => q.rollup(t),
            Family::Compound(spec) => q.compound(t, spec),
        };
    };
    let sets: Vec<GroupingSet>;
    let (lattice, keep) = match family {
        Family::Cube(n) => (Lattice::cube(n)?, None),
        Family::Rollup(n) => (Lattice::rollup(n)?, None),
        Family::Compound(spec) => {
            sets = spec.grouping_sets()?;
            let n = spec.dimensions().len();
            (Lattice::new(n, sets.clone())?, Some(sets.as_slice()))
        }
    };
    Ok(repro::run(which, &q, t, &lattice, keep)?.0)
}

/// A holistic UDA built without `state()`/`merge()` — its `Iter_super` is
/// a no-op, so any merge-based plan that trusts it drops data. This is the
/// oracle's minimal reproduction shape (fuzzer seed 0xda7ac0d8).
fn merge_less_min() -> Arc<dyn AggregateFunction> {
    UdaBuilder::new("ANY_MIN", AggKind::Holistic, || None::<Value>)
        .iter(|s, v| {
            if v.is_null() || *v == Value::All {
                return;
            }
            match s {
                Some(cur) if *cur <= *v => {}
                _ => *s = Some(v.clone()),
            }
        })
        .finalize(|s| s.clone().unwrap_or(Value::Null))
        .build()
        .expect("ANY_MIN is well-formed")
}

/// Pinned regression (fuzzer seed 0xda7ac0d8, shrunk to one row): a
/// compound `GROUP BY d0 CUBE d1` with a merge-less holistic UDA. Before
/// the `mergeable()` routing fix, FromCore/Parallel cascaded through the
/// UDA's no-op merge and returned NULL for the `(d0, ALL)` super-aggregate
/// instead of the group's value.
#[test]
fn merge_less_uda_super_aggregates_survive_every_hash_path() {
    let schema = Schema::from_pairs(&[
        ("d0", DataType::Float),
        ("d1", DataType::Date),
        ("m", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    t.push_unchecked(Row::new(vec![
        Value::Float(1.5),
        Value::Date(Date::new(2020, 1, 1).unwrap()),
        Value::Int(-33),
    ]));

    let spec = CompoundSpec::new()
        .group_by(vec![Dimension::column("d0")])
        .cube(vec![Dimension::column("d1")]);

    for combo in hash_combos() {
        let q = CubeQuery::new()
            .dimensions(spec.dimensions())
            .aggregate(AggSpec::new(merge_less_min(), "d0").with_name("a0"));
        let got =
            run(combo, q, &t, Family::Compound(&spec)).unwrap_or_else(|e| panic!("{combo:?}: {e}"));
        let rows = got.canonical_rows(2);
        assert_eq!(rows.len(), 2, "{combo:?}");
        for row in &rows {
            assert_eq!(
                row[2],
                Value::Float(1.5),
                "{combo:?}: merge-less UDA lost its state in row {row:?}"
            );
        }
    }
}

/// The same defect through the shape-restricted algorithms: Sort (rollup
/// lattice), Array and PipeSort (full cube) all cascade scratchpads, so a
/// merge-less UDA must be routed to the scan-based path there too.
#[test]
fn merge_less_uda_survives_sort_array_and_pipesort() {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Str),
        ("b", DataType::Int),
        ("m", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for (a, b, m) in [("x", 1, 7), ("x", 2, 3), ("y", 1, 9)] {
        t.push_unchecked(Row::new(vec![Value::str(a), Value::Int(b), Value::Int(m)]));
    }
    let dims = vec![Dimension::column("a"), Dimension::column("b")];
    let agg = || AggSpec::new(merge_less_min(), "m").with_name("lo");

    let q = || CubeQuery::new().dimensions(dims.clone()).aggregate(agg());
    // Baseline: the engine's scan-based 2^N shape, correct by construction.
    let two_to_the_n = |family: Family| -> Vec<Row> {
        run((Algorithm::TwoToTheN, None), q(), &t, family)
            .unwrap()
            .canonical_rows(2)
    };

    let cube_ref = two_to_the_n(Family::Cube(2));
    for which in [Repro::Array, Repro::PipeSort] {
        let got = run((Algorithm::Auto, Some(which)), q(), &t, Family::Cube(2))
            .unwrap_or_else(|e| panic!("{which:?}: {e}"));
        assert_eq!(got.canonical_rows(2), cube_ref, "{which:?} cube");
    }

    let sort = (Algorithm::Auto, Some(Repro::Sort));
    let got = run(sort, q(), &t, Family::Rollup(2)).unwrap();
    let rollup_ref = two_to_the_n(Family::Rollup(2));
    assert_eq!(got.canonical_rows(2), rollup_ref, "Sort rollup");
}

/// §3.4: "The ALL value appears to be essential, but creates substantial
/// complexity... It is a non-value, like NULL." The engine must keep a
/// *genuine* NULL group value distinguishable from the ALL super-aggregate
/// token on every execution path, and the GROUPING()-style encoding must
/// carry the distinction losslessly.
#[test]
fn null_groups_and_all_rows_stay_distinguishable_on_every_path() {
    let schema = Schema::from_pairs(&[
        ("color", DataType::Str),
        ("size", DataType::Int),
        ("units", DataType::Int),
    ]);
    let mut t = Table::empty(schema);
    for (color, size, units) in [
        (Value::Null, 1, 10),
        (Value::Null, 2, 20),
        (Value::str("red"), 1, 5),
    ] {
        t.push_unchecked(Row::new(vec![color, Value::Int(size), Value::Int(units)]));
    }
    let dims = vec![Dimension::column("color"), Dimension::column("size")];

    let find = |rows: &[Row], color: &Value, size: &Value| -> Value {
        rows.iter()
            .find(|r| &r[0] == color && &r[1] == size)
            .unwrap_or_else(|| panic!("no row for ({color}, {size})"))[2]
            .clone()
    };

    let mut all_combos = hash_combos();
    for which in [Repro::Array, Repro::PipeSort] {
        all_combos.push((Algorithm::Auto, Some(which)));
    }
    for combo in all_combos {
        let q = CubeQuery::new()
            .dimensions(dims.clone())
            .aggregate(AggSpec::new(builtin("SUM").unwrap(), "units").with_name("s"));
        let got = run(combo, q, &t, Family::Cube(2)).unwrap_or_else(|e| panic!("{combo:?}: {e}"));
        let rows = got.canonical_rows(2);
        let tag = format!("{combo:?}");

        // 3 core groups + 2 color slabs + 2 size slabs + grand total.
        assert_eq!(rows.len(), 8, "{tag}");
        // The NULL color group and the ALL color slab coexist and differ.
        assert_eq!(
            find(&rows, &Value::Null, &Value::Int(1)),
            Value::Int(10),
            "{tag}"
        );
        assert_eq!(
            find(&rows, &Value::All, &Value::Int(1)),
            Value::Int(15),
            "{tag}"
        );
        assert_eq!(
            find(&rows, &Value::Null, &Value::All),
            Value::Int(30),
            "{tag}"
        );
        assert_eq!(
            find(&rows, &Value::All, &Value::All),
            Value::Int(35),
            "{tag}"
        );

        // The minimalist NULL + GROUPING() encoding separates the two NULL
        // meanings bit-wise, and the round-trip restores ALL exactly.
        let enc = got.to_null_grouping_encoding(&["color", "size"]).unwrap();
        let enc_rows = enc.canonical_rows(2);
        let null_color_rows: Vec<&Row> = enc_rows
            .iter()
            .filter(|r| r[0] == Value::Null && r[1] == Value::Int(1))
            .collect();
        assert_eq!(null_color_rows.len(), 2, "{tag}");
        let mut bits: Vec<(Value, Value)> = null_color_rows
            .iter()
            .map(|r| (r[3].clone(), r[2].clone()))
            .collect();
        bits.sort_by(|a, b| a.0.cmp(&b.0));
        // grouping(color) = FALSE → the genuine NULL group (sum 10);
        // grouping(color) = TRUE  → the ALL slab in disguise (sum 15).
        assert_eq!(bits[0], (Value::Bool(false), Value::Int(10)), "{tag}");
        assert_eq!(bits[1], (Value::Bool(true), Value::Int(15)), "{tag}");

        let back = enc.from_null_grouping_encoding(&["color", "size"]).unwrap();
        assert_eq!(back.canonical_rows(2), rows, "{tag} round-trip");
    }
}

/// Vectorized-kernel edge: a zero-row table produces zero cells — no
/// grand-total row, no phantom groups — and the kernels agree with the
/// row path about it on every combination that can take the columnar path.
#[test]
fn vectorized_zero_row_cube_is_empty_everywhere() {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Str),
        ("b", DataType::Int),
        ("m", DataType::Float),
    ]);
    let t = Table::empty(schema);
    let dims = vec![Dimension::column("a"), Dimension::column("b")];

    for combo in hash_combos() {
        let q = CubeQuery::new()
            .dimensions(dims.clone())
            .aggregate(AggSpec::new(builtin("SUM").unwrap(), "m").with_name("s"))
            .aggregate(AggSpec::new(builtin("COUNT").unwrap(), "m").with_name("n"))
            .aggregate(AggSpec::star(builtin("COUNT(*)").unwrap()).with_name("rows"));
        let got = run(combo, q, &t, Family::Cube(2)).unwrap_or_else(|e| panic!("{combo:?}: {e}"));
        assert_eq!(got.len(), 0, "{combo:?}: empty input grew rows");
    }
}

/// Vectorized-kernel edge: an all-NULL measure column. §3.3: NULL "does
/// not participate in any aggregate except COUNT()" — so COUNT(m) is 0,
/// COUNT(*) still counts rows, and SUM/MIN over nothing is NULL. The
/// kernels' validity masks must reproduce this exactly.
#[test]
fn vectorized_all_null_measure_count_vs_count_star() {
    let schema = Schema::from_pairs(&[("a", DataType::Str), ("m", DataType::Int)]);
    let mut t = Table::empty(schema);
    for group in ["x", "x", "y"] {
        t.push_unchecked(Row::new(vec![Value::str(group), Value::Null]));
    }
    let dims = vec![Dimension::column("a")];

    for combo in hash_combos() {
        let q = CubeQuery::new()
            .dimensions(dims.clone())
            .aggregate(AggSpec::new(builtin("COUNT").unwrap(), "m").with_name("n"))
            .aggregate(AggSpec::star(builtin("COUNT(*)").unwrap()).with_name("rows"))
            .aggregate(AggSpec::new(builtin("SUM").unwrap(), "m").with_name("s"))
            .aggregate(AggSpec::new(builtin("MIN").unwrap(), "m").with_name("lo"));
        let got = run(combo, q, &t, Family::Cube(1)).unwrap_or_else(|e| panic!("{combo:?}: {e}"));
        let rows = got.canonical_rows(1);
        let tag = format!("{combo:?}");
        assert_eq!(rows.len(), 3, "{tag}"); // x, y, grand total

        for row in &rows {
            let expected_star = match &row[0] {
                Value::All => 3,
                v if *v == Value::str("x") => 2,
                _ => 1,
            };
            assert_eq!(
                row[1],
                Value::Int(0),
                "{tag}: COUNT(m) over NULLs in {row:?}"
            );
            assert_eq!(
                row[2],
                Value::Int(expected_star),
                "{tag}: COUNT(*) in {row:?}"
            );
            assert_eq!(row[3], Value::Null, "{tag}: SUM of no values in {row:?}");
            assert_eq!(row[4], Value::Null, "{tag}: MIN of no values in {row:?}");
        }
    }
}
