//! Seeded deterministic generator of adversarial tables and query specs.
//!
//! Every case is a pure function of its `u64` seed (the vendored
//! xoshiro256++ stream), so any failure reproduces from the seed the fuzz
//! driver prints. The tables deliberately concentrate the inputs that have
//! historically broken cube engines: NULL-heavy dimension columns (§3.4's
//! NULL-vs-ALL distinction), NaN and ±0.0 as group keys *and* as measures,
//! `i64::MIN`/`i64::MAX` dimension values, empty and single-row tables,
//! duplicate keys, high-cardinality string dims next to two-value dims,
//! Bool and Date dimensions, and — every [`WIDE_EVERY`]-th seed — ten
//! high-cardinality dimensions whose packed coordinate needs more than 64
//! bits. Query specs cover all five spec families
//! including the §3.1 compound algebra, holistic aggregates, user-defined
//! aggregates (with and without an Iter_super), and governance settings.

use datacube::{AggSpec, CancelToken, ExecLimits};
use dc_aggregate::{AggKind, AggRef, UdaBuilder};
use dc_relation::{DataType, Date, Row, Schema, Table, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt;

/// One generated differential case: table + query spec + governance.
#[derive(Clone)]
pub struct Case {
    pub seed: u64,
    pub table: Table,
    /// The first `n_dims` columns, named `d0..d{n-1}`, are the grouping
    /// dimensions (in answer order); the rest are measures.
    pub n_dims: usize,
    pub query: QueryKind,
    pub aggs: Vec<AggDesc>,
    pub gov: Gov,
}

/// Which spec family the case exercises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryKind {
    GroupBy,
    Rollup,
    Cube,
    /// Explicit grouping sets, possibly duplicated or empty.
    GroupingSets(Vec<Vec<usize>>),
    /// §3.1 compound: `GROUP BY d0..d{g-1} ROLLUP d{g}..d{g+r-1} CUBE rest`.
    Compound {
        g: usize,
        r: usize,
    },
}

/// Governance settings attached to the query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Gov {
    None,
    MaxCells(u64),
    MaxMemoryBytes(u64),
    PreCancelled,
}

impl Gov {
    pub fn limits(&self) -> ExecLimits {
        match self {
            Gov::None => ExecLimits::none(),
            Gov::MaxCells(n) => ExecLimits::none().max_cells(*n),
            Gov::MaxMemoryBytes(b) => ExecLimits::none().max_memory_bytes(*b),
            Gov::PreCancelled => {
                let token = CancelToken::new();
                token.cancel();
                ExecLimits::none().cancel_token(token)
            }
        }
    }
}

/// One aggregate in the select list, in replayable descriptor form
/// (`AggRef`s are rebuilt on demand so `Case` stays `Clone` + printable).
#[derive(Clone, Debug)]
pub enum AggDesc {
    /// A registry builtin over a column, or `COUNT(*)` when `input` is
    /// `None`.
    Builtin { name: String, input: Option<String> },
    /// Algebraic UDA carrying a `(Σx², n)` handle — exercises the §5
    /// Iter_super protocol for user functions.
    SumSquares { input: String },
    /// Holistic UDA whose state is the whole multiset — exercises
    /// whole-bag merging through cascades, sorts, and coalesces.
    Range { input: String },
    /// Holistic UDA built *without* `state()`/`merge()` — its Iter_super
    /// is unavailable, so merge-based algorithms must not rely on it.
    AnyMin { input: String },
}

impl AggDesc {
    pub fn func(&self) -> AggRef {
        match self {
            AggDesc::Builtin { name, .. } => {
                dc_aggregate::builtin(name).expect("generator uses registered builtins")
            }
            AggDesc::SumSquares { .. } => sum_squares(),
            AggDesc::Range { .. } => value_range(),
            AggDesc::AnyMin { .. } => any_min(),
        }
    }

    pub fn input(&self) -> Option<&str> {
        match self {
            AggDesc::Builtin { input, .. } => input.as_deref(),
            AggDesc::SumSquares { input }
            | AggDesc::Range { input }
            | AggDesc::AnyMin { input } => Some(input),
        }
    }

    /// The engine-side spec; output columns are named positionally
    /// (`a0`, `a1`, ...) so the model can mirror them without consulting
    /// the engine's naming rules.
    pub fn spec(&self, i: usize) -> AggSpec {
        let f = self.func();
        let spec = match self.input() {
            Some(col) => AggSpec::new(f, col),
            None => AggSpec::star(f),
        };
        spec.with_name(format!("a{i}"))
    }
}

/// Σx² with a bounded `(sum_sq, n)` handle: algebraic, mergeable. Inputs
/// are dyadic rationals of modest magnitude, so partition merge order
/// cannot perturb the sum.
pub fn sum_squares() -> AggRef {
    UdaBuilder::new("SUM_SQUARES", AggKind::Algebraic, || (0.0f64, 0i64))
        .iter(|s, v| {
            if v.is_null() || *v == Value::All {
                return;
            }
            if let Some(x) = v.as_f64() {
                s.0 += x * x;
                s.1 += 1;
            }
        })
        .state(|s| vec![Value::Float(s.0), Value::Int(s.1)])
        .merge(|s, st| {
            s.0 += st[0].as_f64().unwrap_or(0.0);
            s.1 += st[1].as_i64().unwrap_or(0);
        })
        .finalize(|s| {
            if s.1 == 0 {
                Value::Null
            } else {
                Value::Float(s.0)
            }
        })
        .build()
        .expect("SUM_SQUARES is well-formed")
}

/// max − min over the numeric inputs, carried as the whole multiset — a
/// genuinely holistic UDA that nonetheless supplies Iter_super.
pub fn value_range() -> AggRef {
    UdaBuilder::new("VALUE_RANGE", AggKind::Holistic, Vec::<Value>::new)
        .iter(|s, v| {
            if !v.is_null() && *v != Value::All {
                s.push(v.clone());
            }
        })
        .state(|s| s.clone())
        .merge(|s, st| s.extend_from_slice(st))
        .finalize(|s| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut n = 0usize;
            for v in s {
                if let Some(x) = v.as_f64() {
                    // f64::min/max ignore NaN, so the fold is
                    // order-insensitive given the same multiset.
                    lo = lo.min(x);
                    hi = hi.max(x);
                    n += 1;
                }
            }
            if n == 0 {
                Value::Null
            } else {
                Value::Float(hi - lo)
            }
        })
        .build()
        .expect("VALUE_RANGE is well-formed")
}

/// Minimum by the total `Value` order, built *without* `state()`/`merge()`
/// (allowed for holistic UDAs): order-insensitive over any multiset, but
/// its Iter_super is a no-op — the probe for the non-mergeable fallback.
pub fn any_min() -> AggRef {
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

/// Per-dimension column archetype.
#[derive(Clone, Copy, Debug)]
enum DimArch {
    Str {
        card: usize,
    },
    IntSmall,
    /// Thousands of distinct values hugging both ends of the `i64` range.
    IntWide,
    IntExtreme,
    FloatSpecial,
    Bool,
    Date {
        card: usize,
    },
}

impl DimArch {
    fn dtype(self) -> DataType {
        match self {
            DimArch::Str { .. } => DataType::Str,
            DimArch::IntSmall | DimArch::IntWide | DimArch::IntExtreme => DataType::Int,
            DimArch::FloatSpecial => DataType::Float,
            DimArch::Bool => DataType::Bool,
            DimArch::Date { .. } => DataType::Date,
        }
    }

    fn sample(self, rng: &mut StdRng) -> Value {
        match self {
            DimArch::Str { card } => Value::str(format!("s{}", rng.gen_range(0..card))),
            DimArch::IntSmall => Value::Int(rng.gen_range(-3i64..=3)),
            DimArch::IntWide => {
                let offset = rng.gen_range(0i64..2048);
                Value::Int(if rng.gen_bool(0.5) {
                    i64::MIN + offset
                } else {
                    i64::MAX - offset
                })
            }
            DimArch::IntExtreme => {
                const POOL: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
                Value::Int(POOL[rng.gen_range(0..POOL.len())])
            }
            DimArch::FloatSpecial => {
                const POOL: [f64; 7] = [f64::NAN, -0.0, 0.0, 1.5, -2.25, 256.0, -0.25];
                Value::Float(POOL[rng.gen_range(0..POOL.len())])
            }
            DimArch::Bool => Value::Bool(rng.gen_bool(0.5)),
            DimArch::Date { card } => Value::Date(
                Date::new(2020, 1, 1 + rng.gen_range(0..card as u8))
                    .expect("generator dates are valid"),
            ),
        }
    }
}

fn pick_arch(rng: &mut StdRng) -> DimArch {
    match rng.gen_range(0u32..10) {
        0 | 1 => DimArch::Str {
            card: [1usize, 2, 5, 30][rng.gen_range(0..4)],
        },
        2 | 3 => DimArch::IntSmall,
        4 => DimArch::IntExtreme,
        5 | 6 => DimArch::FloatSpecial,
        7 => DimArch::Bool,
        _ => DimArch::Date {
            card: [1usize, 3, 12][rng.gen_range(0..3)],
        },
    }
}

/// NULL probability per column: mostly clean, sometimes NULL-heavy,
/// occasionally *all* NULL (the §3.4 stress).
fn pick_null_p(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..10) {
        0..=4 => 0.0,
        5 | 6 => 0.1,
        7 | 8 => 0.6,
        _ => 1.0,
    }
}

/// A dyadic float measure: exactly representable multiples of 0.25 with
/// |x| ≤ 256, so sums/sum-of-squares over ≤ 200 rows are exact in `f64`
/// and therefore independent of partition/merge order; specials inject
/// NaN and both zero signs.
fn sample_float_measure(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.15) {
        const SPECIALS: [f64; 3] = [f64::NAN, 0.0, -0.0];
        Value::Float(SPECIALS[rng.gen_range(0..SPECIALS.len())])
    } else {
        Value::Float(rng.gen_range(-1024i64..=1024) as f64 * 0.25)
    }
}

fn agg_pool(n_dims: usize, dim_types: &[DimArch]) -> Vec<AggDesc> {
    let b = |name: &str, input: &str| AggDesc::Builtin {
        name: name.into(),
        input: Some(input.into()),
    };
    let mut pool = vec![
        b("SUM", "m_int"),
        b("SUM", "m_float"),
        b("COUNT", "m_int"),
        b("COUNT", "m_float"),
        AggDesc::Builtin {
            name: "COUNT(*)".into(),
            input: None,
        },
        b("MIN", "m_int"),
        b("MIN", "m_float"),
        b("MAX", "m_int"),
        b("MAX", "m_float"),
        b("AVG", "m_int"),
        b("AVG", "m_float"),
        b("VARIANCE", "m_float"),
        b("STDDEV", "m_int"),
        b("MEDIAN", "m_int"),
        b("MEDIAN", "m_float"),
        b("MODE", "m_int"),
        b("COUNT DISTINCT", "m_int"),
        b("PRODUCT", "m_unit"),
        b("EVERY", "m_bool"),
        b("SOME", "m_bool"),
        b("GEOMEAN", "m_float"),
        AggDesc::SumSquares {
            input: "m_float".into(),
        },
        AggDesc::Range {
            input: "m_int".into(),
        },
        AggDesc::AnyMin {
            input: "m_int".into(),
        },
    ];
    // Aggregating dimension columns (only order-insensitive,
    // non-arithmetic functions: IntExtreme dims would overflow SUM).
    for d in 0..n_dims {
        let col = format!("d{d}");
        pool.push(b("MIN", &col));
        pool.push(b("MAX", &col));
        pool.push(b("COUNT", &col));
        pool.push(b("COUNT DISTINCT", &col));
        pool.push(b("MODE", &col));
        pool.push(AggDesc::AnyMin { input: col });
        let _ = dim_types;
    }
    pool
}

/// One seed in this many generates the wide-coordinate flavour: ten
/// dimensions of 64+ distinct values each (NULL among them) need 7+ bits
/// apiece, so the field widths sum past 64 and the engine must pack the
/// coordinate into its wide key. Ten, not more: the cache axis runs HRU
/// selection over all 2^N lattice nodes. Chosen by the seed, not drawn from
/// the stream, so every other seed generates the case it always has.
pub const WIDE_EVERY: u64 = 16;

/// Generate the case for a seed. Pure: same seed, same case.
pub fn gen_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let wide = seed % WIDE_EVERY == WIDE_EVERY - 1;

    const DIM_COUNTS: [usize; 10] = [0, 1, 1, 2, 2, 2, 3, 3, 3, 4];
    let n_dims = if wide {
        10
    } else {
        DIM_COUNTS[rng.gen_range(0..DIM_COUNTS.len())]
    };
    let archs: Vec<DimArch> = if wide {
        let wide_arch = |_| {
            if rng.gen_bool(0.5) {
                DimArch::Str { card: 4096 }
            } else {
                DimArch::IntWide
            }
        };
        (0..n_dims).map(wide_arch).collect()
    } else {
        (0..n_dims).map(|_| pick_arch(&mut rng)).collect()
    };
    let dim_null_p: Vec<f64> = if wide {
        (0..n_dims).map(|d| [0.0, 0.1][d % 2]).collect()
    } else {
        (0..n_dims).map(|_| pick_null_p(&mut rng)).collect()
    };
    let measure_null_p: Vec<f64> = (0..4).map(|_| pick_null_p(&mut rng)).collect();

    let mut pairs: Vec<(String, DataType)> = archs
        .iter()
        .enumerate()
        .map(|(i, a)| (format!("d{i}"), a.dtype()))
        .collect();
    pairs.push(("m_int".into(), DataType::Int));
    pairs.push(("m_float".into(), DataType::Float));
    pairs.push(("m_unit".into(), DataType::Int));
    pairs.push(("m_bool".into(), DataType::Bool));
    let pair_refs: Vec<(&str, DataType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pair_refs);

    let n_rows = match rng.gen_range(0u32..100) {
        // Enough rows that a tenth of them being NULL still leaves every
        // dimension 64+ distinct values.
        _ if wide => rng.gen_range(90usize..=120),
        0..=7 => 0,
        8..=15 => 1,
        16..=23 => 2,
        24..=55 => rng.gen_range(3usize..=10),
        56..=85 => rng.gen_range(11usize..=60),
        _ => rng.gen_range(61usize..=200),
    };

    // Layout-facing shapes: sorting the rows gives the key stream long
    // runs of equal keys, and a tiny measure domain gives runs of equal
    // measures. A cell must not depend on either: the engine folds every
    // row in order whatever the layout.
    let sort_rows = rng.gen_bool(0.3);
    let tiny_measures = rng.gen_bool(0.2);

    let mut rows: Vec<Row> = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let mut vals = Vec::with_capacity(n_dims + 4);
        for (d, arch) in archs.iter().enumerate() {
            if dim_null_p[d] > 0.0 && rng.gen_bool(dim_null_p[d]) {
                vals.push(Value::Null);
            } else {
                vals.push(arch.sample(&mut rng));
            }
        }
        // m_int: modest range so i64 SUM cannot overflow.
        vals.push(if rng.gen_bool(measure_null_p[0]) {
            Value::Null
        } else if tiny_measures {
            Value::Int(rng.gen_range(0i64..=1))
        } else {
            Value::Int(rng.gen_range(-50i64..=50))
        });
        vals.push(if rng.gen_bool(measure_null_p[1]) {
            Value::Null
        } else if tiny_measures {
            Value::Float([0.25, 0.5][rng.gen_range(0..2)])
        } else {
            sample_float_measure(&mut rng)
        });
        // m_unit: |v| ≤ 2 keeps PRODUCT finite over 200 rows.
        vals.push(if rng.gen_bool(measure_null_p[2]) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-2i64..=2))
        });
        vals.push(if rng.gen_bool(measure_null_p[3]) {
            Value::Null
        } else {
            Value::Bool(rng.gen_bool(0.5))
        });
        rows.push(Row::new(vals));
    }
    if sort_rows {
        rows.sort();
    }
    let mut table = Table::empty(schema);
    for row in rows {
        table.push(row).expect("generated row fits schema");
    }

    let query = match rng.gen_range(0u32..10) {
        0 | 1 => QueryKind::GroupBy,
        2 | 3 => QueryKind::Rollup,
        // A full cube over 10+ dimensions is 1024+ grouping sets: the wide
        // flavour keeps its CUBE blocks to two dimensions.
        4..=6 if wide => QueryKind::Rollup,
        4..=6 => QueryKind::Cube,
        7 => {
            let n_sets = rng.gen_range(1usize..=3);
            let sets = (0..n_sets)
                .map(|_| (0..n_dims).filter(|_| rng.gen_bool(0.5)).collect())
                .collect();
            QueryKind::GroupingSets(sets)
        }
        _ if wide => {
            let c = rng.gen_range(0usize..=2);
            let g = rng.gen_range(0..=n_dims - c);
            QueryKind::Compound {
                g,
                r: n_dims - c - g,
            }
        }
        _ => {
            let g = rng.gen_range(0..=n_dims);
            let r = rng.gen_range(0..=n_dims - g);
            QueryKind::Compound { g, r }
        }
    };

    let pool = agg_pool(n_dims, &archs);
    let n_aggs = rng.gen_range(1usize..=4);
    let aggs = (0..n_aggs)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect();

    let gov = match rng.gen_range(0u32..20) {
        0..=15 => Gov::None,
        16 | 17 => Gov::MaxCells(rng.gen_range(1u64..=48)),
        18 => Gov::MaxMemoryBytes(rng.gen_range(64u64..=4096)),
        _ => Gov::PreCancelled,
    };

    Case {
        seed,
        table,
        n_dims,
        query,
        aggs,
        gov,
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed: {:#x}", self.seed)?;
        writeln!(f, "query: {:?} over {} dims", self.query, self.n_dims)?;
        writeln!(f, "aggs: {:?}", self.aggs)?;
        writeln!(f, "gov: {:?}", self.gov)?;
        writeln!(f, "table ({} rows):", self.table.len())?;
        write!(f, "{}", self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_case() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = gen_case(seed);
            let b = gen_case(seed);
            assert_eq!(a.table, b.table, "seed {seed}");
            assert_eq!(a.query, b.query, "seed {seed}");
            assert_eq!(a.gov, b.gov, "seed {seed}");
            assert_eq!(format!("{a}"), format!("{b}"), "seed {seed}");
        }
    }

    #[test]
    fn seeds_cover_the_adversarial_space() {
        let mut saw_empty = false;
        let mut saw_null = false;
        let mut saw_compound = false;
        let mut saw_gov = false;
        let mut saw_nan_dim = false;
        let mut saw_sorted = false;
        for seed in 0..400u64 {
            let c = gen_case(seed);
            saw_sorted |= c.table.len() > 10 && c.table.rows().windows(2).all(|w| w[0] <= w[1]);
            saw_empty |= c.table.is_empty();
            saw_null |= c
                .table
                .rows()
                .iter()
                .any(|r| (0..c.n_dims).any(|d| r[d].is_null()));
            saw_compound |= matches!(c.query, QueryKind::Compound { .. });
            saw_gov |= c.gov != Gov::None;
            saw_nan_dim |= c
                .table
                .rows()
                .iter()
                .any(|r| (0..c.n_dims).any(|d| matches!(r[d], Value::Float(x) if x.is_nan())));
        }
        assert!(saw_empty, "no empty tables in 400 seeds");
        assert!(saw_null, "no NULL dimension values in 400 seeds");
        assert!(saw_compound, "no compound specs in 400 seeds");
        assert!(saw_gov, "no governed cases in 400 seeds");
        assert!(saw_nan_dim, "no NaN dimension keys in 400 seeds");
        assert!(saw_sorted, "no sorted (long-key-run) tables in 400 seeds");
    }

    #[test]
    fn udas_are_order_insensitive_and_well_formed() {
        let f = value_range();
        let mut a = f.init();
        for v in [3i64, -2, 7] {
            a.iter(&Value::Int(v));
        }
        assert_eq!(a.final_value(), Value::Float(9.0));

        let g = any_min();
        let mut m = g.init();
        for v in [5i64, 2, 9] {
            m.iter(&Value::Int(v));
        }
        assert_eq!(m.final_value(), Value::Int(2));

        let h = sum_squares();
        let mut s = h.init();
        s.iter(&Value::Float(1.5));
        s.iter(&Value::Float(-2.0));
        assert_eq!(s.final_value(), Value::Float(2.25 + 4.0));
    }
}
