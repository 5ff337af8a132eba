//! Query specifications: dimensions, aggregate calls, and the
//! GROUP BY ⊗ ROLLUP ⊗ CUBE compound algebra of §3.1.

use crate::error::{CubeError, CubeResult};
use crate::lattice::GroupingSet;
use dc_aggregate::AggRef;
use dc_relation::{DataType, Row, Schema, Value};
use std::sync::Arc;

/// A grouping dimension: either a plain column or a *computed category*
/// (§2's histogram problem — `GROUP BY Day(Time)`, `Nation(Lat, Lon)`).
#[derive(Clone)]
pub struct Dimension {
    /// Output column name, e.g. `"day"` in `Day(Time) AS day`.
    pub name: Arc<str>,
    /// Output column type.
    pub dtype: DataType,
    kind: DimKind,
}

#[derive(Clone)]
enum DimKind {
    /// Group directly on a stored column.
    Column(Arc<str>),
    /// Group on a function of the whole row (the paper's "aggregation over
    /// computed categories").
    Computed(Arc<dyn Fn(&Row) -> Value + Send + Sync>),
}

impl Dimension {
    /// A plain column dimension; output name and type follow the column.
    pub fn column(name: impl AsRef<str>) -> Self {
        let name: Arc<str> = Arc::from(name.as_ref());
        // dtype resolved at bind time against the schema; placeholder here.
        Dimension {
            name: name.clone(),
            dtype: DataType::Str,
            kind: DimKind::Column(name),
        }
    }

    /// A computed dimension: `Day(Time) AS day`.
    pub fn computed(
        name: impl AsRef<str>,
        dtype: DataType,
        f: impl Fn(&Row) -> Value + Send + Sync + 'static,
    ) -> Self {
        Dimension {
            name: Arc::from(name.as_ref()),
            dtype,
            kind: DimKind::Computed(Arc::new(f)),
        }
    }

    /// Resolve against an input schema, producing an evaluator.
    pub(crate) fn bind(&self, schema: &Schema) -> CubeResult<BoundDimension> {
        match &self.kind {
            DimKind::Column(col) => {
                let idx = schema.index_of(col)?;
                let dtype = schema.column_at(idx).dtype;
                Ok(BoundDimension {
                    name: self.name.clone(),
                    dtype,
                    eval: BoundEval::Column(idx),
                })
            }
            DimKind::Computed(f) => Ok(BoundDimension {
                name: self.name.clone(),
                dtype: self.dtype,
                eval: BoundEval::Computed(Arc::clone(f)),
            }),
        }
    }
}

impl std::fmt::Debug for Dimension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            DimKind::Column(c) => write!(f, "Dimension({c})"),
            DimKind::Computed(_) => write!(f, "Dimension({} = <computed>)", self.name),
        }
    }
}

/// A dimension bound to a concrete input schema.
#[derive(Clone)]
pub(crate) struct BoundDimension {
    pub name: Arc<str>,
    pub dtype: DataType,
    eval: BoundEval,
}

#[derive(Clone)]
enum BoundEval {
    Column(usize),
    Computed(Arc<dyn Fn(&Row) -> Value + Send + Sync>),
}

impl BoundDimension {
    #[inline]
    pub fn eval(&self, row: &Row) -> Value {
        match &self.eval {
            BoundEval::Column(i) => row[*i].clone(),
            BoundEval::Computed(f) => f(row),
        }
    }

    /// The input column index, when this dimension is a plain column
    /// reference. Lets hot loops borrow the value instead of cloning
    /// through [`eval`](Self::eval).
    #[inline]
    pub fn column_index(&self) -> Option<usize> {
        match &self.eval {
            BoundEval::Column(i) => Some(*i),
            BoundEval::Computed(_) => None,
        }
    }
}

/// One aggregate call in the select list: `SUM(units) AS total`.
#[derive(Clone)]
pub struct AggSpec {
    /// The function (from `dc_aggregate`), e.g. SUM.
    pub func: AggRef,
    /// Input column; `None` means `*` (COUNT(*)).
    pub input: Option<Arc<str>>,
    /// Output column name.
    pub output: Arc<str>,
}

impl AggSpec {
    /// Aggregate a column: `AggSpec::new(sum, "units")` → `SUM(units)`.
    pub fn new(func: AggRef, input: impl AsRef<str>) -> Self {
        let input: Arc<str> = Arc::from(input.as_ref());
        let output = Arc::from(format!("{}({})", func.name(), input));
        AggSpec {
            func,
            input: Some(input),
            output,
        }
    }

    /// Aggregate over whole rows: `COUNT(*)`.
    pub fn star(func: AggRef) -> Self {
        let output = Arc::from(func.name().to_string());
        AggSpec {
            func,
            input: None,
            output,
        }
    }

    /// Rename the output column (`AS`).
    pub fn with_name(mut self, name: impl AsRef<str>) -> Self {
        self.output = Arc::from(name.as_ref());
        self
    }

    /// Resolve the input column index, if any.
    pub(crate) fn bind(&self, schema: &Schema) -> CubeResult<BoundAgg> {
        let input = match &self.input {
            Some(col) => Some(schema.index_of(col)?),
            None => None,
        };
        Ok(BoundAgg {
            func: Arc::clone(&self.func),
            input,
            output: self.output.clone(),
        })
    }

    /// The output column's declared type, given the input schema.
    pub fn output_type(&self, schema: &Schema) -> CubeResult<DataType> {
        let input_ty = match &self.input {
            Some(col) => schema.column(col)?.dtype,
            None => DataType::Int,
        };
        // Aggregates without a declared output type preserve their
        // input type (MIN/MAX/SUM...).
        Ok(self.func.output_type(input_ty).unwrap_or(input_ty))
    }
}

impl std::fmt::Debug for AggSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.input {
            Some(c) => write!(f, "{}({}) AS {}", self.func.name(), c, self.output),
            None => write!(f, "{}(*) AS {}", self.func.name(), self.output),
        }
    }
}

/// An aggregate bound to a concrete input schema.
#[derive(Clone)]
pub(crate) struct BoundAgg {
    pub func: AggRef,
    pub input: Option<usize>,
    pub output: Arc<str>,
}

impl BoundAgg {
    /// The value this aggregate consumes from a row. `COUNT(*)` consumes a
    /// placeholder so NULL/ALL rows still count.
    #[inline]
    pub fn input_value<'r>(&self, row: &'r Row) -> &'r Value {
        const UNIT: Value = Value::Bool(true);
        match self.input {
            Some(i) => &row[i],
            None => {
                // A static non-token value; COUNT(*) counts it, others treat
                // it as a 1-valued input (harmless: only COUNT(*) is built
                // with `input: None`).
                &UNIT
            }
        }
    }
}

/// The compound aggregation specification of §3.1 / Figure 5:
///
/// ```sql
/// GROUP BY <g...> ROLLUP <r...> CUBE <c...>
/// ```
///
/// Dimensions are held in the order `g ++ r ++ c` (the answer's column
/// order); [`CompoundSpec::grouping_sets`] expands the algebra:
/// every GROUP BY column is in every set, the ROLLUP block contributes its
/// prefixes, and the CUBE block contributes its power set.
#[derive(Clone, Debug, Default)]
pub struct CompoundSpec {
    pub group_by: Vec<Dimension>,
    pub rollup: Vec<Dimension>,
    pub cube: Vec<Dimension>,
}

impl CompoundSpec {
    pub fn new() -> Self {
        CompoundSpec::default()
    }

    pub fn group_by(mut self, dims: Vec<Dimension>) -> Self {
        self.group_by = dims;
        self
    }

    pub fn rollup(mut self, dims: Vec<Dimension>) -> Self {
        self.rollup = dims;
        self
    }

    pub fn cube(mut self, dims: Vec<Dimension>) -> Self {
        self.cube = dims;
        self
    }

    /// All dimensions in answer-column order.
    pub fn dimensions(&self) -> Vec<Dimension> {
        self.group_by
            .iter()
            .chain(self.rollup.iter())
            .chain(self.cube.iter())
            .cloned()
            .collect()
    }

    /// Expand to the family of grouping sets over the combined dimension
    /// list. The family is deduplicated and ordered from the core
    /// (all dimensions) down to the coarsest set.
    pub fn grouping_sets(&self) -> CubeResult<Vec<GroupingSet>> {
        let n = self.group_by.len() + self.rollup.len() + self.cube.len();
        if n > GroupingSet::MAX_DIMS {
            return Err(CubeError::BadSpec(format!(
                "{n} dimensions exceeds the {}-dimension limit",
                GroupingSet::MAX_DIMS
            )));
        }
        let g = self.group_by.len();
        let r = self.rollup.len();
        let c = self.cube.len();

        // GROUP BY block: always present.
        let g_mask = GroupingSet::first_k(g);

        let mut sets = Vec::new();
        for r_len in (0..=r).rev() {
            // ROLLUP block prefixes, longest first.
            let r_mask = GroupingSet::first_k(r_len).shift(g);
            for c_bits in 0..(1u32 << c) {
                let c_mask = GroupingSet::from_bits(c_bits).shift(g + r);
                sets.push(g_mask.union(r_mask).union(c_mask));
            }
        }
        sets.sort_by(|a, b| b.len().cmp(&a.len()).then(a.bits().cmp(&b.bits())));
        sets.dedup();
        Ok(sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_aggregate::builtin;
    use dc_relation::row;

    fn dims(names: &[&str]) -> Vec<Dimension> {
        names.iter().map(Dimension::column).collect()
    }

    #[test]
    fn plain_group_by_is_one_set() {
        let spec = CompoundSpec::new().group_by(dims(&["a", "b"]));
        let sets = spec.grouping_sets().unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 2);
    }

    #[test]
    fn rollup_has_n_plus_one_sets() {
        let spec = CompoundSpec::new().rollup(dims(&["year", "month", "day"]));
        let sets = spec.grouping_sets().unwrap();
        // (y,m,d), (y,m), (y), () — §3: "an N-dimensional roll-up will add
        // only N records [set families] to the answer set".
        assert_eq!(sets.len(), 4);
        assert_eq!(sets[0].len(), 3);
        assert_eq!(sets[3].len(), 0);
    }

    #[test]
    fn cube_has_two_to_the_n_sets() {
        let spec = CompoundSpec::new().cube(dims(&["model", "year", "color"]));
        let sets = spec.grouping_sets().unwrap();
        assert_eq!(sets.len(), 8); // 2^3
    }

    #[test]
    fn compound_figure_5_shape() {
        // GROUP BY Manufacturer, ROLLUP Year, Month, Day, CUBE Color, Model.
        let spec = CompoundSpec::new()
            .group_by(dims(&["manufacturer"]))
            .rollup(dims(&["year", "month", "day"]))
            .cube(dims(&["color", "model"]));
        let sets = spec.grouping_sets().unwrap();
        // 1 × 4 × 4 = 16 grouping sets.
        assert_eq!(sets.len(), 16);
        // Manufacturer (dim 0) is in every set.
        assert!(sets.iter().all(|s| s.contains(0)));
        // The ROLLUP block only appears as prefixes: day (dim 3) without
        // month (dim 2) never occurs.
        assert!(sets.iter().all(|s| !s.contains(3) || s.contains(2)));
    }

    #[test]
    fn algebra_cube_of_rollup_is_cube() {
        // §3.1: CUBE(ROLLUP) = CUBE. Putting the same dimensions in the
        // CUBE block subsumes every set a ROLLUP of them would produce.
        let cube = CompoundSpec::new()
            .cube(dims(&["a", "b"]))
            .grouping_sets()
            .unwrap();
        let rollup = CompoundSpec::new()
            .rollup(dims(&["a", "b"]))
            .grouping_sets()
            .unwrap();
        for s in &rollup {
            assert!(cube.contains(s), "cube must subsume rollup set {s:?}");
        }
        // And ROLLUP(GROUP BY) = ROLLUP: the group-by's single set is the
        // rollup's finest set.
        let gb = CompoundSpec::new()
            .group_by(dims(&["a", "b"]))
            .grouping_sets()
            .unwrap();
        assert!(rollup.contains(&gb[0]));
    }

    #[test]
    fn dedup_when_blocks_overlap_masks() {
        // An empty spec yields exactly the one empty grouping set.
        let sets = CompoundSpec::new().grouping_sets().unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 0);
    }

    #[test]
    fn dimension_binding_and_eval() {
        let schema = Schema::from_pairs(&[("model", DataType::Str), ("units", DataType::Int)]);
        let d = Dimension::column("model").bind(&schema).unwrap();
        assert_eq!(d.eval(&row!["Chevy", 50]), Value::str("Chevy"));
        assert_eq!(d.dtype, DataType::Str);
        assert!(Dimension::column("nope").bind(&schema).is_err());

        let computed = Dimension::computed("units_bucket", DataType::Int, |r| {
            Value::Int(r[1].as_i64().unwrap_or(0) / 100)
        });
        let b = computed.bind(&schema).unwrap();
        assert_eq!(b.eval(&row!["Chevy", 250]), Value::Int(2));
    }

    #[test]
    fn agg_spec_naming() {
        let sum = builtin("SUM").unwrap();
        let spec = AggSpec::new(sum.clone(), "units");
        assert_eq!(&*spec.output, "SUM(units)");
        let named = AggSpec::new(sum, "units").with_name("total");
        assert_eq!(&*named.output, "total");
    }
}
