//! The public CUBE / ROLLUP / GROUPING SETS operators.
//!
//! Everything returns a plain [`Table`] — the paper's thesis is precisely
//! that "cubes are relations", so the result can be filtered, joined,
//! unioned, re-aggregated, pivoted, or fed to a report writer like any
//! other table. Grouping columns of the result are marked `ALL ALLOWED`
//! and carry [`Value::All`] on super-aggregate rows; use
//! [`Table::to_null_grouping_encoding`] for the §3.4 NULL + `GROUPING()`
//! encoding instead.
//!
//! Row order is canonical: grouping sets from the core downward, each
//! set's rows sorted by key with `ALL` collating last — the layout of the
//! paper's Table 5.a.

use crate::algorithm::{self, Algorithm, ParentChoice};
use crate::error::{CubeError, CubeResult};
use crate::exec::{self, ExecContext, ExecLimits};
use crate::groupby::{result_schema, ExecStats};
use crate::lattice::{GroupingSet, Lattice};
use crate::spec::{AggSpec, BoundAgg, BoundDimension, CompoundSpec, Dimension};
use dc_relation::{Schema, Table, Value};

/// A cube/rollup query: dimensions + aggregates + algorithm choice.
///
/// ```
/// use datacube::{CubeQuery, AggSpec, Dimension};
/// use dc_aggregate::builtin;
/// use dc_relation::{row, DataType, Schema, Table};
///
/// let schema = Schema::from_pairs(&[
///     ("model", DataType::Str),
///     ("year", DataType::Int),
///     ("units", DataType::Int),
/// ]);
/// let sales = Table::new(schema, vec![
///     row!["Chevy", 1994, 50],
///     row!["Ford", 1994, 60],
/// ]).unwrap();
///
/// let cube = CubeQuery::new()
///     .dimensions(vec![Dimension::column("model"), Dimension::column("year")])
///     .aggregate(AggSpec::new(builtin("SUM").unwrap(), "units").with_name("units"))
///     .cube(&sales)
///     .unwrap();
/// // 2 core rows + 2 model rows + 1 year row + grand total.
/// assert_eq!(cube.len(), 2 + 2 + 1 + 1);
/// ```
#[derive(Clone)]
pub struct CubeQuery {
    dims: Vec<Dimension>,
    aggs: Vec<AggSpec>,
    algorithm: Algorithm,
    limits: ExecLimits,
}

impl Default for CubeQuery {
    fn default() -> Self {
        CubeQuery::new()
    }
}

impl CubeQuery {
    pub fn new() -> Self {
        CubeQuery {
            dims: Vec::new(),
            aggs: Vec::new(),
            algorithm: Algorithm::Auto,
            limits: ExecLimits::none(),
        }
    }

    /// Set the grouping dimensions (answer-column order).
    pub fn dimensions(mut self, dims: Vec<Dimension>) -> Self {
        self.dims = dims;
        self
    }

    /// Add one dimension.
    pub fn dimension(mut self, dim: Dimension) -> Self {
        self.dims.push(dim);
        self
    }

    /// Add one aggregate to the select list.
    pub fn aggregate(mut self, agg: AggSpec) -> Self {
        self.aggs.push(agg);
        self
    }

    /// Choose the execution algorithm (default [`Algorithm::Auto`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Attach execution limits: cell/memory budgets, a wall-clock timeout,
    /// and/or a [`crate::exec::CancelToken`]. Default is unlimited.
    /// Exceeding a budget returns `CubeError::ResourceExhausted` (or
    /// `Cancelled`) carrying the [`ExecStats`] accumulated so far; where a
    /// cheaper plan fits the budget the engine degrades instead (cascade →
    /// per-set streaming) and flags the switch in the stats.
    pub fn limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// `GROUP BY CUBE`: all 2^N grouping sets.
    pub fn cube(&self, table: &Table) -> CubeResult<Table> {
        Ok(self.cube_with_stats(table)?.0)
    }

    /// CUBE with work counters.
    pub fn cube_with_stats(&self, table: &Table) -> CubeResult<(Table, ExecStats)> {
        let lattice = Lattice::cube(self.dims.len())?;
        self.execute(table, &lattice, None)
    }

    /// CUBE via the from-core cascade with an explicit parent-selection
    /// policy — the ablation hook for the paper's "pick the * with the
    /// smallest Cᵢ" rule (claim C6). Results are identical across
    /// policies; only the merge work differs.
    pub fn cube_with_parent_choice(
        &self,
        table: &Table,
        choice: ParentChoice,
    ) -> CubeResult<(Table, ExecStats)> {
        let lattice = Lattice::cube(self.dims.len())?;
        self.execute_filtered(table, &lattice, None, Algorithm::FromCore, choice)
    }

    /// `GROUP BY ROLLUP`: the N+1 prefix grouping sets.
    pub fn rollup(&self, table: &Table) -> CubeResult<Table> {
        Ok(self.rollup_with_stats(table)?.0)
    }

    /// ROLLUP with work counters.
    pub fn rollup_with_stats(&self, table: &Table) -> CubeResult<(Table, ExecStats)> {
        let lattice = Lattice::rollup(self.dims.len())?;
        self.execute(table, &lattice, None)
    }

    /// Plain `GROUP BY`: the single full grouping set (Figure 2).
    pub fn group_by(&self, table: &Table) -> CubeResult<Table> {
        let lattice = Lattice::new(self.dims.len(), vec![GroupingSet::full(self.dims.len())])?;
        Ok(self.execute(table, &lattice, None)?.0)
    }

    /// `GROUP BY GROUPING SETS (...)`: an explicit family, each set given
    /// as dimension indices into this query's dimension list. The core is
    /// computed even if not requested (the cascade needs it) but only the
    /// requested sets are returned.
    pub fn grouping_sets(&self, table: &Table, sets: &[Vec<usize>]) -> CubeResult<Table> {
        Ok(self.grouping_sets_with_stats(table, sets)?.0)
    }

    /// GROUPING SETS with work counters.
    pub fn grouping_sets_with_stats(
        &self,
        table: &Table,
        sets: &[Vec<usize>],
    ) -> CubeResult<(Table, ExecStats)> {
        let requested: Vec<GroupingSet> = sets
            .iter()
            .map(|s| GroupingSet::from_dims(s))
            .collect::<CubeResult<_>>()?;
        let lattice = Lattice::new(self.dims.len(), requested.clone())?;
        self.execute(table, &lattice, Some(&requested))
    }

    /// The §3.1 compound form: `GROUP BY g ROLLUP r CUBE c`. The spec's
    /// dimension list replaces this query's.
    pub fn compound(&self, table: &Table, spec: &CompoundSpec) -> CubeResult<Table> {
        Ok(self.compound_with_stats(table, spec)?.0)
    }

    /// Compound form with work counters.
    pub fn compound_with_stats(
        &self,
        table: &Table,
        spec: &CompoundSpec,
    ) -> CubeResult<(Table, ExecStats)> {
        let query = CubeQuery {
            dims: spec.dimensions(),
            ..self.clone()
        };
        let sets = spec.grouping_sets()?;
        let lattice = Lattice::new(query.dims.len(), sets.clone())?;
        query.execute(table, &lattice, Some(&sets))
    }

    /// Execute with this query's algorithm and the paper's parent rule.
    fn execute(
        &self,
        table: &Table,
        lattice: &Lattice,
        keep: Option<&[GroupingSet]>,
    ) -> CubeResult<(Table, ExecStats)> {
        let choice = ParentChoice::SmallestCardinality;
        self.execute_filtered(table, lattice, keep, self.algorithm, choice)
    }

    fn execute_filtered(
        &self,
        table: &Table,
        lattice: &Lattice,
        keep: Option<&[GroupingSet]>,
        algorithm: Algorithm,
        choice: ParentChoice,
    ) -> CubeResult<(Table, ExecStats)> {
        self.run_bound(table, |dims, aggs, out_schema, stats, ctx| {
            algorithm::run(
                algorithm, table, dims, aggs, lattice, choice, keep, out_schema, stats, ctx,
            )
        })
    }

    pub(crate) fn selected_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Bind dimensions and aggregates against `table`, then run `body`
    /// (bound dimensions, bound aggregates, result schema, stats, context)
    /// under this query's limits; an error carries the stats so far.
    pub(crate) fn run_bound(
        &self,
        table: &Table,
        body: impl FnOnce(
            &[BoundDimension],
            &[BoundAgg],
            Schema,
            &mut ExecStats,
            &ExecContext,
        ) -> CubeResult<Table>,
    ) -> CubeResult<(Table, ExecStats)> {
        if self.aggs.is_empty() {
            return Err(CubeError::BadSpec(
                "at least one aggregate is required".into(),
            ));
        }
        let schema = table.schema();
        let dims: Vec<_> = self
            .dims
            .iter()
            .map(|d| d.bind(schema))
            .collect::<CubeResult<_>>()?;
        let aggs: Vec<_> = self
            .aggs
            .iter()
            .map(|a| a.bind(schema))
            .collect::<CubeResult<_>>()?;
        let agg_types: Vec<_> = self
            .aggs
            .iter()
            .map(|a| a.output_type(schema))
            .collect::<CubeResult<_>>()?;
        let out_schema = result_schema(&dims, &aggs, &agg_types)?;

        let ctx = ExecContext::new(
            &self.limits,
            exec::estimate_bytes_per_cell(dims.len(), aggs.len()),
        );
        let mut stats = ExecStats::default();
        // Outer safety net: `exec::guard` already isolates each UDA
        // callback, but a panic in the engine itself must also surface as
        // a typed error instead of unwinding into the caller.
        let run = exec::guard("query", || body(&dims, &aggs, out_schema, &mut stats, &ctx));
        match run {
            Ok(Ok(out)) => Ok((out, stats)),
            Ok(Err(e)) | Err(e) => Err(e.with_partial_stats(stats)),
        }
    }
}

/// The cardinality of a full cube per §3: `Π(C_i + 1)` *if the core were
/// dense*. The actual result of [`CubeQuery::cube`] can be smaller when
/// the core is sparse — only cells backed by data are materialized.
/// Saturates at `usize::MAX` rather than overflowing.
pub fn dense_cube_cardinality(cardinalities: &[usize]) -> usize {
    cardinalities
        .iter()
        .fold(1, |cells, c| cells.saturating_mul(c.saturating_add(1)))
}

/// Count rows of a cube result that belong to a given grouping set (i.e.
/// have `ALL` exactly in the dropped dimensions). Dimension columns are
/// assumed to be the first `n_dims` columns, as produced by the operators.
pub fn rows_in_set(cube: &Table, n_dims: usize, set: GroupingSet) -> usize {
    cube.rows()
        .iter()
        .filter(|r| (0..n_dims).all(|d| (r[d] != Value::All) == set.contains(d)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::repro::{self, Repro};
    use crate::spec::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Row, Schema};

    /// The paper's Figure 4 SALES table: 2 models × 3 years × 3 colors.
    pub(crate) fn figure4_sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("color", DataType::Str),
            ("units", DataType::Int),
        ]);
        let mut t = Table::empty(schema);
        let mut unit = 1;
        for model in ["Chevy", "Ford"] {
            for year in [1990i64, 1991, 1992] {
                for color in ["red", "white", "blue"] {
                    t.push(row![model, year, color, unit]).unwrap();
                    unit += 1;
                }
            }
        }
        assert_eq!(t.len(), 18);
        t
    }

    fn sum_units() -> AggSpec {
        AggSpec::new(builtin("SUM").unwrap(), "units").with_name("units")
    }

    fn dims3() -> Vec<Dimension> {
        vec![
            Dimension::column("model"),
            Dimension::column("year"),
            Dimension::column("color"),
        ]
    }

    #[test]
    fn figure_4_cardinality() {
        // "the SALES table has 2 x 3 x 3 = 18 rows, while the derived data
        // cube has 3 x 4 x 4 = 48 rows."
        let sales = figure4_sales();
        let cube = CubeQuery::new()
            .dimensions(dims3())
            .aggregate(sum_units())
            .cube(&sales)
            .unwrap();
        assert_eq!(cube.len(), 48);
        assert_eq!(dense_cube_cardinality(&[2, 3, 3]), 48);
        // `C + 1` and the product both saturate instead of overflowing.
        assert_eq!(dense_cube_cardinality(&[usize::MAX]), usize::MAX);
        assert_eq!(dense_cube_cardinality(&[1 << 40; 12]), usize::MAX);
    }

    #[test]
    fn rollup_adds_n_families() {
        let sales = figure4_sales();
        let rollup = CubeQuery::new()
            .dimensions(dims3())
            .aggregate(sum_units())
            .rollup(&sales)
            .unwrap();
        // 18 core + 6 (model,year) + 2 (model) + 1 grand.
        assert_eq!(rollup.len(), 27);
    }

    #[test]
    fn all_algorithms_agree_on_the_cube() {
        let sales = figure4_sales();
        let reference = CubeQuery::new()
            .dimensions(dims3())
            .aggregate(sum_units())
            .algorithm(Algorithm::TwoToTheN)
            .cube(&sales)
            .unwrap();
        let query = CubeQuery::new().dimensions(dims3()).aggregate(sum_units());
        for alg in [
            Algorithm::Auto,
            Algorithm::UnionGroupBys,
            Algorithm::FromCore,
            Algorithm::Parallel { threads: 3 },
        ] {
            let got = query.clone().algorithm(alg).cube(&sales).unwrap();
            assert_eq!(got.rows(), reference.rows(), "{alg:?}");
        }
        let lattice = Lattice::cube(3).unwrap();
        for which in [Repro::Reference, Repro::Array, Repro::PipeSort] {
            let (got, _) = repro::run(which, &query, &sales, &lattice, None).unwrap();
            assert_eq!(got.rows(), reference.rows(), "{which:?}");
        }
    }

    #[test]
    fn sort_agrees_on_rollup() {
        let sales = figure4_sales();
        let reference = CubeQuery::new()
            .dimensions(dims3())
            .aggregate(sum_units())
            .rollup(&sales)
            .unwrap();
        let query = CubeQuery::new().dimensions(dims3()).aggregate(sum_units());
        let lattice = Lattice::rollup(3).unwrap();
        let (sorted, _) = repro::run(Repro::Sort, &query, &sales, &lattice, None).unwrap();
        assert_eq!(sorted.rows(), reference.rows());
    }

    #[test]
    fn group_by_is_the_degenerate_form() {
        let sales = figure4_sales();
        let gb = CubeQuery::new()
            .dimensions(vec![Dimension::column("model")])
            .aggregate(sum_units())
            .group_by(&sales)
            .unwrap();
        assert_eq!(gb.len(), 2);
        assert!(gb.rows().iter().all(|r| r[0] != Value::All));
    }

    #[test]
    fn grouping_sets_returns_only_requested() {
        let sales = figure4_sales();
        let gs = CubeQuery::new()
            .dimensions(dims3())
            .aggregate(sum_units())
            .grouping_sets(&sales, &[vec![0], vec![1]])
            .unwrap();
        // 2 model rows + 3 year rows; no core, no grand total.
        assert_eq!(gs.len(), 5);
        let n_all = |r: &Row| (0..3).filter(|&d| r[d] == Value::All).count();
        assert!(gs.rows().iter().all(|r| n_all(r) == 2));
    }

    #[test]
    fn compound_spec_figure_5() {
        let sales = figure4_sales();
        let spec = CompoundSpec::new()
            .group_by(vec![Dimension::column("model")])
            .rollup(vec![Dimension::column("year")])
            .cube(vec![Dimension::column("color")]);
        let out = CubeQuery::new()
            .aggregate(sum_units())
            .compound(&sales, &spec)
            .unwrap();
        // Sets: {m,y,c}=18, {m,y}=6, {m,c}=6, {m}=2 → 32 rows; model is
        // never ALL.
        assert_eq!(out.len(), 32);
        assert!(out.rows().iter().all(|r| r[0] != Value::All));
    }

    #[test]
    fn result_is_a_relation_cubes_compose() {
        // The paper's central claim: the cube is a relation, so relational
        // operators apply. Filter the cube to super-aggregates only.
        let sales = figure4_sales();
        let cube = CubeQuery::new()
            .dimensions(dims3())
            .aggregate(sum_units())
            .cube(&sales)
            .unwrap();
        let supers = cube.filter(|r| (0..3).any(|d| r[d] == Value::All));
        assert_eq!(supers.len(), 48 - 18);
        // And the GROUPING() predicate separates them (§3.4).
        assert!(supers.rows().iter().all(|r| r.iter().any(Value::grouping)));
    }

    #[test]
    fn empty_input_produces_empty_cube() {
        let sales = figure4_sales();
        let empty = Table::empty(sales.schema().clone());
        let cube = CubeQuery::new()
            .dimensions(dims3())
            .aggregate(sum_units())
            .cube(&empty)
            .unwrap();
        assert!(cube.is_empty());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let sales = figure4_sales();
        assert!(CubeQuery::new()
            .dimensions(vec![Dimension::column("nope")])
            .aggregate(sum_units())
            .cube(&sales)
            .is_err());
        assert!(CubeQuery::new().dimensions(dims3()).cube(&sales).is_err()); // no aggregates
        assert!(CubeQuery::new()
            .dimensions(dims3())
            .aggregate(sum_units())
            .grouping_sets(&sales, &[vec![7]])
            .is_err()); // dim out of range
    }

    #[test]
    fn rows_in_set_counts_by_all_pattern() {
        let sales = figure4_sales();
        let cube = CubeQuery::new()
            .dimensions(dims3())
            .aggregate(sum_units())
            .cube(&sales)
            .unwrap();
        assert_eq!(rows_in_set(&cube, 3, GroupingSet::full(3)), 18);
        assert_eq!(rows_in_set(&cube, 3, GroupingSet::EMPTY), 1);
        assert_eq!(
            rows_in_set(&cube, 3, GroupingSet::from_dims(&[0]).unwrap()),
            2
        );
    }
}
