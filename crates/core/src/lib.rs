//! # datacube — the CUBE / ROLLUP relational operators
//!
//! A from-scratch reproduction of *Gray, Chaudhuri, Bosworth, Layman,
//! Reichart, Venkatrao, Pellow, Pirahesh: "Data Cube: A Relational
//! Aggregation Operator Generalizing Group-By, Cross-Tab, and Sub-Totals"*
//! (ICDE 1996).
//!
//! The paper's thesis: the N-dimensional generalization of GROUP BY — the
//! **data cube** — is itself a relation, representable with the `ALL`
//! pseudo-value, computable efficiently for distributive and algebraic
//! aggregate functions, and composable with the rest of SQL. This crate
//! implements:
//!
//! * the operators — [`CubeQuery::cube`], [`CubeQuery::rollup`],
//!   [`CubeQuery::group_by`], [`CubeQuery::grouping_sets`], and the §3.1
//!   compound algebra [`CompoundSpec`];
//! * the grouping-set [`lattice`] and the §5 computation strategies a
//!   query can select ([`Algorithm`], five shapes of one arena engine):
//!   the 2^N algorithm, union-of-GROUP-BYs, the from-core scratchpad
//!   cascade with smallest-cardinality parent selection, and
//!   partition-parallel aggregation; the rest of §5 — sort-based ROLLUP,
//!   the dense N-dimensional array over dictionary-encoded dimensions,
//!   PipeSort-style shared sorts over the symmetric chain decomposition
//!   (the paper's \[ADGNRS\] citation) and the `Row`-keyed originals of
//!   the hash-based four — is the reproduction, behind the hidden
//!   `algorithm::repro::run` that tests and the claim assertions call;
//! * partial-cube selection per the paper's \[HRU\] citation
//!   ([`subcube`]): greedy view selection over estimated or measured node
//!   sizes;
//! * cube [`addressing`] (§4): cell lookup, percent-of-total, the
//!   `index()` financial function, and the `ALL()` set function of §3.3;
//! * [`pivot`]: cross-tab and pivot-table rendering (Tables 4 and 6);
//! * [`decoration`]s (§3.5): functionally dependent answer columns that
//!   go NULL on super-aggregate rows;
//! * dimension [`hierarchy`] support (§3.6): calendar and geographic
//!   granularity lattices for star/snowflake designs;
//! * the materialized store ([`maintain`]): grouping-set cells kept
//!   between statements — updated by insert/delete/update with §6's
//!   taxonomy (SUM is algebraic for DELETE; MAX is delete-holistic and
//!   triggers recomputation), and answering any grouping set from the
//!   smallest usable materialized node (a full cube, an HRU selection and
//!   a lattice-cache view are the same structure).
//!
//! See DESIGN.md in the repository root for the paper-to-module map and
//! EXPERIMENTS.md for the regenerated tables and figures.

pub mod addressing;
pub mod algorithm;
pub mod decoration;
pub(crate) mod encode;
pub mod error;
pub mod exec;
pub mod groupby;
pub mod hierarchy;
pub mod lattice;
pub mod maintain;
pub mod operator;
pub mod pivot;
pub mod spec;
pub mod subcube;

pub use algorithm::{Algorithm, ParentChoice};
pub use error::{CubeError, CubeResult, Resource};
pub use exec::{CancelToken, ExecContext, ExecLimits};
pub use groupby::{AdmissionVerdict, ExecStats};
pub use lattice::{cube_sets, rollup_sets, GroupingSet, Lattice};
pub use maintain::{
    rewritable, AncestorRequest, CachedView, DeltaBatch, MaintainStats, MaterializedCube,
};
pub use operator::{dense_cube_cardinality, rows_in_set, CubeQuery};
pub use spec::{AggSpec, CompoundSpec, Dimension};
pub use subcube::{greedy_select, SizeModel};
