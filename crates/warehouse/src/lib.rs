//! # dc-warehouse — star/snowflake schemas and synthetic workloads
//!
//! The data side of the reproduction. The paper's examples revolve around
//! three datasets and one schema pattern:
//!
//! * the **car sales** table (Figure 4, Tables 3-6) — [`sales`];
//! * the **weather** relation (Table 1, §1.1's 4D earth-temperature
//!   example, and §2's histogram query) — [`weather`];
//! * the **retail snowflake** of Figure 6 — a sales-item fact table with
//!   office / product / customer dimension tables and their granularity
//!   hierarchies — [`retail`];
//! * the **benchmark query sets** of Table 2 (TPC-A/B/C/D, Wisconsin,
//!   AS3AP, SetQuery). The originals are not redistributable, so
//!   [`workloads`] carries reconstructions with the same aggregate /
//!   GROUP BY profile, parsed and counted mechanically through `dc-sql` —
//!   see DESIGN.md's substitution note.
//!
//! Generators are deterministic given a seed, so benchmarks and
//! experiments are reproducible run to run.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod retail;
pub mod sales;
pub mod weather;
pub mod workloads;
