//! # dc-sql — a SQL front end for the data cube
//!
//! The paper's operators were designed as SQL syntax: "Since the CUBE is
//! an aggregation operation, it makes sense to externalize it by
//! overloading the SQL GROUP BY operator" (§3), with the final grammar
//!
//! ```sql
//! GROUP BY [<aggregation list>]
//!     [ROLLUP <aggregation list>]
//!     [CUBE <aggregation list>]
//! ```
//!
//! This crate is the substrate that makes the embedding real: a lexer,
//! recursive-descent parser, and executor for the SQL subset the paper's
//! examples use —
//!
//! * `SELECT` lists mixing grouping expressions, aggregate calls,
//!   arbitrary arithmetic over them, string literals, and the `GROUPING()`
//!   discriminator of §3.4;
//! * aggregation over *computed categories* (§2's histogram problem):
//!   `GROUP BY Day(Time) AS day, Nation(Latitude, Longitude) AS nation`;
//! * `GROUP BY` / `ROLLUP` / `CUBE` in the §3.1 compound form, plus
//!   `GROUPING SETS (...)`;
//! * `WHERE` (three-valued), `HAVING`, `ORDER BY`, `UNION [ALL]` — enough
//!   to run the paper's §2 hand-written 4-way-union roll-up verbatim and
//!   compare it against the CUBE operator;
//! * uncorrelated scalar subqueries, for §4's percent-of-total example;
//! * `JOIN ... USING` for §3.5 decorations and star queries.
//!
//! The executor plans aggregation through [`datacube::CubeQuery`], so
//! every query benefits from the §5 algorithms.
//!
//! Beyond the single-caller API, the crate is a *cube service*: one
//! [`Engine`] shares its catalog across any number of [`Session`]s, an
//! [`AdmissionController`] apportions a global memory/cell budget across
//! in-flight queries (queueing, shedding, and a reserved cheap lane), and
//! [`server::serve`] exposes it all over a length-prefixed TCP protocol
//! (see the `dc_serve` binary and DESIGN.md "Concurrent serving").

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod admission;
pub mod ast;
pub mod cache;
pub mod catalog;
pub mod engine;
pub mod error;
pub mod eval;
pub mod parser;
mod plan;
pub mod scalar;
pub mod server;
pub mod session;
pub mod token;
pub mod wire;

pub use admission::{AdmissionController, AdmissionCounters, QueryCost, ServiceConfig};
pub use cache::{CacheCounters, CubeCache};
pub use catalog::{Catalog, CatalogSnapshot, SharedCatalog};
pub use engine::Engine;
pub use error::{SqlError, SqlResult};
pub use scalar::ScalarRegistry;
pub use server::{serve, ServerConfig, ServerHandle};
pub use session::{LastStatement, Session};
pub use wire::{read_frame, write_frame, Response};
